"""Ini config files read straight into frozen dataclasses.

Each section maps onto one dataclass: its keys are the field names, each value
is converted by the field's declared type (int, float or str), and an optional
``version`` key must be 1.  Unknown keys, unparsable values, non-finite
floats (``nan``, ``inf``), missing required fields and values the dataclass
rejects are DomainErrors naming the file and the section.
See FORMATS.md.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from pathlib import Path

from .errors import DomainError


def read_ini(path: str | Path) -> configparser.ConfigParser:
    """Parse an ini file; a missing, undecodable or malformed file is a DomainError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: malformed config file: {exc}") from exc
    if not found:
        raise DomainError(f"config file not found: {path}")
    return parser


def section_to(cls, parser: configparser.ConfigParser, section: str, path: str | Path, **fixed):
    """Build the dataclass ``cls`` from ``[section]``; ``fixed`` fields are the
    caller's to set, so the section may not carry them."""
    if section not in parser:
        raise DomainError(f"{path}: no [{section}] section")
    types = typing.get_type_hints(cls)
    kwargs = dict(fixed)
    for key, raw in parser[section].items():
        convert = int if key == "version" else types.get(key)
        if convert is None or key in fixed:
            raise DomainError(f"{path}: [{section}] has unknown key {key!r}")
        try:
            value = convert(raw)
        except ValueError:
            raise DomainError(
                f"{path}: [{section}] {key} = {raw!r} is not a valid {convert.__name__}"
            ) from None
        if convert is float and not math.isfinite(value):
            raise DomainError(f"{path}: [{section}] {key} = {raw!r} is not a finite number")
        if key != "version":
            kwargs[key] = value
        elif value != 1:
            raise DomainError(f"{path}: [{section}] version {value} is not supported (only 1)")
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise DomainError(f"{path}: [{section}] is missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise DomainError(f"{path}: [{section}] {exc}") from None
