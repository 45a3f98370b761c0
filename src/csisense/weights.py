"""Weight bundles: one trained fold's parameters, architecture, and scaler.

A bundle's parameter block is the model's parameter store as it is:
``param_count(arch)`` float32 values in ``ParamStore.carve`` order, then the
robust scaler's median, IQR and degenerate vectors.  The file repeats no
names or shapes; the reader takes every length from the metadata's
architecture and refuses a file of any other length.  Little-endian, with a
JSON metadata block and a trailing CRC32; save -> load -> save reproduces
the bytes exactly.  Loading copies no parameter: the block is a read-only
view into the checked file bytes, and ``model_from_weights`` keeps that view
as the model's store.  Every bundle embeds its scaler, so a bundle is
sufficient to classify raw trials on its own.  See FORMATS.md.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataio import decode_json, read_checked, write_checked
from .errors import FormatError, VersionError
from .features import RobustScalerParams
from .model import ArchConfig, SequenceClassifier, param_count

WEIGHTS_MAGIC = b"CSWB"
WEIGHTS_VERSION = 3
_ARCH_TYPES = typing.get_type_hints(ArchConfig)


@dataclass
class ModelWeights:
    values: np.ndarray  # the float32 parameter block, in carve order
    arch: ArchConfig
    fold_id: int
    seed: int
    scaler: RobustScalerParams


def weights_from_model(
    model: SequenceClassifier, fold_id: int, seed: int, scaler: RobustScalerParams
) -> ModelWeights:
    values = np.asarray(model.store.values, dtype="<f4")
    return ModelWeights(values=values, arch=model.arch, fold_id=fold_id, seed=seed, scaler=scaler)


def model_from_weights(w: ModelWeights) -> SequenceClassifier:
    """The network for inference, its store the bundle's float32 block
    itself: no parameter is drawn or copied, and a loaded bundle's block is
    read-only.  It predicts in float32, reading each weight as stored.  It
    cannot train (a training forward raises DomainError)."""
    return SequenceClassifier(w.arch, seed=w.seed, values=w.values)


def save_weights(w: ModelWeights, path: str | Path) -> None:
    """Write a bundle via write-then-rename so readers never see a partial file."""
    meta = {"format_version": WEIGHTS_VERSION, "arch": asdict(w.arch), "fold_id": w.fold_id, "seed": w.seed}
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = WEIGHTS_MAGIC + struct.pack("<BI", WEIGHTS_VERSION, len(meta_raw)) + meta_raw
    # zero padding puts the parameter block at a 4-byte-aligned offset, so
    # that its float32 view is aligned and NumPy hands its products to BLAS
    header += bytes(-len(header) % 4)
    scaler = (w.scaler.median, w.scaler.iqr, w.scaler.degenerate)
    write_checked(path, header, np.asarray(w.values, dtype="<f4"), *(a.astype("<f4") for a in scaler))


def _read_meta(meta: dict) -> tuple[ArchConfig, int, int]:
    """The metadata's architecture, fold id and seed.  Each value must have
    its field's JSON type (a bool is no int) and be finite; the fold id and
    seed are ints of at least 0."""
    arch, fold_id, seed = meta["arch"], meta["fold_id"], meta["seed"]
    # dict() only lets the loop run; ArchConfig(**arch) refuses a non-object
    # and unknown keys with a TypeError
    fields = [(f"arch {key}", value, _ARCH_TYPES.get(key)) for key, value in dict(arch).items()]
    for name, value, kind in fields + [("fold_id", fold_id, int), ("seed", seed, int)]:
        if kind is not None and (type(value) is not kind or (kind is float and not math.isfinite(value))):
            raise ValueError(f"{name} = {value!r} is not a finite {kind.__name__}")
    if min(fold_id, seed) < 0:
        raise ValueError(f"fold_id = {fold_id}, seed = {seed}: both must be at least 0")
    return ArchConfig(**arch), fold_id, seed


def load_weights(path: str | Path) -> ModelWeights:
    cur = read_checked(path, WEIGHTS_MAGIC, "weight bundle")
    (version,) = cur.unpack("<B")
    if version != WEIGHTS_VERSION:
        raise VersionError(f"{path}: weight bundle version {version} not supported")
    arch, fold_id, seed = decode_json(cur.text("<I"), path, "metadata block", _read_meta)
    cur.take(-cur.offset % 4)  # the padding before the parameter block
    count, width = param_count(arch), arch.feature_dim
    expected = cur.offset + 4 * (count + 3 * width)
    if len(cur.body) != expected:
        raise FormatError(
            f"{path}: {count} parameters and a scaler of width {width} need {expected} bytes "
            f"before the checksum, found {len(cur.body)}"
        )
    values = np.frombuffer(cur.take(4 * count), dtype="<f4")
    median, iqr, degenerate = np.frombuffer(cur.take(12 * width), dtype="<f4").reshape(3, width)
    scaler = RobustScalerParams(median.astype(np.float64), iqr.astype(np.float64), degenerate != 0.0)
    return ModelWeights(values=values, arch=arch, fold_id=fold_id, seed=seed, scaler=scaler)
