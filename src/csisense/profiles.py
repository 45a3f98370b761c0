"""Synthetic class profiles: interaction envelopes as data, not code.

Every class is described by a small parameter set in an ini file (see
configs/profiles.ini): an envelope shape applied to the multipath rays while
the interaction happens, modulation depths for the line-of-sight and
scattered rays, a carrier-phase drift, and a left/right asymmetry weighting
across the receive antennas that distinguishes the left/right class variants.
A class's timing (its steady dwell, its interaction segment and which comes
first) is fixed by ``CLASS_TIMING`` and ``ENDS_IN_DWELL``, not by the file.
The generator interprets these parameters; it has no per-class code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_ini, section_to
from .domain import LABELS, label_to_index
from .errors import DomainError

# steady dwell and interaction seconds per class; the recordings hold the
# dwell at the start of a trial, except for the classes of ENDS_IN_DWELL
CLASS_TIMING: dict[str, tuple[float, float]] = {
    "steady-state": (2.0, 3.0),
    "approaching": (2.0, 3.5),
    "departing": (2.0, 3.5),
    "handshaking": (2.0, 4.0),
    "high-five": (2.0, 4.0),
    "hugging": (2.0, 3.0),
    "kicking-left": (2.0, 3.0),
    "kicking-right": (2.0, 3.0),
    "pointing-left": (2.0, 4.5),
    "pointing-right": (2.0, 4.5),
    "punching-left": (2.0, 3.0),
    "punching-right": (2.0, 3.0),
    "pushing": (2.0, 4.0),
}
ENDS_IN_DWELL = frozenset({"approaching"})

ENVELOPE_SHAPES = ("flat", "ramp", "bump", "double_bump", "oscillation")


@dataclass(frozen=True)
class SyntheticClassProfile:
    """Envelope parameters for one interaction class.

    depth_* are signed modulation fractions; phase_drift is carrier-phase
    radians accumulated across the segment; center/width/cycles shape the
    envelope on normalized segment time; asymmetry in [-1, 1] weights the
    scattered rays across the receive array (negative = left-heavy).
    ``timing`` reads the class's timing from ``CLASS_TIMING``.
    """

    label: int
    shape: str
    depth_los: float = 0.0
    depth_scatter: float = 0.0
    phase_drift: float = 0.0
    center: float = 0.5
    width: float = 0.15
    cycles: float = 2.0
    asymmetry: float = 0.0

    @property
    def timing(self) -> tuple[float, float, bool]:
        """The class's seconds of steady dwell and of interaction, and whether
        the dwell opens the trial (it ends the trials of ENDS_IN_DWELL)."""
        name = LABELS[self.label]
        return (*CLASS_TIMING[name], name not in ENDS_IN_DWELL)

    def __post_init__(self):
        name = LABELS[self.label]
        if self.shape not in ENVELOPE_SHAPES:
            raise DomainError(f"profile {name}: unknown envelope shape {self.shape!r}")
        if not -1.0 <= self.asymmetry <= 1.0:
            raise DomainError(f"profile {name}: asymmetry must lie in [-1, 1]")
        if self.width <= 0:
            raise DomainError(f"profile {name}: width must be positive")


def amp_envelope(profile: SyntheticClassProfile, u: float) -> float:
    """Amplitude envelope at normalized segment time u in [0, 1]."""
    if profile.shape == "flat":
        return 0.0
    if profile.shape == "ramp":
        return u
    if profile.shape == "bump":
        return float(np.exp(-((u - profile.center) ** 2) / (2.0 * profile.width**2)))
    if profile.shape == "double_bump":
        w = profile.width / 2.0
        lo = profile.center - profile.width
        hi = profile.center + profile.width
        return float(
            np.exp(-((u - lo) ** 2) / (2.0 * w**2)) + np.exp(-((u - hi) ** 2) / (2.0 * w**2))
        )
    # oscillation, the one shape left: __post_init__ refuses any other
    window = np.sin(np.pi * u) ** 2  # smooth rise and fall at the segment edges
    return float(np.sin(2.0 * np.pi * profile.cycles * u) * window)


def phase_envelope(profile: SyntheticClassProfile, u: float) -> float:
    """Phase-drift envelope; monotone for ramps (sustained motion), otherwise
    follows the amplitude envelope (phase wobbles with the gesture)."""
    if profile.shape == "ramp":
        return u
    return amp_envelope(profile, u)


@dataclass(frozen=True)
class SimMeta:
    """Generator-wide knobs stored in the profile file's [meta] section."""

    packet_rate: float = 260.0
    csi_noise: float = 0.01

    def __post_init__(self):
        if self.packet_rate <= 0:
            raise DomainError("packet_rate must be positive")
        if self.csi_noise < 0:
            raise DomainError("csi_noise must be non-negative")


def load_profiles(path: str | Path) -> tuple[list[SyntheticClassProfile], SimMeta]:
    """Parse a profile ini file: a [meta] section plus one section per class.

    Unknown sections, unknown keys (the timing keys among them, which
    ``CLASS_TIMING`` fixes), or a missing required key are schema errors;
    profiles come back in class-code order.
    """
    parser = read_ini(path)
    meta = section_to(SimMeta, parser, "meta", path)
    profiles = []
    for name in parser.sections():
        if name == "meta":
            continue
        if name not in LABELS:
            raise DomainError(f"{path}: [{name}] is not a known interaction label")
        profiles.append(section_to(SyntheticClassProfile, parser, name, path, label=label_to_index(name)))
    if not profiles:
        raise DomainError(f"{path}: profile file defines no classes")
    profiles.sort(key=lambda p: p.label)
    return profiles, meta
