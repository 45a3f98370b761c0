"""Core vocabulary: interaction labels and trials.

A trial is one recording of a two-person interaction seen by a MIMO-OFDM
receiver: a sequence of packets, each carrying a complex channel matrix of
shape (n_tx, n_rx, n_subcarriers) plus the receiver's side readings (RSSI per
receive antenna, AGC, noise floor) and a timestamp in seconds relative to the
trial start.  Every packet is labeled with the interaction happening when it
was captured; the steady-state label marks the no-movement dwell that each
recording contains at one end.  A trial holds each of these readings as one
array whose leading axis runs over the packets, mirroring the packed records
of a trial file (FORMATS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Class codes are fixed: steady-state is 0, the interactions follow in this order.
LABELS: tuple[str, ...] = (
    "steady-state",
    "approaching",
    "departing",
    "handshaking",
    "high-five",
    "hugging",
    "kicking-left",
    "kicking-right",
    "pointing-left",
    "pointing-right",
    "punching-left",
    "punching-right",
    "pushing",
)

STEADY_STATE = 0
NUM_CLASSES = len(LABELS)

_NAME_TO_INDEX = {name: i for i, name in enumerate(LABELS)}


def label_to_index(name: str) -> int:
    try:
        return _NAME_TO_INDEX[name]
    except KeyError:
        raise DomainError(f"unknown interaction label {name!r}") from None


@dataclass(frozen=True)
class Trial:
    """One recording as per-packet columns: row i of every array is packet i.

    timestamps  (N,) seconds relative to trial start
    noise       (N,) receiver noise floor, dB
    agc         (N,) automatic gain control setting, dB
    rssi        (N, n_rx) per-receive-antenna signal strength, dB
    csi         (N, n_tx, n_rx, n_subcarriers) complex channel matrices
    labels      (N,) interaction class codes, 0..12
    labeled     whether ``labels`` are ground truth; an unlabeled trial's
                labels mean nothing, and its file stores them as zero

    Arrays are treated as immutable after construction.
    """

    timestamps: np.ndarray
    noise: np.ndarray
    agc: np.ndarray
    rssi: np.ndarray
    csi: np.ndarray
    labels: np.ndarray
    pair_id: str
    trial_id: str
    labeled: bool = True

    @property
    def dims(self) -> tuple[int, ...]:
        """(n_tx, n_rx, n_subcarriers), read off the csi array."""
        return tuple(int(d) for d in self.csi.shape[1:])


def validate_trial(trial: Trial) -> None:
    """Check the trial's arrays against each other and the packet invariants,
    raising ``DomainError("invalid trial: ...")`` with the first three
    violations.

    Per-packet violations name the offending packet index, array-wide ones
    the offending field; an empty trial is itself a violation.
    """
    violations: list[str] = []
    dims = trial.dims
    if len(dims) != 3:
        violations.append(f"csi shape {trial.csi.shape} is not (packets, n_tx, n_rx, n_sc)")
    elif min(dims) < 1:
        violations.append(f"dims {dims} must all be at least 1")
    n = len(trial.timestamps)
    if n == 0:
        violations.append("trial contains no packets")
    for name in ("noise", "agc", "rssi", "csi", "labels"):
        rows = len(getattr(trial, name))
        if rows != n:
            violations.append(f"{name} has {rows} rows but timestamps has {n}")
    if len(dims) == 3 and trial.rssi.shape[1:] != dims[1:2]:
        violations.append(f"rssi shape {trial.rssi.shape} does not match n_rx {dims[1]}")
    labels = np.asarray(trial.labels)
    for i in np.flatnonzero((labels < 0) | (labels >= NUM_CLASSES)):
        violations.append(f"label {labels[i]} out of range at index {i}")
    for i in np.flatnonzero(np.diff(trial.timestamps) < 0) + 1:
        violations.append(f"non-monotone timestamp at index {i}")
    for name in ("timestamps", "noise", "agc", "rssi", "csi"):
        values = np.asarray(getattr(trial, name))
        bad = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(1, values.ndim))))
        if bad.size:
            violations.append(f"{name} is not finite at index {bad[0]}")
    if violations:
        raise DomainError(f"invalid trial: {'; '.join(violations[:3])}")
