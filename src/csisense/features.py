"""Packet features, trial length normalization, scaling, and dataset splits.

Each packet becomes one row of F = 3 + n_rx + 2 * n_tx * n_rx * n_sc features:

    [time_diff, noise, agc, one RSSI per receive antenna (rssi_a, rssi_b, ...),
     |csi| flattened row-major over (tx, rx, subcarrier),
     principal-value phases in (-pi, pi], same order]

so the default (2, 3, 30) dims give 366 columns and (2, 1, 4) give 20.
Trials are first padded or clipped to a common length at their front, by a
rule that reads no labels, then scaled column-wise by a robust (median /
interquartile-range) scaler fitted on training rows only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import STEADY_STATE, Trial
from .errors import DomainError
from .rng import CounterRng


@dataclass
class FeatureFrame:
    """One trial as a (T, F) float matrix plus per-row labels."""

    matrix: np.ndarray
    labels: np.ndarray


@dataclass
class RobustScalerParams:
    median: np.ndarray
    iqr: np.ndarray
    degenerate: np.ndarray  # columns whose IQR was 0; divisor 1 is used there

    def __post_init__(self):
        shapes = {a.shape for a in (self.median, self.iqr, self.degenerate)}
        if len(shapes) != 1 or self.median.ndim != 1:
            raise DomainError(f"scaler arrays must be 1-D of one length, got shapes {sorted(shapes)}")

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "median": self.median.tolist(),
            "iqr": self.iqr.tolist(),
            "degenerate": [bool(v) for v in self.degenerate],
        }

    @classmethod
    def concat(cls, parts: list["RobustScalerParams"]) -> "RobustScalerParams":
        """The scaler of a matrix from those of its column blocks, left to
        right.  Each column's statistics read that column alone, so a fit by
        blocks equals one fit of the whole matrix bit for bit."""
        return cls(
            median=np.concatenate([p.median for p in parts]),
            iqr=np.concatenate([p.iqr for p in parts]),
            degenerate=np.concatenate([p.degenerate for p in parts]),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "RobustScalerParams":
        return cls(
            median=np.asarray(d["median"], dtype=np.float64),
            iqr=np.asarray(d["iqr"], dtype=np.float64),
            degenerate=np.asarray(d["degenerate"], dtype=bool),
        )


def _ids(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of trial-id strings, got {value!r:.40}")
    return list(value)


@dataclass
class SplitSpec:
    """Trial-id lists for the 60:20:20 split plus fold membership over train+val."""

    train: list[str]
    val: list[str]
    test: list[str]
    folds: list[list[str]] = field(default_factory=list)
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "seed": self.seed,
            "train": list(self.train),
            "val": list(self.val),
            "test": list(self.test),
            "folds": [list(f) for f in self.folds],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SplitSpec":
        """The split of a JSON record; a trial id listed twice across train,
        val and test is a ValueError, so no test trial trains."""
        spec = cls(
            train=_ids(d["train"]),
            val=_ids(d["val"]),
            test=_ids(d["test"]),
            folds=[_ids(f) for f in d.get("folds", [])],
            seed=int(d.get("seed", 0)),
        )
        twice = sorted(tid for tid, n in Counter(spec.train + spec.val + spec.test).items() if n > 1)
        if twice:
            raise ValueError(f"trial ids listed more than once across train, val and test: {twice}")
        return spec


def normalize_length(trial: Trial, target_len: int) -> Trial:
    """Pad or clip a trial to ``target_len`` packets at its front.

    The rule reads no labels, so a labeled and an unlabeled copy of a trial
    normalize identically.  Padding replicates the first packet, with
    timestamps extrapolated backwards at the trial's median inter-arrival and
    the steady-state label; clipping drops the leading packets.  Timestamps
    are re-based to start at 0 whenever the packet list changes; the ids and
    the ``labeled`` flag carry over.  A trial already at the target length is
    returned unchanged.  The callers own the checks: ``target_len`` is at
    least 1 and the trial holds a packet (``validate_trial``).
    """
    n = len(trial.timestamps)
    if n == target_len:
        return trial

    index = np.maximum(np.arange(n - target_len, n), 0)
    pad = max(target_len - n, 0)
    times = trial.timestamps[index]
    labels = trial.labels[index]
    if pad:
        dt = float(np.median(np.diff(trial.timestamps))) if n > 1 else 0.0
        times[:pad] = trial.timestamps[0] - dt * np.arange(pad, 0, -1)
        labels[:pad] = STEADY_STATE
    if times[0] != 0.0:
        times = times - times[0]
    return replace(
        trial,
        timestamps=times,
        noise=trial.noise[index],
        agc=trial.agc[index],
        rssi=trial.rssi[index],
        csi=trial.csi[index],
        labels=labels,
    )


def packet_time_diffs(trial: Trial) -> np.ndarray:
    """Per-packet inter-arrival seconds; the first entry is 0."""
    times = np.asarray(trial.timestamps, dtype=np.float64)
    diffs = np.empty_like(times)
    diffs[0] = 0.0
    np.subtract(times[1:], times[:-1], out=diffs[1:])
    return diffs


def _principal_phase(csi: np.ndarray) -> np.ndarray:
    phase = np.angle(csi)
    # np.angle returns -pi for values like -1-0j; fold onto (-pi, pi]
    return np.where(phase == -np.pi, np.pi, phase)


def trial_features(trial: Trial) -> FeatureFrame:
    """One unscaled feature row per packet, in the column order of the module
    docstring."""
    diffs = packet_time_diffs(trial)
    csi = trial.csi.reshape(len(diffs), -1)
    matrix = np.concatenate(
        [
            np.column_stack([diffs, trial.noise, trial.agc]),
            trial.rssi,
            np.abs(csi),
            _principal_phase(csi),
        ],
        axis=1,
        dtype=np.float64,
    )
    labels = trial.labels.astype(np.int64)
    return FeatureFrame(matrix=matrix, labels=labels)


def robust_fit(matrix: np.ndarray) -> RobustScalerParams:
    """Column-wise median and interquartile range (25th to 75th percentile,
    linear-interpolation quantiles).  Zero-IQR columns are flagged degenerate
    and later divided by 1 instead."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise DomainError("robust_fit needs a non-empty 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("robust_fit input contains non-finite values")
    median = np.median(matrix, axis=0)
    q1, q3 = np.percentile(matrix, [25.0, 75.0], axis=0)  # one partition pass for both
    iqr = q3 - q1
    degenerate = iqr == 0.0
    return RobustScalerParams(median=median, iqr=iqr, degenerate=degenerate)


def robust_transform(frame: FeatureFrame, params: RobustScalerParams) -> FeatureFrame:
    """(x - median) / IQR per column, divisor 1 on degenerate columns."""
    matrix = np.asarray(frame.matrix, dtype=np.float64)
    if matrix.shape[1] != params.median.size:
        raise DomainError(
            f"frame has {matrix.shape[1]} columns but scaler was fitted on {params.median.size}"
        )
    divisor = np.where(params.degenerate, 1.0, params.iqr)
    scaled = (matrix - params.median) / divisor
    if not np.all(np.isfinite(scaled)):
        raise DomainError("scaled features contain non-finite values")
    return FeatureFrame(matrix=scaled, labels=frame.labels.copy())


def one_hot(labels: np.ndarray, num_classes: int = 13) -> np.ndarray:
    """``labels`` with an axis of ``num_classes`` appended: zeros with a 1 at
    each label, for a (T,) trial or a (B, T) batch alike.  The caller keeps
    every label below ``num_classes``."""
    return np.eye(num_classes)[np.asarray(labels, dtype=np.int64)]


def _grouped(trial_ids: list[str], classes: list[str]) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for tid, cls in sorted(zip(trial_ids, classes)):
        groups.setdefault(cls, []).append(tid)
    return {k: groups[k] for k in sorted(groups)}


def split_dataset(trial_ids: list[str], seed: int, classes: list[str]) -> SplitSpec:
    """Deterministic 60:20:20 train/val/test split, stratified per class of
    the parallel ``classes`` list.  Within each class the shuffled ids are
    dealt test, then val, then train, with the two holdout sizes rounded from
    20% of the class count."""
    if len(set(trial_ids)) != len(trial_ids):
        raise DomainError("trial ids must be unique")
    train: list[str] = []
    val: list[str] = []
    test: list[str] = []
    for cls, ids in _grouped(trial_ids, classes).items():
        rng = CounterRng(seed, "split", cls)
        shuffled = rng.shuffle(ids)
        n = len(shuffled)
        n_test = int(round(n * 0.2))
        n_val = int(round(n * 0.2))
        test.extend(shuffled[:n_test])
        val.extend(shuffled[n_test : n_test + n_val])
        train.extend(shuffled[n_test + n_val :])
    return SplitSpec(train=sorted(train), val=sorted(val), test=sorted(test), seed=seed)


def kfold_assign(trial_ids: list[str], k: int, seed: int, classes: list[str]) -> list[list[str]]:
    """Partition ids into ``k`` folds, stratified per class of the parallel
    ``classes`` list, deterministic under the seed.  Folds are near-equal in
    size; ``k`` is at least 2 (``TrainConfig.folds``)."""
    if len(trial_ids) < k:
        raise DomainError(f"cannot build {k} folds from {len(trial_ids)} trials")
    folds: list[list[str]] = [[] for _ in range(k)]
    offset = 0
    for cls, ids in _grouped(trial_ids, classes).items():
        rng = CounterRng(seed, "folds", cls)
        shuffled = rng.shuffle(ids)
        for i, tid in enumerate(shuffled):
            folds[(offset + i) % k].append(tid)
        offset += len(shuffled)  # keeps fold sizes balanced across classes
    return [sorted(f) for f in folds]
