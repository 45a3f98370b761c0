"""Fold ensembling, label-run smoothing, and classification metrics.

The classifier emits one label sequence per trained fold.  Ensembling takes
the per-position mode across folds; smoothing then repairs short glitches by
comparing the local mode on both sides of each position.  Metrics aggregate a
multi-class confusion matrix into accuracy and support-weighted precision,
recall and F1.

These functions rely on their callers and check nothing: every label series
is a class code series (the network's argmax under ``ArchConfig``'s class
bound, or a series that a reader checked), a fold matrix is (folds, T) with
at least one fold, and a confusion matrix is square and counts at least one
packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import NUM_CLASSES

# packets on each side of a position that smoothing compares (FORMATS.md)
SMOOTH_WINDOW = 20


@dataclass
class PredictionTrace:
    """All label series for one trial.  ``true_labels`` is None when the
    source trial carried no ground truth."""

    trial_id: str
    per_fold: np.ndarray  # (folds, T) int
    ensembled: np.ndarray  # (T,) int
    smoothed: np.ndarray  # (T,) int
    true_labels: np.ndarray | None = None


def _mode(values: np.ndarray) -> int:
    """Most frequent label; ties resolve to the lowest class index."""
    return int(np.argmax(np.bincount(values, minlength=NUM_CLASSES)))


def ensemble_mode(per_fold: np.ndarray) -> np.ndarray:
    """Per-position mode across fold predictions, shape (folds, T) -> (T,)."""
    per_fold = np.asarray(per_fold, dtype=np.int64)
    folds, t = per_fold.shape
    counts = np.zeros((t, NUM_CLASSES), dtype=np.int64)
    for f in range(folds):
        counts[np.arange(t), per_fold[f]] += 1
    return np.argmax(counts, axis=1)  # argmax takes the lowest index on ties


def smooth(labels: np.ndarray) -> np.ndarray:
    """Two-sided mode smoothing over a frozen copy of the input.

    For each position with at least ``SMOOTH_WINDOW`` packets on both sides,
    compute the mode of the ``SMOOTH_WINDOW`` preceding and succeeding labels
    (the position itself excluded, reading the original series throughout).
    When the two modes agree the position is overwritten with that mode;
    otherwise, and at the boundaries, the original label is kept.  One pass;
    never introduces a label absent from the input.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = labels.copy()
    for i in range(SMOOTH_WINDOW, labels.size - SMOOTH_WINDOW):
        before = _mode(labels[i - SMOOTH_WINDOW : i])
        after = _mode(labels[i + 1 : i + 1 + SMOOTH_WINDOW])
        if before == after:
            out[i] = before
    return out


def confusion(true_labels: np.ndarray, predicted: np.ndarray, classes: int = NUM_CLASSES) -> np.ndarray:
    """Row = true class, column = predicted class, entries are counts."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    conf = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(conf, (true_labels, predicted), 1)
    return conf


@dataclass
class MetricsReport:
    accuracy: float
    precision: float  # support-weighted
    recall: float
    f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    support: np.ndarray
    confusion: np.ndarray


def metrics(conf: np.ndarray) -> MetricsReport:
    """Accuracy and support-weighted precision/recall/F1 from a confusion
    matrix.  Zero-support or never-predicted classes score 0 in the affected
    ratio; zero-support classes carry zero weight in the averages."""
    conf = np.asarray(conf, dtype=np.int64)
    total = conf.sum()
    diag = np.diag(conf).astype(np.float64)
    support = conf.sum(axis=1)
    predicted = conf.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, diag / predicted, 0.0)
        recall = np.where(support > 0, diag / support, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / np.where(denom > 0, denom, 1.0), 0.0)
    weights = support / total
    return MetricsReport(
        accuracy=float(diag.sum() / total),
        precision=float((precision * weights).sum()),
        recall=float((recall * weights).sum()),
        f1=float((f1 * weights).sum()),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        support=support,
        confusion=conf,
    )


def metrics_csv(report: MetricsReport, class_names: tuple[str, ...]) -> str:
    """Per-class and weighted rows: class, support, precision, recall, f1."""
    lines = ["class,support,precision,recall,f1"]
    for i, name in enumerate(class_names):
        lines.append(
            f"{name},{report.support[i]},{report.per_class_precision[i]:.6f},"
            f"{report.per_class_recall[i]:.6f},{report.per_class_f1[i]:.6f}"
        )
    lines.append(
        f"weighted,{report.support.sum()},{report.precision:.6f},{report.recall:.6f},{report.f1:.6f}"
    )
    lines.append(f"accuracy,{report.support.sum()},{report.accuracy:.6f},,")
    return "\n".join(lines) + "\n"


def metrics_text(report: MetricsReport, class_names: tuple[str, ...]) -> str:
    """Aligned human-readable summary table."""
    width = max(len(n) for n in class_names + ("weighted",))
    lines = [f"{'class':<{width}}  support  precision  recall  f1"]
    for i, name in enumerate(class_names):
        lines.append(
            f"{name:<{width}}  {report.support[i]:>7d}  {report.per_class_precision[i]:>9.4f}"
            f"  {report.per_class_recall[i]:>6.4f}  {report.per_class_f1[i]:.4f}"
        )
    lines.append(
        f"{'weighted':<{width}}  {report.support.sum():>7d}  {report.precision:>9.4f}"
        f"  {report.recall:>6.4f}  {report.f1:.4f}"
    )
    lines.append(f"accuracy: {report.accuracy:.4f}")
    return "\n".join(lines) + "\n"


def confusion_csv(conf: np.ndarray, class_names: tuple[str, ...]) -> str:
    """Confusion matrix as a CSV grid with row/column class names."""
    lines = ["true\\predicted," + ",".join(class_names)]
    for i, name in enumerate(class_names):
        lines.append(name + "," + ",".join(str(int(v)) for v in conf[i]))
    return "\n".join(lines) + "\n"


def label_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """(label, start, length) for each maximal constant run."""
    labels = np.asarray(labels, dtype=np.int64)
    runs: list[tuple[int, int, int]] = []
    start = 0
    for i in range(1, labels.size + 1):
        if i == labels.size or labels[i] != labels[start]:
            runs.append((int(labels[start]), start, i - start))
            start = i
    return runs
