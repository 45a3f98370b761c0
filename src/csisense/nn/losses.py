"""Categorical cross-entropy over per-timestep class distributions."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over rows of -sum(target * log(prob + 1e-12)).

    ``probs`` rows are distributions (softmax output) and ``targets`` one-hot
    rows of the same shape.  Leading dims are flattened, so (T, C) and
    (B, T, C) both work.
    """
    per_row = -(targets * np.log(probs + _EPS)).sum(axis=-1)
    return float(per_row.mean())


def cross_entropy_logit_grad(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of :func:`cross_entropy` w.r.t. the pre-softmax logits:
    (probs - targets) / n_rows."""
    n_rows = int(np.prod(probs.shape[:-1])) or 1
    return (probs - targets) / n_rows
