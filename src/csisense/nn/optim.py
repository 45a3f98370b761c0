"""Adam optimizer and the two validation-metric schedules.

Both schedules treat the history as a metric to maximize (validation
accuracy); "improvement" means strictly greater than the best value so far.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def adam_step(
    values: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of ``values`` and the moments ``m`` and
    ``v``, in place and elementwise.  ``t`` counts from 1."""
    if t < 1:
        raise DomainError("adam step count t must be at least 1")
    # at most two parameter-sized temporaries live at once
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * (grads * grads)
    denom = v / (1.0 - beta2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    step = m / (1.0 - beta1**t)
    step *= lr
    step /= denom
    values -= step


class Adam:
    """Stateful wrapper around :func:`adam_step` for one flat parameter array."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise DomainError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = None  # moment estimates, allocated by the first step

    def step(self, values: np.ndarray, grads: np.ndarray) -> None:
        if self.m is None:
            self.m, self.v = np.zeros(values.shape), np.zeros(values.shape)
        self.t += 1
        adam_step(values, grads, self.m, self.v, self.t, self.lr, self.beta1, self.beta2, self.eps)


def reduce_lr_on_plateau(
    history: list[float],
    lr: float,
    factor: float = 0.5,
    patience: int = 10,
    min_lr: float = 1e-6,
) -> float:
    """Learning rate after replaying ``history`` from the initial ``lr``.

    Each epoch without strict improvement increments a wait counter; when it
    reaches ``patience`` the rate is multiplied by ``factor`` (floored at
    ``min_lr``) and the counter resets.  Pure function of its arguments, so
    the caller passes the full metric history each epoch.
    """
    if not 0.0 < factor < 1.0:
        raise DomainError("factor must be in (0, 1)")
    if patience < 1:
        raise DomainError("patience must be at least 1")
    best = -np.inf
    wait = 0
    current = lr
    for value in history:
        if value > best:
            best = value
            wait = 0
        else:
            wait += 1
            if wait >= patience:
                current = max(min_lr, current * factor)
                wait = 0
    return current


def early_stopping(history: list[float], patience: int = 30) -> tuple[bool, int]:
    """(stop_now, best_epoch_index): stop once ``patience`` epochs have passed
    since the best metric value; best index is the earliest maximum."""
    if patience < 1:
        raise DomainError("patience must be at least 1")
    if not history:
        return False, -1
    best = int(np.argmax(history))
    return (len(history) - 1 - best) >= patience, best
