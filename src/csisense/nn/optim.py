"""Adam optimizer (Kingma and Ba, arXiv:1412.6980) over one flat parameter array."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam moments for one flat parameter array.  The
    learning rate is the caller's, passed to each step, so a schedule needs
    nothing from the optimizer."""

    def __init__(self):
        self.t = 0
        self.m = self.v = None  # moment estimates, allocated by the first step

    def step(self, values: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """One update of ``values`` and the moments, in place and elementwise."""
        if self.m is None:
            self.m, self.v = np.zeros(values.shape), np.zeros(values.shape)
        self.t += 1
        m, v, t = self.m, self.v, self.t
        # at most two parameter-sized temporaries live at once
        m *= BETA1
        m += (1.0 - BETA1) * grads
        v *= BETA2
        v += (1.0 - BETA2) * (grads * grads)
        denom = v / (1.0 - BETA2**t)
        np.sqrt(denom, out=denom)
        denom += EPS
        step = m / (1.0 - BETA1**t)
        step *= lr
        step /= denom
        values -= step
