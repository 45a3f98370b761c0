"""Central-difference gradient verification for layers and whole models.

The check projects the module output against a fixed random matrix R to get a
scalar objective L = sum(R * forward(inputs)), takes analytic gradients via
one backward(R) call, then perturbs every parameter and input coordinate by
+/-eps in float64.  Errors are elementwise |a - n| / max(|a|, |n|, 1e-3); the
floor keeps finite-difference roundoff on near-zero coordinates from reading
as relative error (R is scaled by 1/sqrt(output size) so L stays O(1) and the
roundoff term stays around 1e-11).
"""

from __future__ import annotations

import numpy as np

_REL_FLOOR = 1e-3


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max()) if analytic.size else 0.0


def grad_check(module, inputs, seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    """Max relative error per parameter array and per input, as a dict.

    ``module`` needs forward(*inputs, training=...) -> array and
    backward(grad) -> input grad(s); a module with parameters also has
    ``params`` / ``grads`` dicts, zeroed before the one backward, which
    follows the one ``training=True`` forward.  The finite differences run
    inference forwards, so the module must be deterministic in training mode
    (every dropout ratio 0).  Inputs are float64 arrays and are perturbed too,
    so the returned dict has one entry per parameter name plus ``input:i``.
    """
    inputs = [np.ascontiguousarray(x, dtype=np.float64) for x in inputs]
    params, grads = getattr(module, "params", {}), getattr(module, "grads", {})
    y = module.forward(*inputs, training=True)
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal(y.shape) / np.sqrt(y.size)

    for g in grads.values():
        g[...] = 0.0
    dx = module.backward(proj)
    input_grads = list(dx) if isinstance(dx, tuple) else [dx]
    param_grads = {k: v.copy() for k, v in grads.items()}

    def objective() -> float:
        return float(np.sum(module.forward(*inputs) * proj))

    def numeric_grad(arr: np.ndarray) -> np.ndarray:
        grad = np.empty_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = objective()
            flat[i] = original - eps
            lo = objective()
            flat[i] = original
            gflat[i] = (hi - lo) / (2.0 * eps)
        return grad

    report: dict[str, float] = {}
    for name, p in params.items():
        report[name] = _rel_err(param_grads[name], numeric_grad(p))
    for i, x in enumerate(inputs):
        report[f"input:{i}"] = _rel_err(input_grads[i], numeric_grad(x))
    return report
