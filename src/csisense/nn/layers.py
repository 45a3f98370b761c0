"""Dense, dropout, positional encoding, self-attention, and wiring layers."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-wise softmax, max-shifted for stability."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def glorot_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Scaled-uniform init: U(-limit, limit) with limit = sqrt(6/(fan_in+fan_out)).
    With no ``rng`` the array is zero and nothing is drawn."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator | None, n: int) -> np.ndarray:
    """Haar-uniform orthogonal n x n matrix via QR with sign correction.
    With no ``rng`` the matrix is zero and nothing is drawn."""
    if rng is None:
        return np.zeros((n, n))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def positional_encoding(seq_len: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position table, shape (seq_len, dim).

    Even columns are sin(t / 10000^(2i/dim)), odd columns the matching cos;
    row 0 is therefore [0, 1, 0, 1, ...].  Values lie in [-1, 1].
    """
    if seq_len < 1 or dim < 1:
        raise DomainError("positional encoding needs positive seq_len and dim")
    t = np.arange(seq_len, dtype=np.float64)[:, None]
    i = np.arange(0, dim, 2, dtype=np.float64)
    angles = t / np.power(10000.0, i / dim)
    table = np.zeros((seq_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return table


class Dense:
    """y = activation(x @ W + b) applied to the last axis."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "none", rng: np.random.Generator | None = None):
        if activation not in ("none", "relu"):
            raise DomainError(f"unknown activation {activation!r}")
        self.activation = activation
        self.params = {
            "W": glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)),
            "b": np.zeros(out_dim),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.params["W"].shape[0]:
            raise DomainError(
                f"dense expects {self.params['W'].shape[0]} input features, got {x.shape[-1]}"
            )
        z = x @ self.params["W"] + self.params["b"]
        self._cache = (x, z)
        return relu(z) if self.activation == "relu" else z

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, z = self._cache
        dz = dy * (z > 0.0) if self.activation == "relu" else dy
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dz = dz.reshape(-1, dz.shape[-1])
        self.grads["W"] += flat_x.T @ flat_dz
        self.grads["b"] += flat_dz.sum(axis=0)
        return dz @ self.params["W"].T


class Dropout:
    """Stateful inverted-dropout layer; draws a fresh mask per training call."""

    def __init__(self, ratio: float, rng: np.random.Generator | None = None):
        if not 0.0 <= ratio < 1.0:
            raise DomainError(f"dropout ratio must be in [0, 1), got {ratio}")
        self.ratio = ratio
        self.rng = rng or np.random.default_rng(0)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def zero_grads(self):
        pass

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.ratio == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.uniform(size=x.shape) >= self.ratio) / (1.0 - self.ratio)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask


class AddPositional:
    """Adds the fixed sinusoidal table to the first table-length timesteps."""

    def __init__(self, seq_len: int, dim: int):
        self.table = positional_encoding(seq_len, dim)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def zero_grads(self):
        pass

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        t = x.shape[-2]
        if t > self.table.shape[0]:
            raise DomainError(f"sequence length {t} exceeds positional table {self.table.shape[0]}")
        if x.shape[-1] != self.table.shape[1]:
            raise DomainError(
                f"feature dim {x.shape[-1]} does not match positional dim {self.table.shape[1]}"
            )
        return x + self.table[:t]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


class WeightedSkipAdd:
    """y = w_pre * pre + w_skip * skip; fixed scalar weights."""

    def __init__(self, w_pre: float = 0.7, w_skip: float = 0.3):
        self.w_pre = float(w_pre)
        self.w_skip = float(w_skip)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def zero_grads(self):
        pass

    def forward(self, pre: np.ndarray, skip: np.ndarray, training: bool = False) -> np.ndarray:
        if pre.shape != skip.shape:
            raise DomainError(f"skip-add shapes differ: {pre.shape} vs {skip.shape}")
        return self.w_pre * pre + self.w_skip * skip

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.w_pre * dy, self.w_skip * dy


class Concat:
    """Concatenate two inputs along the feature axis."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._split = None

    def zero_grads(self):
        pass

    def forward(self, a: np.ndarray, b: np.ndarray, training: bool = False) -> np.ndarray:
        self._split = a.shape[-1]
        return np.concatenate([a, b], axis=-1)

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return dy[..., : self._split], dy[..., self._split :]


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention over the time axis, no masking.

    Per head: A = softmax((X Wq)(X Wk)^T / sqrt(key_dim)) row-wise, head
    output A (X Wv); the concatenated heads pass through a final projection
    back to the model width.
    """

    def __init__(self, model_dim: int, heads: int, key_dim: int, rng: np.random.Generator | None = None):
        if heads < 1 or key_dim < 1:
            raise DomainError("heads and key_dim must be positive")
        self.model_dim = model_dim
        self.heads = heads
        self.key_dim = key_dim
        self.params = {
            "Wq": glorot_uniform(rng, model_dim, key_dim, (heads, model_dim, key_dim)),
            "Wk": glorot_uniform(rng, model_dim, key_dim, (heads, model_dim, key_dim)),
            "Wv": glorot_uniform(rng, model_dim, key_dim, (heads, model_dim, key_dim)),
            "Wf": glorot_uniform(rng, heads * key_dim, model_dim, (heads * key_dim, model_dim)),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.model_dim:
            raise DomainError(f"attention expects width {self.model_dim}, got {x.shape[-1]}")
        squeezed = x.ndim == 2
        if squeezed:
            x = x[None]
        scale = 1.0 / np.sqrt(self.key_dim)
        qs, ks, vs, attn, heads_out = [], [], [], [], []
        for h in range(self.heads):
            q = x @ self.params["Wq"][h]
            k = x @ self.params["Wk"][h]
            v = x @ self.params["Wv"][h]
            scores = (q @ k.swapaxes(-1, -2)) * scale
            a = softmax(scores)
            heads_out.append(a @ v)
            qs.append(q), ks.append(k), vs.append(v), attn.append(a)
        concat = np.concatenate(heads_out, axis=-1)
        y = concat @ self.params["Wf"]
        self._cache = (x, qs, ks, vs, attn, concat, squeezed)
        return y[0] if squeezed else y

    def attention_weights(self) -> list[np.ndarray]:
        """Row-stochastic attention matrices from the last forward, one per head."""
        if self._cache is None:
            raise DomainError("no forward pass cache (none has run, or predict dropped it)")
        return [a.copy() for a in self._cache[4]]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, qs, ks, vs, attn, concat, squeezed = self._cache
        if squeezed:
            dy = dy[None]
        scale = 1.0 / np.sqrt(self.key_dim)
        flat = lambda a: a.reshape(-1, a.shape[-1])
        self.grads["Wf"] += flat(concat).T @ flat(dy)
        dconcat = dy @ self.params["Wf"].T
        dx = np.zeros_like(x)
        for h in range(self.heads):
            dout = dconcat[..., h * self.key_dim : (h + 1) * self.key_dim]
            a, q, k, v = attn[h], qs[h], ks[h], vs[h]
            da = dout @ v.swapaxes(-1, -2)
            dv = a.swapaxes(-1, -2) @ dout
            dscores = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
            dq = dscores @ k
            dk = dscores.swapaxes(-1, -2) @ q
            self.grads["Wq"][h] += flat(x).T @ flat(dq)
            self.grads["Wk"][h] += flat(x).T @ flat(dk)
            self.grads["Wv"][h] += flat(x).T @ flat(dv)
            dx += dq @ self.params["Wq"][h].T
            dx += dk @ self.params["Wk"][h].T
            dx += dv @ self.params["Wv"][h].T
        return dx[0] if squeezed else dx
