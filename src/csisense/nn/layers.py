"""Parameter store, dense, dropout, positional encoding, attention and wiring layers."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, max-shifted for stability, in one buffer: ``out``,
    which may be ``x`` itself, or a new array."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Scaled-uniform init: U(-limit, limit) with limit = sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-uniform orthogonal n x n matrix via QR with sign correction."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def positional_encoding(seq_len: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position table, shape (seq_len, dim).

    Even columns are sin(t / 10000^(2i/dim)), odd columns the matching cos;
    row 0 is therefore [0, 1, 0, 1, ...].  Values lie in [-1, 1].
    """
    t = np.arange(seq_len, dtype=np.float64)[:, None]
    i = np.arange(0, dim, 2, dtype=np.float64)
    angles = t / np.power(10000.0, i / dim)
    table = np.zeros((seq_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return table


class ParamStore:
    """Flat parameter values and gradients, carved into named views.

    Each parameter is a view into ``values``, and its gradient is the view at
    the same offset into ``grads``, so whole-model work (an Adam step, zeroing
    the gradients, keeping the best weights) is one operation on a flat array.
    ``values`` is kept as given, so its dtype is the layers' precision: a
    model that trains owns a float64 array, and one that only runs inference
    may be handed a bundle's read-only float32 block, which is then never
    copied.  ``grads`` comes from ``np.zeros``, so its pages stay untouched
    until a backward writes them, which never happens at inference.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.grads = np.zeros(values.shape, values.dtype)
        self._used = 0

    @classmethod
    def fitting(cls, shapes: dict[str, tuple[int, ...]]) -> "ParamStore":
        """A float64 store exactly the size of ``shapes``, for a layer built on its own."""
        return cls(np.zeros(sum(math.prod(shape) for shape in shapes.values())))

    def carve(self, shapes: dict[str, tuple[int, ...]]) -> tuple[dict, dict]:
        """Value and gradient views for ``shapes``, in order, after the last carve."""
        values, grads = {}, {}
        for name, shape in shapes.items():
            start, self._used = self._used, self._used + math.prod(shape)
            if self._used > self.values.size:
                raise DomainError(f"parameter store of {self.values.size} values is full")
            values[name] = self.values[start : self._used].reshape(shape)
            grads[name] = self.grads[start : self._used].reshape(shape)
        return values, grads


class Dense:
    """y = activation(x @ W + b) applied to the last axis."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "none",
                 rng: np.random.Generator | None = None, store: ParamStore | None = None):
        self.activation = activation
        shapes = {"W": (in_dim, out_dim), "b": (out_dim,)}
        self.store = store or ParamStore.fitting(shapes)
        self.params, self.grads = self.store.carve(shapes)
        if rng is not None:
            self.params["W"][...] = glorot_uniform(rng, in_dim, out_dim, shapes["W"])
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = x @ self.params["W"] + self.params["b"]
        self._cache = (x, z) if training else None
        return relu(z) if self.activation == "relu" else z

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x, z), self._cache = self._cache, None
        dz = dy * (z > 0.0) if self.activation == "relu" else dy
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dz = dz.reshape(-1, dz.shape[-1])
        self.grads["W"] += flat_x.T @ flat_dz
        self.grads["b"] += flat_dz.sum(axis=0)
        return dz @ self.params["W"].T


class Dropout:
    """Stateful inverted-dropout layer; draws a fresh mask per training call."""

    def __init__(self, ratio: float, rng: np.random.Generator | None = None):
        self.ratio = ratio
        self.rng = rng or np.random.default_rng(0)
        self._mask = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.ratio == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.uniform(size=x.shape) >= self.ratio) / (1.0 - self.ratio)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        return dy if mask is None else dy * mask


class AddPositional:
    """Adds the first T rows of the fixed sinusoidal table to a (B, T, dim)
    input, T at most the table's length."""

    def __init__(self, seq_len: int, dim: int):
        self.table = positional_encoding(seq_len, dim)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x + self.table[: x.shape[1]].astype(x.dtype, copy=False)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


class WeightedSkipAdd:
    """y = w_pre * pre + w_skip * skip; fixed scalar weights."""

    def __init__(self, w_pre: float, w_skip: float):
        self.w_pre = float(w_pre)
        self.w_skip = float(w_skip)

    def forward(self, pre: np.ndarray, skip: np.ndarray, training: bool = False) -> np.ndarray:
        return self.w_pre * pre + self.w_skip * skip

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.w_pre * dy, self.w_skip * dy


class Concat:
    """Concatenate two inputs along the feature axis."""

    def __init__(self):
        self._split = None

    def forward(self, a: np.ndarray, b: np.ndarray, training: bool = False) -> np.ndarray:
        self._split = a.shape[-1]
        return np.concatenate([a, b], axis=-1)

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return dy[..., : self._split], dy[..., self._split :]


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention over the time axis, no masking.

    Per head: A = softmax((X Wq)(X Wk)^T / sqrt(key_dim)) row-wise, head
    output A (X Wv); the concatenated heads pass through a final projection
    back to the model width.  Each head turns its scores into A in place in
    one (T, T) buffer.  A training forward keeps each head's (q, k, v, A) for
    the backward, which clears them; an inference forward keeps none of them
    and frees each head's buffer before the next head allocates its own, so
    it holds one (T, T) array at a time.
    """

    def __init__(self, model_dim: int, heads: int, key_dim: int,
                 rng: np.random.Generator | None = None, store: ParamStore | None = None):
        self.model_dim = model_dim
        self.heads = heads
        self.key_dim = key_dim
        proj = (heads, model_dim, key_dim)
        shapes = {"Wq": proj, "Wk": proj, "Wv": proj, "Wf": (heads * key_dim, model_dim)}
        self.store = store or ParamStore.fitting(shapes)
        self.params, self.grads = self.store.carve(shapes)
        if rng is not None:
            for name in ("Wq", "Wk", "Wv"):
                self.params[name][...] = glorot_uniform(rng, model_dim, key_dim, proj)
            self.params["Wf"][...] = glorot_uniform(rng, heads * key_dim, model_dim, shapes["Wf"])
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        Wq, Wk, Wv, Wf = (self.params[name] for name in ("Wq", "Wk", "Wv", "Wf"))
        scale = 1.0 / math.sqrt(self.key_dim)  # a Python float keeps a float32 product float32
        kept, heads_out = [], []
        for h in range(self.heads):
            q = x @ Wq[h]
            k = x @ Wk[h]
            v = x @ Wv[h]
            a = q @ k.swapaxes(-1, -2)
            a *= scale
            softmax(a, out=a)
            heads_out.append(a @ v)
            if training:
                kept.append((q, k, v, a))
            del a  # unless kept, free this head's scores before the next head's
        concat = np.concatenate(heads_out, axis=-1)
        y = concat @ Wf
        self._cache = (x, kept, concat) if training else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x, kept, concat), self._cache = self._cache, None
        scale = 1.0 / np.sqrt(self.key_dim)
        flat = lambda a: a.reshape(-1, a.shape[-1])
        self.grads["Wf"] += flat(concat).T @ flat(dy)
        dconcat = dy @ self.params["Wf"].T
        dx = np.zeros_like(x)
        for h, (q, k, v, a) in enumerate(kept):
            dout = dconcat[..., h * self.key_dim : (h + 1) * self.key_dim]
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
        return dx
