"""Gated recurrent unit: single step, sequence scan, bidirectional wrapper.

Gate convention (Cho et al., arXiv:1406.1078): with update gate z, reset gate
r, and candidate state c,

    z = sigmoid(x W_in_z + h_prev W_rec_z + b_z)
    r = sigmoid(x W_in_r + h_prev W_rec_r + b_r)
    c = tanh(x W_in_c + (h_prev * r) W_rec_c + b_c)
    h = (1 - z) * h_prev + z * c

The reset gate multiplies the previous state before the recurrent matrix.
With every parameter zero, z = 0.5 and c = 0, so one step exactly halves the
state: a cheap closed-form identity the tests pin down.

Packed layout.  A layer with D directions (``Gru`` 1, ``BiGru`` 2: forward,
then reversed) keeps its parameters in three contiguous arrays indexed
(direction, gate, ...), gates in the order z, r, c:

    W_in  (D, 3, in_dim, units)
    W_rec (D, 3, units, units)
    b     (D, 3, units)

Gradients use the same layout.  Both are views into a :class:`ParamStore`,
the model's or the layer's own.  The per-gate names in ``params`` and
``grads`` (``W_in_z``, or ``fwd/W_rec_c`` in a BiGru) are contiguous views
into these arrays, so writing a named array writes the packed one.

One scan serves both layers, after the fused recurrent kernels of Appleyard
et al. (arXiv:1604.01946): every direction advances in the same Python time
loop, the reversed one reading time backwards, and each step makes one
stacked matmul for z and r, one for c, one sigmoid and one tanh.  Each
product keeps the operand shapes of a separate per-direction, per-gate scan,
so the results are bit-for-bit those of separate scans.

Input blocks.  Every forward projects its input ``x @ W_in + b`` one block
of scan steps at a time, inside the time loop, never for the whole sequence
at once.  The block length comes from a fixed byte budget per batch row
(``_BLOCK_BYTES``) and ``units`` alone, never from B, and a 1-step tail joins
the block before it, so every block is a gemm of at least two rows and gives
the bits of one whole-sequence projection.

Inference rule.  A forward with no backward to follow (``training=False``)
makes the two recurrent products one ``(1, units) @ (units, units)`` product
per batch row, all rows in one NumPy call.  That is the product a single-row
scan makes, so row i of a batched inference forward equals the forward of
row i alone bit for bit, whatever B is.  It keeps only the step it is on:
that step's gates and two state slots, so beside one input block and the
output it holds O(B * units), not O(B * T * units).  A training forward
keeps one ``(B, units) @ (units, units)`` product per direction and gate,
and every step's gates and states for the backward.  Both modes write each
new state straight into the output.  Every array a scan allocates is in the
input's dtype, which the model has cast to its store's (float32 for a
model loaded from a bundle), and the weights are read as stored.
"""

from __future__ import annotations

import numpy as np

from .layers import ParamStore, glorot_uniform, orthogonal

# time order of each direction's scan: forward, then reversed
_SCAN = (slice(None), slice(None, None, -1))
# bytes per batch row of one block of input projections (both directions,
# three gates), counted at 8 per value whatever the dtype, so block lengths
# depend on units alone: 85 steps at 1024 units, 1365 at 64.  Each block reads
# all of W_in again, so a smaller budget trades time for little memory.
_BLOCK_BYTES = 4 << 20


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) for x >= 0 and e/(1+e)
    below, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def _row_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (..., B, u) @ w (..., u, n) as one (1, u) @ (u, n) product per row."""
    return (a[..., None, :] @ w[..., None, :, :])[..., 0, :]


def _blocks(t: int, units: int) -> list[tuple[int, int]]:
    """The (start, stop) scan steps of each input-projection block: as many
    steps as fit ``_BLOCK_BYTES`` per row, at least 2, with a 1-step tail
    joined to the block before it.  A one-row product runs as gemv, which
    rounds differently from the gemm rows of a longer block; blocks of 2 or
    more steps give the bits of one whole-sequence projection."""
    step = max(2, _BLOCK_BYTES // (8 * 2 * 3 * units))
    stops = list(range(step, t, step))
    if stops and t - stops[-1] == 1:
        stops.pop()
    return list(zip([0, *stops], [*stops, t]))


def _project(x, W_in, b, start, stop):
    """Input projections of scan steps start..stop, (steps, D, 3, B, units):
    direction 0 reads times start..stop, the reversed one the mirror slice
    backwards."""
    n_dir, _, _, units = W_in.shape
    bsz, t, _ = x.shape
    pre = np.empty((stop - start, n_dir, 3, bsz, units), x.dtype)
    for d in range(n_dir):
        xs = x[:, start:stop] if d == 0 else x[:, t - stop : t - start]
        for k in range(3):
            pre[:, d, k] = np.moveaxis(xs @ W_in[d, k] + b[d, k], 1, 0)[_SCAN[d]]
    return pre


def _scan_forward(x, W_in, W_rec, b, training):
    """Run every direction over x (B, T, in); returns the (B, T, D*units)
    output and the cache the backward scan needs, None unless ``training``.
    The input projections are made one block of steps at a time, and each
    step writes its state straight into the output.  An inference scan makes
    each recurrent product row by row, so a row's bits do not depend on B,
    and keeps one step's gates and two state slots."""
    matmul = np.matmul if training else _row_matmul
    n_dir, _, _, units = W_in.shape
    bsz, t, _ = x.shape
    w_zr, w_c = W_rec[:, :2], W_rec[:, 2]
    # a ring of kept + 1 states and kept steps' gates: training keeps every
    # step's gates and hs[i], the state entering step i; inference keeps one
    # step's gates and two state slots
    kept = t if training else 1
    hs = np.zeros((kept + 1, n_dir, bsz, units), x.dtype)
    zr = np.empty((kept, n_dir, 2, bsz, units), x.dtype)
    cs = np.empty((kept, n_dir, bsz, units), x.dtype)
    y = np.empty((bsz, t, n_dir * units), x.dtype)
    times = [range(t)[s] for s in _SCAN[:n_dir]]  # the time index of each step
    for start, stop in _blocks(t, units):
        pre = _project(x, W_in, b, start, stop)
        for i in range(start, stop):
            g, h, h_next = i % kept, hs[i % (kept + 1)], hs[(i + 1) % (kept + 1)]
            p = pre[i - start]
            _sigmoid(p[:, :2] + matmul(h[:, None], w_zr), out=zr[g])
            z, r = zr[g, :, 0], zr[g, :, 1]
            np.tanh(p[:, 2] + matmul(h * r, w_c), out=cs[g])
            np.multiply(1.0 - z, h, out=h_next)
            h_next += z * cs[g]
            for d in range(n_dir):
                y[:, times[d][i], d * units : (d + 1) * units] = h_next[d]
    return y, ((x, hs, zr, cs) if training else None)


def _scan_backward(dy, cache, W_in, W_rec, g_in, g_rec, g_b, input_grad=True):
    """Adjoint of :func:`_scan_forward`: accumulates into the packed
    gradients g_* and returns the input gradient (B, T, in), or None
    without computing it when ``input_grad`` is false."""
    x, hs, zr, cs = cache
    n_dir, _, in_dim, units = W_in.shape
    bsz, t, _ = x.shape
    dys = np.empty((t, n_dir, bsz, units))
    for d in range(n_dir):
        dys[:, d] = np.moveaxis(dy[..., d * units : (d + 1) * units], 1, 0)[_SCAN[d]]
    w_zr_t = W_rec[:, :2].swapaxes(-1, -2)
    w_c_t = W_rec[:, 2].swapaxes(-1, -2)
    zs, rs = zr[:, :, 0], zr[:, :, 1]
    da = np.empty((t, n_dir, 3, bsz, units))  # gate pre-activation gradients, scan order
    # left factors of this step's W_rec gradients: h_prev for z and r, h_prev * r for c
    lhs = np.empty((n_dir, 3, bsz, units))
    lhs_t = lhs.swapaxes(-1, -2)
    dh_next = np.zeros((n_dir, bsz, units))
    for i in range(t - 1, -1, -1):
        dh = dys[i] + dh_next
        z, r, c, h_prev = zs[i], rs[i], cs[i], hs[i]
        one_z = 1.0 - z
        np.multiply(dh * z, 1.0 - c * c, out=da[i, :, 2])
        np.multiply(dh * (c - h_prev) * z, one_z, out=da[i, :, 0])
        dhr = da[i, :, 2] @ w_c_t
        np.multiply(dhr * h_prev * r, 1.0 - r, out=da[i, :, 1])
        # two products summed, not one K=2u product: that would reorder the sum
        back_zr = da[i, :, :2] @ w_zr_t
        dh_next = dh * one_z + dhr * r
        dh_next += back_zr[:, 0] + back_zr[:, 1]
        lhs[:, :2] = h_prev[:, None]
        np.multiply(h_prev, r, out=lhs[:, 2])
        g_rec += lhs_t @ da[i]
    dx = None
    for d in range(n_dir):
        # the reversed direction pairs its scan-order gradients with x read backwards
        xf = np.ascontiguousarray(x[:, _SCAN[d]]).reshape(-1, in_dim)
        da_d = np.ascontiguousarray(np.moveaxis(da[:, d], 0, 2))  # (3, B, T, units)
        for k in range(3):
            flat = da_d[k].reshape(-1, units)
            g_in[d, k] += xf.T @ flat
            g_b[d, k] += da_d[k].sum(axis=(0, 1))
        if not input_grad:
            continue
        dx_d = da_d[0] @ W_in[d, 0].T + da_d[1] @ W_in[d, 1].T + da_d[2] @ W_in[d, 2].T
        dx = dx_d[:, _SCAN[d]] if dx is None else dx + dx_d[:, _SCAN[d]]
    return dx


class _PackedGru:
    """Parameters, gradients and scan shared by :class:`Gru` and :class:`BiGru`."""

    _prefixes: tuple[str, ...]  # parameter-name prefix of each direction

    def __init__(self, in_dim: int, units: int, rng: np.random.Generator | None = None,
                 store: ParamStore | None = None):
        """``rng`` draws the initial weights; None leaves them at zero."""
        n_dir = len(self._prefixes)
        shapes = {"W_in": (n_dir, 3, in_dim, units), "W_rec": (n_dir, 3, units, units),
                  "b": (n_dir, 3, units)}
        self.store = store or ParamStore.fitting(shapes)
        values, grads = self.store.carve(shapes)
        if rng is not None:
            for d in range(n_dir):  # the draw order of one layer per direction
                for k in range(3):
                    values["W_in"][d, k] = glorot_uniform(rng, in_dim, units, (in_dim, units))
                    values["W_rec"][d, k] = orthogonal(rng, units)
        self._attach(tuple(values.values()), tuple(grads.values()))

    def _attach(self, packed, packed_grads):
        self.W_in, self.W_rec, self.b = packed
        _, _, self.in_dim, self.units = self.W_in.shape
        self._packed_grads = packed_grads
        self.params = self._named(packed)
        self.grads = self._named(packed_grads)
        self._cache = None

    def _named(self, packed) -> dict[str, np.ndarray]:
        W_in, W_rec, b = packed
        out = {}
        for d, prefix in enumerate(self._prefixes):
            for k, gate in enumerate("zrc"):
                out[f"{prefix}W_in_{gate}"] = W_in[d, k]
                out[f"{prefix}W_rec_{gate}"] = W_rec[d, k]
                out[f"{prefix}b_{gate}"] = b[d, k]
        return out

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y, self._cache = _scan_forward(x, self.W_in, self.W_rec, self.b, training)
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients; returns the input gradient, or
        None, computing no part of it, when ``input_grad`` is false."""
        cache, self._cache = self._cache, None
        return _scan_backward(dy, cache, self.W_in, self.W_rec, *self._packed_grads, input_grad)


class Gru(_PackedGru):
    """Unidirectional scan over (B, T, in); zero initial state."""

    _prefixes = ("",)

    def step(self, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
        """One recurrence step; x (..., in_dim), h_prev (..., units)."""
        p = self.params
        z = _sigmoid(x @ p["W_in_z"] + h_prev @ p["W_rec_z"] + p["b_z"])
        r = _sigmoid(x @ p["W_in_r"] + h_prev @ p["W_rec_r"] + p["b_r"])
        c = np.tanh(x @ p["W_in_c"] + (h_prev * r) @ p["W_rec_c"] + p["b_c"])
        return (1.0 - z) * h_prev + z * c


class BiGru(_PackedGru):
    """Forward and reversed scans concatenated along the feature axis;
    output width is 2 * units.  ``fwd`` and ``bwd`` are one-direction
    :class:`Gru` views of the two halves of the packed arrays."""

    _prefixes = ("fwd/", "bwd/")

    def __init__(self, in_dim: int, units: int, rng: np.random.Generator | None = None,
                 store: ParamStore | None = None):
        super().__init__(in_dim, units, rng, store)
        self.fwd, self.bwd = (self._direction(d) for d in range(2))

    def _direction(self, d: int) -> Gru:
        half = lambda arrays: tuple(a[d : d + 1] for a in arrays)
        view = Gru.__new__(Gru)
        view._attach(half((self.W_in, self.W_rec, self.b)), half(self._packed_grads))
        return view
