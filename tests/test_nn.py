"""Layer-level oracles and gradient checks for the from-scratch network."""

import tracemalloc

import numpy as np
import pytest

from csisense.errors import DomainError
from csisense.features import RobustScalerParams
from csisense.model import ArchConfig, build
from csisense.nn import (
    AddPositional,
    Adam,
    BiGru,
    Concat,
    Dense,
    Dropout,
    Gru,
    MultiHeadSelfAttention,
    ParamStore,
    WeightedSkipAdd,
    cross_entropy,
    cross_entropy_logit_grad,
    glorot_uniform,
    grad_check,
    gru,
    orthogonal,
    positional_encoding,
    relu,
    softmax,
)
from csisense.weights import load_weights, model_from_weights, save_weights, weights_from_model

TOL = 1e-6  # max relative error accepted from the finite-difference checks
MICRO_ARCH = ArchConfig(seq_len=6, feature_dim=4, bigru1_units=4, bigru2_units=4, heads=1,
                        key_dim=4, dense_units=4, classes=3)


def _ok(report: dict) -> float:
    return max(report.values())


# ----------------------------------------------------------------- losses

def test_cross_entropy_hand_value():
    probs = np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]])
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    want = -(np.log(0.7 + 1e-12) + np.log(0.5 + 1e-12)) / 2.0
    assert abs(cross_entropy(probs, targets) - want) < 1e-15


def test_logit_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5))
    targets = np.zeros((4, 5))
    targets[np.arange(4), rng.integers(0, 5, 4)] = 1.0

    def loss_of(z):
        return cross_entropy(softmax(z), targets)

    analytic = cross_entropy_logit_grad(softmax(logits), targets)
    eps = 1e-6
    for i in range(4):
        for j in range(5):
            z = logits.copy()
            z[i, j] += eps
            hi = loss_of(z)
            z[i, j] -= 2 * eps
            lo = loss_of(z)
            numeric = (hi - lo) / (2 * eps)
            assert abs(analytic[i, j] - numeric) < 1e-8


def test_logit_grad_batch_normalization():
    # the 1/N factor counts rows across all leading axes
    probs = np.full((2, 3, 4), 0.25)
    targets = np.zeros((2, 3, 4))
    targets[..., 0] = 1.0
    g = cross_entropy_logit_grad(probs, targets)
    assert abs(g[0, 0, 1] - 0.25 / 6.0) < 1e-15


# ------------------------------------------------------------- primitives

def test_relu_and_softmax():
    assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])
    s = softmax(np.array([[1000.0, 1000.0, 999.0]]))  # max-shift keeps this finite
    assert np.isfinite(s).all() and abs(s.sum() - 1.0) < 1e-12
    assert s[0, 0] == s[0, 1] and s[0, 0] > s[0, 2]


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 30, 20, (30, 20))
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert w.min() >= -limit and w.max() <= limit
    assert w.std() > 0.1 * limit  # actually spread out, not degenerate


def test_orthogonal_matrix():
    q = orthogonal(np.random.default_rng(1), 16)
    assert np.allclose(q @ q.T, np.eye(16), atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(16), atol=1e-12)


def test_positional_encoding_values():
    pe = positional_encoding(50, 8)
    assert pe.shape == (50, 8)
    assert np.array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])
    pos, i = 7, 2
    angle = pos / (10000.0 ** (2 * i / 8))
    assert abs(pe[pos, 2 * i] - np.sin(angle)) < 1e-15
    assert abs(pe[pos, 2 * i + 1] - np.cos(angle)) < 1e-15
    odd = positional_encoding(5, 7)
    assert odd.shape == (5, 7)


# ----------------------------------------------------------------- layers

def test_dense_forward_hand_case():
    layer = Dense(2, 2, "none", np.random.default_rng(0))
    layer.params["W"][...] = [[1.0, 2.0], [3.0, 4.0]]
    layer.params["b"][...] = [0.5, -0.5]
    y = layer.forward(np.array([[1.0, 1.0]]))
    assert np.array_equal(y, [[4.5, 5.5]])


@pytest.mark.parametrize("activation", ["none", "relu"])
def test_dense_grad_check(activation):
    rng = np.random.default_rng(3)
    layer = Dense(4, 3, activation, rng)
    x = rng.standard_normal((6, 4))
    if activation == "relu":
        x = x + 0.05  # keep perturbations away from the kink
    assert _ok(grad_check(layer, [x])) <= TOL


def test_dropout_layer_semantics():
    rng = np.random.default_rng(5)
    layer = Dropout(0.5, rng)
    x = np.ones((40, 10))
    assert layer.forward(x, training=False) is x
    y = layer.forward(x, training=True)
    mask = y != 0
    assert np.allclose(y[mask], 2.0)
    dy = np.full_like(x, 3.0)
    dx = layer.backward(dy)
    assert np.array_equal(dx != 0, mask)  # same mask reused on the way back
    assert np.allclose(dx[mask], 6.0)


def test_add_positional():
    layer = AddPositional(10, 4)
    x = np.zeros((2, 10, 4))
    y = layer.forward(x)
    assert np.array_equal(y, np.broadcast_to(positional_encoding(10, 4), (2, 10, 4)))
    g = np.random.default_rng(0).standard_normal((2, 10, 4))
    assert np.array_equal(layer.backward(g), g)
    short = layer.forward(np.zeros((1, 6, 4)))  # shorter sequences reuse the table head
    assert np.array_equal(short[0], positional_encoding(10, 4)[:6])


def test_weighted_skip_add():
    layer = WeightedSkipAdd(0.7, 0.3)
    a = np.array([[1.0, 2.0]])
    b = np.array([[10.0, 20.0]])
    assert np.allclose(layer.forward(a, b), [[3.7, 7.4]])
    da, db = layer.backward(np.array([[1.0, 1.0]]))
    assert np.allclose(da, 0.7) and np.allclose(db, 0.3)


def test_concat_round_trip():
    layer = Concat()
    a = np.ones((5, 3))
    b = np.full((5, 2), 2.0)
    y = layer.forward(a, b)
    assert y.shape == (5, 5)
    da, db = layer.backward(np.arange(25, dtype=float).reshape(5, 5))
    assert da.shape == (5, 3) and db.shape == (5, 2)
    assert da[0, 2] == 2.0 and db[0, 0] == 3.0


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(11)
    layer = MultiHeadSelfAttention(6, 2, 3, rng)
    y = layer.forward(rng.standard_normal((1, 7, 6)), training=True)
    assert y.shape == (1, 7, 6)
    _, kept, _ = layer._cache
    assert len(kept) == 2  # one (q, k, v, A) per head
    for _, _, _, a in kept:
        assert a.shape[-2:] == (7, 7)
        assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_grad_check():
    rng = np.random.default_rng(13)
    layer = MultiHeadSelfAttention(6, 2, 3, rng)
    x = rng.standard_normal((1, 5, 6))
    assert _ok(grad_check(layer, [x])) <= TOL


def test_attention_batched_matches_loop():
    rng = np.random.default_rng(17)
    layer = MultiHeadSelfAttention(6, 2, 3, rng)
    xb = rng.standard_normal((3, 5, 6))
    yb = layer.forward(xb)
    for i in range(3):
        assert np.allclose(yb[i : i + 1], layer.forward(xb[i : i + 1]), atol=1e-12)


# -------------------------------------------------------------------- GRU

def test_gru_zero_params_halves_state():
    # with all weights and biases zero: z = 0.5, candidate = 0, so
    # h = (1 - z) h_prev = 0.5 h_prev
    rng = np.random.default_rng(29)
    gru = Gru(4, 6, rng)
    for k in gru.params:
        gru.params[k][...] = 0.0
    for _ in range(100):
        h_prev = rng.standard_normal(6)
        x = rng.standard_normal(4)
        h = gru.step(x, h_prev)
        assert np.abs(h - 0.5 * h_prev).max() <= 1e-12


def test_gru_forward_equals_step_scan():
    rng = np.random.default_rng(31)
    gru = Gru(3, 5, rng)
    x = rng.standard_normal((1, 7, 3))
    out = gru.forward(x)
    h = np.zeros(5)
    for t in range(7):
        h = gru.step(x[0, t], h)
        assert np.allclose(out[0, t], h, atol=1e-12)


def test_gru_grad_check_five_steps():
    rng = np.random.default_rng(37)
    gru = Gru(4, 3, rng)
    x = rng.standard_normal((1, 5, 4))
    assert _ok(grad_check(gru, [x])) <= TOL


def test_bigru_concatenates_directions():
    rng = np.random.default_rng(41)
    bi = BiGru(3, 4, rng)
    x = rng.standard_normal((1, 6, 3))
    y = bi.forward(x)
    assert y.shape == (1, 6, 8)
    fwd = bi.fwd.forward(x)
    bwd = np.flip(bi.bwd.forward(np.ascontiguousarray(np.flip(x, axis=1))), axis=1)
    assert np.allclose(y, np.concatenate([fwd, bwd], axis=-1), atol=1e-12)


def test_bigru_grad_check():
    rng = np.random.default_rng(43)
    bi = BiGru(3, 2, rng)
    x = rng.standard_normal((1, 5, 3))
    assert _ok(grad_check(bi, [x])) <= TOL


def test_bigru_batched_matches_loop():
    rng = np.random.default_rng(47)
    bi = BiGru(3, 4, rng)
    xb = rng.standard_normal((3, 6, 3))
    yb = bi.forward(xb)
    assert yb.shape == (3, 6, 8)
    for i in range(3):
        assert np.allclose(yb[i : i + 1], bi.forward(xb[i : i + 1]), atol=1e-12)


def test_gru_param_names_are_prefixed():
    bi = BiGru(3, 2, np.random.default_rng(0))
    names = set(bi.params)
    assert {"fwd/W_in_z", "bwd/W_rec_c", "fwd/b_r"} <= names
    assert len(names) == 18  # 3 gates x (input, recurrent, bias) per direction


def _ref_sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_gru(p, x, dy):
    """One direction, one gate at a time: the scan the packed layout replaced.
    Returns the states, the input gradient and the parameter gradients."""
    b, t, _ = x.shape
    pre = {g: x @ p[f"W_in_{g}"] + p[f"b_{g}"] for g in "zrc"}
    h, steps = np.zeros((b, p["b_z"].size)), []
    for i in range(t):
        z = _ref_sigmoid(pre["z"][:, i] + h @ p["W_rec_z"])
        r = _ref_sigmoid(pre["r"][:, i] + h @ p["W_rec_r"])
        c = np.tanh(pre["c"][:, i] + (h * r) @ p["W_rec_c"])
        steps.append((h, z, r, c))
        h = (1.0 - z) * h + z * c
    hs = np.stack([s[0] for s in steps[1:]] + [h], axis=1)
    g = {k: np.zeros_like(v) for k, v in p.items()}
    da = {k: np.empty_like(hs) for k in "zrc"}
    dh_next = np.zeros_like(h)
    for i in range(t - 1, -1, -1):
        h_prev, z, r, c = steps[i]
        dh = dy[:, i] + dh_next
        da["c"][:, i] = dh * z * (1.0 - c * c)
        da["z"][:, i] = dh * (c - h_prev) * z * (1.0 - z)
        dhr = da["c"][:, i] @ p["W_rec_c"].T
        da["r"][:, i] = dhr * h_prev * r * (1.0 - r)
        dh_next = dh * (1.0 - z) + dhr * r
        dh_next += da["z"][:, i] @ p["W_rec_z"].T + da["r"][:, i] @ p["W_rec_r"].T
        g["W_rec_z"] += h_prev.T @ da["z"][:, i]
        g["W_rec_r"] += h_prev.T @ da["r"][:, i]
        g["W_rec_c"] += (h_prev * r).T @ da["c"][:, i]
    for k in "zrc":
        g[f"W_in_{k}"] += x.reshape(-1, x.shape[-1]).T @ da[k].reshape(-1, hs.shape[-1])
        g[f"b_{k}"] += da[k].sum(axis=(0, 1))
    dx = da["z"] @ p["W_in_z"].T + da["r"] @ p["W_in_r"].T + da["c"] @ p["W_in_c"].T
    return hs, dx, g


@pytest.mark.parametrize("in_dim, units", [(366, 64), (128, 32)], ids=["desk-bigru1", "desk-bigru2"])
@pytest.mark.parametrize("batch", [1, 4])
def test_bigru_is_bit_identical_to_per_direction_scans(in_dim, units, batch):
    rng = np.random.default_rng(59)
    bi = BiGru(in_dim, units, rng)
    x = rng.standard_normal((batch, 156, in_dim))
    dy = rng.standard_normal((batch, 156, 2 * units))
    part = lambda prefix: {k[len(prefix):]: v for k, v in bi.params.items() if k.startswith(prefix)}
    flip = lambda a: np.ascontiguousarray(a[:, ::-1])
    hf, dxf, gf = _ref_gru(part("fwd/"), x, dy[..., :units])
    hb, dxb, gb = _ref_gru(part("bwd/"), flip(x), flip(dy[..., units:]))
    y = bi.forward(x, training=True)
    dx = bi.backward(dy)
    assert np.array_equal(y, np.concatenate([hf, hb[:, ::-1]], axis=-1))
    assert np.array_equal(dx, dxf + dxb[:, ::-1])
    want = {**{f"fwd/{k}": v for k, v in gf.items()}, **{f"bwd/{k}": v for k, v in gb.items()}}
    assert set(bi.grads) == set(want)
    for name, grad in bi.grads.items():
        assert np.array_equal(grad, want[name]), name


@pytest.mark.parametrize("in_dim, units", [(366, 64), (128, 32)], ids=["desk-bigru1", "desk-bigru2"])
def test_bigru_inference_rows_are_single_row_scans(in_dim, units):
    # an inference forward makes each recurrent product row by row, so every
    # row of a batch is, bit for bit, the one-row reference scan of that row
    rng = np.random.default_rng(61)
    bi = BiGru(in_dim, units, rng)
    x = rng.standard_normal((3, 156, in_dim))
    part = lambda prefix: {k[len(prefix):]: v for k, v in bi.params.items() if k.startswith(prefix)}
    zeros = np.zeros((1, 156, units))
    y = bi.forward(x)
    for i in range(3):
        row = x[i : i + 1]
        hf = _ref_gru(part("fwd/"), row, zeros)[0]
        hb = _ref_gru(part("bwd/"), np.ascontiguousarray(row[:, ::-1]), zeros)[0]
        assert np.array_equal(y[i], np.concatenate([hf, hb[:, ::-1]], axis=-1)[0])


_BLOCK = 5  # input-projection block length the block tests force


def _bigru_in(in_dim, units, rng, dtype):
    """A BiGru with ``rng``'s weights in a store of ``dtype``."""
    drawn = BiGru(in_dim, units, rng)
    if dtype == np.float64:
        return drawn
    return BiGru(in_dim, units, store=ParamStore(drawn.store.values.astype(dtype)))


def _force_block(monkeypatch, units, steps):
    """Set the byte budget so that a block is ``steps`` scan steps long."""
    monkeypatch.setattr(gru, "_BLOCK_BYTES", steps * 8 * 2 * 3 * units)


def test_projection_blocks_cover_the_sequence(monkeypatch):
    # one block covers a desk sequence; full width makes blocks of 85 steps
    assert gru._blocks(156, 64) == [(0, 156)]
    assert gru._blocks(1560, 1024) == [(i, min(i + 85, 1560)) for i in range(0, 1560, 85)]
    _force_block(monkeypatch, 1, _BLOCK)
    for t in range(1, 4 * _BLOCK):
        blocks = gru._blocks(t, 1)
        assert blocks[0][0] == 0 and blocks[-1][1] == t
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(stop - start >= 2 for start, stop in blocks) or t == 1
    # a 1-step tail joins the block before it
    assert gru._blocks(6, 1) == [(0, 6)]
    assert gru._blocks(7, 1) == [(0, 5), (5, 7)]
    assert gru._blocks(11, 1) == [(0, 5), (5, 11)]


@pytest.mark.parametrize("t", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("training, dtype", [(False, np.float64), (True, np.float64), (False, np.float32)],
                         ids=["inference", "training", "inference-float32"])
def test_blocked_projection_equals_whole_sequence(monkeypatch, t, batch, training, dtype):
    rng = np.random.default_rng(73)
    units = 16
    bi = _bigru_in(24, units, rng, dtype)
    x = rng.standard_normal((batch, t, 24)).astype(dtype)
    whole = bi.forward(x, training)
    assert whole.dtype == dtype
    whole_cache = bi._cache
    _force_block(monkeypatch, units, _BLOCK)
    blocked = bi.forward(x, training)
    assert np.array_equal(blocked, whole)
    if training:
        for got_part, want_part in zip(bi._cache, whole_cache):
            assert np.array_equal(got_part, want_part)
    else:
        assert bi._cache is None and whole_cache is None


def test_float32_inference_bigru_makes_no_float64_weight_copy():
    bi = _bigru_in(366, 512, np.random.default_rng(81), np.float32)
    x = np.random.default_rng(82).standard_normal((1, 8, 366)).astype(np.float32)
    w_rec_f64 = bi.W_rec.size * 8  # 12.6 MB
    tracemalloc.start()
    try:
        y = bi.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.dtype == np.float32
    assert peak < w_rec_f64


def test_long_inference_bigru_peaks_below_the_whole_sequence_projection():
    units, t = 256, 2000
    bi = BiGru(16, units, np.random.default_rng(79))
    x = np.random.default_rng(80).standard_normal((1, t, 16))
    projection = t * 2 * 3 * units * 8  # float64 bytes of every step's projections
    tracemalloc.start()
    try:
        y = bi.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output (a third of the projection) plus one 4 MiB block
    assert y.nbytes < peak < projection


def _packed_slot(layer, name):
    """The packed-array entry that the per-gate name ``fwd/W_in_z`` etc. views."""
    direction, _, tail = name.rpartition("/")
    kind, gate = tail.rsplit("_", 1)
    packed = {"W_in": layer.W_in, "W_rec": layer.W_rec, "b": layer.b}[kind]
    return packed[("fwd", "bwd").index(direction), "zrc".index(gate)]


def test_gate_views_write_through_to_packed_arrays():
    rng = np.random.default_rng(61)
    bi = BiGru(3, 2, rng)
    for name, view in bi.params.items():
        view[...] = rng.standard_normal(view.shape)
        assert np.array_equal(_packed_slot(bi, name), view)
    # the one-direction Gru views share the same memory
    assert np.shares_memory(bi.fwd.params["W_rec_c"], bi.W_rec[0, 2])
    assert np.shares_memory(bi.bwd.grads["b_z"], bi.grads["bwd/b_z"])
    assert np.array_equal(bi.bwd.params["W_in_r"], bi.W_in[1, 1])

    # one Adam step over the flat store updates the packed arrays exactly as
    # one step per plain copy of each named array
    bi.store.grads[...] = rng.standard_normal(bi.store.grads.size)
    plain = {k: v.copy() for k, v in bi.params.items()}
    for name, p in plain.items():
        Adam().step(p, bi.grads[name].copy(), 0.01)
    Adam().step(bi.store.values, bi.store.grads, 0.01)
    for name in plain:
        assert np.array_equal(_packed_slot(bi, name), plain[name]), name


def test_layers_built_alone_own_a_fitting_store():
    rng = np.random.default_rng(67)
    layers = {
        "dense": (Dense(4, 3, "none", rng), 4 * 3 + 3),
        "gru": (Gru(3, 2, rng), 3 * (3 * 2 + 2 * 2 + 2)),
        "bigru": (BiGru(3, 2, rng), 2 * 3 * (3 * 2 + 2 * 2 + 2)),
        "attention": (MultiHeadSelfAttention(6, 2, 3, rng), 4 * 2 * 6 * 3),
    }
    for name, (layer, size) in layers.items():
        assert layer.store.values.size == layer.store.grads.size == size, name
        for key, view in layer.params.items():
            assert np.shares_memory(view, layer.store.values), (name, key)
            assert np.shares_memory(layer.grads[key], layer.store.grads), (name, key)
    for layer in (Dropout(0.5), AddPositional(4, 3), WeightedSkipAdd(0.7, 0.3), Concat()):
        assert not hasattr(layer, "params")
    with pytest.raises(DomainError, match="full"):
        Dense(4, 3, store=Dense(2, 2).store)


def test_model_params_and_bundles_write_through_to_packed_arrays(tmp_path):
    model = build(MICRO_ARCH, seed=5)
    values = {k: np.random.default_rng(6).standard_normal(v.shape) for k, v in model.params.items()}
    for name, value in values.items():
        model.params[name][...] = value
    for layer in ("bigru1", "bigru2"):
        bi = getattr(model, layer)
        for name in bi.params:
            assert np.array_equal(_packed_slot(bi, name), values[f"{layer}/{name}"])

    path = tmp_path / "m.weights"
    width = MICRO_ARCH.feature_dim
    scaler = RobustScalerParams(np.zeros(width), np.ones(width), np.zeros(width, dtype=bool))
    save_weights(weights_from_model(model, fold_id=0, seed=5, scaler=scaler), path)
    bundle = load_weights(path)
    # loading draws and copies nothing: the store is the bundle's block
    rebuilt = model_from_weights(bundle)
    assert rebuilt.store.values is bundle.values
    for layer in ("bigru1", "bigru2"):
        bi = getattr(rebuilt, layer)
        for name in bi.params:
            want = values[f"{layer}/{name}"].astype(np.float32)
            assert np.array_equal(_packed_slot(bi, name), want)


# -------------------------------------------------------------- optimizer

def test_adam_single_step_hand_value():
    p = np.array([1.0])
    g = np.array([2.0])
    opt = Adam()
    opt.step(p, g, 0.1)
    # m_hat = 2, v_hat = 4: step = 0.1 * 2 / (2 + 1e-8)
    want = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    assert abs(p[0] - want) < 1e-15
    assert opt.t == 1
    assert (opt.m[0], opt.v[0]) == pytest.approx((0.2, 0.004))  # the moments update in place


def test_adam_two_steps_match_reference_formula():
    rng = np.random.default_rng(53)
    p = rng.standard_normal((3, 2))
    p0 = p.copy()
    g1, g2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    opt = Adam()
    opt.step(p, g1, 0.01)
    opt.step(p, g2, 0.005)  # the rate is the caller's, step by step

    m = 0.1 * g1
    v = 0.001 * g1 * g1
    ref = p0 - 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    ref -= 0.005 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(p, ref, atol=1e-14)
