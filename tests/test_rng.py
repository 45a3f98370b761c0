"""Counter generator: determinism, stream independence, distribution sanity."""

import numpy as np
import pytest

from csisense.rng import CounterRng, derive_key


def test_frozen_outputs():
    # raw draws are part of the file-format contract; these values must
    # never change across platforms or releases
    got = [int(v) for v in CounterRng(0, "x").u64(3)]
    assert got == [0x472ED96FE0C96399, 0xC25E9BD301A54AF7, 0xC6E3AC254CC3E51E]
    assert derive_key(0, "x") == 0x3BC9F866807686A9


def test_same_key_same_stream():
    a = CounterRng(7, "noise", 3)
    b = CounterRng(7, "noise", 3)
    assert np.array_equal(a.u64(100), b.u64(100))


def test_draw_batching_is_irrelevant():
    a = CounterRng(11)
    b = CounterRng(11)
    left = np.concatenate([a.u64(3), a.u64(7), a.u64(10)])
    assert np.array_equal(left, b.u64(20))


def test_derive_key_separates_parts():
    assert derive_key("a", "b") != derive_key("ab")
    assert derive_key(1, 2) != derive_key(2, 1)
    assert derive_key("x") != derive_key("x", 0)
    with pytest.raises(TypeError):
        derive_key(1.5)


def test_spawn_gives_independent_streams():
    root = CounterRng(5)
    c1 = root.spawn("jitter")
    c2 = root.spawn("csi")
    assert not np.array_equal(c1.u64(50), c2.u64(50))
    # spawned key depends on the parent key, not the parent's counter position
    root.u64(13)
    assert np.array_equal(root.spawn("jitter").u64(50), CounterRng(5).spawn("jitter").u64(50))


def test_uniform_ranges():
    r = CounterRng(3)
    u = r.uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    uo = CounterRng(3).uniform_open(10000)
    assert uo.min() > 0.0 and uo.max() <= 1.0


def test_normal_moments():
    z = CounterRng(42).normal(40000)
    assert abs(float(np.mean(z))) < 0.02
    assert abs(float(np.std(z)) - 1.0) < 0.02


def test_normal_scalar_and_shapes():
    r = CounterRng(9)
    x = r.normal()
    assert isinstance(x, float)
    m = CounterRng(9).normal((3, 4))
    assert m.shape == (3, 4)
    assert np.isfinite(m).all()


def test_complex_normal_components():
    z = CounterRng(1).complex_normal((2, 5))
    assert z.shape == (2, 5)
    assert z.dtype == np.complex128
    big = CounterRng(1).complex_normal(20000)
    assert abs(float(np.std(big.real)) - 1.0) < 0.03
    assert abs(float(np.std(big.imag)) - 1.0) < 0.03


@pytest.mark.parametrize("shape", [(2, 3, 30), (1, 3, 5)], ids=["even", "odd"])
def test_complex_normal_rows_equal_sequential_draws(shape):
    # an odd tx*rx*sc drops one Box-Muller value per part of every row
    batched = CounterRng(8, "csi").complex_normal_rows(6, shape)
    rng = CounterRng(8, "csi")
    sequential = np.stack([rng.complex_normal(shape) for _ in range(6)])
    assert batched.shape == (6, *shape)
    assert batched.tobytes() == sequential.tobytes()
    # and the stream continues where the sequential calls leave it
    after = CounterRng(8, "csi")
    after.complex_normal_rows(6, shape)
    assert np.array_equal(after.u64(4), rng.u64(4))


def test_shuffle_is_a_permutation_and_pure():
    items = list(range(30))
    out = CounterRng(4).shuffle(items)
    assert sorted(out) == items
    assert items == list(range(30))  # input untouched
    assert CounterRng(4).shuffle(items) == out
    assert CounterRng(5).shuffle(items) != out
