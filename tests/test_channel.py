"""Propagation and fading layer: spot values, oracles, brute-force checks."""

import mpmath
import numpy as np
import pytest

from csisense.channel import (
    MultipathSet,
    PropagationConfig,
    SPEED_OF_LIGHT,
    apply_channel,
    assemble_h_matrix,
    average_power,
    bessel_i0,
    channel_impulse_element,
    path_loss_db,
    received_power,
    rician_k,
    rician_power_pdf,
    rician_received_signal,
    subcarrier_frequencies,
    wavelength,
)
from csisense.errors import DomainError


def test_wavelength_exact():
    assert wavelength(2.4e9) == 0.125
    assert wavelength(SPEED_OF_LIGHT) == 1.0
    with pytest.raises(DomainError):
        wavelength(0.0)


def test_path_loss_twenty_db_per_decade_exact():
    cfg = PropagationConfig(path_loss_exponent=2.0)
    assert path_loss_db(cfg, 40.0, distance=10.0) - path_loss_db(cfg, 40.0, distance=1.0) == 20.0
    assert path_loss_db(cfg, 40.0, distance=100.0) - path_loss_db(cfg, 40.0, distance=1.0) == 40.0


def test_path_loss_default_distance_value():
    # 40 + 10*2*log10(4.3 / 1.0), frozen
    assert abs(path_loss_db(PropagationConfig(), 40.0) - 52.669369111591735) < 1e-9


def test_path_loss_monotone_in_distance():
    cfg = PropagationConfig(path_loss_exponent=4.3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = np.sort(rng.uniform(0.1, 50.0, 2))
        assert path_loss_db(cfg, 40.0, distance=d[0]) < path_loss_db(cfg, 40.0, distance=d[1])
    with pytest.raises(DomainError):
        path_loss_db(cfg, 40.0, distance=0.0)


def test_rician_signal_and_power_hand_case():
    # one scattered ray at phase 0: M = 1, N = 0
    mp = MultipathSet(paths=((1.0, 0.0, 1e-8),), los_amplitude=2.0)
    assert received_power(mp) == 9.0
    t = np.array([0.0])
    assert rician_received_signal(mp, omega=2 * np.pi * 100.0, t=t)[0] == 3.0
    # quadrature ray: M = 0, N = 1
    mp2 = MultipathSet(paths=((1.0, np.pi / 2, 0.0),), los_amplitude=2.0)
    assert abs(received_power(mp2) - 5.0) < 1e-12


def test_received_power_no_multipath_is_los_squared():
    for a in (0.0, 0.5, 1.0, 3.25):
        assert received_power(MultipathSet(paths=(), los_amplitude=a)) == a * a


def test_average_power_and_k_factor():
    mp = MultipathSet(paths=(), los_amplitude=3.0)
    assert average_power(mp, sigma_sq=2.0) == 13.0  # 2*2 + 9
    assert rician_k(mp, sigma_sq=1.5) == 3.0  # 9 / (2*1.5)
    assert rician_k(MultipathSet(paths=(), los_amplitude=0.0), 1.0) == 0.0


def test_bessel_i0_frozen_values():
    cases = {
        0.0: 1.0,
        0.5: 1.0634833707413235,
        1.0: 1.2660658777520084,
        3.75: 9.1189458608445667,
        5.0: 27.239871823604447,
        12.0: 18948.925349296309,
        20.0: 43558282.559553533,
        35.0: 107338818494514.06,
        50.0: 2.9325537838493363e20,
    }
    for x, want in cases.items():
        assert abs(bessel_i0(x) - want) <= 1e-8 * want if want else bessel_i0(x) == 1.0


def test_bessel_i0_against_mpmath_sweep():
    mpmath.mp.dps = 30
    xs = np.concatenate([np.linspace(0.0, 19.99, 120), np.linspace(20.0, 60.0, 60)])
    for x in xs:
        want = float(mpmath.besseli(0, float(x)))
        got = bessel_i0(float(x))
        assert abs(got - want) <= 1e-8 * max(1.0, want), f"x={x}: {got} vs {want}"


def test_bessel_i0_even_and_vectorized():
    xs = np.array([-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0])
    vals = bessel_i0(xs)
    assert vals.shape == xs.shape
    assert np.allclose(vals, bessel_i0(-xs), rtol=0, atol=0)
    for x in (0.3, 2.0, 7.7, 25.0):
        assert bessel_i0(-x) == bessel_i0(x)


def _simpson(y: np.ndarray, h: float) -> float:
    # composite Simpson rule; y has odd length
    n = y.size - 1
    assert n % 2 == 0
    return (h / 3.0) * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


@pytest.mark.parametrize("k_factor", [0.0, 1.0, 2.0, 5.0])
def test_rician_power_pdf_normalizes(k_factor):
    p_bar = 1.7
    n = 20001
    p = np.linspace(0.0, 30.0 * p_bar, n)
    pdf = rician_power_pdf(p, k_factor, p_bar)
    integral = _simpson(pdf, p[1] - p[0])
    assert abs(integral - 1.0) <= 1e-3


def test_rician_power_pdf_k_zero_is_exponential():
    p_bar = 2.5
    p = np.linspace(0.0, 12.0, 50)
    want = (1.0 / p_bar) * np.exp(-p / p_bar)
    assert np.allclose(rician_power_pdf(p, 0.0, p_bar), want, rtol=1e-12, atol=0)


def test_rician_power_pdf_negative_power_is_zero():
    assert rician_power_pdf(-1.0, 2.0, 1.0) == 0.0
    out = rician_power_pdf(np.array([-2.0, 0.0, 1.0]), 1.0, 1.0)
    assert out[0] == 0.0 and out[1] > 0.0


def test_subcarrier_frequencies_layout():
    cfg = PropagationConfig()
    freqs = subcarrier_frequencies(cfg)
    assert freqs.shape == (30,)
    assert freqs[0] == 2.4e9 - 14.5 * 312_500.0
    assert freqs[-1] == 2.4e9 + 14.5 * 312_500.0
    assert np.allclose(np.diff(freqs), 312_500.0)
    assert abs(float(freqs.mean()) - 2.4e9) < 1e-3
    odd = subcarrier_frequencies(PropagationConfig(dims=(1, 1, 7)))
    assert odd[3] == 2.4e9  # middle subcarrier sits on the carrier


def test_channel_impulse_element_single_ray():
    mp = MultipathSet(paths=((2.0, 0.0, 0.0),))
    taps = channel_impulse_element(mp, frequency=1e9, delay_bins=np.array([0.0, 1e-9]))
    assert taps[0] == 2.0 + 0.0j and taps[1] == 0.0


def test_channel_impulse_element_coherent_bin_sum():
    f = 1e9
    mp = MultipathSet(paths=((1.0, 0.0, 1.0e-9), (0.5, 0.0, 1.2e-9)))
    taps = channel_impulse_element(mp, f, np.array([0.0, 1e-9, 2e-9]))
    want = 1.0 * np.exp(-2j * np.pi * f * 1.0e-9) + 0.5 * np.exp(-2j * np.pi * f * 1.2e-9)
    assert abs(taps[1] - want) < 1e-15
    assert taps[0] == 0.0 and taps[2] == 0.0


def test_tap_sum_equals_frequency_response():
    # binning only relocates rays; the summed taps equal the direct response
    rng = np.random.default_rng(3)
    for _ in range(20):
        paths = tuple(
            (float(a), 0.0, float(d))
            for a, d in zip(rng.uniform(0.1, 2.0, 5), rng.uniform(0.0, 3e-8, 5))
        )
        mp = MultipathSet(paths=paths)
        f = float(rng.uniform(1e9, 3e9))
        taps = channel_impulse_element(mp, f, np.linspace(0.0, 3e-8, 7))
        direct = sum(a * np.exp(-2j * np.pi * f * d) for a, _, d in paths)
        assert abs(taps.sum() - direct) < 1e-9 * abs(direct)


def _flat_rays(cfg, amp=1.0):
    # one ray per link at zero delay: a frequency-flat channel of gain amp
    n_tx, n_rx, _ = cfg.dims
    return np.full((n_tx, n_rx, 1), amp), np.zeros((n_tx, n_rx, 1))


def test_assemble_h_flat_channel():
    cfg = PropagationConfig(dims=(2, 3, 30))
    h = assemble_h_matrix(*_flat_rays(cfg), cfg)
    assert h.shape == (2, 3, 30)
    assert np.allclose(h, 1.0 + 0.0j, rtol=0, atol=0)


def test_assemble_h_zeroed_link():
    cfg = PropagationConfig(dims=(2, 2, 5))
    amps, delays = _flat_rays(cfg)
    amps[1, 0] = 0.0
    h = assemble_h_matrix(amps, delays, cfg)
    assert np.all(h[1, 0] == 0.0)
    assert np.all(h[0, :, :] == 1.0)
    assert np.all(h[1, 1] == 1.0)


def test_assemble_h_grid_validation():
    cfg = PropagationConfig(dims=(2, 3, 5))
    with pytest.raises(DomainError):
        assemble_h_matrix(*_flat_rays(PropagationConfig(dims=(2, 2, 5))), cfg)
    amps, delays = _flat_rays(cfg)
    with pytest.raises(DomainError):
        assemble_h_matrix(amps, delays[..., :0], cfg)  # ray counts disagree
    with pytest.raises(DomainError, match="path amplitude"):
        assemble_h_matrix(-amps, delays, cfg)
    with pytest.raises(DomainError, match="path delay"):
        assemble_h_matrix(amps, delays - 1e-9, cfg)


def test_assemble_h_batched_matches_per_packet_and_taps():
    cfg = PropagationConfig(dims=(2, 3, 7))
    rng = np.random.default_rng(5)
    amps = rng.uniform(0.0, 2.0, (4, 2, 3, 5))
    delays = rng.uniform(0.0, 3e-8, (4, 2, 3, 5))
    h = assemble_h_matrix(amps, delays, cfg)
    assert h.shape == (4, 2, 3, 7)
    freqs = subcarrier_frequencies(cfg)
    bins = np.linspace(0.0, 3e-8, 7)
    for i in range(4):
        single = assemble_h_matrix(amps[i], delays[i], cfg)
        assert np.abs(h[i] - single).max() <= 1e-9 * np.abs(single).max()
        for t in range(2):
            for r in range(3):
                mp = MultipathSet(paths=tuple((a, 0.0, d) for a, d in zip(amps[i, t, r], delays[i, t, r])))
                for s, f in enumerate(freqs):
                    taps = channel_impulse_element(mp, f, bins).sum()
                    assert abs(h[i, t, r, s] - taps) <= 1e-9 * abs(taps)


def test_assemble_h_blocks_sum_like_single_packets():
    # a trial longer than one packet block sums each packet's rays exactly as
    # a call on that packet alone, leading axes and all
    cfg = PropagationConfig(dims=(2, 3, 30))
    rng = np.random.default_rng(9)
    amps = rng.uniform(0.0, 2.0, (2, 300, 2, 3, 5))
    delays = rng.uniform(0.0, 3e-8, (2, 300, 2, 3, 5))
    h = assemble_h_matrix(amps, delays, cfg)
    assert h.shape == (2, 300, 2, 3, 30)
    for j in range(2):
        for i in (0, 255, 256, 299):
            assert np.array_equal(h[j, i], assemble_h_matrix(amps[j, i], delays[j, i], cfg))


def test_apply_channel_identity():
    h = np.ones((1, 1, 1), dtype=np.complex128)
    x = np.array([[3.0 + 4.0j]])
    y = apply_channel(h, x, awgn_sigma=0.0, seed=0)
    assert y.shape == (1, 1)
    assert y[0, 0] == 3.0 + 4.0j


def test_apply_channel_matches_triple_loop():
    rng = np.random.default_rng(123)
    for _ in range(50):
        h = rng.standard_normal((2, 3, 30)) + 1j * rng.standard_normal((2, 3, 30))
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        got = apply_channel(h, x, awgn_sigma=0.0, seed=0)
        want = np.zeros((3, 30), dtype=np.complex128)
        for r in range(3):
            for s in range(30):
                acc = 0.0 + 0.0j
                for t in range(2):
                    acc += h[t, r, s] * x[t, s]
                want[r, s] = acc
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e-12


def test_apply_channel_noise_determinism():
    h = np.ones((2, 3, 4), dtype=np.complex128)
    x = np.ones((2, 4), dtype=np.complex128)
    y1 = apply_channel(h, x, awgn_sigma=0.3, seed=99)
    y2 = apply_channel(h, x, awgn_sigma=0.3, seed=99)
    y3 = apply_channel(h, x, awgn_sigma=0.3, seed=100)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_apply_channel_shape_errors():
    with pytest.raises(DomainError):
        apply_channel(np.ones((2, 3, 4), dtype=complex), np.ones((3, 4), dtype=complex), 0.0, 0)
    with pytest.raises(DomainError):
        apply_channel(np.ones((2, 3), dtype=complex), np.ones((2, 3), dtype=complex), 0.0, 0)
    with pytest.raises(DomainError):
        apply_channel(np.ones((1, 1, 1), dtype=complex), np.ones((1, 1), dtype=complex), -0.1, 0)


def test_multipath_set_validation():
    with pytest.raises(DomainError):
        MultipathSet(paths=((-1.0, 0.0, 0.0),))
    with pytest.raises(DomainError):
        MultipathSet(paths=((1.0, 0.0, -1e-9),))
    with pytest.raises(DomainError):
        MultipathSet(paths=(), los_amplitude=-0.5)
