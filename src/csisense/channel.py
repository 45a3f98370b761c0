"""Narrowband indoor propagation and MIMO-OFDM channel assembly.

The model is classic indoor multipath: a dominant line-of-sight ray plus a
small set of scattered rays per transmit/receive antenna link.  Time-domain
behaviour (received signal, power, Rician K factor, power density) treats each
ray as a phasor with amplitude, phase and delay; frequency-domain behaviour
(per-subcarrier channel matrix) evaluates the same rays at each subcarrier's
absolute frequency.  :class:`MultipathSet` holds one link's rays for the
time-domain helpers; :func:`assemble_h_matrix` takes plain ray arrays with
any leading axes, so a whole trial's packets assemble in one array pass.
All angles are radians, delays seconds, frequencies Hz, powers linear unless
a name says dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import CounterRng

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class PropagationConfig:
    """Radio and geometry constants for one deployment.

    carrier_freq        carrier frequency, Hz
    tx_rx_distance      transmitter-receiver separation, m
    ref_distance        path-loss reference distance, m
    path_loss_exponent  log-distance decay exponent (2 = free space)
    subcarrier_spacing  OFDM subcarrier spacing, Hz
    dims                (n_tx, n_rx, n_subcarriers)
    """

    carrier_freq: float = 2.4e9
    tx_rx_distance: float = 4.3
    ref_distance: float = 1.0
    path_loss_exponent: float = 2.0
    subcarrier_spacing: float = 312_500.0
    dims: tuple[int, int, int] = (2, 3, 30)

    def __post_init__(self):
        if self.carrier_freq <= 0 or self.subcarrier_spacing <= 0:
            raise DomainError("frequencies must be positive")
        if self.tx_rx_distance <= 0 or self.ref_distance <= 0:
            raise DomainError("distances must be positive")
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise DomainError(f"dims {self.dims} must be three counts, each at least 1")


@dataclass(frozen=True)
class MultipathSet:
    """Rays arriving over one link: (amplitude, phase, delay) triples plus
    the line-of-sight amplitude used by the Rician statistics."""

    paths: tuple[tuple[float, float, float], ...]
    los_amplitude: float = 0.0

    def __post_init__(self):
        for a, _phi, tau in self.paths:
            if a < 0:
                raise DomainError(f"path amplitude {a} must be non-negative")
            if tau < 0:
                raise DomainError(f"path delay {tau} must be non-negative")
        if self.los_amplitude < 0:
            raise DomainError("los_amplitude must be non-negative")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.paths:
            z = np.zeros(0)
            return z, z, z
        arr = np.asarray(self.paths, dtype=np.float64).reshape(len(self.paths), 3)
        return arr[:, 0], arr[:, 1], arr[:, 2]


def wavelength(freq: float) -> float:
    """Free-space wavelength in metres; 2.4 GHz gives 0.125 m."""
    if freq <= 0:
        raise DomainError(f"frequency must be positive, got {freq}")
    return SPEED_OF_LIGHT / freq


def path_loss_db(config: PropagationConfig, ref_loss_db: float, distance: float | None = None) -> float:
    """Log-distance path loss: ref_loss_db + 10 n log10(d / d_ref).

    With exponent 2 the loss grows by exactly 20 dB per distance decade.
    """
    d = config.tx_rx_distance if distance is None else distance
    if d <= 0:
        raise DomainError(f"distance must be positive, got {d}")
    return ref_loss_db + 10.0 * config.path_loss_exponent * math.log10(d / config.ref_distance)


def _inphase_quadrature(mp: MultipathSet) -> tuple[float, float]:
    amp, phase, _ = mp.arrays()
    return float(np.sum(amp * np.cos(phase))), float(np.sum(amp * np.sin(phase)))


def rician_received_signal(mp: MultipathSet, omega: float, t: np.ndarray) -> np.ndarray:
    """Narrowband received waveform (M + A_los) cos(wt) - N sin(wt),

    where M and N are the in-phase and quadrature sums of the scattered rays.
    """
    m, n = _inphase_quadrature(mp)
    t = np.asarray(t, dtype=np.float64)
    return (m + mp.los_amplitude) * np.cos(omega * t) - n * np.sin(omega * t)


def received_power(mp: MultipathSet) -> float:
    """Instantaneous envelope power (M + A_los)^2 + N^2 for the ray set."""
    m, n = _inphase_quadrature(mp)
    return (m + mp.los_amplitude) ** 2 + n**2


def average_power(mp: MultipathSet, sigma_sq: float) -> float:
    """Mean envelope power 2 sigma^2 + A_los^2, sigma^2 the per-component
    scatter variance."""
    if sigma_sq < 0:
        raise DomainError("sigma_sq must be non-negative")
    return 2.0 * sigma_sq + mp.los_amplitude**2


def rician_k(mp: MultipathSet, sigma_sq: float) -> float:
    """K factor A_los^2 / (2 sigma^2): specular-to-scattered power ratio."""
    if sigma_sq <= 0:
        raise DomainError("sigma_sq must be positive for a finite K factor")
    return mp.los_amplitude**2 / (2.0 * sigma_sq)


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Power series sum_k ((x/2)^(2k) / k!^2) for |x| < 20, asymptotic expansion
    e^x / sqrt(2 pi x) * sum_k a_k / x^k beyond; both branches stay under 1e-8
    relative error (the asymptotic series is truncated well before its terms
    turn around at |x| = 20).  Even in x; accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(arr)
    out = np.empty_like(ax)

    small = ax < 20.0
    if np.any(small):
        q = (ax[small] / 2.0) ** 2
        term = np.ones_like(q)
        total = np.ones_like(q)
        for k in range(1, 64):  # terms decay past k ~ x/2; 64 is converged for |x| < 20
            term = term * q / (k * k)
            total += term
        out[small] = total

    if np.any(~small):
        xl = ax[~small]
        term = np.ones_like(xl)
        total = np.ones_like(xl)
        for k in range(1, 30):  # still strictly decreasing at k=30 for x >= 20
            term = term * (2 * k - 1) ** 2 / (8.0 * k * xl)
            total += term
        out[~small] = np.exp(xl) / np.sqrt(2.0 * np.pi * xl) * total

    if arr.ndim == 0:
        return float(out)
    return out


def rician_power_pdf(p, k_factor: float, p_bar: float):
    """Density of instantaneous power for a Rician channel with mean power
    p_bar and K factor k_factor:

        f(p) = ((K+1)/p_bar) exp(-K - (K+1) p / p_bar) I0(2 sqrt(K (K+1) p / p_bar))

    Zero for p < 0; K = 0 reduces to the exponential density.  Integrates to 1.
    """
    if k_factor < 0:
        raise DomainError("k_factor must be non-negative")
    if p_bar <= 0:
        raise DomainError("p_bar must be positive")
    p = np.asarray(p, dtype=np.float64)
    scale = (k_factor + 1.0) / p_bar
    with np.errstate(invalid="ignore"):
        density = scale * np.exp(-k_factor - scale * np.clip(p, 0.0, None)) * bessel_i0(
            2.0 * np.sqrt(k_factor * (k_factor + 1.0) * np.clip(p, 0.0, None) / p_bar)
        )
    density = np.where(p < 0, 0.0, density)
    if density.ndim == 0:
        return float(density)
    return density


def subcarrier_frequencies(config: PropagationConfig) -> np.ndarray:
    """Absolute frequency of each reported subcarrier, centred on the carrier:
    f_s = carrier + (s - (n_sc + 1)/2) * spacing for 1-based s."""
    n_sc = config.dims[2]
    s = np.arange(1, n_sc + 1, dtype=np.float64)
    return config.carrier_freq + (s - (n_sc + 1) / 2.0) * config.subcarrier_spacing


def channel_impulse_element(mp: MultipathSet, frequency: float, delay_bins: np.ndarray) -> np.ndarray:
    """Complex taps on a delay grid at one probe frequency.

    Each ray contributes amplitude * exp(-j 2 pi f delay) at the nearest bin
    (ties resolve to the lower-index bin); rays sharing a bin add coherently.
    """
    delay_bins = np.asarray(delay_bins, dtype=np.float64)
    if delay_bins.size == 0:
        raise DomainError("delay_bins must not be empty")
    taps = np.zeros(delay_bins.shape, dtype=np.complex128)
    amp, _phase, tau = mp.arrays()
    omega = 2.0 * np.pi * frequency
    for a, d in zip(amp, tau):
        idx = int(np.argmin(np.abs(delay_bins - d)))
        taps[idx] += a * np.exp(-1j * omega * d)
    return taps


# packets per block of assemble_h_matrix's ray sum
_PACKET_BLOCK = 256


def assemble_h_matrix(amplitudes: np.ndarray, delays: np.ndarray, config: PropagationConfig) -> np.ndarray:
    """Channel matrices H from ray arrays of shape (..., n_tx, n_rx, rays).

    Element (..., t, r, s) is link (t, r)'s frequency response at subcarrier
    s, the sum over rays of a_k exp(-j 2 pi f_s tau_k), which equals the
    bin-summed taps of :func:`channel_impulse_element`.  Leading axes (one
    per packet, say) pass through, so a whole trial is one call.
    """
    n_tx, n_rx, _ = config.dims
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    if amplitudes.shape != delays.shape or amplitudes.shape[-3:-1] != (n_tx, n_rx):
        raise DomainError(
            f"ray amplitudes {amplitudes.shape} and delays {delays.shape} must share "
            f"a shape (..., {n_tx}, {n_rx}, rays)"
        )
    if (amplitudes < 0).any():
        raise DomainError(f"path amplitude {amplitudes.min()} must be non-negative")
    if (delays < 0).any():
        raise DomainError(f"path delay {delays.min()} must be non-negative")
    freqs = subcarrier_frequencies(config)
    lead = amplitudes.shape[:-3]
    amps = amplitudes.reshape(-1, n_tx, n_rx, amplitudes.shape[-1])
    taus = delays.reshape(amps.shape)
    out = np.empty((len(amps), n_tx, n_rx, len(freqs)), dtype=np.complex128)
    # a fixed block of packets at a time bounds the (..., rays) intermediate;
    # rays stay the innermost axis, so every link sums them in one order
    for start in range(0, len(amps), _PACKET_BLOCK):
        block = slice(start, start + _PACKET_BLOCK)
        h = -2j * np.pi * (taus[block, ..., None, :] * freqs[:, None])
        np.exp(h, out=h)
        h *= amps[block, ..., None, :]
        h.sum(axis=-1, out=out[block])
    return out.reshape(*lead, n_tx, n_rx, len(freqs))


def apply_channel(h: np.ndarray, x: np.ndarray, awgn_sigma: float, seed: int) -> np.ndarray:
    """Receive y[r, s] = sum_t h[t, r, s] x[t, s] + noise.

    Noise is circularly-symmetric complex Gaussian with per-component standard
    deviation awgn_sigma, drawn from the seeded counter generator so equal
    seeds give identical noise.
    """
    h = np.asarray(h, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if h.ndim != 3:
        raise DomainError(f"h must have shape (n_tx, n_rx, n_sc), got {h.shape}")
    n_tx, n_rx, n_sc = h.shape
    if x.shape != (n_tx, n_sc):
        raise DomainError(f"x shape {x.shape} does not match h shape {h.shape}")
    if awgn_sigma < 0:
        raise DomainError("awgn_sigma must be non-negative")
    y = np.einsum("trs,ts->rs", h, x)
    if awgn_sigma > 0:
        y = y + awgn_sigma * CounterRng(seed, "awgn").complex_normal((n_rx, n_sc))
    return y
