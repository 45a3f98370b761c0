"""Trial synthesis: class envelopes modulating a static multipath geometry.

Each link (transmit, receive antenna pair) carries a line-of-sight ray plus
four scattered rays with fixed base amplitudes, excess delays, and reflection
phases drawn once per dataset.  While an interaction happens, the active
profile's envelope scales the ray amplitudes and shifts their delays (a
carrier-phase drift), the scattered rays reacting more or less strongly
according to per-ray sensitivities and a left/right weighting across the
receive array.  Every packet's CSI is the assembled channel matrix for the
modulated ray set plus measurement noise.

A trial is one array pass: the envelopes are evaluated once per packet, and
the modulated rays, channel matrices, CSI noise, RSSI and AGC are arrays with
a leading packet axis.

All randomness comes from keyed counter streams (see rng.py), so a dataset is
a pure function of its seed and can be produced in any packet/trial order,
including in parallel, without changing a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SPEED_OF_LIGHT, PropagationConfig, assemble_h_matrix, path_loss_db
from .domain import LABELS, STEADY_STATE, Trial
from .errors import DomainError
from .profiles import SimMeta, SyntheticClassProfile, amp_envelope, phase_envelope
from .rng import CounterRng, derive_key

# excess-delay multiples and base strengths of the four scattered rays
_SCATTER_DELAY_RATIOS = (1.35, 1.70, 2.10, 2.60)
_SCATTER_BASE_AMPS = (0.45, 0.30, 0.20, 0.12)
# how strongly each ray reacts to body movement: the line of sight, then the
# four scattered rays
_RAY_SENSITIVITY = (1.0, 0.60, 0.40, 0.80, 0.50)

REF_LOSS_DB = 40.0  # path loss at the reference distance
RSSI_CALIBRATION_DB = 90.0  # maps received dB to the NIC's reported scale
AGC_SETPOINT_DB = 70.0
NOISE_FLOOR_DB = -92.0
_NOISE_WOBBLE_DB = 0.4
_RSSI_MAX = 99.0
# packet inter-arrival times spread uniformly over (1 +- JITTER) / packet_rate
JITTER = 0.08


@dataclass(frozen=True)
class Geometry:
    """Static ray sets for the whole antenna grid: ``amplitudes`` and
    ``delays`` are (n_tx, n_rx, rays) arrays, ray 0 the line of sight."""

    amplitudes: np.ndarray
    delays: np.ndarray
    config: PropagationConfig


@dataclass(frozen=True)
class EnvelopeScale:
    """Per-pair perturbation of a profile's envelope parameters."""

    depth: float = 1.0
    drift: float = 1.0
    width: float = 1.0
    center_shift: float = 0.0


def build_geometry(config: PropagationConfig, rng: CounterRng) -> Geometry:
    """Draw the static multipath geometry for one dataset.

    Line-of-sight rays have amplitude 1 and a delay with a small per-link
    offset (antenna spacing); the scattered rays get jittered amplitudes and
    delays plus a random reflection phase folded into the delay as a
    sub-cycle offset.  Links are drawn in (tx, rx) order, and each scattered
    ray draws its amplitude, delay and phase in that order.
    """
    n_tx, n_rx, _ = config.dims
    base_delay = config.tx_rx_distance / SPEED_OF_LIGHT
    omega_c = 2.0 * math.pi * config.carrier_freq
    amps = np.ones((n_tx, n_rx, 1 + len(_SCATTER_DELAY_RATIOS)))
    delays = np.empty_like(amps)
    for t in range(n_tx):
        for r in range(n_rx):
            los_delay = base_delay * (1.0 + 0.002 * (t * n_rx + r))
            delays[t, r, 0] = los_delay
            for k, ratio in enumerate(_SCATTER_DELAY_RATIOS, start=1):
                amp = _SCATTER_BASE_AMPS[k - 1] * (1.0 + 0.10 * rng.normal())
                delay = los_delay * ratio * (1.0 + 0.03 * rng.normal())
                phase = 2.0 * math.pi * float(rng.uniform(1)[0])
                amps[t, r, k] = max(0.01, amp)
                delays[t, r, k] = delay + phase / omega_c
    return Geometry(amplitudes=amps, delays=delays, config=config)


def _scaled_profile(profile: SyntheticClassProfile, scale: EnvelopeScale) -> SyntheticClassProfile:
    if scale == EnvelopeScale():
        return profile
    center = min(0.9, max(0.1, profile.center + scale.center_shift))
    return replace(profile, center=center, width=profile.width * scale.width)


def pair_envelope_scale(pair_variation: float, rng: CounterRng) -> EnvelopeScale:
    """Perturb envelope knobs for one simulated pair (body size, gesture pace)."""
    eta = rng.normal(4)
    return EnvelopeScale(
        depth=max(0.2, 1.0 + pair_variation * float(eta[0])),
        drift=max(0.2, 1.0 + pair_variation * float(eta[1])),
        width=max(0.3, 1.0 + 0.5 * pair_variation * float(eta[2])),
        center_shift=0.1 * pair_variation * float(eta[3]),
    )


def synth_trial(
    profile: SyntheticClassProfile,
    meta: SimMeta,
    geometry: Geometry,
    seed: int,
    *,
    pair_id: str,
    trial_id: str,
    envelope_scale: EnvelopeScale = EnvelopeScale(),
) -> Trial:
    """Generate one trial: steady dwell plus interaction segment.

    The packet rate and CSI noise come from ``meta``, the
    propagation config from ``geometry``.  Packet count comes from the
    class timing (``SyntheticClassProfile.timing``) and the packet rate; the
    steady dwell sits at the trial start unless the class ends in it.  With the
    same arguments the result is bit-identical.
    """
    config = geometry.config
    profile = _scaled_profile(profile, envelope_scale)

    steady_s, active_s, steady_first = profile.timing
    n_steady = int(round(steady_s * meta.packet_rate))
    n_active = int(round(active_s * meta.packet_rate))
    n_total = n_steady + n_active
    if n_total < 1:
        raise DomainError("class timing and packet_rate give an empty trial")

    rng = CounterRng(seed, "trial")
    jitter_rng = rng.spawn("jitter")
    csi_rng = rng.spawn("csi")
    floor_rng = rng.spawn("floor")

    # jittered inter-arrival times; mean spacing is 1/packet_rate
    spacing = (1.0 / meta.packet_rate) * (1.0 + JITTER * (2.0 * jitter_rng.uniform(n_total) - 1.0))
    timestamps = np.concatenate([[0.0], np.cumsum(spacing[:-1])])

    n_tx, n_rx, n_sc = config.dims
    omega_c = 2.0 * math.pi * config.carrier_freq
    loss = path_loss_db(config, REF_LOSS_DB)
    noise = NOISE_FLOOR_DB + _NOISE_WOBBLE_DB * floor_rng.normal(n_total)
    # asymmetry tilts the scatter response across the receive array
    centered = (2.0 * np.arange(n_rx) - (n_rx - 1)) / max(1, n_rx - 1)  # -1 .. +1
    weights = 1.0 + profile.asymmetry * centered

    # envelope values per packet (zero in the steady dwell); the envelopes
    # stay scalar calls, everything after them is array maths over packets
    active = slice(n_steady, n_total) if steady_first else slice(0, n_active)
    g_amp = np.zeros(n_total)
    g_phase = np.zeros(n_total)
    u = [(k + 0.5) / n_active for k in range(n_active)]
    g_amp[active] = [amp_envelope(profile, x) for x in u]
    g_phase[active] = [phase_envelope(profile, x) for x in u]
    labels = np.full(n_total, STEADY_STATE, dtype=np.int64)
    labels[active] = profile.label

    # modulated rays, shape (packets, tx, rx, rays); index 0 is the line of sight
    sens = np.array(_RAY_SENSITIVITY)
    g = g_amp[:, None, None, None]
    gains = np.empty((n_total,) + geometry.amplitudes.shape)
    gains[..., :1] = 1.0 + profile.depth_los * envelope_scale.depth * g
    gains[..., 1:] = 1.0 + profile.depth_scatter * envelope_scale.depth * g * sens[1:] * weights[:, None]
    amps = geometry.amplitudes * np.maximum(gains, 0.0)
    drift = profile.phase_drift * envelope_scale.drift * g_phase
    delays = geometry.delays + sens * (drift / omega_c)[:, None, None, None]

    csi = assemble_h_matrix(amps, delays, config)
    if meta.csi_noise > 0:
        csi = csi + meta.csi_noise * csi_rng.complex_normal_rows(n_total, (n_tx, n_rx, n_sc))

    # received power per link as channel.received_power computes it, except
    # that squares are x*x where it uses pow(): a last-bit difference that the
    # whole-dB rounding absorbs.  The mean over transmit antennas runs on a
    # contiguous last axis, so it adds in the order of a per-packet mean
    phases = -omega_c * delays
    m = np.sum(amps * np.cos(phases), axis=-1)
    q = np.sum(amps * np.sin(phases), axis=-1)
    power = np.ascontiguousarray((m * m + q * q).transpose(0, 2, 1)).mean(axis=-1)
    # math.log10 per value: numpy's log10 differs from it in the last bit
    gain_db = 10.0 * np.array([math.log10(p) for p in np.maximum(power, 1e-12).ravel().tolist()])
    level = np.rint(RSSI_CALIBRATION_DB - loss + gain_db.reshape(power.shape))
    rssi = np.minimum(_RSSI_MAX, np.maximum(0.0, level))
    agc = np.minimum(60.0, np.maximum(0.0, AGC_SETPOINT_DB - rssi.mean(axis=1)))

    return Trial(
        timestamps=timestamps,
        noise=noise,
        agc=agc,
        rssi=rssi,
        csi=csi,
        labels=labels,
        pair_id=pair_id,
        trial_id=trial_id,
    )


def trial_seed(seed: int, pair_index: int, label: int, trial_index: int) -> int:
    """Derived seed for one trial; documented so parallel workers agree."""
    return derive_key(seed, "trial-stream", pair_index, label, trial_index)


def dataset_trials(
    profiles: list[SyntheticClassProfile],
    pairs: int,
    trials_per_class: int,
    pair_variation: float = 0.0,
    seed: int = 0,
) -> list[tuple[str, EnvelopeScale, SyntheticClassProfile, str, int]]:
    """Enumerate a dataset's trials as (pair id, envelope scale, profile,
    trial id, trial seed), ordered by (pair, class code, trial index).
    Deterministic under seed.  The counts are at least 1 and
    ``pair_variation`` is non-negative: ``simulate`` checks its flags as it
    parses them."""
    out = []
    for p in range(pairs):
        pair_id = f"pair{p:02d}"
        scale = pair_envelope_scale(pair_variation, CounterRng(seed, "pair-envelope", p))
        for profile in sorted(profiles, key=lambda pr: pr.label):
            for k in range(trials_per_class):
                trial_id = f"{pair_id}-{LABELS[profile.label]}-{k:02d}"
                out.append((pair_id, scale, profile, trial_id, trial_seed(seed, p, profile.label, k)))
    return out
