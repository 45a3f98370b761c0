"""Trial synthesis: class envelopes modulating a static multipath geometry.

Each link (transmit, receive antenna pair) carries a line-of-sight ray plus
four scattered rays with fixed base amplitudes, excess delays, and reflection
phases drawn once per dataset.  While an interaction happens, the active
profile's envelope scales the ray amplitudes and shifts their delays (a
carrier-phase drift), the scattered rays reacting more or less strongly
according to per-ray sensitivities and a left/right weighting across the
receive array.  Every packet's CSI is the assembled channel matrix for the
modulated ray set plus measurement noise.

All randomness comes from keyed counter streams (see rng.py), so a dataset is
a pure function of its seed and can be produced in any packet/trial order,
including in parallel, without changing a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    MultipathSet,
    PropagationConfig,
    assemble_h_matrix,
    path_loss_db,
    received_power,
)
from .domain import LABELS, STEADY_STATE, Trial
from .errors import DomainError
from .profiles import SimMeta, SyntheticClassProfile, amp_envelope, phase_envelope
from .rng import CounterRng, derive_key

# excess-delay multiples and base strengths of the four scattered rays
_SCATTER_DELAY_RATIOS = (1.35, 1.70, 2.10, 2.60)
_SCATTER_BASE_AMPS = (0.45, 0.30, 0.20, 0.12)
# how strongly each scattered ray reacts to body movement
_SCATTER_SENSITIVITY = (0.60, 0.40, 0.80, 0.50)

REF_LOSS_DB = 40.0  # path loss at the reference distance
RSSI_CALIBRATION_DB = 90.0  # maps received dB to the NIC's reported scale
AGC_SETPOINT_DB = 70.0
NOISE_FLOOR_DB = -92.0
_NOISE_WOBBLE_DB = 0.4
_RSSI_MAX = 99.0


@dataclass(frozen=True)
class LinkGeometry:
    """Static ray set for one (tx, rx) link; index 0 is the line of sight."""

    amplitudes: np.ndarray
    delays: np.ndarray
    sensitivities: np.ndarray


@dataclass(frozen=True)
class Geometry:
    """Per-link ray sets for the whole antenna grid."""

    links: tuple[tuple[LinkGeometry, ...], ...]
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

    Line-of-sight delays get a small per-link offset (antenna spacing), the
    scattered rays get jittered amplitudes and delays plus a random
    reflection phase folded into the delay as a sub-cycle offset.
    """
    n_tx, n_rx, _ = config.dims
    base_delay = config.tx_rx_distance / SPEED_OF_LIGHT
    omega_c = 2.0 * math.pi * config.carrier_freq
    rows = []
    for t in range(n_tx):
        row = []
        for r in range(n_rx):
            los_delay = base_delay * (1.0 + 0.002 * (t * n_rx + r))
            amps = [1.0]
            delays = [los_delay]
            sens = [1.0]
            for k, ratio in enumerate(_SCATTER_DELAY_RATIOS):
                amp = _SCATTER_BASE_AMPS[k] * (1.0 + 0.10 * rng.normal())
                delay = los_delay * ratio * (1.0 + 0.03 * rng.normal())
                phase = 2.0 * math.pi * float(rng.uniform(1)[0])
                amps.append(max(0.01, amp))
                delays.append(delay + phase / omega_c)
                sens.append(_SCATTER_SENSITIVITY[k])
            row.append(
                LinkGeometry(
                    amplitudes=np.asarray(amps),
                    delays=np.asarray(delays),
                    sensitivities=np.asarray(sens),
                )
            )
        rows.append(tuple(row))
    return Geometry(links=tuple(rows), config=config)


def _rx_weight(profile: SyntheticClassProfile, r: int, n_rx: int) -> float:
    # asymmetry tilts the scatter response across the receive array
    if n_rx < 2:
        return 1.0
    centered = (2.0 * r - (n_rx - 1)) / (n_rx - 1)  # -1 .. +1 across antennas
    return 1.0 + profile.asymmetry * centered


def _modulated_link(
    link: LinkGeometry,
    profile: SyntheticClassProfile,
    scale: EnvelopeScale,
    g_amp: float,
    g_phase: float,
    rx_weight: float,
    omega_c: float,
) -> MultipathSet:
    """Ray set for one link at one instant of the interaction envelope."""
    gains = np.empty(link.amplitudes.shape)
    gains[0] = 1.0 + profile.depth_los * scale.depth * g_amp
    gains[1:] = 1.0 + profile.depth_scatter * scale.depth * g_amp * link.sensitivities[1:] * rx_weight
    amps = link.amplitudes * np.maximum(gains, 0.0)
    drift = profile.phase_drift * scale.drift * g_phase
    delays = link.delays + link.sensitivities * (drift / omega_c)
    phases = -omega_c * delays  # carrier phase of each ray, for the power helpers
    paths = tuple(
        (float(a), float(ph), float(d)) for a, ph, d in zip(amps, phases, delays)
    )
    return MultipathSet(paths=paths)


def _scaled_profile(profile: SyntheticClassProfile, scale: EnvelopeScale) -> SyntheticClassProfile:
    if scale == EnvelopeScale():
        return profile
    center = min(0.9, max(0.1, profile.center + scale.center_shift))
    return SyntheticClassProfile(
        label=profile.label,
        duration=profile.duration,
        steady_position=profile.steady_position,
        steady_duration=profile.steady_duration,
        shape=profile.shape,
        depth_los=profile.depth_los,
        depth_scatter=profile.depth_scatter,
        phase_drift=profile.phase_drift,
        center=center,
        width=profile.width * scale.width,
        cycles=profile.cycles,
        asymmetry=profile.asymmetry,
    )


def pair_envelope_scale(pair_variation: float, rng: CounterRng) -> EnvelopeScale:
    """Perturb envelope knobs for one simulated pair (body size, gesture pace)."""
    if pair_variation < 0:
        raise DomainError("pair_variation must be non-negative")
    eta = rng.normal(4)
    return EnvelopeScale(
        depth=max(0.2, 1.0 + pair_variation * float(eta[0])),
        drift=max(0.2, 1.0 + pair_variation * float(eta[1])),
        width=max(0.3, 1.0 + 0.5 * pair_variation * float(eta[2])),
        center_shift=0.1 * pair_variation * float(eta[3]),
    )


def synth_trial(
    profile: SyntheticClassProfile,
    config: PropagationConfig | None = None,
    packet_rate: float = 260.0,
    jitter: float = 0.08,
    seed: int = 0,
    *,
    csi_noise: float = 0.01,
    pair_id: str = "pair00",
    trial_id: str | None = None,
    geometry: Geometry | None = None,
    envelope_scale: EnvelopeScale | None = None,
) -> Trial:
    """Generate one trial: steady dwell plus interaction segment.

    Packet count comes from the profile durations and packet_rate; the
    steady dwell sits at the trial start except for profiles that declare it
    at the end.  With the same arguments the result is bit-identical.
    """
    if packet_rate <= 0:
        raise DomainError("packet_rate must be positive")
    if not 0.0 <= jitter < 1.0:
        raise DomainError("jitter must lie in [0, 1)")
    if csi_noise < 0:
        raise DomainError("csi_noise must be non-negative")
    config = config or PropagationConfig()
    if geometry is None:
        geometry = build_geometry(config, CounterRng(seed, "geometry"))
    elif geometry.config.dims != config.dims:
        raise DomainError("geometry dims do not match the propagation config")
    scale = envelope_scale or EnvelopeScale()
    profile = _scaled_profile(profile, scale)

    n_steady = int(round(profile.steady_duration * packet_rate))
    n_active = int(round(profile.duration * packet_rate))
    n_total = n_steady + n_active
    if n_total < 1:
        raise DomainError("profile durations and packet_rate give an empty trial")
    steady_first = profile.steady_position != "end"

    rng = CounterRng(seed, "trial")
    jitter_rng = rng.spawn("jitter")
    csi_rng = rng.spawn("csi")
    floor_rng = rng.spawn("floor")

    # jittered inter-arrival times; mean spacing is 1/packet_rate
    spacing = (1.0 / packet_rate) * (1.0 + jitter * (2.0 * jitter_rng.uniform(n_total) - 1.0))
    timestamps = np.concatenate([[0.0], np.cumsum(spacing[:-1])])

    n_tx, n_rx, n_sc = config.dims
    omega_c = 2.0 * math.pi * config.carrier_freq
    loss = path_loss_db(config, REF_LOSS_DB)
    noise = NOISE_FLOOR_DB + _NOISE_WOBBLE_DB * floor_rng.normal(n_total)
    weights = [_rx_weight(profile, r, n_rx) for r in range(n_rx)]

    agc = np.empty(n_total)
    rssi = np.empty((n_total, n_rx))
    csi = np.empty((n_total, n_tx, n_rx, n_sc), dtype=np.complex128)
    labels = np.full(n_total, STEADY_STATE, dtype=np.int64)
    for i in range(n_total):
        active_index = i - n_steady if steady_first else i
        in_active = 0 <= active_index < n_active
        if in_active:
            u = (active_index + 0.5) / n_active
            g_amp = amp_envelope(profile, u)
            g_phase = phase_envelope(profile, u)
            labels[i] = profile.label
        else:
            g_amp = 0.0
            g_phase = 0.0
        grid = [
            [
                _modulated_link(
                    geometry.links[t][r], profile, scale, g_amp, g_phase, weights[r], omega_c
                )
                for r in range(n_rx)
            ]
            for t in range(n_tx)
        ]
        h = assemble_h_matrix(grid, config)
        if csi_noise > 0:
            h = h + csi_noise * csi_rng.complex_normal((n_tx, n_rx, n_sc))
        csi[i] = h
        for r in range(n_rx):
            power = np.mean([received_power(grid[t][r]) for t in range(n_tx)])
            gain_db = 10.0 * math.log10(max(power, 1e-12))
            rssi[i, r] = min(_RSSI_MAX, max(0.0, round(RSSI_CALIBRATION_DB - loss + gain_db)))
        agc[i] = min(60.0, max(0.0, AGC_SETPOINT_DB - float(np.mean(rssi[i]))))

    trial_id = trial_id or f"{pair_id}-{LABELS[profile.label]}-00"
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
) -> list[tuple[str, EnvelopeScale, SyntheticClassProfile, int, str, int]]:
    """Enumerate a dataset's trials as (pair id, envelope scale, profile,
    trial index, trial id, trial seed), ordered by (pair, class code, trial
    index).  Deterministic under seed."""
    if pairs < 1 or trials_per_class < 1:
        raise DomainError("pairs and trials_per_class must be at least 1")
    if pair_variation < 0:
        raise DomainError("pair_variation must be non-negative")
    out = []
    for p in range(pairs):
        pair_id = f"pair{p:02d}"
        scale = pair_envelope_scale(pair_variation, CounterRng(seed, "pair-envelope", p))
        for profile in sorted(profiles, key=lambda pr: pr.label):
            for k in range(trials_per_class):
                trial_id = f"{pair_id}-{LABELS[profile.label]}-{k:02d}"
                out.append((pair_id, scale, profile, k, trial_id, trial_seed(seed, p, profile.label, k)))
    return out


def synth_dataset(
    profiles: list[SyntheticClassProfile],
    pairs: int,
    trials_per_class: int,
    pair_variation: float = 0.0,
    seed: int = 0,
    *,
    config: PropagationConfig | None = None,
    meta: SimMeta | None = None,
) -> list[Trial]:
    """Generate pairs x classes x trials_per_class trials in the order of
    :func:`dataset_trials`.  Deterministic under seed."""
    plan = dataset_trials(profiles, pairs, trials_per_class, pair_variation, seed)
    config = config or PropagationConfig()
    meta = meta or SimMeta()
    geometry = build_geometry(config, CounterRng(seed, "geometry"))
    return [
        synth_trial(
            profile,
            config,
            meta.packet_rate,
            meta.jitter,
            seed_value,
            csi_noise=meta.csi_noise,
            pair_id=pair_id,
            trial_id=trial_id,
            geometry=geometry,
            envelope_scale=scale,
        )
        for pair_id, scale, profile, _, trial_id, seed_value in plan
    ]
