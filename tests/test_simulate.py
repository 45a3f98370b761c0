"""Profile parsing, envelope shapes, and the trial generator."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from csisense import cli, simulate
from csisense.channel import PropagationConfig
from csisense.dataio import load_manifest, write_trial
from csisense.domain import LABELS, STEADY_STATE, label_to_index, validate_trial
from csisense.errors import DomainError
from csisense.profiles import (
    CLASS_TIMING,
    ENDS_IN_DWELL,
    SimMeta,
    SyntheticClassProfile,
    amp_envelope,
    load_profiles,
    phase_envelope,
)
from csisense.rng import CounterRng
from csisense.simulate import (
    _RAY_SENSITIVITY,
    JITTER,
    EnvelopeScale,
    build_geometry,
    dataset_trials,
    pair_envelope_scale,
    synth_trial,
    trial_seed,
)

PUSHING = SyntheticClassProfile(
    label=label_to_index("pushing"),
    shape="bump",
    depth_los=0.65,
    depth_scatter=0.55,
    phase_drift=9.0,
)

APPROACHING = SyntheticClassProfile(
    label=label_to_index("approaching"),
    shape="ramp",
    depth_los=0.9,
    depth_scatter=0.35,
    phase_drift=-28.0,
)

PUNCHING = SyntheticClassProfile(
    label=label_to_index("punching-left"),
    shape="double_bump",
    depth_los=0.4,
    depth_scatter=0.65,
    phase_drift=6.0,
    width=0.2,
    asymmetry=-0.6,
)

HANDSHAKING = SyntheticClassProfile(
    label=label_to_index("handshaking"),
    shape="oscillation",
    depth_los=0.35,
    depth_scatter=0.45,
    phase_drift=4.0,
    cycles=7.0,
    asymmetry=0.4,
)

HUGGING = SyntheticClassProfile(
    label=label_to_index("hugging"),
    shape="bump",
    depth_los=-0.75,
    depth_scatter=0.6,
    phase_drift=7.0,
    width=0.28,
)


# ---------------------------------------------------------------- profiles

def test_shipped_profile_file():
    profiles, meta = load_profiles("configs/profiles.ini")
    assert len(profiles) == len(LABELS)
    assert [p.label for p in profiles] == list(range(len(LABELS)))
    assert (meta.packet_rate, meta.csi_noise) == (260.0, 0.01)
    for p in profiles:
        assert p.timing[:2] == CLASS_TIMING[LABELS[p.label]]
    assert [LABELS[p.label] for p in profiles if not p.timing[2]] == ["approaching"]


def test_shipped_three_class_file():
    profiles, meta = load_profiles("configs/profiles-3class.ini")
    assert [LABELS[p.label] for p in profiles] == ["steady-state", "approaching", "pushing"]
    assert meta.packet_rate == 26.0


def test_load_profiles_missing_file(tmp_path):
    with pytest.raises(DomainError, match="config file not found: .*nope\\.ini"):
        load_profiles(tmp_path / "nope.ini")


def test_load_profiles_schema_errors(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text("[pushing]\nshape = bump\n")
    with pytest.raises(DomainError, match="p\\.ini: no \\[meta\\] section"):
        load_profiles(path)

    pushing = "[pushing]\nshape = bump\n"
    path.write_text("[meta]\npacket_rte = 100\n" + pushing)
    with pytest.raises(DomainError, match="p\\.ini: \\[meta\\] has unknown key 'packet_rte'"):
        load_profiles(path)

    path.write_text("[meta]\nversion = 2\n" + pushing)
    with pytest.raises(DomainError, match="p\\.ini: \\[meta\\] version 2 is not supported"):
        load_profiles(path)

    path.write_text("[meta]\n[moonwalking]\nshape = bump\n")
    with pytest.raises(DomainError, match="p\\.ini: \\[moonwalking\\] is not a known interaction label"):
        load_profiles(path)

    path.write_text("[meta]\n" + pushing + "glow = 3\n")
    with pytest.raises(DomainError, match="p\\.ini: \\[pushing\\] has unknown key 'glow'"):
        load_profiles(path)

    path.write_text("[meta]\n[pushing]\nlabel = 3\nshape = bump\n")
    with pytest.raises(DomainError, match="p\\.ini: \\[pushing\\] has unknown key 'label'"):
        load_profiles(path)

    path.write_text("[meta]\n" + pushing + "width = narrow\n")
    with pytest.raises(DomainError, match="p\\.ini: \\[pushing\\] width = 'narrow' is not a valid float"):
        load_profiles(path)

    path.write_text("[meta]\n[pushing]\nwidth = 0.2\n")
    with pytest.raises(DomainError, match="p\\.ini: \\[pushing\\] is missing required key 'shape'"):
        load_profiles(path)

    path.write_text("[meta]\n")
    with pytest.raises(DomainError, match="defines no classes"):
        load_profiles(path)

    # every section, class sections included, may state version 1
    path.write_text("[meta]\nversion = 1\n" + pushing + "version = 1\n")
    profiles, _ = load_profiles(path)
    assert [LABELS[p.label] for p in profiles] == ["pushing"]


def test_profile_timing_table_is_enforced():
    # the timing is the table's: a profile takes no timing of its own
    for key, value in (("duration", 5.0), ("steady_duration", 2.0), ("steady_position", "end")):
        with pytest.raises(TypeError, match=key):
            SyntheticClassProfile(label=label_to_index("pushing"), shape="bump", **{key: value})
    for code, name in enumerate(LABELS):
        profile = SyntheticClassProfile(label=code, shape="flat")
        assert profile.timing == (*CLASS_TIMING[name], name not in ENDS_IN_DWELL)
    with pytest.raises(DomainError, match="shape"):
        SyntheticClassProfile(label=label_to_index("pushing"), shape="spiral")


@pytest.mark.parametrize(
    "key, value", [("duration", "4.0"), ("steady_duration", "2.0"), ("steady_position", "begin")]
)
def test_simulate_refuses_a_profile_file_with_a_timing_key(tmp_path, capsys, key, value):
    text = Path("configs/profiles-3class.ini").read_text()
    profiles = tmp_path / "p.ini"
    profiles.write_text(text.replace("[pushing]\n", f"[pushing]\n{key} = {value}\n"))
    out = tmp_path / "dataset"
    assert cli.main(["simulate", "--profiles", str(profiles), "--out", str(out)]) == 2
    assert f"[pushing] has unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_sim_meta_validation():
    with pytest.raises(DomainError):
        SimMeta(packet_rate=0.0)
    with pytest.raises(DomainError):
        SimMeta(csi_noise=-0.1)


# --------------------------------------------------------------- envelopes

def test_envelope_shapes():
    assert amp_envelope(PUSHING, 0.5) == pytest.approx(1.0)  # bump peak at center
    assert amp_envelope(PUSHING, 0.35) == amp_envelope(PUSHING, 0.65)
    assert amp_envelope(APPROACHING, 0.25) == 0.25  # ramp is linear
    flat = SyntheticClassProfile(
        label=label_to_index("steady-state"),
        shape="flat",
    )
    assert amp_envelope(flat, 0.7) == 0.0

    osc = SyntheticClassProfile(
        label=label_to_index("handshaking"),
        shape="oscillation",
        cycles=7.0,
    )
    assert amp_envelope(osc, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert amp_envelope(osc, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert abs(amp_envelope(osc, 0.39)) > 0.1

    dbl = SyntheticClassProfile(
        label=label_to_index("punching-left"),
        shape="double_bump",
        center=0.5,
        width=0.2,
    )
    assert amp_envelope(dbl, 0.3) == pytest.approx(amp_envelope(dbl, 0.7))
    assert amp_envelope(dbl, 0.3) > amp_envelope(dbl, 0.5)


def test_phase_envelope_is_monotone_only_for_ramp():
    assert phase_envelope(APPROACHING, 0.8) == 0.8
    assert phase_envelope(PUSHING, 0.5) == amp_envelope(PUSHING, 0.5)


# ---------------------------------------------------------------- geometry

def test_build_geometry_layout_and_determinism():
    config = PropagationConfig()
    a = build_geometry(config, CounterRng(5, "geometry"))
    b = build_geometry(config, CounterRng(5, "geometry"))
    c = build_geometry(config, CounterRng(6, "geometry"))
    assert a.amplitudes.shape == a.delays.shape == (2, 3, 5)
    assert (a.amplitudes[..., 0] == 1.0).all() and _RAY_SENSITIVITY[0] == 1.0
    assert (a.delays[..., 1:] > a.delays[..., :1]).all()
    assert (a.amplitudes >= 0.01).all()
    assert np.array_equal(a.amplitudes, b.amplitudes) and np.array_equal(a.delays, b.delays)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert not np.array_equal(a.delays, c.delays)


def test_pair_envelope_scale():
    rng = CounterRng(0, "pair-envelope", 0)
    assert pair_envelope_scale(0.0, rng) == EnvelopeScale()
    big = pair_envelope_scale(5.0, CounterRng(1, "pair-envelope", 3))
    assert big.depth >= 0.2 and big.drift >= 0.2 and big.width >= 0.3


# ------------------------------------------------------------------ trials

def _trial(profile, seed=0, *, config=PropagationConfig(), geometry_seed=None, pair_id="pair00",
           envelope_scale=EnvelopeScale(), **meta):
    # one trial of index 0 for pair_id, its SimMeta built from meta, over a
    # geometry drawn from geometry_seed (by default the trial's own seed)
    geometry = build_geometry(config, CounterRng(seed if geometry_seed is None else geometry_seed, "geometry"))
    return synth_trial(
        profile,
        SimMeta(**meta),
        geometry,
        seed,
        pair_id=pair_id,
        trial_id=f"{pair_id}-{LABELS[profile.label]}-00",
        envelope_scale=envelope_scale,
    )


def test_synth_trial_segments_and_labels():
    trial = _trial(PUSHING, packet_rate=5.0, seed=1)
    assert len(trial.timestamps) == 10 + 20
    labels = trial.labels.tolist()
    assert labels[:10] == [STEADY_STATE] * 10
    assert labels[10:] == [PUSHING.label] * 20
    validate_trial(trial)  # raises on any violation


def test_synth_trial_approaching_ends_steady():
    trial = _trial(APPROACHING, packet_rate=4.0, seed=1)
    assert len(trial.timestamps) == 14 + 8
    labels = trial.labels.tolist()
    assert labels[:14] == [APPROACHING.label] * 14
    assert labels[14:] == [STEADY_STATE] * 8


def test_synth_trial_is_byte_deterministic(tmp_path):
    a = _trial(PUSHING, packet_rate=10.0, seed=42, pair_id="pair03")
    b = _trial(PUSHING, packet_rate=10.0, seed=42, pair_id="pair03")
    pa, pb = tmp_path / "a.trial", tmp_path / "b.trial"
    write_trial(a, pa)
    write_trial(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = _trial(PUSHING, packet_rate=10.0, seed=43, pair_id="pair03")
    write_trial(c, pb)
    assert pa.read_bytes() != pb.read_bytes()


# SHA-256 of write_trial(_trial(...)) for one trial per envelope shape
# and steady position, a scaled envelope with a shared geometry, an envelope
# deep enough to clamp the line-of-sight gain to zero, a noise-free trial
# and an odd tx*rx*sc; a change to the trial bytes must be deliberate
FROZEN_TRIALS = {
    "bump-steady-first": (
        dict(profile=PUSHING, seed=11),
        "e7c608b3bb2ae828199f036f75bf242a9fbaa6d919b5e34c0ca37d87d9acce3e",
    ),
    "ramp-steady-end": (
        dict(profile=APPROACHING, seed=12),
        "96bc13bbb8f069c22a0e6faf6be66e8bfb83f9ba40578d6329e88bc96a73d2f3",
    ),
    "double-bump": (
        dict(profile=PUNCHING, seed=13),
        "ebae46b05f02650f27b8e56f398920b1cec9ff5ee9eb1e3e8e7dc5e186037618",
    ),
    "oscillation": (
        dict(profile=HANDSHAKING, seed=14),
        "7414ca098c8329e185cc0bed234ea4975b2ff5a2805149b9ab9ab3c10ff34649",
    ),
    "envelope-scale": (
        dict(
            profile=PUSHING,
            seed=15,
            envelope_scale=EnvelopeScale(depth=1.3, drift=0.7, width=1.2, center_shift=0.05),
            geometry_seed=99,
            pair_id="pair04",
        ),
        "30c0e9650c39f7414a2ad5963eec1bb794c412f44a406c6e67df10f34da67baa",
    ),
    "clamped-gain": (
        dict(profile=HUGGING, seed=16, envelope_scale=EnvelopeScale(depth=2.0)),
        "660598dc570cf7ae50b783acd79339fe0ab23adeeb72a718802f3e3aa41f1ad2",
    ),
    "no-noise": (
        dict(profile=APPROACHING, seed=17, csi_noise=0.0),
        "990866a21d40bb47ea4225ce52b67c3007fc985b1ff55411cd0f2a78b84394ae",
    ),
    "odd-dims": (
        dict(profile=HANDSHAKING, seed=18, dims=(1, 3, 5)),
        "a7f51d0ecd37eb80fdce00a9aec07c454ae7490a87d31af09c77abbcb47a5e71",
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_TRIALS))
def test_synth_trial_bytes_are_frozen(case, tmp_path):
    kwargs, digest = FROZEN_TRIALS[case]
    kwargs = dict(kwargs)
    config = PropagationConfig(dims=kwargs.pop("dims", (2, 3, 30)))
    trial = _trial(config=config, packet_rate=20.0, **kwargs)
    path = tmp_path / "t.trial"
    write_trial(trial, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_synth_trial_timestamp_jitter_bounds(monkeypatch):
    trial = _trial(PUSHING, packet_rate=10.0, seed=7)
    t = trial.timestamps
    diffs = np.diff(t)
    assert t[0] == 0.0
    assert (diffs >= 0.1 * (1 - JITTER) - 1e-12).all() and (diffs <= 0.1 * (1 + JITTER) + 1e-12).all()
    assert diffs.std() > 0.0
    monkeypatch.setattr(simulate, "JITTER", 0.0)
    exact = _trial(PUSHING, packet_rate=10.0, seed=7)
    te = exact.timestamps
    assert np.allclose(np.diff(te), 0.1, atol=1e-12)


def test_synth_trial_receiver_side_values():
    trial = _trial(PUSHING, packet_rate=5.0, seed=3)
    assert (trial.rssi == np.round(trial.rssi)).all()
    assert (trial.rssi >= 0).all() and (trial.rssi <= 99).all()
    assert ((trial.agc >= 0.0) & (trial.agc <= 60.0)).all()
    assert ((trial.noise > -94.0) & (trial.noise < -90.0)).all()


def test_synth_trial_steady_packets_are_identical_without_noise():
    trial = _trial(PUSHING, packet_rate=5.0, seed=2, csi_noise=0.0)
    steady = trial.csi[:10]
    for h in steady[1:]:
        assert np.array_equal(h, steady[0])
    mid_active = trial.csi[20]  # envelope peak differs from the dwell
    assert not np.array_equal(mid_active, steady[0])


@pytest.mark.parametrize("rate", [7.0, 26.0])
def test_every_class_trial_follows_the_timing_table(rate):
    # round(steady * rate) dwell packets and round(active * rate) interaction
    # packets; the dwell opens every trial except approaching's, which ends in it
    for code, name in enumerate(LABELS):
        trial = _trial(SyntheticClassProfile(label=code, shape="flat"), packet_rate=rate)
        steady, active = CLASS_TIMING[name]
        n_steady, n_active = round(steady * rate), round(active * rate)
        assert len(trial.labels) == n_steady + n_active
        dwell = trial.labels[-n_steady:] if name == "approaching" else trial.labels[:n_steady]
        segment = trial.labels[:n_active] if name == "approaching" else trial.labels[n_steady:]
        assert np.all(dwell == STEADY_STATE)
        assert np.all(segment == code)


def test_synth_trial_validation():
    # SimMeta checks the packet rate and noise (test_sim_meta_validation);
    # a rate positive but too low for one packet still gives no trial
    with pytest.raises(DomainError, match="empty trial"):
        _trial(PUSHING, packet_rate=0.01)


def test_synth_trial_rejects_a_drift_that_makes_a_delay_negative():
    # the line-of-sight delay is ~14 ns; a drift of -1e4 carrier radians
    # pulls it ~660 ns earlier at the envelope peak
    extreme = SyntheticClassProfile(
        label=PUSHING.label,
        shape=PUSHING.shape,
        phase_drift=-1e4,
    )
    with pytest.raises(DomainError, match="path delay .* must be non-negative"):
        _trial(extreme, packet_rate=5.0, seed=1)
    _trial(PUSHING, packet_rate=5.0, seed=1)


STEADY = SyntheticClassProfile(
    label=STEADY_STATE,
    shape="flat",
)


@pytest.mark.parametrize(
    "profile, distance, rssi, agc",
    [(PUSHING, 1e4, 0.0, 60.0), (STEADY, 1e-3, 99.0, 0.0)],
    ids=["far-floor", "near-ceiling"],
)
def test_synth_trial_clamps_rssi_and_agc(profile, distance, rssi, agc):
    # 10 km away the received power is far below the RSSI floor; 1 mm away
    # it is far above the RSSI ceiling, and the AGC clamps the other way
    trial = _trial(profile, config=PropagationConfig(tx_rx_distance=distance), packet_rate=8.0, seed=0)
    assert np.all(trial.rssi == rssi)
    assert np.all(trial.agc == agc)


# ----------------------------------------------------------------- dataset

def _synth_dataset(profiles, pairs, trials_per_class, pair_variation=0.0, seed=0, meta=SimMeta()):
    # the dataset loop of cmd_simulate: one shared geometry, one trial per plan
    # row (test_synth_dataset_matches_the_simulate_command pins the copy)
    plan = dataset_trials(profiles, pairs, trials_per_class, pair_variation, seed)
    geometry = build_geometry(PropagationConfig(), CounterRng(seed, "geometry"))
    return [
        synth_trial(profile, meta, geometry, seed_value, pair_id=pair_id, trial_id=trial_id, envelope_scale=scale)
        for pair_id, scale, profile, trial_id, seed_value in plan
    ]


def test_synth_dataset_counts_and_ordering():
    profiles = [APPROACHING, PUSHING]
    meta = SimMeta(packet_rate=5.0, csi_noise=0.0)
    trials = _synth_dataset(profiles, pairs=2, trials_per_class=2, seed=1, meta=meta)
    assert len(trials) == 2 * 2 * 2
    ids = [t.trial_id for t in trials]
    assert ids == [
        "pair00-approaching-00",
        "pair00-approaching-01",
        "pair00-pushing-00",
        "pair00-pushing-01",
        "pair01-approaching-00",
        "pair01-approaching-01",
        "pair01-pushing-00",
        "pair01-pushing-01",
    ]
    assert trials[0].pair_id == "pair00" and trials[-1].pair_id == "pair01"
    # the enumeration orders by class code whatever order the profiles come in
    plan = dataset_trials(profiles[::-1], pairs=2, trials_per_class=2, seed=1)
    assert [trial_id for _, _, _, trial_id, _ in plan] == ids
    expected_seeds = [trial_seed(1, p, c.label, k) for p in range(2) for c in profiles for k in range(2)]
    assert [seed for *_, seed in plan] == expected_seeds


def test_synth_dataset_matches_the_simulate_command(tmp_path):
    out = tmp_path / "dataset"
    assert cli.main([
        "simulate", "--profiles", "configs/profiles-3class.ini", "--pairs", "2", "--trials-per-class", "2",
        "--seed", "7", "--pair-variation", "0.2", "--out", str(out),
    ]) == 0
    profiles, meta = load_profiles("configs/profiles-3class.ini")
    assert len({scale for _, scale, *_ in dataset_trials(profiles, 2, 2, 0.2, 7)}) == 2
    trials = _synth_dataset(profiles, 2, 2, pair_variation=0.2, seed=7, meta=meta)
    assert [e.trial_id for e in load_manifest(out / "manifest.json").entries] == [t.trial_id for t in trials]
    assert len(list((out / "trials").iterdir())) == len(trials) == 2 * 3 * 2
    for trial in trials:
        write_trial(trial, tmp_path / "t.trial")
        assert (out / "trials" / f"{trial.trial_id}.trial").read_bytes() == (tmp_path / "t.trial").read_bytes()


def test_synth_dataset_shares_geometry_across_pairs():
    # with no pair variation and no noise the channel response is a pure
    # function of the shared geometry, so pairs produce identical CSI
    meta = SimMeta(packet_rate=5.0, csi_noise=0.0)
    trials = _synth_dataset([PUSHING], pairs=2, trials_per_class=1, seed=4, meta=meta)
    a, b = trials
    assert np.array_equal(a.csi, b.csi)
    assert np.array_equal(a.rssi, b.rssi)
    assert np.array_equal(a.labels, b.labels)


def test_synth_dataset_trial_seeds_are_distinct():
    seen = {
        trial_seed(0, p, c, k)
        for p in range(3)
        for c in range(13)
        for k in range(5)
    }
    assert len(seen) == 3 * 13 * 5
