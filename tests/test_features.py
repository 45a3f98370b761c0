"""Length normalization, feature extraction, robust scaling, splits."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from csisense.domain import Trial
from csisense.errors import DomainError
from csisense.features import (
    FeatureFrame,
    RobustScalerParams,
    SplitSpec,
    kfold_assign,
    normalize_length,
    one_hot,
    packet_time_diffs,
    robust_fit,
    robust_transform,
    split_dataset,
    trial_features,
)


def _trial(label_seq, dt=0.01, dims=(1, 1, 2), t0=0.0):
    n = len(label_seq)
    tags = np.arange(1, n + 1, dtype=np.complex128)  # payload tags the packet
    return Trial(
        timestamps=t0 + np.arange(n) * dt,
        noise=np.full(n, -92.0),
        agc=np.full(n, 30.0),
        rssi=np.zeros((n, dims[1])),
        csi=np.broadcast_to(tags.reshape(n, 1, 1, 1), (n, *dims)).copy(),
        labels=np.asarray(label_seq, dtype=np.int64),
        pair_id="p",
        trial_id="t",
    )


def _labels(trial):
    return trial.labels.tolist()


def _packets(csi, timestamps, noise=-92.0, agc=30.0, rssi=0.0):
    """Identical single-antenna packets carrying ``csi``, one per timestamp."""
    n = len(timestamps)
    return Trial(
        timestamps=np.asarray(timestamps, dtype=np.float64),
        noise=np.full(n, noise),
        agc=np.full(n, agc),
        rssi=np.full((n, 1), rssi),
        csi=np.stack([csi] * n),
        labels=np.zeros(n, dtype=np.int64),
        pair_id="p",
        trial_id="t",
    )


def test_normalize_identity_at_target():
    trial = _trial([0] * 5 + [3] * 5, t0=2.0)
    out = normalize_length(trial, 10)
    assert out is trial  # untouched, timestamps included
    assert out.timestamps[0] == 2.0


def test_normalize_clip_front_steady():
    trial = _trial([0] * 560 + [12] * 1440)
    out = normalize_length(trial, 1560)
    labs = _labels(out)
    assert len(labs) == 1560
    assert labs[:120] == [0] * 120 and labs[120:] == [12] * 1440
    # the first surviving packet is original index 440
    assert out.csi[0].flat[0] == 441
    assert out.timestamps[0] == 0.0


def test_normalize_clip_keeps_back_steady():
    trial = _trial([0] * 300 + [5] * 1500 + [0] * 200)
    out = normalize_length(trial, 1560)
    labs = _labels(out)
    # 440 leading packets go: the 300 steady ones, then 140 active ones
    assert labs[:1360] == [5] * 1360
    assert labs[1360:] == [0] * 200
    assert out.csi[0].flat[0] == 441


def test_normalize_clip_overruns_into_active_silently():
    trial = _trial([0] * 100 + [7] * 1900)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = normalize_length(trial, 1560)
    labs = _labels(out)
    assert labs == [7] * 1560
    assert out.csi[0].flat[0] == 441  # 100 steady + 340 active removed


def test_normalize_pad_front():
    trial = _trial([0] * 200 + [4] * 840, dt=0.02)
    out = normalize_length(trial, 1560)
    labs = _labels(out)
    assert labs[:720] == [0] * 720 and labs[720:] == [4] * 840
    # replicas clone the first packet and keep the cadence
    assert out.csi[0].flat[0] == 1
    diffs = packet_time_diffs(out)
    assert out.timestamps[0] == 0.0
    assert np.allclose(diffs[1:], 0.02)


def _tail_dwell_trial(n_active, n_steady):
    """An approaching-style recording, the dwell at the end, with every
    packet field distinct so any shift of the packet window shows."""
    n = n_active + n_steady
    rng = np.random.default_rng(7)
    return Trial(
        timestamps=np.cumsum(rng.uniform(0.005, 0.015, n)),
        noise=rng.normal(-92.0, 1.0, n),
        agc=rng.uniform(20.0, 40.0, n),
        rssi=rng.uniform(25.0, 45.0, (n, 3)),
        csi=rng.normal(size=(n, 2, 3, 4)) + 1j * rng.normal(size=(n, 2, 3, 4)),
        labels=np.array([1] * n_active + [0] * n_steady, dtype=np.int64),
        pair_id="p",
        trial_id="t",
    )


@pytest.mark.parametrize(
    "n_active, n_steady, expected",
    [
        (900, 140, [0] * 520 + [1] * 900 + [0] * 140),  # pad: replicas lead
        (1500, 500, [1] * 1060 + [0] * 500),  # clip: leading packets go
    ],
    ids=["pad", "clip"],
)
def test_normalize_is_label_free(n_active, n_steady, expected):
    labeled = _tail_dwell_trial(n_active, n_steady)
    unlabeled = replace(labeled, labels=np.zeros_like(labeled.labels), labeled=False)
    out = normalize_length(labeled, 1560)
    blind = normalize_length(unlabeled, 1560)
    assert _labels(out) == expected
    assert _labels(blind) == [0] * 1560
    assert out.labeled is True and blind.labeled is False  # the flag survives
    for name in ("timestamps", "noise", "agc", "rssi", "csi"):
        assert np.array_equal(getattr(out, name), getattr(blind, name)), name
    # the window is the trial's last packets, after any replicas of its first
    pad = max(1560 - len(labeled.labels), 0)
    assert np.array_equal(out.csi[pad:], labeled.csi[-(1560 - pad):])
    assert np.all(out.csi[:pad] == labeled.csi[0])


def test_normalize_all_steady():
    trial = _trial([0] * 2000)
    out = normalize_length(trial, 1560)
    assert _labels(out) == [0] * 1560


def test_normalize_no_steady_edge_pads_at_front():
    trial = _trial([7] * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = normalize_length(trial, 40)
    assert _labels(out) == [0] * 10 + [7] * 30
    assert out.csi[0].flat[0] == 1 and out.csi[10].flat[0] == 1


def test_normalize_smallest_inputs_its_callers_allow():
    # the argument parser and validate_trial keep a target below 1 and an
    # empty trial away; one packet and a target of 1 are the smallest left
    one = normalize_length(_trial([5], t0=2.0), 4)
    assert _labels(one) == [0, 0, 0, 5]
    assert np.array_equal(one.timestamps, np.zeros(4))  # no inter-arrival to extrapolate
    assert np.array_equal(one.csi[:, 0, 0, 0], np.ones(4))
    last = normalize_length(_trial([1, 2, 3]), 1)
    assert _labels(last) == [3] and np.array_equal(last.timestamps, [0.0])
    assert last.csi[0].flat[0] == 3


def test_packet_time_diffs():
    trial = _trial([0, 0, 0], dt=0.5, t0=3.0)
    assert np.array_equal(packet_time_diffs(trial), [0.0, 0.5, 0.5])


def test_packet_feature_layout():
    csi = np.array([[[2.0 + 0.0j, -3.0j]]])
    trial = _packets(csi, [1.0, 1.125], noise=-90.0, agc=25.0, rssi=7.0)
    row = trial_features(trial).matrix[1]
    assert row.shape == (8,)  # 3 + 1 rssi + 2 magnitudes + 2 phases
    assert row[0] == 0.125 and row[1] == -90.0 and row[2] == 25.0 and row[3] == 7.0
    assert row[4] == 2.0 and row[5] == 3.0
    assert row[6] == 0.0 and row[7] == -np.pi / 2


def test_phase_is_principal_value():
    csi = np.array([[[-1.0 + 0.0j, 1.0 + 0.0j]]])
    row = trial_features(_packets(csi, [0.0])).matrix[0]
    assert row[6] == np.pi  # not -pi


def test_trial_features_full_width():
    dims = (2, 3, 30)
    trial = Trial(
        timestamps=np.arange(4) * 0.01,
        noise=np.full(4, -92.0),
        agc=np.full(4, 30.0),
        rssi=np.zeros((4, 3)),
        csi=np.zeros((4, *dims), dtype=complex),
        labels=np.zeros(4, dtype=np.int64),
        pair_id="p",
        trial_id="t",
    )
    frame = trial_features(trial)
    assert frame.matrix.shape == (4, 366)
    assert np.array_equal(frame.labels, [0, 0, 0, 0])


def _sort_quantile(col, q):
    s = np.sort(col)
    pos = q * (s.size - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def test_robust_scaler_hand_case():
    m = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    params = robust_fit(m)
    assert params.median[0] == 3.0
    assert params.iqr[0] == 2.0  # p75 4 - p25 2
    out = robust_transform(FeatureFrame(matrix=m, labels=np.zeros(5, dtype=int)), params)
    assert out.matrix[-1, 0] == 48.5


def test_robust_scaler_standardizes_training_columns():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((321, 7)) * rng.uniform(0.1, 50.0, 7) + rng.uniform(-5, 5, 7)
    m[:, 3] = 2.5  # degenerate column
    params = robust_fit(m)
    scaled = robust_transform(FeatureFrame(matrix=m, labels=np.zeros(321, dtype=int)), params).matrix
    for col in range(7):
        med = _sort_quantile(scaled[:, col], 0.5)
        iqr = _sort_quantile(scaled[:, col], 0.75) - _sort_quantile(scaled[:, col], 0.25)
        if col == 3:
            assert params.degenerate[col]
            assert np.all(scaled[:, col] == 0.0)  # passthrough with divisor 1
        else:
            assert abs(med) <= 1e-9
            assert abs(iqr - 1.0) <= 1e-9


def test_robust_fit_matches_sort_oracle():
    rng = np.random.default_rng(21)
    m = rng.uniform(-10, 10, (57, 4))
    params = robust_fit(m)
    for col in range(4):
        assert abs(params.median[col] - _sort_quantile(m[:, col], 0.5)) < 1e-12
        want_iqr = _sort_quantile(m[:, col], 0.75) - _sort_quantile(m[:, col], 0.25)
        assert abs(params.iqr[col] - want_iqr) < 1e-12


def test_robust_fit_rejects_bad_input():
    with pytest.raises(DomainError):
        robust_fit(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        robust_fit(np.array([[1.0], [np.nan]]))


def test_robust_transform_column_mismatch():
    params = robust_fit(np.ones((3, 2)))
    with pytest.raises(DomainError):
        robust_transform(FeatureFrame(matrix=np.ones((3, 3)), labels=np.zeros(3, dtype=int)), params)


def test_scaler_params_round_trip():
    params = robust_fit(np.array([[1.0, 5.0], [2.0, 5.0], [9.0, 5.0]]))
    clone = RobustScalerParams.from_dict(params.to_dict())
    assert np.array_equal(clone.median, params.median)
    assert np.array_equal(clone.iqr, params.iqr)
    assert np.array_equal(clone.degenerate, params.degenerate)


@pytest.mark.parametrize("median, iqr, degenerate", [
    ([1.0, 2.0, 3.0], [1.0, 2.0], [False, False, False]),
    ([1.0, 2.0], [1.0, 2.0], [False]),
    (1.0, 1.0, False),
])
def test_scaler_params_need_1d_arrays_of_one_length(median, iqr, degenerate):
    with pytest.raises(DomainError, match="1-D of one length"):
        RobustScalerParams(np.asarray(median), np.asarray(iqr), np.asarray(degenerate))


@pytest.mark.parametrize("field, value", [("train", "ab"), ("val", [1]), ("folds", ["ab"])])
def test_split_spec_needs_lists_of_trial_id_strings(field, value):
    record = {**SplitSpec(train=["a"], val=["b"], test=["c"]).to_dict(), field: value}
    with pytest.raises(TypeError, match="expected a list of trial-id strings"):
        SplitSpec.from_dict(record)


def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), num_classes=3)
    assert np.array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert one_hot(np.array([], dtype=int), 3).shape == (0, 3)
    # a (B, T) batch is one (T, C) block per row
    batch = np.array([[0, 2, 1], [1, 1, 0]])
    assert np.array_equal(one_hot(batch, 3), np.stack([one_hot(row, 3) for row in batch]))


def test_split_dataset_counts_and_stratification():
    ids = [f"t{i:03d}" for i in range(120)]
    classes = ["a"] * 40 + ["b"] * 40 + ["c"] * 40
    spec = split_dataset(ids, seed=0, classes=classes)
    assert len(spec.train) == 72 and len(spec.val) == 24 and len(spec.test) == 24
    assert sorted(spec.train + spec.val + spec.test) == sorted(ids)
    by_id = dict(zip(ids, classes))
    for part in (spec.val, spec.test):
        counts = {c: sum(1 for t in part if by_id[t] == c) for c in "abc"}
        assert counts == {"a": 8, "b": 8, "c": 8}


def test_split_dataset_deterministic():
    ids = [f"t{i}" for i in range(50)]
    classes = ["a"] * 25 + ["b"] * 25
    a = split_dataset(ids, seed=3, classes=classes)
    b = split_dataset(ids, seed=3, classes=classes)
    c = split_dataset(ids, seed=4, classes=classes)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
    assert (a.train, a.val, a.test) != (c.train, c.val, c.test)
    with pytest.raises(DomainError):
        split_dataset(["x", "x"], seed=0, classes=["a", "a"])


def test_kfold_assign_partitions():
    ids = [f"t{i:02d}" for i in range(48)]
    classes = (["a"] * 16 + ["b"] * 16 + ["c"] * 16)
    folds = kfold_assign(ids, 4, seed=1, classes=classes)
    assert len(folds) == 4
    assert sorted(t for fold in folds for t in fold) == sorted(ids)
    by_id = dict(zip(ids, classes))
    for fold in folds:
        assert len(fold) == 12
        per = {c: sum(1 for t in fold if by_id[t] == c) for c in "abc"}
        assert per == {"a": 4, "b": 4, "c": 4}
    assert kfold_assign(ids, 4, seed=1, classes=classes) == folds


def test_kfold_assign_errors():
    with pytest.raises(DomainError):
        kfold_assign(["a", "b"], 3, seed=0, classes=["c", "c"])


def test_split_spec_round_trip():
    spec = SplitSpec(train=["a"], val=["b"], test=["c"], folds=[["a"], ["b"]], seed=5)
    clone = SplitSpec.from_dict(spec.to_dict())
    assert clone == spec
