"""End-to-end acceptance checks.

One test per contract: gradient correctness of every layer and the assembled
network, the closed-form channel statistics, the full synthesize-train-classify
pipeline at desk scale, the full-scale architecture arithmetic, scaler and
post-processing invariants, and binary format round trips with checksum
corruption coverage.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from csisense.channel import (
    PropagationConfig,
    apply_channel,
    path_loss_db,
    rician_power_pdf,
    wavelength,
)
from csisense.cli import main
from csisense.dataio import (
    export_feature_csv,
    import_feature_csv,
    read_predictions,
    read_trial,
    write_predictions,
    write_trial,
)
from csisense.domain import Trial
from csisense.errors import ChecksumError
from csisense.features import FeatureFrame, robust_fit, robust_transform
from csisense.model import ArchConfig, build, load_arch_config, param_count
from csisense.nn import (
    BiGru,
    Dense,
    Gru,
    MultiHeadSelfAttention,
    WeightedSkipAdd,
    grad_check,
)
from csisense.postprocess import PredictionTrace, ensemble_mode, label_runs, smooth
from csisense.weights import load_weights, save_weights, weights_from_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Small enough that central differences over every parameter stay fast while
# still exercising every layer of the real network wiring.
MICRO = ArchConfig(
    seq_len=6,
    feature_dim=4,
    bigru1_units=4,
    bigru2_units=4,
    heads=1,
    key_dim=4,
    dense_units=4,
    classes=3,
    dropout1=0.0,
    dropout2=0.0,
    dropout3=0.0,
)


class _LogitView:
    """Adapter exposing the pre-softmax pass to the finite-difference checker."""

    def __init__(self, model):
        self._m = model

    @property
    def params(self):
        return self._m.params

    @property
    def grads(self):
        return self._m.grads

    def forward(self, x, training=False):
        return self._m.forward_logits(x, training)

    def backward(self, proj):
        return self._m.backward(proj)


def test_c01_analytic_gradients_match_finite_differences():
    start = time.monotonic()
    tol = 1e-6
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4)) + 0.05  # keep relu inputs off the kink
    reports = {"dense": grad_check(Dense(4, 3, "relu", rng), [x])}

    rng = np.random.default_rng(37)
    reports["gru"] = grad_check(Gru(4, 3, rng), [rng.standard_normal((1, 5, 4))])

    rng = np.random.default_rng(43)
    reports["bigru"] = grad_check(BiGru(3, 2, rng), [rng.standard_normal((1, 5, 3))])

    rng = np.random.default_rng(13)
    layer = MultiHeadSelfAttention(6, 2, 3, rng)
    reports["attention"] = grad_check(layer, [rng.standard_normal((1, 5, 6))])

    rng = np.random.default_rng(19)
    reports["skip_add"] = grad_check(
        WeightedSkipAdd(0.7, 0.3),
        [rng.standard_normal((5, 4)), rng.standard_normal((5, 4))],
    )

    model = build(MICRO, seed=3)
    x = np.random.default_rng(5).standard_normal((1, 6, 4))
    reports["model"] = grad_check(_LogitView(model), [x])

    for name, report in reports.items():
        worst = max(report.values())
        assert worst <= tol, f"{name}: worst relative error {worst}"
    assert time.monotonic() - start < 60.0


def test_c02_zero_parameter_gru_halves_the_state():
    gru = Gru(3, 4)
    for p in gru.params.values():
        p[...] = 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        h_prev = rng.standard_normal(4)
        x = rng.standard_normal(3)
        h = gru.step(x, h_prev)
        assert np.abs(h - 0.5 * h_prev).max() <= 1e-12


def test_c03_apply_channel_matches_triple_loop():
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
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-12


def _simpson(f, a, b, intervals):
    # composite Simpson on a uniform grid; intervals must be even
    x = np.linspace(a, b, intervals + 1)
    y = f(x)
    h = (b - a) / intervals
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def test_c04_power_density_integrates_to_one():
    p_bar = 1.7
    for k in (0.0, 1.0, 2.0, 5.0):
        total = _simpson(lambda p: rician_power_pdf(p, k, p_bar), 0.0, 30.0 * p_bar, 20_000)
        assert abs(total - 1.0) <= 1e-3, f"K={k}: integral {total}"


def test_c05_wavelength_and_path_loss_spot_values():
    assert wavelength(2.4e9) == 0.125
    config = PropagationConfig()  # exponent 2, reference distance 1 m
    for d_lo, d_hi in ((1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)):
        gain = path_loss_db(config, 40.0, distance=d_hi) - path_loss_db(config, 40.0, distance=d_lo)
        assert gain == 20.0


def test_c06_desk_scale_pipeline_accuracy_and_smoothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CSISENSE_VERBOSE", "0")

    dataset = tmp_path / "dataset"
    features = tmp_path / "features"
    models = tmp_path / "models"
    assert main([
        "simulate", "--profiles", str(CONFIGS / "profiles-3class.ini"),
        "--pairs", "1", "--trials-per-class", "20", "--seed", "0",
        "--out", str(dataset),
    ]) == 0
    assert main([
        "preprocess", "--manifest", str(dataset / "manifest.json"),
        "--target-len", "156", "--out", str(features),
    ]) == 0

    train_start = time.monotonic()
    assert main([
        "train", "--features", str(features),
        "--arch", str(CONFIGS / "arch-desk.ini"),
        "--train-cfg", str(CONFIGS / "train-desk.ini"),
        "--out", str(models),
    ]) == 0
    assert time.monotonic() - train_start <= 900.0  # 15 min CPU budget

    split = json.loads((features / "splits.json").read_text())
    test_dir = tmp_path / "test-trials"
    test_dir.mkdir()
    for tid in split["test"]:
        shutil.copy(dataset / "trials" / f"{tid}.trial", test_dir / f"{tid}.trial")
    predictions = tmp_path / "predictions"
    assert main([
        "classify", "--weights", str(models),
        "--input", str(test_dir), "--out", str(predictions),
    ]) == 0

    total = correct_raw = correct_smoothed = 0
    short_raw = short_smoothed = 0
    for path in sorted(predictions.glob("*.csv")):
        trace = read_predictions(path)
        true = np.asarray(trace.true_labels)
        raw = np.asarray(trace.ensembled)
        smoothed = np.asarray(trace.smoothed)
        total += true.size
        correct_raw += int((raw == true).sum())
        correct_smoothed += int((smoothed == true).sum())
        short_raw += sum(1 for _v, _s, n in label_runs(raw) if n < 5)
        short_smoothed += sum(1 for _v, _s, n in label_runs(smoothed) if n < 5)
        # smoothing never hurts any single trial
        assert (smoothed == true).sum() >= (raw == true).sum(), path.name

    accuracy = correct_smoothed / total
    assert accuracy >= 0.90, f"smoothed accuracy {accuracy:.4f}"
    assert correct_smoothed >= correct_raw
    assert short_raw > 0, "raw ensemble produced no short runs to repair"
    assert short_smoothed < short_raw, (
        f"short runs not strictly reduced: {short_raw} -> {short_smoothed}"
    )

    # the reporting path agrees with the accuracy computed here
    capsys.readouterr()
    assert main([
        "evaluate", "--predictions", str(predictions),
        "--out", str(tmp_path / "report"), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(payload["accuracy"] - accuracy) <= 1e-12
    assert payload["trials"] == len(split["test"])


def test_c07_full_scale_architecture_arithmetic():
    arch = load_arch_config(CONFIGS / "arch-full.ini")
    widths = arch.widths()
    assert widths["bigru1_out"] == 2048
    assert widths["bigru2_out"] == 1024
    assert widths["attention_concat"] == 512
    assert widths["concat"] == 1536
    assert param_count(arch) == 19_055_629
    assert arch == ArchConfig()  # shipped file matches the built-in defaults


def _sorted_quantile(column, q):
    ordered = np.sort(column)
    pos = q * (ordered.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def test_c08_robust_scaler_centers_and_scales_every_column():
    rng = np.random.default_rng(8)
    scales = rng.uniform(0.1, 40.0, 12)
    offsets = rng.uniform(-50.0, 50.0, 12)
    matrix = rng.standard_normal((101, 12)) * scales + offsets
    matrix[:, 4] = 7.5  # degenerate: constant column
    matrix[:, 9] = -2.0

    params = robust_fit(matrix)
    labels = np.zeros(101, dtype=np.int64)
    out = robust_transform(FeatureFrame(matrix=matrix, labels=labels), params).matrix

    for c in range(12):
        if c in (4, 9):
            continue
        median = _sorted_quantile(out[:, c], 0.5)
        iqr = _sorted_quantile(out[:, c], 0.75) - _sorted_quantile(out[:, c], 0.25)
        assert abs(median) <= 1e-9, f"column {c}: median {median}"
        assert abs(iqr - 1.0) <= 1e-9, f"column {c}: IQR {iqr}"

    # degenerate columns are shifted but divided by 1
    assert params.degenerate[4] and params.degenerate[9]
    shifted = matrix.copy()
    shifted[:, 4] = 9.5
    out2 = robust_transform(FeatureFrame(matrix=shifted, labels=labels), params).matrix
    assert np.all(out2[:, 4] == 9.5 - 7.5)


def test_c09_ensemble_and_smoother_invariances():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        folds = int(rng.integers(2, 6))
        length = int(rng.integers(1, 41))
        per_fold = rng.integers(0, 13, (folds, length))
        base = ensemble_mode(per_fold)
        shuffled = ensemble_mode(per_fold[rng.permutation(folds)])
        assert np.array_equal(shuffled, base)

    for n in (1, 5, 40, 200):
        constant = np.full(n, 7)
        assert np.array_equal(smooth(constant), constant)

    long_runs = np.concatenate([np.full(41 + i, v) for i, v in enumerate((3, 0, 12, 5))])
    assert np.array_equal(smooth(long_runs), long_runs)

    n = 100
    for pos in range(20, n - 20):
        glitched = np.full(n, 4)
        glitched[pos] = 9
        assert np.array_equal(smooth(glitched), np.full(n, 4)), f"glitch at {pos}"


def _random_trial(rng, dims, packets, labeled_values=True):
    n_tx, n_rx, n_sc = dims
    timestamps, noise, agc = np.empty(packets), np.empty(packets), np.empty(packets)
    rssi = np.empty((packets, n_rx))
    csi = np.empty((packets, n_tx, n_rx, n_sc), dtype=np.complex128)
    labels = np.zeros(packets, dtype=np.int64)
    t = 0.0
    for i in range(packets):  # one packet's draws at a time
        t += float(rng.uniform(0.03, 0.05))
        timestamps[i] = t
        csi[i] = rng.standard_normal((n_tx, n_rx, n_sc)) + 1j * rng.standard_normal((n_tx, n_rx, n_sc))
        noise[i] = rng.uniform(-94, -90)
        agc[i] = rng.integers(0, 61)
        rssi[i] = rng.integers(0, 100, n_rx)
        if labeled_values:
            labels[i] = rng.integers(0, 13)
    return Trial(
        timestamps=timestamps,
        noise=noise,
        agc=agc,
        rssi=rssi,
        csi=csi,
        labels=labels,
        pair_id="pair00",
        trial_id="pair00-steady-state-00",
    )


def test_c10_formats_round_trip_and_reject_corruption(tmp_path):
    rng = np.random.default_rng(10)

    # trial binary: lossless at float32 payload precision, float64 timestamps
    trial = _random_trial(rng, (1, 1, 2), packets=5)
    first = tmp_path / "a.trial"
    write_trial(trial, first)
    back = read_trial(first)
    assert np.array_equal(back.timestamps, trial.timestamps)
    assert np.array_equal(back.noise, trial.noise.astype(np.float32))
    assert np.array_equal(back.agc, trial.agc.astype(np.float32))
    assert np.array_equal(back.rssi, trial.rssi.astype(np.float32))
    assert np.array_equal(back.csi, trial.csi.astype(np.complex64))
    assert np.array_equal(back.labels, trial.labels)
    second = tmp_path / "b.trial"
    write_trial(back, second)
    assert first.read_bytes() == second.read_bytes()

    # every single-byte corruption of the trial file is caught by the checksum
    raw = first.read_bytes()
    target = tmp_path / "corrupt.trial"
    for i in range(len(raw)):
        damaged = bytearray(raw)
        damaged[i] ^= 0x01
        target.write_bytes(bytes(damaged))
        with pytest.raises(ChecksumError):
            read_trial(target)

    # feature CSV: a second export of the imported frame is byte-identical
    frame = FeatureFrame(
        matrix=rng.standard_normal((7, 8)) * 1e3,
        labels=rng.integers(0, 13, 7).astype(np.int64),
    )
    csv_a = tmp_path / "a.csv"
    export_feature_csv(frame, csv_a, dims=(1, 1, 2))
    frame_a = import_feature_csv(csv_a)
    np.testing.assert_allclose(frame_a.matrix, frame.matrix, rtol=1e-8, atol=0.0)
    assert np.array_equal(frame_a.labels, frame.labels)
    csv_b = tmp_path / "b.csv"
    export_feature_csv(frame_a, csv_b, dims=(1, 1, 2))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert np.array_equal(import_feature_csv(csv_b).matrix, frame_a.matrix)

    # prediction CSV: integer label streams survive exactly
    trace = PredictionTrace(
        trial_id="pair00-pushing-03",
        per_fold=rng.integers(0, 13, (4, 31)),
        ensembled=rng.integers(0, 13, 31),
        smoothed=rng.integers(0, 13, 31),
        true_labels=rng.integers(0, 13, 31),
    )
    pred_path = tmp_path / f"{trace.trial_id}.csv"  # reader names the trace after the file
    write_predictions(trace, pred_path)
    got = read_predictions(pred_path)
    assert got.trial_id == trace.trial_id
    assert np.array_equal(got.per_fold, trace.per_fold)
    assert np.array_equal(got.ensembled, trace.ensembled)
    assert np.array_equal(got.smoothed, trace.smoothed)
    assert np.array_equal(got.true_labels, trace.true_labels)

    blind = PredictionTrace(
        trial_id=trace.trial_id,
        per_fold=trace.per_fold,
        ensembled=trace.ensembled,
        smoothed=trace.smoothed,
        true_labels=None,
    )
    blind_path = tmp_path / "blind.csv"
    write_predictions(blind, blind_path)
    assert read_predictions(blind_path).true_labels is None

    # weight bundle: save-load-save is byte-identical, corruption is detected
    model = build(MICRO, seed=1)
    scaler = robust_fit(np.random.default_rng(1).standard_normal((20, MICRO.feature_dim)))
    bundle = weights_from_model(model, fold_id=2, seed=1, scaler=scaler)
    w_a = tmp_path / "a.weights"
    save_weights(bundle, w_a)
    loaded = load_weights(w_a)
    assert loaded.fold_id == 2 and loaded.seed == 1
    assert np.array_equal(loaded.values, bundle.values)
    assert np.array_equal(loaded.scaler.median, scaler.median.astype(np.float32))
    w_b = tmp_path / "b.weights"
    save_weights(loaded, w_b)
    assert w_a.read_bytes() == w_b.read_bytes()

    w_raw = w_a.read_bytes()
    w_target = tmp_path / "corrupt.weights"
    positions = list(range(0, len(w_raw), 7)) + list(range(len(w_raw) - 4, len(w_raw)))
    for i in positions:
        damaged = bytearray(w_raw)
        damaged[i] ^= 0x01
        w_target.write_bytes(bytes(damaged))
        with pytest.raises(ChecksumError):
            load_weights(w_target)
