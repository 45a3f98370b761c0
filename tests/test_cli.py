"""End-to-end command line runs against a miniature dataset.

The fixture pipeline simulates 15 short trials (3 classes, 8 packets/s),
preprocesses them to 40-packet feature files, trains a 2-fold stack of
64x-scaled models for 2 epochs, and classifies the held-out test trials.
Individual tests assert on the artifacts each stage leaves behind.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import csisense
from csisense import cli
from csisense.dataio import (
    load_manifest,
    load_split,
    read_predictions,
    read_trial,
    write_predictions,
    write_trial,
)
from csisense.model import build
from csisense.postprocess import PredictionTrace
from csisense.weights import load_weights, save_weights

MICRO_PROFILES = """\
[meta]
version = 1
packet_rate = 8.0
jitter = 0.08
csi_noise = 0.01

[steady-state]
duration = 3.0
steady_duration = 2.0
steady_position = begin
shape = flat

[approaching]
duration = 3.5
steady_duration = 2.0
steady_position = end
shape = ramp
depth_los = 0.9
depth_scatter = 0.35
phase_drift = -28.0

[pushing]
duration = 4.0
steady_duration = 2.0
steady_position = begin
shape = bump
depth_los = 0.65
depth_scatter = 0.55
phase_drift = 9.0
center = 0.5
width = 0.16
"""

MICRO_ARCH = """\
[arch]
version = 1
seq_len = 40
scale_factor = 64
"""

MICRO_TRAIN = """\
[train]
version = 1
epochs = 2
batch = 4
lr = 0.003
folds = 2
seed = 0
"""


def _class_of(trial_id: str) -> str:
    return trial_id.removeprefix("pair00-")[:-3]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    profiles = root / "profiles.ini"
    arch = root / "arch.ini"
    traincfg = root / "train.ini"
    profiles.write_text(MICRO_PROFILES)
    arch.write_text(MICRO_ARCH)
    traincfg.write_text(MICRO_TRAIN)

    dataset = root / "dataset"
    features = root / "features"
    models = root / "models"
    predictions = root / "predictions"

    assert cli.main([
        "simulate", "--profiles", str(profiles), "--pairs", "1",
        "--trials-per-class", "5", "--seed", "3", "--out", str(dataset),
    ]) == 0
    assert cli.main([
        "preprocess", "--manifest", str(dataset / "manifest.json"),
        "--target-len", "40", "--out", str(features),
    ]) == 0
    assert cli.main([
        "train", "--features", str(features), "--arch", str(arch),
        "--train-cfg", str(traincfg), "--out", str(models),
    ]) == 0

    split = load_split(features / "splits.json")
    test_dir = root / "test-trials"
    test_dir.mkdir()
    for tid in split.test:
        src = dataset / "trials" / f"{tid}.trial"
        (test_dir / src.name).write_bytes(src.read_bytes())

    assert cli.main([
        "classify", "--weights", str(models), "--input", str(test_dir),
        "--out", str(predictions),
    ]) == 0

    return {
        "root": root,
        "profiles": profiles,
        "arch": arch,
        "traincfg": traincfg,
        "dataset": dataset,
        "features": features,
        "models": models,
        "test_dir": test_dir,
        "predictions": predictions,
        "split": split,
    }


# ---------------------------------------------------------------- simulate

def test_simulate_outputs(pipeline):
    dataset = pipeline["dataset"]
    trials = sorted((dataset / "trials").glob("*.trial"))
    assert len(trials) == 15
    manifest = load_manifest(dataset / "manifest.json")
    assert len(manifest.entries) == 15
    by_class = {}
    for e in manifest.entries:
        by_class.setdefault(e.class_name, []).append(e)
    assert {k: len(v) for k, v in by_class.items()} == {
        "steady-state": 5, "approaching": 5, "pushing": 5,
    }
    # 8 packets/s: 16 steady + duration * 8 active
    assert all(e.length == 40 for e in by_class["steady-state"])
    assert all(e.length == 44 for e in by_class["approaching"])
    assert all(e.length == 48 for e in by_class["pushing"])


def test_simulate_rerun_is_byte_identical(pipeline, tmp_path):
    again = tmp_path / "again"
    assert cli.main([
        "simulate", "--profiles", str(pipeline["profiles"]), "--pairs", "1",
        "--trials-per-class", "5", "--seed", "3", "--out", str(again),
    ]) == 0
    first = pipeline["dataset"]
    assert (again / "manifest.json").read_bytes() == (first / "manifest.json").read_bytes()
    for path in sorted((first / "trials").glob("*.trial")):
        assert (again / "trials" / path.name).read_bytes() == path.read_bytes()


def test_simulate_parallel_matches_serial(pipeline, tmp_path):
    par = tmp_path / "par"
    assert cli.main([
        "simulate", "--profiles", str(pipeline["profiles"]), "--pairs", "1",
        "--trials-per-class", "5", "--seed", "3", "--out", str(par),
        "--jobs", "2",
    ]) == 0
    first = pipeline["dataset"]
    assert (par / "manifest.json").read_bytes() == (first / "manifest.json").read_bytes()
    for path in sorted((first / "trials").glob("*.trial")):
        assert (par / "trials" / path.name).read_bytes() == path.read_bytes()


def test_simulate_missing_profile_file(tmp_path, capsys):
    rc = cli.main([
        "simulate", "--profiles", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "d"),
    ])
    assert rc == 2
    assert f"config file not found: {tmp_path / 'nope.ini'}" in capsys.readouterr().err


def test_simulate_rejects_bad_counts(pipeline, tmp_path, capsys):
    rc = cli.main([
        "simulate", "--profiles", str(pipeline["profiles"]), "--pairs", "0",
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 2
    assert "--pairs" in capsys.readouterr().err


# -------------------------------------------------------------- preprocess

def test_preprocess_outputs(pipeline):
    features = pipeline["features"]
    assert len(list(features.glob("pair00-*.csv"))) == 15
    assert (features / "scaler.json").exists()
    split = pipeline["split"]
    assert (len(split.train), len(split.val), len(split.test)) == (9, 3, 3)
    for part in (split.train, split.val, split.test):
        names = sorted(_class_of(tid) for tid in part)
        assert len(set(names)) == 3  # stratified: every class in every part


def test_preprocess_rerun_is_byte_identical(pipeline, tmp_path):
    again = tmp_path / "features2"
    assert cli.main([
        "preprocess", "--manifest", str(pipeline["dataset"] / "manifest.json"),
        "--target-len", "40", "--out", str(again),
    ]) == 0
    first = pipeline["features"]
    for path in sorted(first.iterdir()):
        assert (again / path.name).read_bytes() == path.read_bytes()


def test_preprocess_missing_manifest(tmp_path, capsys):
    rc = cli.main([
        "preprocess", "--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "f"),
    ])
    assert rc == 2
    assert "manifest not found" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["no-dims", "entry-without-length"])
def test_preprocess_bad_manifest_exits_2(pipeline, tmp_path, capsys, damage):
    manifest = json.loads((pipeline["dataset"] / "manifest.json").read_text())
    if damage == "no-dims":
        del manifest["dims"]
    else:
        del manifest["trials"][0]["length"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    (tmp_path / "trials").symlink_to(pipeline["dataset"] / "trials")
    rc = cli.main(["preprocess", "--manifest", str(path), "--target-len", "40", "--out", str(tmp_path / "f")])
    assert rc == 2
    assert f"{path}: bad manifest file" in capsys.readouterr().err


def test_preprocess_reports_unreadable_trials(pipeline, tmp_path, capsys):
    clone = tmp_path / "dataset"
    (clone / "trials").mkdir(parents=True)
    src = pipeline["dataset"]
    (clone / "manifest.json").write_bytes((src / "manifest.json").read_bytes())
    for path in (src / "trials").glob("*.trial"):
        (clone / "trials" / path.name).write_bytes(path.read_bytes())
    victim = clone / "trials" / "pair00-pushing-02.trial"
    raw = bytearray(victim.read_bytes())
    raw[100] ^= 0xFF
    victim.write_bytes(bytes(raw))

    rc = cli.main([
        "preprocess", "--manifest", str(clone / "manifest.json"),
        "--target-len", "40", "--out", str(tmp_path / "f"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "could not read 1 trial file(s)" in err
    assert "pair00-pushing-02.trial" in err


# ------------------------------------------------------------------- train

def test_train_outputs(pipeline):
    models = pipeline["models"]
    assert sorted(p.name for p in models.glob("*.weights")) == ["fold0.weights", "fold1.weights"]
    for k in range(2):
        lines = (models / f"fold{k}_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,acc,precision,recall,lr"
        assert len(lines) >= 2
    folds = load_split(models / "folds.json").folds
    assert len(folds) == 2
    assert sorted(len(f) for f in folds) == [6, 6]
    assert sorted(tid for f in folds for tid in f) == sorted(
        pipeline["split"].train + pipeline["split"].val
    )


def test_train_missing_arch_file(pipeline, tmp_path, capsys):
    rc = cli.main([
        "train", "--features", str(pipeline["features"]),
        "--arch", str(tmp_path / "nope.ini"), "--train-cfg", str(pipeline["traincfg"]),
        "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("flag, content", [
    ("--arch", b"seq_len = 40\n"),
    ("--train-cfg", b"[train]\nepochs = 2\nepochs = 3\n"),
    ("--arch", b"[arch]\nseq_len = \xff\n"),
], ids=["arch-no-section-header", "train-duplicate-key", "arch-not-utf8"])
def test_train_malformed_config_exits_2(pipeline, tmp_path, capsys, flag, content):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    configs = {"--arch": str(pipeline["arch"]), "--train-cfg": str(pipeline["traincfg"]), flag: str(bad)}
    rc = cli.main([
        "train", "--features", str(pipeline["features"]), *(x for kv in configs.items() for x in kv),
        "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert f"error: {bad}: malformed config file" in capsys.readouterr().err


def test_train_rejects_unknown_dense_activation_before_reading_features(pipeline, tmp_path, capsys):
    arch = tmp_path / "arch.ini"
    arch.write_text(MICRO_ARCH + "dense_activation = tanh\n")
    rc = cli.main([
        "train", "--features", str(tmp_path / "empty"), "--arch", str(arch),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {arch}: [arch] dense_activation 'tanh' must be 'none' or 'relu'" in err
    assert "no preprocessed features" not in err


def test_train_missing_features(pipeline, tmp_path, capsys):
    rc = cli.main([
        "train", "--features", str(tmp_path / "empty"), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "no preprocessed features" in capsys.readouterr().err


def test_train_divergence_exits_1(pipeline, tmp_path, capsys):
    bad = tmp_path / "explode.ini"
    bad.write_text("[train]\nepochs = 1\nbatch = 4\nlr = 1e200\nfolds = 2\nseed = 0\n")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main([
            "train", "--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
            "--train-cfg", str(bad), "--out", str(tmp_path / "m"),
        ])
    assert rc == 1
    assert "fold 0" in capsys.readouterr().err


FROZEN_HISTORY = [
    {"epoch": 1, "loss": 2.5649493574615367, "acc": 0.1, "precision": 1.0 / 3.0,
     "recall": 0.0, "lr": 0.003},
    {"epoch": 2, "loss": np.float64(1e-7), "acc": np.float64(2.0 / 3.0), "precision": 5e-324,
     "recall": 1.0, "lr": 0.003 * 0.5},
    {"epoch": 10, "loss": 123456789.0, "acc": -0.0, "precision": 0.95,
     "recall": np.float64(0.123456789123), "lr": 1e-06},
]


def test_train_history_bytes_are_frozen(pipeline, tmp_path, monkeypatch):
    def fixed_kfold(frames, folds, arch, cfg, on_epoch=None):
        return [(build(arch, seed=k), FROZEN_HISTORY) for k in range(len(folds))]

    monkeypatch.setattr(cli, "train_kfold", fixed_kfold)
    out = tmp_path / "m"
    assert cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ]) == 0
    for fold_id in range(2):
        digest = hashlib.sha256((out / f"fold{fold_id}_history.csv").read_bytes()).hexdigest()
        assert digest == "9d7a15f6425c56dfc82b14b4a54a85d5c9cf88c40b2976a50b5833af6c9e8872"


# ---------------------------------------------------------------- classify

def test_classify_outputs(pipeline):
    predictions = pipeline["predictions"]
    files = sorted(predictions.glob("*.csv"))
    assert [f.stem for f in files] == sorted(pipeline["split"].test)
    for f in files:
        trace = read_predictions(f)
        assert trace.per_fold.shape == (2, 40)
        assert trace.ensembled.shape == (40,)
        assert trace.true_labels is not None
        assert trace.true_labels.shape == (40,)


def test_classify_single_file(pipeline, tmp_path):
    tid = pipeline["split"].test[0]
    trial_path = pipeline["test_dir"] / f"{tid}.trial"
    out = tmp_path / "one"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(trial_path), "--out", str(out),
    ]) == 0
    assert [p.name for p in out.iterdir()] == [f"{tid}.csv"]


def test_classify_without_models(pipeline, tmp_path, capsys):
    empty = tmp_path / "models"
    empty.mkdir()
    rc = cli.main([
        "classify", "--weights", str(empty),
        "--input", str(pipeline["test_dir"]), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert "no trained models found" in capsys.readouterr().err


def test_classify_missing_input(pipeline, tmp_path, capsys):
    rc = cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(tmp_path / "ghost.trial"), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert "input not found" in capsys.readouterr().err


def test_classify_unlabeled_trial(pipeline, tmp_path):
    # an unlabeled copy of every test trial must get the labeled copy's
    # predictions; approaching, whose dwell is at the tail, is among them
    tids = pipeline["split"].test
    assert "approaching" in {_class_of(tid) for tid in tids}
    blind_dir = tmp_path / "blind"
    blind_dir.mkdir()
    for tid in tids:
        trial = read_trial(pipeline["test_dir"] / f"{tid}.trial")
        write_trial(trial, blind_dir / f"{tid}.trial", labeled=False)
    out = tmp_path / "p"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(blind_dir), "--out", str(out),
    ]) == 0
    for tid in tids:
        blind = read_predictions(out / f"{tid}.csv")
        labeled = read_predictions(pipeline["predictions"] / f"{tid}.csv")
        assert blind.true_labels is None
        assert blind.smoothed.shape == (40,)
        assert np.array_equal(blind.per_fold, labeled.per_fold), tid
        assert np.array_equal(blind.ensembled, labeled.ensembled), tid
        assert np.array_equal(blind.smoothed, labeled.smoothed), tid


def test_classify_short_trial_exits_2(pipeline, tmp_path, capsys):
    bad = tmp_path / "short.trial"
    body = (pipeline["test_dir"] / f"{pipeline['split'].test[0]}.trial").read_bytes()[:10]
    bad.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    rc = cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(bad), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert f"{bad}: truncated" in capsys.readouterr().err


def test_classify_rejects_bundles_with_different_scalers(pipeline, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    path = models / "fold1.weights"
    bundle = load_weights(path)
    bundle.scaler.median = bundle.scaler.median + 5.0
    save_weights(bundle, path)
    rc = cli.main([
        "classify", "--weights", str(models),
        "--input", str(pipeline["test_dir"]), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert f"{path}: weight bundles disagree on the feature scaler" in capsys.readouterr().err


def test_classify_init_releases_the_bundles(pipeline):
    bundles = [load_weights(p) for p in sorted(pipeline["models"].glob("*.weights"))]
    cli._classify_init(bundles)
    assert bundles == []  # the float32 arrays are not kept alive next to the models
    assert len(cli._CLASSIFY_STATE["models"]) == 2
    assert cli._CLASSIFY_STATE["seq_len"] == 40


def test_classify_parallel_matches_serial(pipeline, tmp_path):
    par = tmp_path / "par"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(pipeline["test_dir"]), "--out", str(par), "--jobs", "2",
    ]) == 0
    for path in sorted(pipeline["predictions"].glob("*.csv")):
        assert (par / path.name).read_bytes() == path.read_bytes()


# ---------------------------------------------------------------- evaluate

def test_evaluate_outputs(pipeline, tmp_path, capsys):
    out = tmp_path / "report"
    rc = cli.main(["evaluate", "--predictions", str(pipeline["predictions"]), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "accuracy:" in captured.out
    for name in ("metrics.csv", "metrics.txt", "confusion.csv"):
        assert (out / name).exists()
    assert (out / "metrics.csv").read_text().startswith("class,support,precision")


def test_evaluate_json(pipeline, tmp_path, capsys):
    rc = cli.main([
        "evaluate", "--predictions", str(pipeline["predictions"]),
        "--out", str(tmp_path / "r"), "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"accuracy", "precision", "recall", "f1", "confusion", "trials"}
    assert payload["trials"] == 3
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert len(payload["confusion"]) == 13


def test_evaluate_rejects_unlabeled(pipeline, tmp_path, capsys):
    tid = pipeline["split"].test[0]
    trial = read_trial(pipeline["test_dir"] / f"{tid}.trial")
    blind_dir = tmp_path / "blind"
    blind_dir.mkdir()
    write_trial(trial, blind_dir / "anon.trial", labeled=False)
    pred = tmp_path / "pred"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(blind_dir), "--out", str(pred),
    ]) == 0
    rc = cli.main(["evaluate", "--predictions", str(pred), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "no true labels" in capsys.readouterr().err


def test_evaluate_empty_dir(tmp_path, capsys):
    (tmp_path / "p").mkdir()
    rc = cli.main(["evaluate", "--predictions", str(tmp_path / "p"), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "no prediction files" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_non_numeric_prediction_csv_exits_2(pipeline, tmp_path, capsys, command):
    # a word, and an integer beyond int64, in the first fold column
    for i, cell in enumerate(["x", "99999999999999999999"]):
        preds = tmp_path / f"preds{i}"
        shutil.copytree(pipeline["predictions"], preds)
        victim = sorted(preds.glob("*.csv"))[0]
        lines = victim.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = cell
        lines[1] = ",".join(cells)
        victim.write_text("\n".join(lines) + "\n")
        rc = cli.main([command, "--predictions", str(preds), "--out", str(tmp_path / f"out{i}")])
        assert rc == 2
        assert f"{victim}: line 2 is not numeric" in capsys.readouterr().err


# ------------------------------------------------------------------ report

def test_report_outputs(pipeline, tmp_path):
    out = tmp_path / "plots"
    rc = cli.main(["report", "--predictions", str(pipeline["predictions"]), "--out", str(out)])
    assert rc == 0
    for tid in pipeline["split"].test:
        svg = (out / f"{tid}.svg").read_text()
        assert svg.startswith("<svg")
        assert "true" in svg and "smoothed" in svg
        lines = (out / f"{tid}.csv").read_text().splitlines()
        assert lines[0] == "packet_index,true,ensembled,smoothed"
        assert len(lines) == 41


@pytest.mark.parametrize(
    "with_true, digest",
    [(True, "1ebc18b905db32e284ff76dfbf09808fcd3da1d1b4d22782054607474e06647b"), (False, "65b0c9ff6d5d274572b71b0fbd6972551b156a22a62dce3374176701a572ade9")],
    ids=["labeled", "unlabeled"],
)
def test_report_timeline_bytes_are_frozen(tmp_path, with_true, digest):
    rng = np.random.default_rng(5)
    trace = PredictionTrace(
        trial_id="t0",
        per_fold=rng.integers(0, 13, (2, 30)),
        ensembled=rng.integers(0, 13, 30),
        smoothed=rng.integers(0, 13, 30),
        true_labels=rng.integers(0, 13, 30) if with_true else None,
    )
    (tmp_path / "preds").mkdir()
    write_predictions(trace, tmp_path / "preds" / "t0.csv")
    assert cli.main(["report", "--predictions", str(tmp_path / "preds"), "--out", str(tmp_path / "plots")]) == 0
    assert hashlib.sha256((tmp_path / "plots" / "t0.csv").read_bytes()).hexdigest() == digest


# ------------------------------------------------------------- environment

def test_jobs_flag_rejects_zero(pipeline, tmp_path, capsys):
    rc = cli.main([
        "simulate", "--profiles", str(pipeline["profiles"]), "--out", str(tmp_path / "d"),
        "--jobs", "0",
    ])
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err


def test_verbose_zero_silences_progress(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CSISENSE_VERBOSE", "0")
    rc = cli.main(["report", "--predictions", str(pipeline["predictions"]), "--out", str(tmp_path / "plots")])
    assert rc == 0
    assert capsys.readouterr().err == ""


SUBCOMMANDS = ("simulate", "preprocess", "train", "classify", "evaluate", "report")


def _assert_help(result):
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: csisense ")
    # the subcommand choices as argparse lists them, not words of the prose
    choices = re.search(r"\{([^}]*)\}", result.stdout.splitlines()[0])
    assert choices is not None, result.stdout
    listed = choices.group(1).split(",")
    for name in SUBCOMMANDS:
        assert name in listed


def test_console_script_help(tmp_path):
    """The declared console-script entry point resolves and prints help.

    Runs the wrapper setuptools generates for ``[project.scripts]`` in a fresh
    interpreter, so no install is needed; the package directory goes first on
    the child's PYTHONPATH, wherever it was imported from.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, attr = scripts["csisense"].split(":")
    package_root = str(Path(csisense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    result = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    _assert_help(result)


@pytest.mark.skipif(
    shutil.which("csisense") is None,
    reason="no csisense executable on PATH; install with `pip install -e . --no-build-isolation`",
)
def test_installed_console_script_help(tmp_path):
    result = subprocess.run(
        ["csisense", "--help"], capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    _assert_help(result)
