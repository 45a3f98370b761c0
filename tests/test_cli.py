"""End-to-end command line runs against a miniature dataset.

The fixture pipeline simulates 15 short trials (3 classes, 8 packets/s),
preprocesses them to 40-packet feature files, trains a 2-fold stack of
64x-scaled models for 2 epochs, and classifies the held-out test trials.
Individual tests assert on the artifacts each stage leaves behind.
"""

import configparser
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import csisense
import csisense.model as model_module
from csisense import cli
from csisense.dataio import (
    RowSpill,
    load_manifest,
    load_scaler,
    load_split,
    read_predictions,
    read_trial,
    save_scaler,
    write_predictions,
    write_trial,
)
from csisense.features import robust_fit
from csisense.model import build
from csisense.postprocess import PredictionTrace, ensemble_mode, smooth
from csisense.weights import load_weights, model_from_weights, save_weights, weights_from_model

MICRO_PROFILES = """\
[meta]
version = 1
packet_rate = 8.0
csi_noise = 0.01

[steady-state]
shape = flat

[approaching]
shape = ramp
depth_los = 0.9
depth_scatter = 0.35
phase_drift = -28.0

[pushing]
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
    # 8 packets/s: 16 steady + CLASS_TIMING interaction seconds * 8 active
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
    # each a usage error, raised as the flag is parsed: nothing is written
    simulate = ["simulate", "--profiles", str(pipeline["profiles"])]
    preprocess = ["preprocess", "--manifest", str(pipeline["dataset"] / "manifest.json")]
    cases = [
        (simulate, "--pairs", "0", "must be a whole number of at least 1, not '0'"),
        (simulate, "--trials-per-class", "-3", "must be a whole number of at least 1, not '-3'"),
        (simulate, "--trials-per-class", "2.5", "must be a whole number of at least 1, not '2.5'"),
        (simulate, "--pair-variation", "-0.1", "must be a finite number of at least 0, not '-0.1'"),
        (simulate, "--pair-variation", "nan", "must be a finite number of at least 0, not 'nan'"),
        (simulate, "--pair-variation", "inf", "must be a finite number of at least 0, not 'inf'"),
        (preprocess, "--target-len", "0", "must be a whole number of at least 1, not '0'"),
    ]
    for i, (command, flag, value, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, flag, value, "--out", str(out)])
        assert exc.value.code == 2, (flag, value)
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists(), (flag, value)


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


@pytest.mark.parametrize("damage, reason", [
    ("corrupt-byte", "checksum mismatch"),
    ("label-13", "invalid trial: label 13 out of range at index 47"),
    ("backwards", "invalid trial: non-monotone timestamp"),
    ("non-finite", "invalid trial: noise is not finite at index 46"),
    ("unlabeled", "unlabeled trial; preprocess needs labels"),
    ("one-tx", "186 feature columns, not the 366 of dims (2, 3, 30)"),
    ("missing", "[Errno 2] No such file or directory"),
], ids=["corrupt-byte", "label-13", "backwards", "non-finite", "unlabeled", "one-tx", "missing"])
def test_preprocess_reports_unreadable_trials(pipeline, tmp_path, capsys, damage, reason):
    # preprocess takes the trials classify takes, and only labeled ones
    clone = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], clone)
    victim = clone / "trials" / "pair00-pushing-02.trial"
    trial = read_trial(victim)
    if damage == "corrupt-byte":
        raw = bytearray(victim.read_bytes())
        raw[100] ^= 0xFF
        victim.write_bytes(bytes(raw))
    elif damage == "label-13":
        labels = trial.labels.copy()
        labels[-1] = 13
        write_trial(dataclasses.replace(trial, labels=labels), victim)
    elif damage == "backwards":
        write_trial(dataclasses.replace(trial, timestamps=trial.timestamps[::-1].copy()), victim)
    elif damage == "non-finite":
        noise = trial.noise.copy()
        noise[-2] = np.nan
        write_trial(dataclasses.replace(trial, noise=noise), victim)
    elif damage == "unlabeled":
        write_trial(dataclasses.replace(trial, labeled=False), victim)
    elif damage == "one-tx":
        write_trial(dataclasses.replace(trial, csi=trial.csi[:, :1].copy()), victim)
    else:
        victim.unlink()

    rc = cli.main([
        "preprocess", "--manifest", str(clone / "manifest.json"),
        "--target-len", "40", "--out", str(tmp_path / "f"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"could not read 1 trial file(s):\n  {victim}: {reason}" in err
    # every other trial is written, and the split and scaler leave the bad one
    # out: the outputs are those of a manifest that never listed it
    manifest = json.loads((clone / "manifest.json").read_text())
    manifest["trials"] = [e for e in manifest["trials"] if e["trial_id"] != victim.stem]
    (clone / "without.json").write_text(json.dumps(manifest))
    assert cli.main([
        "preprocess", "--manifest", str(clone / "without.json"),
        "--target-len", "40", "--out", str(tmp_path / "g"),
    ]) == 0
    want = {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()}
    assert f"{victim.stem}.csv" not in want and "scaler.json" in want and "splits.json" in want
    assert {p.name: p.read_bytes() for p in (tmp_path / "f").iterdir()} == want


def test_preprocess_parallel_matches_serial(pipeline, tmp_path):
    par = tmp_path / "par"
    assert cli.main([
        "preprocess", "--manifest", str(pipeline["dataset"] / "manifest.json"),
        "--target-len", "40", "--out", str(par), "--jobs", "2",
    ]) == 0
    first = pipeline["features"]
    assert sorted(p.name for p in par.iterdir()) == sorted(p.name for p in first.iterdir())
    for path in sorted(first.iterdir()):
        assert (par / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("rows", [40, 41])
@pytest.mark.parametrize("width", [1, 7, 23])
def test_the_scaler_fit_by_column_blocks_equals_one_fit_of_the_pool(monkeypatch, rows, width):
    # preprocess spills each trial's matrix transposed and fits a block of
    # columns at a time; the scaler must be that of the stacked pool rows
    rng = np.random.default_rng(rows)
    trials = [rng.integers(0, 4, (rows, 23)) * 0.25 for _ in range(5)]  # ties everywhere
    for m in trials:
        m[:, 5] = rng.standard_normal(rows)
        m[:, 9] = 7.5  # zero IQR
        m[: 3 * rows // 4 + 2, 16] = -1.0  # zero IQR, a few other values
    pool = [0, 2, 3]  # an odd row count at 41 rows, even at 40
    monkeypatch.setattr(cli, "FIT_BLOCK_BYTES", 8 * rows * len(pool) * width)
    blocks = []
    monkeypatch.setattr(cli, "robust_fit", lambda m: blocks.append(m.shape) or robust_fit(m))
    with tempfile.TemporaryFile() as file:
        spill = RowSpill(file, (23, rows))
        for m in trials:
            spill.append(m.T)
        fitted = cli._fit_spilled(spill, pool)
    whole = robust_fit(np.vstack([trials[k] for k in pool]))
    assert blocks == [(rows * len(pool), min(width, 23 - start)) for start in range(0, 23, width)]
    assert whole.degenerate[[9, 16]].all()
    for name in ("median", "iqr", "degenerate"):
        assert getattr(fitted, name).tobytes() == getattr(whole, name).tobytes(), name


def _manifest_of(pipeline, tmp_path, name, keep, missing=lambda tid: False):
    """A manifest in ``tmp_path`` over the fixture's trials whose id ``keep``
    accepts, with those ``missing`` accepts pointing at no file."""
    manifest = json.loads((pipeline["dataset"] / "manifest.json").read_text())
    manifest["trials"] = [e for e in manifest["trials"] if keep(e["trial_id"])]
    for entry in manifest["trials"]:
        if missing(entry["trial_id"]):
            entry["path"] = f"trials/gone-{entry['trial_id']}.trial"
    (tmp_path / "trials").symlink_to(pipeline["dataset"] / "trials")
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return path, [e["trial_id"] for e in manifest["trials"]]


def test_preprocess_memory_does_not_grow_with_the_corpus(pipeline, tmp_path, monkeypatch):
    # preprocess holds one trial's frame and one column block of the fit at a
    # time, so 4x the trials may add less than one more frame and block
    frame_bytes = 40 * 366 * 8  # a trial's unscaled (target_len, F) float64 matrix
    monkeypatch.setattr(cli, "FIT_BLOCK_BYTES", frame_bytes)
    peaks = {}
    for per_class in (1, 1, 4):  # the first run warms lazy first-call state
        run = tmp_path / f"run{len(peaks)}-{per_class}"
        run.mkdir()
        manifest, ids = _manifest_of(pipeline, run, "m.json", lambda t: int(t[-2:]) < per_class)
        assert len(ids) == 3 * per_class
        tracemalloc.start()
        try:
            assert cli.main([
                "preprocess", "--manifest", str(manifest), "--target-len", "40",
                "--out", str(run / "f"),
            ]) == 0
            peaks[per_class] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] - peaks[1] < frame_bytes + cli.FIT_BLOCK_BYTES, peaks


@pytest.mark.parametrize("command", ["preprocess", "classify", "train"])
def test_a_read_loop_holds_no_earlier_frame_at_the_next_read(pipeline, tmp_path, monkeypatch, command):
    # each file's frame is dropped, by _per_file and by the loop that takes
    # it, before the next file is read, so two frames never coexist
    refs, alive = [], []

    def spy(read):
        def reader(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            value = read(*args, **kwargs)
            refs.append(weakref.ref(value if command == "train" else value[2]))
            return value
        return reader

    if command == "train":
        monkeypatch.setattr(cli.dataio, "import_feature_csv", spy(cli.dataio.import_feature_csv))
    else:
        monkeypatch.setattr(cli, "_read_frame", spy(cli._read_frame))
    argv = {
        "preprocess": ["--manifest", str(pipeline["dataset"] / "manifest.json"), "--target-len", "40"],
        "classify": ["--weights", str(pipeline["models"]), "--input", str(pipeline["test_dir"])],
        "train": ["--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
                  "--train-cfg", str(pipeline["traincfg"])],
    }[command]
    assert cli.main([command, *argv, "--out", str(tmp_path / "out")]) == 0
    assert len(alive) == {"preprocess": 15, "classify": 3, "train": 12}[command]
    assert alive == [0] * len(alive)


@pytest.mark.parametrize("bad", ["none", "one", "all"])
def test_preprocess_leaves_only_its_artifacts_in_out(pipeline, tmp_path, bad):
    # the unscaled matrices wait in an unnamed file, gone however the run ends
    missing = {"none": lambda t: False, "one": lambda t: t == "pair00-pushing-02", "all": lambda t: True}[bad]
    manifest, ids = _manifest_of(pipeline, tmp_path, "m.json", lambda t: True, missing)
    out = tmp_path / "f"
    rc = cli.main(["preprocess", "--manifest", str(manifest), "--target-len", "40", "--out", str(out)])
    assert rc == (0 if bad == "none" else 2)
    written = {f"{tid}.csv" for tid in ids if not missing(tid)}
    assert len(written) == {"none": 15, "one": 14, "all": 0}[bad]
    expected = written | {"scaler.json", "splits.json"} if written else set()
    assert {p.name for p in out.iterdir()} == expected


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


def test_train_leaves_only_its_artifacts_in_out(pipeline):
    # the pool waited in an unnamed file under --out, gone when train ends
    expected = {f"fold{k}{suffix}" for k in range(2) for suffix in (".weights", "_history.csv")}
    assert {p.name for p in pipeline["models"].iterdir()} == expected | {"folds.json"}


def _features_with_a_pool_of(pipeline, root, size):
    """A features directory under ``root`` whose split pools ``size`` trials,
    each a copy of one of the fixture's pool CSVs, in turn."""
    features = pipeline["features"]
    root.mkdir()
    shutil.copy(features / "scaler.json", root / "scaler.json")
    pool = sorted(pipeline["split"].train + pipeline["split"].val)
    record = json.loads((features / "splits.json").read_text())
    record["train"], record["val"] = [f"{pool[i % len(pool)]}-{i:02d}" for i in range(size)], []
    for i, tid in enumerate(record["train"]):
        (root / f"{tid}.csv").symlink_to(features / f"{pool[i % len(pool)]}.csv")
    (root / "splits.json").write_text(json.dumps(record))
    return root


def test_train_memory_does_not_grow_with_the_pool(pipeline, tmp_path, monkeypatch):
    # train holds one batch or validation chunk of its pool at a time (both
    # 4 rows here), so 4x the trials may add less than one more batch and frame
    frame_bytes = 40 * 366 * 8  # a trial's (target_len, F) float64 matrix
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 4)
    peaks = {}
    for size in (8, 8, 32):  # the first run warms lazy first-call state
        run = tmp_path / f"run{len(peaks)}-{size}"
        run.mkdir()
        features = _features_with_a_pool_of(pipeline, run / "features", size)
        tracemalloc.start()
        try:
            assert cli.main([
                "train", "--features", str(features), "--arch", str(pipeline["arch"]),
                "--train-cfg", str(pipeline["traincfg"]), "--out", str(run / "m"),
            ]) == 0
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(load_split(run / "m" / "folds.json").folds[0]) == 16
    assert peaks[32] - peaks[8] < 5 * frame_bytes, peaks


def test_train_missing_arch_file(pipeline, tmp_path, capsys):
    rc = cli.main([
        "train", "--features", str(pipeline["features"]),
        "--arch", str(tmp_path / "nope.ini"), "--train-cfg", str(pipeline["traincfg"]),
        "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("flag, content", [
    ("--arch", b"scale_factor = 64\n"),
    ("--train-cfg", b"[train]\nepochs = 2\nepochs = 3\n"),
    ("--arch", b"[arch]\nscale_factor = \xff\n"),
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
    assert f"error: {arch}: [arch] has unknown key 'dense_activation'" in err
    assert "no preprocessed features" not in err


def _run_with_key(pipeline, tmp_path, name, section, key, value):
    """Run the command that reads the shipped config ``name`` (simulate for a
    profile file, train for an arch or train file) with ``key = value`` set in
    its ``[section]``.  Returns the exit status, that config and --out."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(Path("configs", name))
    parser[section][key] = value
    config = tmp_path / name
    with open(config, "w") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    if name.startswith("profiles"):
        return cli.main(["simulate", "--profiles", str(config), "--out", str(out)]), config, out
    arch = config if name.startswith("arch") else "configs/arch-desk.ini"
    train = config if name.startswith("train") else "configs/train-desk.ini"
    rc = cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", str(arch), "--train-cfg", str(train),
        "--out", str(out),
    ])
    return rc, config, out


# each retired key with the value the shipped files gave it
RETIRED_KEYS = [
    ("arch-desk.ini", "arch", "seq_len", "156"),
    ("arch-full.ini", "arch", "feature_dim", "366"),
    ("arch-desk.ini", "arch", "skip_pre", "0.7"),
    ("arch-desk.ini", "arch", "skip_att", "0.3"),
    ("arch-full.ini", "arch", "dense_activation", "relu"),
    ("train-desk.ini", "train", "lr_factor", "0.5"),
    ("train-full.ini", "train", "min_lr", "1e-6"),
    ("profiles.ini", "meta", "jitter", "0.08"),
]


@pytest.mark.parametrize("name, section, key, value", RETIRED_KEYS, ids=[row[2] for row in RETIRED_KEYS])
def test_a_retired_key_exits_2_before_anything_is_written(
    pipeline, tmp_path, capsys, monkeypatch, name, section, key, value
):
    read = []
    monkeypatch.setattr(cli.dataio, "import_feature_csv", read.append)
    rc, config, out = _run_with_key(pipeline, tmp_path, name, section, key, value)
    assert rc == 2
    assert f"error: {config}: [{section}] has unknown key '{key}'" in capsys.readouterr().err
    assert read == [] and not out.exists()


@pytest.mark.parametrize("name, section, key, value", [
    ("profiles-3class.ini", "meta", "packet_rate", "nan"),
    ("profiles-3class.ini", "meta", "packet_rate", "inf"),
    ("profiles-3class.ini", "meta", "csi_noise", "nan"),
    ("profiles-3class.ini", "meta", "csi_noise", "inf"),
    ("profiles-3class.ini", "pushing", "phase_drift", "nan"),
    ("train-desk.ini", "train", "lr", "nan"),
    ("arch-desk.ini", "arch", "dropout1", "-inf"),
], ids=["packet_rate-nan", "packet_rate-inf", "csi_noise-nan", "csi_noise-inf", "phase_drift-nan", "lr-nan",
        "dropout1-minus-inf"])
def test_a_non_finite_config_float_exits_2_before_anything_is_written(
    pipeline, tmp_path, capsys, monkeypatch, name, section, key, value
):
    # float() reads nan and inf, which no range check then refuses
    read = []
    monkeypatch.setattr(cli.dataio, "import_feature_csv", read.append)
    rc, config, out = _run_with_key(pipeline, tmp_path, name, section, key, value)
    assert rc == 2
    assert f"error: {config}: [{section}] {key} = '{value}' is not a finite number" in capsys.readouterr().err
    assert read == [] and not out.exists()


def test_train_takes_the_input_shape_from_the_features(pipeline, tmp_path):
    # the fixture's 40-packet features and the shipped desk arch, which
    # states no sequence length: 40-packet bundles and 40-row predictions
    models, predictions = tmp_path / "models", tmp_path / "predictions"
    assert cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", "configs/arch-desk.ini",
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(models),
    ]) == 0
    arch = load_weights(models / "fold0.weights").arch
    assert (arch.seq_len, arch.feature_dim, arch.scale_factor) == (40, 366, 16)
    assert cli.main([
        "classify", "--weights", str(models), "--input", str(pipeline["test_dir"]), "--out", str(predictions),
    ]) == 0
    files = sorted(predictions.glob("*.csv"))
    assert [f.stem for f in files] == sorted(pipeline["split"].test)
    for f in files:
        assert read_predictions(f).per_fold.shape == (2, 40)


def test_train_rejects_a_negative_seed_before_writing_anything(pipeline, tmp_path, capsys):
    cfg = tmp_path / "train.ini"
    cfg.write_text("[train]\nepochs = 1\nbatch = 4\nfolds = 2\nseed = -1\n")
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(cfg), "--out", str(out),
    ])
    assert rc == 2
    assert f"error: {cfg}: [train] seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_labels_beyond_the_arch_classes_before_any_epoch(pipeline, tmp_path, capsys):
    # the fixture's features label pushing as 12, which a 3-class network cannot predict
    arch = tmp_path / "arch.ini"
    arch.write_text(MICRO_ARCH + "classes = 3\n")
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", str(arch),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    pool = sorted(pipeline["split"].train + pipeline["split"].val)
    pushing = [pipeline["features"] / f"{tid}.csv" for tid in pool if _class_of(tid) == "pushing"]
    assert f"error: could not pool {len(pushing)} feature file(s)" in err
    for path in pushing:
        assert f"  {path}: labels reach 12, but the network has 3 classes" in err
    assert "epoch" not in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["repeated", "shared"])
def test_train_refuses_a_split_that_lists_a_trial_twice(pipeline, tmp_path, capsys, monkeypatch, damage):
    # a test trial added to train would be trained on; the split is refused
    # before any feature CSV is read or --out is made
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    record = json.loads((features / "splits.json").read_text())
    record["train"].append(record["train"][0] if damage == "repeated" else record["test"][0])
    (features / "splits.json").write_text(json.dumps(record))
    read = []
    monkeypatch.setattr(cli.dataio, "import_feature_csv", read.append)
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{features / 'splits.json'}: bad split spec file" in err
    assert "more than once across train, val and test" in err
    assert read == []
    assert not out.exists()


def test_train_refuses_a_scaler_of_another_width_before_any_epoch(pipeline, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    width = load_scaler(features / "scaler.json").median.size
    save_scaler(robust_fit(np.ones((4, width + 1))), features / "scaler.json")
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    pool = [features / f"{tid}.csv" for tid in sorted(pipeline["split"].train + pipeline["split"].val)]
    assert f"error: could not pool {len(pool)} feature file(s)" in err
    for path in pool:
        assert (
            f"  {path}: feature shape (40, {width}) does not match (40, {width + 1}), "
            f"the rows most pool CSVs have by the scaler's width\n"
        ) in err
    assert "epoch" not in err
    assert not out.exists()


@pytest.mark.parametrize("cut", [0, 5], ids=["first", "later"])
def test_train_names_a_feature_csv_cut_by_a_row(pipeline, tmp_path, capsys, cut):
    # the pool's shape is the rows most pool CSVs have by the scaler's width:
    # the short CSV alone is named, whether it is read first or later
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    pool = [features / f"{tid}.csv" for tid in sorted(pipeline["split"].train + pipeline["split"].val)]
    victim = pool[cut]
    victim.write_text("".join(victim.read_text().splitlines(keepends=True)[:-1]))
    width = load_scaler(features / "scaler.json").median.size
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"error: could not pool 1 feature file(s):\n  {victim}: feature shape (39, {width}) does not match "
        f"(40, {width}), the rows most pool CSVs have by the scaler's width\n"
    )
    assert not re.search(r"^fold \d+ epoch", err, re.M)
    assert not out.exists()


def test_train_names_unreadable_and_unpoolable_csvs_under_their_own_headers(pipeline, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    pool = [features / f"{tid}.csv" for tid in sorted(pipeline["split"].train + pipeline["split"].val)]
    missing, short = pool[0], pool[1]
    missing.unlink()
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:-1]))
    width = load_scaler(features / "scaler.json").median.size
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: could not read 1 feature file(s):\n  {missing}: [Errno 2] No such file or directory\n"
        f"could not pool 1 feature file(s):\n  {short}: feature shape (39, {width}) does not match "
        f"(40, {width}), the rows most pool CSVs have by the scaler's width\n"
    )
    assert not (tmp_path / "m").exists()


def test_train_refuses_a_split_with_an_empty_pool(pipeline, tmp_path, capsys):
    # no feature CSV to read: kfold_assign refuses the pool before --out is made
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    record = json.loads((features / "splits.json").read_text())
    record["train"], record["val"] = [], []
    (features / "splits.json").write_text(json.dumps(record))
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: cannot build 2 folds from 0 trials\n"
    assert not out.exists()


def test_train_short_of_disk_for_its_pool_exits_2_and_removes_out(pipeline, tmp_path, capsys, monkeypatch):
    def full(self, row):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.RowSpill, "append", full)
    out = tmp_path / "m"
    rc = cli.main([
        "train", "--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not out.exists()


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
    assert not (tmp_path / "m").exists()


def test_train_names_every_unreadable_feature_csv(pipeline, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    first, second = (features / f"{tid}.csv" for tid in sorted(pipeline["split"].train)[:2])
    lines = first.read_text().splitlines()
    lines[3] = lines[3].rpartition(",")[0] + ",20"  # a label that is no class code
    first.write_text("\n".join(lines) + "\n")
    second.unlink()
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "could not read 2 feature file(s)" in err
    assert f"{first}: the label column holds 20, not a class code 0..12" in err
    assert f"{second}: [Errno 2]" in err
    second_line = next(line for line in err.splitlines() if f"{second}:" in line)
    assert second_line.count(str(second)) == 1
    assert not list((tmp_path / "m").glob("*.weights"))


def test_train_names_a_feature_csv_that_is_not_utf8(pipeline, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(pipeline["features"], features)
    victim = features / f"{sorted(pipeline['split'].train)[0]}.csv"
    victim.write_bytes(victim.read_bytes() + b"\xff\n")
    rc = cli.main([
        "train", "--features", str(features), "--arch", str(pipeline["arch"]),
        "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert f"could not read 1 feature file(s):\n  {victim}: not UTF-8 text" in capsys.readouterr().err


# each JSON record the pipeline reads, with one field and a value of the wrong type for it
_JSON_FILES = {"manifest.json": ("dims", 5), "scaler.json": ("median", "abc"), "splits.json": ("train", 5)}


@pytest.mark.parametrize("name", sorted(_JSON_FILES))
@pytest.mark.parametrize("damage", ["array", "string", "wrong-type"])
def test_a_malformed_json_record_exits_2_naming_the_file(pipeline, tmp_path, capsys, name, damage):
    if name == "manifest.json":
        (tmp_path / "trials").symlink_to(pipeline["dataset"] / "trials")
        path = tmp_path / name
        record = json.loads((pipeline["dataset"] / name).read_text())
        argv = ["preprocess", "--manifest", str(path), "--target-len", "40", "--out", str(tmp_path / "f")]
    else:
        shutil.copytree(pipeline["features"], tmp_path / "features")
        path = tmp_path / "features" / name
        record = json.loads(path.read_text())
        argv = [
            "train", "--features", str(tmp_path / "features"), "--arch", str(pipeline["arch"]),
            "--train-cfg", str(pipeline["traincfg"]), "--out", str(tmp_path / "m"),
        ]
    field, value = _JSON_FILES[name]
    path.write_text(json.dumps({"array": [], "string": "text", "wrong-type": {**record, field: value}}[damage]))
    assert cli.main(argv) == 2
    assert re.search(rf"^error: {re.escape(str(path))}: bad \w[\w ]* file: ", capsys.readouterr().err, re.M)


FROZEN_HISTORY = [
    {"epoch": 1, "loss": 2.5649493574615367, "acc": 0.1, "precision": 1.0 / 3.0,
     "recall": 0.0, "lr": 0.003},
    {"epoch": 2, "loss": np.float64(1e-7), "acc": np.float64(2.0 / 3.0), "precision": 5e-324,
     "recall": 1.0, "lr": 0.003 * 0.5},
    {"epoch": 10, "loss": 123456789.0, "acc": -0.0, "precision": 0.95,
     "recall": np.float64(0.123456789123), "lr": 1e-06},
]


def test_train_history_bytes_are_frozen(pipeline, tmp_path, monkeypatch):
    def fixed_kfold(x, labels, folds, arch, cfg, on_epoch=None):
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


def test_classify_missing_input(pipeline, tmp_path, capsys, monkeypatch):
    # --input is resolved before any bundle is loaded
    loaded = []
    monkeypatch.setattr(cli, "load_weights", loaded.append)
    rc = cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(tmp_path / "ghost.trial"), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert "input not found" in capsys.readouterr().err
    assert loaded == []


class _FoldIdModel:
    """Stands in for a bundle's model: its fold id is the likeliest class at
    every packet."""

    def __init__(self, bundle):
        self.fold_id = bundle.fold_id

    def predict(self, x, rows):
        probs = np.zeros((*x[rows].shape[:2], self.fold_id + 1))
        probs[..., self.fold_id] = 1.0
        return probs


def test_classify_orders_fold_columns_by_fold_id(pipeline, tmp_path, monkeypatch):
    # with 11 folds, fold10.weights sorts before fold2.weights by name
    bundle = load_weights(pipeline["models"] / "fold0.weights")
    models = tmp_path / "models"
    models.mkdir()
    for fold_id in range(11):
        save_weights(dataclasses.replace(bundle, fold_id=fold_id), models / f"fold{fold_id}.weights")
    monkeypatch.setattr(cli, "model_from_weights", _FoldIdModel)
    tid = pipeline["split"].test[0]
    out = tmp_path / "p"
    assert cli.main([
        "classify", "--weights", str(models),
        "--input", str(pipeline["test_dir"] / f"{tid}.trial"), "--out", str(out),
    ]) == 0
    per_fold = read_predictions(out / f"{tid}.csv").per_fold
    assert per_fold.shape == (11, 40)
    assert np.array_equal(per_fold, np.repeat(np.arange(11)[:, None], 40, axis=1))


def test_classify_unlabeled_trial(pipeline, tmp_path):
    # an unlabeled copy of every test trial must get the labeled copy's
    # predictions; approaching, whose dwell is at the tail, is among them
    tids = pipeline["split"].test
    assert "approaching" in {_class_of(tid) for tid in tids}
    blind_dir = tmp_path / "blind"
    blind_dir.mkdir()
    for tid in tids:
        trial = read_trial(pipeline["test_dir"] / f"{tid}.trial")
        write_trial(dataclasses.replace(trial, labeled=False), blind_dir / f"{tid}.trial")
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


def test_classify_short_trial_exits_2(pipeline, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "short.trial"
    body = (pipeline["test_dir"] / f"{pipeline['split'].test[0]}.trial").read_bytes()[:10]
    bad.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    built = []  # with no trial read, no fold model is built
    spy = lambda bundle: built.append(bundle.fold_id) or model_from_weights(bundle)
    monkeypatch.setattr(cli, "model_from_weights", spy)
    rc = cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(bad), "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert f"{bad}: truncated" in capsys.readouterr().err
    assert built == []


def _classify_with_a_damaged_bundle(pipeline, tmp_path, monkeypatch, damage):
    """Classify the test trials with fold1.weights damaged by ``damage``,
    which rewrites that file; returns the exit status, the trial files read
    and the bundle's path.  Trials are read in this process (--jobs 1)."""
    models = tmp_path / "models"
    shutil.copytree(pipeline["models"], models)
    path = models / "fold1.weights"
    damage(path)
    reads = []
    read_trial = cli.dataio.read_trial
    monkeypatch.setattr(cli.dataio, "read_trial", lambda p: reads.append(p) or read_trial(p))
    rc = cli.main([
        "classify", "--weights", str(models),
        "--input", str(pipeline["test_dir"]), "--out", str(tmp_path / "p"),
    ])
    return rc, reads, path


def _other_scaler(path):
    bundle = load_weights(path)
    bundle.scaler.median = bundle.scaler.median + 5.0
    save_weights(bundle, path)


def _other_arch(path):
    bundle = load_weights(path)
    save_weights(dataclasses.replace(bundle, arch=dataclasses.replace(bundle.arch, dropout1=0.1)), path)


def _flipped_byte(path):
    body = bytearray(path.read_bytes())
    body[len(body) // 2] ^= 0x01
    path.write_bytes(bytes(body))


def test_classify_rejects_bundles_with_different_scalers(pipeline, tmp_path, capsys, monkeypatch):
    # refused before any trial is read or --out is made
    rc, reads, path = _classify_with_a_damaged_bundle(pipeline, tmp_path, monkeypatch, _other_scaler)
    assert rc == 2
    assert f"{path}: weight bundles disagree on the feature scaler" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("damage, reason", [
    (_other_arch, "weight bundles disagree on architecture"),
    (_flipped_byte, "checksum mismatch; file is corrupted or truncated"),
], ids=["arch", "flipped-byte"])
def test_classify_refuses_a_bad_bundle_before_reading_a_trial(pipeline, tmp_path, capsys, monkeypatch, damage, reason):
    rc, reads, path = _classify_with_a_damaged_bundle(pipeline, tmp_path, monkeypatch, damage)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert reads == []
    assert not (tmp_path / "p").exists()


def test_classify_builds_each_model_once_in_the_calling_process(pipeline, tmp_path, monkeypatch):
    # one trial per chunk, over two jobs: still one model per bundle, built here
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 1)
    built = []

    def counting(bundle):
        built.append(bundle.fold_id)
        return model_from_weights(bundle)

    monkeypatch.setattr(cli, "model_from_weights", counting)
    out = tmp_path / "p"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(pipeline["test_dir"]), "--out", str(out), "--jobs", "2",
    ]) == 0
    assert built == [0, 1]
    for path in sorted(pipeline["predictions"].glob("*.csv")):
        assert (out / path.name).read_bytes() == path.read_bytes()


def test_classify_holds_one_model_and_one_bundle_block_at_a_time(pipeline, tmp_path, monkeypatch):
    # three bundles whose file order is not their fold order, one trial per
    # predict: the check pass and every fold free their block before the next
    # bundle loads, and each model is gone before the next is built
    fixture = [load_weights(pipeline["models"] / f"fold{k}.weights") for k in range(2)]
    extra = weights_from_model(build(fixture[0].arch, seed=9), 0, 9, scaler=fixture[0].scaler)
    models = tmp_path / "models"
    models.mkdir()
    for name, bundle, fold_id in (("a", fixture[1], 2), ("b", extra, 0), ("c", fixture[0], 1)):
        save_weights(dataclasses.replace(bundle, fold_id=fold_id), models / f"{name}.weights")
    test_paths = sorted(pipeline["test_dir"].glob("*.trial"))
    assert len(test_paths) >= 2

    # the expected files, from one model per bundle and one frame per trial
    want = tmp_path / "want"
    want.mkdir()
    nets = [model_from_weights(b) for b in (extra, fixture[0], fixture[1])]
    for path in test_paths:
        _, labeled, frame = cli._read_frame(path, seq_len=40, scaler=extra.scaler)
        per_fold = np.stack([np.argmax(net.predict(frame.matrix[None], [0])[0], axis=-1) for net in nets])
        ensembled = ensemble_mode(per_fold)
        trace = PredictionTrace(path.stem, per_fold, ensembled, smooth(ensembled), frame.labels)
        write_predictions(trace, want / f"{path.stem}.csv")
    del nets

    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 1)
    blocks, built, alive = [], [], []

    def loading(path):
        bundle = load_weights(path)
        blocks.append(weakref.ref(bundle.values))
        return bundle

    def building(bundle):
        alive.append((sum(ref() is not None for ref in blocks), sum(ref() is not None for _, ref in built)))
        model = model_from_weights(bundle)
        built.append((bundle.fold_id, weakref.ref(model)))
        return model

    monkeypatch.setattr(cli, "load_weights", loading)
    monkeypatch.setattr(cli, "model_from_weights", building)
    out = tmp_path / "p"
    assert cli.main(["classify", "--weights", str(models), "--input", str(pipeline["test_dir"]), "--out", str(out)]) == 0
    assert [fold_id for fold_id, _ in built] == [0, 1, 2]
    assert len(blocks) == 6  # each bundle is loaded by the check pass and by its fold
    assert alive == [(1, 0)] * 3  # (bundle blocks, models) alive as each model is built
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_classify_runs_one_inference_forward_per_fold_and_chunk(pipeline, tmp_path, monkeypatch, chunk):
    # predict is classify's one forward: folds x ceil(trials / chunk) calls,
    # none of them a training forward, and the same bytes at every chunk
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: chunk)
    calls = []
    forward = model_module.SequenceClassifier.forward

    def counting(self, x, training=False):
        calls.append(training)
        return forward(self, x, training)

    monkeypatch.setattr(model_module.SequenceClassifier, "forward", counting)
    out = tmp_path / "p"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]), "--input", str(pipeline["test_dir"]), "--out", str(out),
    ]) == 0
    trials = len(list(pipeline["test_dir"].glob("*.trial")))
    folds = len(list(pipeline["models"].glob("*.weights")))
    assert calls == [False] * folds * math.ceil(trials / chunk)
    for path in sorted(pipeline["predictions"].glob("*.csv")):
        assert (out / path.name).read_bytes() == path.read_bytes()


def test_classify_opens_one_worker_pool_for_the_whole_command(pipeline, tmp_path, monkeypatch):
    # one trial per chunk: every chunk is read by the same pool of two workers
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 1)
    pools = []

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    out = tmp_path / "p"
    assert len(list(pipeline["test_dir"].glob("*.trial"))) >= 3
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(pipeline["test_dir"]), "--out", str(out), "--jobs", "2",
    ]) == 0
    assert pools == [2]
    want = sorted(pipeline["predictions"].glob("*.csv"))  # written by --jobs 1
    assert sorted(p.name for p in out.glob("*.csv")) == [p.name for p in want]
    for path in want:
        assert (out / path.name).read_bytes() == path.read_bytes()


def test_classify_models_hold_their_bundles_bytes_and_are_freed_on_return(pipeline, tmp_path, monkeypatch):
    # each model's store is its bundle's read-only block, not a second copy
    # of the parameters, and no model or bundle outlives the command
    bundles, models, views = [], [], []

    def tracking(bundle):
        model = model_from_weights(bundle)
        bundles.append(weakref.ref(bundle))
        models.append(weakref.ref(model))
        views.append(model.store.values is bundle.values and not bundle.values.flags.writeable)
        return model

    monkeypatch.setattr(cli, "model_from_weights", tracking)
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(pipeline["test_dir"]), "--out", str(tmp_path / "p"),
    ]) == 0
    assert views == [True, True]
    assert [ref() for ref in models] == [None, None]
    assert [ref() for ref in bundles] == [None, None]


def test_classify_parallel_matches_serial(pipeline, tmp_path, monkeypatch):
    # chunks of two trials, so that both workers classify a chunk
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 2)
    par = tmp_path / "par"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(pipeline["test_dir"]), "--out", str(par), "--jobs", "2",
    ]) == 0
    for path in sorted(pipeline["predictions"].glob("*.csv")):
        assert (par / path.name).read_bytes() == path.read_bytes()


def test_classify_split_input_matches_one_chunk(pipeline, tmp_path):
    # the fixture classified its three test trials in one chunk; here one
    # chunk holds a single trial and another the other two
    want = {p.name: p.read_bytes() for p in pipeline["predictions"].glob("*.csv")}
    tids = sorted(pipeline["split"].test)
    alone, rest, split = tmp_path / "alone", tmp_path / "rest", tmp_path / "split"
    for d, names in ((alone, tids[:1]), (rest, tids[1:])):
        d.mkdir()
        for tid in names:
            shutil.copy(pipeline["test_dir"] / f"{tid}.trial", d)
        assert cli.main([
            "classify", "--weights", str(pipeline["models"]), "--input", str(d), "--out", str(split),
        ]) == 0
    assert {p.name: p.read_bytes() for p in split.glob("*.csv")} == want


def test_classify_skips_bad_trials_and_writes_the_rest(pipeline, tmp_path, capsys):
    trials = tmp_path / "trials"
    shutil.copytree(pipeline["test_dir"], trials)
    # sorted first: a truncated file, and one whose timestamps run backwards
    short = trials / "aaa-short.trial"
    body = (pipeline["test_dir"] / f"{pipeline['split'].test[0]}.trial").read_bytes()[:10]
    short.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    trial = read_trial(pipeline["test_dir"] / f"{pipeline['split'].test[0]}.trial")
    backwards = trials / "aab-backwards.trial"
    write_trial(dataclasses.replace(trial, timestamps=trial.timestamps[::-1].copy()), backwards)
    out = tmp_path / "p"
    rc = cli.main(["classify", "--weights", str(pipeline["models"]), "--input", str(trials), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "skipped 2 trial file(s)" in err
    assert f"{short}: truncated" in err
    assert f"{backwards}: invalid trial: non-monotone timestamp" in err
    # each trial is read once, so a bad one is named once, not once per fold
    assert err.count(str(short)) == err.count(str(backwards)) == 1
    want = {p.name: p.read_bytes() for p in pipeline["predictions"].glob("*.csv")}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == want


def test_classify_leaves_only_prediction_csvs_in_out(pipeline, tmp_path):
    # the scaled frames wait in an unnamed file, gone when the run ends
    out = tmp_path / "p"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]), "--input", str(pipeline["test_dir"]), "--out", str(out),
    ]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in pipeline["predictions"].glob("*.csv"))


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
    write_trial(dataclasses.replace(trial, labeled=False), blind_dir / "anon.trial")
    pred = tmp_path / "pred"
    assert cli.main([
        "classify", "--weights", str(pipeline["models"]),
        "--input", str(blind_dir), "--out", str(pred),
    ]) == 0
    rc = cli.main(["evaluate", "--predictions", str(pred), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "no true labels" in capsys.readouterr().err


def test_evaluate_scores_the_labeled_and_names_the_unlabeled(pipeline, tmp_path, capsys):
    mixed, labeled = tmp_path / "mixed", tmp_path / "labeled"
    shutil.copytree(pipeline["predictions"], mixed)
    shutil.copytree(pipeline["predictions"], labeled)
    victim = sorted(mixed.glob("*.csv"))[0]
    write_predictions(dataclasses.replace(read_predictions(victim), true_labels=None), victim)
    (labeled / victim.name).unlink()

    rc = cli.main(["evaluate", "--predictions", str(mixed), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert f"skipped 1 prediction file(s):\n  {victim}: carries no true labels" in capsys.readouterr().err
    assert cli.main(["evaluate", "--predictions", str(labeled), "--out", str(tmp_path / "want")]) == 0
    assert (tmp_path / "r" / "metrics.csv").read_bytes() == (tmp_path / "want" / "metrics.csv").read_bytes()


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


def test_evaluate_and_report_skip_a_bad_prediction_csv(pipeline, tmp_path, capsys):
    preds = tmp_path / "preds"
    shutil.copytree(pipeline["predictions"], preds)
    victim = sorted(preds.glob("*.csv"))[0]
    victim.write_text("packet_index,fold_0\n")
    good = [p.stem for p in sorted(preds.glob("*.csv"))[1:]]

    rc = cli.main(["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r"), "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"skipped 1 prediction file(s):\n  {victim}: " in captured.err
    payload = json.loads(captured.out)
    assert payload["trials"] == len(good)
    assert payload["skipped"] == [str(victim)]
    assert (tmp_path / "r" / "metrics.csv").exists()

    rc = cli.main(["report", "--predictions", str(preds), "--out", str(tmp_path / "plots")])
    assert rc == 2
    assert f"{victim}: " in capsys.readouterr().err
    assert sorted(p.stem for p in (tmp_path / "plots").glob("*.svg")) == good


def test_evaluate_and_report_skip_a_prediction_csv_that_is_not_utf8(pipeline, tmp_path, capsys):
    preds = tmp_path / "preds"
    shutil.copytree(pipeline["predictions"], preds)
    victim = sorted(preds.glob("*.csv"))[0]
    victim.write_bytes(victim.read_bytes() + b"\xfe\n")
    good = [p.stem for p in sorted(preds.glob("*.csv"))[1:]]

    rc = cli.main(["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r"), "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"skipped 1 prediction file(s):\n  {victim}: not UTF-8 text" in captured.err
    payload = json.loads(captured.out)
    assert payload["trials"] == len(good)
    assert payload["skipped"] == [str(victim)]
    assert (tmp_path / "r" / "metrics.csv").exists()

    rc = cli.main(["report", "--predictions", str(preds), "--out", str(tmp_path / "plots")])
    assert rc == 2
    assert f"skipped 1 prediction file(s):\n  {victim}: not UTF-8 text" in capsys.readouterr().err
    assert sorted(p.stem for p in (tmp_path / "plots").glob("*.svg")) == good


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_prediction_csv_with_a_bad_class_code_is_skipped(pipeline, tmp_path, capsys, command):
    preds = tmp_path / "preds"
    shutil.copytree(pipeline["predictions"], preds)
    victim = sorted(preds.glob("*.csv"))[0]
    lines = victim.read_text().splitlines()
    lines[5] = lines[5].rpartition(",")[0] + ",20"  # the true cell
    victim.write_text("\n".join(lines) + "\n")
    good = [p.stem for p in sorted(preds.glob("*.csv"))[1:]]

    out = tmp_path / "out"
    rc = cli.main([command, "--predictions", str(preds), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"skipped 1 prediction file(s):\n  {victim}: column true holds 20, not a class code 0..12" in err
    if command == "evaluate":
        assert (out / "metrics.csv").exists()
    else:
        assert sorted(p.stem for p in out.glob("*.svg")) == good


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

@pytest.mark.parametrize("command", ["simulate", "preprocess", "train", "classify", "evaluate", "report"])
def test_an_out_that_cannot_be_made_exits_2(pipeline, tmp_path, capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = blocker / "sub"
    inputs = {
        "simulate": ["--profiles", str(pipeline["profiles"]), "--trials-per-class", "1"],
        "preprocess": ["--manifest", str(pipeline["dataset"] / "manifest.json"), "--target-len", "40"],
        "train": ["--features", str(pipeline["features"]), "--arch", str(pipeline["arch"]),
                  "--train-cfg", str(pipeline["traincfg"])],
        "classify": ["--weights", str(pipeline["models"]), "--input", str(pipeline["test_dir"])],
        "evaluate": ["--predictions", str(pipeline["predictions"])],
        "report": ["--predictions", str(pipeline["predictions"])],
    }[command]
    assert cli.main([command, *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: [Errno 20] Not a directory: '{out}" in err  # simulate names its trials/ under out
    assert "Traceback" not in err
    if command == "train":
        assert "epoch" not in err


def test_jobs_flag_rejects_zero(pipeline, tmp_path, capsys):
    # a usage error, raised as the flag is parsed: no command starts its work
    inputs = {
        "simulate": ["--profiles", str(pipeline["profiles"])],
        "preprocess": ["--manifest", str(pipeline["dataset"] / "manifest.json")],
        "classify": ["--weights", str(pipeline["models"]), "--input", str(pipeline["test_dir"])],
    }
    for command, args in inputs.items():
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *args, "--out", str(out), "--jobs", "0"])
        assert exc.value.code == 2
        assert "argument --jobs: must be a whole number of at least 1, not '0'" in capsys.readouterr().err
        assert not out.exists()


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
