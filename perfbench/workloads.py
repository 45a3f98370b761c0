"""The benchmark's workloads: inputs, CLI stages, and output checks.

Each workload drives the real ``csisense`` CLI.  Sizes are fixed per
workload; ``reduced=True`` shrinks them for the harness self-check while
keeping every stage and every check on the same code path.

Why these three:

* ``desk-pipeline`` - the frozen README desk run (3 classes x 20 trials,
  156-packet sequences, 4 folds x 2 epochs).  The only workload with
  backward passes and Adam; its nn work is small-matrix forwards at B=1/B=4,
  where Python overhead dominates.
* ``corpus-full`` - the 13-class corpus at 260 Hz (18,720 packets) through
  simulate and preprocess.  No nn at all: per-packet synthesis, trial I/O,
  featurization and the feature CSV export.
* ``classify-full`` - classify 2 full-length trials with 2 full-width
  (19M-parameter) fold bundles.  BLAS- and T=1560-attention-bound, and the
  one workload where weight loading shows.
"""

from __future__ import annotations

import configparser
import csv
import json
from pathlib import Path

NUM_CLASSES = 13
SHORT_RUN = 5  # label runs shorter than this count as flicker (c06)
C06_MIN_ACCURACY = 0.90


class Workload:
    name = ""
    exercised: tuple[str, ...] = ()  # per-layer metrics that must be non-zero when traced
    # passes below this count leave wall_s spreading by about 20% between
    # runs on a shared 2-vCPU box; above it a run outgrows its time budget
    min_passes = 1

    def __init__(self, root: Path, work: Path, seed: int, reduced: bool):
        self.root = root
        self.configs = root / "configs"
        self.work = work
        self.seed = seed
        self.reduced = reduced

    def prepare(self, run_child) -> None:
        """Untimed inputs shared by every pass of a run."""

    def stages(self, d: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def bundles(self, d: Path) -> list[str]:
        """Weight bundles whose loading counts as set-up."""
        return []

    def check(self, d: Path, result: dict, checks: "Checks") -> dict:
        """Check one pass's outputs; returns the workload's detail metrics."""
        raise NotImplementedError

    def artifact_dirs(self, d: Path) -> list[Path]:
        return [d]


class Checks:
    """Named pass/fail records; a failed check counts as a failed operation."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.items if not c["ok"])


def _subset_profiles(src: Path, dst: Path, sections: list[str]) -> Path:
    parser = configparser.ConfigParser()
    parser.read(src)
    out = configparser.ConfigParser()
    for section in ["meta"] + sections:
        out[section] = dict(parser[section])
    dst.parent.mkdir(parents=True, exist_ok=True)
    with open(dst, "w") as fh:
        out.write(fh)
    return dst


def read_prediction_csv(path: Path) -> dict:
    """Columns of a prediction CSV by header name (extra columns are kept)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    cols = {name: [r[i] for r in body] for i, name in enumerate(header)}
    folds = sorted(h for h in header if h.startswith("fold_"))
    return {
        "rows": len(body),
        "folds": [[int(v) for v in cols[f]] for f in folds],
        "ensembled": [int(v) for v in cols["ensembled"]],
        "smoothed": [int(v) for v in cols["smoothed"]],
        "true": [int(v) for v in cols["true"]] if all(cols.get("true", [""])) else None,
    }


def short_runs(labels: list[int]) -> int:
    runs, length = 0, 1
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[i - 1]:
            runs += length < SHORT_RUN
            length = 1
        else:
            length += 1
    return runs


def check_predictions(pred_dir: Path, trial_lengths: dict[str, int], seq_len: int, folds: int,
                      checks: Checks) -> dict[str, dict]:
    """One prediction CSV per trial, ``seq_len`` (or source-length) rows,
    labels in range, one column per fold."""
    preds = {}
    for tid, length in sorted(trial_lengths.items()):
        path = pred_dir / f"{tid}.csv"
        if not path.exists():
            checks.add(f"predictions:{tid}", False, "missing")
            continue
        try:
            p = read_prediction_csv(path)
        except (KeyError, ValueError, IndexError) as exc:
            checks.add(f"predictions:{tid}", False, f"unreadable: {exc}")
            continue
        labels = [v for col in p["folds"] + [p["ensembled"], p["smoothed"]] for v in col]
        ok = (
            p["rows"] in (seq_len, length)
            and len(p["folds"]) == folds
            and all(0 <= v < NUM_CLASSES for v in labels)
        )
        checks.add(f"predictions:{tid}", ok, f"rows {p['rows']}, folds {len(p['folds'])}")
        preds[tid] = p
    return preds


def c06_values(preds: dict[str, dict], test_ids: list[str]) -> dict:
    """Smoothed test accuracy and the c06 smoothing figures over test ids."""
    total = correct_raw = correct_smoothed = short_raw = short_smoothed = 0
    never_lowers = True
    for tid in test_ids:
        p = preds[tid]
        true = p["true"]
        raw_ok = sum(a == b for a, b in zip(p["ensembled"], true))
        smooth_ok = sum(a == b for a, b in zip(p["smoothed"], true))
        never_lowers &= smooth_ok >= raw_ok
        total += len(true)
        correct_raw += raw_ok
        correct_smoothed += smooth_ok
        short_raw += short_runs(p["ensembled"])
        short_smoothed += short_runs(p["smoothed"])
    return {
        "smoothed_accuracy": correct_smoothed / total if total else 0.0,
        "raw_accuracy": correct_raw / total if total else 0.0,
        "smoothing_never_lowers": never_lowers,
        "short_runs_raw": short_raw,
        "short_runs_smoothed": short_smoothed,
    }


def c06_holds(v: dict) -> bool:
    return (
        v["smoothed_accuracy"] >= C06_MIN_ACCURACY
        and v["smoothing_never_lowers"]
        and v["short_runs_raw"] > 0
        and v["short_runs_smoothed"] < v["short_runs_raw"]
    )


def _stage_s(result: dict, name: str) -> float:
    return next((s["s"] for s in result["stages"] if s["name"] == name), 0.0)


def _trial_lengths(manifest_path: Path) -> dict[str, int]:
    manifest = json.loads(manifest_path.read_text())
    return {e["trial_id"]: int(e["length"]) for e in manifest["trials"]}


def _check_features(feat: Path, lengths: dict[str, int], target_len: int, checks: Checks) -> None:
    for name in ("scaler.json", "splits.json"):
        checks.add(f"features:{name}", (feat / name).exists())
    for tid in sorted(lengths):
        files = list(feat.glob(f"{tid}.*"))
        ok = len(files) == 1
        if ok and files[0].suffix == ".csv":
            with open(files[0], "rb") as fh:
                ok = sum(1 for _ in fh) == target_len + 1
        checks.add(f"features:{tid}", ok)


class DeskPipeline(Workload):
    name = "desk-pipeline"
    exercised = (
        *(f"cli.{s}.s" for s in ("simulate", "preprocess", "train", "classify", "evaluate", "report")),
        "simulate.synth_trial.calls", "channel.assemble_h_matrix.calls", "rng.draw.calls",
        "dataio.write_trial.bytes", "dataio.read_trial.bytes",
        "dataio.export_feature_csv.bytes", "dataio.import_feature_csv.bytes",
        "dataio.write_predictions.s", "dataio.read_predictions.s",
        "features.normalize_length.s", "features.trial_features.s",
        "features.robust_fit.s", "features.robust_transform.s",
        *(f"nn.{g}.{d}_s" for g in ("posenc", "bigru1", "bigru2", "attention", "head") for d in ("fwd", "bwd")),
        "nn.adam.calls", "nn.fwd.gflop", "nn.bwd.gflop",
        "model.predict.calls", "model.train_step.p50_ms", "model.val_forward.s", "model.epochs",
        "weights.load_weights.calls", "weights.model_from_weights.calls",
        "weights.save_weights.calls", "weights.save_weights.bytes",
        "postprocess.ensemble_mode.s", "postprocess.smooth.s", "postprocess.metrics.s",
        "render.render_label_plot.s",
    )
    min_passes = 2
    seq_len = 156
    folds = 4

    @property
    def trials_per_class(self) -> int:
        return 4 if self.reduced else 20

    def stages(self, d):
        c = self.configs
        return [
            ("simulate", ["simulate", "--profiles", str(c / "profiles-3class.ini"), "--pairs", "1",
                          "--trials-per-class", str(self.trials_per_class), "--seed", str(self.seed),
                          "--out", str(d / "dataset"), "--jobs", "1"]),
            ("preprocess", ["preprocess", "--manifest", str(d / "dataset" / "manifest.json"),
                            "--target-len", str(self.seq_len), "--out", str(d / "features"), "--jobs", "1"]),
            ("train", ["train", "--features", str(d / "features"), "--arch", str(c / "arch-desk.ini"),
                       "--train-cfg", str(c / "train-desk.ini"), "--out", str(d / "models")]),
            ("classify", ["classify", "--weights", str(d / "models"), "--input", str(d / "dataset" / "trials"),
                          "--out", str(d / "predictions"), "--jobs", "1"]),
            ("evaluate", ["evaluate", "--predictions", str(d / "predictions"), "--out", str(d / "evaluation"),
                          "--json"]),
            ("report", ["report", "--predictions", str(d / "predictions"), "--out", str(d / "plots")]),
        ]

    def bundles(self, d):
        return [str(p) for p in sorted((d / "models").glob("*.weights"))]

    def check(self, d, result, checks):
        lengths = _trial_lengths(d / "dataset" / "manifest.json")
        packets = sum(lengths.values())
        checks.add("simulate:trials", len(lengths) == 3 * self.trials_per_class, f"{len(lengths)} trials")
        _check_features(d / "features", lengths, self.seq_len, checks)
        preds = check_predictions(d / "predictions", lengths, self.seq_len, self.folds, checks)

        evaluate = next((s for s in result["stages"] if s["name"] == "evaluate"), None)
        try:
            report = json.loads(evaluate["stdout"].strip().splitlines()[-1])
            checks.add("evaluate:json", 0.0 <= report["accuracy"] <= 1.0 and report["trials"] == len(lengths))
        except (TypeError, IndexError, KeyError, ValueError) as exc:
            checks.add("evaluate:json", False, str(exc))
        checks.add("report:svg", all((d / "plots" / f"{tid}.svg").exists() for tid in lengths))

        split = json.loads((d / "features" / "splits.json").read_text())
        folds = json.loads((d / "models" / "folds.json").read_text())["folds"]
        pool = sum(len(f) for f in folds)
        seqs = 0
        for k, fold in enumerate(folds):
            epochs = len((d / "models" / f"fold{k}_history.csv").read_text().splitlines()) - 1
            seqs += (pool - len(fold)) * epochs

        test_ids = [t for t in split["test"] if t in preds and preds[t]["true"] is not None]
        checks.add("c06:test-predictions", len(test_ids) == len(split["test"]) > 0)
        c06 = c06_values(preds, test_ids)
        # c06 is tuned to the frozen desk run on seed 0; other seeds report it
        if self.seed == 0 and not self.reduced:
            checks.add("c06:accuracy>=0.90", c06["smoothed_accuracy"] >= C06_MIN_ACCURACY,
                       f"{c06['smoothed_accuracy']:.4f}")
            checks.add("c06:smoothing-never-lowers", c06["smoothing_never_lowers"])
            checks.add("c06:short-runs-reduced",
                       c06["short_runs_raw"] > 0 and c06["short_runs_smoothed"] < c06["short_runs_raw"],
                       f"{c06['short_runs_raw']} -> {c06['short_runs_smoothed']}")
        return {
            "simulate_pkts_per_s": packets / _stage_s(result, "simulate"),
            "preprocess_pkts_per_s": packets / _stage_s(result, "preprocess"),
            "train_seqs_per_s": seqs / _stage_s(result, "train"),
            "classify_trials_per_s": len(lengths) / _stage_s(result, "classify"),
            **c06,
            "c06_holds": c06_holds(c06),
        }


class CorpusFull(Workload):
    name = "corpus-full"
    exercised = (
        "cli.simulate.s", "cli.preprocess.s",
        "simulate.synth_trial.calls", "channel.assemble_h_matrix.calls", "rng.draw.calls",
        "dataio.write_trial.bytes", "dataio.read_trial.bytes", "dataio.export_feature_csv.bytes",
        "features.normalize_length.s", "features.trial_features.s",
        "features.robust_fit.s", "features.robust_transform.s",
    )
    min_passes = 2
    target_len = 1560

    def prepare(self, run_child):
        src = self.configs / "profiles.ini"
        if self.reduced:
            src = _subset_profiles(src, self.work / "profiles-reduced.ini", ["approaching", "pointing-left"])
        self.profiles = src

    def stages(self, d):
        return [
            ("simulate", ["simulate", "--profiles", str(self.profiles), "--pairs", "1",
                          "--trials-per-class", "1", "--seed", str(self.seed),
                          "--out", str(d / "dataset"), "--jobs", "1"]),
            ("preprocess", ["preprocess", "--manifest", str(d / "dataset" / "manifest.json"),
                            "--target-len", str(self.target_len), "--out", str(d / "features"), "--jobs", "1"]),
        ]

    def check(self, d, result, checks):
        lengths = _trial_lengths(d / "dataset" / "manifest.json")
        packets = sum(lengths.values())
        expected = 2 if self.reduced else 13
        checks.add("simulate:trials", len(lengths) == expected, f"{len(lengths)} trials, {packets} packets")
        _check_features(d / "features", lengths, self.target_len, checks)
        return {
            "simulate_pkts_per_s": packets / _stage_s(result, "simulate"),
            "preprocess_pkts_per_s": packets / _stage_s(result, "preprocess"),
        }


class ClassifyFull(Workload):
    name = "classify-full"
    exercised = (
        "cli.classify.s",
        "dataio.read_trial.bytes", "dataio.write_predictions.s",
        "features.normalize_length.s", "features.trial_features.s", "features.robust_transform.s",
        *(f"nn.{g}.fwd_s" for g in ("posenc", "bigru1", "bigru2", "attention", "head")),
        "nn.fwd.gflop", "model.predict.calls",
        "weights.load_weights.calls", "weights.model_from_weights.calls",
        "postprocess.ensemble_mode.s", "postprocess.smooth.s",
    )
    seq_len = 1560
    folds = 2

    def prepare(self, run_child):
        """Two full-length (1560-packet) trials, their preprocess scaler, and
        two untrained full-width bundles built from that scaler."""
        inputs = self.work / "inputs"
        profiles = _subset_profiles(self.configs / "profiles.ini", inputs / "profiles-2.ini",
                                    ["handshaking", "pushing"])
        stages = [
            ("simulate", ["simulate", "--profiles", str(profiles), "--pairs", "1", "--trials-per-class", "1",
                          "--seed", str(self.seed), "--out", str(inputs / "dataset"), "--jobs", "1"]),
            ("preprocess", ["preprocess", "--manifest", str(inputs / "dataset" / "manifest.json"),
                            "--target-len", str(self.seq_len), "--out", str(inputs / "features"),
                            "--jobs", "1"]),
        ]
        result = run_child({"mode": "pass", "stages": stages})
        if any(s["rc"] != 0 for s in result["stages"]) or len(result["stages"]) != len(stages):
            raise RuntimeError(f"{self.name}: could not simulate the inputs")
        run_child({
            "mode": "bundles",
            "arch": str(self.configs / "arch-full.ini"),
            "scale_factor": 16 if self.reduced else None,
            "scaler": str(inputs / "features" / "scaler.json"),
            "out": str(inputs / "models"),
            "folds": self.folds,
            "seed": self.seed,
        })
        self.inputs = inputs

    def stages(self, d):
        return [
            ("classify", ["classify", "--weights", str(self.inputs / "models"),
                          "--input", str(self.inputs / "dataset" / "trials"),
                          "--out", str(d / "predictions"), "--jobs", "1"]),
        ]

    def bundles(self, d):
        return [str(p) for p in sorted((self.inputs / "models").glob("*.weights"))]

    def check(self, d, result, checks):
        lengths = _trial_lengths(self.inputs / "dataset" / "manifest.json")
        checks.add("inputs:full-length", set(lengths.values()) == {self.seq_len}, str(sorted(lengths.values())))
        check_predictions(d / "predictions", lengths, self.seq_len, self.folds, checks)
        return {"classify_trials_per_s": len(lengths) / _stage_s(result, "classify")}

    def artifact_dirs(self, d):
        return [self.inputs, d]


WORKLOADS = {w.name: w for w in (DeskPipeline, CorpusFull, ClassifyFull)}
