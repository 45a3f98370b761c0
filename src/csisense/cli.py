"""csisense command line: simulate, preprocess, train, classify, evaluate, report.

A batch pipeline over files on disk.  Every command is deterministic given its
inputs and seeds; reruns produce byte-identical artifacts.  Exit status 0
means every requested artifact was written, 2 flags a configuration or input
problem, 1 an aborted run (for example training divergence).

Parallel commands take --jobs (default 1), and CSISENSE_VERBOSE=0 silences
progress chatter on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .channel import PropagationConfig
from .dataio import Manifest, ManifestEntry, _atomic_write_text, write_csv
from .domain import LABELS
from .errors import CsiSenseError, TrainingDiverged
from .features import (
    FeatureFrame,
    kfold_assign,
    normalize_length,
    robust_fit,
    robust_transform,
    split_dataset,
    trial_features,
)
from .model import load_arch_config, load_train_config, train_kfold
from .postprocess import (
    PredictionTrace,
    confusion,
    confusion_csv,
    ensemble_mode,
    metrics,
    metrics_csv,
    metrics_text,
    smooth,
)
from .profiles import load_profiles
from .render import render_label_plot
from .rng import CounterRng
from .simulate import build_geometry, dataset_trials, synth_trial
from .weights import ModelWeights, load_weights, model_from_weights, save_weights, weights_from_model


class CliError(Exception):
    """Configuration or input problem; reported on stderr with exit status 2."""


def _verbosity() -> int:
    raw = os.environ.get("CSISENSE_VERBOSE")
    if raw is None:
        return 1
    try:
        return max(0, int(raw))
    except ValueError:
        return 1


def _say(message: str) -> None:
    if _verbosity() >= 1:
        print(message, file=sys.stderr)


def _run_jobs(fn, jobs_list, jobs: int, initializer=None, initargs=()):
    """Map fn over jobs_list, optionally across processes.  Results keep the
    input order, so the worker count never changes any output."""
    if jobs < 1:
        raise CliError("--jobs must be at least 1")
    if jobs <= 1 or len(jobs_list) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(job) for job in jobs_list]
    with ProcessPoolExecutor(max_workers=jobs, initializer=initializer, initargs=initargs) as pool:
        return list(pool.map(fn, jobs_list))


# ---------------------------------------------------------------- simulate

def _simulate_job(job) -> dict:
    (profile, config, geometry, scale, packet_rate, jitter, csi_noise,
     seed_value, pair_id, trial_id, out_path) = job
    trial = synth_trial(
        profile,
        config,
        packet_rate,
        jitter,
        seed_value,
        csi_noise=csi_noise,
        pair_id=pair_id,
        trial_id=trial_id,
        geometry=geometry,
        envelope_scale=scale,
    )
    dataio.write_trial(trial, out_path, labeled=True)
    return {
        "trial_id": trial_id,
        "pair_id": pair_id,
        "class_name": LABELS[profile.label],
        "length": len(trial.timestamps),
    }


def cmd_simulate(args) -> int:
    if args.pairs < 1 or args.trials_per_class < 1:
        raise CliError("--pairs and --trials-per-class must be at least 1")
    if args.pair_variation < 0:
        raise CliError("--pair-variation must be non-negative")
    profiles, meta = load_profiles(args.profiles)
    config = PropagationConfig()
    geometry = build_geometry(config, CounterRng(args.seed, "geometry"))
    out = Path(args.out)
    trials_dir = out / "trials"
    trials_dir.mkdir(parents=True, exist_ok=True)

    plan = dataset_trials(profiles, args.pairs, args.trials_per_class, args.pair_variation, args.seed)
    jobs_list = [
        (profile, config, geometry, scale, meta.packet_rate, meta.jitter, meta.csi_noise,
         seed_value, pair_id, trial_id, str(trials_dir / f"{trial_id}.trial"))
        for pair_id, scale, profile, _, trial_id, seed_value in plan
    ]
    rows = _run_jobs(_simulate_job, jobs_list, args.jobs)

    manifest = Manifest(
        dims=config.dims,
        seed=args.seed,
        profiles_sha256=hashlib.sha256(Path(args.profiles).read_bytes()).hexdigest(),
        entries=[
            ManifestEntry(
                path=f"trials/{row['trial_id']}.trial",
                pair_id=row["pair_id"],
                trial_id=row["trial_id"],
                class_name=row["class_name"],
                length=row["length"],
            )
            for row in rows
        ],
    )
    dataio.save_manifest(manifest, out / "manifest.json")
    _say(f"wrote {len(rows)} trials and manifest.json under {out}")
    return 0


# -------------------------------------------------------------- preprocess

def _trial_class(labels: np.ndarray) -> int:
    active = labels[labels != 0]
    return int(np.bincount(active).argmax()) if active.size else 0


def _preprocess_job(job):
    path, target_len = job
    try:
        trial = dataio.read_trial(path)
        trial = normalize_length(trial, target_len)
        frame = trial_features(trial)
    except (CsiSenseError, OSError) as exc:
        return ("error", path, str(exc))
    return ("ok", trial.trial_id, frame.matrix, frame.labels, _trial_class(frame.labels))


def cmd_preprocess(args) -> int:
    if args.target_len < 1:
        raise CliError("--target-len must be at least 1")
    if not Path(args.manifest).exists():
        raise CliError(f"manifest not found: {args.manifest}")
    manifest = dataio.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs_list = [(str(base / e.path), args.target_len) for e in manifest.entries]
    results = _run_jobs(_preprocess_job, jobs_list, args.jobs)
    failures = [r for r in results if r[0] == "error"]
    if failures:
        detail = "\n".join(f"  {path}: {msg}" for _, path, msg in failures)
        raise CliError(f"could not read {len(failures)} trial file(s):\n{detail}")

    ids = [r[1] for r in results]
    matrices = {r[1]: r[2] for r in results}
    labels = {r[1]: r[3] for r in results}
    class_names = [LABELS[r[4]] for r in results]

    split = split_dataset(ids, seed=manifest.seed, classes=class_names)
    pool = set(split.train) | set(split.val)
    scaler = robust_fit(np.vstack([matrices[tid] for tid in ids if tid in pool]))

    for tid in ids:
        frame = robust_transform(FeatureFrame(matrix=matrices[tid], labels=labels[tid]), scaler)
        dataio.export_feature_csv(frame, out / f"{tid}.csv", dims=manifest.dims)
        matrices[tid] = None  # free as we go; full-scale matrices are large
    dataio.save_scaler(scaler, out / "scaler.json")
    dataio.save_split(split, out / "splits.json")
    _say(f"wrote {len(ids)} feature files, scaler.json and splits.json under {out}")
    return 0


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    arch = load_arch_config(args.arch)
    cfg = load_train_config(args.train_cfg)
    fdir = Path(args.features)
    for required in ("scaler.json", "splits.json"):
        if not (fdir / required).exists():
            raise CliError(f"no preprocessed features found: {fdir / required} is missing")
    scaler = dataio.load_scaler(fdir / "scaler.json")
    split = dataio.load_split(fdir / "splits.json")

    pool_ids = sorted(split.train + split.val)
    frames = {}
    for tid in pool_ids:
        path = fdir / f"{tid}.csv"
        if not path.exists():
            raise CliError(f"feature file missing for trial {tid}: {path}")
        frames[tid] = dataio.import_feature_csv(path)
    class_names = [LABELS[_trial_class(frames[tid].labels)] for tid in pool_ids]
    folds = kfold_assign(pool_ids, cfg.folds, split.seed, classes=class_names)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def on_epoch(fold_id: int, row: dict) -> None:
        _say(
            f"fold {fold_id} epoch {row['epoch']:>3}  "
            f"loss {row['loss']:.4f}  acc {row['acc']:.4f}  lr {row['lr']:.2e}"
        )

    results = train_kfold(frames, folds, arch, cfg, on_epoch=on_epoch)
    for fold_id, (model, history) in enumerate(results):
        bundle = weights_from_model(model, fold_id, cfg.seed * 10007 + fold_id, scaler=scaler)
        save_weights(bundle, out / f"fold{fold_id}.weights")
        columns = ["epoch", "loss", "acc", "precision", "recall", "lr"]
        write_csv(
            out / f"fold{fold_id}_history.csv", columns, "%d" + ",%.9g" * 5,
            ([row[c] for c in columns] for row in history),
        )
    split.folds = folds
    dataio.save_split(split, out / "folds.json")
    _say(f"wrote {len(results)} weight bundles under {out}")
    return 0


# ---------------------------------------------------------------- classify

_CLASSIFY_STATE: dict = {}


def _classify_init(bundles: list[ModelWeights]) -> None:
    """Build the fold models, emptying ``bundles`` as it goes: each model
    holds float64 copies of its parameters, and the float32 bundles would
    otherwise stay live through every predict."""
    _CLASSIFY_STATE["scaler"] = bundles[0].scaler
    _CLASSIFY_STATE["seq_len"] = bundles[0].arch.seq_len
    models = []
    while bundles:
        models.append(model_from_weights(bundles.pop(0)))
    _CLASSIFY_STATE["models"] = models


def _classify_job(job) -> str:
    in_path, out_path = job
    models = _CLASSIFY_STATE["models"]
    scaler = _CLASSIFY_STATE["scaler"]
    seq_len = _CLASSIFY_STATE["seq_len"]

    labeled = dataio.trial_is_labeled(in_path)
    trial = dataio.read_trial(in_path)
    trial = normalize_length(trial, seq_len)
    frame = robust_transform(trial_features(trial), scaler)
    per_fold = np.stack([m.predict(frame.matrix) for m in models])
    ensembled = ensemble_mode(per_fold)
    trace = PredictionTrace(
        trial_id=Path(in_path).stem,
        per_fold=per_fold,
        ensembled=ensembled,
        smoothed=smooth(ensembled),
        true_labels=frame.labels if labeled else None,
    )
    dataio.write_predictions(trace, out_path)
    return trace.trial_id


def _load_bundles(weight_paths: list[Path]) -> list[ModelWeights]:
    """Load every bundle once; all must carry the same scaler and architecture."""
    bundles = [load_weights(p) for p in weight_paths]
    for path, bundle in zip(weight_paths, bundles):
        if bundle.arch != bundles[0].arch:
            raise CliError(f"{path}: weight bundles disagree on architecture")
        if bundle.scaler is None:
            raise CliError(f"{path}: bundle carries no scaler; cannot featurize raw trials")
        if bundle.scaler.to_dict() != bundles[0].scaler.to_dict():
            raise CliError(f"{path}: weight bundles disagree on the feature scaler")
    return bundles


def cmd_classify(args) -> int:
    wdir = Path(args.weights)
    weight_paths = sorted(wdir.glob("*.weights"))
    if not weight_paths:
        raise CliError("no trained models found")
    bundles = _load_bundles(weight_paths)

    inp = Path(args.input)
    if inp.is_dir():
        trial_paths = sorted(inp.glob("*.trial"))
        if not trial_paths:
            raise CliError(f"no .trial files in {inp}")
    elif inp.exists():
        trial_paths = [inp]
    else:
        raise CliError(f"input not found: {inp}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs_list = [(str(p), str(out / f"{p.stem}.csv")) for p in trial_paths]
    done = _run_jobs(
        _classify_job, jobs_list, args.jobs,
        initializer=_classify_init, initargs=(bundles,),
    )
    _say(f"wrote {len(done)} prediction files under {out} using {len(weight_paths)} models")
    return 0


# ---------------------------------------------------------------- evaluate

def _load_traces(predictions_dir: str) -> list[PredictionTrace]:
    pdir = Path(predictions_dir)
    files = sorted(pdir.glob("*.csv"))
    if not files:
        raise CliError(f"no prediction files in {pdir}")
    return [dataio.read_predictions(f) for f in files]


def cmd_evaluate(args) -> int:
    traces = _load_traces(args.predictions)
    missing = [t.trial_id for t in traces if t.true_labels is None]
    if missing:
        raise CliError(
            "cannot evaluate: these predictions carry no true labels: " + ", ".join(missing)
        )
    true_cat = np.concatenate([t.true_labels for t in traces])
    pred_cat = np.concatenate([t.smoothed for t in traces])
    conf = confusion(true_cat, pred_cat)
    report = metrics(conf)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "metrics.csv", metrics_csv(report, LABELS))
    _atomic_write_text(out / "metrics.txt", metrics_text(report, LABELS))
    _atomic_write_text(out / "confusion.csv", confusion_csv(report.confusion, LABELS))
    if args.json:
        payload = {
            "accuracy": report.accuracy,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "per_class": {
                name: {
                    "support": int(report.support[i]),
                    "precision": report.per_class_precision[i],
                    "recall": report.per_class_recall[i],
                    "f1": report.per_class_f1[i],
                }
                for i, name in enumerate(LABELS)
            },
            "confusion": report.confusion.tolist(),
            "trials": len(traces),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(metrics_text(report, LABELS), end="")
    return 0


# ------------------------------------------------------------------ report

def cmd_report(args) -> int:
    traces = _load_traces(args.predictions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        series: list[tuple[str, np.ndarray]] = []
        if trace.true_labels is not None:
            series.append(("true", trace.true_labels))
        series.append(("ensembled", trace.ensembled))
        series.append(("smoothed", trace.smoothed))
        _atomic_write_text(out / f"{trace.trial_id}.svg", render_label_plot(series, trace.trial_id))
        columns = [np.arange(trace.ensembled.size)] + [values for _, values in series]
        write_csv(
            out / f"{trace.trial_id}.csv", ["packet_index", "true", "ensembled", "smoothed"],
            "%d,%d,%d,%d" if trace.true_labels is not None else "%d,,%d,%d",
            np.column_stack(columns).tolist(),
        )
    _say(f"wrote {len(traces)} timeline plots under {out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csisense",
        description="Simulate, preprocess, train on, and classify Wi-Fi CSI interaction trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic trial dataset plus manifest")
    s.add_argument("--profiles", required=True, help="class profile ini file")
    s.add_argument("--pairs", type=int, default=1, help="number of simulated person pairs")
    s.add_argument("--trials-per-class", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pair-variation", type=float, default=0.0,
                   help="per-pair envelope perturbation fraction")
    s.add_argument("--out", required=True, help="output dataset directory")
    s.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("preprocess", help="trials to scaled feature CSVs, scaler and splits")
    s.add_argument("--manifest", required=True, help="dataset manifest.json")
    s.add_argument("--target-len", type=int, default=1560,
                   help="normalize every trial to this many packets")
    s.add_argument("--out", required=True, help="output feature directory")
    s.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    s.set_defaults(func=cmd_preprocess)

    s = sub.add_parser("train", help="k-fold training from preprocessed features")
    s.add_argument("--features", required=True, help="preprocess output directory")
    s.add_argument("--arch", required=True, help="architecture ini file")
    s.add_argument("--train-cfg", required=True, help="training ini file")
    s.add_argument("--out", required=True, help="output model directory")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("classify", help="predict labels for a trial file or directory")
    s.add_argument("--weights", required=True, help="directory holding *.weights bundles")
    s.add_argument("--input", required=True, help="one .trial file or a directory of them")
    s.add_argument("--out", required=True, help="output prediction directory")
    s.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("evaluate", help="score predictions that carry true labels")
    s.add_argument("--predictions", required=True, help="classify output directory")
    s.add_argument("--out", required=True, help="output report directory")
    s.add_argument("--json", action="store_true", help="print metrics as JSON on stdout")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("report", help="emit per-trial label timelines (SVG + CSV)")
    s.add_argument("--predictions", required=True, help="classify output directory")
    s.add_argument("--out", required=True, help="output plot directory")
    s.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CsiSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
