"""csisense command line: simulate, preprocess, train, classify, evaluate, report.

A batch pipeline over files on disk.  Every command is deterministic given its
inputs and seeds; reruns produce byte-identical artifacts.  Exit status 0
means every requested artifact was written, 2 flags a configuration, input or
file-system problem (an ``--out`` that cannot be created, say), 1 an aborted
run (for example training divergence).  ``preprocess``,
``classify``, ``evaluate`` and ``report`` name each input file they cannot
use, still write the artifacts of every other, and exit 2; ``train`` names
every feature CSV it cannot read or pool and stops.  A file that is not UTF-8
or not of its format's shape (a JSON top level that is no object, say) is
unreadable too.  ``preprocess`` and ``classify`` accept the same trials
(:func:`_read_frame`); ``preprocess`` also needs them labeled and of the
manifest's feature width.  ``preprocess`` holds one trial at a time: until the
scaler is fitted, the unscaled features wait in an unnamed temporary file
under ``--out`` (8 bytes per feature cell), gone when the command ends.
``classify`` holds one fold model and its probabilities for every trial at a
time; the scaled features wait in such a file while the folds run in turn.
``train`` holds its pool's labels, one byte per packet, and one batch or
validation chunk of its features: the checked pool waits in such a file.

``simulate``, ``preprocess`` and ``classify`` take --jobs (default 1), a
number of worker processes for per-trial work; one pool serves the whole
command.  ``classify`` fans out only the reading and featurizing of trials
and predicts in the calling process.  A count
flag (--jobs, --pairs, --trials-per-class, --target-len) below 1, or a
negative or non-finite --pair-variation, is a usage error: exit status 2
before the command reads or writes anything.
CSISENSE_VERBOSE=0 silences progress chatter on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import dataio
from .channel import PropagationConfig
from .dataio import Manifest, ManifestEntry, RowSpill, _atomic_write_text, write_csv
from .domain import LABELS, validate_trial
from .errors import CsiSenseError, TrainingDiverged
from .features import (
    FeatureFrame,
    RobustScalerParams,
    kfold_assign,
    normalize_length,
    robust_fit,
    robust_transform,
    split_dataset,
    trial_features,
)
from .model import ArchConfig, fold_seed, load_arch_config, load_train_config, train_kfold
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
from .weights import load_weights, model_from_weights, save_weights, weights_from_model


class CliError(CsiSenseError):
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


def _failed(verb: str, noun: str, failures: list[tuple[str, str]]) -> CliError:
    """One error that names every failing input file and why."""
    lines = [msg if msg.startswith(path) else f"{path}: {msg}" for path, msg in failures]
    return CliError(f"{verb} {len(failures)} {noun} file(s):\n" + "\n".join(f"  {line}" for line in lines))


@contextmanager
def _job_map(jobs: int):
    """The ``map`` for a command's per-trial work (writing a trial, or reading
    and featurizing one): the builtin at one job, else that of one pool of
    ``jobs`` worker processes serving the whole command.  Results keep the
    input order, so the worker count never changes any output."""
    if jobs == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool.map


def _guarded(reader, path):
    """``(path, True, reader(path))``, or ``(path, False, reason)``.  An
    ``OSError``'s reason leaves out the file name, which it would repeat."""
    try:
        return str(path), True, reader(path)
    except OSError as exc:
        reason = str(exc) if exc.errno is None else f"[Errno {exc.errno}] {exc.strerror}"
        return str(path), False, reason
    except CsiSenseError as exc:
        return str(path), False, str(exc)


def _per_file(reader, paths, failures: list, job_map=map):
    """``reader(path)`` for every path, mapped through ``job_map`` (see
    :func:`_job_map`), in input order and one at a time: yields ``(path,
    value)`` for each file it read and appends ``(path, reason)`` to
    ``failures`` for each it could not.  Consume it inside ``job_map``'s
    pool, and drop each value before the next, which is then read while no
    earlier one is held here."""
    for path, ok, value in job_map(partial(_guarded, reader), paths):
        if ok:
            yield path, value
        else:
            failures.append((path, value))
        del value


def _read_frame(path: str, seq_len: int, scaler=None):
    """A trial file as ``preprocess`` and ``classify`` both take it: read,
    checked by ``validate_trial``, normalized to ``seq_len`` packets,
    featurized, and scaled by ``scaler`` when one is given.  Returns its
    trial id, labeled flag and frame."""
    trial = dataio.read_trial(path)
    validate_trial(trial)
    trial = normalize_length(trial, seq_len)
    frame = trial_features(trial)
    return trial.trial_id, trial.labeled, frame if scaler is None else robust_transform(frame, scaler)


# ---------------------------------------------------------------- simulate

def _simulate_job(meta, geometry, out: Path, row) -> ManifestEntry:
    """Write one ``dataset_trials`` row's trial under ``out``; returns its
    manifest entry.  ``functools.partial`` binds the shared leading values."""
    pair_id, scale, profile, trial_id, seed = row
    trial = synth_trial(profile, meta, geometry, seed, pair_id=pair_id, trial_id=trial_id, envelope_scale=scale)
    path = f"trials/{trial_id}.trial"
    dataio.write_trial(trial, out / path)
    return ManifestEntry(path, pair_id, trial_id, LABELS[profile.label], len(trial.timestamps))


def cmd_simulate(args) -> int:
    profiles, meta = load_profiles(args.profiles)
    geometry = build_geometry(PropagationConfig(), CounterRng(args.seed, "geometry"))
    out = Path(args.out)
    (out / "trials").mkdir(parents=True, exist_ok=True)

    plan = dataset_trials(profiles, args.pairs, args.trials_per_class, args.pair_variation, args.seed)
    with _job_map(args.jobs) as job_map:
        entries = list(job_map(partial(_simulate_job, meta, geometry, out), plan))
    manifest = Manifest(
        dims=geometry.config.dims,
        seed=args.seed,
        profiles_sha256=hashlib.sha256(Path(args.profiles).read_bytes()).hexdigest(),
        entries=entries,
    )
    dataio.save_manifest(manifest, out / "manifest.json")
    _say(f"wrote {len(entries)} trials and manifest.json under {out}")
    return 0


# -------------------------------------------------------------- preprocess

def _trial_class(labels: np.ndarray) -> int:
    active = labels[labels != 0]
    return int(np.bincount(active).argmax()) if active.size else 0


FIT_BLOCK_BYTES = 8 << 20
"""Bytes of pool rows that ``preprocess`` reads per block of columns when it
fits the scaler; a block is one column wide when a column alone is larger."""


def _fit_spilled(spill: RowSpill, pool: list[int]) -> RobustScalerParams:
    """``robust_fit`` over the rows of the ``pool`` trials in ``spill``, a
    block of columns at a time.  Each spill row is a trial's ``(rows,
    width)`` float64 matrix transposed, so one trial's part of a block is
    one contiguous read; ``pool`` lists trial places in the spill."""
    width, rows = spill.shape
    step = max(1, FIT_BLOCK_BYTES // (8 * rows * len(pool)))
    parts = []
    for start in range(0, width, step):
        cols = min(step, width - start)
        block, piece = np.empty((rows * len(pool), cols)), np.empty((cols, rows))
        for k, place in enumerate(pool):
            spill.readinto(piece, place, start * rows)
            block[k * rows : (k + 1) * rows] = piece.T
        parts.append(robust_fit(block))
    return RobustScalerParams.concat(parts)


def cmd_preprocess(args) -> int:
    if not Path(args.manifest).exists():
        raise CliError(f"manifest not found: {args.manifest}")
    manifest = dataio.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    paths = [str(base / e.path) for e in manifest.entries]
    rows, width = args.target_len, len(dataio.feature_column_names(manifest.dims))
    # the scaler, the split and the outputs come from the labeled trials that
    # read and have the manifest's feature width.  Their unscaled matrices
    # wait in an unnamed file under --out, so memory holds one trial at a time
    failures, kept = [], []  # kept: (trial id, labels), in spill order
    with tempfile.TemporaryFile(dir=out) as file:
        spill = RowSpill(file, (width, rows))
        with _job_map(args.jobs) as job_map:
            for path, (tid, labeled, frame) in _per_file(
                partial(_read_frame, seq_len=rows), paths, failures, job_map
            ):
                if not labeled:
                    failures.append((path, "unlabeled trial; preprocess needs labels"))
                elif frame.matrix.shape[1] != width:
                    found = frame.matrix.shape[1]
                    failures.append((path, f"{found} feature columns, not the {width} of dims {manifest.dims}"))
                else:
                    spill.append(frame.matrix.T)
                    # one byte per class code: an int64 copy per trial, left
                    # between the freed frame buffers, fragments the heap
                    kept.append((tid, frame.labels.astype(np.uint8)))
                del frame  # freed before the next read, not beside it
        if not kept:
            raise _failed("could not read", "trial", failures)

        ids = [tid for tid, _ in kept]
        class_names = [LABELS[_trial_class(labels)] for _, labels in kept]
        split = split_dataset(ids, seed=manifest.seed, classes=class_names)
        pool = set(split.train) | set(split.val)
        scaler = _fit_spilled(spill, [k for k, tid in enumerate(ids) if tid in pool])

        matrix = np.empty((width, rows))
        for k, (tid, labels) in enumerate(kept):
            spill.readinto(matrix, k)
            frame = FeatureFrame(matrix.T, labels)
            dataio.export_feature_csv(robust_transform(frame, scaler), out / f"{tid}.csv", dims=manifest.dims)
    dataio.save_scaler(scaler, out / "scaler.json")
    dataio.save_split(split, out / "splits.json")
    _say(f"wrote {len(ids)} feature files, scaler.json and splits.json under {out}")
    if failures:
        raise _failed("could not read", "trial", failures)
    return 0


# ------------------------------------------------------------------- train

def _train_pool(file, fdir: Path, split, width: int, arch: ArchConfig, cfg):
    """Read and check the pool's feature CSVs into a :class:`RowSpill` over
    ``file``, then train the folds on it; returns ``train_kfold``'s results
    and the folds.

    Row k of the spill and of the uint8 labels holds trial pool_ids[k] (any
    failure refuses the pool), of the rows most pool CSVs have by the
    scaler's ``width``.  A CSV is spilled as it is read if it has the first
    CSV's shape; once all are read, each of another shape than the pool's,
    or with a label beyond the arch's classes, is refused."""
    pool_ids = sorted(split.train + split.val)
    paths = [fdir / f"{tid}.csv" for tid in pool_ids]
    failures, read = [], []  # read: (path, shape, top label)
    spill = labels = None
    # no enumerate: its reused result tuple would hold the last frame
    # through the next read
    for path, frame in _per_file(dataio.import_feature_csv, paths, failures):
        if spill is None:
            spill = RowSpill(file, frame.matrix.shape)
            labels = np.empty((len(pool_ids), len(frame.labels)), dtype=np.uint8)
        if frame.matrix.shape == spill.shape:
            spill.append(frame.matrix)
            labels[len(read)] = frame.labels
        read.append((path, frame.matrix.shape, frame.labels.max()))
        del frame  # freed before the next read, not beside it
    most = Counter(shape[0] for _, shape, _ in read).most_common(1)  # a tie goes to the first read
    expected = (most[0][0], width) if most else None
    refused = []
    for path, shape, top in read:
        if shape != expected:
            why = f"does not match {expected}, the rows most pool CSVs have by the scaler's width"
            refused.append((path, f"feature shape {shape} {why}"))
        elif top >= arch.classes:
            refused.append((path, f"labels reach {top}, but the network has {arch.classes} classes"))
    if failures or refused:
        groups = (("could not read", failures), ("could not pool", refused))
        raise CliError("\n".join(str(_failed(verb, "feature", group)) for verb, group in groups if group))
    # an empty pool reads no CSV, and kfold_assign refuses it
    class_names = [] if labels is None else [LABELS[_trial_class(row)] for row in labels]
    folds = kfold_assign(pool_ids, cfg.folds, split.seed, classes=class_names)
    row_of = {tid: k for k, tid in enumerate(pool_ids)}
    fold_rows = [[row_of[tid] for tid in fold] for fold in folds]
    arch = dataclasses.replace(arch, seq_len=spill.shape[0], feature_dim=width)

    def on_epoch(fold_id: int, row: dict) -> None:
        _say(
            f"fold {fold_id} epoch {row['epoch']:>3}  "
            f"loss {row['loss']:.4f}  acc {row['acc']:.4f}  lr {row['lr']:.2e}"
        )

    return train_kfold(spill, labels, fold_rows, arch, cfg, on_epoch=on_epoch), folds


def cmd_train(args) -> int:
    arch = load_arch_config(args.arch)
    cfg = load_train_config(args.train_cfg)
    fdir = Path(args.features)
    for required in ("scaler.json", "splits.json"):
        if not (fdir / required).exists():
            raise CliError(f"no preprocessed features found: {fdir / required} is missing")
    scaler = dataio.load_scaler(fdir / "scaler.json")
    split = dataio.load_split(fdir / "splits.json")

    # --out is made before the pool is read, since the pool waits in an
    # unnamed file under it; a run refused for its data, stopped by
    # divergence or short of disk for the pool removes the directory it
    # made, while it is still empty
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryFile(dir=out) as file:
            results, folds = _train_pool(file, fdir, split, scaler.median.size, arch, cfg)
    except (CsiSenseError, OSError):
        if made and not any(out.iterdir()):
            out.rmdir()
        raise
    for fold_id, (model, history) in enumerate(results):
        bundle = weights_from_model(model, fold_id, fold_seed(cfg.seed, fold_id), scaler=scaler)
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

def _bundle_meta(path: Path) -> tuple[int, Path, ArchConfig, RobustScalerParams]:
    """A bundle's fold id, path, architecture and scaler; its parameter block
    is freed on return."""
    bundle = load_weights(path)
    return bundle.fold_id, path, bundle.arch, bundle.scaler


def _check_bundles(weight_paths: list[Path]) -> tuple[list[Path], ArchConfig, RobustScalerParams]:
    """Load and check every bundle, one at a time, keeping only its
    :func:`_bundle_meta`.  Returns the paths ordered by ``(fold_id, path)``,
    so that the prediction CSV's fold columns follow the fold ids, and the
    architecture and scaler that all of them must carry."""
    metas = sorted((_bundle_meta(p) for p in weight_paths), key=lambda meta: meta[:2])
    _, _, arch, scaler = metas[0]
    for _, path, other_arch, other_scaler in metas:
        if other_arch != arch:
            raise CliError(f"{path}: weight bundles disagree on architecture")
        if other_scaler.to_dict() != scaler.to_dict():
            raise CliError(f"{path}: weight bundles disagree on the feature scaler")
    return [path for _, path, _, _ in metas], arch, scaler


def _predict_fold(path: Path, spill: RowSpill, count: int) -> np.ndarray:
    """One bundle's labels for the ``count`` scaled frames in ``spill``,
    ``(count, seq_len)`` at one byte per packet: the argmax of its model's
    ``predict``.  A function of its own, so that the bundle, its model and
    the probabilities are freed before the next bundle loads."""
    model = model_from_weights(load_weights(path))
    return np.argmax(model.predict(spill, range(count)), axis=-1).astype(np.uint8)


def cmd_classify(args) -> int:
    inp = Path(args.input)
    if inp.is_dir():
        trial_paths = sorted(inp.glob("*.trial"))
        if not trial_paths:
            raise CliError(f"no .trial files in {inp}")
    elif inp.exists():
        trial_paths = [inp]
    else:
        raise CliError(f"input not found: {inp}")

    weight_paths = sorted(Path(args.weights).glob("*.weights"))
    if not weight_paths:
        raise CliError("no trained models found")
    fold_paths, arch, scaler = _check_bundles(weight_paths)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # each trial is read and featurized once.  Its scaled frame waits in an
    # unnamed file under --out while the folds run in turn, so memory holds
    # one model and one block of frames at a time
    failures, kept = [], []  # kept: (trial id, true labels or None), in spill order
    read = partial(_read_frame, seq_len=arch.seq_len, scaler=scaler)
    with tempfile.TemporaryFile(dir=out) as file:
        spill = RowSpill(file, (arch.seq_len, arch.feature_dim))
        with _job_map(args.jobs) as job_map:
            for path, (_, labeled, frame) in _per_file(read, trial_paths, failures, job_map):
                spill.append(frame.matrix)
                kept.append((Path(path).stem, frame.labels.astype(np.uint8) if labeled else None))
                del frame  # freed before the next read, not beside it
        if not kept:
            raise _failed("skipped", "trial", failures)
        per_trial = np.stack([_predict_fold(path, spill, len(kept)) for path in fold_paths], axis=1)
    for (trial_id, true_labels), per_fold in zip(kept, per_trial):
        ensembled = ensemble_mode(per_fold)
        trace = PredictionTrace(trial_id, per_fold, ensembled, smooth(ensembled), true_labels)
        dataio.write_predictions(trace, out / f"{trial_id}.csv")
    _say(f"wrote {len(kept)} prediction files under {out} using {len(weight_paths)} models")
    if failures:
        raise _failed("skipped", "trial", failures)
    return 0


# ---------------------------------------------------------------- evaluate

def _load_traces(predictions_dir: str, reader) -> tuple[list[PredictionTrace], list[tuple[str, str]]]:
    """``reader(path)`` for every prediction CSV, and (path, reason) for each
    it refuses; raises if it refuses them all."""
    pdir = Path(predictions_dir)
    files = sorted(pdir.glob("*.csv"))
    if not files:
        raise CliError(f"no prediction files in {pdir}")
    failures = []
    read = list(_per_file(reader, files, failures))
    if not read:
        raise _failed("could not read", "prediction", failures)
    return [trace for _, trace in read], failures


def _labeled_predictions(path):
    """A prediction CSV that ``evaluate`` can score: one with true labels."""
    trace = dataio.read_predictions(path)
    if trace.true_labels is None:
        raise CliError("carries no true labels")
    return trace


def cmd_evaluate(args) -> int:
    traces, failures = _load_traces(args.predictions, _labeled_predictions)
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
        if failures:
            payload["skipped"] = [path for path, _ in failures]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(metrics_text(report, LABELS), end="")
    if failures:
        raise _failed("skipped", "prediction", failures)
    return 0


# ------------------------------------------------------------------ report

def cmd_report(args) -> int:
    traces, failures = _load_traces(args.predictions, dataio.read_predictions)
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
    if failures:
        raise _failed("skipped", "prediction", failures)
    return 0


# ------------------------------------------------------------------ parser

def _count(text: str) -> int:
    """A count flag (``--jobs``, ``--pairs``, ...), checked as it is parsed,
    so that a bad value stops a command (exit status 2) before it reads or
    writes anything."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, not {text!r}")
    return count


def _non_negative(text: str) -> float:
    """``--pair-variation``, checked as it is parsed, like :func:`_count`."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csisense",
        description="Simulate, preprocess, train on, and classify Wi-Fi CSI interaction trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic trial dataset plus manifest")
    s.add_argument("--profiles", required=True, help="class profile ini file")
    s.add_argument("--pairs", type=_count, default=1, help="number of simulated person pairs")
    s.add_argument("--trials-per-class", type=_count, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pair-variation", type=_non_negative, default=0.0,
                   help="per-pair envelope perturbation fraction")
    s.add_argument("--out", required=True, help="output dataset directory")
    s.add_argument("--jobs", type=_count, default=1, help="parallel worker processes")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("preprocess", help="trials to scaled feature CSVs, scaler and splits")
    s.add_argument("--manifest", required=True, help="dataset manifest.json")
    s.add_argument("--target-len", type=_count, default=1560,
                   help="normalize every trial to this many packets")
    s.add_argument("--out", required=True, help="output feature directory")
    s.add_argument("--jobs", type=_count, default=1, help="parallel worker processes")
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
    s.add_argument("--jobs", type=_count, default=1, help="parallel worker processes")
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
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CsiSenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
