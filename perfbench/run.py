"""csisense pipeline benchmark.

    python3 perfbench/run.py --workload desk-pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, full metric table
    python3 perfbench/run.py --self-check            # reduced sizes, every path and check

Run from anywhere; the source tree is the directory above ``perfbench/``.
Each timed pass is a fresh interpreter that runs the CLI stages through
``csisense.cli.main(argv)`` with ``--jobs 1`` and one BLAS thread per CPU,
so every stage pays its first-call warm-up as a CLI user does and
``peak_rss_mb`` belongs to that workload alone.  Passes repeat while another
one fits in ``--seconds`` (at least the workload's ``min_passes``); timings
are medians over passes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics with ``--trace 1``).  The full record - provenance, checks,
per-stage throughput, digests - goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Checks  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BUDGET_S = 170.0  # a run must end within 180 s
# set-up is repeated at least SETUP_MIN times, and up to SETUP_MAX while
# the repeats have taken under SETUP_BUDGET_S (cheap set-ups get more samples)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
ARTIFACT_SUFFIXES = {".trial", ".csv", ".weights", ".svg"}
ARTIFACT_NAMES = {"manifest.json", "scaler.json", "splits.json", "folds.json"}
REQUIRED = ("src/csisense/cli.py", "configs/profiles.ini", "configs/profiles-3class.ini",
            "configs/arch-desk.ini", "configs/arch-full.ini", "configs/train-desk.ini")
# counts that must repeat exactly for the same code, workload and seed
EXACT_SUFFIXES = (".calls", ".bytes", ".gflop", ".pkts", ".pad_frac", "model.epochs")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DETAIL_UNITS = {
    "wall_s": "s", "setup_s": "s",
    "simulate_pkts_per_s": "pkt/s", "preprocess_pkts_per_s": "pkt/s",
    "train_seqs_per_s": "seq/s", "classify_trials_per_s": "trial/s",
    "peak_rss_mb": "MB", "smoothed_accuracy": "ratio", "error_rate": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_hash() -> str:
    h = hashlib.sha256()
    for base in ("src", "configs"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source_hash(),
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu,
        "blas_threads": nproc(),
        "jobs": 1,
    }


def artifact_digest(dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(base.rglob("*")):
            if path.is_file() and (path.suffix in ARTIFACT_SUFFIXES or path.name in ARTIFACT_NAMES):
                h.update(str(path.relative_to(base)).encode() + b"\0")
                h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Run:
    """One benchmark run of one workload: fresh child processes, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, reduced: bool = False,
                 passes: int | None = None):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.reduced, self.passes = reduced, passes
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.checks = Checks()
        self.stage_ops = self.stage_failed = 0
        self._spec_n = 0

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("CSISENSE_") and k != "PYTHONPATH"}
        threads = str(nproc())
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   CSISENSE_VERBOSE="0", PYTHONHASHSEED="0")
        return env

    def child(self, spec: dict) -> dict:
        self._spec_n += 1
        spec_path = self.work / f"spec{self._spec_n}.json"
        result_path = self.work / f"result{self._spec_n}.json"
        spec = {**spec, "root": str(ROOT), "result": str(result_path)}
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=ROOT,
                              env=self.env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child {spec['mode']} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(result_path.read_text())

    def one_pass(self, wl, index: int, trace: bool) -> dict:
        d = self.work / f"pass{index}"
        d.mkdir(parents=True)
        stages = wl.stages(d)
        result = self.child({"mode": "pass", "stages": stages, "trace": trace})
        self.stage_ops += len(stages)
        ok = [s for s in result["stages"] if s["rc"] == 0]
        self.stage_failed += len(stages) - len(ok)
        result["wall_s"] = sum(s["s"] for s in result["stages"])
        result["dir"] = d
        try:
            result["detail"] = wl.check(d, result, self.checks)
        except Exception:  # a broken output must be reported, not abort the run
            self.checks.add(f"pass{index}:outputs", False, traceback.format_exc(limit=3))
            result["detail"] = {}
        result["digest"] = artifact_digest(wl.artifact_dirs(d))
        return result

    def compare_store(self, digest: str, counts: dict | None) -> None:
        """Artifacts and exact counts must repeat for the same code, workload and seed."""
        size = "reduced" if self.reduced else "full"
        path = WORK / "digests" / source_hash()[:16] / f"{self.name}-{size}-seed{self.seed}.json"
        stored = json.loads(path.read_text()) if path.exists() else {}
        if "artifacts" in stored:
            self.checks.add("determinism:artifacts-vs-earlier-runs", stored["artifacts"] == digest)
        if counts is not None and "counts" in stored:
            diff = sorted(k for k in counts if k in stored["counts"] and stored["counts"][k] != counts[k])
            self.checks.add("determinism:exact-counts-vs-earlier-runs", not diff, ", ".join(diff))
        stored.setdefault("artifacts", digest)
        if counts is not None:
            stored.setdefault("counts", counts)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, path)

    def execute(self) -> dict:
        wl = WORKLOADS[self.name](ROOT, self.work, self.seed, self.reduced)
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            wl.prepare(self.child)
            return self._measure(wl)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _measure(self, wl) -> dict:
        record = {"workload": self.name, "reduced": self.reduced, "trace": self.trace,
                  "provenance": provenance(self.seed)}
        passes = []
        if self.trace:
            passes = [self.one_pass(wl, 0, False), self.one_pass(wl, 1, True)]
        else:
            measured = 0.0
            while True:
                passes.append(self.one_pass(wl, len(passes), False))
                measured += passes[-1]["wall_s"]
                mean = measured / len(passes)
                if self.passes is not None:
                    if len(passes) >= self.passes:
                        break
                elif time.monotonic() + 2 * mean > self.deadline - 30:
                    break  # leave time for set-up and checks within the 180 s limit
                elif len(passes) >= wl.min_passes and measured + mean > self.seconds:
                    break
        if len(passes) > 1:
            self.checks.add("determinism:artifacts-across-passes", len({p["digest"] for p in passes}) == 1)
        record["provenance"].update(passes[0]["versions"])
        record["passes"] = [
            {"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"], "import_s": p["import_s"],
             "digest": p["digest"], "detail": p["detail"],
             "stages": [{k: s[k] for k in ("name", "rc", "s", "cpu_s", "error")} for s in p["stages"]]}
            for p in passes
        ]
        if self.trace:
            traced = passes[1]
            layers = dict(traced["layers"])
            layers["trace.overhead_frac"] = (traced["wall_s"] - passes[0]["wall_s"]) / passes[0]["wall_s"]
            self._check_trace(wl, traced, layers)
            counts = {k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES)}
            self.compare_store(traced["digest"], counts)
            record["metrics"] = layers
        else:
            self.compare_store(passes[0]["digest"], None)
            bundles = wl.bundles(passes[-1]["dir"])
            samples, started = [], time.monotonic()
            while len(samples) < SETUP_MIN or (
                    len(samples) < SETUP_MAX and time.monotonic() - started < SETUP_BUDGET_S):
                setup = self.child({"mode": "setup", "bundles": bundles})
                samples.append(setup["import_s"] + setup["weights_s"])
            record["setup_samples_s"] = samples
            record["metrics"] = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(record["setup_samples_s"]),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
            detail = {}
            for key in passes[0]["detail"]:
                values = [p["detail"].get(key) for p in passes]
                if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                    detail[key] = statistics.median(values)
                else:
                    detail[key] = values[0]
            record["detail"] = detail
        record["checks"] = self.checks.items
        record["attempted"] = self.stage_ops + len(self.checks.items)
        record["failed"] = self.stage_failed + self.checks.failed
        record["error_rate"] = record["failed"] / record["attempted"]
        return record

    def _check_trace(self, wl, traced: dict, layers: dict) -> None:
        for stage, rec in traced["trace_stages"].items():
            closes = abs(rec["other_s"] + rec["children_self_s"] - rec["s"]) <= 1e-6 and rec["other_s"] >= -1e-9
            self.checks.add(f"trace:reconciles:{stage}", closes,
                            f"s {rec['s']:.6f} = self {rec['children_self_s']:.6f} + other {rec['other_s']:.6f}")
        silent = [name for name in wl.exercised if not layers.get(name)]
        self.checks.add("trace:exercised-layers-recorded", not silent, ", ".join(silent))


def write_record(record: dict) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{record['workload']}-seed{record['provenance']['seed']}-trace{int(record['trace'])}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    return path


def result_line(record: dict, units: dict) -> str:
    metrics = {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".pkts", "count"), (".bytes", "bytes"), (".gflop", "GFLOP"),
                         ("_ms", "ms"), (".pad_frac", "ratio"), (".overhead_frac", "ratio"),
                         ("model.epochs", "count")):
        if name.endswith(suffix):
            return unit
    return "s"


def summarize(record: dict) -> None:
    failed = [c for c in record["checks"] if not c["ok"]]
    print(f"[{record['workload']}] {len(record['passes'])} pass(es), "
          f"{record['attempted']} operations, {record['failed']} failed", file=sys.stderr)
    for p in record["passes"]:
        for s in p["stages"]:
            if s["rc"] != 0:
                print(f"  FAILED stage {s['name']} (exit {s['rc']}) {s['error']}", file=sys.stderr)
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, with the full per-stage metric table."""
    records = []
    for name in WORKLOADS:
        record = Run(name, seed, seconds, trace=False).execute()
        write_record(record)
        summarize(record)
        records.append(record)
    names = list(WORKLOADS)
    print(f"{'metric':<24}{'unit':<9}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in DETAIL_UNITS.items():
        cells = []
        for r in records:
            value = r["metrics"].get(metric, r.get("detail", {}).get(metric, r.get(metric)))
            cells.append(f"{value:>16.4g}" if isinstance(value, (int, float)) else f"{'-':>16}")
        print(f"{metric:<24}{unit:<9}" + "".join(cells))
    print("no layer waits: at --jobs 1 there is no queue or worker pool, so every span is busy time")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{r['workload']}.{k}": {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for r in records for k, v in r["metrics"].items()}}))
    return 0


def self_check() -> int:
    """Reduced sizes: every workload's code path, traced and untraced, every
    output check, determinism across passes and runs, and the checkers
    themselves on known-bad inputs."""
    import workloads as w

    ok = True

    def report(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label} {detail}")

    good = {"t": {"true": [0] * 10 + [1] * 10, "ensembled": [0] * 9 + [1, 0] + [1] * 9,
                  "smoothed": [0] * 10 + [1] * 10}}
    report("checker: c06 passes a repaired timeline", w.c06_holds(w.c06_values(good, ["t"])))
    flat = {"t": {**good["t"], "ensembled": good["t"]["smoothed"]}}
    report("checker: c06 rejects a timeline with no flicker", not w.c06_holds(w.c06_values(flat, ["t"])))
    worse = {"t": {**good["t"], "smoothed": [1] * 20}}
    report("checker: c06 rejects smoothing that lowers accuracy", not w.c06_holds(w.c06_values(worse, ["t"])))
    bad_dir = WORK / "self-check"
    bad_dir.mkdir(parents=True, exist_ok=True)
    (bad_dir / "t.csv").write_text("packet_index,fold_0,ensembled,smoothed,true\n0,13,0,0,0\n")
    checks = Checks()
    w.check_predictions(bad_dir, {"t": 1, "u": 1}, 1, 1, checks)
    report("checker: predictions reject out-of-range labels and missing files", checks.failed == 2)
    shutil.rmtree(bad_dir, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {(m["name"], m["unit"]) for m in bench[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    for name in WORKLOADS:
        for label, run in (("untraced x2", Run(name, 1, 0, False, reduced=True, passes=2)),
                           ("traced", Run(name, 1, 0, True, reduced=True)),
                           ("traced again", Run(name, 1, 0, True, reduced=True))):
            start = time.monotonic()
            record = run.execute()
            failed = [c["name"] for c in record["checks"] if not c["ok"]]
            units = {k: layer_unit(k) if run.trace else END_TO_END_UNITS.get(k) for k in record["metrics"]}
            if set(units.items()) != declared[run.trace]:
                failed.append("metric names/units differ from BENCHMARK.json")
            report(f"{name} {label}", not failed and record["failed"] == 0,
                   f"({len(record['checks'])} checks, {time.monotonic() - start:.1f} s) {' '.join(failed)}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a csisense source tree ({ROOT}): missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    path = write_record(record)
    summarize(record)
    print(f"record: {path}", file=sys.stderr)
    units = {k: layer_unit(k) for k in record["metrics"]} if args.trace else END_TO_END_UNITS
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
