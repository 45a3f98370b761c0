"""One fresh-interpreter step of a benchmark run.

    python3 perfbench/child.py <spec.json>

The spec names a mode and its inputs; the result is written as JSON to the
path in ``spec["result"]``.  Modes:

* ``pass``  - import ``csisense.cli`` and run CLI stages through
  ``cli.main(argv)`` in order, each timed; optionally traced.
* ``setup`` - time ``import csisense.cli`` plus, for each weight bundle
  given, ``load_weights`` and ``model_from_weights``.
* ``bundles`` - build untrained weight bundles from an architecture file and
  a preprocess scaler (inputs for classify-only workloads; untimed).
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_cli(root: str):
    src = str(Path(root) / "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import csisense.cli as cli

    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"csisense imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def _versions() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(spec: dict) -> dict:
    cli, import_s = _import_cli(spec["root"])
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    stages = []
    for name, argv in spec["stages"]:
        buf = io.StringIO()

        def call(argv=argv):
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        cpu = time.process_time()
        start = time.perf_counter()
        error = ""
        try:
            rc = tracer.stage(f"cli.{name}", call) if tracer else call()
        except (Exception, SystemExit):  # a crashing stage is a failed operation, not a lost run
            rc, error = -1, traceback.format_exc(limit=5)
        wall = time.perf_counter() - start
        stages.append({
            "name": name,
            "rc": rc,
            "s": wall,
            "cpu_s": time.process_time() - cpu,
            "stdout": buf.getvalue(),
            "error": error,
        })
        if rc != 0:
            break
    result = {"import_s": import_s, "stages": stages, "peak_rss_mb": _peak_rss_mb(), "versions": _versions()}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["trace_stages"] = tracer.stages
    return result


def run_setup(spec: dict) -> dict:
    _cli, import_s = _import_cli(spec["root"])
    from csisense.weights import load_weights, model_from_weights

    weights_s = 0.0
    for path in spec.get("bundles", []):
        start = time.perf_counter()
        model_from_weights(load_weights(path))
        weights_s += time.perf_counter() - start
    return {"import_s": import_s, "weights_s": weights_s}


def run_bundles(spec: dict) -> dict:
    _import_cli(spec["root"])
    from dataclasses import replace

    from csisense import dataio
    from csisense.model import build, load_arch_config
    from csisense.weights import save_weights, weights_from_model

    arch = load_arch_config(spec["arch"])
    if spec.get("scale_factor"):
        arch = replace(arch, scale_factor=spec["scale_factor"])
    scaler = dataio.load_scaler(spec["scaler"])
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    for fold in range(spec["folds"]):
        seed = spec["seed"] * 10007 + fold
        bundle = weights_from_model(build(arch, seed=seed), fold, seed, scaler=scaler)
        save_weights(bundle, out / f"fold{fold}.weights")
    return {}


MODES = {"pass": run_pass, "setup": run_setup, "bundles": run_bundles}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = MODES[spec["mode"]](spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
