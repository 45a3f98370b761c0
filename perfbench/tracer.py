"""Opt-in span tracing of csisense, installed from outside the package.

Nothing here touches ``src/``: :func:`install` replaces public functions and
methods with timing wrappers at run time.  A function imported by name into
another module (``from .simulate import synth_trial`` in ``csisense.cli``) is
replaced in every ``csisense`` module that holds it, not only where it is
defined, so no call slips past the trace.

Spans nest on a stack.  Each span's duration is charged to its own name and
subtracted from its parent's self time, so for every CLI stage the self
times of all spans inside it plus the stage's residual (``other_s``) add up
to the stage's wall time exactly.  The process is single threaded at
``--jobs 1``: no layer queues behind another, so no span has a wait time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name, counter hook name or None)
FUNCTIONS = (
    ("csisense.simulate", "synth_trial", "simulate.synth_trial", "pkts_out"),
    ("csisense.channel", "assemble_h_matrix", "channel.assemble_h_matrix", None),
    ("csisense.dataio", "write_trial", "dataio.write_trial", "bytes_out"),
    ("csisense.dataio", "read_trial", "dataio.read_trial", "bytes_in"),
    ("csisense.dataio", "export_feature_csv", "dataio.export_feature_csv", "bytes_out"),
    ("csisense.dataio", "import_feature_csv", "dataio.import_feature_csv", "bytes_in"),
    ("csisense.dataio", "write_predictions", "dataio.write_predictions", None),
    ("csisense.dataio", "read_predictions", "dataio.read_predictions", None),
    ("csisense.features", "normalize_length", "features.normalize_length", "padding"),
    ("csisense.features", "trial_features", "features.trial_features", None),
    ("csisense.features", "robust_fit", "features.robust_fit", None),
    ("csisense.features", "robust_transform", "features.robust_transform", None),
    ("csisense.model", "_evaluate", "model.val_forward", None),
    ("csisense.weights", "load_weights", "weights.load_weights", "bytes_in"),
    ("csisense.weights", "model_from_weights", "weights.model_from_weights", None),
    ("csisense.weights", "save_weights", "weights.save_weights", "bytes_out"),
    ("csisense.postprocess", "ensemble_mode", "postprocess.ensemble_mode", None),
    ("csisense.postprocess", "smooth", "postprocess.smooth", None),
    ("csisense.postprocess", "metrics", "postprocess.metrics", None),
    ("csisense.render", "render_label_plot", "render.render_label_plot", None),
)

# model attribute -> nn span group; the head is everything after attention
# plus the three dropouts
NN_LAYERS = (
    ("posenc", "posenc"),
    ("bigru1", "bigru1"),
    ("drop1", "head"),
    ("bigru2", "bigru2"),
    ("drop2", "head"),
    ("attention", "attention"),
    ("skip", "head"),
    ("dense1", "head"),
    ("drop3", "head"),
    ("concat", "head"),
    ("out", "head"),
)
NN_GROUPS = ("posenc", "bigru1", "bigru2", "attention", "head")
CLI_STAGES = ("simulate", "preprocess", "train", "classify", "evaluate", "report")


def _trial_len(trial) -> int:
    """Packet count of a trial, whatever its in-memory layout."""
    for attr in ("packets", "timestamps", "labels"):
        if hasattr(trial, attr):
            return len(getattr(trial, attr))
    return len(trial)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span stack plus per-name aggregates: seconds, calls and counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)  # per-call milliseconds, for percentiles
        self.stages: dict[str, dict] = {}
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._stage_self = 0.0  # self time of spans inside the open stage
        self._step_start = None
        self.nn_shape: dict[int, tuple[int, int]] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> float:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.seconds[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
            self._stage_self += duration - child
        return duration

    def stage(self, name: str, fn):
        """Run one CLI stage as the root span; records wall, CPU and residual."""
        self._stack.clear()
        self._stage_self = 0.0
        cpu = time.process_time()
        self._stack.append([name, time.perf_counter(), 0.0])
        try:
            return fn()
        finally:
            _, start, child = self._stack.pop()
            wall = time.perf_counter() - start
            self.stages[name] = {
                "s": wall,
                "cpu_s": time.process_time() - cpu,
                "other_s": wall - child,
                "children_self_s": self._stage_self,
            }


def _wrap(tracer: Tracer, name: str, fn, hook: str | None):
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if hook == "pkts_out":
            tracer.counts[f"{name}.pkts"] += _trial_len(out)
        elif hook == "bytes_out":
            tracer.counts[f"{name}.bytes"] += _file_size(args[1] if len(args) > 1 else kwargs.get("path"))
        elif hook == "bytes_in":
            tracer.counts[f"{name}.bytes"] += _file_size(args[0] if args else kwargs.get("path"))
        elif hook == "padding":
            target = args[1] if len(args) > 1 else kwargs.get("target_len", _trial_len(out))
            tracer.counts[f"{name}.pad"] += max(0, target - _trial_len(args[0]))
            tracer.counts[f"{name}.out"] += target
        return out

    traced.__wrapped__ = fn
    return traced


def _rebind(original, replacement) -> None:
    """Point every csisense module attribute that is ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "csisense" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# GEMM flop counts (2*m*n*k each) from layer shapes; b, t from the input
def _gru_flops(layer, b, t, backward):
    i, u = layer.fwd.in_dim, layer.units
    per_direction = 6 * b * t * u * (i + u)  # 3 input + 3 recurrent GEMMs
    return 2 * per_direction * (2 if backward else 1)


def _attention_flops(layer, b, t, backward):
    d, hk = layer.model_dim, layer.heads * layer.key_dim
    fwd = 8 * b * t * d * hk + 4 * b * t * t * hk
    return 2 * fwd if backward else fwd


def _dense_flops(layer, b, t, backward):
    i, o = layer.params["W"].shape
    return (4 if backward else 2) * b * t * i * o


def _layer_flops(attr: str):
    if attr.startswith("bigru"):
        return _gru_flops
    if attr == "attention":
        return _attention_flops
    if attr in ("dense1", "out"):
        return _dense_flops
    return None


def _count_flops(tracer: Tracer, key: str, flops, layer, b: int, t: int, backward: bool) -> None:
    # a layer whose shape attributes moved counts nothing; the zero-call
    # check on nn.*.gflop then fails the run instead of the trace crashing
    try:
        tracer.counts[key] += flops(layer, b, t, backward)
    except (AttributeError, KeyError, TypeError, ValueError):
        pass


def _instrument_model(tracer: Tracer, model) -> None:
    for attr, group in NN_LAYERS:
        layer = getattr(model, attr, None)
        if layer is None:
            continue
        flops = _layer_flops(attr)
        key = id(layer)
        fwd, bwd = layer.forward, layer.backward

        def forward(*args, _fwd=fwd, _group=group, _flops=flops, _key=key, _layer=layer, **kwargs):
            x = np.asarray(args[0])
            b, t = (1, x.shape[0]) if x.ndim == 2 else (x.shape[0], x.shape[1])
            tracer.nn_shape[_key] = (b, t)
            if _flops is not None:
                _count_flops(tracer, "nn.fwd.flop", _flops, _layer, b, t, False)
            tracer.enter(f"nn.{_group}.fwd")
            try:
                return _fwd(*args, **kwargs)
            finally:
                tracer.leave()

        def backward(*args, _bwd=bwd, _group=group, _flops=flops, _key=key, _layer=layer, **kwargs):
            if _flops is not None and _key in tracer.nn_shape:
                _count_flops(tracer, "nn.bwd.flop", _flops, _layer, *tracer.nn_shape[_key], True)
            tracer.enter(f"nn.{_group}.bwd")
            try:
                return _bwd(*args, **kwargs)
            finally:
                tracer.leave()

        layer.forward = forward
        layer.backward = backward


def install(tracer: Tracer) -> None:
    """Wrap the public functions and nn layers of an imported csisense."""
    import importlib

    for modname, fname, span, hook in FUNCTIONS:
        # a function that no longer exists records nothing, which the
        # exercised-layer check reports
        original = getattr(importlib.import_module(modname), fname, None)
        if original is not None:
            _rebind(original, _wrap(tracer, span, original, hook))

    from csisense.model import SequenceClassifier
    from csisense.nn import Adam
    from csisense.rng import CounterRng

    CounterRng.u64 = _wrap(tracer, "rng.draw", CounterRng.u64, None)

    init = SequenceClassifier.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _instrument_model(tracer, self)

    SequenceClassifier.__init__ = traced_init

    predict = SequenceClassifier.predict

    def traced_predict(self, *args, **kwargs):
        tracer.enter("model.predict")
        try:
            return predict(self, *args, **kwargs)
        finally:
            tracer.samples["model.predict"].append(1e3 * tracer.leave())

    SequenceClassifier.predict = traced_predict

    # a training step runs from the training-mode forward to the end of the
    # optimizer update that follows it
    forward = SequenceClassifier.forward

    def traced_forward(self, *args, **kwargs):
        if kwargs.get("training", args[1] if len(args) > 1 else False):
            tracer._step_start = time.perf_counter()
        return forward(self, *args, **kwargs)

    SequenceClassifier.forward = traced_forward

    step = Adam.step

    def traced_step(self, *args, **kwargs):
        tracer.enter("nn.adam")
        try:
            return step(self, *args, **kwargs)
        finally:
            tracer.leave()
            if tracer._step_start is not None:
                tracer.samples["model.train_step"].append(1e3 * (time.perf_counter() - tracer._step_start))
                tracer._step_start = None

    Adam.step = traced_step


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten the trace into ``<module>.<function>.<stat>`` values.

    Names a workload does not exercise read 0; the caller decides which of
    those are failures.
    """
    s, n, c = tracer.seconds, tracer.calls, tracer.counts
    out: dict[str, float] = {}
    for stage in CLI_STAGES:
        rec = tracer.stages.get(f"cli.{stage}", {})
        for stat in ("s", "cpu_s", "other_s"):
            out[f"cli.{stage}.{stat}"] = rec.get(stat, 0.0)
    for name in ("simulate.synth_trial", "channel.assemble_h_matrix", "rng.draw"):
        out[f"{name}.s"] = s[name]
        out[f"{name}.calls"] = n[name]
    out["simulate.synth_trial.pkts"] = c["simulate.synth_trial.pkts"]
    for fn in ("write_trial", "read_trial", "export_feature_csv", "import_feature_csv"):
        out[f"dataio.{fn}.s"] = s[f"dataio.{fn}"]
        out[f"dataio.{fn}.bytes"] = c[f"dataio.{fn}.bytes"]
    for fn in ("write_predictions", "read_predictions"):
        out[f"dataio.{fn}.s"] = s[f"dataio.{fn}"]
    for fn in ("normalize_length", "trial_features", "robust_fit", "robust_transform"):
        out[f"features.{fn}.s"] = s[f"features.{fn}"]
    padded = c["features.normalize_length.out"]
    out["features.normalize_length.pad_frac"] = c["features.normalize_length.pad"] / padded if padded else 0.0
    for group in NN_GROUPS:
        out[f"nn.{group}.fwd_s"] = s[f"nn.{group}.fwd"]
        out[f"nn.{group}.bwd_s"] = s[f"nn.{group}.bwd"]
    out["nn.adam.step_s"] = s["nn.adam"]
    out["nn.adam.calls"] = n["nn.adam"]
    out["nn.fwd.gflop"] = c["nn.fwd.flop"] / 1e9
    out["nn.bwd.gflop"] = c["nn.bwd.flop"] / 1e9
    predict_ms = tracer.samples["model.predict"]
    step_ms = tracer.samples["model.train_step"]
    out["model.predict.calls"] = n["model.predict"]
    out["model.predict.p50_ms"] = _pct(predict_ms, 50)
    out["model.predict.p95_ms"] = _pct(predict_ms, 95)
    out["model.train_step.p50_ms"] = _pct(step_ms, 50)
    out["model.train_step.p85_ms"] = _pct(step_ms, 85)
    out["model.val_forward.s"] = s["model.val_forward"]
    out["model.epochs"] = n["model.val_forward"]  # one validation pass per epoch
    for fn in ("load_weights", "model_from_weights", "save_weights"):
        out[f"weights.{fn}.s"] = s[f"weights.{fn}"]
        out[f"weights.{fn}.calls"] = n[f"weights.{fn}"]
    out["weights.save_weights.bytes"] = c["weights.save_weights.bytes"]
    for fn in ("ensemble_mode", "smooth", "metrics"):
        out[f"postprocess.{fn}.s"] = s[f"postprocess.{fn}"]
    out["render.render_label_plot.s"] = s["render.render_label_plot"]
    return out
