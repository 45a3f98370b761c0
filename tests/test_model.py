"""Network assembly, width regressions, training mechanics, weight bundles."""

import dataclasses
import hashlib
import json
import re
import struct
import tempfile
import zlib

import numpy as np
import pytest

import csisense.model as model_module
from csisense.dataio import RowSpill
from csisense.errors import ChecksumError, DomainError, FormatError, TrainingDiverged, VersionError
from csisense.features import RobustScalerParams, one_hot
from csisense.model import (
    ArchConfig,
    SequenceClassifier,
    TrainConfig,
    _evaluate,
    build,
    inference_rows,
    load_arch_config,
    load_train_config,
    param_count,
    train_fold,
    train_kfold,
)
from csisense.nn import cross_entropy, cross_entropy_logit_grad, grad_check, softmax
from csisense.postprocess import confusion, metrics
from csisense.weights import (
    ModelWeights,
    load_weights,
    model_from_weights,
    save_weights,
    weights_from_model,
)

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
# the desk architecture as train builds it from 156-packet features
DESK = dataclasses.replace(load_arch_config("configs/arch-desk.ini"), seq_len=156)


def _pool(n, arch, seed):
    """A pool of ``n`` trials as train holds it: x (n, T, F) and int64 labels
    (n, T), trial i all of class i % classes."""
    rng = np.random.default_rng(seed)
    cls = np.arange(n) % arch.classes
    x = rng.standard_normal((n, arch.seq_len, arch.feature_dim)) + 0.8 * cls[:, None, None]
    return x, np.repeat(cls[:, None], arch.seq_len, axis=1)


# ------------------------------------------------------------ architecture

def test_full_scale_width_regression():
    arch = ArchConfig()
    w = arch.widths()
    assert w["bigru1_out"] == 2048
    assert w["bigru2_out"] == 1024
    assert w["attention_concat"] == 512
    assert w["concat"] == 1536
    assert param_count(arch) == 19_055_629


def test_scale_factor_16_mapping():
    arch = ArchConfig(seq_len=156, scale_factor=16)
    eff = arch.scaled()
    assert (eff.bigru1_units, eff.bigru2_units) == (64, 32)
    assert (eff.heads, eff.key_dim, eff.dense_units) == (2, 16, 32)
    assert eff.scale_factor == 1
    assert arch.widths() == {
        "bigru1_out": 128,
        "bigru2_out": 64,
        "attention_concat": 32,
        "concat": 96,
    }


def test_param_count_matches_built_model():
    model = build(MICRO, seed=0)
    total = sum(v.size for v in model.params.values())
    assert total == param_count(MICRO)
    desk = ArchConfig(seq_len=12, scale_factor=16)
    model = build(desk, seed=1)
    assert sum(v.size for v in model.params.values()) == param_count(desk)


def test_param_store_views_tile_the_store_at_desk_arch():
    arch = DESK
    model = build(arch, seed=0)
    store = model.store
    assert store.values.size == store.grads.size == param_count(arch)
    assert set(model.grads) == set(model.params)
    store.values[...] = 0.0
    for name, view in model.params.items():
        grad = model.grads[name]
        assert np.shares_memory(view, store.values) and np.shares_memory(grad, store.grads)
        assert grad.shape == view.shape
        view += 1.0
        grad += 1.0
    # every element lies in exactly one named view: the views are disjoint and cover the store
    assert (store.values == 1.0).all() and (store.grads == 1.0).all()
    # each gradient sits at its parameter's offset
    for i, (name, view) in enumerate(model.params.items()):
        view[...] = i
        model.grads[name][...] = i
    assert np.array_equal(store.values, store.grads)


def test_arch_validation():
    with pytest.raises(DomainError):
        ArchConfig(seq_len=0)
    with pytest.raises(DomainError):
        ArchConfig(scale_factor=0)
    with pytest.raises(DomainError):
        ArchConfig(bigru1_units=16, scale_factor=16)  # scales down to 1
    with pytest.raises(DomainError):
        ArchConfig(dropout1=1.0)


@pytest.mark.parametrize("fields, message", [
    # every argmax of the network must be a class code
    ({"classes": 0}, "classes 0 must lie in 1..13"),
    ({"classes": 14}, "classes 14 must lie in 1..13"),
    # the head count is checked before scaling, which floors it at 1
    ({"heads": 0}, "heads 0 must be at least 1"),
    ({"heads": -3, "scale_factor": 4}, "heads -3 must be at least 1"),
], ids=["classes-0", "classes-14", "heads-0", "heads-minus-3-scaled"])
def test_arch_rejects_settings_outside_their_range(fields, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ArchConfig(**fields)


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(batch=0)
    with pytest.raises(DomainError):
        TrainConfig(folds=1)
    with pytest.raises(DomainError):
        TrainConfig(lr=0.0)
    with pytest.raises(DomainError, match="seed must be at least 0"):
        TrainConfig(seed=-1)


# ----------------------------------------------------------------- forward

def test_forward_shapes_and_prob_rows():
    model = build(MICRO, seed=2)
    x = np.random.default_rng(0).standard_normal((1, 6, 4))
    p = model.forward(x)
    assert p.shape == (1, 6, 3)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p > 0).all()
    batched = model.forward(np.concatenate([x, x + 1.0]))
    assert batched.shape == (2, 6, 3)
    assert np.allclose(batched[:1], p, atol=1e-12)
    assert np.array_equal(model.predict(x, [0]), p)
    short = model.forward(x[:, :4])  # a shorter sequence reuses the positional table's head
    assert short.shape == (1, 4, 3)


def test_inference_rows_bound_the_chunk():
    assert inference_rows(DESK) == 8
    assert inference_rows(load_arch_config("configs/arch-full.ini")) == 1
    assert inference_rows(MICRO) > 100


@pytest.mark.parametrize("batch, bundle", [(2, False), (3, False), (5, False), (3, True)],
                         ids=["2", "3", "5", "bundle-3"])
def test_desk_batched_predict_equals_per_trial_predicts(batch, bundle):
    model = build(DESK, seed=3)
    if bundle:  # a float32 store, as classify loads it, computes in float32
        model = model_from_weights(weights_from_model(model, fold_id=0, seed=3, scaler=_scaler(366)))
    x = np.random.default_rng(batch).standard_normal((batch, 156, 366))
    probs, predicted = model.forward(x), model.predict(x, range(batch))
    assert probs.dtype == predicted.dtype == model.store.values.dtype
    for i in range(batch):
        assert np.array_equal(probs[i : i + 1], model.forward(x[i : i + 1]))
        assert np.array_equal(predicted[i : i + 1], model.predict(x, [i]))


@pytest.mark.parametrize("chunk", [1, 3, 7, 50])
@pytest.mark.parametrize("bundle", [False, True], ids=["float64", "bundle"])
def test_predict_over_a_spill_equals_predict_over_an_array(monkeypatch, chunk, bundle):
    model = build(MICRO, seed=7)
    if bundle:  # a float32 store, as classify loads it
        model = model_from_weights(weights_from_model(model, fold_id=0, seed=7, scaler=_scaler(4)))
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: chunk)
    x, _ = _pool(9, MICRO, seed=8)
    rows = [6, 2, 8, 0, 5, 3, 7]  # unsorted, and rows 1 and 4 left out
    with tempfile.TemporaryFile() as file:
        spill = RowSpill(file, x.shape[1:])
        for row in x:
            spill.append(row)
        spilled = model.predict(spill, rows)
    probs = model.predict(x, rows)
    assert probs.shape == (7, 6, 3)
    assert probs.dtype == spilled.dtype == model.store.values.dtype
    assert probs.tobytes() == spilled.tobytes()
    for place, r in enumerate(rows):
        alone = model.forward(x[r][None])[0]
        assert np.array_equal(probs[place], alone)
        assert np.array_equal(np.argmax(probs[place], axis=-1), np.argmax(alone, axis=-1))


def test_batched_evaluate_equals_a_per_frame_loop():
    arch = DESK
    model = build(arch, seed=3)
    x, labels = _pool(12, arch, seed=4)
    rows = [3, 10, 0, 7, 1, 9, 4, 8, 2, 6, 5]  # chunks of 8 and 3; row 11 is left out
    loss, conf = 0.0, np.zeros((13, 13), dtype=np.int64)
    for r in rows:
        probs = model.forward(x[r][None])[0]
        loss += cross_entropy(probs, one_hot(labels[r], 13))
        conf += confusion(labels[r], np.argmax(probs, axis=-1), 13)
    report = metrics(conf)
    want = {"loss": loss / 11, "acc": report.accuracy, "precision": report.precision, "recall": report.recall}
    assert _evaluate(model, x, labels, rows, 13) == want


@pytest.mark.parametrize("shape", [(6, 4), (1, 7, 4), (1, 6, 5)], ids=["2-D", "too-long", "wrong-width"])
@pytest.mark.parametrize("bundle", [False, True], ids=["float64", "bundle"])
def test_forward_logits_rejects_bad_input(tmp_path, shape, bundle):
    # the model's forward is the network's one input check: the layers run
    # only on a (B, T <= seq_len, feature_dim) batch, and change nothing first
    model = build(MICRO, seed=0)
    if bundle:
        model = model_from_weights(load_weights(_bundle(tmp_path)[2]))
    before = model.store.values.copy()
    for training in (False, True):
        with pytest.raises(DomainError):
            model.forward_logits(np.zeros(shape), training=training)
    assert np.array_equal(model.store.values, before)


def test_build_determinism():
    a = build(MICRO, seed=7).params
    b = build(MICRO, seed=7).params
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = build(MICRO, seed=8).params
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# SHA-256 over the sorted parameter names and their float64 bytes of
# build(arch-desk, seed=3): the initial weights build draws, bit for bit.
DESK_BUILD_SHA256 = "ce512709a02d65893ee9e0946993e23fe5cbd00bfe43f6eb61a15741985a06f7"


def test_desk_build_draws_frozen_bytes():
    params = build(DESK, seed=3).params
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    assert h.hexdigest() == DESK_BUILD_SHA256


def test_only_a_training_forward_keeps_caches_until_its_backward():
    model = build(MICRO, seed=0)
    x = np.random.default_rng(1).standard_normal((1, 6, 4))
    layers = [model.bigru1, model.bigru2, model.attention, model.dense1, model.out]
    probs = model.forward(x, training=True)
    assert all(layer._cache is not None for layer in layers)
    model.backward(probs)
    assert all(layer._cache is None for layer in layers)
    # an inference forward keeps nothing, and lets go of a cache no backward read
    for infer in (lambda x: model.predict(x, [0]), lambda x: model.forward(x, training=False)):
        model.forward(x, training=True)
        infer(x)
        assert all(layer._cache is None for layer in layers)


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


def test_train_step_without_the_input_gradient_keeps_every_parameter_gradient():
    # train_fold asks for no input gradient; the parameter gradients of the
    # step must be those of a full backward, bit for bit
    arch = DESK
    x, labels = _pool(3, arch.scaled(), 5)
    y = one_hot(labels, arch.classes)
    grads = []
    for input_grad in (True, False):
        model = build(arch, seed=3)
        logits = model.forward_logits(x, training=True)
        dx = model.backward(cross_entropy_logit_grad(softmax(logits), y), input_grad=input_grad)
        assert (dx is not None) == input_grad
        grads.append(model.store.grads.tobytes())
    assert grads[0] == grads[1]


def test_micro_model_grad_check():
    model = build(MICRO, seed=3)
    x = np.random.default_rng(5).standard_normal((1, 6, 4))
    report = grad_check(_LogitView(model), [x])
    assert max(report.values()) <= 1e-6


# ---------------------------------------------------------------- training

def test_train_fold_history_and_best_restore():
    x, labels = _pool(6, MICRO, seed=11)
    cfg = TrainConfig(epochs=4, batch=2, lr=3e-3, folds=2, seed=5)
    model = build(MICRO, seed=cfg.seed)
    history = train_fold(model, x, labels, [0, 1, 2, 3], [4, 5], cfg, fold_id=0)
    assert 1 <= len(history) <= 4
    assert [row["epoch"] for row in history] == list(range(1, len(history) + 1))
    for row in history:
        assert set(row) == {"epoch", "loss", "acc", "precision", "recall", "lr"}
    assert history[0]["lr"] == cfg.lr

    # the model is left at the best validation epoch
    correct = total = 0
    for r in (4, 5):
        pred = np.argmax(model.predict(x, [r])[0], axis=-1)
        correct += int((pred == labels[r]).sum())
        total += labels[r].size
    assert abs(correct / total - max(r["acc"] for r in history)) < 1e-12


def _scripted_fold(monkeypatch, accs, cfg):
    """Train a fold whose validation accuracies are ``accs``, one per epoch;
    returns the history, the weights at each epoch's end and the weights
    the fold leaves in the model."""
    script = iter(accs)
    monkeypatch.setattr(
        model_module, "_evaluate",
        lambda model, x, labels, rows, classes: {"loss": 0.0, "acc": next(script), "precision": 0.0, "recall": 0.0},
    )
    x, labels = _pool(4, MICRO, seed=41)
    model = build(MICRO, seed=cfg.seed)
    snapshots = {}
    history = train_fold(
        model, x, labels, [0, 1], [2, 3], cfg,
        on_epoch=lambda fold, row: snapshots.setdefault(row["epoch"], model.store.values.copy()),
    )
    assert [row["epoch"] for row in history] == list(range(1, len(history) + 1))
    assert [row["acc"] for row in history] == list(accs[: len(history)])
    return history, snapshots, model.store.values


@pytest.mark.parametrize("accs, patience, lrs", [
    # strict improvement every epoch: never cut
    ([0.1, 0.2, 0.3], 2, [1e-3] * 4),
    # ten flat epochs after the best: one halving
    ([1.0] + [0.5] * 10, 10, [1e-3] * 11 + [5e-4]),
    # nine flat, a new best, nine flat: the wait never reaches patience
    ([1.0] + [0.5] * 9 + [2.0] + [0.5] * 9, 10, [1e-3] * 21),
    # repeated plateaus floor at MIN_LR (1e-6): the tenth halving would pass it
    ([1.0] + [0.0] * 300, 10, [1e-3] + [1e-3 * 0.5 ** (k // 10) for k in range(100)] + [1e-6] * 201),
], ids=["improving", "one-plateau", "reset-by-new-best", "floor"])
def test_train_fold_lr_plateau_schedule(monkeypatch, accs, patience, lrs):
    # one epoch past the series shows the rate the whole series leaves
    cfg = TrainConfig(epochs=len(accs) + 1, batch=2, lr=1e-3, folds=2, lr_patience=patience,
                      early_stop_patience=len(accs) + 1)
    history, _, _ = _scripted_fold(monkeypatch, [*accs, 0.0], cfg)
    assert len(history) == len(accs) + 1
    assert [row["lr"] for row in history] == lrs


@pytest.mark.parametrize("accs, epochs, stop, best", [
    # still improving at the budget: no early stop, the last epoch is best
    ([0.1, 0.2, 0.3], 3, 3, 3),
    # falling from the first epoch: stop once two epochs pass it
    ([0.3, 0.2, 0.1, 0.9], 4, 3, 1),
    # ties resolve to the earliest maximum
    ([0.1, 0.5, 0.5, 0.5, 0.9], 5, 4, 2),
    # with no best yet, the first epoch is best even at accuracy 0
    ([0.0, 0.0, 0.0, 0.9], 4, 3, 1),
], ids=["improving", "falling", "tie", "first-is-best"])
def test_train_fold_early_stopping_restores_the_best_epoch(monkeypatch, accs, epochs, stop, best):
    cfg = TrainConfig(epochs=epochs, batch=2, lr=1e-3, folds=2, lr_patience=10, early_stop_patience=2)
    history, snapshots, kept = _scripted_fold(monkeypatch, accs, cfg)
    assert len(history) == stop
    assert np.array_equal(kept, snapshots[best])
    assert not np.array_equal(kept, snapshots[stop]) or best == stop


def test_train_fold_is_deterministic():
    x, labels = _pool(6, MICRO, seed=13)
    cfg = TrainConfig(epochs=3, batch=2, lr=1e-3, folds=2, seed=9)
    runs = []
    for _ in range(2):
        model = build(MICRO, seed=cfg.seed)
        history = train_fold(model, x, labels, [0, 1, 2, 3], [4, 5], cfg, fold_id=1)
        runs.append((history, model.store.values.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_fold_rejects_bad_frames():
    # a pool longer than seq_len or of another width is refused by the first
    # batch's forward, before any step.  Labels beyond the classes are
    # refused as train reads each CSV (test_cli.py)
    cfg = TrainConfig(epochs=1, batch=2, folds=2)
    model = build(MICRO, seed=0)
    before = model.store.values.copy()
    for shape in ((4, 7, 4), (4, 6, 5)):
        with pytest.raises(DomainError, match=re.escape(f"input shape {(2, *shape[1:])}")):
            train_fold(model, np.zeros(shape), np.zeros(shape[:2], dtype=np.int64), [0, 1], [2, 3], cfg)
    assert np.array_equal(model.store.values, before)


def test_train_fold_divergence_names_the_fold():
    x, labels = _pool(4, MICRO, seed=23)
    cfg = TrainConfig(epochs=2, batch=2, lr=1e200, folds=2, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="fold 7"):
            train_fold(build(MICRO, seed=1), x, labels, [0, 1, 2, 3], [0, 1], cfg, fold_id=7)


def test_train_kfold_mechanics(monkeypatch):
    x, labels = _pool(8, MICRO, seed=29)
    folds = [[6, 0, 3, 5], [2, 7, 1, 4]]
    cfg = TrainConfig(epochs=2, batch=2, folds=2, seed=3)
    calls = []

    def spy(model, x, labels, train_rows, val_rows, cfg, fold_id, on_epoch):
        calls.append((fold_id, list(train_rows), list(val_rows)))
        return train_fold(model, x, labels, train_rows, val_rows, cfg, fold_id, on_epoch)

    monkeypatch.setattr(model_module, "train_fold", spy)
    results = train_kfold(x, labels, folds, MICRO, cfg)
    # fold i validates on folds[i] and trains on the rest, in ascending rows
    assert calls == [(0, [1, 2, 4, 7], [0, 3, 5, 6]), (1, [0, 3, 5, 6], [1, 2, 4, 7])]
    assert len(results) == 2
    for model, history in results:
        assert history and isinstance(history[0], dict)
        assert model.arch == MICRO
    # distinct per-fold seeds give distinct initializations
    p0 = results[0][0].params
    p1 = results[1][0].params
    assert any(not np.array_equal(p0[k], p1[k]) for k in p0)


def test_train_kfold_over_a_spill_equals_over_an_array(tmp_path, monkeypatch):
    # train gathers each batch and validation chunk from a RowSpill of the
    # pool, with uint8 labels; nothing may move a bit of a bundle or history
    x, labels = _pool(9, MICRO, seed=41)
    folds = [[6, 0, 3, 5, 8], [2, 7, 1, 4]]
    cfg = TrainConfig(epochs=3, batch=3, folds=2, seed=5)
    monkeypatch.setattr(model_module, "inference_rows", lambda arch: 3)  # chunks of 3 and a rest
    with tempfile.TemporaryFile() as file:
        spill = RowSpill(file, x.shape[1:])
        for row in x:
            spill.append(row)
        runs = {
            "array": train_kfold(x, labels, folds, MICRO, cfg),
            "spill": train_kfold(spill, labels.astype(np.uint8), folds, MICRO, cfg),
        }
    for name, results in runs.items():
        for fold_id, (model, _) in enumerate(results):
            bundle = weights_from_model(model, fold_id, fold_id, scaler=_scaler(MICRO.feature_dim))
            save_weights(bundle, tmp_path / f"{name}{fold_id}.weights")
    for fold_id in range(2):
        array, spilled = (tmp_path / f"{name}{fold_id}.weights" for name in runs)
        assert array.read_bytes() == spilled.read_bytes()
        assert runs["array"][fold_id][1] == runs["spill"][fold_id][1]
        assert len(runs["spill"][fold_id][1]) == 3


def test_train_kfold_models_hold_no_caches():
    x, labels = _pool(4, MICRO, seed=37)
    cfg = TrainConfig(epochs=1, batch=2, folds=2, seed=3)
    for model, _ in train_kfold(x, labels, [[0, 1], [2, 3]], MICRO, cfg):
        assert all(getattr(layer, "_cache", None) is None for layer in vars(model).values())


def test_train_kfold_epoch_callback():
    x, labels = _pool(4, MICRO, seed=31)
    cfg = TrainConfig(epochs=2, batch=2, folds=2, seed=0)
    seen = []
    train_kfold(
        x,
        labels,
        [[0, 1], [2, 3]],
        MICRO,
        cfg,
        on_epoch=lambda fold, row: seen.append((fold, row["epoch"])),
    )
    assert seen[0] == (0, 1)
    assert {fold for fold, _ in seen} == {0, 1}


# ---------------------------------------------------------- weight bundles

def _scaler(width):
    return RobustScalerParams(
        median=np.linspace(-1.0, 1.0, width),
        iqr=np.linspace(0.5, 2.0, width),
        degenerate=np.arange(width) % 7 == 0,
    )


def _bundle(tmp_path, fname="m.weights"):
    model = build(MICRO, seed=4)
    sc = RobustScalerParams(
        median=np.arange(4, dtype=np.float64),
        iqr=np.array([1.0, 2.0, 0.0, 4.0]),
        degenerate=np.array([False, False, True, False]),
    )
    w = weights_from_model(model, fold_id=2, seed=4, scaler=sc)
    path = tmp_path / fname
    save_weights(w, path)
    return model, w, path


def test_weights_round_trip(tmp_path):
    model, w, path = _bundle(tmp_path)
    back = load_weights(path)
    assert back.arch == model.arch
    assert (back.fold_id, back.seed) == (2, 4)
    assert np.array_equal(back.values, w.values)
    assert back.values.dtype == np.float32 and back.values.size == param_count(MICRO)
    assert np.array_equal(back.scaler.median, w.scaler.median.astype(np.float32))
    assert np.array_equal(back.scaler.degenerate, w.scaler.degenerate)

    rebuilt = model_from_weights(back)
    for k, v in rebuilt.params.items():
        assert np.array_equal(v, model.params[k].astype(np.float32).astype(np.float64))


def test_loaded_model_predict_writes_no_gradient(tmp_path):
    _, _, path = _bundle(tmp_path)
    model = model_from_weights(load_weights(path))
    model.predict(np.random.default_rng(8).standard_normal((1, 6, 4)), [0])
    assert not model.store.grads.any()


def test_bundle_model_keeps_float32_weights_and_predicts_in_float32(tmp_path):
    arch = DESK
    path = tmp_path / "desk.weights"
    save_weights(weights_from_model(build(arch, seed=3), fold_id=0, seed=3, scaler=_scaler(366)), path)
    loaded = load_weights(path)
    m32 = model_from_weights(loaded)
    m64 = SequenceClassifier(arch, seed=3, values=loaded.values.astype(np.float64))
    assert m32.store.values.dtype == np.float32 and m64.store.values.dtype == np.float64
    assert m32.store.values.nbytes * 2 == m64.store.values.nbytes
    for name, arr in m64.params.items():
        assert np.array_equal(m32.params[name], arr)
    x = np.random.default_rng(9).standard_normal((3, 156, 366))
    probs, want = m32.forward(x), m64.forward(x)
    assert probs.dtype == np.float32 and want.dtype == np.float64
    assert np.array_equal(np.argmax(probs, axis=-1), np.argmax(want, axis=-1))
    assert np.array_equal(np.argmax(m32.predict(x, [1]), axis=-1), np.argmax(m64.predict(x, [1]), axis=-1))
    # measured 1.3e-7 on this input: float32 rounding, not a changed network
    assert np.abs(probs - want).max() < 1e-6


def test_bundle_forward_keeps_every_layer_in_float32(monkeypatch):
    arch = DESK
    model = model_from_weights(weights_from_model(build(arch, seed=3), fold_id=0, seed=3, scaler=_scaler(366)))
    names, seen = ("posenc", "bigru1", "bigru2", "attention", "dense1", "out"), {}
    for name in names:
        layer = getattr(model, name)

        def recording(x, training=False, name=name, forward=layer.forward):
            y = forward(x, training)
            seen[name] = y.dtype
            return y

        monkeypatch.setattr(layer, "forward", recording)
    probs = model.forward(np.random.default_rng(12).standard_normal((2, 156, 366)))
    assert probs.dtype == np.float32
    assert seen == dict.fromkeys(names, np.float32)


def test_training_on_a_float32_store_raises(tmp_path):
    _, _, path = _bundle(tmp_path)
    model = model_from_weights(load_weights(path))
    before = model.store.values.copy()
    x = np.random.default_rng(10).standard_normal((2, 6, 4))
    with pytest.raises(DomainError, match="float64"):
        model.forward(x, training=True)
    assert all(layer._cache is None for layer in (model.bigru1, model.attention, model.out))
    assert np.array_equal(model.store.values, before)
    model.forward(x)  # inference still runs


def test_weights_save_load_save_is_byte_identical(tmp_path):
    _, _, path = _bundle(tmp_path)
    again = tmp_path / "again.weights"
    save_weights(load_weights(path), again)
    assert path.read_bytes() == again.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_weights_checksum_detects_corruption(tmp_path):
    _, _, path = _bundle(tmp_path)
    raw = bytearray(path.read_bytes())
    for pos in (7, len(raw) // 2, len(raw) - 1):
        bad = bytearray(raw)
        bad[pos] ^= 0x40
        path.write_bytes(bytes(bad))
        with pytest.raises(ChecksumError):
            load_weights(path)


def test_weights_truncation_and_magic(tmp_path):
    _, _, path = _bundle(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises((ChecksumError, FormatError)):
        load_weights(path)
    path.write_bytes(b"xy")
    with pytest.raises(FormatError):
        load_weights(path)

    import zlib as _z

    body = bytearray(raw[:-4])
    body[:4] = b"XXXX"
    path.write_bytes(bytes(body) + _z.crc32(bytes(body)).to_bytes(4, "little"))
    with pytest.raises(FormatError):
        load_weights(path)

    # versions 1 (named, shaped arrays) and 2 (three more arch keys) are refused like any other
    for version in (1, 2, 9):
        body = bytearray(raw[:-4])
        body[4] = version
        path.write_bytes(bytes(body) + _z.crc32(bytes(body)).to_bytes(4, "little"))
        with pytest.raises(VersionError, match=f"m.weights: weight bundle version {version} not supported"):
            load_weights(path)


def _rechecked(path, body):
    path.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))


def test_weights_short_header_is_a_format_error(tmp_path):
    _, _, path = _bundle(tmp_path)
    _rechecked(path, path.read_bytes()[:5])  # magic and version byte, valid CRC
    with pytest.raises(FormatError, match="m.weights: truncated"):
        load_weights(path)


def test_weights_array_overrunning_the_file_is_a_format_error(tmp_path):
    # metadata whose architecture needs more parameters than the file holds
    _, w, path = _bundle(tmp_path)
    wider = dataclasses.replace(MICRO, dense_units=MICRO.dense_units + 1)
    save_weights(dataclasses.replace(w, arch=wider), path)
    with pytest.raises(FormatError, match=f"m.weights: {param_count(wider)} parameters and a scaler"):
        load_weights(path)


@pytest.mark.parametrize("change", [-4, 4], ids=["one-value-short", "one-value-long"])
def test_weights_block_of_another_length_is_a_format_error(tmp_path, change):
    _, _, path = _bundle(tmp_path)
    body = path.read_bytes()[:-4]
    body = body[:change] if change < 0 else body + bytes(change)
    _rechecked(path, body)
    with pytest.raises(FormatError, match=f"m.weights: .* found {len(body)}$"):
        load_weights(path)


def test_loaded_model_weights_are_a_read_only_view_of_the_bundle(tmp_path):
    _, _, path = _bundle(tmp_path)
    bundle = load_weights(path)
    values = model_from_weights(bundle).store.values
    assert values.flags.aligned and not values.flags.writeable
    assert values.dtype == np.float32
    assert np.shares_memory(values, bundle.values)


# metadata text -> what the error says after the file name
_BAD_META = {
    "[]": "bad metadata block",
    '{"arch": {}, "fold_id": "two", "seed": 0}': "bad metadata block",
    "{": "not valid JSON",  # as the JSON sidecars word it
    '{"fold_id": 0, "seed": 0}': "bad metadata block: KeyError",
    '{"arch": {"widht": 3}, "fold_id": 0, "seed": 0}': "bad metadata block: TypeError",
}


@pytest.mark.parametrize("meta", list(_BAD_META))
def test_weights_bad_metadata_is_a_format_error(tmp_path, meta):
    path = tmp_path / "m.weights"
    raw = meta.encode()
    _rechecked(path, b"CSWB\x03" + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(FormatError, match=f"m.weights: {_BAD_META[meta]}"):
        load_weights(path)


@pytest.mark.parametrize("key, value", [
    ("heads", 1.0), ("bigru1_units", 4.5), ("classes", True), ("dropout1", float("nan")),
    ("dropout3", float("-inf")), ("dropout2", 0), ("scale_factor", "1"),
    ("fold_id", 2.9), ("fold_id", True), ("seed", "2"), ("seed", -1),
], ids=["int-as-float", "fraction", "bool", "nan", "minus-inf", "float-as-int", "string",
        "fold-fraction", "fold-bool", "seed-string", "seed-negative"])
def test_weights_arch_value_of_another_type_is_a_format_error(tmp_path, key, value):
    # a CRC-valid bundle whose metadata gives an arch value, fold id or seed
    # of another JSON type, a non-finite value or a negative fold id or seed
    # is refused before a model is built from it
    _, _, path = _bundle(tmp_path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 5)
    meta = json.loads(raw[9 : 9 + length])
    (meta if key in meta else meta["arch"])[key] = value
    text = json.dumps(meta).encode()
    header = raw[:5] + struct.pack("<I", len(text)) + text
    _rechecked(path, header + bytes(-len(header) % 4) + raw[9 + length + (-(9 + length) % 4) : -4])
    with pytest.raises(FormatError, match=re.escape("m.weights: bad metadata block: ValueError(") + ".*"
                       + re.escape(f"{key} = {value!r}")):
        load_weights(path)


def test_weights_scaler_arrays_of_unequal_length_are_a_format_error(tmp_path):
    scaler = RobustScalerParams(np.zeros(3), np.ones(3), np.zeros(3, dtype=bool))
    scaler.iqr = scaler.iqr[:2]  # past the constructor's check, as a foreign writer could
    path = tmp_path / "m.weights"
    save_weights(weights_from_model(build(MICRO, seed=0), fold_id=0, seed=0, scaler=scaler), path)
    with pytest.raises(FormatError, match=r"m.weights: .* a scaler of width 4 need"):
        load_weights(path)


# ----------------------------------------------------------- config loaders

def test_shipped_arch_configs():
    full = load_arch_config("configs/arch-full.ini")
    assert full.widths()["bigru1_out"] == 2048
    assert full.widths()["concat"] == 1536
    assert param_count(full) == 19_055_629
    desk = load_arch_config("configs/arch-desk.ini")
    assert desk.scale_factor == 16
    # the input shape keeps its defaults until train reads the features
    assert (desk.seq_len, desk.feature_dim) == (full.seq_len, full.feature_dim) == (1560, 366)
    assert desk.widths()["concat"] == 96


def test_shipped_train_configs():
    full = load_train_config("configs/train-full.ini")
    assert (full.epochs, full.batch, full.folds) == (300, 12, 4)
    desk = load_train_config("configs/train-desk.ini")
    assert desk.folds == 4 and desk.batch == 4


def test_config_loader_errors(tmp_path):
    with pytest.raises(DomainError, match="config file not found: .*missing\\.ini"):
        load_arch_config(str(tmp_path / "missing.ini"))

    p = tmp_path / "a.ini"
    p.write_text("[other]\nx = 1\n")
    with pytest.raises(DomainError, match="a\\.ini: no \\[arch\\] section"):
        load_arch_config(str(p))

    p.write_text("[arch]\nbogus_key = 3\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] has unknown key 'bogus_key'"):
        load_arch_config(str(p))

    p.write_text("[arch]\nheads = twelve\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] heads = 'twelve' is not a valid int"):
        load_arch_config(str(p))

    p.write_text("[arch]\nversion = 2\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] version 2 is not supported"):
        load_arch_config(str(p))

    # scaling would floor the head count at 1, so it is checked as written
    p.write_text("[arch]\nheads = -3\nscale_factor = 4\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] heads -3 must be at least 1"):
        load_arch_config(str(p))

    # 14 classes would let the network predict a code outside the labels
    p.write_text("[arch]\nclasses = 14\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] classes 14 must lie in 1\\.\\.13"):
        load_arch_config(str(p))


    t = tmp_path / "t.ini"
    t.write_text("[train]\nlearning = fast\n")
    with pytest.raises(DomainError, match="t\\.ini: \\[train\\] has unknown key 'learning'"):
        load_train_config(str(t))

    t.write_text("[train]\nversion = 2\n")
    with pytest.raises(DomainError, match="t\\.ini: \\[train\\] version 2 is not supported"):
        load_train_config(str(t))

    # the schedule fields are checked at load, before train reads a feature file
    for key, value, message in [
        ("lr_patience", "0", "lr_patience must be at least 1"),
        ("early_stop_patience", "0", "early_stop_patience must be at least 1"),
        # a rate below the plateau floor would rise at the first plateau
        ("lr", "5e-07", "learning rate 5e-07 must be at least MIN_LR = 1e-06"),
    ]:
        t.write_text(f"[train]\n{key} = {value}\n")
        with pytest.raises(DomainError, match=f"t\\.ini: \\[train\\] {message}"):
            load_train_config(str(t))


def _assert_loads_every_field(tmp_path, loader, cls, section, values, unread=()):
    # every field but the ``unread`` ones, which keep their defaults
    defaults = cls()
    assert sorted(values) == sorted(f.name for f in dataclasses.fields(cls) if f.name not in unread)
    for name, value in values.items():
        assert value != getattr(defaults, name), name
    path = tmp_path / f"{section}.ini"
    path.write_text(f"[{section}]\nversion = 1\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    loaded = loader(str(path))
    assert loaded == cls(**values)
    for name, value in values.items():
        assert type(getattr(loaded, name)) is type(value), name


def test_arch_config_loads_every_field(tmp_path):
    _assert_loads_every_field(tmp_path, load_arch_config, ArchConfig, "arch", {
        "bigru1_units": 40, "bigru2_units": 24, "heads": 3, "key_dim": 12, "dense_units": 20,
        "classes": 5, "dropout1": 0.1, "dropout2": 0.15, "dropout3": 0.25, "scale_factor": 2,
    }, unread=("seq_len", "feature_dim"))


def test_train_config_loads_every_field(tmp_path):
    _assert_loads_every_field(tmp_path, load_train_config, TrainConfig, "train", {
        "epochs": 7, "batch": 3, "lr": 0.002, "folds": 5, "seed": 11, "lr_patience": 4,
        "early_stop_patience": 9,
    })


# SHA-256 of the desk bundle below; the bytes pin the metadata block (the
# architecture's keys and values), the parameter block and the embedded scaler.
DESK_BUNDLE_SHA256 = "31403b0002492f5c3dfa21743089f44dad38b7d4335924839550c2982c8385a8"
# SHA-256 of that bundle's parameter block alone: the float32 values of
# build(arch-desk, seed=3) in carve order, so a change to the carve order or
# to the draws changes it.
DESK_BLOCK_SHA256 = "cd33f4e4e9c4597e9211349b980188245db55d1680b0dcf5a19a5e56afa5de72"


def test_desk_bundle_bytes_are_frozen(tmp_path):
    arch = DESK
    path = tmp_path / "desk.weights"
    save_weights(weights_from_model(build(arch, seed=3), fold_id=1, seed=3, scaler=_scaler(arch.feature_dim)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_BUNDLE_SHA256
    assert hashlib.sha256(load_weights(path).values).hexdigest() == DESK_BLOCK_SHA256
