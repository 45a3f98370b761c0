"""Network assembly, width regressions, training mechanics, weight bundles."""

import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest

from csisense.errors import ChecksumError, DomainError, FormatError, TrainingDiverged, VersionError
from csisense.features import FeatureFrame, RobustScalerParams
from csisense.model import (
    ArchConfig,
    TrainConfig,
    build,
    load_arch_config,
    load_train_config,
    param_count,
    train_fold,
    train_kfold,
)
from csisense.nn import grad_check
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


def _frames(n, arch, seed, scaled=True):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        cls = i % arch.classes
        m = rng.standard_normal((arch.seq_len, arch.feature_dim)) + 0.8 * cls
        labels = np.full(arch.seq_len, cls, dtype=np.int64)
        out.append(FeatureFrame(matrix=m, labels=labels, scaler_applied=scaled))
    return out


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
    arch = load_arch_config("configs/arch-desk.ini")
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
    with pytest.raises(DomainError, match="dense_activation 'tanh'"):
        ArchConfig(dense_activation="tanh")


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(batch=0)
    with pytest.raises(DomainError):
        TrainConfig(folds=1)
    with pytest.raises(DomainError):
        TrainConfig(lr=0.0)


# ----------------------------------------------------------------- forward

def test_forward_shapes_and_prob_rows():
    model = build(MICRO, seed=2)
    x = np.random.default_rng(0).standard_normal((6, 4))
    p = model.forward(x)
    assert p.shape == (6, 3)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p > 0).all()
    batched = model.forward(np.stack([x, x + 1.0]))
    assert batched.shape == (2, 6, 3)
    assert np.allclose(batched[0], p, atol=1e-12)
    labels = model.predict(x)
    assert labels.shape == (6,)
    assert np.array_equal(labels, np.argmax(p, axis=-1))


def test_forward_rejects_wrong_width():
    model = build(MICRO, seed=0)
    with pytest.raises(DomainError):
        model.forward(np.zeros((6, 5)))


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
    params = build(load_arch_config("configs/arch-desk.ini"), seed=3).params
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    assert h.hexdigest() == DESK_BUILD_SHA256


def test_only_a_training_forward_keeps_caches_until_its_backward():
    model = build(MICRO, seed=0)
    x = np.random.default_rng(1).standard_normal((6, 4))
    layers = [model.bigru1, model.bigru2, model.attention, model.dense1, model.out]
    probs = model.forward(x, training=True)
    assert all(layer._cache is not None for layer in layers)
    model.backward(probs)
    assert all(layer._cache is None for layer in layers)
    # an inference forward keeps nothing, and lets go of a cache no backward read
    for infer in (model.predict, lambda x: model.forward(x, training=False)):
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


def test_micro_model_grad_check():
    model = build(MICRO, seed=3)
    x = np.random.default_rng(5).standard_normal((6, 4))
    report = grad_check(_LogitView(model), [x])
    assert max(report.values()) <= 1e-6


def test_set_params_rejects_mismatches():
    model = build(MICRO, seed=0)
    good = {k: v.copy() for k, v in model.params.items()}
    incomplete = dict(good)
    incomplete.pop("out/b")
    with pytest.raises(DomainError):
        model.set_params(incomplete)
    renamed = dict(good)
    renamed["out/bogus"] = renamed.pop("out/b")
    with pytest.raises(DomainError):
        model.set_params(renamed)
    reshaped = dict(good)
    reshaped["out/b"] = np.zeros(99)
    with pytest.raises(DomainError):
        model.set_params(reshaped)


# ---------------------------------------------------------------- training

def test_train_fold_history_and_best_restore():
    frames = _frames(6, MICRO, seed=11)
    cfg = TrainConfig(epochs=4, batch=2, lr=3e-3, folds=2, seed=5)
    model = build(MICRO, seed=cfg.seed)
    history = train_fold(model, frames[:4], frames[4:], cfg, fold_id=0)
    assert 1 <= len(history) <= 4
    assert [row["epoch"] for row in history] == list(range(1, len(history) + 1))
    for row in history:
        assert set(row) == {"epoch", "loss", "acc", "precision", "recall", "lr"}
    assert history[0]["lr"] == cfg.lr

    # the model is left at the best validation epoch
    correct = total = 0
    for f in frames[4:]:
        pred = model.predict(f.matrix)
        correct += int((pred == f.labels).sum())
        total += f.labels.size
    assert abs(correct / total - max(r["acc"] for r in history)) < 1e-12


def test_train_fold_is_deterministic():
    frames = _frames(6, MICRO, seed=13)
    cfg = TrainConfig(epochs=3, batch=2, lr=1e-3, folds=2, seed=9)
    runs = []
    for _ in range(2):
        model = build(MICRO, seed=cfg.seed)
        history = train_fold(model, frames[:4], frames[4:], cfg, fold_id=1)
        runs.append((history, model.store.values.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_fold_rejects_bad_frames():
    frames = _frames(4, MICRO, seed=17)
    cfg = TrainConfig(epochs=1, batch=2, folds=2)
    with pytest.raises(DomainError):
        train_fold(build(MICRO), [], frames[2:], cfg)
    unscaled = _frames(2, MICRO, seed=19, scaled=False)
    with pytest.raises(DomainError):
        train_fold(build(MICRO), unscaled, frames[2:], cfg)
    short = [FeatureFrame(np.zeros((3, 4)), np.zeros(3, dtype=np.int64), True)]
    with pytest.raises(DomainError):
        train_fold(build(MICRO), short, frames[2:], cfg)


def test_train_fold_divergence_names_the_fold():
    frames = _frames(4, MICRO, seed=23)
    cfg = TrainConfig(epochs=2, batch=2, lr=1e200, folds=2, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="fold 7"):
            train_fold(build(MICRO, seed=1), frames, frames[:2], cfg, fold_id=7)


def test_train_kfold_mechanics():
    frames = _frames(8, MICRO, seed=29)
    ids = [f"t{i:02d}" for i in range(8)]
    by_id = dict(zip(ids, frames))
    folds = [ids[:4], ids[4:]]
    cfg = TrainConfig(epochs=2, batch=2, folds=2, seed=3)
    results = train_kfold(by_id, folds, MICRO, cfg)
    assert len(results) == 2
    for model, history in results:
        assert history and isinstance(history[0], dict)
        assert model.arch == MICRO
    # distinct per-fold seeds give distinct initializations
    p0 = results[0][0].params
    p1 = results[1][0].params
    assert any(not np.array_equal(p0[k], p1[k]) for k in p0)

    with pytest.raises(DomainError):
        train_kfold(by_id, [ids[:4]], MICRO, cfg)
    with pytest.raises(DomainError):
        train_kfold(by_id, [ids[:4], ids[4:7] + ["ghost"]], MICRO, cfg)


def test_train_kfold_models_hold_no_caches():
    frames = _frames(4, MICRO, seed=37)
    ids = [f"t{i}" for i in range(4)]
    cfg = TrainConfig(epochs=1, batch=2, folds=2, seed=3)
    for model, _ in train_kfold(dict(zip(ids, frames)), [ids[:2], ids[2:]], MICRO, cfg):
        assert all(getattr(layer, "_cache", None) is None for layer in vars(model).values())


def test_train_kfold_epoch_callback():
    frames = _frames(4, MICRO, seed=31)
    ids = [f"t{i}" for i in range(4)]
    cfg = TrainConfig(epochs=2, batch=2, folds=2, seed=0)
    seen = []
    train_kfold(
        dict(zip(ids, frames)),
        [ids[:2], ids[2:]],
        MICRO,
        cfg,
        on_epoch=lambda fold, row: seen.append((fold, row["epoch"])),
    )
    assert seen[0] == (0, 1)
    assert {fold for fold, _ in seen} == {0, 1}


# ---------------------------------------------------------- weight bundles

def _bundle(tmp_path, scaler=True, fname="m.weights"):
    model = build(MICRO, seed=4)
    sc = None
    if scaler:
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
    assert (back.fold_id, back.seed, back.version) == (2, 4, 1)
    assert set(back.arrays) == set(w.arrays)
    for k in w.arrays:
        assert np.array_equal(back.arrays[k], w.arrays[k])
    assert np.array_equal(back.scaler.median, w.scaler.median.astype(np.float32))
    assert np.array_equal(back.scaler.degenerate, w.scaler.degenerate)

    rebuilt = model_from_weights(back)
    for k, v in rebuilt.params.items():
        assert np.array_equal(v, model.params[k].astype(np.float32).astype(np.float64))


def test_loaded_model_predict_writes_no_gradient(tmp_path):
    _, _, path = _bundle(tmp_path)
    model = model_from_weights(load_weights(path))
    model.predict(np.random.default_rng(8).standard_normal((6, 4)))
    assert not model.store.grads.any()


def test_weights_save_load_save_is_byte_identical(tmp_path):
    _, _, path = _bundle(tmp_path)
    again = tmp_path / "again.weights"
    save_weights(load_weights(path), again)
    assert path.read_bytes() == again.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_weights_without_scaler(tmp_path):
    _, _, path = _bundle(tmp_path, scaler=False)
    assert load_weights(path).scaler is None


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

    body = bytearray(raw[:-4])
    body[4] = 9
    path.write_bytes(bytes(body) + _z.crc32(bytes(body)).to_bytes(4, "little"))
    with pytest.raises(VersionError):
        load_weights(path)


def _rechecked(path, body):
    path.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))


def test_weights_short_header_is_a_format_error(tmp_path):
    _, _, path = _bundle(tmp_path)
    _rechecked(path, path.read_bytes()[:5])  # magic and version byte, valid CRC
    with pytest.raises(FormatError, match="m.weights: truncated"):
        load_weights(path)


def test_weights_array_overrunning_the_file_is_a_format_error(tmp_path):
    _, _, path = _bundle(tmp_path)
    body = bytearray(path.read_bytes()[:-4])
    (meta_len,) = struct.unpack_from("<I", body, 5)
    offset = 9 + meta_len + 4  # the first array record
    (name_len,) = struct.unpack_from("<H", body, offset)
    offset += 2 + name_len + 1  # its first dim, after the name and ndim
    struct.pack_into("<I", body, offset, 10**6)
    _rechecked(path, body)
    with pytest.raises(FormatError, match="m.weights: truncated"):
        load_weights(path)


@pytest.mark.parametrize("meta", ["[]", '{"arch": {}, "fold_id": "two", "seed": 0}'])
def test_weights_bad_metadata_is_a_format_error(tmp_path, meta):
    path = tmp_path / "m.weights"
    raw = meta.encode()
    _rechecked(path, b"CSWB\x01" + struct.pack("<I", len(raw)) + raw + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="m.weights: bad metadata block"):
        load_weights(path)


def test_weights_reserved_scaler_names(tmp_path):
    model = build(MICRO, seed=0)
    w = weights_from_model(model, fold_id=0, seed=0)
    w.arrays["scaler/median"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(DomainError):
        save_weights(w, tmp_path / "bad.weights")


# ----------------------------------------------------------- config loaders

def test_shipped_arch_configs():
    full = load_arch_config("configs/arch-full.ini")
    assert full.widths()["bigru1_out"] == 2048
    assert full.widths()["concat"] == 1536
    assert param_count(full) == 19_055_629
    desk = load_arch_config("configs/arch-desk.ini")
    assert (desk.seq_len, desk.scale_factor) == (156, 16)
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

    p.write_text("[arch]\nseq_len = twelve\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] seq_len = 'twelve' is not a valid int"):
        load_arch_config(str(p))

    p.write_text("[arch]\nversion = 2\n")
    with pytest.raises(DomainError, match="a\\.ini: \\[arch\\] version 2 is not supported"):
        load_arch_config(str(p))

    t = tmp_path / "t.ini"
    t.write_text("[train]\nlearning = fast\n")
    with pytest.raises(DomainError, match="t\\.ini: \\[train\\] has unknown key 'learning'"):
        load_train_config(str(t))

    t.write_text("[train]\nversion = 2\n")
    with pytest.raises(DomainError, match="t\\.ini: \\[train\\] version 2 is not supported"):
        load_train_config(str(t))


def _assert_loads_every_field(tmp_path, loader, cls, section, values):
    defaults = cls()
    assert sorted(values) == sorted(f.name for f in dataclasses.fields(cls))
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
        "seq_len": 7, "feature_dim": 11, "bigru1_units": 40, "bigru2_units": 24, "heads": 3,
        "key_dim": 12, "dense_units": 20, "classes": 5, "dropout1": 0.1, "dropout2": 0.15,
        "dropout3": 0.25, "skip_pre": 0.6, "skip_att": 0.4, "dense_activation": "none",
        "scale_factor": 2,
    })


def test_train_config_loads_every_field(tmp_path):
    _assert_loads_every_field(tmp_path, load_train_config, TrainConfig, "train", {
        "epochs": 7, "batch": 3, "lr": 0.002, "folds": 5, "seed": 11, "lr_factor": 0.25,
        "lr_patience": 4, "min_lr": 1e-5, "early_stop_patience": 9,
    })


# SHA-256 of the desk bundle below; the bytes pin the metadata block (the
# architecture's keys and values), the array layout and the embedded scaler.
DESK_BUNDLE_SHA256 = "d23a236d692360bd1cd5af1874aeff68f2f1028ee7d6c12039ab571fa4a7a19f"


def test_desk_bundle_bytes_are_frozen(tmp_path):
    arch = load_arch_config("configs/arch-desk.ini")
    n = arch.feature_dim
    scaler = RobustScalerParams(
        median=np.linspace(-1.0, 1.0, n),
        iqr=np.linspace(0.5, 2.0, n),
        degenerate=np.arange(n) % 7 == 0,
    )
    path = tmp_path / "desk.weights"
    save_weights(weights_from_model(build(arch, seed=3), fold_id=1, seed=3, scaler=scaler), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_BUNDLE_SHA256
