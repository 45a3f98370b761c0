"""Sequence classifier: BiGRU stack with self-attention, and its training loop.

Data path per trial (T timesteps, F features):

    input (T, F)
      + fixed sinusoidal positional encoding (dim F)
      -> BiGRU 1 (out 2 * bigru1_units) -> dropout1
      -> BiGRU 2 (out 2 * bigru2_units) -> dropout2
      -> multi-head self-attention over the BiGRU 2 output width
      -> weighted skip add: skip_pre * pre-attention + skip_att * attention
      -> dense(dense_units, relu) -> dropout3
      -> concat with the pre-attention tensor
      -> dense(classes) -> softmax  => per-timestep class distribution

Every named parameter (``bigru1/fwd/W_in_z``, ``out/W``, ...) is a view into
one flat float64 ``store.values`` of ``param_count(arch)`` elements, and its
gradient the view at the same offset into ``store.grads``.

Only a training forward keeps activations, each layer's cache for the
backward that reads and clears it; an inference forward (``predict``,
validation) keeps none, so an idle model holds no activations.

Training minimizes per-timestep categorical cross-entropy with Adam, reduces
the learning rate on validation-accuracy plateaus, and stops early once the
validation accuracy has not improved for a configured number of epochs,
restoring the best epoch's weights.  The Adam step, the gradient reset and
the best-weights copy each act on the whole flat store at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import read_ini, section_to
from .errors import DomainError, TrainingDiverged
from .features import FeatureFrame, one_hot
from .nn import (
    Adam,
    AddPositional,
    BiGru,
    Concat,
    Dense,
    Dropout,
    MultiHeadSelfAttention,
    ParamStore,
    WeightedSkipAdd,
    cross_entropy,
    cross_entropy_logit_grad,
    early_stopping,
    reduce_lr_on_plateau,
    softmax,
)
from .postprocess import confusion, metrics


@dataclass(frozen=True)
class ArchConfig:
    """Architecture knobs.  ``scale_factor`` divides the unit-like widths and
    its integer square root divides heads and key_dim, so desk-scale runs keep
    the full wiring at a fraction of the cost."""

    seq_len: int = 1560
    feature_dim: int = 366
    bigru1_units: int = 1024
    bigru2_units: int = 512
    heads: int = 8
    key_dim: int = 64
    dense_units: int = 512
    classes: int = 13
    dropout1: float = 0.3
    dropout2: float = 0.3
    dropout3: float = 0.2
    skip_pre: float = 0.7
    skip_att: float = 0.3
    dense_activation: str = "relu"
    scale_factor: int = 1

    def __post_init__(self):
        if min(self.seq_len, self.feature_dim, self.classes) < 1:
            raise DomainError("seq_len, feature_dim and classes must be positive")
        if self.scale_factor < 1:
            raise DomainError("scale_factor must be at least 1")
        scaled = self.scaled() if self.scale_factor > 1 else self
        if min(scaled.bigru1_units, scaled.bigru2_units, scaled.dense_units, scaled.key_dim) < 4:
            raise DomainError("scaled widths must stay at least 4")
        if scaled.heads < 1:
            raise DomainError("scaled head count must stay at least 1")
        if self.dense_activation not in ("none", "relu"):
            raise DomainError(f"dense_activation {self.dense_activation!r} must be 'none' or 'relu'")
        for ratio in (self.dropout1, self.dropout2, self.dropout3):
            if not 0.0 <= ratio < 1.0:
                raise DomainError(f"dropout ratio {ratio} must be in [0, 1)")

    def scaled(self) -> "ArchConfig":
        """Effective widths after applying scale_factor (identity at 1)."""
        if self.scale_factor == 1:
            return self
        s = self.scale_factor
        root = max(1, math.isqrt(s))
        return replace(
            self,
            bigru1_units=self.bigru1_units // s,
            bigru2_units=self.bigru2_units // s,
            dense_units=self.dense_units // s,
            heads=max(1, self.heads // root),
            key_dim=self.key_dim // root,
            scale_factor=1,
        )

    def widths(self) -> dict[str, int]:
        """Derived layer widths (after scaling), for shape regression tests."""
        eff = self.scaled()
        return {
            "bigru1_out": 2 * eff.bigru1_units,
            "bigru2_out": 2 * eff.bigru2_units,
            "attention_concat": eff.heads * eff.key_dim,
            "concat": eff.dense_units + 2 * eff.bigru2_units,
        }


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch: int = 12
    lr: float = 1e-3
    folds: int = 4
    seed: int = 0
    lr_factor: float = 0.5
    lr_patience: int = 10
    min_lr: float = 1e-6
    early_stop_patience: int = 30

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError("epoch budget must be at least 1")
        if self.batch < 1:
            raise DomainError("batch size must be at least 1")
        if self.folds < 2:
            raise DomainError("fold count must be at least 2")
        if self.lr <= 0:
            raise DomainError("learning rate must be positive")


def param_count(arch: ArchConfig) -> int:
    """Total trainable parameter count, from the config arithmetic alone."""
    eff = arch.scaled()
    f, u1, u2 = eff.feature_dim, eff.bigru1_units, eff.bigru2_units
    gru = lambda i, u: 2 * 3 * (i * u + u * u + u)  # both directions, 3 gates each
    att_width = 2 * u2
    attention = 3 * eff.heads * att_width * eff.key_dim + eff.heads * eff.key_dim * att_width
    dense1 = att_width * eff.dense_units + eff.dense_units
    out = (eff.dense_units + att_width) * eff.classes + eff.classes
    return gru(f, u1) + gru(2 * u1, u2) + attention + dense1 + out


class SequenceClassifier:
    """The assembled network.  Accepts (T, F) or batched (B, T, F) input."""

    def __init__(self, arch: ArchConfig, seed: int = 0, init_weights: bool = True):
        """``init_weights=False`` leaves every weight at zero and draws
        nothing, for a model whose parameters are all loaded next."""
        self.arch = arch
        eff = arch.scaled()
        self.eff = eff
        rng = np.random.default_rng(seed)
        init = rng if init_weights else None
        att_width = 2 * eff.bigru2_units
        self.store = store = ParamStore(param_count(arch))
        self.posenc = AddPositional(eff.seq_len, eff.feature_dim)
        self.bigru1 = BiGru(eff.feature_dim, eff.bigru1_units, init, store)
        self.drop1 = Dropout(eff.dropout1, rng)
        self.bigru2 = BiGru(2 * eff.bigru1_units, eff.bigru2_units, init, store)
        self.drop2 = Dropout(eff.dropout2, rng)
        self.attention = MultiHeadSelfAttention(att_width, eff.heads, eff.key_dim, init, store)
        self.skip = WeightedSkipAdd(eff.skip_pre, eff.skip_att)
        self.dense1 = Dense(att_width, eff.dense_units, eff.dense_activation, init, store)
        self.drop3 = Dropout(eff.dropout3, rng)
        self.concat = Concat()
        self.out = Dense(eff.dense_units + att_width, eff.classes, "none", init, store)
        self._named = {
            "bigru1": self.bigru1,
            "bigru2": self.bigru2,
            "attention": self.attention,
            "dense1": self.dense1,
            "out": self.out,
        }
        self.params = {f"{p}/{k}": v for p, layer in self._named.items() for k, v in layer.params.items()}
        self.grads = {f"{p}/{k}": g for p, layer in self._named.items() for k, g in layer.grads.items()}

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy named arrays of any float dtype into the store; names and shapes must match."""
        missing = sorted(set(self.params) - set(values))
        extra = sorted(set(values) - set(self.params))
        if missing or extra:
            raise DomainError(f"parameter names do not match: missing {missing}, extra {extra}")
        for name, arr in values.items():
            target = self.params[name]
            if tuple(arr.shape) != tuple(target.shape):
                raise DomainError(
                    f"parameter {name} has shape {tuple(arr.shape)}, expected {tuple(target.shape)}"
                )
            target[...] = arr

    def forward_logits(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Pre-softmax scores; backward() is the exact adjoint of a training pass."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.eff.feature_dim:
            raise DomainError(
                f"input width {x.shape[-1]} does not match feature_dim {self.eff.feature_dim}"
            )
        h = self.posenc.forward(x, training)
        h = self.bigru1.forward(h, training)
        h = self.drop1.forward(h, training)
        pre = self.bigru2.forward(h, training)
        pre = self.drop2.forward(pre, training)
        att = self.attention.forward(pre, training)
        mixed = self.skip.forward(pre, att, training)
        d = self.dense1.forward(mixed, training)
        d = self.drop3.forward(d, training)
        cat = self.concat.forward(d, pre, training)
        return self.out.forward(cat, training)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return softmax(self.forward_logits(x, training))

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Backpropagate from the pre-softmax logit gradient to the input."""
        dcat = self.out.backward(dlogits)
        dd, dpre_cat = self.concat.backward(dcat)
        dmixed = self.dense1.backward(self.drop3.backward(dd))
        dpre_skip, datt = self.skip.backward(dmixed)
        dpre_att = self.attention.backward(datt)
        dpre = dpre_cat + dpre_skip + dpre_att
        dh = self.bigru2.backward(self.drop2.backward(dpre))
        dh = self.bigru1.backward(self.drop1.backward(dh))
        return self.posenc.backward(dh)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-timestep argmax labels from an inference forward, which keeps
        no layer's activations."""
        return np.argmax(self.forward(x), axis=-1)


def build(arch: ArchConfig, seed: int = 0) -> SequenceClassifier:
    return SequenceClassifier(arch, seed)


def _frame_batch(frames: list[FeatureFrame], classes: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.stack([f.matrix for f in frames])
    y = np.stack([one_hot(f.labels, classes) for f in frames])
    return x, y


def _validate_frames(frames: list[FeatureFrame], eff: ArchConfig, role: str) -> None:
    if not frames:
        raise DomainError(f"{role} set is empty")
    for f in frames:
        if f.matrix.shape != (eff.seq_len, eff.feature_dim):
            raise DomainError(
                f"{role} frame shape {f.matrix.shape} does not match ({eff.seq_len}, {eff.feature_dim})"
            )
        if not f.scaler_applied:
            raise DomainError(f"{role} frames must be scaled before training")


def _evaluate(model: SequenceClassifier, frames: list[FeatureFrame], classes: int) -> dict:
    total_loss = 0.0
    conf = np.zeros((classes, classes), dtype=np.int64)
    for f in frames:
        probs = model.forward(f.matrix, training=False)
        total_loss += cross_entropy(probs, one_hot(f.labels, classes))
        conf += confusion(f.labels, np.argmax(probs, axis=-1), classes)
    report = metrics(conf)
    return {
        "loss": total_loss / len(frames),
        "acc": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
    }


def train_fold(
    model: SequenceClassifier,
    train_frames: list[FeatureFrame],
    val_frames: list[FeatureFrame],
    cfg: TrainConfig,
    fold_id: int = 0,
    on_epoch=None,
) -> list[dict]:
    """Train one fold; returns the per-epoch history and leaves the model at
    the best-validation-accuracy epoch's weights, holding no forward caches.

    History rows carry validation-set values (epoch, loss, acc, precision,
    recall, lr): the schedules key on validation accuracy, so that is the
    series worth exporting.  Raises TrainingDiverged if the loss goes
    non-finite.  A fixed (cfg.seed, fold_id) pair reproduces the history
    exactly.
    """
    eff = model.eff
    _validate_frames(train_frames, eff, "training")
    _validate_frames(val_frames, eff, "validation")
    rng = np.random.default_rng([cfg.seed, fold_id])
    optimizer = Adam(cfg.lr)
    history: list[dict] = []
    acc_series: list[float] = []
    best_values = model.store.values.copy()
    best_acc = -np.inf

    for epoch in range(1, cfg.epochs + 1):
        lr = reduce_lr_on_plateau(acc_series, cfg.lr, cfg.lr_factor, cfg.lr_patience, cfg.min_lr)
        optimizer.lr = lr
        order = rng.permutation(len(train_frames))
        for start in range(0, len(order), cfg.batch):
            chunk = [train_frames[i] for i in order[start : start + cfg.batch]]
            x, y = _frame_batch(chunk, eff.classes)
            probs = model.forward(x, training=True)
            if not np.isfinite(probs).all():
                raise TrainingDiverged(f"network output became non-finite in fold {fold_id}, epoch {epoch}")
            loss = cross_entropy(probs, y)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became non-finite in fold {fold_id}, epoch {epoch}")
            model.store.grads.fill(0.0)
            model.backward(cross_entropy_logit_grad(probs, y))
            optimizer.step(model.store.values, model.store.grads)
        row = _evaluate(model, val_frames, eff.classes)
        row.update(epoch=epoch, lr=lr)
        history.append(row)
        acc_series.append(row["acc"])
        if row["acc"] > best_acc:
            best_acc = row["acc"]
            best_values[...] = model.store.values
        if on_epoch is not None:
            on_epoch(fold_id, row)
        stop, _best = early_stopping(acc_series, cfg.early_stop_patience)
        if stop:
            break

    model.store.values[...] = best_values
    return history


def train_kfold(
    frames_by_id: dict[str, FeatureFrame],
    folds: list[list[str]],
    arch: ArchConfig,
    cfg: TrainConfig,
    on_epoch=None,
) -> list[tuple[SequenceClassifier, list[dict]]]:
    """Cross-validation: fold i validates on folds[i] and trains on the rest.

    Returns one (model, history) pair per fold; models start from distinct
    seed-mixed initializations of the same architecture.
    """
    if len(folds) != cfg.folds:
        raise DomainError(f"expected {cfg.folds} folds, got {len(folds)}")
    missing = sorted({tid for fold in folds for tid in fold} - set(frames_by_id))
    if missing:
        raise DomainError(f"fold trials missing from features: {missing}")
    results = []
    for fold_id, val_ids in enumerate(folds):
        train_ids = [tid for j, fold in enumerate(folds) if j != fold_id for tid in fold]
        model = build(arch, seed=cfg.seed * 10007 + fold_id)
        history = train_fold(
            model,
            [frames_by_id[tid] for tid in sorted(train_ids)],
            [frames_by_id[tid] for tid in sorted(val_ids)],
            cfg,
            fold_id=fold_id,
            on_epoch=on_epoch,
        )
        results.append((model, history))
    return results


def load_arch_config(path: str) -> ArchConfig:
    """Read the [arch] section of an ini file (see FORMATS.md)."""
    return section_to(ArchConfig, read_ini(path), "arch", path)


def load_train_config(path: str) -> TrainConfig:
    """Read the [train] section of an ini file (see FORMATS.md)."""
    return section_to(TrainConfig, read_ini(path), "train", path)
