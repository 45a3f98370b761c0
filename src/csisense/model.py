"""Sequence classifier: BiGRU stack with self-attention, and its training loop.

Data path per batch of B trials (T timesteps, F features):

    input (B, T, F)
      + fixed sinusoidal positional encoding (dim F)
      -> BiGRU 1 (out 2 * bigru1_units) -> dropout1
      -> BiGRU 2 (out 2 * bigru2_units) -> dropout2
      -> multi-head self-attention over the BiGRU 2 output width
      -> weighted skip add: SKIP_PRE * pre-attention + SKIP_ATT * attention
      -> dense(dense_units, relu) -> dropout3
      -> concat with the pre-attention tensor
      -> dense(classes) -> softmax  => per-timestep class distribution

Every named parameter (``bigru1/fwd/W_in_z``, ``out/W``, ...) is a view into
one flat ``store.values`` of ``param_count(arch)`` elements, carved in the
order above (bigru1, bigru2, attention, dense1, out), and its gradient the
view at the same offset into ``store.grads``.  That flat block is also a
weight bundle's parameter block, so the carve order is the one parameter
layout, in memory and on disk.  The store is float64 for a model that
trains; one that ``classify`` loads keeps its bundle's read-only float32
block as its store.  The model computes in its store's dtype: the forward
checks its input's shape and casts it once, and no layer checks or casts
again.  A bundle model's probabilities are therefore float32, within
float32 rounding of a float64 store holding the same values.

Only a training forward keeps activations, each layer's cache for the
backward that reads and clears it; an inference forward keeps none, so an
idle model holds no activations.  Inside a layer, an inference forward holds
only what its current step needs: each BiGRU the step it is on (beside one
block of input projections and its output), the attention one head's (T, T)
probabilities at a time.  An inference forward is also batch-invariant: row
i of a (B, T, F) forward equals the forward of that row alone bit for bit, so
``predict``, the one inference entry point, runs its rows in chunks of
:func:`inference_rows` without moving a bit.  Validation scores its class
probabilities, and ``classify`` takes their argmax.

Training minimizes per-timestep categorical cross-entropy with Adam, reduces
the learning rate on validation-accuracy plateaus (by ``LR_FACTOR``, down to
``MIN_LR``), and stops early once the
validation accuracy has not improved for a configured number of epochs,
restoring the best epoch's weights.  The Adam step, the gradient reset and
the best-weights copy each act on the whole flat store at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import read_ini, section_to
from .domain import NUM_CLASSES
from .errors import DomainError, TrainingDiverged
from .features import one_hot
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
    softmax,
)
from .postprocess import confusion, metrics

# the fixed mix of the pre-attention tensor and the attention output
SKIP_PRE, SKIP_ATT = 0.7, 0.3
# a validation plateau multiplies the learning rate by LR_FACTOR, never
# taking it below MIN_LR
LR_FACTOR, MIN_LR = 0.5, 1e-6


@dataclass(frozen=True)
class ArchConfig:
    """Architecture knobs.  ``scale_factor`` divides the unit-like widths and
    its integer square root divides heads and key_dim, so desk-scale runs keep
    the full wiring at a fraction of the cost.  ``seq_len`` and
    ``feature_dim`` are the input shape: ``train`` takes them from its
    features, so an arch file does not state them (``load_arch_config``)."""

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
    scale_factor: int = 1

    def __post_init__(self):
        if min(self.seq_len, self.feature_dim) < 1:
            raise DomainError("seq_len and feature_dim must be positive")
        # so that every argmax of the network is a class code
        if not 1 <= self.classes <= NUM_CLASSES:
            raise DomainError(f"classes {self.classes} must lie in 1..{NUM_CLASSES}")
        if self.scale_factor < 1:
            raise DomainError("scale_factor must be at least 1")
        # checked before scaling, which floors the head count at 1
        if self.heads < 1:
            raise DomainError(f"heads {self.heads} must be at least 1")
        scaled = self.scaled() if self.scale_factor > 1 else self
        if min(scaled.bigru1_units, scaled.bigru2_units, scaled.dense_units, scaled.key_dim) < 4:
            raise DomainError("scaled widths must stay at least 4")
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
    lr_patience: int = 10
    early_stop_patience: int = 30

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"seed must be at least 0, got {self.seed}")
        if self.epochs < 1:
            raise DomainError("epoch budget must be at least 1")
        if self.batch < 1:
            raise DomainError("batch size must be at least 1")
        if self.folds < 2:
            raise DomainError("fold count must be at least 2")
        # a rate below the floor would rise at its first plateau
        if not self.lr >= MIN_LR:
            raise DomainError(f"learning rate {self.lr} must be at least MIN_LR = {MIN_LR}")
        if self.lr_patience < 1:
            raise DomainError("lr_patience must be at least 1")
        if self.early_stop_patience < 1:
            raise DomainError("early_stop_patience must be at least 1")


# activation bytes an inference chunk may hold, counted at 8 per value, so
# a float32 model's chunk holds half of them
_INFERENCE_BYTES = 12 << 20


def inference_rows(arch: ArchConfig) -> int:
    """Sequences per inference forward: as many as fit ``_INFERENCE_BYTES``,
    counting per row 14 state-sized (T, bigru1_units) arrays and two (T, T)
    arrays.  That over-counts: an inference forward holds two of those
    state-sized arrays (bigru1's output, both directions) beside one block of
    input projections, and one (T, T) array at a time.  At least 1.  A row's
    bits do not depend on the count, so it bounds memory and nothing else:
    8 rows at desk scale, 1 at full width."""
    eff = arch.scaled()
    per_row = 8 * eff.seq_len * (14 * eff.bigru1_units + 2 * eff.seq_len)
    return max(1, _INFERENCE_BYTES // per_row)


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
    """The assembled network, over a (B, T, F) batch of sequences."""

    def __init__(self, arch: ArchConfig, seed: int = 0, values: np.ndarray | None = None):
        """Without ``values``, a float64 store of initial weights drawn from
        ``seed``, to train.  ``values`` is a flat parameter block of
        ``param_count(arch)`` elements in carve order (a loaded bundle's,
        say), which becomes the store as it is: nothing is drawn or copied,
        and the model computes in its dtype."""
        self.arch = arch
        eff = arch.scaled()
        self.eff = eff
        rng = np.random.default_rng(seed)
        init = rng if values is None else None
        att_width = 2 * eff.bigru2_units
        self.store = store = ParamStore(np.zeros(param_count(arch)) if values is None else values)
        self.posenc = AddPositional(eff.seq_len, eff.feature_dim)
        self.bigru1 = BiGru(eff.feature_dim, eff.bigru1_units, init, store)
        self.drop1 = Dropout(eff.dropout1, rng)
        self.bigru2 = BiGru(2 * eff.bigru1_units, eff.bigru2_units, init, store)
        self.drop2 = Dropout(eff.dropout2, rng)
        self.attention = MultiHeadSelfAttention(att_width, eff.heads, eff.key_dim, init, store)
        self.skip = WeightedSkipAdd(SKIP_PRE, SKIP_ATT)
        self.dense1 = Dense(att_width, eff.dense_units, "relu", init, store)
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

    def forward_logits(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Pre-softmax scores; backward() is the exact adjoint of a training pass.

        The network's one input check: ``x`` must be (B, T, F) with T at most
        seq_len and F feature_dim, and a training forward needs a float64
        store.  ``x`` is cast to the store's dtype here, once; the layers
        rely on both and check nothing.
        """
        dtype = self.store.values.dtype
        if training and dtype != np.float64:
            raise DomainError(f"a training forward needs float64 parameters, not {dtype}")
        x = np.asarray(x, dtype=dtype)
        if x.ndim != 3 or x.shape[1] > self.eff.seq_len or x.shape[2] != self.eff.feature_dim:
            raise DomainError(
                f"input shape {x.shape} is not (batch, T <= {self.eff.seq_len}, {self.eff.feature_dim})"
            )
        h = self.posenc.forward(x, training)
        h = self.bigru1.forward(h, training)
        h = self.drop1.forward(h, training)
        pre = self.bigru2.forward(h, training)
        del h  # bigru1's output, which bigru2 has consumed
        pre = self.drop2.forward(pre, training)
        att = self.attention.forward(pre, training)
        mixed = self.skip.forward(pre, att, training)
        d = self.dense1.forward(mixed, training)
        d = self.drop3.forward(d, training)
        cat = self.concat.forward(d, pre, training)
        return self.out.forward(cat, training)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return softmax(self.forward_logits(x, training))

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate from the pre-softmax logit gradient to the input.
        ``input_grad=False`` stops at bigru1's parameters and returns None:
        the same parameter gradients without bigru1's input products."""
        dcat = self.out.backward(dlogits)
        dd, dpre_cat = self.concat.backward(dcat)
        dmixed = self.dense1.backward(self.drop3.backward(dd))
        dpre_skip, datt = self.skip.backward(dmixed)
        dpre_att = self.attention.backward(datt)
        dpre = dpre_cat + dpre_skip + dpre_att
        dh = self.bigru2.backward(self.drop2.backward(dpre))
        dh = self.bigru1.backward(self.drop1.backward(dh), input_grad)
        return self.posenc.backward(dh)  # the identity, so None stays None

    def predict(self, x, rows) -> np.ndarray:
        """Per-timestep class probabilities ``(len(rows), T, classes)`` in
        the store's dtype for the rows ``rows``, in the order given, of the
        row source ``x`` (see :func:`train_fold`), one :func:`inference_rows`
        chunk per inference forward."""
        step = inference_rows(self.eff)
        chunks = [self.forward(x[rows[start : start + step]]) for start in range(0, len(rows), step)]
        return np.concatenate(chunks)


def build(arch: ArchConfig, seed: int = 0) -> SequenceClassifier:
    return SequenceClassifier(arch, seed)


def _evaluate(model: SequenceClassifier, x, labels: np.ndarray, rows, classes: int) -> dict:
    """Validation loss and metrics over the pool rows ``rows``, from their
    ``predict`` probabilities; the per-row losses are summed in row order."""
    probs = model.predict(x, rows)
    truth = labels[rows]
    total_loss = 0.0  # a plain running sum: sum() compensates from Python 3.12 on
    for row_probs, row_truth in zip(probs, truth):
        total_loss += cross_entropy(row_probs, one_hot(row_truth, classes))
    report = metrics(confusion(truth, np.argmax(probs, axis=-1), classes))
    return {
        "loss": total_loss / len(rows),
        "acc": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
    }


def train_fold(
    model: SequenceClassifier,
    x,
    labels: np.ndarray,
    train_rows,
    val_rows,
    cfg: TrainConfig,
    fold_id: int = 0,
    on_epoch=None,
) -> list[dict]:
    """Train one fold on rows ``train_rows`` of the pool ``x`` and its
    ``labels`` (trials, T), validating on ``val_rows``; returns the
    per-epoch history and leaves the model at the best-validation-accuracy
    epoch's weights, holding no forward caches.  ``x`` is a row source:
    ``x[rows]`` returns those rows as a (len(rows), T, F) float64 array, as
    an ndarray pool or a ``dataio.RowSpill`` does, and it is asked for one
    batch or validation chunk at a time.  The caller keeps every label
    below ``model.eff.classes``.

    History rows carry validation-set values (epoch, loss, acc, precision,
    recall, lr): the schedule keys on validation accuracy, so that is the
    series worth exporting.  After each epoch, a strictly higher accuracy
    becomes the best epoch and resets the plateau wait; any other epoch adds
    one to the wait, and a wait of ``cfg.lr_patience`` epochs cuts the rate
    to ``max(MIN_LR, lr * LR_FACTOR)`` and starts the wait again.
    Training stops once ``cfg.early_stop_patience`` epochs have passed since
    the best one.  Raises TrainingDiverged if the network output goes
    non-finite (a finite softmax always gives a finite loss).  A
    fixed (cfg.seed, fold_id) pair reproduces the history exactly.
    """
    classes = model.eff.classes
    train_rows = np.asarray(train_rows, dtype=np.int64)
    rng = np.random.default_rng([cfg.seed, fold_id])
    optimizer = Adam()
    history: list[dict] = []
    best_values = model.store.values.copy()
    best_acc = -np.inf
    lr = cfg.lr
    wait = best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), cfg.batch):
            rows = train_rows[order[start : start + cfg.batch]]
            probs = model.forward(x[rows], training=True)
            if not np.isfinite(probs).all():
                raise TrainingDiverged(f"network output became non-finite in fold {fold_id}, epoch {epoch}")
            model.store.grads.fill(0.0)
            model.backward(cross_entropy_logit_grad(probs, one_hot(labels[rows], classes)), input_grad=False)
            optimizer.step(model.store.values, model.store.grads, lr)
        row = _evaluate(model, x, labels, val_rows, classes)
        row.update(epoch=epoch, lr=lr)
        history.append(row)
        if row["acc"] > best_acc:
            best_acc, best_epoch, wait = row["acc"], epoch, 0
            best_values[...] = model.store.values
        else:
            wait += 1
            if wait == cfg.lr_patience:
                lr, wait = max(MIN_LR, lr * LR_FACTOR), 0
        if on_epoch is not None:
            on_epoch(fold_id, row)
        if epoch - best_epoch >= cfg.early_stop_patience:
            break

    model.store.values[...] = best_values
    return history


def fold_seed(seed: int, fold_id: int) -> int:
    """The initialization seed of fold ``fold_id`` under training seed ``seed``."""
    return seed * 10007 + fold_id


def train_kfold(
    x,
    labels: np.ndarray,
    folds: list[list[int]],
    arch: ArchConfig,
    cfg: TrainConfig,
    on_epoch=None,
) -> list[tuple[SequenceClassifier, list[dict]]]:
    """Cross-validation over the pool ``x``, a row source (see
    :func:`train_fold`), and its integer ``labels`` (trials, T): fold i
    validates on the rows folds[i] and trains on the rest, each in ascending
    row order.

    Returns one (model, history) pair per fold; models start from distinct
    seed-mixed initializations of the same architecture.
    """
    results = []
    for fold_id, val_rows in enumerate(folds):
        train_rows = sorted(r for j, fold in enumerate(folds) if j != fold_id for r in fold)
        model = build(arch, seed=fold_seed(cfg.seed, fold_id))
        history = train_fold(
            model, x, labels, train_rows, sorted(val_rows), cfg, fold_id=fold_id, on_epoch=on_epoch
        )
        results.append((model, history))
    return results


def load_arch_config(path: str) -> ArchConfig:
    """Read the [arch] section of an ini file (see FORMATS.md).  The section
    may not state ``seq_len`` or ``feature_dim``, which keep their defaults
    here until ``train`` sets them from its features."""
    shape = {"seq_len": ArchConfig.seq_len, "feature_dim": ArchConfig.feature_dim}
    return section_to(ArchConfig, read_ini(path), "arch", path, **shape)


def load_train_config(path: str) -> TrainConfig:
    """Read the [train] section of an ini file (see FORMATS.md)."""
    return section_to(TrainConfig, read_ini(path), "train", path)
