"""Ensembling, smoothing, metrics, and the SVG timeline renderer."""

import numpy as np

from csisense.domain import LABELS, NUM_CLASSES
from csisense.postprocess import (
    SMOOTH_WINDOW,
    confusion,
    confusion_csv,
    ensemble_mode,
    label_runs,
    metrics,
    metrics_csv,
    metrics_text,
    smooth,
)
from csisense.render import render_label_plot, step_path


# ---------------------------------------------------------------- ensemble

def test_ensemble_mode_hand_case():
    per_fold = np.array([
        [0, 1, 2, 3],
        [0, 1, 5, 3],
        [0, 4, 5, 3],
    ])
    assert np.array_equal(ensemble_mode(per_fold), [0, 1, 5, 3])


def test_ensemble_mode_ties_pick_lowest_class():
    per_fold = np.array([[7, 2], [3, 9]])
    assert np.array_equal(ensemble_mode(per_fold), [3, 2])


def test_ensemble_mode_single_fold_is_identity():
    labels = np.array([4, 4, 0, 12])
    assert np.array_equal(ensemble_mode(labels[None, :]), labels)


def test_ensemble_mode_fold_order_invariance():
    rng = np.random.default_rng(99)
    for _ in range(200):
        folds = rng.integers(1, 7)
        t = rng.integers(1, 40)
        per_fold = rng.integers(0, NUM_CLASSES, (folds, t))
        want = ensemble_mode(per_fold)
        perm = rng.permutation(folds)
        assert np.array_equal(ensemble_mode(per_fold[perm]), want)


# --------------------------------------------------------------- smoothing

def test_smooth_constant_sequence_unchanged():
    labels = np.full(200, 6)
    assert np.array_equal(smooth(labels), labels)


def test_smooth_keeps_long_runs():
    # FORMATS.md documents the fixed window
    assert SMOOTH_WINDOW == 20
    # every run is at least 2 * window + 1 long: identity
    labels = np.concatenate([np.full(45, 0), np.full(50, 3), np.full(41, 1)])
    assert np.array_equal(smooth(labels), labels)


def test_smooth_fixes_interior_glitch():
    labels = np.full(100, 2)
    labels[50] = 9
    out = smooth(labels)
    assert out[50] == 2
    assert np.array_equal(out, np.full(100, 2))
    assert labels[50] == 9  # input untouched


def test_smooth_reads_the_original_series():
    # two nearby glitches both see mostly-clean windows in the frozen input,
    # so both are repaired in the single pass
    labels = np.full(120, 4)
    labels[60] = 1
    labels[62] = 7
    out = smooth(labels)
    assert out[60] == 4 and out[62] == 4


def test_smooth_leaves_boundaries_alone():
    labels = np.full(60, 3)
    labels[5] = 8  # inside the left boundary margin
    labels[57] = 8
    out = smooth(labels)
    assert out[5] == 8 and out[57] == 8


def test_smooth_short_input_identity():
    labels = np.array([1, 2, 3])
    assert np.array_equal(smooth(labels), labels)


def test_smooth_never_invents_labels():
    rng = np.random.default_rng(3)
    for _ in range(50):
        labels = rng.integers(0, NUM_CLASSES, rng.integers(1, 120))
        out = smooth(labels)
        assert set(np.unique(out)) <= set(np.unique(labels))


# ----------------------------------------------------------------- metrics

def test_confusion_hand_case():
    true = np.array([0, 0, 0, 1, 1, 2])
    pred = np.array([0, 0, 1, 1, 1, 2])
    conf = confusion(true, pred, classes=3)
    assert np.array_equal(conf, [[2, 1, 0], [0, 2, 0], [0, 0, 1]])


def test_metrics_weighted_hand_case():
    conf = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 1]])
    rep = metrics(conf)
    assert abs(rep.accuracy - 5 / 6) < 1e-12
    assert np.allclose(rep.per_class_precision, [1.0, 2 / 3, 1.0])
    assert np.allclose(rep.per_class_recall, [2 / 3, 1.0, 1.0])
    assert abs(rep.precision - (3 + 4 / 3 + 1) / 6) < 1e-12
    assert abs(rep.recall - 5 / 6) < 1e-12
    assert abs(rep.f1 - 5 / 6) < 1e-12  # both per-class F1s are 0.8, last is 1


def test_metrics_zero_support_class():
    conf = np.array([[4, 0, 0], [0, 0, 0], [1, 0, 3]])
    rep = metrics(conf)
    assert rep.per_class_recall[1] == 0.0
    assert rep.per_class_precision[1] == 0.0
    assert rep.support[1] == 0
    # the empty class carries no weight
    want_recall = (4 / 4 * 4 + 3 / 4 * 4) / 8
    assert abs(rep.recall - want_recall) < 1e-12


def test_metrics_csv_layout():
    conf = np.array([[2, 1], [0, 3]])
    text = metrics_csv(metrics(conf), ("alpha", "beta"))
    lines = text.strip().split("\n")
    assert lines[0] == "class,support,precision,recall,f1"
    assert lines[1].startswith("alpha,3,")
    assert lines[3].startswith("weighted,6,")
    assert lines[4].startswith("accuracy,6,0.833333")


def test_metrics_text_layout():
    conf = np.array([[2, 1], [0, 3]])
    text = metrics_text(metrics(conf), ("alpha", "beta"))
    assert "accuracy: 0.8333" in text
    assert text.splitlines()[0].startswith("class")


def test_confusion_csv_grid():
    conf = np.array([[2, 1], [0, 3]])
    text = confusion_csv(conf, ("alpha", "beta"))
    lines = text.strip().split("\n")
    assert lines[0] == "true\\predicted,alpha,beta"
    assert lines[1] == "alpha,2,1"
    assert lines[2] == "beta,0,3"


# -------------------------------------------------------------------- runs

def test_label_runs():
    assert label_runs(np.array([], dtype=np.int64)) == []
    assert label_runs(np.array([5])) == [(5, 0, 1)]
    assert label_runs(np.array([1, 1, 2, 2, 2, 0])) == [(1, 0, 2), (2, 2, 3), (0, 5, 1)]


# ---------------------------------------------------------------- renderer

def test_step_path_collapses_runs():
    path = step_path(np.array([1, 1, 0]), x_left=0.0, x_step=10.0, y_of=lambda c: float(100 - c))
    assert path == "M0,99 H20 V100 H30"


def test_render_label_plot_structure():
    t = np.concatenate([np.zeros(30, dtype=np.int64), np.full(30, 2)])
    svg = render_label_plot([("true", t), ("smoothed", t)], "trial demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "trial demo" in svg
    assert svg.count("<path") >= 2
    assert "#6b7280" in svg and "#dc2626" in svg  # stable series colors
    for name in LABELS[:3]:
        assert name in svg


def test_render_label_plot_is_deterministic():
    t = np.array([0, 0, 1, 1, 4, 4])
    a = render_label_plot([("ensembled", t)], "x")
    b = render_label_plot([("ensembled", t)], "x")
    assert a == b


def test_render_label_plot_escapes_markup():
    t = np.zeros(4, dtype=np.int64)
    svg = render_label_plot([("true", t)], "a <b> & c")
    assert "a &lt;b&gt; &amp; c" in svg
