"""Binary trial files, CSV formats, manifests, and JSON sidecars."""

import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest

from csisense.dataio import (
    Manifest,
    ManifestEntry,
    export_feature_csv,
    feature_column_names,
    import_feature_csv,
    load_manifest,
    load_scaler,
    load_split,
    read_predictions,
    read_trial,
    record_stride,
    save_manifest,
    save_scaler,
    save_split,
    trial_is_labeled,
    write_predictions,
    write_trial,
)
from csisense.domain import Trial
from csisense.errors import ChecksumError, DomainError, FormatError, VersionError
from csisense.features import FeatureFrame, RobustScalerParams, SplitSpec
from csisense.postprocess import PredictionTrace


def _trial(n=5, dims=(2, 3, 30), seed=0, pair="pair00", tid="pair00-pushing-00"):
    rng = np.random.default_rng(seed)
    csi = np.empty((n, *dims), dtype=np.complex128)
    for i in range(n):  # same draw order as one packet at a time
        csi[i] = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return Trial(
        timestamps=0.1 * np.arange(n),
        noise=-92.0 + 0.25 * np.arange(n),
        agc=np.full(n, 30.0),
        rssi=np.tile([40.0, 41.0, 39.5][: dims[1]], (n, 1)),
        csi=csi,
        labels=np.arange(n) % 3,
        pair_id=pair,
        trial_id=tid,
    )


# ------------------------------------------------------------- trial binary

def test_record_stride_default_dims():
    assert record_stride((2, 3, 30)) == 1469


def test_trial_round_trip(tmp_path):
    trial = _trial()
    path = tmp_path / "a.trial"
    write_trial(trial, path)
    back = read_trial(path)
    assert back.pair_id == trial.pair_id
    assert back.trial_id == trial.trial_id
    assert back.dims == trial.dims
    assert len(back.timestamps) == len(trial.timestamps)
    assert np.array_equal(back.timestamps, trial.timestamps)  # stored as float64
    assert np.array_equal(back.noise, trial.noise.astype(np.float32))
    assert np.array_equal(back.agc, trial.agc.astype(np.float32))
    assert np.array_equal(back.rssi, trial.rssi.astype(np.float32))
    assert np.array_equal(back.csi.real, trial.csi.real.astype(np.float32))
    assert np.array_equal(back.csi.imag, trial.csi.imag.astype(np.float32))
    assert np.array_equal(back.labels, trial.labels)
    assert not list(tmp_path.glob("*.tmp"))


def test_trial_write_read_write_is_byte_identical(tmp_path):
    trial = _trial(seed=3)
    a = tmp_path / "a.trial"
    b = tmp_path / "b.trial"
    write_trial(trial, a)
    write_trial(read_trial(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_trial_labeled_flag(tmp_path):
    trial = _trial()
    labeled = tmp_path / "l.trial"
    blind = tmp_path / "b.trial"
    write_trial(trial, labeled, labeled=True)
    write_trial(trial, blind, labeled=False)
    assert trial_is_labeled(labeled) is True
    assert trial_is_labeled(blind) is False
    assert (read_trial(blind).labels == 0).all()
    assert read_trial(labeled).labels.tolist() == [0, 1, 2, 0, 1]


def test_trial_label_outside_a_byte_is_rejected(tmp_path):
    trial = _trial()
    trial.labels[2] = 300  # would wrap to 44 in the one-byte label field
    with pytest.raises(DomainError, match="0..255"):
        write_trial(trial, tmp_path / "a.trial")
    write_trial(trial, tmp_path / "a.trial", labeled=False)  # labels are not stored


def test_trial_checksum_catches_corruption_anywhere(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(), path)
    raw = path.read_bytes()
    for pos in (0, 5, 30, len(raw) // 2, len(raw) - 5, len(raw) - 1):
        bad = bytearray(raw)
        bad[pos] ^= 0x01
        path.write_bytes(bytes(bad))
        with pytest.raises((ChecksumError, FormatError)):
            read_trial(path)


def test_trial_truncation_detected(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(ChecksumError):
        read_trial(path)
    path.write_bytes(raw[:3])
    with pytest.raises(FormatError):
        read_trial(path)


def test_trial_bad_magic_and_version(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(), path)
    raw = path.read_bytes()

    body = bytearray(raw[:-4])
    body[:4] = b"NOPE"
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(FormatError, match="bad magic"):
        read_trial(path)
    with pytest.raises(FormatError):
        trial_is_labeled(path)

    body = bytearray(raw[:-4])
    body[4] = 7
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(VersionError):
        read_trial(path)


def test_trial_length_field_must_match_payload(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(n=4), path)
    raw = path.read_bytes()
    body = bytearray(raw[:-4])
    # the packet count lives after magic(4) + header(6) + both id strings
    offset = 10
    (pair_len,) = struct.unpack_from("<H", body, offset)
    offset += 2 + pair_len
    (trial_len,) = struct.unpack_from("<H", body, offset)
    offset += 2 + trial_len
    struct.pack_into("<I", body, offset, 9)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(FormatError, match="expected"):
        read_trial(path)


def _rechecked(path, body):
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


def test_trial_short_header_is_a_format_error(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(), path)
    _rechecked(path, path.read_bytes()[:10])  # magic and fixed fields, no ids
    with pytest.raises(FormatError, match="a.trial: truncated"):
        read_trial(path)


def test_trial_non_utf8_pair_id_is_a_format_error(tmp_path):
    path = tmp_path / "a.trial"
    write_trial(_trial(), path)
    body = bytearray(path.read_bytes()[:-4])
    body[12] = 0xFF  # first byte of the pair id, never valid UTF-8
    _rechecked(path, body)
    with pytest.raises(FormatError, match="a.trial: the text field at byte 10 is not UTF-8"):
        read_trial(path)


# ------------------------------------------------------------- feature CSV

def test_feature_column_names_layout():
    names = feature_column_names((1, 1, 2))
    assert names == [
        "time_diff", "noise", "agc", "rssi_a",
        "mag_tx0_rx0_sc00", "mag_tx0_rx0_sc01",
        "phase_tx0_rx0_sc00", "phase_tx0_rx0_sc01",
    ]
    assert len(feature_column_names((2, 3, 30))) == 366


def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    frame = FeatureFrame(
        matrix=rng.standard_normal((40, 8)) * 50.0,
        labels=rng.integers(0, 13, 40),
        scaler_applied=True,
    )
    path = tmp_path / "f.csv"
    export_feature_csv(frame, path, dims=(1, 1, 2))
    back = import_feature_csv(path)
    assert back.scaler_applied is True
    assert np.array_equal(back.labels, frame.labels)
    # 9 significant digits: relative error comfortably under 1e-7
    rel = np.abs(back.matrix - frame.matrix) / np.maximum(np.abs(frame.matrix), 1e-12)
    assert rel.max() <= 1e-7
    assert path.read_text().splitlines()[0].startswith("time_diff,noise,agc,rssi_a,")


def test_feature_csv_fallback_names(tmp_path):
    frame = FeatureFrame(np.zeros((2, 5)), np.zeros(2, dtype=np.int64), True)
    path = tmp_path / "f.csv"
    export_feature_csv(frame, path, dims=(1, 1, 2))  # dims describe 8 columns, not 5
    assert path.read_text().splitlines()[0] == "f000,f001,f002,f003,f004,label"


def test_feature_csv_import_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b,label\n")
    with pytest.raises(FormatError, match="zero data rows"):
        import_feature_csv(path)
    path.write_text("a,b,label\n1.0,2.0\n")
    with pytest.raises(FormatError, match="line 2"):
        import_feature_csv(path)
    path.write_text("a,b,label\n1.0,x,3\n")
    with pytest.raises(FormatError, match="not numeric"):
        import_feature_csv(path)


def _pinned_feature_frame(width):
    """Edge values (signed zeros, the smallest subnormal, the largest decades,
    non-finite values, a non-terminating binary fraction, integral values)
    followed by seeded values across 16 decades."""
    rng = np.random.default_rng(21)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
            float("inf"), float("-inf"), float("nan"), 3.0, -7.0, 123456789.0, 1e16, 2.0**53]
    matrix = rng.standard_normal((5, width)) * 10.0 ** rng.integers(-8, 9, (5, width))
    matrix[0, : min(width, len(edge))] = edge[:width]
    return FeatureFrame(matrix, np.array([0, 12, 255, 3, 7]), True)


@pytest.mark.parametrize(
    "width, digest",
    [
        (366, "d853013d3b0f86e484970bcfd2042c2926ada0668ed53c1e3ebf5f9c4e5ab001"),
        (20, "ab42b4770c0a7023261fc092db3e5b35d964c17bee3ea3b2763e9e2df80b5d31"),
    ],
    ids=["named-columns", "fallback-names"],
)
def test_feature_csv_bytes_are_frozen(tmp_path, width, digest):
    path = tmp_path / "f.csv"
    export_feature_csv(_pinned_feature_frame(width), path, dims=(2, 3, 30))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------- prediction CSV

def _trace(t=30, folds=4, with_true=True, tid="t0"):
    rng = np.random.default_rng(11)
    per_fold = rng.integers(0, 13, (folds, t))
    return PredictionTrace(
        trial_id=tid,
        per_fold=per_fold,
        ensembled=rng.integers(0, 13, t),
        smoothed=rng.integers(0, 13, t),
        true_labels=rng.integers(0, 13, t) if with_true else None,
    )


def test_predictions_round_trip(tmp_path):
    trace = _trace(tid="sample")
    path = tmp_path / "sample.csv"
    write_predictions(trace, path)
    back = read_predictions(path)
    assert back.trial_id == "sample"
    assert np.array_equal(back.per_fold, trace.per_fold)
    assert np.array_equal(back.ensembled, trace.ensembled)
    assert np.array_equal(back.smoothed, trace.smoothed)
    assert np.array_equal(back.true_labels, trace.true_labels)
    header = path.read_text().splitlines()[0]
    assert header == "packet_index,fold_0,fold_1,fold_2,fold_3,ensembled,smoothed,true"


def test_predictions_blank_true_column(tmp_path):
    path = tmp_path / "b.csv"
    write_predictions(_trace(with_true=False), path)
    assert read_predictions(path).true_labels is None
    assert path.read_text().splitlines()[1].endswith(",")


def test_predictions_partial_true_column_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions(_trace(t=3), path)
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[-1] = ""
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="partially filled"):
        read_predictions(path)


def test_predictions_header_and_row_validation(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("packet,a,b\n0,1,2\n")
    with pytest.raises(FormatError, match="header"):
        read_predictions(path)
    write_predictions(_trace(t=2, folds=1), path)
    text = path.read_text().splitlines()
    text[1] += ",77"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(FormatError, match="columns"):
        read_predictions(path)


@pytest.mark.parametrize(
    "with_true, digest",
    [(True, "51494c00681cc2d62a5995c5027534756320f3d86ddbb5b05cd5854529a04fe6"), (False, "257a7939fe823e62a8b982e15fa033927b58c73793d8029e691ab4da7bb0e4ab")],
    ids=["labeled", "unlabeled"],
)
def test_prediction_csv_bytes_are_frozen(tmp_path, with_true, digest):
    path = tmp_path / "p.csv"
    write_predictions(_trace(t=25, folds=3, with_true=with_true), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# --------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    (tmp_path / "trials").mkdir()
    write_trial(_trial(), tmp_path / "trials" / "a.trial")
    manifest = Manifest(
        dims=(2, 3, 30),
        seed=42,
        profiles_sha256="ab" * 32,
        entries=[
            ManifestEntry(
                path="trials/a.trial",
                pair_id="pair00",
                trial_id="a",
                class_name="pushing",
                length=5,
            )
        ],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert back.dims == (2, 3, 30)
    assert back.seed == 42
    assert back.profiles_sha256 == "ab" * 32
    assert len(back.entries) == 1
    assert back.entries[0].class_name == "pushing"


def test_manifest_missing_trial_file(tmp_path):
    manifest = Manifest(
        dims=(2, 3, 30),
        seed=0,
        profiles_sha256="x",
        entries=[ManifestEntry("trials/ghost.trial", "p", "t", "pushing", 5)],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    with pytest.raises(FormatError, match="ghost"):
        load_manifest(path)


def test_manifest_version_and_json_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_manifest(path)
    path.write_text(json.dumps({"version": 3, "dims": [2, 3, 30], "seed": 0, "profiles_sha256": "x"}))
    with pytest.raises(VersionError):
        load_manifest(path)


# ------------------------------------------------------------ JSON sidecars

def test_scaler_json_round_trip(tmp_path):
    params = RobustScalerParams(
        median=np.array([1.5, -2.0, 0.0]),
        iqr=np.array([2.0, 0.0, 1.25]),
        degenerate=np.array([False, True, False]),
    )
    path = tmp_path / "scaler.json"
    save_scaler(params, path)
    back = load_scaler(path)
    assert np.array_equal(back.median, params.median)
    assert np.array_equal(back.iqr, params.iqr)
    assert np.array_equal(back.degenerate, params.degenerate)
    path.write_text("[1, 2")
    with pytest.raises(FormatError):
        load_scaler(path)


def test_split_json_round_trip(tmp_path):
    spec = SplitSpec(
        train=["a", "b"],
        val=["c"],
        test=["d"],
        folds=[["a"], ["b", "c"]],
        seed=9,
    )
    path = tmp_path / "split.json"
    save_split(spec, path)
    back = load_split(path)
    assert back.train == ["a", "b"]
    assert back.val == ["c"]
    assert back.test == ["d"]
    assert back.folds == [["a"], ["b", "c"]]
    assert back.seed == 9
    path.write_text("{}")
    with pytest.raises(FormatError):
        load_split(path)


def test_no_tmp_files_survive_writes(tmp_path):
    write_trial(_trial(), tmp_path / "t.trial")
    frame = FeatureFrame(np.ones((2, 3)), np.zeros(2, dtype=np.int64), True)
    export_feature_csv(frame, tmp_path / "f.csv")
    write_predictions(_trace(t=2), tmp_path / "p.csv")
    save_scaler(
        RobustScalerParams(np.zeros(1), np.ones(1), np.array([False])),
        tmp_path / "s.json",
    )
    save_split(SplitSpec(train=[], val=[], test=[]), tmp_path / "sp.json")
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "t.trial"
    write_trial(_trial(seed=1), target)
    old = target.read_bytes()
    plain = tmp_path / "plain"
    plain.write_bytes(b"x")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_trial(_trial(seed=2), target)
    assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "t.trial"]
    monkeypatch.undo()

    # a successful write keeps the mode an ordinary file write gives
    write_trial(_trial(seed=2), target)
    assert target.stat().st_mode == plain.stat().st_mode
