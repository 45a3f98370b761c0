"""Binary trial files, CSV formats, manifests, and JSON sidecars."""

import hashlib
import json
import os
import re
import struct
import tempfile
import zlib
from dataclasses import replace

import numpy as np
import pytest

from csisense import dataio
from csisense.dataio import (
    Manifest,
    ManifestEntry,
    RowSpill,
    export_feature_csv,
    feature_column_names,
    import_feature_csv,
    load_manifest,
    load_scaler,
    load_split,
    read_predictions,
    read_trial,
    save_manifest,
    save_scaler,
    save_split,
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

@pytest.mark.parametrize("dims, stride", [((2, 3, 30), 1469), ((2, 1, 4), 85)])
def test_trial_file_size_follows_the_record_stride(tmp_path, dims, stride):
    # FORMATS.md: 18 header bytes plus the two ids, count records of
    # 17 + 4 n_rx + 8 n_tx n_rx n_sc bytes each, and the 4-byte CRC
    trial = _trial(n=7, dims=dims)
    path = tmp_path / "a.trial"
    write_trial(trial, path)
    assert 17 + 4 * dims[1] + 8 * dims[0] * dims[1] * dims[2] == stride
    assert path.stat().st_size == 18 + len(trial.pair_id) + len(trial.trial_id) + 7 * stride + 4


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
    for labeled in (True, False):
        trial = replace(_trial(), labeled=labeled)
        path = tmp_path / f"{labeled}.trial"
        write_trial(trial, path)
        back = read_trial(path)
        assert back.labeled is labeled
        assert path.read_bytes()[5] == int(labeled)  # the flags byte
        assert back.labels.tolist() == ([0, 1, 2, 0, 1] if labeled else [0] * 5)
        # the flag survives a second write: write->read->write is byte-identical
        write_trial(back, tmp_path / "again.trial")
        assert (tmp_path / "again.trial").read_bytes() == path.read_bytes()


def test_trial_label_outside_a_byte_is_rejected(tmp_path):
    trial = _trial()
    trial.labels[2] = 300  # would wrap to 44 in the one-byte label field
    with pytest.raises(DomainError, match="0..255"):
        write_trial(trial, tmp_path / "a.trial")
    write_trial(replace(trial, labeled=False), tmp_path / "a.trial")  # labels are not stored


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
    )
    path = tmp_path / "f.csv"
    export_feature_csv(frame, path, dims=(1, 1, 2))
    back = import_feature_csv(path)
    assert np.array_equal(back.labels, frame.labels)
    # 9 significant digits: relative error comfortably under 1e-7
    rel = np.abs(back.matrix - frame.matrix) / np.maximum(np.abs(frame.matrix), 1e-12)
    assert rel.max() <= 1e-7
    assert path.read_text().splitlines()[0].startswith("time_diff,noise,agc,rssi_a,")


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
    for label in ("3.0", "3.5"):  # a label must be an integer literal
        path.write_text(f"a,b,label\n1.0,2.0,1\n1.0,2.0,{label}\n")
        with pytest.raises(FormatError, match="line 3 is not numeric"):
            import_feature_csv(path)
    path.write_text("a,b,label\n1.0,2\n3.0,4\n")  # every row narrower than the header
    with pytest.raises(FormatError, match="line 2 has 2 columns, header has 3"):
        import_feature_csv(path)
    path.write_text("a,b,label\n1.0,2.0,3,4\n")
    with pytest.raises(FormatError, match="line 2 has 4 columns, header has 3"):
        import_feature_csv(path)
    path.write_text("a,b,label\n\n\n")
    with pytest.raises(FormatError, match="zero data rows"):
        import_feature_csv(path)


def test_feature_csv_with_one_data_row_round_trips(tmp_path):
    path = tmp_path / "f.csv"
    frame = FeatureFrame(np.array([[0.5, -2.0, 1e-300, -0.0, 1e300, 3.0]]), np.array([7]))
    export_feature_csv(frame, path, dims=(1, 1, 1))
    back = import_feature_csv(path)
    assert back.matrix.shape == (1, 6)
    assert back.matrix.tobytes() == frame.matrix.tobytes()
    assert back.labels.tolist() == [7]


@pytest.mark.parametrize("reader, header", [
    (import_feature_csv, "a,b,label"),
    (read_predictions, "packet_index,fold_0,ensembled,smoothed,true"),
])
def test_a_csv_that_is_not_utf8_is_a_format_error(tmp_path, reader, header):
    path = tmp_path / "x.csv"
    path.write_bytes(header.encode() + b"\n\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not UTF-8 text: byte {len(header) + 1} ")):
        reader(path)


def _pinned_feature_frame(width):
    """Edge values (signed zeros, the smallest subnormal, the largest decades,
    non-finite values, a non-terminating binary fraction, integral values)
    followed by seeded values across 16 decades."""
    rng = np.random.default_rng(21)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
            float("inf"), float("-inf"), float("nan"), 3.0, -7.0, 123456789.0, 1e16, 2.0**53]
    matrix = rng.standard_normal((5, width)) * 10.0 ** rng.integers(-8, 9, (5, width))
    matrix[0, : min(width, len(edge))] = edge[:width]
    return FeatureFrame(matrix, np.array([0, 12, 11, 3, 7]))


@pytest.mark.parametrize(
    "width, digest",
    [(366, "60ba0441fbf71eb46e1b4233de1ffc8c133dcc3493d1c51ba695f5b884d889fc")],
    ids=["named-columns"],
)
def test_feature_csv_bytes_are_frozen(tmp_path, width, digest):
    path = tmp_path / "f.csv"
    export_feature_csv(_pinned_feature_frame(width), path, dims=(2, 3, 30))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("width", [366, 20, 1])
def test_feature_csv_bulk_parse_equals_per_cell_parse(tmp_path, monkeypatch, width):
    # the bulk parse rounds every cell as float() does, signed zeros,
    # subnormals and non-finite values included.  The file is written in
    # export_feature_csv's number format, under names of any width
    path = tmp_path / "f.csv"
    frame = _pinned_feature_frame(width)
    rows = (row.tolist() + [label] for row, label in zip(frame.matrix, frame.labels.tolist()))
    dataio.write_csv(path, [f"c{i}" for i in range(width)] + ["label"], ",".join(["%.9g"] * width + ["%d"]), rows)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    per_cell = np.asarray([[float(cell) for cell in row[:-1]] for row in rows], dtype=np.float64)
    calls = []
    bulk = dataio._loadtxt
    monkeypatch.setattr(dataio, "_loadtxt", lambda *a: calls.append(len(a[0])) or bulk(*a))
    frame = import_feature_csv(path)
    assert calls == [5]  # one bulk parse; a well-formed file is never re-read line by line
    assert frame.matrix.shape == per_cell.shape == (5, width)
    assert frame.matrix.tobytes() == per_cell.tobytes()
    assert frame.labels.tolist() == [int(row[-1]) for row in rows] == [0, 12, 11, 3, 7]


def test_feature_csv_rejects_labels_outside_the_class_codes(tmp_path):
    path = tmp_path / "f.csv"
    for label in (13, 255, -1):
        path.write_text(f"a,b,label\n0,0,0\n0,0,{label}\n0,0,12\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: the label column holds {label}, not a class code")):
            import_feature_csv(path)
    path.write_text("label\n20\n")  # a label-only file: no feature column beside the label
    with pytest.raises(FormatError, match="the label column holds 20"):
        import_feature_csv(path)


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


@pytest.mark.parametrize("with_true", [True, False], ids=["labeled", "unlabeled"])
def test_predictions_with_one_data_row_round_trip(tmp_path, with_true):
    trace = _trace(t=1, folds=2, with_true=with_true, tid="one")
    path = tmp_path / "one.csv"
    write_predictions(trace, path)
    back = read_predictions(path)
    assert back.per_fold.shape == (2, 1)
    assert np.array_equal(back.per_fold, trace.per_fold)
    assert np.array_equal(back.ensembled, trace.ensembled)
    assert np.array_equal(back.smoothed, trace.smoothed)
    if with_true:
        assert np.array_equal(back.true_labels, trace.true_labels)
    else:
        assert back.true_labels is None


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


@pytest.mark.parametrize("column", ["fold_1", "ensembled", "smoothed", "true"])
def test_predictions_reject_values_outside_the_class_codes(tmp_path, column):
    path = tmp_path / "p.csv"
    write_predictions(_trace(t=3), path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = "20"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: column {column} holds 20, not a class code 0..12")):
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


@pytest.mark.parametrize("label", [13, 255, -1])
def test_writers_refuse_codes_outside_the_class_codes(tmp_path, label):
    # the writers hold class codes to the rule their readers enforce
    path = tmp_path / "f.csv"
    frame = FeatureFrame(np.zeros((3, 6)), np.array([0, label, 12]))
    with pytest.raises(DomainError, match=re.escape(f"{path}: the label column holds {label}, not a class code")):
        export_feature_csv(frame, path, dims=(1, 1, 1))
    assert not path.exists()
    path = tmp_path / "p.csv"
    trace = _trace()
    columns = {f"fold_{k}": codes for k, codes in enumerate(trace.per_fold)}
    columns.update(ensembled=trace.ensembled, smoothed=trace.smoothed, true=trace.true_labels)
    for name, codes in columns.items():
        codes[5] = label
        with pytest.raises(DomainError, match=re.escape(f"{path}: column {name} holds {label}, not a class")):
            write_predictions(trace, path)
        assert not path.exists()
        codes[5] = 0


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
    # a listed trial file that is missing is named by the command that reads it
    manifest = Manifest(
        dims=(2, 3, 30),
        seed=0,
        profiles_sha256="x",
        entries=[ManifestEntry("trials/ghost.trial", "p", "t", "pushing", 5)],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    assert load_manifest(path).entries == manifest.entries


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


# a valid record of each JSON file, with one field and a value of the wrong type for it
_JSON_RECORDS = {
    "manifest": (load_manifest, Manifest((2, 3, 30), 0, "x").to_dict(), "dims", 5),
    "scaler params": (load_scaler, RobustScalerParams(*np.ones((3, 2))).to_dict(), "median", "abc"),
    "split spec": (load_split, SplitSpec(["a"], ["b"], ["c"]).to_dict(), "train", 5),
}


@pytest.mark.parametrize("what", sorted(_JSON_RECORDS))
@pytest.mark.parametrize("damage", ["array", "string", "wrong-type"])
def test_a_malformed_json_record_is_a_format_error_naming_the_file(tmp_path, what, damage):
    load, record, name, value = _JSON_RECORDS[what]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"array": [], "string": "text", "wrong-type": {**record, name: value}}[damage]))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad {what} file: ")):
        load(path)
    path.write_text(json.dumps(record))
    load(path)


def test_scaler_file_with_arrays_of_unequal_length_is_a_format_error(tmp_path):
    path = tmp_path / "scaler.json"
    path.write_text(json.dumps({"version": 1, "median": [1, 2, 3], "iqr": [1, 2], "degenerate": [0, 0, 0]}))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad scaler params file: ") + ".*one length"):
        load_scaler(path)


def test_manifest_entry_fields_must_be_strings(tmp_path):
    record = Manifest((2, 3, 30), 0, "x", [ManifestEntry("trials/a.trial", "p", "a", "pushing", 5)]).to_dict()
    record["trials"][0]["path"] = 5
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(record))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad manifest file: ") + ".*expected a string, got int"):
        load_manifest(path)


def test_no_tmp_files_survive_writes(tmp_path):
    write_trial(_trial(), tmp_path / "t.trial")
    frame = FeatureFrame(np.ones((2, 6)), np.zeros(2, dtype=np.int64))
    export_feature_csv(frame, tmp_path / "f.csv", dims=(1, 1, 1))
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


# ---------------------------------------------------------------- row spill

def test_a_row_spill_reads_rows_back_in_the_order_asked():
    rows = np.random.default_rng(5).standard_normal((5, 2, 3))
    with tempfile.TemporaryFile() as file:
        spill = RowSpill(file, (2, 3))
        for row in rows[:3]:
            spill.append(row)
        assert spill[[2, 0]].tobytes() == rows[[2, 0]].tobytes()
        for row in rows[3:]:  # an append after a read still goes to the end
            spill.append(row)
        index = np.array([4, 1, 3, 3, 0])
        assert spill[index].tobytes() == rows[index].tobytes()
        assert spill[range(1, 3)].tobytes() == rows[1:3].tobytes()
        assert spill[[]].shape == (0, 2, 3)
        part = np.empty(4)
        spill.readinto(part, 3, start=2)  # a row's values from its third on
        assert part.tobytes() == rows[3].ravel()[2:].tobytes()
        spill.append(rows[0].T)  # a row is written in its own order
        assert spill[[5]].tobytes() == np.ascontiguousarray(rows[0].T).tobytes()


def test_a_row_spill_refuses_a_read_past_its_end():
    rows = np.random.default_rng(6).standard_normal((2, 2, 3))
    with tempfile.TemporaryFile() as file:
        spill = RowSpill(file, (2, 3))
        for row in rows:
            spill.append(row)
        with pytest.raises(FormatError, match="a read of row 5 runs past the end of the spill"):
            spill[[1, 5, 0]]
        with pytest.raises(FormatError, match="a read of row 1 runs past"):
            spill.readinto(np.empty(4), 1, start=3)  # the row holds 3 values from there
        assert spill[[1, 0]].tobytes() == rows[[1, 0]].tobytes()
