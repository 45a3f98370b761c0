"""On-disk formats: trial files, feature CSVs, prediction CSVs, manifests.

Binary layouts are little-endian and carry a trailing CRC32 over every
preceding byte, so any single corrupted byte is detected.  FORMATS.md at the
repository root documents each layout field by field.  All writers go through
write-then-rename, so an interrupted run never leaves a partial file behind.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
import zlib
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .domain import NUM_CLASSES, Trial
from .errors import ChecksumError, DomainError, FormatError, VersionError
from .features import FeatureFrame, RobustScalerParams, SplitSpec
from .postprocess import PredictionTrace

TRIAL_MAGIC = b"CSTR"
TRIAL_VERSION = 1
_FLAG_LABELED = 0x01


def _atomic_write_bytes(path: str | Path, chunks) -> None:
    """Write an iterable of byte chunks, consumed one at a time, through a
    temp file named for this process in the target's directory, synced to
    disk before the rename and removed on any failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write_bytes(path, [text.encode("utf-8")])


def write_checked(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks and then the little-endian CRC32 of all of them;
    :func:`read_checked` is the matching reader."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    _atomic_write_bytes(path, [*chunks, struct.pack("<I", crc)])


_CSV_CHUNK_ROWS = 256  # rows formatted per write, so a file is never held whole


def write_csv(path: str | Path, header: list[str], row_format: str, rows) -> None:
    """Write the header line, then one ``row_format % tuple(row)`` line per
    row, through the atomic write.  ``rows`` is consumed lazily, a chunk of
    ``_CSV_CHUNK_ROWS`` rows per write."""

    line = row_format + "\n"

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        rest = iter(rows)
        while text := "".join([line % tuple(row) for row in islice(rest, _CSV_CHUNK_ROWS)]):
            yield text.encode("utf-8")

    _atomic_write_bytes(path, chunks())


class RowSpill:
    """Equal-shape float64 rows, one after another in an open binary file
    (an unnamed temporary file, say), so that memory holds only the rows
    being used.  ``append`` writes the next row; ``spill[rows]`` reads the
    given rows back, in the order given, as one ``(len(rows), *shape)``
    array, so a spill stands in for an ndarray wherever rows are gathered by
    index.  Each row is one ``readinto``, with no file mapping."""

    def __init__(self, file, shape: tuple[int, ...]):
        self.file, self.shape = file, tuple(shape)
        self.size = int(np.prod(self.shape))  # values per row

    def append(self, row: np.ndarray) -> None:
        self.file.seek(0, os.SEEK_END)
        self.file.write(np.ascontiguousarray(row, dtype=np.float64))

    def readinto(self, out: np.ndarray, row: int, start: int = 0) -> None:
        """Fill ``out`` with the values of row ``row`` from its value
        ``start`` on, in the row's own order, or refuse a read past the end."""
        self.file.seek(8 * (row * self.size + start))
        if self.file.readinto(out) != out.nbytes:
            raise FormatError(f"a read of row {row} runs past the end of the spill")

    def __getitem__(self, rows) -> np.ndarray:
        out = np.empty((len(rows), *self.shape))
        for place, row in enumerate(rows):
            self.readinto(out[place], row)
        return out


def _read_text(path: str | Path) -> str:
    """A text file's contents; one that is not UTF-8 is a format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from exc


def _loadtxt(lines: list[str], dtype: np.dtype, width: int) -> np.ndarray:
    with warnings.catch_warnings():
        # NumPy 1.x reads an integer cell "3.5" as 3 with only this warning; NumPy 2 refuses it
        warnings.simplefilter("error", DeprecationWarning)
        ndmin = 1 if dtype.names else 2
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=range(width), ndmin=ndmin)


def _read_table(path: str | Path, what: str, dtype, header_ok=lambda header: True, blank_last=False):
    """Header and body of a CSV file, blank lines skipped; the body is read by
    one ``np.loadtxt`` into rows of ``dtype(width)`` for the width parsed (with
    ``blank_last``, a last column every row leaves empty is not parsed).  Zero
    data rows, a rejected header, a row of another width than the header, a
    last column empty in some rows only, or a refused cell is a format error
    naming the file; a refused cell re-runs the parse line by line to name it."""
    lines = [ln for ln in _read_text(path).splitlines() if ln]
    if len(lines) < 2:
        raise FormatError(f"{path}: {what} has zero data rows")
    header, body = lines[0].split(","), lines[1:]
    if not header_ok(header):
        raise FormatError(f"{path}: unexpected {what} header")
    for ln_no, line in enumerate(body, start=2):
        if line.count(",") != len(header) - 1:
            raise FormatError(f"{path}: line {ln_no} has {line.count(',') + 1} columns, header has {len(header)}")
    width = len(header)
    if blank_last:
        blank = sum(line.endswith(",") for line in body)
        if blank == len(body):
            width -= 1
        elif blank:
            raise FormatError(f"{path}: {header[-1]} column is only partially filled")
    row = np.dtype(dtype(width))
    try:
        return header, _loadtxt(body, row, width)
    except (ValueError, DeprecationWarning) as bulk_exc:
        for ln_no, line in enumerate(body, start=2):
            try:
                _loadtxt([line], row, width)
            except (ValueError, DeprecationWarning) as exc:
                raise FormatError(f"{path}: line {ln_no} is not numeric: {exc}") from exc
        raise FormatError(f"{path}: {what} is not numeric: {bulk_exc}") from bulk_exc


def decode_json(text: str, path: str | Path, what: str, build):
    """``build(record)`` of JSON text whose top level is an object.  Text that
    does not parse, another top level, or a ``KeyError``, ``TypeError`` or
    ``ValueError`` from ``build`` is a format error naming ``path``."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FormatError(f"{path}: bad {what}: the top level is not a JSON object")
    try:
        return build(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad {what}: {exc!r}") from exc


def _load_json(path: str | Path, what: str, build):
    """:func:`decode_json` of a file whose record is version 1; another
    version is a version error."""

    def versioned(record: dict):
        if record.get("version") != 1:
            raise VersionError(f"{path}: unsupported {what} version {record.get('version')!r}")
        return build(record)

    return decode_json(_read_text(path), path, f"{what} file", versioned)


def _save_json(record: dict, path: str | Path, indent: int | None = None) -> None:
    _atomic_write_text(path, json.dumps(record, indent=indent, sort_keys=True) + "\n")


def _record_dtype(dims: tuple[int, int, int]) -> np.dtype:
    n_tx, n_rx, n_sc = dims
    return np.dtype(
        [
            ("timestamp", "<f8"),
            ("noise", "<f4"),
            ("agc", "<f4"),
            ("rssi", "<f4", (n_rx,)),
            ("csi", "<f4", (2 * n_tx * n_rx * n_sc,)),
            ("label", "u1"),
        ]
    )


def write_trial(trial: Trial, path: str | Path) -> None:
    """Serialize a trial.  An unlabeled trial (``trial.labeled`` false) is
    flagged so, and its labels are written as zero."""
    dims = trial.dims
    pair_raw = trial.pair_id.encode("utf-8")
    trial_raw = trial.trial_id.encode("utf-8")
    flags = _FLAG_LABELED if trial.labeled else 0
    head = bytearray()
    head += TRIAL_MAGIC
    head += struct.pack("<BBBBH", TRIAL_VERSION, flags, dims[0], dims[1], dims[2])
    head += struct.pack("<H", len(pair_raw)) + pair_raw
    head += struct.pack("<H", len(trial_raw)) + trial_raw
    n = len(trial.timestamps)
    head += struct.pack("<I", n)

    records = np.empty(n, dtype=_record_dtype(dims))
    records["timestamp"] = trial.timestamps
    records["noise"] = trial.noise
    records["agc"] = trial.agc
    records["rssi"] = trial.rssi
    # complex128 viewed as float64 interleaves real and imaginary parts
    records["csi"] = np.ascontiguousarray(trial.csi, dtype=np.complex128).reshape(n, -1).view(np.float64)
    records["label"] = trial.labels if trial.labeled else 0
    if trial.labeled and not np.array_equal(records["label"], trial.labels):
        raise DomainError(f"trial {trial.trial_id}: labels must lie in 0..255 to fit the record")

    write_checked(path, head, records.tobytes())


class _Cursor:
    """Front-to-back reads over a checked file body.  A field that runs past
    the end, or text that is not UTF-8, is a format error naming the file."""

    def __init__(self, body: memoryview, path: str | Path, offset: int):
        self.body, self.path, self.offset = body, path, offset

    def take(self, n: int) -> memoryview:
        start, self.offset = self.offset, self.offset + n
        if self.offset > len(self.body):
            raise FormatError(f"{self.path}: truncated: the field at byte {start} needs {n} bytes")
        return self.body[start : self.offset]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, length_fmt: str) -> str:
        """A UTF-8 string after its byte count, packed as ``length_fmt``."""
        start = self.offset
        raw = self.take(*self.unpack(length_fmt))
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: the text field at byte {start} is not UTF-8") from exc


def read_checked(path: str | Path, magic: bytes, what: str) -> _Cursor:
    """The CRC-verified body of a :func:`write_checked` file that starts with
    ``magic``, as a cursor just past the magic.  The body is read-only.  It
    is read into a NumPy buffer, which NumPy backs with huge pages where the
    system allows, so a float32 view of a weight bundle's parameters runs a
    forward as fast as an array NumPy allocated itself."""
    with open(path, "rb") as fh:
        buffer = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        buffer = buffer[: fh.readinto(buffer)]
    buffer.flags.writeable = False
    raw = memoryview(buffer)
    if len(raw) < 4:
        raise FormatError(f"{path}: file too short to carry a checksum")
    body, (stored,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != stored:
        raise ChecksumError(f"{path}: checksum mismatch; file is corrupted or truncated")
    if body[:4] != magic:
        raise FormatError(f"{path}: not a {what} (bad magic)")
    return _Cursor(body, path, len(magic))


def read_trial(path: str | Path) -> Trial:
    """Parse and checksum-verify a trial file; ``labeled`` is its flags bit."""
    cur = read_checked(path, TRIAL_MAGIC, "trial file")
    version, flags, *dims = cur.unpack("<BBBBH")
    if version != TRIAL_VERSION:
        raise VersionError(f"{path}: trial format version {version} not supported")
    pair_id, trial_id = cur.text("<H"), cur.text("<H")
    (count,) = cur.unpack("<I")
    dtype = _record_dtype(dims)
    expected = cur.offset + count * dtype.itemsize
    if len(cur.body) != expected:
        raise FormatError(f"{path}: expected {expected} data bytes, found {len(cur.body)}")
    records = np.frombuffer(cur.take(count * dtype.itemsize), dtype=dtype)
    return Trial(
        timestamps=records["timestamp"].astype(np.float64),
        noise=records["noise"].astype(np.float64),
        agc=records["agc"].astype(np.float64),
        rssi=records["rssi"].astype(np.float64),
        csi=records["csi"].astype(np.float64).view(np.complex128).reshape(count, *dims),
        labels=records["label"].astype(np.int64),
        pair_id=pair_id,
        trial_id=trial_id,
        labeled=bool(flags & _FLAG_LABELED),
    )


def _csi_column_names(dims: tuple[int, int, int], kind: str) -> list[str]:
    n_tx, n_rx, n_sc = dims
    return [
        f"{kind}_tx{t}_rx{r}_sc{s:02d}"
        for t in range(n_tx)
        for r in range(n_rx)
        for s in range(n_sc)
    ]


def feature_column_names(dims: tuple[int, int, int]) -> list[str]:
    """Column names matching the feature-row layout for the given dims."""
    n_rx = dims[1]
    rssi = [f"rssi_{chr(ord('a') + i)}" if i < 26 else f"rssi_{i}" for i in range(n_rx)]
    return (
        ["time_diff", "noise", "agc"]
        + rssi
        + _csi_column_names(dims, "mag")
        + _csi_column_names(dims, "phase")
    )


def export_feature_csv(frame: FeatureFrame, path: str | Path, dims: tuple[int, int, int]) -> None:
    """One row per packet, 9-significant-digit decimals, label as last column;
    the columns are named for ``dims``, which must describe the frame's width.
    A label outside the class codes is refused before anything is written."""
    _check_class_codes(path, frame.labels, "the label column", DomainError)
    f = frame.matrix.shape[1]
    rows = (row.tolist() + [label] for row, label in zip(frame.matrix, frame.labels.tolist()))
    write_csv(path, feature_column_names(dims) + ["label"], ",".join(["%.9g"] * f + ["%d"]), rows)


def _check_class_codes(path: str | Path, codes: np.ndarray, column: str, error=FormatError) -> None:
    """``error`` naming the file and column if ``codes`` holds anything but a
    class code: a format error for a reader, a domain error for a writer."""
    bad = (codes < 0) | (codes >= NUM_CLASSES)
    if bad.any():
        raise error(f"{path}: {column} holds {codes[bad][0]}, not a class code 0..{NUM_CLASSES - 1}")


def import_feature_csv(path: str | Path) -> FeatureFrame:
    """Parse a feature CSV back into a frame: each feature cell as ``float()``
    rounds it, a label as an integer literal that must be a class code."""
    _, table = _read_table(path, "feature CSV", lambda w: [("features", "<f8", (w - 1,)), ("label", "<i8")])
    matrix, labels = np.ascontiguousarray(table["features"]), np.ascontiguousarray(table["label"])
    _check_class_codes(path, labels, "the label column")
    return FeatureFrame(matrix=matrix, labels=labels)


def write_predictions(trace: PredictionTrace, path: str | Path) -> None:
    """Columns: packet_index, one per fold, ensembled, smoothed, true.
    The true column is left empty when no ground truth exists.  A value
    outside the class codes is refused before anything is written."""
    folds, t = trace.per_fold.shape
    header = (
        ["packet_index"]
        + [f"fold_{k}" for k in range(folds)]
        + ["ensembled", "smoothed", "true"]
    )
    columns = [np.arange(t), *trace.per_fold, trace.ensembled, trace.smoothed]
    if trace.true_labels is not None:
        columns.append(trace.true_labels)
    for name, codes in zip(header[1:], columns[1:]):
        _check_class_codes(path, codes, f"column {name}", DomainError)
    row_format = ",".join(["%d"] * len(columns)) + ("," if trace.true_labels is None else "")
    write_csv(path, header, row_format, np.column_stack(columns).tolist())


def _prediction_header_ok(header: list[str]) -> bool:
    fold_cols = [h for h in header if h.startswith("fold_")]
    return bool(fold_cols) and header == ["packet_index"] + fold_cols + ["ensembled", "smoothed", "true"]


def read_predictions(path: str | Path) -> PredictionTrace:
    """Inverse of :func:`write_predictions`; trial id comes from the filename.
    Every column but ``packet_index`` must hold class codes."""
    header, table = _read_table(path, "prediction CSV", lambda _: np.int64, _prediction_header_ok, blank_last=True)
    folds = len(header) - 4
    columns = np.ascontiguousarray(table.T)
    for name, codes in zip(header[1:], columns[1:]):
        _check_class_codes(path, codes, f"column {name}")
    return PredictionTrace(
        trial_id=Path(path).stem,
        per_fold=columns[1 : 1 + folds],
        ensembled=columns[1 + folds],
        smoothed=columns[2 + folds],
        true_labels=columns[3 + folds] if len(columns) == len(header) else None,
    )


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


@dataclass
class ManifestEntry:
    path: str  # relative to the manifest's directory
    pair_id: str
    trial_id: str
    class_name: str
    length: int


@dataclass
class Manifest:
    """Index of one generated dataset: trial files plus provenance."""

    dims: tuple[int, int, int]
    seed: int
    profiles_sha256: str
    entries: list[ManifestEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "dims": list(self.dims),
            "seed": self.seed,
            "profiles_sha256": self.profiles_sha256,
            "trials": [asdict(e) for e in self.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        dims = tuple(int(v) for v in d["dims"])
        if len(dims) != 3:
            raise ValueError("dims must have three entries")
        entries = [
            ManifestEntry(*[_text(e[k]) for k in ("path", "pair_id", "trial_id", "class_name")], int(e["length"]))
            for e in d.get("trials", [])
        ]
        return cls(dims, int(d["seed"]), _text(d["profiles_sha256"]), entries)  # type: ignore[arg-type]


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    _save_json(manifest.to_dict(), path, indent=2)


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate a manifest.  A referenced trial file that is
    missing is left to its reader, which names it."""
    return _load_json(path, "manifest", Manifest.from_dict)


def save_scaler(params: RobustScalerParams, path: str | Path) -> None:
    _save_json(params.to_dict(), path)


def load_scaler(path: str | Path) -> RobustScalerParams:
    return _load_json(path, "scaler params", RobustScalerParams.from_dict)


def save_split(spec: SplitSpec, path: str | Path) -> None:
    _save_json(spec.to_dict(), path, indent=2)


def load_split(path: str | Path) -> SplitSpec:
    return _load_json(path, "split spec", SplitSpec.from_dict)
