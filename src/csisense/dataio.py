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
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import Trial
from .errors import ChecksumError, DomainError, FormatError, VersionError
from .features import FeatureFrame, RobustScalerParams, SplitSpec
from .postprocess import PredictionTrace

TRIAL_MAGIC = b"CSTR"
TRIAL_VERSION = 1
_FLAG_LABELED = 0x01


def _atomic_write_bytes(path: str | Path, *chunks: bytes) -> None:
    """Write through a temp file named for this process in the target's
    directory, synced to disk before the rename and removed on any failure."""
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
    _atomic_write_bytes(path, text.encode("utf-8"))


def write_checked(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks and then the little-endian CRC32 of all of them;
    :func:`read_checked` is the matching reader."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    _atomic_write_bytes(path, *chunks, struct.pack("<I", crc))


def write_csv(path: str | Path, header: list[str], row_format: str, rows) -> None:
    """Write the header line, then one ``row_format % tuple(row)`` line per
    row, through the atomic write."""
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path: str | Path, what: str, parse_row, header_ok=lambda header: True):
    """Header and ``parse_row(cells)`` of every data row, blank lines skipped.

    Zero data rows, a header ``header_ok`` rejects, a row whose width differs
    from the header's, or a ``ValueError`` from ``parse_row`` is a format error.
    """
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    if len(lines) < 2:
        raise FormatError(f"{path}: {what} has zero data rows")
    header = lines[0].split(",")
    if not header_ok(header):
        raise FormatError(f"{path}: unexpected {what} header")
    rows = []
    for ln_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise FormatError(f"{path}: line {ln_no} has {len(cells)} columns, header has {len(header)}")
        try:
            rows.append(parse_row(cells))
        except ValueError as exc:
            raise FormatError(f"{path}: line {ln_no} is not numeric: {exc}") from exc
    return header, rows


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


def record_stride(dims: tuple[int, int, int]) -> int:
    """Bytes per packet record; 1469 for the default (2, 3, 30) dims."""
    return _record_dtype(dims).itemsize


def write_trial(trial: Trial, path: str | Path, labeled: bool = True) -> None:
    """Serialize a trial.  ``labeled=False`` marks the stored labels invalid
    (they are written as zero) for inference-only inputs."""
    dims = trial.dims
    pair_raw = trial.pair_id.encode("utf-8")
    trial_raw = trial.trial_id.encode("utf-8")
    flags = _FLAG_LABELED if labeled else 0
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
    records["label"] = trial.labels if labeled else 0
    if labeled and not np.array_equal(records["label"], trial.labels):
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
    ``magic``, as a cursor just past the magic."""
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 4:
        raise FormatError(f"{path}: file too short to carry a checksum")
    body, (stored,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != stored:
        raise ChecksumError(f"{path}: checksum mismatch; file is corrupted or truncated")
    if body[:4] != magic:
        raise FormatError(f"{path}: not a {what} (bad magic)")
    return _Cursor(body, path, len(magic))


def read_trial(path: str | Path) -> Trial:
    """Parse and checksum-verify a trial file."""
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
    )


def trial_is_labeled(path: str | Path) -> bool:
    """Header-only query: does the file declare valid per-packet labels?"""
    with open(path, "rb") as fh:
        head = fh.read(10)
    if head[:4] != TRIAL_MAGIC or len(head) < 6:
        raise FormatError(f"{path}: not a trial file (bad magic)")
    return bool(head[5] & _FLAG_LABELED)


def _csi_column_names(dims: tuple[int, int, int], kind: str) -> list[str]:
    n_tx, n_rx, n_sc = dims
    return [
        f"{kind}_tx{t}_rx{r}_sc{s:02d}"
        for t in range(n_tx)
        for r in range(n_rx)
        for s in range(n_sc)
    ]


def feature_column_names(dims: tuple[int, int, int] = (2, 3, 30)) -> list[str]:
    """Column names matching the feature-row layout for the given dims."""
    n_rx = dims[1]
    rssi = [f"rssi_{chr(ord('a') + i)}" if i < 26 else f"rssi_{i}" for i in range(n_rx)]
    return (
        ["time_diff", "noise", "agc"]
        + rssi
        + _csi_column_names(dims, "mag")
        + _csi_column_names(dims, "phase")
    )


def export_feature_csv(frame: FeatureFrame, path: str | Path, dims: tuple[int, int, int] = (2, 3, 30)) -> None:
    """One row per packet, 9-significant-digit decimals, label as last column."""
    t, f = frame.matrix.shape
    names = feature_column_names(dims)
    if len(names) != f:
        names = [f"f{i:03d}" for i in range(f)]  # dims do not describe this width
    rows = (row + [label] for row, label in zip(frame.matrix.tolist(), frame.labels.tolist()))
    write_csv(path, names + ["label"], ",".join(["%.9g"] * f + ["%d"]), rows)


def _parse_feature_row(cells: list[str]) -> tuple[list[float], int]:
    return [float(v) for v in cells[:-1]], int(cells[-1])


def import_feature_csv(path: str | Path) -> FeatureFrame:
    """Parse a feature CSV back into a frame.

    The file does not record whether the scaler ran; pipeline CSVs are always
    scaled, so the frame comes back marked as scaled.
    """
    _, rows = _read_csv(path, "feature CSV", _parse_feature_row)
    return FeatureFrame(
        matrix=np.asarray([values for values, _ in rows], dtype=np.float64),
        labels=np.asarray([label for _, label in rows], dtype=np.int64),
        scaler_applied=True,
    )


def write_predictions(trace: PredictionTrace, path: str | Path) -> None:
    """Columns: packet_index, one per fold, ensembled, smoothed, true.
    The true column is left empty when no ground truth exists."""
    folds, t = trace.per_fold.shape
    header = (
        ["packet_index"]
        + [f"fold_{k}" for k in range(folds)]
        + ["ensembled", "smoothed", "true"]
    )
    columns = [np.arange(t), *trace.per_fold, trace.ensembled, trace.smoothed]
    if trace.true_labels is not None:
        columns.append(trace.true_labels)
    row_format = ",".join(["%d"] * len(columns)) + ("," if trace.true_labels is None else "")
    write_csv(path, header, row_format, np.column_stack(columns).tolist())


def _prediction_header_ok(header: list[str]) -> bool:
    fold_cols = [h for h in header if h.startswith("fold_")]
    return bool(fold_cols) and header == ["packet_index"] + fold_cols + ["ensembled", "smoothed", "true"]


def _int64(cell: str) -> int:
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{cell} is outside the int64 range")
    return value


def _parse_prediction_row(cells: list[str]) -> list[int | None]:
    return [_int64(c) for c in cells[:-1]] + [_int64(cells[-1]) if cells[-1] else None]


def read_predictions(path: str | Path) -> PredictionTrace:
    """Inverse of :func:`write_predictions`; trial id comes from the filename."""
    header, rows = _read_csv(path, "prediction CSV", _parse_prediction_row, _prediction_header_ok)
    folds = len(header) - 4
    true_cells = [row.pop() for row in rows]
    if all(c is None for c in true_cells):
        true_labels = None
    elif any(c is None for c in true_cells):
        raise FormatError(f"{path}: true column is only partially filled")
    else:
        true_labels = np.asarray(true_cells, dtype=np.int64)
    columns = np.ascontiguousarray(np.asarray(rows, dtype=np.int64).T)
    return PredictionTrace(
        trial_id=Path(path).stem,
        per_fold=columns[1 : 1 + folds],
        ensembled=columns[1 + folds],
        smoothed=columns[2 + folds],
        true_labels=true_labels,
    )


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
    version: int = 1

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "dims": list(self.dims),
            "seed": self.seed,
            "profiles_sha256": self.profiles_sha256,
            "trials": [
                {
                    "path": e.path,
                    "pair_id": e.pair_id,
                    "trial_id": e.trial_id,
                    "class_name": e.class_name,
                    "length": e.length,
                }
                for e in self.entries
            ],
        }


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    _atomic_write_text(path, json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate a manifest; every referenced trial file must exist."""
    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if d.get("version") != 1:
        raise VersionError(f"{path}: unsupported manifest version {d.get('version')!r}")
    try:
        manifest = Manifest(
            dims=tuple(int(v) for v in d["dims"]),  # type: ignore[arg-type]
            seed=int(d["seed"]),
            profiles_sha256=str(d["profiles_sha256"]),
            entries=[
                ManifestEntry(
                    path=e["path"],
                    pair_id=e["pair_id"],
                    trial_id=e["trial_id"],
                    class_name=e["class_name"],
                    length=int(e["length"]),
                )
                for e in d.get("trials", [])
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad manifest file: {exc!r}") from exc
    for e in manifest.entries:
        if not (path.parent / e.path).exists():
            raise FormatError(f"{path}: referenced trial file missing: {e.path}")
    if len(manifest.dims) != 3:
        raise FormatError(f"{path}: dims must have three entries")
    return manifest


def save_scaler(params: RobustScalerParams, path: str | Path) -> None:
    _atomic_write_text(path, json.dumps(params.to_dict(), sort_keys=True) + "\n")


def load_scaler(path: str | Path) -> RobustScalerParams:
    try:
        return RobustScalerParams.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (json.JSONDecodeError, KeyError, DomainError) as exc:
        raise FormatError(f"{path}: bad scaler params file: {exc}") from exc


def save_split(spec: SplitSpec, path: str | Path) -> None:
    _atomic_write_text(path, json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")


def load_split(path: str | Path) -> SplitSpec:
    try:
        return SplitSpec.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (json.JSONDecodeError, KeyError, DomainError) as exc:
        raise FormatError(f"{path}: bad split spec file: {exc}") from exc
