"""Weight bundles: one trained fold's parameters, architecture, and scaler.

Little-endian binary with a JSON metadata block, sorted named float32 arrays,
and a trailing CRC32; save -> load -> save reproduces the bytes exactly.  Each
bundle embeds the robust-scaler parameters it was trained behind, so a bundle
is sufficient to classify raw trials on its own.  See FORMATS.md.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataio import decode_json, read_checked, write_checked
from .errors import DomainError, FormatError, VersionError
from .features import RobustScalerParams
from .model import ArchConfig, SequenceClassifier

WEIGHTS_MAGIC = b"CSWB"
WEIGHTS_VERSION = 1
_SCALER_KEYS = ("scaler/median", "scaler/iqr", "scaler/degenerate")


@dataclass
class ModelWeights:
    arrays: dict[str, np.ndarray]  # float32, keyed by layer/parameter path
    arch: ArchConfig
    fold_id: int
    seed: int
    scaler: RobustScalerParams | None = None


def weights_from_model(
    model: SequenceClassifier,
    fold_id: int,
    seed: int,
    scaler: RobustScalerParams | None = None,
) -> ModelWeights:
    arrays = {k: np.ascontiguousarray(v, dtype="<f4") for k, v in model.params.items()}
    return ModelWeights(arrays=arrays, arch=model.arch, fold_id=fold_id, seed=seed, scaler=scaler)


def model_from_weights(w: ModelWeights) -> SequenceClassifier:
    """Rebuild the network for inference, its store holding the bundle's
    float32 parameters as they are, at half the resident bytes of a float64
    store.  It predicts in float32, reading each weight as stored.  It
    cannot train (a training forward raises DomainError).  No initial
    weights are drawn, since every one is overwritten."""
    model = SequenceClassifier(w.arch, seed=w.seed, init_weights=False, dtype=np.float32)
    model.set_params(w.arrays)
    return model


def save_weights(w: ModelWeights, path: str | Path) -> None:
    """Write a bundle via write-then-rename so readers never see a partial file."""
    for key in _SCALER_KEYS:
        if key in w.arrays:
            raise DomainError(f"array name {key} is reserved for the embedded scaler")
    meta = {
        "format_version": WEIGHTS_VERSION,
        "arch": asdict(w.arch),
        "fold_id": w.fold_id,
        "seed": w.seed,
        "has_scaler": w.scaler is not None,
    }
    arrays = dict(w.arrays)
    if w.scaler is not None:
        arrays["scaler/median"] = w.scaler.median.astype("<f4")
        arrays["scaler/iqr"] = w.scaler.iqr.astype("<f4")
        arrays["scaler/degenerate"] = w.scaler.degenerate.astype("<f4")

    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<B", WEIGHTS_VERSION)
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out += struct.pack("<I", len(meta_raw)) + meta_raw
    out += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        raw_name = name.encode("utf-8")
        out += struct.pack("<H", len(raw_name)) + raw_name
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.tobytes()
    write_checked(path, out)


def _read_meta(meta: dict) -> tuple[ArchConfig, int, int, bool]:
    return ArchConfig(**meta["arch"]), int(meta["fold_id"]), int(meta["seed"]), bool(meta.get("has_scaler"))


def load_weights(path: str | Path) -> ModelWeights:
    cur = read_checked(path, WEIGHTS_MAGIC, "weight bundle")
    (version,) = cur.unpack("<B")
    if version != WEIGHTS_VERSION:
        raise VersionError(f"{path}: weight bundle version {version} not supported")
    arch, fold_id, seed, has_scaler = decode_json(cur.text("<I"), path, "metadata block", _read_meta)
    (n_arrays,) = cur.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name = cur.text("<H")
        (ndim,) = cur.unpack("<B")
        shape = cur.unpack(f"<{ndim}I")
        arrays[name] = np.frombuffer(cur.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    if cur.offset != len(cur.body):
        raise FormatError(f"{path}: {len(cur.body) - cur.offset} unexpected trailing bytes")

    scaler = None
    if has_scaler:
        try:
            scaler = RobustScalerParams(
                median=arrays.pop("scaler/median").astype(np.float64),
                iqr=arrays.pop("scaler/iqr").astype(np.float64),
                degenerate=arrays.pop("scaler/degenerate") != 0.0,
            )
        except KeyError as exc:
            raise FormatError(f"{path}: metadata promises a scaler but arrays are missing") from exc
        except DomainError as exc:
            raise FormatError(f"{path}: bad scaler arrays: {exc}") from exc
    return ModelWeights(arrays=arrays, arch=arch, fold_id=fold_id, seed=seed, scaler=scaler)
