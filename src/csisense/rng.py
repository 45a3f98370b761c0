"""Deterministic counter-based random numbers for trial synthesis.

Trial files must be byte-identical across platforms and across process/thread
layouts, so the simulator does not use a stateful library generator.  Instead
every stream is a keyed counter generator in the splitmix64 family:

    output(i) = finalize((key + (i + 1) * GAMMA) mod 2**64)

where ``finalize`` is the splitmix64 avalanche function and GAMMA is the 64-bit
golden-ratio increment.  Draw *i* depends only on (key, i), so a stream can be
consumed in any order or in parallel and still produce the same values.

Keys are derived by folding an arbitrary mix of integers and strings through
the same finalizer (see :func:`derive_key`), which gives every (seed, pair,
class, trial) combination an independent stream.  Gaussians come from the
Box-Muller transform on pairs of uniforms, again a portable closed form.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    # Same avalanche as _finalize, on uint64 arrays (wrapping multiplies).
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_key(*parts: int | str) -> int:
    """Fold seed material (ints and/or strings) into a 64-bit stream key.

    Each part is mixed as ``key = finalize(key ^ finalize(chunk + index*GAMMA))``
    with strings folded 8 utf-8 bytes at a time, so distinct part tuples give
    independent keys and ("a", "b") differs from ("ab",).
    """
    key = _GAMMA
    index = 0
    for part in parts:
        if isinstance(part, str):
            chunks = part.encode("utf-8")
            ints = [int.from_bytes(chunks[i : i + 8], "little") for i in range(0, len(chunks), 8)]
            ints.append(len(chunks))  # length tag guards against chunk-boundary collisions
        elif isinstance(part, (int, np.integer)):
            ints = [int(part) & _MASK]
        else:
            raise TypeError(f"cannot fold {type(part).__name__} into an rng key")
        for value in ints:
            key = _finalize(key ^ _finalize((value + index * _GAMMA) & _MASK))
            index += 1
    return key


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Normals from uniforms u1 in (0, 1] and u2 in [0, 1) of equal shape:
    the cosine branch, then the sine branch, joined along the last axis."""
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


class CounterRng:
    """Keyed counter generator; all draws are pure functions of (key, counter)."""

    def __init__(self, *key_parts: int | str):
        self.key = derive_key(*key_parts)
        self._counter = 0
        self._spare_normal: float | None = None

    def spawn(self, *key_parts: int | str) -> "CounterRng":
        """Child stream whose key mixes this stream's key with extra parts."""
        return CounterRng(self.key, *key_parts)

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws as a uint64 array."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.key) + idx * np.uint64(_GAMMA)
        return _finalize_array(z)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) at 53-bit resolution."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_open(self, n: int) -> np.ndarray:
        """``n`` uniforms in (0, 1]; safe as a log() argument."""
        return ((self.u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normal(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Standard normals via Box-Muller; scalar when shape is ()."""
        if shape == ():
            if self._spare_normal is not None:
                z, self._spare_normal = self._spare_normal, None
                return z
            pair = self.normal(2)
            self._spare_normal = float(pair[1])
            return float(pair[0])
        shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape_t)) if shape_t else 1
        half = (n + 1) // 2
        z = _box_muller(self.uniform_open(half), self.uniform(half))[:n]
        return z.reshape(shape_t)

    def complex_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Circularly-symmetric complex normals, unit variance per component."""
        shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
        re = self.normal(shape_t)
        im = self.normal(shape_t)
        return re + 1j * im

    def complex_normal_rows(self, rows: int, shape: tuple[int, ...]) -> np.ndarray:
        """``rows`` stacked :meth:`complex_normal` draws of ``shape`` from one
        block of raw draws; bit-identical to that many sequential calls."""
        n = int(np.prod(shape))
        half = (n + 1) // 2
        # per row, in counter order: real part (u1, u2), then imaginary part
        # (u1, u2); adding 2**-53 to a uniform gives uniform_open's value exactly
        u = self.uniform(rows * 4 * half).reshape(rows, 2, 2, half)
        z = _box_muller(u[:, :, 0] + 2.0**-53, u[:, :, 1])[..., :n]
        re = z[:, 0].reshape(rows, *shape)
        im = z[:, 1].reshape(rows, *shape)
        return re + 1j * im

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle returning a new list; input untouched."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.uniform(1)[0] * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out
