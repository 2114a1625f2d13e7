"""Built-in toy datasets plus an IDX reader for external digit corpora.

sprites: 12x12 binary images of axis-aligned bars and crosses, flattened to
rows of 144. grid2d: mixture of 25 unit-weight Gaussians on a 5x5 grid.
rings: concentric annuli. All generators are pure functions of the seed.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
import zlib

import numpy as np

from .errors import ContractError, ParseError
from .rng import RngStream

SPRITE_SIDE = 12

GRID2D_SPACING = 2.0
GRID2D_STD = 0.1

RING_RADII = (1.0, 2.0)
RING_STD = 0.05


def make_sprites(n: int, rng: RngStream) -> np.ndarray:
    """n binary bar/cross images, shape (n, 144), values in {0, 1}."""
    kinds = rng.integers(0, 3, (n,))          # 0 h-bar, 1 v-bar, 2 cross
    rows = rng.integers(0, SPRITE_SIDE, (n,))
    cols = rng.integers(0, SPRITE_SIDE, (n,))
    out = np.zeros((n, SPRITE_SIDE, SPRITE_SIDE))
    h, v = np.flatnonzero(kinds != 1), np.flatnonzero(kinds != 0)
    out[h, rows[h], :] = 1.0
    out[v, :, cols[v]] = 1.0
    return out.reshape(n, SPRITE_SIDE * SPRITE_SIDE)


def grid2d_means() -> np.ndarray:
    """The 25 component means, row-major over the 5x5 grid."""
    ticks = (np.arange(5) - 2) * GRID2D_SPACING
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def make_grid2d(n: int, rng: RngStream) -> np.ndarray:
    means = grid2d_means()
    comps = rng.integers(0, len(means), (n,))
    return means[comps] + GRID2D_STD * rng.normal((n, 2))


def make_rings(n: int, rng: RngStream) -> np.ndarray:
    radii = np.asarray(RING_RADII)
    which = rng.integers(0, len(radii), (n,))
    r = radii[which] + RING_STD * rng.normal((n,))
    theta = 2.0 * np.pi * rng.uniform((n,))
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


GENERATORS = {
    "sprites": make_sprites,
    "grid2d": make_grid2d,
    "rings": make_rings,
}


def dataset_generate(kind: str, n: int, seed: int) -> np.ndarray:
    if kind not in GENERATORS:
        raise ContractError(
            f"unknown dataset kind {kind!r}; have {sorted(GENERATORS)}")
    if n < 1:
        raise ContractError("dataset size must be positive")
    return GENERATORS[kind](n, RngStream(seed).child(kind))


def array_digest(arr: np.ndarray) -> str:
    """Content hash covering dtype, shape, and bytes."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# IDX ingestion (big-endian: 0x00 0x00 <type> <ndims>, then u32 extents).

_IDX_UBYTE = 0x08


def load_idx(path: str) -> np.ndarray:
    """Read an unsigned-byte IDX file, scaled to [0, 1]. A file starting
    with the gzip magic 1f 8b is decompressed first, whatever its name."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as e:
            raise ParseError(f"corrupt gzip stream in {path!r}: {e}") from e
    if len(raw) < 4:
        raise ParseError(f"truncated header: {len(raw)} bytes, need 4")
    zero, zero2, dtype, ndims = struct.unpack(">BBBB", raw[:4])
    if zero != 0 or zero2 != 0:
        raise ParseError(
            f"bad magic at offset 0: expected 00 00, found "
            f"{zero:02x} {zero2:02x}")
    if dtype != _IDX_UBYTE:
        raise ParseError(
            f"unsupported type code {dtype:#04x} at offset 2; "
            f"only unsigned byte ({_IDX_UBYTE:#04x}) is handled")
    header_end = 4 + 4 * ndims
    if len(raw) < header_end:
        raise ParseError(
            f"truncated dimension table at offset {len(raw)}, "
            f"need {header_end} bytes")
    dims = struct.unpack(f">{ndims}I", raw[4:header_end])
    count = int(np.prod(dims)) if dims else 1
    payload = raw[header_end:]
    if len(payload) != count:
        raise ParseError(
            f"payload is {len(payload)} bytes at offset {header_end}, "
            f"dimensions {dims} require {count}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    return data.astype(np.float64) / 255.0
