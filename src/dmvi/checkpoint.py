"""Binary checkpoints for model parameters.

Layout, all integers little-endian:

    magic       4 bytes  b"DMVI"
    version     u32
    config hash 32 bytes (sha256 of the resolved run config)
    count       u32      number of tensors
    per tensor: u16 name length, utf-8 name, u32 rank, u64 extents,
                float64 payload in C order
    digest      32 bytes sha256 of everything above

Round-trips are bitwise: loading returns exactly the arrays saved.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .errors import ParseError, ShapeError

MAGIC = b"DMVI"
VERSION = 1


def new_file(path: str, mode: str = "w"):
    """Open ``path`` for writing as a new file, making its directory.

    Any file already at ``path`` is unlinked first, never truncated: on ext4
    mounted with ``discard`` a truncate-and-rewrite stalls for tens of
    milliseconds, a fresh inode for well under one. A hard or symbolic link
    at ``path`` is therefore replaced, not written through.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode)


def save_checkpoint(path: str, tensors: dict, config_hash: bytes) -> None:
    """Write named float64 arrays; ``config_hash`` is padded to 32 bytes."""
    config_hash = bytes(config_hash)[:32].ljust(32, b"\0")
    # Every piece is ready before the file is touched, and each is written
    # and hashed where it lies: a payload is copied only if its array is not
    # C-contiguous.
    parts = [MAGIC + struct.pack("<I", VERSION) + config_hash
             + struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        # Rank and extents come from the original array; ascontiguousarray
        # would promote rank 0 to rank 1.
        parts.append(struct.pack("<H", len(encoded)) + encoded
                     + struct.pack("<I", arr.ndim)
                     + struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.ascontiguousarray(arr))
    digest = hashlib.sha256()
    with new_file(path, "wb") as f:
        for part in parts:
            f.write(part)
            digest.update(part)
        f.write(digest.digest())


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise ParseError(
                f"truncated checkpoint: need {n} bytes for {what} at "
                f"offset {self.pos}, file has {len(self.raw)}")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str, what: str) -> int:
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))[0]


def load_checkpoint(path: str):
    """Returns (tensors, config_hash). Verifies digest and version."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 32:
        raise ParseError(f"file too short for a checkpoint: {len(raw)} bytes")
    body, digest = raw[:-32], raw[-32:]
    actual = hashlib.sha256(body).digest()
    if digest != actual:
        raise ParseError(
            f"digest mismatch at offset {len(body)}: stored "
            f"{digest.hex()[:16]}…, computed {actual.hex()[:16]}…")
    r = _Reader(body)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise ParseError(
            f"bad magic at offset 0: expected {MAGIC!r}, found {magic!r}")
    version = r.u("<I", "version")
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}, "
                         f"expected {VERSION}")
    config_hash = r.take(32, "config hash")
    count = r.u("<I", "tensor count")
    tensors = {}
    for _ in range(count):
        name_len = r.u("<H", "name length")
        raw_name = r.take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"tensor name at offset {r.pos - name_len} is "
                             f"not UTF-8: {raw_name[:16]!r}") from e
        rank = r.u("<I", "rank")
        shape = tuple(
            struct.unpack(f"<{rank}Q", r.take(8 * rank, "extents")))
        size = int(np.prod(shape)) if shape else 1
        payload = r.take(8 * size, f"payload of {name}")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return tensors, config_hash


def apply_checkpoint(bundle, tensors: dict) -> None:
    """Copy saved arrays into a bundle's parameters, by name."""
    params = bundle.named_parameters()
    for name, param in params.items():
        if name not in tensors:
            raise ShapeError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != param.data.shape:
            raise ShapeError(
                f"tensor {name!r}: checkpoint shape {arr.shape} does not "
                f"match model shape {param.data.shape}")
        param.data[...] = arr
