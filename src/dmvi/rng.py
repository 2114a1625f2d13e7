"""Counter-based random streams.

Every draw sets the stream's one Philox generator to the state of
``Philox(key=seed)`` advanced by ``counter << 64``, so a stream's output is
a pure function of those two integers: replaying a run, or deriving a
labelled child stream, cannot depend on call order elsewhere in the program.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ContractError


_SEED_SEQUENCE = np.random.SeedSequence(0)
_INDEX_MAX = np.iinfo(np.intp).max


def check_shape(shape) -> None:
    """Refuse, as a ContractError, an array of ``shape`` (a count or a tuple
    of them) with 8-byte entries that numpy could not index: one extent, or
    the bytes of all of them, past the index range. A zero extent counts as
    1, so that every extent is checked."""
    dims = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    if math.prod(max(int(n), 1) for n in dims) * 8 > _INDEX_MAX:
        raise ContractError(f"shape {dims} is past numpy's index range: no "
                            f"array can hold it")


def _derive_key(seed: int, label: str) -> int:
    h = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Deterministic stream of draws keyed by (seed, counter)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        self.counter = 0
        self._bits = None   # built at the first draw; many streams make none

    def _next(self) -> np.random.Generator:
        if self._bits is None:
            # Built from a fixed SeedSequence, then keyed through the state:
            # Philox(key=seed) would also build a SeedSequence() from OS
            # entropy, and throw it away.
            self._bits = np.random.Philox(_SEED_SEQUENCE)
            self._gen = np.random.Generator(self._bits)
            # Key [seed, 0], counter 0, an empty buffer, no cached uint32:
            # the state of Philox(key=seed). Draw i sets counter word 1 to
            # i: its own 2**64-block window, so one call can consume ~2**66
            # doubles without touching the next.
            self._state = self._bits.state
            self._state["state"]["key"][:] = (self.seed, 0)
        self._state["state"]["counter"][1] = self.counter
        self._bits.state = self._state
        self.counter += 1
        return self._gen

    # numpy refuses a shape past its index range with a plain ValueError. A
    # draw checks its shape only then, so that one that succeeds pays
    # nothing for the check, and re-raises any other ValueError as it is.

    def normal(self, shape=()) -> np.ndarray:
        try:
            return self._next().standard_normal(shape)
        except ValueError:
            check_shape(shape)
            raise

    def uniform(self, shape=()) -> np.ndarray:
        try:
            return self._next().random(shape)
        except ValueError:
            check_shape(shape)
            raise

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        try:
            return self._next().integers(low, high, size=shape)
        except ValueError:
            check_shape(shape)
            raise

    def permutation(self, n: int) -> np.ndarray:
        return self._next().permutation(n)

    def child(self, label: str) -> "RngStream":
        """Independent stream derived from this stream's seed and a label.

        Derivation uses only the seed, never the counter, so the same label
        always yields the same child regardless of how much the parent has
        already drawn.
        """
        return RngStream(_derive_key(self.seed, label))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, counter={self.counter})"
