"""Reproducible keyed random streams.

A stream is keyed by (seed, purpose, stream_id).  Its generator is SFC64,
seeded by numpy's SeedSequence with the seed as entropy and (purpose word,
stream id) as spawn key, so distinct keys give statistically independent
sequences and a fixed key reproduces the same sequence on every run.
Substreams, one per sample block of a Monte Carlo run, are derived by
shifting the stream id, which leaves the parent stream's values untouched
and gives every block its own key for free.  Both the parent stream id and
the substream index must fit in 32 bits, so that no two (parent, index)
pairs share a substream.  The seed must lie in [0, 2**64), so that no two
seeds share a stream.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError

_LIMIT64 = 1 << 64
_MASK64 = _LIMIT64 - 1
_LIMIT32 = 1 << 32

# what a stream is for, so that no two uses of one seed share a stream:
# tv and profile (whose integrands reproduce tv's mean), a sweep's points,
# clt, and limit Monte Carlo; a purpose's word in the spawn key is its index
PURPOSES = ("tv", "sweep", "clt", "limit")


@dataclass(frozen=True)
class RngState:
    """Key for one reproducible random stream."""

    seed: int
    stream_id: int = 0
    purpose: str = "tv"

    def __post_init__(self):
        if self.purpose not in PURPOSES:
            raise InvalidParameterError(f"unknown purpose {self.purpose!r}")
        if not 0 <= self.seed < _LIMIT64:
            raise InvalidParameterError(
                f"seed must be in [0, 2**64), got {self.seed}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (PURPOSES.index(self.purpose), self.stream_id & _MASK64)
        seq = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.SFC64(seq))

    def substream(self, index: int) -> "RngState":
        """Stream for the given substream index; disjoint across indices."""
        if not 0 <= self.stream_id < _LIMIT32:
            raise InvalidParameterError(
                f"substreams need a stream id in [0, 2**32), got {self.stream_id}")
        if not 0 <= index < _LIMIT32:
            raise InvalidParameterError(
                f"substream index must be in [0, 2**32), got {index}")
        return replace(self, stream_id=(self.stream_id << 32) + index)
