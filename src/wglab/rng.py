"""Reproducible counter-based random streams.

Streams are keyed by (seed, stream_id) on a Philox counter-based generator,
so distinct stream ids give statistically independent sequences and a fixed
key reproduces the same sequence on every run.  Worker substreams are derived
by shifting the stream id, which leaves the parent stream's values untouched
no matter how many workers are used.  Both the parent stream id and the
worker index must fit in 32 bits, so that no two (parent, worker) pairs share
a substream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_LIMIT32 = 1 << 32


@dataclass(frozen=True)
class RngState:
    """Key for one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, worker: int) -> "RngState":
        """Stream for the given worker index; disjoint across workers."""
        if not 0 <= self.stream_id < _LIMIT32:
            raise InvalidParameterError(
                f"substreams need a stream id in [0, 2**32), got {self.stream_id}")
        if not 0 <= worker < _LIMIT32:
            raise InvalidParameterError(
                f"worker index must be in [0, 2**32), got {worker}")
        return RngState(self.seed, (self.stream_id << 32) + worker)
