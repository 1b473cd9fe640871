"""Reproducible counter-based random streams.

Streams are keyed by (seed, stream_id) on a Philox counter-based generator,
so distinct stream ids give statistically independent sequences and a fixed
key reproduces the same sequence on every run.  Substreams, one per sample
block of a Monte Carlo run, are derived by shifting the stream id, which
leaves the parent stream's values untouched and gives every block its own
key for free.  Both the parent stream id and the substream index must fit
in 32 bits, so that no two (parent, index) pairs share a substream.
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

    def substream(self, index: int) -> "RngState":
        """Stream for the given substream index; disjoint across indices."""
        if not 0 <= self.stream_id < _LIMIT32:
            raise InvalidParameterError(
                f"substreams need a stream id in [0, 2**32), got {self.stream_id}")
        if not 0 <= index < _LIMIT32:
            raise InvalidParameterError(
                f"substream index must be in [0, 2**32), got {index}")
        return RngState(self.seed, (self.stream_id << 32) + index)
