"""Per-thread scratch memory, which the Monte Carlo blocks run in a thread
reuse instead of faulting in fresh pages for each block."""

import math
import threading
from contextlib import contextmanager

import numpy as np


class Scratch(threading.local):
    """A grow-only buffer lent out in stack order, one per thread.

    Inside ``with scratch.frame() as take:``, ``take(shape, dtype)`` returns
    the next free bytes of the buffer as an uninitialised array, or a new
    array while the buffer is too small; leaving the frame frees them.
    Leaving the outermost frame grows the buffer to the most bytes that were
    taken at once.  A taken array must not outlive its frame, so none is
    returned to a caller.  A caller drops the arrays it took, fresh ones
    included, before the outermost frame is left: the buffer grows there,
    and a fresh array still held then is counted twice in the peak memory.
    """

    def __init__(self):
        self.buf, self.top, self.want = np.empty(0, np.uint8), 0, 0

    @contextmanager
    def frame(self):
        mark = self.top
        try:
            yield self.take
        finally:
            self.top = mark
            if mark == 0 and self.want > self.buf.size:
                self.buf = np.empty(self.want, np.uint8)

    def take(self, shape, dtype=float):
        size = math.prod(shape) * np.dtype(dtype).itemsize
        start, self.top = self.top, self.top + -(-size // 64) * 64
        self.want = max(self.want, self.top)
        if self.top > self.buf.size:
            return np.empty(shape, dtype)
        return self.buf[start:start + size].view(dtype).reshape(shape)


SCRATCH = Scratch()
