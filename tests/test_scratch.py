import platform
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import wglab.densities as densities
import wglab.tv_mc as tv_mc
from wglab import RngState, tv_estimate_goe_side
from wglab.ensembles import goe_tridiagonal, wishart_tridiagonal
from wglab.scratch import SCRATCH, Scratch


def test_frames_reuse_the_buffer_once_it_has_grown():
    s = Scratch()
    with s.frame() as take:
        first = take((3, 5))
        # too big for the empty buffer: an array of its own
        assert first.shape == (3, 5) and not np.shares_memory(first, s.buf)
        with s.frame() as take:
            take((7,), bool)
        assert s.top == 128
    # the outermost frame grows the buffer to the most bytes taken at once
    assert s.top == 0 and s.buf.size == 192
    with s.frame() as take:
        a = take((3, 5))
        with s.frame() as take:
            b = take((7,), bool)
        c = take((2,))
    assert all(np.shares_memory(x, s.buf) for x in (a, b, c))
    assert not np.shares_memory(a, b) and np.shares_memory(b, c)
    assert a.flags.c_contiguous and b.dtype == bool
    # a frame left by an exception still frees what it took
    with pytest.raises(ZeroDivisionError), s.frame() as take:
        take((4,))
        1 / 0
    assert s.top == 0


@pytest.mark.parametrize("sampler", [goe_tridiagonal, wishart_tridiagonal])
def test_samplers_fill_the_given_arrays(sampler):
    s = Scratch()
    # the GOE-side draw takes no d
    args = (8, 33) if sampler is goe_tridiagonal else (8, 512, 33)
    for _ in range(2):
        with s.frame() as take:
            dev, off2 = sampler(*args, RngState(3).generator(), take)
            fresh = sampler(*args, RngState(3).generator())
            np.testing.assert_array_equal(dev, fresh[0])
            np.testing.assert_array_equal(off2, fresh[1])
    assert np.shares_memory(dev, s.buf) and np.shares_memory(off2, s.buf)


def test_alpha_reuses_scratch_exactly(monkeypatch):
    # calls at other (n, width, mirrored) in between reuse the buffer; each
    # result is what a call with a fresh buffer gives, in arrays of its own
    cases = [(32, 32 ** 3, 4096, True), (3, 3, 5, False),
             (32, 32 ** 3, 1808, True), (8, 64, 301, True)]
    batches = [goe_tridiagonal(n, k, RngState(70 + n, k).generator())
               for n, _, k, _ in cases]
    with monkeypatch.context() as m:
        refs = []
        for (n, d, _, mirrored), batch in zip(cases, batches):
            m.setattr(densities, "SCRATCH", Scratch())
            refs.append(densities.alpha_from_tridiagonal(*batch, n, [d],
                                                         mirrored))
    for _ in range(2):
        for (n, d, _, mirrored), batch, ref in zip(cases, batches, refs):
            got = densities.alpha_from_tridiagonal(*batch, n, [d], mirrored)
            for x, y in zip(got, ref):
                assert x.tobytes() == y.tobytes()
                assert not np.shares_memory(x, SCRATCH.buf)
    assert SCRATCH.top == 0 and SCRATCH.buf.size > 0


def test_profile_groups_survive_estimates_in_between(monkeypatch):
    # the profiler reads a block's draws again after yielding its first
    # group; estimates made in between must not disturb them
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 8 * 1000)
    args = (8, 512, 3001, RngState(19))
    ref = list(tv_mc.profile_columns(*args))
    got = []
    for i, group in enumerate(tv_mc.profile_columns(*args)):
        tv_estimate_goe_side(16, 4096 + i, 20001, RngState(i))
        got.append(group)
    assert len(got) == len(ref) == 8
    for g, r in zip(got, ref):
        assert flat(g) == flat(r)


def test_first_call_holds_no_block_twice(monkeypatch):
    # the buffer grows as the first block's frame is left; the estimator
    # holds none of that block's own arrays then, so the first call's
    # peak is about one block's memory, not that and the grown buffer
    ref = tv_estimate_goe_side(32, 32768, 20000, RngState(5))
    s = Scratch()
    monkeypatch.setattr(tv_mc, "SCRATCH", s)
    monkeypatch.setattr(densities, "SCRATCH", s)
    tracemalloc.start()
    try:
        got = tv_estimate_goe_side(32, 32768, 20000, RngState(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref and s.top == 0
    assert peak <= 1.25 * s.buf.nbytes


def flat(group):
    """The bytes of a profile group's arrays and of its float s0."""
    alpha, terms, *flags = group
    return [np.asarray(x).tobytes() for x in (alpha, *terms, *flags)]


# two estimates in one fresh interpreter, so that no earlier test has set
# the allocator's thresholds; prints the minor faults of the second
_REPEAT_RUN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from wglab import RngState, tv_estimate_goe_side
args = (32, 32768, 20000, RngState(5))
tv_estimate_goe_side(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tv_estimate_goe_side(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts are those of Linux and glibc")
def test_repeat_estimate_reuses_its_memory():
    # a call's three 4,096-draw blocks fault in about 9 MB (some 2,000
    # faults) when each allocates its own temporaries, which glibc hands
    # back to the system between blocks; repeated, they reuse the scratch
    src = str(Path(densities.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _REPEAT_RUN, src],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert int(proc.stdout.split()[-1]) < 200


def test_threads_get_scratch_of_their_own():
    # more threads than cores, each estimating while the others do; a
    # buffer shared between them would mix their blocks
    cases = [(8, 512 + i, 40001, RngState(i)) for i in range(6)]
    refs = [tv_estimate_goe_side(*c) for c in cases]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda c: tv_estimate_goe_side(*c),
                                cases * 3))
    finally:
        sys.setswitchinterval(switch)
    assert got == refs * 3
