"""Monte Carlo estimation of the Wishart-vs-GOE total variation distance.

Both estimators target the same integral through the density-ratio
representation.  Sampling from the GOE side, the per-draw integrand is 1 for
a non-PSD draw (where the Wishart density vanishes) and (1 - e^alpha)_+
otherwise; sampling from the Wishart side it is (1 - e^{-alpha})_+.  Each
integrand value lies in [0, 1], so a normal-approximation confidence interval
is well behaved.

Each draw is a tridiagonal matrix with the exact spectral law of its
ensemble, and alpha with the Q-window and PSD flags comes from O(n)
recurrences on it, so a draw costs O(n): no dense matrix is formed and no
eigenvalue is computed.

The GOE law is invariant under G -> -G, and the signs of the off-diagonals
do not change the spectrum, so a GOE-side draw (dev, off2) and its mirror
(-dev, off2) have the same law.  The GOE-side estimator evaluates each draw
twice, as drawn and mirrored: antithetic variates (Hammersley and Morton
1956).  The limit exponent is linear in the odd power sums N1 and N3, so
the two integrands of a pair are negatively correlated, and the stderr is
taken over the pairs.  A block's draws and all their mirrors are
evaluated in one ``alpha_from_tridiagonal`` pass.  ``samples`` counts
alpha evaluations, mirrored ones included.  GOE-side blocks hold an even
number of evaluations, except the last block of an odd ``samples``,
which drops its last mirror and so holds one unpaired draw.  The Wishart
law has no such symmetry: there each draw is one evaluation.

A run of evaluations is cut into fixed-size blocks, each drawn from its own
substream into the thread's scratch memory.  Workers take contiguous
ranges of blocks and the per-block partial sums are merged in block order,
so the seed alone fixes every estimate: any worker count gives
bit-identical results.  The pool never starts more processes than there
are blocks or CPUs, and a run of one block starts none.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .densities import (AlphaBreakdown, alpha_from_tridiagonal,
                        breakdown_columns, breakdown_records)
from .ensembles import goe_tridiagonal, wishart_tridiagonal
from .errors import InvalidParameterError
from .rng import RngState
from .scratch import SCRATCH

GOE_SIDE = "goe_side"
WISHART_SIDE = "wishart_side"

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

# alpha evaluations times n per block (a GOE-side block draws half as many
# tridiagonals); a block's scratch peaks at about seven (n, size) float
# arrays, so this bounds it near 16 MB.  It also fixes the stream layout:
# block b of a run draws from substream b, so changing the budget moves the
# draws of every run longer than one block
_BATCH_BUDGET = 2 ** 18

# imported on first use, as a run of one process starts no pool
ProcessPoolExecutor = None


@dataclass(frozen=True)
class TvEstimate:
    """Monte Carlo estimate with a 99% normal-approximation interval."""

    mean: float
    stderr: float
    ci_lo: float
    ci_hi: float
    samples: int
    side: str
    seed: int
    n: int
    d: int
    frac_in_q: float
    frac_psd: float


def _check_params(n: int, d: int, samples: int) -> None:
    if n < 1 or d < n:
        raise InvalidParameterError(f"need 1 <= n <= d, got n={n}, d={d}")
    # alpha divides by d^2 in floating point
    if d * d > sys.float_info.max:
        raise InvalidParameterError(
            f"d = {d} is too large: d^2 overflows a float")
    if samples < 1:
        raise InvalidParameterError(f"need samples >= 1, got {samples}")


def _batch_size(n: int, side: str) -> int:
    """Alpha evaluations per block; a GOE-side block holds whole pairs."""
    size = max(1, min(65536, _BATCH_BUDGET // n))
    return size + size % 2 if side == GOE_SIDE else size


def _integrand(alpha: np.ndarray, side: str) -> np.ndarray:
    # (1 - e^x)_+ without overflow: zero whenever the exponent is >= 0
    if side == GOE_SIDE:
        return np.where(alpha < 0.0, -np.expm1(np.minimum(alpha, 0.0)), 0.0)
    return np.where(alpha > 0.0, -np.expm1(np.minimum(-alpha, 0.0)), 0.0)


def _block_count(n: int, samples: int, side: str) -> int:
    return -(-samples // _batch_size(n, side))


def _blocks(n, d, samples, rng, side, first, stop, empty=np.empty):
    """Yield, for each of blocks first..stop-1, the tridiagonal batch
    ``(dev, off2)`` it draws, in arrays made by ``empty(shape)``, and the
    ``(alpha, in_q, psd, integrand)`` arrays of its evaluations.

    A run of ``samples`` evaluations is cut into blocks of
    ``_batch_size(n, side)``, the last holding the rest; block b draws
    from ``rng.substream(b)`` whichever process draws it, so the draws
    depend on the seed alone.  A Wishart-side block of ``size``
    evaluations is ``size`` draws.  A GOE-side block is k = ceil(size / 2)
    draws, each evaluated mirrored: the k draws, then their k mirrors, of
    which an odd block drops the last.  So pair j is evaluations j and
    k + j.  A block's arrays from ``SCRATCH.take`` are freed as the next
    is drawn.
    """
    batch = _batch_size(n, side)
    mirrored = side == GOE_SIDE
    draw = goe_tridiagonal if mirrored else wishart_tridiagonal
    for b in range(first, stop):
        size = min(batch, samples - b * batch)
        gen = rng.substream(b).generator()
        with SCRATCH.frame():
            dev, off2 = draw(n, d, size - size // 2 if mirrored else size,
                             gen, empty)
            alpha, q, psd = (x[:size] for x in alpha_from_tridiagonal(
                dev, off2, n, d, mirrored))
            yield dev, off2, alpha, q, psd, _integrand(alpha, side)


def _block_stats(task):
    """Per-block partials of one task's range: (sum, sumsq) of the
    integrand values, (sum, sumsq) of the antithetic pair sums, and the Q
    and PSD counts."""
    parts = []
    for dev, _, _, q, psd, values in _blocks(*task, SCRATCH.take):
        # draw j pairs with evaluation k + j; no draw does on the Wishart side
        k = dev.shape[1]
        pairs = values[:values.size - k] + values[k:]
        parts.append((float(values.sum()), float((values * values).sum()),
                      float(pairs.sum()), float((pairs * pairs).sum()),
                      int(np.count_nonzero(q)), int(np.count_nonzero(psd))))
    return parts


def sample_variance(s: float, ss: float, count: int) -> float:
    """Unbiased variance of ``count`` values from their sum and sum of
    squares; 0 for fewer than two values."""
    if count < 2:
        return 0.0
    return max(ss - s * s / count, 0.0) / (count - 1)


def mc_summary(mean: float, stderr: float):
    """(mean, stderr, ci_lo, ci_hi) of a mean of values in [0, 1]: the 99%
    normal interval, clipped to [0, 1]."""
    return (mean, stderr, max(mean - Z99 * stderr, 0.0),
            min(mean + Z99 * stderr, 1.0))


def _stderr(s, ss, ps, pss, samples, side):
    """Standard error of the mean of N = ``samples`` integrand values v.

    On the Wishart side the values are independent: sqrt(var(v) / N).  On
    the GOE side the independent units are the P = floor(N / 2) antithetic
    pairs, with sums u = v + v', and, for odd N, one unpaired value:

        stderr = sqrt(P var(u) + (N mod 2) var(v)) / N.

    var is the sample variance over the pair sums or over all N values,
    taken as 0 for fewer than two of them, so N = 1 gives stderr 0.
    """
    if side == WISHART_SIDE:
        return math.sqrt(sample_variance(s, ss, samples) / samples)
    pairs, single = divmod(samples, 2)
    var = (pairs * sample_variance(ps, pss, pairs)
           + single * sample_variance(s, ss, samples))
    return math.sqrt(var) / samples


def _estimate(n, d, samples, rng, side, workers):
    _check_params(n, d, samples)
    if workers < 1:
        raise InvalidParameterError(f"need workers >= 1, got {workers}")
    blocks = _block_count(n, samples, side)
    procs = 1 if blocks == 1 else min(workers, blocks, os.cpu_count() or 1)
    # one contiguous range of blocks per process; the partials come back in
    # block order, so the merge does not depend on the split
    tasks = [(n, d, samples, rng, side, blocks * i // procs,
              blocks * (i + 1) // procs) for i in range(procs)]
    if procs > 1:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = [p for task in pool.map(_block_stats, tasks) for p in task]
    else:
        parts = _block_stats(tasks[0])
    s, ss, ps, pss, n_q, n_psd = (math.fsum(col) for col in zip(*parts))
    return TvEstimate(*mc_summary(s / samples,
                                  _stderr(s, ss, ps, pss, samples, side)),
                      samples=samples, side=side, seed=rng.seed, n=n, d=d,
                      frac_in_q=n_q / samples, frac_psd=n_psd / samples)


def tv_estimate_goe_side(n: int, d: int, samples: int, rng: RngState,
                         workers: int = 1) -> TvEstimate:
    """TV estimate from draws of the shifted-scaled GOE ensemble.

    ``samples`` alpha evaluations: each draw is evaluated as drawn and
    mirrored, in one pass per block, and the stderr is taken over the
    antithetic pairs; an odd ``samples`` drops the last mirror.
    """
    return _estimate(n, d, samples, rng, GOE_SIDE, workers)


def tv_estimate_wishart_side(n: int, d: int, samples: int, rng: RngState,
                             workers: int = 1) -> TvEstimate:
    """TV estimate from Wishart draws (always PSD)."""
    return _estimate(n, d, samples, rng, WISHART_SIDE, workers)


@dataclass(frozen=True)
class ProfileRecord:
    """Per-evaluation diagnostic: the alpha breakdown plus the TV integrand."""

    breakdown: AlphaBreakdown
    integrand: float


def tv_profile(n: int, d: int, samples: int, rng: RngState):
    """Iterator over the per-evaluation alpha breakdowns and integrands of
    GOE-side sampling.

    Takes the same evaluations of the same blocks as
    ``tv_estimate_goe_side``, mirrors included, in the same order, so
    there is one record per alpha evaluation and the integrands reproduce
    the estimator's mean; s0..s4 come from O(n) trace formulas on each
    draw and each mirror, with no eigenvalues.  The parameters are checked
    at once, and the records are made one block at a time as they are
    consumed, so memory stays bounded by one block.
    """
    groups = profile_columns(n, d, samples, rng)
    return (ProfileRecord(*rec) for alpha, terms, q, psd, values in groups
            for rec in zip(breakdown_records(alpha, terms, q, psd),
                           values.tolist()))


def profile_columns(n: int, d: int, samples: int, rng: RngState):
    """The evaluations of ``tv_profile`` as columns: an iterator over
    tuples ``(alpha, terms, in_q, psd, integrand)`` of arrays, with
    ``terms`` as returned by ``breakdown_columns``; per block, one tuple for
    the draws as drawn, then one for their mirrors.  The parameters are
    checked at once."""
    _check_params(n, d, samples)
    blocks = _blocks(n, d, samples, rng, GOE_SIDE, 0,
                     _block_count(n, samples, GOE_SIDE))
    return (group for block in blocks
            for group in _profile_groups(*block, n, d))


def _profile_groups(dev, off2, alpha, q, psd, values, n, d):
    k = dev.shape[1]
    m = alpha.size - k
    for tri, cols in (((dev, off2), slice(k)),
                      ((-dev[:, :m], off2[:, :m]), slice(k, None))):
        yield (alpha[cols], breakdown_columns(*tri, alpha[cols], n, d),
               q[cols], psd[cols], values[cols])
