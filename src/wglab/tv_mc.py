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

A run of draws is cut into fixed-size blocks, each drawn from its own
substream.  Workers take contiguous ranges of blocks and the per-block
partial sums are merged in block order, so the seed alone fixes every
estimate: any worker count gives bit-identical results.  The pool never
starts more processes than there are blocks or CPUs.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densities import (AlphaBreakdown, alpha_from_tridiagonal,
                        breakdowns_from_tridiagonal)
from .ensembles import goe_tridiagonal, wishart_tridiagonal
from .errors import InvalidParameterError
from .rng import RngState

GOE_SIDE = "goe_side"
WISHART_SIDE = "wishart_side"

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

# draws times n per block; a block peaks at about ten (n, size) float arrays,
# so this bounds its memory near 20 MB.  It also fixes the stream layout:
# block b of a run draws from substream b, so changing the budget moves the
# draws of every run longer than one block
_BATCH_BUDGET = 2 ** 18


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
    if samples < 1:
        raise InvalidParameterError(f"need samples >= 1, got {samples}")


def _batch_size(n: int) -> int:
    return max(1, min(65536, _BATCH_BUDGET // n))


def _integrand(alpha: np.ndarray, side: str) -> np.ndarray:
    # (1 - e^x)_+ without overflow: zero whenever the exponent is >= 0
    if side == GOE_SIDE:
        return np.where(alpha < 0.0, -np.expm1(np.minimum(alpha, 0.0)), 0.0)
    return np.where(alpha > 0.0, -np.expm1(np.minimum(-alpha, 0.0)), 0.0)


def _block_count(n: int, samples: int) -> int:
    return -(-samples // _batch_size(n))


def _draw_blocks(n, d, samples, rng, side, first, stop):
    """Yield the tridiagonal batch ``(dev, off2)`` of blocks first..stop-1.

    A run of ``samples`` draws is cut into blocks of ``_batch_size(n)``
    draws, the last holding the rest; block b draws from ``rng.substream(b)``
    whichever process draws it, so the draws depend on the seed alone.
    """
    sample = goe_tridiagonal if side == GOE_SIDE else wishart_tridiagonal
    batch = _batch_size(n)
    for b in range(first, stop):
        size = min(batch, samples - b * batch)
        yield sample(n, d, size, rng.substream(b).generator())


def _block_stats(task):
    """(sum, sumsq, n_q, n_psd) of the integrand values of each block of one
    task's range."""
    n, d, samples, rng, side, first, stop = task
    parts = []
    for dev, off2 in _draw_blocks(n, d, samples, rng, side, first, stop):
        alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, d)
        values = _integrand(alpha, side)
        parts.append((float(values.sum()), float((values * values).sum()),
                      int(np.count_nonzero(q)), int(np.count_nonzero(psd))))
    return parts


def mc_summary(s: float, ss: float, count: int):
    """(mean, stderr, ci_lo, ci_hi) of ``count`` values in [0, 1] from their
    sum and sum of squares; the 99% interval is clipped to [0, 1]."""
    mean = s / count
    if count > 1:
        var = max(ss - s * s / count, 0.0) / (count - 1)
        stderr = math.sqrt(var / count)
    else:
        stderr = 0.0
    return (mean, stderr, max(mean - Z99 * stderr, 0.0),
            min(mean + Z99 * stderr, 1.0))


def _estimate(n, d, samples, rng, side, workers):
    _check_params(n, d, samples)
    if workers < 1:
        raise InvalidParameterError(f"need workers >= 1, got {workers}")
    blocks = _block_count(n, samples)
    procs = min(workers, blocks, os.cpu_count() or 1)
    # one contiguous range of blocks per process; the partials come back in
    # block order, so the merge does not depend on the split
    tasks = [(n, d, samples, rng, side, blocks * i // procs,
              blocks * (i + 1) // procs) for i in range(procs)]
    if procs > 1:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = [p for task in pool.map(_block_stats, tasks) for p in task]
    else:
        parts = _block_stats(tasks[0])
    s, ss, n_q, n_psd = (math.fsum(col) for col in zip(*parts))
    return TvEstimate(*mc_summary(s, ss, samples), samples=samples, side=side,
                      seed=rng.seed, n=n, d=d, frac_in_q=n_q / samples,
                      frac_psd=n_psd / samples)


def tv_estimate_goe_side(n: int, d: int, samples: int, rng: RngState,
                         workers: int = 1) -> TvEstimate:
    """TV estimate from draws of the shifted-scaled GOE ensemble."""
    return _estimate(n, d, samples, rng, GOE_SIDE, workers)


def tv_estimate_wishart_side(n: int, d: int, samples: int, rng: RngState,
                             workers: int = 1) -> TvEstimate:
    """TV estimate from Wishart draws (always PSD)."""
    return _estimate(n, d, samples, rng, WISHART_SIDE, workers)


@dataclass(frozen=True)
class ProfileRecord:
    """Per-draw diagnostic: the alpha breakdown plus the TV integrand."""

    breakdown: AlphaBreakdown
    integrand: float


def tv_profile(n: int, d: int, samples: int, rng: RngState):
    """Iterator over the per-draw alpha breakdowns and integrands of
    GOE-side sampling.

    Draws the same blocks as ``tv_estimate_goe_side`` and takes the same
    batch alpha, so the integrands reproduce the estimator's mean; s0..s4
    come from O(n) trace formulas on each draw, with no eigenvalues.  The
    parameters are checked at once, and the records are made one block at
    a time as they are consumed, so memory stays bounded by one block.
    """
    _check_params(n, d, samples)
    blocks = _draw_blocks(n, d, samples, rng, GOE_SIDE, 0,
                          _block_count(n, samples))
    return (rec for dev, off2 in blocks
            for rec in _profile_block(dev, off2, n, d))


def _profile_block(dev, off2, n, d):
    flags = alpha_from_tridiagonal(dev, off2, n, d)
    return map(ProfileRecord,
               breakdowns_from_tridiagonal(dev, off2, *flags, n, d),
               _integrand(flags[0], GOE_SIDE).tolist())
