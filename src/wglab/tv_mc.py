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

Each estimate is one least-squares regression over independent units: a
pair sum u = v + v' on the GOE side, one integrand value on the Wishart
side.  What is left of a pair sum is even under G -> -G, and its leading
terms are products of the odd power sums.  With p_k = tr X^k,
X = (T - dI) / sqrt(d), the even statistics p1^2, p2, p1 p3 and p3^2 of a
draw, which its mirror shares, have exact finite-n means
(``densities.power_sum_moments``), so they serve as m = 4 control
variates (Lavenberg and Welch 1981; Glasserman 2004, section 4.1): the
estimate is u-bar - beta . x-bar over the P units, with x those statistics
less their means and beta the least-squares coefficients of u on x, and
its stderr comes from the residuals, with P - 1 - m degrees of freedom.
At n = 32, c = 1 the pair variance falls about 4x.  The controls are
skewed, and a linear fit passes their skew on to the estimate, so they
are used only where the mean of each is nearly normal (``_SKEW_TOL``):
never below 3,200 pairs, and at small n only far above (at n = 4, from
about 40,000).  beta is fitted on the draws it corrects, which biases the
estimate by O(1 / P): 0.00 +- 0.04 stderr measured at n = 32 and 5,000
pairs.  Elsewhere, on the Wishart side, and at n = 1, where the controls
are collinear, m = 0: beta = [] and the estimate is the plain mean of the
units.  The unpaired draw of an odd ``samples`` enters uncontrolled.

A run of evaluations is cut into fixed-size blocks, each drawn from its own
substream into the thread's scratch memory.  Workers take contiguous
ranges of blocks and the per-block partial sums, the control variates'
cross-products among them, are merged in block order and beta is fitted
once after the merge, so the seed alone fixes every estimate: any worker
count gives bit-identical results.  The pool never starts more processes
than there are blocks or CPUs, and a run of one block starts none.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .densities import (AlphaBreakdown, alpha_from_tridiagonal,
                        breakdown_columns, breakdown_records,
                        power_sum_moments)
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
# the largest order an estimate accepts: past it one draw outgrows a block
MAX_N = _BATCH_BUDGET

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
    # plain over controlled variance of a GOE-side pair sum; 1 without control
    var_ratio: float


def _check_params(n: int, d: int, samples: int) -> None:
    if not 1 <= n <= min(d, MAX_N):
        raise InvalidParameterError(
            f"need 1 <= n <= d and n <= {MAX_N}, got n={n}, d={d}")
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
    ``(dev, off2)`` it draws, in arrays made by ``empty(shape)``, the
    ``(alpha, in_q, psd, integrand)`` arrays of its evaluations and, where
    m = 4 (``_controls``), a (6, k) array for the ``_unit_gram`` of its k
    draws, with their ``power_sums`` in rows 2 to 4 (None elsewhere).

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
    m = _controls(side, samples)
    draw = goe_tridiagonal if mirrored else wishart_tridiagonal
    for b in range(first, stop):
        size = min(batch, samples - b * batch)
        gen = rng.substream(b).generator()
        with SCRATCH.frame():
            dev, off2 = draw(n, d, size - size // 2 if mirrored else size,
                             gen, empty)
            rows = empty((m + 2, dev.shape[1])) if m else None
            alpha, q, psd = (x[:size] for x in alpha_from_tridiagonal(
                dev, off2, n, d, mirrored, rows[2:5] if m else None))
            yield dev, off2, alpha, q, psd, _integrand(alpha, side), rows


# The control variates are used only where the mean of each control is
# nearly normal: its skewness, the control's sample skewness over sqrt(P),
# at most this.  The controls are skewed: p1^2 is exactly 2n chi^2_1, of
# skewness sqrt(8), and p3^2 more so at small n (about 9 at n = 4, 3 at
# n = 32).  A linear fit passes that skew on to the estimate: at P = 1,000
# pairs and n = 4, one estimate in 10^4 fell 6 stderr from the truth, and
# at n = 16 its tails were still heavier than normal.
_SKEW_TOL = 0.05


def _controlled(samples: int) -> bool:
    """Whether a GOE-side run of ``samples`` evaluations collects the
    control variates' partial sums: p1^2 alone keeps a run of fewer than
    8 / _SKEW_TOL^2 = 3,200 pairs from passing the skewness test."""
    return samples // 2 >= 8 / _SKEW_TOL ** 2


def _controls(side: str, samples: int) -> int:
    """m, the number of controls: 4 on a GOE-side run where ``_controlled``."""
    return 4 if side == GOE_SIDE and _controlled(samples) else 0


def _block_stats(task):
    """Per-block partials of one task's range: (sum, sumsq) of the
    integrand values, the Q and PSD counts and the ``_unit_gram`` of the
    block's units."""
    n, d, _, _, side = task[:5]
    parts = []
    for dev, _, _, q, psd, values, rows in _blocks(*task, SCRATCH.take):
        # a GOE-side unit is the pair of draw j and evaluation k + j; a
        # Wishart-side unit is one value
        k = dev.shape[1] if side == GOE_SIDE else 0
        units = values[:values.size - k] + values[k:] if k else values
        parts.append((float(values.sum()), float((values * values).sum()),
                      int(np.count_nonzero(q)), int(np.count_nonzero(psd)),
                      *_unit_gram(units, rows, n, d)))
    return parts


def _unit_gram(units, rows, n, d):
    """Partial sums for the fit over a block's P units: sum z z^T, row by
    row, (m + 2)^2 floats, then sum x^3, m floats.  Where m = 4, ``rows``
    is the block's (6, k) array from ``_blocks``, whose first P columns
    become z, one column per unit; where m = 0 it is None.

    z = (1, u, x) for unit j has its value u and the four control
    statistics x of its draw j: with p_k = tr X^k, X = (T - dI) / sqrt(d),
    the even products p1^2, p2, p3^2 and p1 p3, less their exact means
    ``power_sum_moments(n)``.  A draw and its mirror share x.
    """
    if rows is None:
        # numpy's pairwise sums, which need no z and round less than einsum
        total = float(units.sum())
        return [float(units.size), total, total, float((units * units).sum())]
    z = rows[:, :units.size]
    z[0] = 1.0
    z[1] = units
    # p1, p2 and p3 of T - dI to those of X, then p1 p3 and the squares
    root = math.sqrt(d)
    z[2:5] *= np.array([[1.0 / root], [1.0 / d], [1.0 / (d * root)]])
    np.multiply(z[2], z[4], out=z[5])
    np.square(z[2:5:2], out=z[2:5:2])
    p1p1, p2, p1p3, p3p3 = power_sum_moments(n)
    z[2:] -= np.array([[p1p1], [p2], [p3p3], [p1p3]], float)
    # numpy's own loops: z @ z.T would fault in half a megabyte of BLAS
    # buffers in a process that made no BLAS call before
    x = z[2:]
    return (np.einsum("ij,kj->ik", z, z).ravel().tolist()
            + np.einsum("ij,ij,ij->i", x, x, x).tolist())


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


def _unit_fit(cv, m):
    """The regression of the P units on m controls from the merged
    ``_unit_gram`` partials ``cv``: (beta . sum x, the variance of one unit
    about the fit, the plain variance of a unit over that).

    The units u are regressed on the centered controls x (Lavenberg and
    Welch 1981): beta solves Cxx beta = Cxu on the centered
    cross-products, and the residual variance, (Cuu - beta . Cxu) /
    (P - 1 - m), has P - 1 - m degrees of freedom.  Gaussian elimination
    needs no pivoting, as Cxx is positive definite; its i-th pivot is the
    part of control i's variance that the ones before it leave
    unexplained.  Where a pivot is below 1e-10 of that variance the
    controls are collinear, as at n = 1, where p2 = p1^2 leaves a share of
    rounding size, 1e-16; the least measured at n >= 2 was 2e-7 (n = 2,
    7 pairs).  There, where P <= 1 + m and where the mean of a control is
    too skewed (``_SKEW_TOL``), the fit is the m = 0 one: beta = [], the
    sample variance of the units, and a ratio of 1.
    """
    size = m + 2
    gram = [cv[i * size:(i + 1) * size] for i in range(size)]
    units = gram[0][0]
    plain = 0.0, sample_variance(gram[0][1], gram[1][1], units), 1.0
    if not m or units <= 1 + m:
        return plain
    # rows [Cxx | Cxu] of the centered cross-products; G_0i is sum z_i
    rows = [[gram[i][j] - gram[0][i] * gram[0][j] / units
             for j in (*range(2, size), 1)] for i in range(2, size)]
    var = [rows[i][i] / units for i in range(m)]
    cxu = [row[m] for row in rows]
    for i, row in enumerate(rows):
        # the central third moment, from the raw sums of x, x^2 and x^3
        mean = gram[0][i + 2] / units
        third = (cv[size * size + i] / units
                 - 3.0 * mean * (var[i] + mean * mean) + 2.0 * mean ** 3)
        if not (third * third <= _SKEW_TOL ** 2 * units * var[i] ** 3
                and row[i] > 1e-10 * units * var[i]):
            return plain
        for below in rows[i + 1:]:
            f = below[i] / row[i]
            for j in range(i + 1, m + 1):
                below[j] -= f * row[j]
    beta = [0.0] * m
    for i in reversed(range(m)):
        row = rows[i]
        beta[i] = (row[m] - _dot(row[i + 1:m], beta[i + 1:])) / row[i]
    resid = gram[1][1] - gram[0][1] ** 2 / units - _dot(beta, cxu)
    resid = max(resid, 0.0) / (units - 1 - m)
    return (_dot(beta, gram[0][2:]), resid,
            plain[1] / resid if resid > 0 else 1.0)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _estimate(n, d, samples, rng, side, workers):
    """The estimate of N = ``samples`` integrand values v.

    The independent units are the P = N values on the Wishart side, and
    on the GOE side the P = floor(N / 2) antithetic pairs and, for odd N,
    one unpaired value.  The mean is (sum v - beta . sum x) / N, with beta
    and the variance var(u) of a unit from ``_unit_fit`` on the run's
    ``_controls``, and

        stderr = sqrt(P var(u) + r var(v)) / N,

    with r the number of unpaired values: N mod 2 on the GOE side, 0 on
    the Wishart side.  var(v) is the sample variance over all N values,
    taken as 0 for fewer than two of them, so N = 1 gives stderr 0.
    """
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
    s, ss, n_q, n_psd, *cv = (math.fsum(col) for col in zip(*parts))
    shift, var_unit, ratio = _unit_fit(cv, _controls(side, samples))
    single = samples % 2 if side == GOE_SIDE else 0
    stderr = math.sqrt(cv[0] * var_unit + single * sample_variance(
        s, ss, samples)) / samples
    return TvEstimate(*mc_summary((s - shift) / samples, stderr),
                      samples=samples, side=side, seed=rng.seed, n=n, d=d,
                      frac_in_q=n_q / samples, frac_psd=n_psd / samples,
                      var_ratio=ratio)


def tv_estimate_goe_side(n: int, d: int, samples: int, rng: RngState,
                         workers: int = 1) -> TvEstimate:
    """TV estimate from draws of the shifted-scaled GOE ensemble.

    ``samples`` alpha evaluations: each draw is evaluated as drawn and
    mirrored, in one pass per block, and the pair sums are corrected by
    the even power-sum control variates; the stderr is taken over the
    antithetic pairs, and an odd ``samples`` drops the last mirror.
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
    there is one record per alpha evaluation.  The integrands' mean is the
    plain antithetic estimate; with p_k = s_k / (h_k / k!) of each draw as
    drawn they also rebuild the estimator's controlled one.  s0..s4 come
    from O(n) trace formulas on each draw and each mirror, with no
    eigenvalues.  The parameters are checked at once, and the records are
    made one block at a time as they are consumed, so memory stays bounded
    by one block.
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


def _profile_groups(dev, off2, alpha, q, psd, values, _, n, d):
    k = dev.shape[1]
    m = alpha.size - k
    for tri, cols in (((dev, off2), slice(k)),
                      ((-dev[:, :m], off2[:, :m]), slice(k, None))):
        yield (alpha[cols], breakdown_columns(*tri, alpha[cols], n, d),
               q[cols], psd[cols], values[cols])
