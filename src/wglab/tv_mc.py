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
evaluated in one ``alpha_from_tridiagonal`` pass.  A GOE-side draw X is
free of d (T = dI + sqrt(d) X), so one batch serves a group of d values,
as in a sweep over c: ``tv_estimates_goe_side`` (common random numbers;
Glasserman 2004, section 4.2).  ``samples`` counts
alpha evaluations, mirrored ones included.  GOE-side blocks hold an even
number of evaluations, except the last block of an odd ``samples``,
which drops its last mirror and so holds one unpaired draw.  The Wishart
law has no such symmetry: there each draw is one evaluation.

Each estimate is one least-squares regression over independent units: a
pair sum u = v + v' on the GOE side, one integrand value on the Wishart
side.  What is left of a pair sum is even under G -> -G, and its leading
terms are functions of the odd power sums.  With p_k = tr X^k,
X = (T - dI) / sqrt(d), the even statistics p1^2, p2, p1 p3 and p3^2 of a
draw, which its mirror shares, have exact finite-n means
(``densities.power_sum_moments``), and so have six kernel rows in
l = p1 - Y / (n - 1), Y the cross term of p3, which is exactly normal
given the off-diagonals of X (``_control_rows``): three bounded functions
x_j of l, the relative deviation r of its variance from its mean, and
x_1 r and x_2 r, made from n = 10 on.  As the diagonal of X is N(0, 2),
p3 - 3 (n + 1) p1 = sum (x^3 - 6x) - 3 (n - 1) l, and the first term is
uncorrelated with every linear function of the diagonal, so l is the
exactly normal part of the large-d direction of s1 + s3.  These serve as
m <= 10 control variates (Lavenberg and Welch 1981; Glasserman 2004,
section 4.1): the estimate is u-bar - beta . x-bar over the P units, with
x those statistics less their means and beta the least-squares
coefficients of u on x, and its stderr comes from the residuals, with
P - 1 - m degrees of freedom.  At c = 1 the pair variance falls about 62x
at n = 32 (28x with l = p1 - Y / (n + 1) and no r rows, 4.5x on the power
sums alone), 20x at n = 16 and 650x at n = 256.  The controls are
skewed, and a linear fit passes their skew on to the estimate, so each
is used only where its mean is nearly normal (``_SKEW_TOL``), and the
others are dropped.  A run makes only the controls it may keep
(``_controls``): none below p2's floor of 6,400 / (n(n+1)) pairs, p2
alone below 3,200 pairs, the others' floor, which holds for a skewness of
at most sqrt(8) (not for p3^2 and p1 p3: above it only the sample-skew
test guards them).  So a sweep point of 1,000 pairs at n >= 3 fits p2
alone, with a pair variance about 1.4x lower at n = 4 and c = 0.125.
The controls are d-free, so one gate decides them for every d of a pass.
beta is fitted on the draws it corrects, which biases the estimate by
O(m / P): 0.07 +- 0.05 stderr measured at n = 32 and 3,200 pairs.  With
no control made (on the Wishart side, at n = 1 and below p2's floor) or
kept, m = 0: beta = [] and the estimate is the plain mean of the units.
The unpaired draw of an odd ``samples`` enters uncontrolled.

A run of evaluations is cut into fixed-size blocks, each drawn from its own
substream into the thread's scratch memory.  Workers take contiguous
ranges of blocks.  Per d, the blocks' sums, flag counts and ``_moments``
about their own means are merged in block order (Chan, Golub and LeVeque
1979) and beta is fitted once after the merge, so the seed alone fixes
every estimate: any worker count gives bit-identical results.  The pool
never starts more processes than there are blocks or CPUs, and a run of
one block starts none.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .densities import (AlphaBreakdown, alpha_from_tridiagonal,
                        breakdown_columns, breakdown_records,
                        linear_statistic_variance, power_sum_moments,
                        power_sums)
from .ensembles import goe_tridiagonal, wishart_tridiagonal
from .errors import InvalidParameterError
from .rng import RngState
from .scratch import SCRATCH

GOE_SIDE = "goe_side"
WISHART_SIDE = "wishart_side"

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

# alpha evaluations times n per block (a GOE-side block draws half as many
# tridiagonals); a block's draws and their Gershgorin bound take at most
# five (n, size) float arrays, so this bounds them near 10 MB.  It also
# fixes the stream layout: block b of a run draws from substream b, so
# changing the budget moves the draws of every run longer than one block
_BATCH_BUDGET = 2 ** 18
# the largest order an estimate accepts: past it one draw outgrows a block
MAX_N = _BATCH_BUDGET
# alpha evaluations times d values of one pass over a block, or one d: it
# holds about 16 floats per evaluation, 8 MB at most for any number of d
# values.  Every operation is per (d, column), so grouping changes no bit
_PASS_COLUMNS = 2 ** 16

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
    # the share of positive-definite evaluations, those with finite alpha
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


def _blocks(n, ds, samples, rng, side, first, stop, m, empty=np.empty):
    """Yield, for each of blocks first..stop-1 and each group of its d
    values, ``(lo, dev, off2, alpha, in_q, psd, integrand, rows)``: the
    index in ``ds`` of the group's first d, the tridiagonal batch X the
    block draws, in arrays made by ``empty(shape)``, the
    ``alpha_from_tridiagonal`` arrays of its evaluations with their
    integrands, one row per d of the group, and an (m + 1, k) array whose
    rows 1.. hold the m ``_control_rows`` of its k draws (``_controls``).

    A run of ``samples`` evaluations is cut into blocks of
    ``_batch_size(n, side)``, the last holding the rest; block b draws
    from ``rng.substream(b)`` whichever process draws it, so the draws
    depend on the seed alone.  Every d of a GOE-side run is evaluated on
    the same d-free draws; a Wishart-side run has one d, and a block of
    ``size`` evaluations is ``size`` draws.  A GOE-side block is
    k = ceil(size / 2) draws, each evaluated mirrored: the k draws, then
    their k mirrors, of which an odd block drops the last.  So pair j is
    evaluations j and k + j.  A group holds as many d values as
    ``_PASS_COLUMNS`` allows, and at least one.  A block's arrays from
    ``SCRATCH.take`` are freed as the next is drawn.
    """
    batch = _batch_size(n, side)
    mirrored = side == GOE_SIDE
    group = max(1, _PASS_COLUMNS // min(batch, samples))
    for b in range(first, stop):
        size = min(batch, samples - b * batch)
        gen = rng.substream(b).generator()
        with SCRATCH.frame():
            if mirrored:
                dev, off2 = goe_tridiagonal(n, size - size // 2, gen, empty)
            else:
                dev, off2 = wishart_tridiagonal(n, ds[0], size, gen, empty)
            # p1, p2 and, for m > 1, p3 and Y, once for every d
            k = dev.shape[1]
            power = power_sums(dev, off2, empty((4 if m > 1 else 2, k)))
            # z: the units, then the controls
            rows = empty((m + 1, k))
            if m:
                _control_rows(power, off2, n, rows[1:])
            for lo in range(0, len(ds), group):
                alpha, q, psd = alpha_from_tridiagonal(
                    dev, off2, n, ds[lo:lo + group], mirrored, power[:2])
                alpha, q, psd = alpha[:, :size], q[:size], psd[:, :size]
                yield (lo, dev, off2, alpha, q, psd, _integrand(alpha, side),
                       rows)
            # hold no array of the frame as it is left (``Scratch``)
            del dev, off2, power, rows, alpha, q, psd


def _control_rows(power, off2, n, out):
    """Write the m = 1, 7 or 10 GOE-side controls (``_controls``) of draws
    with squared off-diagonals ``off2`` and ``power_sums`` rows p1, p2 (and
    p3, Y for m > 1) to the rows of ``out``, of shape (m, k), each less its
    exact mean: p2 for m = 1, else p1^2, p2, p3^2, p1 p3, the kernel rows
    x_j = exp(-l^2 / (2 s_j^2)) - s_j / sqrt(s_j^2 + sigma^2) and, for
    m = 10, r = sigma^2 / v(n) - 1, x_1 r and x_2 r, with l, sigma^2 and
    v(n) as in ``densities.linear_statistic_variance`` and
    s_j = (1/2, 1, 2) sqrt(v(n)).
    l is N(0, sigma^2) given the off-diagonals, so x_j has mean 0 given
    them, and so have x_1 r and x_2 r; r has mean 0 as v(n) = E sigma^2.
    Each row is bounded or a function of the off-diagonals alone, and even
    under G -> -G.  sigma^2 takes sum w = 2 sum e^2 and
    sum w^2 = 2 sum e^4 + 2 sum e_i^2 e_{i+1}^2 from column dot products:
    no other (n, k) array is made."""
    if len(out) == 1:
        np.subtract(power[1], float(power_sum_moments(n)[1]), out=out[0])
        return
    p1, p2, p3, y = power
    np.square(power[:3:2], out=out[:3:2])
    out[1] = p2
    np.multiply(p1, p3, out=out[3])
    e11, e2, e13, e33 = power_sum_moments(n)
    out[:4] -= np.array([[e11], [e2], [e33], [e13]], float)
    c, v = 1.0 / (n - 1), linear_statistic_variance(n)
    kernel = out[4:7]
    w2 = np.einsum("ij,ij->j", off2, off2) + np.einsum(
        "ij,ij->j", off2[:-1], off2[1:])
    var = 2.0 * (n - 4.0 * c * off2.sum(axis=0) + 2.0 * c * c * w2)
    # s_j^2: a quarter, one and four times v(n), the mean variance of l
    scale = np.array([[0.25], [1.0], [4.0]]) * v
    np.multiply(np.square(p1 - c * y), -0.5 / scale, out=kernel)
    np.exp(kernel, out=kernel)
    kernel -= np.sqrt(scale / (scale + var))
    if len(out) > 7:
        np.subtract(var / v, 1.0, out=out[7])
        np.multiply(kernel[:2], out[7], out=out[8:])

# A control is used only where its mean over the P pairs is nearly normal:
# its skewness, the control's sample skewness over sqrt(P), at most this.
# A linear fit passes a control's skew on to the estimate: at P = 1,000
# pairs and n = 4, with all four power sums, one estimate in 10^4 fell
# 6 stderr from the truth, and at n = 16 its tails were still heavier than
# normal.  A skewness of at most sqrt(8), that of p1^2 = 2n chi^2_1, passes
# from 3,200 pairs, the floor of all but p2 (``_controls``).  p3^2 and
# p1 p3 exceed it (p3^2 is skewed about 9 at n = 4, 3 at n = 32), so up to
# (skew / _SKEW_TOL)^2 pairs only the sample-skew test guards them.  p2 is
# 2 chi^2_{n(n+1)/2}, of skewness 4 / sqrt(n(n+1)), the kernel rows x_j
# are skewed about 0.2, -0.8 and -1.8 from n = 8 on, and r, x_1 r and x_2 r
# (over 2 * 10^6 draws) 0.67, 0.61 and -0.49 at n = 32 and 2.2, 2.5 and
# 0.5 at n = 10, falling in n from there, but 2.8, 3.5 and 1.3 at n = 8
# and 6 to 28 at n <= 4 (``_R_ROWS_MIN_N``).
_SKEW_TOL = 0.05
# the least n at which r, x_1 r and x_2 r are made: from it on their
# skewness is below sqrt(8), so their floor of 8 / _SKEW_TOL^2 pairs holds
_R_ROWS_MIN_N = 10


def _controls(n: int, side: str, pairs: int) -> int:
    """The number m of control rows (``_control_rows``) a run of
    P = ``pairs`` units makes: those whose floor P reaches, so that a
    sample skewness cannot pass ``_SKEW_TOL`` by chance at tiny P.  p2, of
    law 2 chi^2_{n(n+1)/2}, has 16 / (n(n+1) _SKEW_TOL^2) pairs (320 at
    n = 4); the others 8 / _SKEW_TOL^2 = 3,200, which holds for a skewness
    of at most sqrt(8), not for p3^2 and p1 p3.  So m = 0, 1 (p2), then 10
    or, below ``_R_ROWS_MIN_N``, 7; m = 0 on the Wishart side and at n = 1,
    where p2 = p1^2 and the rest are functions of the one entry."""
    if side != GOE_SIDE or n == 1 or (
            pairs < 16.0 / (n * (n + 1)) / _SKEW_TOL ** 2):
        return 0
    if pairs < 8.0 / _SKEW_TOL ** 2:
        return 1
    return 10 if n >= _R_ROWS_MIN_N else 7


def _block_stats(task):
    """Per-block partials of one task's range, one list per block: for
    each d, the sum of its integrand values, its Q and PSD counts, the
    ``_moments`` of its units and, on a GOE-side run of odd ``samples``, the
    ``_moments`` of its values (None elsewhere)."""
    n, _, samples, _, side = task[:5]
    odd = side == GOE_SIDE and samples % 2
    blocks = _blocks(*task, _controls(n, side, samples // 2), SCRATCH.take)
    parts = []
    for lo, dev, _, _, q, psd, values, rows in blocks:
        # a GOE-side unit is the pair of draw j and evaluation k + j; a
        # Wishart-side unit is one value
        k = dev.shape[1] if side == GOE_SIDE else 0
        z = rows[:, :values.shape[1] - k]
        if not lo:
            parts.append([])
            # the controls are d-free: centered and reduced once per block
            controls = _moments(z[1:], out=z[1:])
        for v, flag in zip(values, psd):
            units = v[:v.size - k] + v[k:] if k else v
            parts[-1].append((float(v.sum()), int(np.count_nonzero(q)),
                              int(np.count_nonzero(flag)),
                              _unit_moments(units, z, controls),
                              _moments(v[None]) if odd else None))
        # as in _blocks: the next block may leave the outermost frame
        del dev, _, q, psd, values, rows, z, v, flag, units
    return parts


def _moments(z: np.ndarray, out=None):
    """``(count, sums, cross, cubes)`` of an (r, count) array z, one
    variable per row: the r sums, and the r x r cross-products and r sums
    of cubes about the row means, which keep the digits that raw sums of
    squares lose where a mean dwarfs the spread, as at a TV near 0 or 1.
    z less its row means is written to ``out`` if given."""
    count = z.shape[1]
    sums = z.sum(axis=1)
    c = np.subtract(z, (sums / max(count, 1))[:, None], out=out)
    return (count, sums, np.einsum("ij,kj->ik", c, c),
            np.einsum("ij,ij,ij->i", c, c, c))


def _unit_moments(units, z, controls):
    """The ``_moments`` of (units, x), bit for bit, from the ``_moments``
    of the controls x and an array z whose rows 1.. hold x less its
    means: per d only the row of the units is centered, into row 0 of z,
    and reduced."""
    count, sums, cross, cubes = controls
    total = units.sum()
    c = np.subtract(units, total / max(count, 1), out=z[0])
    full = np.empty((len(z), len(z)))
    full[0] = np.einsum("ij,j->i", z, c)
    full[1:, 0], full[1:, 1:] = full[0, 1:], cross
    return (count, np.concatenate(((total,), sums)), full,
            np.concatenate(((np.einsum("j,j,j->", c, c, c),), cubes)))


def _merge_moments(parts):
    """The ``_moments`` of the union of the sets whose ``_moments`` are
    ``parts``, merged in order by the pairwise update of Chan, Golub and
    LeVeque (1979), and Pebay (2008) for the cubes: for n_A and n_B values
    whose means differ by delta, with n = n_A + n_B and f = n_A n_B / n,
    C = C_A + C_B + f delta delta^T and M3 = M3_A + M3_B
    + f (n_A - n_B) / n delta^3 + 3 delta (n_A C_B - n_B C_A) / n."""
    count, total, cross, cubes = parts[0]
    for size, sums, c, t in parts[1:]:
        if size and count:
            n, f = count + size, count * size / (count + size)
            delta = sums / size - total / count
            cubes = cubes + t + delta * (
                f * (count - size) / n * delta ** 2
                + 3.0 * (count * c.diagonal() - size * cross.diagonal()) / n)
            cross = cross + c + f * np.outer(delta, delta)
            count, total = n, total + sums
        elif size:
            count, total, cross, cubes = size, sums, c, t
    return count, total, cross, cubes


def sample_variance(count: int, cross: float) -> float:
    """Unbiased variance of ``count`` values from their sum of squares
    about their mean; 0 for fewer than two values."""
    return cross / (count - 1) if count > 1 else 0.0


def mc_summary(mean: float, stderr: float):
    """(mean, stderr, ci_lo, ci_hi) of a mean of values in [0, 1]: the 99%
    normal interval, clipped to [0, 1]."""
    return (mean, stderr, max(mean - Z99 * stderr, 0.0),
            min(mean + Z99 * stderr, 1.0))


def _kept(units):
    """The controls the fit keeps, as indices into z = (u, x), from the
    merged ``_moments`` of z over the P units, of the controls the run
    made (``_controls``).  The controls are d-free, so one gate serves
    every d of a pass.

    A control is dropped where its mean is too skewed (``_SKEW_TOL``): one
    array test, read elementwise.  The others are taken in order, each
    kept where its pivot passes: the squared last diagonal of the Cholesky
    factor of Cxx over the kept controls and it, the part of its variance
    that they leave unexplained.  Below 1e-10 of that variance, or where
    that Cxx is not positive definite, the control is collinear with the
    kept ones (p2 after p1^2, which it equals at n = 1, leaves a share of
    rounding size, 1e-16; the least share measured at n >= 2 was 2e-7, at
    n = 2 and 7 pairs).  A pivot depends only on the controls before it,
    so this drops a failing control and factors the rest without it.
    """
    count, _, cross, cubes = units
    keep = []
    # no control can be fitted to P <= 2 units
    if count <= 2:
        return keep
    var, third = cross.diagonal()[1:] / count, cubes[1:] / count
    ok = third * third <= _SKEW_TOL ** 2 * count * var ** 3
    for i in np.flatnonzero(ok).tolist():
        trial = [*keep, i + 1]
        try:
            pivot = np.linalg.cholesky(cross[np.ix_(trial, trial)])[-1, -1]
        except np.linalg.LinAlgError:
            continue
        if pivot * pivot > 1e-10 * count * var[i]:
            keep = trial
    return keep


def _unit_fit(units, keep):
    """The regression of the P units on the controls ``keep`` (indices into
    z = (u, x)) from the merged ``_moments`` of z over the units:
    (beta . sum x, the variance of one unit about the fit, the plain
    variance of a unit over that).

    The units u are regressed on the centered controls x (Lavenberg and
    Welch 1981): beta solves Cxx beta = Cxu on the centered
    cross-products, and the residual variance, (Cuu - beta . Cxu) /
    (P - 1 - m), has P - 1 - m degrees of freedom for m kept controls.
    With none, or where P <= 1 + m, the fit is the m = 0 one: beta = [],
    the sample variance of the units, and a ratio of 1.
    """
    count, total, cross, _ = units
    plain = 0.0, sample_variance(count, float(cross[0, 0])), 1.0
    m = len(keep)
    if not m or count <= 1 + m:
        return plain
    cols = cross[:, keep]
    cxu = cols[0]
    beta = np.linalg.solve(cols[keep], cxu)
    resid = max(float(cross[0, 0] - beta @ cxu), 0.0) / (count - 1 - m)
    return (float(beta @ total[keep]), resid,
            plain[1] / resid if resid > 0 else 1.0)


def _estimate(n, ds, samples, rng, side, workers):
    """The estimates, one per d of ``ds``, of N = ``samples`` integrand
    values v each, all from the same draws.

    The independent units are the P = N values on the Wishart side, and
    on the GOE side the P = floor(N / 2) antithetic pairs and, for odd N,
    one unpaired value.  The mean is (sum v - beta . sum x) / N, with beta
    and the variance var(u) of a unit from ``_unit_fit`` on the controls
    ``_kept`` once for all of ``ds``, and

        stderr = sqrt(P var(u) + r var(v)) / N,

    with r the number of unpaired values: N mod 2 on the GOE side, 0 on
    the Wishart side.  var(v) is the sample variance over all N values,
    taken as 0 for fewer than two of them, so N = 1 gives stderr 0.
    """
    if not ds:
        raise InvalidParameterError("need at least one d")
    for d in ds:
        _check_params(n, d, samples)
    if workers < 1:
        raise InvalidParameterError(f"need workers >= 1, got {workers}")
    blocks = _block_count(n, samples, side)
    procs = 1 if blocks == 1 else min(workers, blocks, os.cpu_count() or 1)
    # one contiguous range of blocks per process; the partials come back in
    # block order, so the merge does not depend on the split
    tasks = [(n, ds, samples, rng, side, blocks * i // procs,
              blocks * (i + 1) // procs) for i in range(procs)]
    if procs > 1:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = [p for task in pool.map(_block_stats, tasks) for p in task]
    else:
        parts = _block_stats(tasks[0])
    single = samples % 2 if side == GOE_SIDE else 0
    keep, out = None, []
    for d, col in zip(ds, zip(*parts)):
        sums, n_q, n_psd, units, values = zip(*col)
        units = _merge_moments(units)
        # the controls are d-free, and so are their moments: one gate per
        # pass, on its first d
        if keep is None:
            keep = _kept(units)
        shift, var_unit, ratio = _unit_fit(units, keep)
        var = single and sample_variance(
            samples, float(_merge_moments(values)[2][0, 0]))
        stderr = math.sqrt(units[0] * var_unit + var) / samples
        out.append(TvEstimate(
            *mc_summary((math.fsum(sums) - shift) / samples, stderr),
            samples=samples, side=side, seed=rng.seed, n=n, d=d,
            frac_in_q=sum(n_q) / samples, frac_psd=sum(n_psd) / samples,
            var_ratio=ratio))
    return out


def tv_estimates_goe_side(n: int, ds, samples: int, rng: RngState,
                          workers: int = 1) -> list[TvEstimate]:
    """TV estimates at each d of ``ds``, in order, from the same draws of
    the shifted-scaled GOE ensemble, so correlated across d: ``samples``
    alpha evaluations each, every draw as drawn and mirrored, with the pair
    sums corrected by the even power-sum control variates and the stderr
    taken over the pairs; an odd ``samples`` drops the last mirror."""
    return _estimate(n, tuple(ds), samples, rng, GOE_SIDE, workers)


def tv_estimate_goe_side(n: int, d: int, samples: int, rng: RngState,
                         workers: int = 1) -> TvEstimate:
    """TV estimate from draws of the shifted-scaled GOE ensemble: bit for
    bit the estimate at d of ``tv_estimates_goe_side`` on this stream."""
    return tv_estimates_goe_side(n, [d], samples, rng, workers)[0]


def tv_estimate_wishart_side(n: int, d: int, samples: int, rng: RngState,
                             workers: int = 1) -> TvEstimate:
    """TV estimate from Wishart draws (always PSD)."""
    return _estimate(n, (d,), samples, rng, WISHART_SIDE, workers)[0]


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
    drawn they also rebuild the power-sum part of the estimator's fit, but
    not the kernel rows, which need the off-diagonals.  s0..s4 come
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
    checked at once; no control row is made."""
    _check_params(n, d, samples)
    blocks = _blocks(n, [d], samples, rng, GOE_SIDE, 0,
                     _block_count(n, samples, GOE_SIDE), 0)
    return (group for block in blocks
            for group in _profile_groups(*block, n, d))


def _profile_groups(_, dev, off2, alpha, q, psd, values, __, n, d):
    k = dev.shape[1]
    m = q.size - k
    for tri, cols in (((dev, off2), slice(k)),
                      ((-dev[:, :m], off2[:, :m]), slice(k, None))):
        yield (alpha[0, cols], breakdown_columns(*tri, alpha[0, cols], n, d),
               q[cols], psd[0, cols], values[0, cols])
