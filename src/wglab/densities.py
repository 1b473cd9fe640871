"""Log-densities of the two ensembles and the log-ratio machinery.

The Wishart and shifted-GOE densities are both functions of the spectrum.
The log density-ratio ``alpha`` is the central quantity: it is computed in a
centered form

    alpha = sum_i h(lambda_i) + K(n, d),

with h(x) = (1/2) [ (d-n-1) log(x/d) - (x-d) + (x-d)^2 / (2d) ] and K(n, d)
collecting every spectrum-independent constant.  The centered form avoids the
catastrophic cancellation of subtracting two huge log-density values; the
direct subtraction is kept as an independent cross-check path.  Both need
log Gamma at (d + 1 - i) / 2 >= 1/2, i = 1..n, since every caller has
checked d >= n: the check path from ``math.lgamma``, K from its Stirling
remainder, so that the log d terms cancel exactly.

Summed over the spectrum, h needs no eigenvalues: sum_i log(lambda_i / d) is
log det(T / d), sum_i (lambda_i - d) is tr(T - dI) and sum_i (lambda_i - d)^2
is ||T - dI||_F^2.  ``alpha_from_tridiagonal``, the Monte Carlo hot path,
takes these from a tridiagonal batch X, T = dI + sqrt(d) X, at a group of
d values in O(n) per draw and d: the determinant from the LDL^T pivots, the
d-free Q-window flag from a Gershgorin bound with Sturm counts where it
cannot decide, and the PSD flag from the same pivots: a draw is PSD where
they are all positive, which is where alpha is finite.  The eigenvalue
functions stay as its test reference; the scalar ones are size-1 views of
the batch ones.

``s_decomposition`` splits alpha into the constant, linear, quadratic, cubic
and quartic centered-spectral statistics s0..s4 plus a remainder, the Taylor
structure that drives the whole phase-transition analysis; the coefficients
h_k / k! of h at d come from ``_taylor_terms`` alone.
``breakdown_columns`` gives the same split over a tridiagonal batch from
O(n) trace formulas, p1..p3 of X from ``power_sums``, which also feeds
the Monte Carlo control variates; a spectrum is the diagonal case.  Their
exact means under the GOE are ``power_sum_moments``, and the mean
variance of the kernel controls' linear statistic is
``linear_statistic_variance``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError
from .scratch import SCRATCH
from .spectral import Spectrum


@dataclass(frozen=True)
class AlphaBreakdown:
    """alpha and its decomposition into the five spectral statistics.

    ``remainder`` is defined by subtraction, so the stored fields satisfy
    alpha = s0 + s1 + s2 + s3 + s4 + remainder exactly.  ``psd`` is False
    exactly where alpha is -inf, and there the s-fields are None.
    """

    alpha: float
    s0: float | None
    s1: float | None
    s2: float | None
    s3: float | None
    s4: float | None
    remainder: float | None
    in_q: bool
    psd: bool


def log_wishart_density(s: Spectrum, n: int, d: int) -> float:
    """Log density of the Wishart ensemble at a matrix with this spectrum.

    Valid for d >= n; returns -inf off the positive semidefinite cone.
    """
    if d < n:
        raise InvalidParameterError(f"Wishart density needs d >= n, got n={n}, d={d}")
    lam = s.eigenvalues
    if lam[0] <= 0.0:
        return -math.inf
    terms = [0.5 * (d - n - 1) * math.fsum(np.log(lam)),
             -0.5 * math.fsum(lam),
             -0.5 * d * n * math.log(2.0),
             -0.25 * n * (n - 1) * math.log(math.pi)]
    terms.extend(-math.lgamma(0.5 * (d + 1 - i)) for i in range(1, n + 1))
    return math.fsum(terms)


def log_goe_density(s: Spectrum, n: int, d: int) -> float:
    """Log density of sqrt(d) * GOE + d * I at a matrix with this spectrum."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    dev2 = math.fsum((s.eigenvalues - d) ** 2)
    return (-dev2 / (4.0 * d)
            - 0.25 * n * (n + 1) * math.log(2.0 * math.pi * d)
            - 0.5 * n * math.log(2.0))


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling series of lgamma: B_2k / (2k (2k - 1)), k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


def _stirling_remainder(x: float) -> float:
    """R(x) = lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), x >= 1/2.

    From its series in 1/x for x >= 8, where the first omitted term is
    below 1e-15; directly otherwise, where every part is small.
    """
    if x < 8.0:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + _HALF_LOG_2PI)
    r = 1.0 / x
    r2 = r * r
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = c + r2 * acc
    return r * acc


@lru_cache(maxsize=None)
def spectrum_constant(n: int, d: int) -> float:
    """K(n, d): the spectrum-independent part of alpha,

        K = sum_i [ (d - n - 1)/2 log d + (n + 1)/4 log d - d/2
                    + ((n + 3)/4 - d/2) log 2 + log(pi)/2
                    - lgamma((d + 1 - i)/2) ],  i = 1..n.

    With lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + R(x) at
    x = (d + 1 - i)/2, the log d and log 2 terms cancel exactly in the sum:

        K = -n(n - 1)/4 - sum_i [ (d - i)/2 log1p((1 - i)/d) + R(x) ].

    Each term is O(i) and R(x) ~ 1/(6d), so K keeps an absolute error near
    1e-12 at any d; grouping lgamma against the log d terms instead loses
    digits as d grows (3.5e-4 at n = 1024, d = 1024^3).
    """
    return -math.fsum([0.25 * n * (n - 1)]
                      + [0.5 * (d - i) * math.log1p((1 - i) / d)
                         + _stirling_remainder(0.5 * (d + 1 - i))
                         for i in range(1, n + 1)])


def alpha_exact(s: Spectrum, n: int, d: int) -> float:
    """log of the Wishart-to-GOE density ratio, centered form."""
    return float(alpha_from_eigenvalues(s.eigenvalues[None, :], n, d)[0])


def alpha_from_densities(s: Spectrum, n: int, d: int) -> float:
    """alpha by direct subtraction of the two log densities (check path)."""
    lw = log_wishart_density(s, n, d)
    if lw == -math.inf:
        return -math.inf
    return lw - log_goe_density(s, n, d)


def alpha_from_eigenvalues(eigs: np.ndarray, n: int, d: int) -> np.ndarray:
    """Vectorized alpha over a (size, n) batch of ascending eigenvalues.

    Rows with lambda_min <= 0 get -inf.
    """
    if d < n:
        raise InvalidParameterError(f"need d >= n, got n={n}, d={d}")
    psd = eigs[:, 0] > 0.0
    out = np.full(eigs.shape[0], -np.inf)
    if np.any(psd):
        # log1p on the relative deviation keeps accuracy for |x - d| << d
        t = eigs[psd] / d - 1.0
        h = 0.5 * ((d - n - 1) * np.log1p(t) - d * t + 0.5 * d * t * t)
        out[psd] = h.sum(axis=1) + spectrum_constant(n, d)
    return out


# a pivot of magnitude at most _SAFMIN * max(1, max off-diagonal^2) is
# replaced by that bound with the sign of a tie, minus unless a caller says
# otherwise, as LAPACK's dstebz does: the next division stays finite
_SAFMIN = np.finfo(float).tiny


def _guard(pivot: np.ndarray, pivmin: np.ndarray,
           tie: np.ndarray) -> np.ndarray:
    return np.where(np.abs(pivot) <= pivmin, tie, pivot)


def _sturm_counts(a: np.ndarray, b: np.ndarray, shifts: np.ndarray,
                  pivmin: np.ndarray, ties=-1.0) -> np.ndarray:
    """(len(shifts), size) counts of the eigenvalues below each shift of the
    tridiagonal batch with diagonal a and squared off-diagonal b.

    A pivot within pivmin of zero takes the sign of ``ties``, one value or
    one per shift: at -1 an eigenvalue on the shift counts as below it, at
    +1 as above it.
    """
    shifts = shifts[:, None]
    tie = np.reshape(ties, (-1, 1)) * pivmin
    q = _guard(a[0] - shifts, pivmin, tie)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, a.shape[0]):
        q = _guard(a[i] - shifts - b[i - 1] / q, pivmin, tie)
        count += q < 0.0
    return count


def alpha_from_tridiagonal(dev: np.ndarray, off2: np.ndarray, n: int, ds,
                           mirrored: bool = False, power=None):
    """alpha, the Q-window flag and the PSD flag of T = dI + sqrt(d) X at
    each d of ``ds`` over a tridiagonal batch X and, if ``mirrored``, over
    the mirrors of all its columns, in one pass.

    ``dev`` is the (n, k) array of the diagonals of X and ``off2`` the
    (n - 1, k) array of its squared off-diagonals, one column per draw.
    The mirror of a column is the same X with ``dev`` negated.  Returns
    ``(alpha, in_q, psd)``: alpha and psd of shape (len(ds), k), or
    (len(ds), 2k) with mirrors, one row per d, and in_q of shape (k,) or
    (2k,): the columns as given, then their mirrors in the same order.  A
    caller that needs an odd number of evaluations drops the last mirror.
    ``power``, if given, holds p1 and p2 of the columns as ``power_sums``
    makes them, which are then not made again.
    The flags mean what ``alpha_from_eigenvalues`` and ``in_q_mask`` mean on
    the eigenvalues of T: psd is lambda_min > 0, and it is True exactly
    where alpha is finite.  Every operation is per (d, column), so no
    result depends on the other d values or columns of the call.

    log det(T / d) is sum_i log1p(w_i) over the scaled pivots
    w_i = a_i - b_{i-1} / (1 + w_{i-1}), with a = dev / sqrt(d) and
    b = off2 / d; a column is positive definite, so PSD, where every pivot
    1 + w_i is positive, and alpha is -inf elsewhere.  The pivots run row
    by row, on T and its mirror at every d at once: O(len(ds) k) floats.
    The trace and Frobenius norm of X (a mirror's trace is its draw's
    negated) do not depend on d, nor does the Q window,
    |lambda(X)| <= 3 sqrt(n), which is symmetric about 0, so a mirror takes
    its draw's flag.  A Gershgorin bound on X certifies most columns inside
    it, and one Sturm count on X at the window's edges decides the rest
    (an eigenvalue on an edge is inside).
    """
    if min(ds) < n:
        raise InvalidParameterError(f"need d >= n, got n={n}, d={min(ds)}")
    k = dev.shape[1]
    signs = np.array([1.0, -1.0][:1 + mirrored]).reshape(-1, 1, 1)
    d = np.array(ds, float).reshape(-1, 1)
    root = np.sqrt(d)
    half = q_half_width(n, 1)
    with SCRATCH.frame() as take:
        # Gershgorin: every eigenvalue of X lies within
        # max_i(|x_i| + e_{i-1} + e_i) of 0, with e = sqrt(off2).  The
        # margin of 1e-9 half dominates the rounding of this bound and of
        # the Sturm count, which moves an eigenvalue by a few ulps of half,
        # so a certified column is one the count would find inside
        e = np.sqrt(off2, out=take(off2.shape))
        radius = np.abs(dev, out=take(dev.shape))
        radius[:-1] += e
        radius[1:] += e
        q = radius.max(axis=0) < half * (1.0 - 1e-9)
    with SCRATCH.frame() as take:
        b = take((1, d.size, k))
        w, p, logdet, least = (take((signs.size, d.size, k))
                               for _ in range(4))
        b[...] = w[...] = logdet[...] = 0.0
        least[...] = np.inf
        # the pivots of the mirror are those of T with a negated
        scale = signs * root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(n):
                # a column whose pivot 1 + w_i is pivmin or less is not
                # positive definite; what follows that pivot is discarded
                np.add(w, 1.0, out=p)
                np.divide(b, p, out=p)
                np.divide(dev[i], scale, out=w)
                w -= p
                logdet += np.log1p(w, out=p)
                np.minimum(least, w, out=least)
                if i < n - 1:
                    np.divide(off2[i], d, out=b[0])
        # the PSD flag: 1 + w_i > pivmin for every i, on the scale of T / d
        pd = least + 1.0 > _SAFMIN * np.maximum(
            np.max(off2, axis=0, initial=0.0) / d, 1.0)
        # the trace and Frobenius norm of T - dI are sqrt(d) p1 and d p2
        p1, p2 = (power_sums(dev, off2, take((2, k))) if power is None
                  else power)
        alpha = (0.5 * ((d - n - 1) * logdet - signs * (root * p1) + 0.5 * p2)
                 + [[spectrum_constant(n, x)] for x in ds])
    alpha[~pd] = -np.inf
    # an uncertified column is inside where no eigenvalue of X is below
    # -half and all are below half, with one on an edge counted inside
    cols = np.flatnonzero(~q)
    if cols.size:
        counts = _sturm_counts(dev[:, cols], off2[:, cols],
                               np.array([-half, half]), _SAFMIN * np.max(
                                   off2[:, cols], axis=0, initial=1.0),
                               ties=np.array([1.0, -1.0]))
        q[cols] = (counts[0] == 0) & (counts[1] == n)
    return (np.concatenate(alpha, axis=1), np.concatenate([q] * signs.size),
            np.concatenate(pd, axis=1))


def q_half_width(n: int, d: int) -> float:
    """Half-width 3 sqrt(d n) of the Q window d +- 3 sqrt(d n)."""
    return 3.0 * math.sqrt(d * n)


def in_q(s: Spectrum, n: int, d: int) -> bool:
    """All eigenvalues within d +- 3 sqrt(d n)."""
    return bool(in_q_mask(s.eigenvalues[None, :], n, d)[0])


def in_q_mask(eigs: np.ndarray, n: int, d: int) -> np.ndarray:
    half = q_half_width(n, d)
    return (eigs[:, 0] >= d - half) & (eigs[:, -1] <= d + half)


def _taylor_terms(n: int, d: int) -> tuple[float, float, float, float]:
    """The Taylor coefficients h_k / k!, k = 1..4, of h at d: their one home.

    h_k / k! rather than h_k, so that s_k = (h_k / k!) p_k takes one
    rounding per coefficient.  The cubic and quartic ones are correctly
    rounded quotients of Python integers, since d^3 and d^4 pass the float
    range long before d^2 does (d^4 at d ~ 1.2e77).
    """
    return (-(n + 1) / (2.0 * d), (n + 1) / (4.0 * d ** 2),
            (d - n - 1) / (6 * d ** 3), -(d - n - 1) / (8 * d ** 4))


def s0_term(n: int, d: float) -> float:
    """s0 = -n^3 / (12 d), the constant Taylor term of alpha."""
    return -n ** 3 / (12.0 * d)


def power_sums(dev: np.ndarray, off2: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The power sums p_k = tr(X^k), k = 1, 2 and, if ``out`` has a third
    row, 3, of each column of a tridiagonal batch X, written to the rows of
    ``out``, of shape (2, k), (3, k) or (4, k), and returned; a fourth row
    gets the cross term Y of p3.

    ``dev`` and ``off2`` are as in ``alpha_from_tridiagonal``.  With
    x = dev and e^2 = off2,

        p1 = sum x,   p2 = sum x^2 + 2 sum e_i^2,
        p3 = sum x^3 + 3 Y,   Y = sum e_i^2 (x_i + x_{i+1}),

    from column dot products, which make no other (n, k) array.
    """
    p1, p2, *cube = out
    dev.sum(axis=0, out=p1)
    np.einsum("ij,ij->j", dev, dev, out=p2)
    p2 += 2.0 * off2.sum(axis=0)
    if cube:
        p3, *cross = cube
        y = np.add(np.einsum("ij,ij->j", off2, dev[:-1]),
                   np.einsum("ij,ij->j", off2, dev[1:]), *cross)
        np.einsum("ij,ij,ij->j", dev, dev, dev, out=p3)
        p3 += 3.0 * y
    return out


def power_sum_moments(n: int) -> tuple[int, int, int, int]:
    """The exact means (E p1^2, E p2, E p1 p3, E p3^2) of the power sums
    p_k = tr(G^k) of an n x n GOE matrix G (N(0, 2) diagonal).

    Wick moments of the tridiagonal model: a_i ~ N(0, 2) on the diagonal
    and independent b_i^2 ~ chi^2_{n-i} off it.  p1^2, p2, p1 p3 and p3^2
    are even under G -> -G, so a GOE-side draw and its mirror share them.
    """
    return (2 * n, n * (n + 1), 6 * n * (n + 1),
            24 * n ** 3 + 54 * n ** 2 + 42 * n)


def linear_statistic_variance(n: int) -> float:
    """v(n) = E sigma^2 = 2 n (n + 4) / (3 (n - 1)), n >= 2, correctly
    rounded: the mean of the variance sigma^2 = 2 sum_i (1 - w_i / (n - 1))^2
    of l = sum_i x_i (1 - w_i / (n - 1)) = p1 - Y / (n - 1) (``power_sums``)
    given the off-diagonals of a GOE tridiagonal draw, w_i = e_{i-1}^2 + e_i^2
    with e_0^2 = e_n^2 = 0, from E w_i = m_i and E w_i^2 = m_i^2 + 2 m_i,
    m_i = (n - i + 1)[i > 1] + (n - i)[i < n].  Given them, l is exactly
    N(0, sigma^2), and it is the normal part of the large-d direction of
    s1 + s3: as the x_i are N(0, 2), with E x^4 / E x^2 = 6,
    p3 - 3 (n + 1) p1 = sum (x^3 - 6x) - 3 (n - 1) l, and the first term
    is uncorrelated with every linear function of x."""
    return 2 * n * (n + 4) / (3 * (n - 1))


def breakdown_columns(dev: np.ndarray, off2: np.ndarray, alpha: np.ndarray,
                      n: int, d: int):
    """s0..s4 and the remainder of T = dI + sqrt(d) X for each column X of
    a tridiagonal batch.

    ``dev`` and ``off2`` are as in ``alpha_from_tridiagonal`` and alpha is
    given per column.  Returns ``(s0, s1, s2, s3, s4, remainder)``: s0 is
    one float, the others arrays of shape (size,), and the entries of a
    column with alpha = -inf (not positive definite) mean nothing.
    s1..s4 come from O(n) trace formulas: tr (T - dI)^k = d^(k/2) p_k,
    with p1..p3 from ``power_sums`` and, with r_i = x_i^2 + e_{i-1}^2 +
    e_i^2 the diagonal of X^2,

        p4 = sum r^2 + 2 sum e_i^2 (x_i + x_{i+1})^2 + 2 sum e_i^2 e_{i+1}^2.
    """
    p1, p2, p3 = power_sums(dev, off2, np.empty((3, dev.shape[1])))
    r = dev * dev
    pair = dev[:-1] + dev[1:]
    r[:-1] += off2
    r[1:] += off2
    p4 = ((r * r).sum(axis=0) + 2.0 * (off2 * pair * pair).sum(axis=0)
          + 2.0 * (off2[:-1] * off2[1:]).sum(axis=0))
    s0 = s0_term(n, d)
    # s_k = h_k / k! * tr (T - dI)^k: the k-th Taylor term of
    # sum_i h(lambda_i) at d
    root = math.sqrt(d)
    s1, s2, s3, s4 = (t * root ** k * p for k, (t, p) in enumerate(
        zip(_taylor_terms(n, d), (p1, p2, p3, p4)), 1))
    return s0, s1, s2, s3, s4, alpha - (s0 + s1 + s2 + s3 + s4)


def breakdown_records(alpha: np.ndarray, terms, q: np.ndarray,
                      psd: np.ndarray) -> list[AlphaBreakdown]:
    """One AlphaBreakdown per column, from alpha, the ``breakdown_columns``
    terms, the Q-window flag q and the PSD flag."""
    s0, *rest = terms
    # a column with alpha = -inf (not positive definite) has no s-fields
    return [AlphaBreakdown(a, *((None,) * 6 if a == -math.inf else (s0, *t)),
                           qa, pa)
            for a, t, qa, pa in zip(alpha.tolist(),
                                    zip(*(x.tolist() for x in rest)),
                                    q.tolist(), psd.tolist())]


def s_decomposition(s: Spectrum, n: int, d: int) -> AlphaBreakdown:
    """Split alpha into s0..s4 plus remainder, with Q and PSD diagnostics.

    The spectrum enters as a diagonal matrix: a size-1 tridiagonal batch
    with no off-diagonal.
    """
    lam = s.eigenvalues[None, :]
    alpha = alpha_from_eigenvalues(lam, n, d)
    terms = breakdown_columns((lam.T - d) / math.sqrt(d),
                              np.zeros((lam.size - 1, 1)), alpha, n, d)
    # lambda_min > 0: the test by which alpha_from_eigenvalues sets -inf
    return breakdown_records(alpha, terms, in_q_mask(lam, n, d),
                             lam[:, 0] > 0.0)[0]
