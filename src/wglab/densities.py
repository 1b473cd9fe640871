"""Log-densities of the two ensembles and the log-ratio machinery.

The Wishart and shifted-GOE densities are both functions of the spectrum.
The log density-ratio ``alpha`` is the central quantity: it is computed in a
centered form

    alpha = sum_i h(lambda_i) + K(n, d),

with h(x) = (1/2) [ (d-n-1) log(x/d) - (x-d) + (x-d)^2 / (2d) ] and K(n, d)
collecting every spectrum-independent constant.  The centered form avoids the
catastrophic cancellation of subtracting two huge log-density values; the
direct subtraction is kept as an independent cross-check path.

Summed over the spectrum, h needs no eigenvalues: sum_i log(lambda_i / d) is
log det(T / d), sum_i (lambda_i - d) is tr(T - dI) and sum_i (lambda_i - d)^2
is ||T - dI||_F^2.  ``alpha_from_tridiagonal``, the Monte Carlo hot path,
takes these from a batch of symmetric tridiagonal T in O(n) per draw: the
determinant from the LDL^T pivot recurrence, and the Q-window and PSD flags
from Sturm counts.  The eigenvalue functions stay as its test reference; the
scalar ones are size-1 views of the batch ones.

``s_decomposition`` splits alpha into the constant, linear, quadratic, cubic
and quartic centered-spectral statistics s0..s4 plus a remainder, the Taylor
structure that drives the whole phase-transition analysis.
``breakdowns_from_tridiagonal`` gives the same split over a tridiagonal
batch from O(n) trace formulas; a spectrum is the diagonal case.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidParameterError
from .spectral import Spectrum

# eigensolver noise threshold on a d-scale matrix: below this lambda_min is
# treated as zero for the PSD diagnostic
TOL_PSD_SCALE = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AlphaBreakdown:
    """alpha and its decomposition into the five spectral statistics.

    ``remainder`` is defined by subtraction, so the stored fields satisfy
    alpha = s0 + s1 + s2 + s3 + s4 + remainder exactly.  For a non-PSD
    spectrum alpha is -inf and the s-fields are None.
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


@dataclass(frozen=True)
class TaylorCoeffs:
    """Derivatives of h at d and a worst-case bound on the fifth-order term."""

    h1: float
    h2: float
    h3: float
    h4: float
    remainder_bound: float


def log_gamma(z: float) -> float:
    """log Gamma(z) for z > 0."""
    if z <= 0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    return math.lgamma(z)


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
    terms.extend(-log_gamma(0.5 * (d + 1 - i)) for i in range(1, n + 1))
    return math.fsum(terms)


def log_goe_density(s: Spectrum, n: int, d: int) -> float:
    """Log density of sqrt(d) * GOE + d * I at a matrix with this spectrum."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    dev2 = math.fsum((s.eigenvalues - d) ** 2)
    return (-dev2 / (4.0 * d)
            - 0.25 * n * (n + 1) * math.log(2.0 * math.pi * d)
            - 0.5 * n * math.log(2.0))


@lru_cache(maxsize=None)
def spectrum_constant(n: int, d: int) -> float:
    """K(n, d): the spectrum-independent part of alpha.

    Each i-term groups the big log-Gamma value against the matching
    (d log d)-scale pieces before summation, so intermediate magnitudes stay
    far below the raw constants and K comes out with ~1e-9 absolute error
    even when the grouped pieces are ~1e5.
    """
    base = (0.5 * (d - n - 1) * math.log(d)
            + 0.25 * (n + 1) * math.log(d)
            - 0.5 * d
            + (0.25 * (n + 3) - 0.5 * d) * math.log(2.0)
            + 0.5 * math.log(math.pi))
    return math.fsum(base - log_gamma(0.5 * (d + 1 - i)) for i in range(1, n + 1))


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
# replaced by minus that bound, as LAPACK's dstebz does: it then counts as
# negative, and the next division stays finite
_SAFMIN = np.finfo(float).tiny


def _guard(pivot: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    return np.where(np.abs(pivot) <= pivmin, -pivmin, pivot)


def _sturm_counts(a: np.ndarray, b: np.ndarray, shifts: np.ndarray,
                  pivmin: np.ndarray) -> np.ndarray:
    """(len(shifts), size) counts of the eigenvalues below each shift of the
    tridiagonal batch with diagonal a and squared off-diagonal b."""
    shifts = shifts[:, None]
    q = _guard(a[0] - shifts, pivmin)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, a.shape[0]):
        q = _guard(a[i] - shifts - b[i - 1] / q, pivmin)
        count += q < 0.0
    return count


def alpha_from_tridiagonal(dev: np.ndarray, off2: np.ndarray, n: int,
                           d: int):
    """alpha, the Q-window flag and the PSD flag over a tridiagonal batch.

    ``dev`` is the (n, size) array of diagonal deviations T_ii - d and
    ``off2`` the (n - 1, size) array of squared off-diagonals, one column
    per draw.  Returns ``(alpha, in_q, psd)``, each of shape (size,), with
    the same meaning as ``alpha_from_eigenvalues`` and ``in_q_mask`` on the
    eigenvalues of T and with psd meaning lambda_min >= -TOL_PSD_SCALE * d.

    log det(T / d) is sum_i log1p(w_i) over the scaled pivots
    w_i = dev_i / d - (off2_{i-1} / d^2) / (1 + w_{i-1}); alpha is -inf
    unless every pivot 1 + w_i is positive.
    """
    if d < n:
        raise InvalidParameterError(f"need d >= n, got n={n}, d={d}")
    a = dev / d
    b = off2 / float(d) ** 2
    pivmin = _SAFMIN * np.max(b, axis=0, initial=1.0)
    # a column whose pivot 1 + w_i is pivmin or less is not positive
    # definite; what the recurrence computes after that pivot is discarded
    w = a.copy()
    p = np.empty_like(pivmin)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, n):
            np.add(w[i - 1], 1.0, out=p)
            np.divide(b[i - 1], p, out=p)
            w[i] -= p
        pd = np.all(1.0 + w > pivmin, axis=0)
        logdet = np.log1p(w).sum(axis=0)
    frob2 = (dev * dev).sum(axis=0) + 2.0 * off2.sum(axis=0)
    alpha = (0.5 * ((d - n - 1) * logdet - dev.sum(axis=0) + frob2 / (2.0 * d))
             + spectrum_constant(n, d))
    alpha[~pd] = -np.inf
    # the Sturm shifts live on the scale of T / d
    half = q_half_width(n, d) / d
    counts = _sturm_counts(a, b, np.array([-half, half, -1.0 - TOL_PSD_SCALE]),
                           pivmin)
    return alpha, (counts[0] == 0) & (counts[1] == n), counts[2] == 0


def q_half_width(n: int, d: int) -> float:
    """Half-width 3 sqrt(d n) of the Q window d +- 3 sqrt(d n)."""
    return 3.0 * math.sqrt(d * n)


def in_q(s: Spectrum, n: int, d: int) -> bool:
    """All eigenvalues within d +- 3 sqrt(d n)."""
    return bool(in_q_mask(s.eigenvalues[None, :], n, d)[0])


def in_q_mask(eigs: np.ndarray, n: int, d: int) -> np.ndarray:
    half = q_half_width(n, d)
    return (eigs[:, 0] >= d - half) & (eigs[:, -1] <= d + half)


def taylor_coeffs(n: int, d: int) -> TaylorCoeffs:
    """Derivatives of h at d plus a worst-case fifth-order remainder bound.

    The bound maximizes |(d-n-1) / (10 xi^5) * (x-d)^5| over the eigenvalue
    window x, xi in [d - 3 sqrt(dn), d + 3 sqrt(dn)], which requires the
    window's left edge to be safely positive (d > 9n).
    """
    if d <= 9 * n:
        raise InvalidParameterError(f"need d > 9n for the Q window, got n={n}, d={d}")
    half = q_half_width(n, d)
    bound = (d - n - 1) / (10.0 * (d - half) ** 5) * half ** 5
    return TaylorCoeffs(*(math.factorial(k) * t for k, t in
                          enumerate(_taylor_terms(n, d), 1)), bound)


def _taylor_terms(n: int, d: int) -> tuple[float, float, float, float]:
    """The Taylor coefficients h_k / k!, k = 1..4, of h at d, for any d.

    h_k / k! rather than h_k, so that s_k = (h_k / k!) p_k takes one
    rounding per coefficient.
    """
    return (-(n + 1) / (2.0 * d), (n + 1) / (4.0 * d ** 2),
            (d - n - 1) / (6.0 * d ** 3), -(d - n - 1) / (8.0 * d ** 4))


def s0_term(n: int, d: float) -> float:
    """s0 = -n^3 / (12 d), the constant Taylor term of alpha."""
    return -n ** 3 / (12.0 * d)


def breakdowns_from_tridiagonal(dev: np.ndarray, off2: np.ndarray,
                                alpha: np.ndarray, q: np.ndarray,
                                psd: np.ndarray, n: int,
                                d: int) -> list[AlphaBreakdown]:
    """One AlphaBreakdown per column of a tridiagonal batch.

    ``dev`` and ``off2`` are as in ``alpha_from_tridiagonal``, and alpha,
    the Q-window flag q and the PSD flag are given per column.  s0..s4 come from O(n) trace formulas:
    with a = dev, e^2 = off2 and r_i = a_i^2 + e_{i-1}^2 + e_i^2 the diagonal
    of (T - dI)^2, the power sums p_k = tr((T - dI)^k) are

        p1 = sum a,   p2 = sum a^2 + 2 sum e_i^2,
        p3 = sum a^3 + 3 sum e_i^2 (a_i + a_{i+1}),
        p4 = sum r^2 + 2 sum e_i^2 (a_i + a_{i+1})^2 + 2 sum e_i^2 e_{i+1}^2.
    """
    a2 = dev * dev
    pair = dev[:-1] + dev[1:]
    r = a2.copy()
    r[:-1] += off2
    r[1:] += off2
    p1 = dev.sum(axis=0)
    p2 = a2.sum(axis=0) + 2.0 * off2.sum(axis=0)
    p3 = (a2 * dev).sum(axis=0) + 3.0 * (off2 * pair).sum(axis=0)
    p4 = ((r * r).sum(axis=0) + 2.0 * (off2 * pair * pair).sum(axis=0)
          + 2.0 * (off2[:-1] * off2[1:]).sum(axis=0))
    s0 = s0_term(n, d)
    # s_k = h_k / k! * p_k: the k-th Taylor term of sum_i h(lambda_i) at d
    s1, s2, s3, s4 = (t * p for t, p in zip(_taylor_terms(n, d),
                                            (p1, p2, p3, p4)))
    remainder = alpha - (s0 + s1 + s2 + s3 + s4)
    # a column with alpha = -inf (not positive definite) has no s-fields
    terms = zip(s1.tolist(), s2.tolist(), s3.tolist(), s4.tolist(),
                remainder.tolist())
    return [AlphaBreakdown(a, *((None,) * 6 if a == -math.inf else (s0, *t)),
                           qa, pa)
            for a, t, qa, pa in zip(alpha.tolist(), terms, q.tolist(),
                                    psd.tolist())]


def s_decomposition(s: Spectrum, n: int, d: int) -> AlphaBreakdown:
    """Split alpha into s0..s4 plus remainder, with Q and PSD diagnostics.

    The spectrum enters as a diagonal matrix: a size-1 tridiagonal batch
    with no off-diagonal.
    """
    lam = s.eigenvalues[None, :]
    return breakdowns_from_tridiagonal(
        lam.T - d, np.zeros((lam.size - 1, 1)),
        alpha_from_eigenvalues(lam, n, d), in_q_mask(lam, n, d),
        lam[:, 0] >= -TOL_PSD_SCALE * d, n, d)[0]
