"""The limiting total variation distance and its confirmations.

In the critical scaling d / n^3 -> c the TV distance converges to
Erf(1 / (4 sqrt(3) sqrt(c))).  The same value is recovered two other ways:
by 1-D quadrature of the Gaussian functional the limit reduces to, and by
Monte Carlo over the joint Gaussian limit (N1, N3) of the first and third
normalized spectral power sums, which has mean zero and covariance
[[2, 6], [6, 24]].  That CLT is checked on finite-n GOE draws: the two power
sums are traces, tr G / sqrt(n) and tr G^3 / n^(3/2), so a dense draw costs
one symmetric product G G^T and no eigendecomposition.

Only the quadrature needs scipy, and it imports scipy itself, so every
other command runs on numpy alone and starts without scipy's import time.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .densities import s0_term
from .errors import DomainError, InvalidParameterError
from .rng import RngState
from .ensembles import sample_goe_dense
from .tv_mc import GOE_SIDE, _integrand, mc_summary, sample_variance


@dataclass(frozen=True)
class LimitParams:
    """The critical-window parameter c = lim d / n^3."""

    c: float

    def __post_init__(self):
        # below the least normal float 1 / (4c) overflows
        if not sys.float_info.min <= self.c < math.inf:
            raise DomainError(
                f"need finite c >= {sys.float_info.min!r}, got {self.c}")


@dataclass(frozen=True)
class LimitEstimate:
    """Monte Carlo estimate of the limiting TV with a 99% interval."""

    mean: float
    stderr: float
    ci_lo: float
    ci_hi: float
    samples: int
    seed: int


@dataclass(frozen=True)
class CovMatrix2:
    """Symmetric 2x2 covariance stored as its three free entries."""

    c11: float
    c12: float
    c22: float


def limiting_tv_closed_form(p: LimitParams) -> float:
    """Erf(1 / (4 sqrt(3) sqrt(c)))."""
    return math.erf(1.0 / (4.0 * math.sqrt(3.0) * math.sqrt(p.c)))


def limiting_tv_quadrature(p: LimitParams) -> float:
    """The limit as a 1-D integral against the N(0, 6) density.

    The exponent of the limit functional is -a + b z with Z = N3 - 3 N1 ~
    N(0, 6): N1 drops out because its coefficient k1 + 3 k3 vanishes.  The
    integrand is positive exactly for z <= a / b = 1 / (2 sqrt(c)), which
    sets the upper limit of integration.  The integral is split at 0, where
    the weight has its mass, so that quad finds that mass however far away
    the upper limit is, and the upper limit is capped at 60, beyond which
    the weight, below e^-300, adds nothing.
    """
    # imported here: scipy costs most of a cold start, and only this needs it
    from scipy import integrate

    s0, k1, s2, k3, s4 = s_limit_vector(p.c)
    a = -(s0 + (s2 + s4))
    b = k3
    norm = 1.0 / math.sqrt(12.0 * math.pi)

    def f(z):
        return _integrand(-a + b * z, GOE_SIDE) * norm * np.exp(-z * z / 12.0)

    return sum(integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12,
                              limit=200)[0]
               for lo, hi in ((-np.inf, 0.0), (0.0, min(a / b, 60.0))))


# matrix elements per sample_clt_pairs batch, 16 MB of float64.  The split
# does not move the stream, since one generator fills the draws in order,
# nor the pairs, since each draw is reduced on its own
_CLT_BATCH_ELEMENTS = 2 ** 21
# the largest order one batch holds a draw of (1448); with it, a batch, its
# packed normals and the G G^T buffer bound clt's memory near 42 MB
_CLT_MAX_N = math.isqrt(_CLT_BATCH_ELEMENTS)
# the most draws one run of sample_clt_pairs or limiting_tv_mc takes: the
# former's (reps, 2) array of pairs is 64 MB, the latter's draws and their
# temporaries 172 MB, at about 41 bytes a sample
_MAX_DRAWS = 2 ** 22


def sample_clt_pairs(n: int, reps: int, rng: RngState) -> np.ndarray:
    """(reps, 2) array of (sum mu_i, sum mu_i^3) over GOE draws of order n,
    from the stream of ``rng`` with the purpose "clt".

    With mu = eig(G) / sqrt(n) the pair is (tr G / sqrt(n), tr G^3 /
    n^(3/2)), and tr G^3 = <G, G G^T> for symmetric G.  Each draw's G G^T
    is one BLAS syrk (n^3 flops) into a shared buffer, and each batch is
    released before the next is drawn, so the peak holds one batch.  The
    pairs agree with the eigenvalue sums of the same draws to about 1e-14
    relative.  Orders above ``_CLT_MAX_N`` = 1448 are rejected, as one
    draw would outgrow a batch, and so are more than ``_MAX_DRAWS``
    draws, before anything is allocated.
    """
    if not (2 <= n <= _CLT_MAX_N and 1 <= reps <= _MAX_DRAWS):
        raise InvalidParameterError(
            f"need 2 <= n <= {_CLT_MAX_N} and 1 <= reps <= {_MAX_DRAWS}, "
            f"got n={n}, reps={reps}")
    gen = replace(rng, purpose="clt").generator()
    out = np.empty((reps, 2))
    batch = max(1, _CLT_BATCH_ELEMENTS // (n * n))
    sq = np.empty((n, n))
    for done in range(0, reps, batch):
        # no name holds the batch, so it is freed before the next is drawn
        _power_sums(sample_goe_dense(n, min(batch, reps - done), gen),
                    out[done:done + batch], sq)
    out[:, 0] /= math.sqrt(n)
    out[:, 1] /= n * math.sqrt(n)
    return out


def _power_sums(g: np.ndarray, out: np.ndarray, sq: np.ndarray) -> None:
    """Write tr G and tr G^3 = <G, G G^T> of each draw G of the batch ``g``
    into the rows of ``out``, with G G^T in the (n, n) buffer ``sq``."""
    out[:, 0] = np.trace(g, axis1=1, axis2=2)
    for row, x in zip(out, g):
        row[1] = np.vdot(x, np.matmul(x, x.T, out=sq))


def clt_covariance_estimate(n: int, reps: int, rng: RngState) -> CovMatrix2:
    """Empirical covariance of the (first, third) power-sum pair."""
    if reps < 2:
        raise InvalidParameterError(f"need reps >= 2, got {reps}")
    pairs = sample_clt_pairs(n, reps, rng)
    cov = np.cov(pairs, rowvar=False)
    return CovMatrix2(float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))


def limiting_tv_mc(p: LimitParams, samples: int,
                   rng: RngState) -> LimitEstimate:
    """Monte Carlo over the Gaussian limit pair.

    (N1, N3) is realized as (Y, 3Y + Z) with independent Y ~ N(0, 2) and
    Z ~ N(0, 6), which reproduces the covariance [[2, 6], [6, 24]].  The
    exponent s0 + s2 + s4 + k1 N1 + k3 N3 takes its coefficients from
    ``s_limit_vector`` and goes through the GOE-side TV integrand.  The
    draws come from the stream of ``rng`` with the purpose "limit", all at
    once, so more than ``_MAX_DRAWS`` samples are rejected before any is
    drawn.
    """
    if not 1 <= samples <= _MAX_DRAWS:
        raise InvalidParameterError(
            f"need 1 <= samples <= {_MAX_DRAWS}, got {samples}")
    s0, k1, s2, k3, s4 = s_limit_vector(p.c)
    gen = replace(rng, purpose="limit").generator()
    y = gen.standard_normal(samples) * math.sqrt(2.0)
    z = gen.standard_normal(samples) * math.sqrt(6.0)
    vals = _integrand(s0 + (s2 + s4) + k1 * y + k3 * (3.0 * y + z), GOE_SIDE)
    s = float(vals.sum())
    var = sample_variance(samples, float(((vals - s / samples) ** 2).sum()))
    return LimitEstimate(*mc_summary(s / samples, math.sqrt(var / samples)),
                         samples=samples, seed=rng.seed)


def asymptotic_tail(p: LimitParams) -> float:
    """Large-c decay 1 / (2 sqrt(3 pi) sqrt(c)) of the limiting TV."""
    return 1.0 / (2.0 * math.sqrt(3.0 * math.pi) * math.sqrt(p.c))


def s_limit_vector(c: float) -> tuple[float, float, float, float, float]:
    """Limit components of (s0..s4) at parameter c.

    Positions 0, 2, 4 are the deterministic limits of s0, s2, s4; positions
    1 and 3 are the coefficients multiplying (N1, N3) in the limits of s1
    and s3.  s0 depends on (n, d) only through d / n^3, so its limit is
    its value at n = 1, d = c.
    """
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    sqc = math.sqrt(c)
    return (s0_term(1, c), -1.0 / (2.0 * sqc),
            1.0 / (4.0 * c), 1.0 / (6.0 * sqc), -1.0 / (4.0 * c))
