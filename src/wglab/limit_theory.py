"""The limiting total variation distance and its confirmations.

In the critical scaling d / n^3 -> c the TV distance converges to
Erf(1 / (4 sqrt(3) sqrt(c))).  The same value is recovered two other ways:
by 1-D quadrature of the Gaussian functional the limit reduces to, and by
Monte Carlo over the joint Gaussian limit (N1, N3) of the first and third
normalized spectral power sums, which has mean zero and covariance
[[2, 6], [6, 24]].
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, InvalidParameterError
from .rng import RngState
from .spectral import batch_eigenvalues
from .ensembles import sample_goe_dense
from .tv_mc import TvEstimate, mc_summary


@dataclass(frozen=True)
class LimitParams:
    """The critical-window parameter c = lim d / n^3."""

    c: float

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"need finite c > 0, got {self.c}")


@dataclass(frozen=True)
class CltPair:
    """One draw of the (first, third) normalized power-sum pair."""

    n1: float
    n3: float


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

    The integrand is positive exactly for z <= 1 / (2 sqrt(c)), which sets
    the upper limit of integration.
    """
    c = p.c
    a = 1.0 / (12.0 * c)
    b = 1.0 / (6.0 * math.sqrt(c))
    zmax = 0.5 / math.sqrt(c)
    norm = 1.0 / math.sqrt(12.0 * math.pi)

    def f(z):
        return -np.expm1(-a + b * z) * norm * np.exp(-z * z / 12.0)

    val, _ = integrate.quad(f, -np.inf, zmax, epsabs=1e-12, epsrel=1e-12,
                            limit=200)
    return val


def sample_clt_pairs(n: int, reps: int, rng: RngState) -> np.ndarray:
    """(reps, 2) array of (sum mu_i, sum mu_i^3) over GOE draws of order n."""
    if n < 2 or reps < 1:
        raise InvalidParameterError(f"need n >= 2, reps >= 1, got n={n}, reps={reps}")
    gen = rng.generator()
    out = np.empty((reps, 2))
    batch = max(1, 2 ** 24 // (n * n))
    done = 0
    while done < reps:
        size = min(batch, reps - done)
        mu = batch_eigenvalues(sample_goe_dense(n, size, gen)) / math.sqrt(n)
        out[done:done + size, 0] = mu.sum(axis=1)
        out[done:done + size, 1] = (mu ** 3).sum(axis=1)
        done += size
    return out


def clt_covariance_estimate(n: int, reps: int, rng: RngState) -> CovMatrix2:
    """Empirical covariance of the (first, third) power-sum pair."""
    if reps < 2:
        raise InvalidParameterError(f"need reps >= 2, got {reps}")
    pairs = sample_clt_pairs(n, reps, rng)
    cov = np.cov(pairs, rowvar=False)
    return CovMatrix2(float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))


def _limit_integrand(c: float, n1: np.ndarray, n3: np.ndarray) -> np.ndarray:
    sqc = math.sqrt(c)
    expo = -1.0 / (12.0 * c) - n1 / (2.0 * sqc) + n3 / (6.0 * sqc)
    return np.where(expo < 0.0, -np.expm1(np.minimum(expo, 0.0)), 0.0)


def limiting_tv_mc(p: LimitParams, samples: int, rng: RngState) -> TvEstimate:
    """Monte Carlo over the Gaussian limit pair.

    (N1, N3) is realized as (Y, 3Y + Z) with independent Y ~ N(0, 2) and
    Z ~ N(0, 6), which reproduces the covariance [[2, 6], [6, 24]].
    """
    if samples < 1:
        raise InvalidParameterError(f"need samples >= 1, got {samples}")
    gen = rng.generator()
    y = gen.standard_normal(samples) * math.sqrt(2.0)
    z = gen.standard_normal(samples) * math.sqrt(6.0)
    vals = _limit_integrand(p.c, y, 3.0 * y + z)
    return TvEstimate(
        *mc_summary(float(vals.sum()), float((vals * vals).sum()), samples),
        samples=samples, side="limit", seed=rng.seed, n=0, d=0, frac_in_q=1.0,
        frac_psd=1.0)


def asymptotic_tail(p: LimitParams) -> float:
    """Large-c decay 1 / (2 sqrt(3 pi) sqrt(c)) of the limiting TV."""
    return 1.0 / (2.0 * math.sqrt(3.0 * math.pi) * math.sqrt(p.c))


def s_limit_vector(c: float) -> tuple[float, float, float, float, float]:
    """Limit components of (s0..s4) at parameter c.

    Positions 0, 2, 4 are the deterministic limits of s0, s2, s4; positions
    1 and 3 are the coefficients multiplying (N1, N3) in the limits of s1
    and s3.
    """
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    sqc = math.sqrt(c)
    return (-1.0 / (12.0 * c), -1.0 / (2.0 * sqc),
            1.0 / (4.0 * c), 1.0 / (6.0 * sqc), -1.0 / (4.0 * c))
