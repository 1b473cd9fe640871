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

from .densities import s0_term
from .errors import DomainError, InvalidParameterError
from .rng import RngState
from .spectral import batch_eigenvalues
from .ensembles import sample_goe_dense
from .tv_mc import GOE_SIDE, _integrand, mc_summary, sample_variance


@dataclass(frozen=True)
class LimitParams:
    """The critical-window parameter c = lim d / n^3."""

    c: float

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"need finite c > 0, got {self.c}")


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
    sets the upper limit of integration.
    """
    s0, k1, s2, k3, s4 = s_limit_vector(p.c)
    a = -(s0 + (s2 + s4))
    b = k3
    zmax = a / b
    norm = 1.0 / math.sqrt(12.0 * math.pi)

    def f(z):
        return _integrand(-a + b * z, GOE_SIDE) * norm * np.exp(-z * z / 12.0)

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


def limiting_tv_mc(p: LimitParams, samples: int,
                   rng: RngState) -> LimitEstimate:
    """Monte Carlo over the Gaussian limit pair.

    (N1, N3) is realized as (Y, 3Y + Z) with independent Y ~ N(0, 2) and
    Z ~ N(0, 6), which reproduces the covariance [[2, 6], [6, 24]].  The
    exponent s0 + s2 + s4 + k1 N1 + k3 N3 takes its coefficients from
    ``s_limit_vector`` and goes through the GOE-side TV integrand.
    """
    if samples < 1:
        raise InvalidParameterError(f"need samples >= 1, got {samples}")
    s0, k1, s2, k3, s4 = s_limit_vector(p.c)
    gen = rng.generator()
    y = gen.standard_normal(samples) * math.sqrt(2.0)
    z = gen.standard_normal(samples) * math.sqrt(6.0)
    vals = _integrand(s0 + (s2 + s4) + k1 * y + k3 * (3.0 * y + z), GOE_SIDE)
    s = float(vals.sum())
    var = sample_variance(s, float((vals * vals).sum()), samples)
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
