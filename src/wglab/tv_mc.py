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

Samples are partitioned across worker substreams and the per-worker partial
sums are merged in fixed worker order, so a fixed (seed, worker count) gives
bit-identical results whether or not the workers actually run in parallel.
The pool never starts more processes than the machine has CPUs.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .densities import AlphaBreakdown, alpha_from_tridiagonal, s_decomposition
from .ensembles import goe_tridiagonal, wishart_tridiagonal
from .errors import InvalidParameterError
from .rng import RngState
from .spectral import Spectrum

GOE_SIDE = "goe_side"
WISHART_SIDE = "wishart_side"

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

# draws times n per sampling batch; a batch peaks at about ten (n, size)
# float arrays, so this bounds its memory near 20 MB
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


def _worker_values(n, d, count, rng, side):
    """Integrand values plus Q/PSD counts for one worker's substream."""
    gen = rng.generator()
    sample = goe_tridiagonal if side == GOE_SIDE else wishart_tridiagonal
    batch = _batch_size(n)
    chunks = []
    n_q = 0
    n_psd = 0
    done = 0
    while done < count:
        size = min(batch, count - done)
        alpha, q, psd = alpha_from_tridiagonal(*sample(n, d, size, gen), n, d)
        chunks.append(_integrand(alpha, side))
        n_q += int(np.count_nonzero(q))
        n_psd += int(np.count_nonzero(psd))
        done += size
    return np.concatenate(chunks), n_q, n_psd


def _worker_stats(args):
    values, n_q, n_psd = _worker_values(*args)
    return (float(values.sum()), float((values * values).sum()),
            values.shape[0], n_q, n_psd)


def _partition(samples: int, workers: int) -> list[int]:
    """Sample counts of min(workers, samples) parts, all positive."""
    parts = min(workers, samples)
    base, extra = divmod(samples, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _estimate(n, d, samples, rng, side, workers):
    _check_params(n, d, samples)
    if workers < 1:
        raise InvalidParameterError(f"need workers >= 1, got {workers}")
    tasks = [(n, d, c, rng.substream(i), side)
             for i, c in enumerate(_partition(samples, workers))]
    if len(tasks) > 1:
        # more tasks than CPUs queue on the pool; the merge order, and so
        # the result, depends on the task list alone
        procs = min(len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_worker_stats, tasks))
    else:
        parts = [_worker_stats(t) for t in tasks]
    total = sum(p[2] for p in parts)
    s = math.fsum(p[0] for p in parts)
    ss = math.fsum(p[1] for p in parts)
    mean = s / total
    if total > 1:
        var = max(ss - s * s / total, 0.0) / (total - 1)
        stderr = math.sqrt(var / total)
    else:
        stderr = 0.0
    return TvEstimate(
        mean=mean,
        stderr=stderr,
        ci_lo=max(mean - Z99 * stderr, 0.0),
        ci_hi=min(mean + Z99 * stderr, 1.0),
        samples=total,
        side=side,
        seed=rng.seed,
        n=n,
        d=d,
        frac_in_q=sum(p[3] for p in parts) / total,
        frac_psd=sum(p[4] for p in parts) / total,
    )


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
    """Per-draw alpha breakdowns and integrands for GOE-side sampling.

    Uses the same draw sequence and the same batch alpha as
    ``tv_estimate_goe_side`` with one worker, so the integrands reproduce
    the estimator's mean; the breakdowns take the eigenvalues of each
    tridiagonal draw.
    """
    _check_params(n, d, samples)
    gen = rng.substream(0).generator()
    batch = _batch_size(n)
    records = []
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        dev, off2 = goe_tridiagonal(n, d, size, gen)
        alpha, _, _ = alpha_from_tridiagonal(dev, off2, n, d)
        vals = _integrand(alpha, GOE_SIDE)
        diag, off = dev.T + d, np.sqrt(off2.T)
        for k, v in enumerate(vals):
            eigs = eigvalsh_tridiagonal(diag[k], off[k])
            bd = s_decomposition(Spectrum(eigs), n, d)
            records.append(ProfileRecord(bd, float(v)))
        done += size
    return records
