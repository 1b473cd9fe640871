"""Eigenvalues and the spectral statistics built on them.

Everything downstream of the samplers is a function of the spectrum alone:
the normalized eigenvalues (lambda_i - d) / sqrt(d n), their empirical
moments, and the semicircle reference moments.  Matrices are dense numpy
arrays; ``symmetric_eigenvalues`` is the size-1 view of ``batch_eigenvalues``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, InvalidParameterError


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def symmetric_eigenvalues(a: np.ndarray) -> Spectrum:
    """Eigenvalues of an (n, n) symmetric array, ascending."""
    return Spectrum(batch_eigenvalues(a[None])[0])


def batch_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (size, n, n) symmetric batch."""
    n = mats.shape[-1]
    if n == 1:
        return mats[:, :, 0].copy()
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(n, str(exc)) from exc


def normalize_spectrum(s: Spectrum, n: int, d: int) -> np.ndarray:
    """The normalized eigenvalues mu_i = (lambda_i - d) / sqrt(d n)."""
    if n != s.n:
        raise InvalidParameterError(f"n={n} does not match spectrum order {s.n}")
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    return (s.eigenvalues - d) / math.sqrt(d * n)


def empirical_moment(mu: np.ndarray, k: int) -> float:
    """(1/n) sum_i mu_i^k over the n normalized eigenvalues mu."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    return math.fsum(mu ** k) / mu.size


def semicircle_moment(k: int) -> float:
    """Exact k-th moment of the semicircle density on [-2, 2].

    Odd moments vanish; the 2m-th moment is the m-th Catalan number,
    computed by integer recurrence.
    """
    if k < 0:
        raise InvalidParameterError(f"need k >= 0, got {k}")
    if k % 2 == 1:
        return 0.0
    cat = 1
    for m in range(k // 2):
        cat = cat * 2 * (2 * m + 1) // (m + 2)
    return float(cat)
