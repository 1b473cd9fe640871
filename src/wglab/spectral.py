"""Eigenvalues and the spectral statistics built on them.

Everything downstream of the samplers is a function of the spectrum alone:
the normalized eigenvalues (lambda_i - d) / sqrt(d n), their empirical
moments, and the semicircle reference moments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import SymmetricMatrix
from .errors import EigensolverError, InvalidParameterError


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class NormalizedSpectrum:
    """Normalized eigenvalues mu_i = (lambda_i - d) / sqrt(d n)."""

    mu: np.ndarray
    n: int
    d: int


def symmetric_eigenvalues(a: SymmetricMatrix) -> Spectrum:
    """Eigenvalues of a symmetric matrix, ascending."""
    return Spectrum(batch_eigenvalues(a.to_dense()[None])[0])


def batch_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (size, n, n) symmetric batch."""
    n = mats.shape[-1]
    if n == 1:
        return mats[:, :, 0].copy()
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(n, str(exc)) from exc


def normalize_spectrum(s: Spectrum, n: int, d: int) -> NormalizedSpectrum:
    """mu_i = (lambda_i - d) / sqrt(d n)."""
    if n != s.n:
        raise InvalidParameterError(f"n={n} does not match spectrum order {s.n}")
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    mu = (s.eigenvalues - d) / math.sqrt(d * n)
    return NormalizedSpectrum(mu, n, d)


def empirical_moment(ns: NormalizedSpectrum, k: int) -> float:
    """(1/n) sum_i mu_i^k."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    return math.fsum(ns.mu ** k) / ns.n


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
