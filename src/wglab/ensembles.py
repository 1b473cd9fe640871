"""Sampling of the GOE, its shifted-scaled variant, and the Wishart ensemble.

Conventions: ``sample_goe(n)`` draws a symmetric matrix with N(0, 2) diagonal
and N(0, 1) strict upper triangle, all independent.  The moment-matched
comparison ensemble is ``sqrt(d) * GOE + d * I``, and the Wishart matrix is
the Gram matrix X X^T of an n-by-d standard normal matrix X.

The Monte Carlo estimators draw neither dense matrix.  ``goe_tridiagonal`` and
``wishart_tridiagonal`` draw a symmetric tridiagonal T whose spectrum has
exactly the law of the dense ensemble's spectrum (the beta = 1 Hermite and
Laguerre models of Dumitriu and Edelman, 2002), in O(n) per draw.  Both
return T as the pair ``(dev, off2)``: an (n, size) array of the diagonal
deviations T_ii - d and an (n - 1, size) array of the squared off-diagonals
T_{i,i+1}^2, one column per draw.  The dense samplers stay as the reference
the tridiagonal ones are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .rng import RngState

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SymmetricMatrix:
    """Real symmetric matrix stored as its packed upper triangle.

    ``packed`` holds the upper triangle in row-major order, length
    n(n+1)/2.  Reconstruction mirrors the stored triangle, so the dense
    form is symmetric exactly.
    """

    n: int
    packed: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"order must be positive, got {self.n}")
        expected = self.n * (self.n + 1) // 2
        if self.packed.shape != (expected,):
            raise InvalidParameterError(
                f"packed length {self.packed.shape} != {expected} for n={self.n}")
        if not np.all(np.isfinite(self.packed)):
            raise InvalidParameterError("non-finite entries")

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n)
        a[iu] = self.packed
        a.T[iu] = self.packed
        return a

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return float(self.packed[i * self.n - i * (i - 1) // 2 + (j - i)])

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricMatrix":
        n = a.shape[0]
        return cls(n, a[np.triu_indices(n)].copy())


def _diag_packed_indices(n: int) -> np.ndarray:
    i = np.arange(n)
    return i * n - i * (i - 1) // 2


def _packed_goe(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((size, n * (n + 1) // 2))
    z[:, _diag_packed_indices(n)] *= _SQRT2
    return z


def sample_goe(n: int, rng: RngState) -> SymmetricMatrix:
    """One GOE draw of order n, deterministic given the stream key."""
    if n < 1:
        raise InvalidParameterError(f"order must be positive, got {n}")
    packed = _packed_goe(n, 1, rng.generator())[0]
    return SymmetricMatrix(n, packed)


def sample_goe_dense(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """Batch of GOE draws as a (size, n, n) dense array.

    Consumes the stream in the same order as repeated single draws would
    consume per-matrix blocks; used by the Monte Carlo loops.
    """
    packed = _packed_goe(n, size, gen)
    out = np.zeros((size, n, n))
    iu = np.triu_indices(n)
    out[:, iu[0], iu[1]] = packed
    out[:, iu[1], iu[0]] = packed
    return out


def shift_scale_goe(m: SymmetricMatrix, d: int) -> SymmetricMatrix:
    """The moment-matched ensemble: sqrt(d) * m + d * I."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    packed = m.packed * np.sqrt(float(d))
    packed[_diag_packed_indices(m.n)] += float(d)
    return SymmetricMatrix(m.n, packed)


def sample_wishart(n: int, d: int, rng: RngState) -> SymmetricMatrix:
    """One n x n Wishart draw with d degrees of freedom (X X^T)."""
    if n < 1 or d < 1:
        raise InvalidParameterError(f"need n, d >= 1, got n={n}, d={d}")
    x = rng.generator().standard_normal((n, d))
    return SymmetricMatrix.from_dense(x @ x.T)


def sample_wishart_dense(n: int, d: int, size: int,
                         gen: np.random.Generator) -> np.ndarray:
    """Batch of Wishart draws as a (size, n, n) dense array."""
    x = gen.standard_normal((size, n, d))
    w = x @ np.swapaxes(x, 1, 2)
    # enforce exact symmetry for the eigensolver
    return (w + np.swapaxes(w, 1, 2)) / 2.0


def _chi2(dof: np.ndarray, size: int, gen: np.random.Generator) -> np.ndarray:
    """(len(dof), size) chi-square variates, row k with dof[k] degrees."""
    return 2.0 * gen.standard_gamma(0.5 * dof[:, None], size=(dof.size, size))


def goe_tridiagonal(n: int, d: int, size: int, gen: np.random.Generator):
    """Batch of tridiagonal draws spectrally equal to sqrt(d) * GOE + d * I.

    T - d I = sqrt(d) * tridiag(g, b) with g_i ~ N(0, 2) and
    b_k^2 ~ chi^2_{n-k}: Householder tridiagonalization of this module's GOE,
    whose diagonal is N(0, 2), so there is no 1/sqrt(2) factor.  Returns
    ``(dev, off2)`` as described in the module docstring.
    """
    dev = math.sqrt(2.0 * d) * gen.standard_normal((n, size))
    off2 = d * _chi2(np.arange(n - 1, 0, -1), size, gen)
    return dev, off2


def wishart_tridiagonal(n: int, d: int, size: int, gen: np.random.Generator):
    """Batch of tridiagonal draws spectrally equal to W(n, d), d >= n.

    W = B B^T with B lower bidiagonal, c_i^2 ~ chi^2_{d-i+1} on the diagonal
    and s_i^2 ~ chi^2_{n-i} below it, so diag(W)_i = c_i^2 + s_{i-1}^2 and
    W_{i,i+1}^2 = s_i^2 c_i^2.  Returns ``(dev, off2)`` as described in the
    module docstring.
    """
    c2 = _chi2(np.arange(d, d - n, -1), size, gen)
    s2 = _chi2(np.arange(n - 1, 0, -1), size, gen)
    dev = c2 - d
    dev[1:] += s2
    return dev, s2 * c2[:-1]
