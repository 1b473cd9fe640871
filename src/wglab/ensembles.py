"""Sampling of the GOE, its shifted-scaled variant, and the Wishart ensemble.

Conventions: ``sample_goe(n)`` draws a symmetric matrix with N(0, 2) diagonal
and N(0, 1) strict upper triangle, all independent.  The moment-matched
comparison ensemble is ``sqrt(d) * GOE + d * I``, and the Wishart matrix is
the Gram matrix X X^T of an n-by-d standard normal matrix X.  A matrix is
a dense numpy array: ``sample_goe`` and ``sample_wishart`` are size-1 views
of the batch samplers ``sample_goe_dense`` and ``sample_wishart_dense``, so a
scalar draw is bit for bit the one row of a batch on the same generator.

The Monte Carlo estimators draw neither dense matrix.  ``goe_tridiagonal`` and
``wishart_tridiagonal`` draw a symmetric tridiagonal X whose T = dI + sqrt(d) X
has exactly the spectral law of the dense ensemble (the beta = 1 Hermite and
Laguerre models of Dumitriu and Edelman, 2002), in O(n) per draw.  Both
return X as the pair ``(dev, off2)``: an (n, size) array of its diagonal and
an (n - 1, size) array of its squared off-diagonals, one column per draw.
The GOE-side X does not depend on d, so one batch serves every d; the
Wishart-side X = (W - dI) / sqrt(d) is drawn at its d.  The dense samplers
stay as the reference the tridiagonal ones are tested against.
"""

import math

import numpy as np

from .errors import InvalidParameterError
from .rng import RngState

_SQRT2 = np.sqrt(2.0)


def sample_goe(n: int, rng: RngState) -> np.ndarray:
    """One GOE draw of order n as a dense array, deterministic given the
    stream key: the one draw of ``sample_goe_dense`` on its generator."""
    if n < 1:
        raise InvalidParameterError(f"order must be positive, got {n}")
    return sample_goe_dense(n, 1, rng.generator())[0]


def sample_goe_dense(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """Batch of GOE draws as a (size, n, n) dense array.

    Each draw consumes n(n+1)/2 normals, its upper triangle in row-major
    order, and the draws follow one another on the stream; the diagonal is
    scaled to N(0, 2).  Every seeded GOE draw depends on this order.
    """
    z = gen.standard_normal((size, n * (n + 1) // 2))
    out = np.empty((size, n, n))
    start = 0
    # row i of the upper triangle is also column i below the diagonal
    for i in range(n):
        row = z[:, start:start + n - i]
        row[:, 0] *= _SQRT2
        out[:, i, i:] = row
        out[:, i + 1:, i] = row[:, 1:]
        start += n - i
    return out


def shift_scale_goe(m: np.ndarray, d: int) -> np.ndarray:
    """The moment-matched ensemble: sqrt(d) * m + d * I."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    return m * math.sqrt(d) + d * np.eye(m.shape[0])


def sample_wishart(n: int, d: int, rng: RngState) -> np.ndarray:
    """One n x n Wishart draw with d degrees of freedom (X X^T) as a dense
    array: the one draw of ``sample_wishart_dense`` on its generator."""
    if n < 1 or d < 1:
        raise InvalidParameterError(f"need n, d >= 1, got n={n}, d={d}")
    return sample_wishart_dense(n, d, 1, rng.generator())[0]


def sample_wishart_dense(n: int, d: int, size: int,
                         gen: np.random.Generator) -> np.ndarray:
    """Batch of Wishart draws as a (size, n, n) dense array."""
    x = gen.standard_normal((size, n, d))
    w = x @ np.swapaxes(x, 1, 2)
    # enforce exact symmetry for the eigensolver
    return (w + np.swapaxes(w, 1, 2)) / 2.0


def _chi2(dof: np.ndarray, gen: np.random.Generator,
          out: np.ndarray) -> np.ndarray:
    """Fill ``out``, of shape (len(dof), size), with chi-square variates,
    row k with dof[k] degrees, and return it.

    Row by row with a scalar shape: the same stream as one broadcast draw,
    which numpy runs through a slower per-element path.
    """
    for row, k in zip(out, dof.tolist()):
        gen.standard_gamma(0.5 * k, out=row)
    out *= 2.0
    return out


def goe_tridiagonal(n: int, size: int, gen: np.random.Generator,
                    empty=np.empty):
    """Batch of d-free tridiagonal draws X: dI + sqrt(d) X is spectrally
    sqrt(d) * GOE + d * I for every d.

    X = tridiag(g, e) with g_i ~ N(0, 2) and e_k^2 ~ chi^2_{n-k}:
    Householder tridiagonalization of this module's GOE, whose diagonal is
    N(0, 2), so there is no 1/sqrt(2) factor.  The normals come first, then
    the chi-squares row by row.  Returns ``(dev, off2)`` = (g, e^2) as
    described in the module docstring, in arrays made by ``empty(shape)``.
    """
    dev = gen.standard_normal(out=empty((n, size)))
    dev *= _SQRT2
    return dev, _chi2(np.arange(n - 1, 0, -1), gen, empty((n - 1, size)))


def wishart_tridiagonal(n: int, d: int, size: int, gen: np.random.Generator,
                        empty=np.empty):
    """Batch of tridiagonal draws X with dI + sqrt(d) X spectrally equal to
    W(n, d), d >= n.

    W = B B^T with B lower bidiagonal, c_i^2 ~ chi^2_{d-i+1} on the diagonal
    and s_i^2 ~ chi^2_{n-i} below it, so diag(W)_i = c_i^2 + s_{i-1}^2 and
    W_{i,i+1}^2 = s_i^2 c_i^2.  Returns ``(dev, off2)`` as described in the
    module docstring, in arrays made by ``empty(shape)``.
    """
    c2 = _chi2(np.arange(d, d - n, -1), gen, empty((n, size)))
    s2 = _chi2(np.arange(n - 1, 0, -1), gen, empty((n - 1, size)))
    off2 = np.multiply(s2, c2[:-1], out=empty((n - 1, size)))
    off2 /= d
    # c2 becomes dev in place
    c2 -= d
    c2[1:] += s2
    c2 /= math.sqrt(d)
    return c2, off2
