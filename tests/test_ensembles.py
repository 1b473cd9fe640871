import math

import numpy as np
import pytest

from wglab import (InvalidParameterError, RngState, sample_goe,
                   sample_wishart, shift_scale_goe, symmetric_eigenvalues)
from wglab.ensembles import (goe_tridiagonal, sample_goe_dense,
                             sample_wishart_dense, wishart_tridiagonal)


def test_reconstruction_exactly_symmetric():
    dense = sample_goe(17, RngState(0))
    assert np.array_equal(dense, dense.T)
    assert np.all(np.isfinite(dense))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_scalar_samplers_are_batch_rows(n):
    # the scalar samplers are size-1 views of the batch ones, bit for bit
    for seed in range(6):
        rng = RngState(seed, n)
        goe = sample_goe_dense(n, 1, rng.generator())[0]
        m = sample_goe(n, rng)
        assert m.tobytes() == goe.tobytes()
        for d in (1, 9, n ** 3 + 1):
            want = math.sqrt(d) * goe + d * np.eye(n)
            assert shift_scale_goe(m, d).tobytes() == want.tobytes()
        for d in (1, n, n + 3, 4 * n + 7):
            w = sample_wishart_dense(n, d, 1, rng.generator())[0]
            assert sample_wishart(n, d, rng).tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 33])
@pytest.mark.parametrize("size", [1, 4])
def test_goe_dense_matches_index_scatter(n, size):
    # the row-slice assembly against a scatter of the same packed normals
    # through the triu_indices of the upper triangle, bit for bit
    got = sample_goe_dense(n, size, RngState(n, size).generator())
    iu = np.triu_indices(n)
    z = RngState(n, size).generator().standard_normal((size, iu[0].size))
    z[:, iu[0] == iu[1]] *= np.sqrt(2.0)
    want = np.zeros((size, n, n))
    want[:, iu[0], iu[1]] = z
    want[:, iu[1], iu[0]] = z
    assert got.tobytes() == want.tobytes()


def test_invalid_order_rejected():
    with pytest.raises(InvalidParameterError):
        sample_goe(0, RngState(0))
    with pytest.raises(InvalidParameterError):
        sample_wishart(0, 3, RngState(0))
    with pytest.raises(InvalidParameterError):
        shift_scale_goe(sample_goe(2, RngState(0)), 0)


def test_goe_determinism():
    a = sample_goe(2, RngState(123, 5))
    b = sample_goe(2, RngState(123, 5))
    np.testing.assert_array_equal(a, b)
    c = sample_goe(2, RngState(123, 6))
    assert not np.array_equal(a, c)


def test_wishart_determinism():
    a = sample_wishart(3, 7, RngState(9))
    b = sample_wishart(3, 7, RngState(9))
    np.testing.assert_array_equal(a, b)


def test_goe_scalar_variance():
    # n=1 diagonal entry is N(0, 2)
    gen = RngState(42).generator()
    draws = sample_goe_dense(1, 100_000, gen)[:, 0, 0]
    assert abs(np.var(draws) - 2.0) < 0.1


def test_goe_entry_moments():
    # Var(off-diagonal)=1, Var(diagonal)=2, independent entries
    gen = RngState(7).generator()
    m11, m12 = [], []
    for _ in range(20):
        batch = sample_goe_dense(100, 500, gen)
        m11.append(batch[:, 0, 0])
        m12.append(batch[:, 0, 1])
    m11 = np.concatenate(m11)
    m12 = np.concatenate(m12)
    nrep = m11.shape[0]
    se_var = np.sqrt(2.0 / nrep)  # sd of normal sample variance / sigma^2
    assert abs(np.var(m12) - 1.0) < 3 * se_var
    assert abs(np.var(m11) - 2.0) < 3 * 2.0 * se_var
    se_cov = np.sqrt(np.var(m11) * np.var(m12) / nrep)
    assert abs(np.cov(m11, m12)[0, 1]) < 3 * se_cov


def test_shift_scale_d1_adds_identity():
    m = sample_goe(4, RngState(1))
    shifted = shift_scale_goe(m, 1)
    np.testing.assert_allclose(shifted, m + np.eye(4))


def test_shift_scale_scalar_formula():
    m = np.array([[1.5]])
    assert shift_scale_goe(m, 4)[0, 0] == pytest.approx(2 * 1.5 + 4)


def test_shift_scale_spectrum_relation():
    # eig(sqrt(d) m + d I) = sqrt(d) eig(m) + d
    m = sample_goe(5, RngState(3))
    d = 9
    direct = symmetric_eigenvalues(shift_scale_goe(m, d)).eigenvalues
    via = np.sqrt(d) * symmetric_eigenvalues(m).eigenvalues + d
    np.testing.assert_allclose(direct, via, rtol=1e-10, atol=1e-10)


def test_wishart_scalar_chi_square_moments():
    gen = RngState(8).generator()
    d = 7
    draws = sample_wishart_dense(1, d, 100_000, gen)[:, 0, 0]
    nrep = draws.shape[0]
    se_mean = draws.std() / np.sqrt(nrep)
    assert abs(draws.mean() - d) < 3 * se_mean
    dev2 = (draws - draws.mean()) ** 2
    se_var = dev2.std() / np.sqrt(nrep)
    assert abs(np.var(draws) - 2 * d) < 3 * se_var


def test_wishart_chi_square_1dof_mean():
    gen = RngState(2).generator()
    draws = sample_wishart_dense(1, 1, 100_000, gen)[:, 0, 0]
    se = draws.std() / np.sqrt(draws.shape[0])
    assert abs(draws.mean() - 1.0) < 3 * se


@pytest.mark.parametrize("n,d", [(2, 2), (5, 8), (10, 50)])
def test_wishart_psd(n, d):
    gen = RngState(13).generator()
    mats = sample_wishart_dense(n, d, 200, gen)
    lam_min = np.linalg.eigvalsh(mats)[:, 0]
    assert np.all(lam_min >= -1e-8 * d)


def test_mean_structure():
    # entrywise means of both ensembles approach d * I
    n, d, reps = 4, 20, 4000
    gen = RngState(5).generator()
    w = sample_wishart_dense(n, d, reps, gen)
    m = np.sqrt(d) * sample_goe_dense(n, reps, gen)
    m[:, np.arange(n), np.arange(n)] += d
    target = d * np.eye(n)
    for batch in (w, m):
        mean = batch.mean(axis=0)
        se = batch.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(mean - target) < 4 * se)


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_tridiagonal_streams_pinned(n):
    # both samplers against the broadcast formulas they were written with,
    # bit for bit on a fixed stream key (SFC64 on a SeedSequence): the
    # row-by-row chi-square draw and the in-place scaling move no variate.
    # The GOE-side X is d-free, and sqrt(d) X is the T - dI that the same
    # variates gave when the draw was scaled by d, up to rounding
    size = 37
    gen = RngState(2024, n).generator()
    z = gen.standard_normal((n, size))
    chi2 = 2.0 * gen.standard_gamma(0.5 * np.arange(n - 1, 0, -1)[:, None],
                                    size=(n - 1, size))
    got = goe_tridiagonal(n, size, RngState(2024, n).generator())
    assert [x.tobytes() for x in got] == [(np.sqrt(2.0) * z).tobytes(),
                                          chi2.tobytes()]
    for d in (n, n ** 3 + 3):
        np.testing.assert_allclose(math.sqrt(d) * got[0],
                                   math.sqrt(2.0 * d) * z, rtol=5e-16)
        gen = RngState(2025, n).generator()
        c2 = 2.0 * gen.standard_gamma(0.5 * np.arange(d, d - n, -1)[:, None],
                                      size=(n, size))
        s2 = 2.0 * gen.standard_gamma(0.5 * np.arange(n - 1, 0, -1)[:, None],
                                      size=(n - 1, size))
        dev = c2 - d
        dev[1:] += s2
        got_w = wishart_tridiagonal(n, d, size, RngState(2025, n).generator())
        assert [x.tobytes() for x in got_w] == [
            (dev / math.sqrt(d)).tobytes(), (s2 * c2[:-1] / d).tobytes()]
