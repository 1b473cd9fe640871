import math

import numpy as np
import pytest
from scipy import integrate

from wglab import (RngState, Spectrum, empirical_moment, normalize_spectrum,
                   sample_goe, semicircle_moment, shift_scale_goe,
                   symmetric_eigenvalues)
from wglab.ensembles import sample_goe_dense
from wglab.spectral import batch_eigenvalues


def test_identity_spectrum():
    s = symmetric_eigenvalues(np.eye(6))
    np.testing.assert_allclose(s.eigenvalues, np.ones(6))


def test_two_by_two_closed_form():
    # [[a, b], [b, c]] has eigenvalues ((a+c) -+ sqrt((a-c)^2 + 4 b^2)) / 2
    a, b, c = 1.0, 2.0, 3.0
    s = symmetric_eigenvalues(np.array([[a, b], [b, c]]))
    disc = math.sqrt((a - c) ** 2 + 4 * b * b)
    np.testing.assert_allclose(
        s.eigenvalues, [(a + c - disc) / 2, (a + c + disc) / 2], atol=1e-12)


def test_orthogonal_conjugation_recovers_spectrum():
    rng = RngState(4).generator()
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    target = np.arange(1.0, 9.0)
    a = q @ np.diag(target) @ q.T
    s = symmetric_eigenvalues((a + a.T) / 2)
    np.testing.assert_allclose(s.eigenvalues, target, atol=1e-10)


def test_eigenvalues_sorted_and_trace_identity():
    for seed in range(5):
        m = sample_goe(20, RngState(seed))
        s = symmetric_eigenvalues(m)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        tr = np.trace(m)
        scale = 20 * max(abs(s.eigenvalues).max(), 1.0)
        assert abs(math.fsum(s.eigenvalues) - tr) <= 1e-10 * scale


def test_normalize_trivial():
    s = Spectrum(np.full(3, 4.0))
    mu = normalize_spectrum(s, 3, 4)
    np.testing.assert_array_equal(mu, np.zeros(3))
    one = normalize_spectrum(Spectrum(np.array([6.0])), 1, 4)
    assert one[0] == pytest.approx(1.0)


def test_normalize_matches_unscaled_goe_spectrum():
    # spectrum of M(n)/sqrt(n) equals the normalized spectrum of M(n, d)
    n, d = 50, 200
    m = sample_goe(n, RngState(21))
    mu_direct = symmetric_eigenvalues(m).eigenvalues / math.sqrt(n)
    shifted = symmetric_eigenvalues(shift_scale_goe(m, d))
    mu = normalize_spectrum(shifted, n, d)
    np.testing.assert_allclose(mu, mu_direct, atol=1e-8)


def test_empirical_moment_zero_vector():
    mu = normalize_spectrum(Spectrum(np.full(4, 7.0)), 4, 7)
    assert empirical_moment(mu, 3) == 0.0


def test_empirical_moments_approach_semicircle():
    # with d = n the normalized spectrum of M(n, d) is eig(M(n)) / sqrt(n)
    n = 500
    m2, m4 = [], []
    for seed in range(5):
        m = sample_goe(n, RngState(seed))
        s = symmetric_eigenvalues(shift_scale_goe(m, n))
        mu = normalize_spectrum(s, n, n)
        m2.append(empirical_moment(mu, 2))
        m4.append(empirical_moment(mu, 4))
    assert abs(np.mean(m2) - 1.0) < 0.05
    assert abs(np.mean(m4) - 2.0) < 0.15


@pytest.mark.parametrize("k,expected", [(0, 1.0), (2, 1.0), (4, 2.0),
                                        (6, 5.0), (8, 14.0),
                                        (1, 0.0), (3, 0.0), (7, 0.0)])
def test_semicircle_moments(k, expected):
    assert semicircle_moment(k) == expected


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_semicircle_moments_match_quadrature(k):
    val, _ = integrate.quad(
        lambda x: x ** k * np.sqrt(4 - x * x) / (2 * np.pi), -2, 2)
    assert semicircle_moment(k) == pytest.approx(val, abs=1e-9)


def test_moment_identity_vs_trace_powers():
    # sum mu_i^k equals Tr((M/sqrt(n))^k)
    n = 50
    m = sample_goe(n, RngState(31)) / math.sqrt(n)
    mu = np.linalg.eigvalsh(m)
    power = np.eye(n)
    for k in range(1, 5):
        power = power @ m
        assert math.fsum(mu ** k) == pytest.approx(np.trace(power), abs=1e-8)


def test_semicircle_convergence_in_n():
    seeds = range(40)
    med = {}
    for n in (50, 200, 800):
        errs2, errs4 = [], []
        for seed in seeds:
            mu = batch_eigenvalues(sample_goe_dense(
                n, 1, RngState(seed, stream_id=n).generator()))[0] / math.sqrt(n)
            errs2.append(abs(np.mean(mu ** 2) - 1.0))
            errs4.append(abs(np.mean(mu ** 4) - 2.0))
        med[n] = (np.median(errs2), np.median(errs4))
    for idx in (0, 1):
        assert med[50][idx] > med[200][idx] > med[800][idx]


def test_eigenvalue_support_mostly_in_window():
    # nearly all seeds keep every normalized eigenvalue inside [-3, 3]
    n = 64
    gen = RngState(99).generator()
    mu = batch_eigenvalues(sample_goe_dense(n, 200, gen)) / math.sqrt(n)
    inside = np.all(np.abs(mu) <= 3.0, axis=1)
    assert inside.mean() >= 0.99
