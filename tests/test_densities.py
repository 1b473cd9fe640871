import io
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from wglab import (InvalidParameterError, RngState, Spectrum, alpha_exact,
                   alpha_from_densities, in_q, log_goe_density,
                   log_wishart_density, s_decomposition, sample_goe,
                   shift_scale_goe, symmetric_eigenvalues)
from wglab.cli import cli_dispatch
from wglab.densities import (_sturm_counts, _taylor_terms,
                             alpha_from_eigenvalues, alpha_from_tridiagonal,
                             in_q_mask, linear_statistic_variance,
                             power_sum_moments, q_half_width,
                             spectrum_constant)
from wglab.ensembles import (goe_tridiagonal, sample_goe_dense,
                             wishart_tridiagonal)
from wglab.spectral import batch_eigenvalues


def chi2_logpdf(x, d):
    """High-precision chi-square(d) log pdf (independent oracle)."""
    with mp.workdps(50):
        v = ((mp.mpf(d) / 2 - 1) * mp.log(x) - mp.mpf(x) / 2
             - mp.mpf(d) / 2 * mp.log(2) - mp.log(mp.gamma(mp.mpf(d) / 2)))
        return float(v)


def normal_logpdf(x, mean, var):
    with mp.workdps(50):
        v = -mp.mpf(x - mean) ** 2 / (2 * var) - mp.log(2 * mp.pi * var) / 2
        return float(v)


# --- densities ------------------------------------------------------------

def test_wishart_density_scalar_point():
    got = log_wishart_density(Spectrum(np.array([3.0])), 1, 3)
    assert got == pytest.approx(chi2_logpdf(3.0, 3), abs=1e-12)


@pytest.mark.parametrize("d", [1, 3, 10, 50])
def test_wishart_density_matches_chi_square_grid(d):
    grid = np.linspace(0.3, 3.0 * d, 20)
    for x in grid:
        got = log_wishart_density(Spectrum(np.array([x])), 1, d)
        assert got == pytest.approx(chi2_logpdf(x, d), abs=1e-12)


def test_wishart_density_off_cone():
    assert log_wishart_density(Spectrum(np.array([-0.1, 2.0])), 2, 5) == -math.inf


def test_wishart_density_requires_d_ge_n():
    with pytest.raises(InvalidParameterError):
        log_wishart_density(Spectrum(np.ones(3)), 3, 2)


@pytest.mark.parametrize("d", [3, 10])
def test_goe_density_matches_normal_grid(d):
    # at n=1 the shifted ensemble is N(d, 2d)
    grid = np.linspace(d - 3 * math.sqrt(2 * d), d + 3 * math.sqrt(2 * d), 20)
    for x in grid:
        got = log_goe_density(Spectrum(np.array([x])), 1, d)
        assert got == pytest.approx(normal_logpdf(x, d, 2 * d), abs=1e-12)


def test_goe_density_at_center():
    n, d = 4, 9
    got = log_goe_density(Spectrum(np.full(n, float(d))), n, d)
    ref = -n * (n + 1) / 4 * math.log(2 * math.pi * d) - n / 2 * math.log(2)
    assert got == pytest.approx(ref, rel=1e-14)


# --- alpha ----------------------------------------------------------------

def test_alpha_scalar_matches_pdf_ratio():
    d = 3
    for x in np.linspace(0.5, 12.0, 15):
        s = Spectrum(np.array([x]))
        ref = chi2_logpdf(x, d) - normal_logpdf(x, d, 2 * d)
        assert alpha_exact(s, 1, d) == pytest.approx(ref, abs=1e-10)
        assert alpha_from_densities(s, 1, d) == pytest.approx(ref, abs=1e-10)


def spectrum_constant_oracle(n, d):
    """K(n, d) summed term by term in extended precision: 40 digits beyond
    the d log d scale of each term."""
    with mp.workdps(40 + len(str(d))):
        d = mp.mpf(d)
        k = (mp.mpf(n) / 2 * (d - n - 1) * mp.log(d) - n * d / 2
             + (mp.mpf(n) * (n + 3) / 4 - d * n / 2) * mp.log(2)
             + mp.mpf(n) / 2 * mp.log(mp.pi)
             + mp.mpf(n) * (n + 1) / 4 * mp.log(d)
             - mp.fsum(mp.loggamma((d + 1 - i) / 2) for i in range(1, n + 1)))
        return float(k)


def test_alpha_at_deterministic_spectrum_equals_constant():
    n, d = 3, 100
    s = Spectrum(np.full(n, float(d)))
    assert alpha_exact(s, n, d) == pytest.approx(spectrum_constant(n, d), abs=1e-12)
    ref = spectrum_constant_oracle(n, d)
    # direct-form alpha agrees at the same spectrum
    assert alpha_from_densities(s, n, d) == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("n, d", [(3, 100), (32, 32 ** 3),
                                  (128, 10 * 128 ** 3), (1024, 1024 ** 3),
                                  (1024, 10 * 1024 ** 3)])
def test_spectrum_constant_matches_extended_precision(n, d):
    # the log d and log 2 terms cancel exactly in the sum; grouping lgamma
    # against them per term lost 3.5e-4 at n = 1024, d = 1024^3, and 7.8e-3
    # at ten times that d, where K itself is -8.3e-3
    assert spectrum_constant(n, d) == pytest.approx(
        spectrum_constant_oracle(n, d), abs=1e-10)


def test_alpha_off_cone():
    assert alpha_exact(Spectrum(np.array([-0.5, 1.0])), 2, 5) == -math.inf
    assert alpha_from_densities(Spectrum(np.array([-0.5, 1.0])), 2, 5) == -math.inf


def test_alpha_path_equivalence_on_q_window_draws():
    # centered form vs direct log-density subtraction
    for n, d, seed in [(4, 64, 0), (16, 4096, 1), (32, 32768, 2), (64, 262144, 3)]:
        m = sample_goe(n, RngState(seed))
        s = symmetric_eigenvalues(shift_scale_goe(m, d))
        if not in_q(s, n, d):
            continue
        a1 = alpha_exact(s, n, d)
        a2 = alpha_from_densities(s, n, d)
        assert abs(a1 - a2) <= 1e-6


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), ratio=st.integers(1, 10 ** 5), data=st.data())
def test_alpha_centered_matches_direct_subtraction(n, ratio, data):
    # random spectra lambda = d (1 + u), some off the PSD cone
    d = n * ratio
    u = data.draw(st.lists(st.floats(-1.5, 3.0), min_size=n, max_size=n))
    lam = np.sort(d * (1.0 + np.array(u)))
    s = Spectrum(lam)
    centered, direct = alpha_exact(s, n, d), alpha_from_densities(s, n, d)
    if lam[0] <= 0.0:
        assert centered == direct == -math.inf
        return
    # the direct path subtracts log densities assembled from terms as large
    # as (d/2) sum |log lambda_i|, n log Gamma(d/2) ~ (n d / 2) log d and
    # sum lambda / 2, each rounded to about one ulp: the tolerance is 8 ulps
    # of this scale (the largest error seen over 4e4 random spectra was
    # 0.93 ulp of it)
    scale = (n * d * (1.0 + math.log(d)) + d * np.abs(np.log(lam)).sum()
             + lam.sum())
    assert abs(centered - direct) <= 8 * np.finfo(float).eps * scale


def test_alpha_sum_h_approximation():
    # alpha is close to sum h(lambda_i) - n^3 / (12 d) at n=32, d=n^3
    n, d = 32, 32768
    gen = RngState(17).generator()
    eigs = batch_eigenvalues(
        math.sqrt(d) * sample_goe_dense(n, 20, gen)
        + d * np.eye(n)[None, :, :])
    checked = 0
    for row in eigs:
        s = Spectrum(row)
        if not in_q(s, n, d):
            continue
        t = row / d - 1.0
        h_sum = math.fsum(0.5 * ((d - n - 1) * np.log1p(t) - d * t
                                 + 0.5 * d * t * t))
        approx = h_sum - n ** 3 / (12.0 * d)
        assert abs(alpha_from_densities(s, n, d) - approx) <= 0.02
        checked += 1
    assert checked >= 15


# --- taylor coefficients --------------------------------------------------

def test_taylor_coeff_values():
    # h_k / k! at n = 3, d = 100: h_1 = -0.02, h_2 = 2e-4, h_3 = 9.6e-5 and
    # h_4 = -2.88e-6, each quotient correctly rounded
    assert _taylor_terms(3, 100) == (-0.02, 1e-4, 1.6e-5, -1.2e-7)


@pytest.mark.parametrize("d", [10 ** 77, 10 ** 100, 10 ** 150])
def test_taylor_coeffs_at_huge_d(d):
    # d^4 passes the float range at d ~ 1.2e77 and d^3 at 5.6e102, while d^2
    # is a float up to 1.3e154; each coefficient is the quotient correctly
    # rounded (or 0 where it underflows)
    with mp.workdps(50):
        x = mp.mpf(d)
        want = (-4 / (2 * x), 4 / (4 * x ** 2), (x - 4) / (6 * x ** 3),
                -(x - 4) / (8 * x ** 4))
    got = _taylor_terms(3, d)
    assert all(math.isfinite(g) for g in got)
    assert got == pytest.approx([float(w) for w in want], rel=1e-15, abs=0)


def _expectation(poly, n):
    """E of a polynomial {exponents: coefficient} in a_1..a_n ~ N(0, 2) and
    s_1..s_{n-1}, s_i ~ chi^2_{n-i}, all independent: exact moments."""
    total = Fraction(0)
    for powers, coef in poly.items():
        term = Fraction(coef)
        for k in powers[:n]:
            # E a^k = (k - 1)!! 2^(k/2) for even k, 0 for odd
            term *= (0 if k % 2 else
                     math.prod(range(k - 1, 0, -2)) * 2 ** (k // 2))
        for i, k in enumerate(powers[n:], 1):
            # E s^k = nu (nu + 2) ... (nu + 2k - 2), nu = n - i
            term *= math.prod(n - i + 2 * j for j in range(k))
        total += term
    return total


def _poly_mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_sum_moments_exact(n):
    # the trace formulas p1 = sum a, p2 = sum a^2 + 2 sum s and
    # p3 = sum a^3 + 3 sum s_i (a_i + a_{i+1}) of the tridiagonal model,
    # expanded as polynomials and averaged exactly, with no sampling
    def var(i, k=1):
        return tuple(k if j == i else 0 for j in range(2 * n - 1))

    def poly(*terms):
        out = {}
        for coef, *factors in terms:
            key = tuple(map(sum, zip(*factors)))
            out[key] = out.get(key, 0) + coef
        return out

    a = range(n)
    s = range(n, 2 * n - 1)
    p1 = poly(*((1, var(i)) for i in a))
    p2 = poly(*((1, var(i, 2)) for i in a), *((2, var(j)) for j in s))
    p3 = poly(*((1, var(i, 3)) for i in a),
              *((3, var(j), var(j - n + k)) for j in s for k in (0, 1)))
    got = tuple(_expectation(x, n) for x in (_poly_mul(p1, p1), p2,
                                             _poly_mul(p1, p3),
                                             _poly_mul(p3, p3)))
    assert got == power_sum_moments(n)


def test_linear_statistic_variance_exact():
    # v(n) = E sigma^2 = 2 sum_i (1 - 2 m_i / (n - 1)
    # + (m_i^2 + 2 m_i) / (n - 1)^2), with m_i = E w_i the degrees of
    # freedom of w_i = e_{i-1}^2 + e_i^2, summed in exact rationals: the
    # closed form is its correctly rounded value at every n >= 2
    for n in range(2, 65):
        m = [(n - i + 1) * (i > 1) + (n - i) * (i < n)
             for i in range(1, n + 1)]
        exact = 2 * sum(1 - Fraction(2 * k, n - 1)
                        + Fraction(k * k + 2 * k, (n - 1) ** 2) for k in m)
        assert linear_statistic_variance(n) == float(exact)


# --- S decomposition and the Q window -------------------------------------

def test_s0_value():
    bd = s_decomposition(Spectrum(np.full(10, 1000.0)), 10, 1000)
    assert bd.s0 == pytest.approx(-1.0 / 12.0)


def test_s_decomposition_at_deterministic_spectrum():
    n, d = 5, 200
    bd = s_decomposition(Spectrum(np.full(n, float(d))), n, d)
    assert bd.s1 == bd.s2 == bd.s3 == bd.s4 == 0.0
    assert bd.remainder == pytest.approx(spectrum_constant(n, d) - bd.s0, abs=1e-12)
    assert bd.in_q and bd.psd


def test_s_decomposition_sums_exactly():
    n, d = 8, 512
    s = symmetric_eigenvalues(shift_scale_goe(sample_goe(n, RngState(6)), d))
    bd = s_decomposition(s, n, d)
    total = bd.s0 + bd.s1 + bd.s2 + bd.s3 + bd.s4 + bd.remainder
    assert bd.alpha == pytest.approx(total, rel=1e-12, abs=1e-12)
    assert bd.alpha == alpha_exact(s, n, d)
    # s_k is the k-th Taylor term h_k / k! * p_k, p_k = sum_i (lambda_i - d)^k
    dev = s.eigenvalues - d
    for k, (t, got) in enumerate(zip(_taylor_terms(n, d),
                                     (bd.s1, bd.s2, bd.s3, bd.s4)), 1):
        want = t * math.fsum(dev ** k)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_s_decomposition_non_psd():
    bd = s_decomposition(Spectrum(np.array([-1.0, 3.0])), 2, 4)
    assert bd.alpha == -math.inf
    assert bd.s0 is None and bd.remainder is None
    assert not bd.psd


def test_in_q():
    n, d = 4, 100
    assert in_q(Spectrum(np.full(n, float(d))), n, d)
    lam = np.full(n, float(d))
    lam[-1] = d + 4 * math.sqrt(d * n)
    assert not in_q(Spectrum(np.sort(lam)), n, d)


def test_in_q_high_probability():
    n, d = 64, 262144
    gen = RngState(23).generator()
    mats = math.sqrt(d) * sample_goe_dense(n, 300, gen)
    mats[:, np.arange(n), np.arange(n)] += d
    eigs = batch_eigenvalues(mats)
    half = 3.0 * math.sqrt(d * n)
    frac = np.mean((eigs[:, 0] >= d - half) & (eigs[:, -1] <= d + half))
    assert frac >= 0.99


# --- tridiagonal alpha against eigvalsh of the same T ---------------------

def dense_tridiagonal(dev, off2, d):
    """(size, n, n) dense form of T = dI + sqrt(d) X over a (dev, off2)
    tridiagonal batch X."""
    n, size = dev.shape
    t = np.zeros((size, n, n))
    i = np.arange(n)
    t[:, i, i] = math.sqrt(d) * dev.T + d
    off = np.sqrt(d * off2.T)
    t[:, i[:-1], i[1:]] = off
    t[:, i[1:], i[:-1]] = off
    return t


def eigenvalue_reference(dev, off2, n, d):
    """(alpha, in_q, psd, eigenvalues) through the dense eigensolver path,
    with psd lambda_min > 0, as alpha_from_eigenvalues reads it."""
    eigs = batch_eigenvalues(dense_tridiagonal(dev, off2, d))
    return (alpha_from_eigenvalues(eigs, n, d), in_q_mask(eigs, n, d),
            eigs[:, 0] > 0.0, eigs)


EQUIVALENCE_POINTS = [(1, 1), (2, 8), (3, 27), (8, 512), (32, 32768),
                      (64, 262144), (3, 3), (4, 4)]


def draw(sampler, n, d, size, gen):
    """A tridiagonal batch from either sampler; the GOE side's is d-free."""
    if sampler is goe_tridiagonal:
        return sampler(n, size, gen)
    return sampler(n, d, size, gen)


def d_group(sampler, n, d):
    """The d values one call evaluates: three around d on the GOE side,
    whose draws serve every d, and d alone on the Wishart side."""
    if sampler is goe_tridiagonal:
        return sorted({max(n, d // 4), d, 4 * d})
    return [d]


def check_against_eigenvalues(sampler, dev, off2, n, ds, alpha, q, psd):
    """Each row of a group call against the eigenvalues of its T, with the
    flags exactly and alpha within 1e-9 of max(1, |alpha|)."""
    for row, d in enumerate(ds):
        ref_alpha, ref_q, ref_psd, _ = eigenvalue_reference(dev, off2, n, d)
        np.testing.assert_array_equal(q, ref_q)
        np.testing.assert_array_equal(psd[row], ref_psd)
        finite = np.isfinite(ref_alpha)
        np.testing.assert_array_equal(np.isfinite(alpha[row]), finite)
        assert np.all(alpha[row][~finite] == -np.inf)
        if sampler is goe_tridiagonal and d <= 4:
            # the non-PSD-heavy points must exercise the -inf rows
            assert 0 < np.count_nonzero(finite) < finite.size
        err = np.abs(alpha[row][finite] - ref_alpha[finite])
        scale = np.maximum(1.0, np.abs(ref_alpha[finite]))
        if sampler is wishart_tridiagonal and d == n:
            # eigvalsh loses digits of the tiny smallest eigenvalue at d = n,
            # which alpha weights by log; only a loose check is meaningful
            assert np.all(err <= 1e-6 * scale)
        else:
            assert np.all(err <= 1e-9 * scale)


@pytest.mark.parametrize("sampler", [goe_tridiagonal, wishart_tridiagonal])
@pytest.mark.parametrize("n,d", EQUIVALENCE_POINTS)
def test_tridiagonal_alpha_matches_eigenvalues(sampler, n, d):
    # a group of d values on the same draws: each row is bit for bit the
    # call at its d alone, and matches the eigenvalues of its T
    dev, off2 = draw(sampler, n, d, 400, RngState(900 + n + d).generator())
    ds = d_group(sampler, n, d)
    alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, ds)
    assert alpha.shape == psd.shape == (len(ds), 400) and q.shape == (400,)
    for row, one in enumerate(ds):
        got = alpha_from_tridiagonal(dev, off2, n, [one])
        for g, x in zip(got, (alpha[row:row + 1], q, psd[row:row + 1])):
            assert g.tobytes() == x.tobytes()
    check_against_eigenvalues(sampler, dev, off2, n, ds, alpha, q, psd)


@pytest.mark.parametrize("sampler", [goe_tridiagonal, wishart_tridiagonal])
@pytest.mark.parametrize("n", [256, 1024])
def test_tridiagonal_alpha_matches_eigenvalues_at_large_n(sampler, n):
    # the same pin at c = 1/4, 1 and 4 on the GOE side, against LAPACK's
    # tridiagonal eigensolver, as a dense batch at these orders would not
    # fit.  The flags are exact and alpha is within 1e-9 of max(1, |alpha|)
    # at n = 256.  At n = 1024 alpha is the difference of O(n^2) sums, and
    # against 40-digit arithmetic on the same X both paths are off by up to
    # about 2e-9 (the eigenvalue path 1.7e-9, this one 0.9e-9, on three
    # draws), so the bound there is 1e-8
    tol = 1e-9 if n <= 256 else 1e-8
    d = n ** 3
    dev, off2 = draw(sampler, n, d, 6, RngState(n).generator())
    ds = d_group(sampler, n, d)
    alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, ds)
    for row, one in enumerate(ds):
        root = math.sqrt(one)
        eigs = np.array([eigvalsh_tridiagonal(one + root * x,
                                              np.sqrt(one * y))
                         for x, y in zip(dev.T, off2.T)])
        np.testing.assert_array_equal(q, in_q_mask(eigs, n, one))
        np.testing.assert_array_equal(psd[row], eigs[:, 0] > 0.0)
        ref = alpha_from_eigenvalues(eigs, n, one)
        assert np.all(np.isfinite(ref))
        err = np.abs(alpha[row] - ref)
        assert np.all(err <= tol * np.maximum(1.0, np.abs(ref)))


def sturm_flags(dev, off2, n, d):
    """(in_q, psd) of T = dI + sqrt(d) X from Sturm counts on every column
    X: at the Q window's upper edge 3 sqrt(n) on X and on -X (whose upper
    edge is X's lower one, so both edges are closed) and at -sqrt(d), the
    zero of T, where an eigenvalue on the shift counts as below it, so
    that psd is lambda_min > 0.  This is what the Gershgorin certificate
    and the pivots stand in for."""
    pivmin = np.finfo(float).tiny * np.max(off2, axis=0, initial=1.0)
    half = q_half_width(n, 1)
    counts = _sturm_counts(dev, off2, np.array([half, -math.sqrt(d)]),
                           pivmin)
    below = _sturm_counts(-dev, off2, np.array([half]), pivmin)[0]
    return (counts[0] == n) & (below == n), counts[1] == 0


@pytest.mark.parametrize("sampler", [goe_tridiagonal, wishart_tridiagonal])
@pytest.mark.parametrize("n,d", EQUIVALENCE_POINTS)
def test_certified_flags_match_sturm_counts(sampler, n, d):
    # the GOE-side batch with its mirrors, as the estimator evaluates it,
    # at a group of d values; the Wishart side has no mirrors
    dev, off2 = draw(sampler, n, d, 2001, RngState(700 + n + d).generator())
    mirrored = sampler is goe_tridiagonal
    m = dev.shape[1] if mirrored else 0
    ds = d_group(sampler, n, d)
    _, q, psd = alpha_from_tridiagonal(dev, off2, n, ds, mirrored)
    for row, one in enumerate(ds):
        flags = zip(sturm_flags(dev, off2, n, one),
                    sturm_flags(-dev[:, :m], off2[:, :m], n, one))
        for got, (plain, mirror) in zip((q, psd[row]), flags):
            np.testing.assert_array_equal(got,
                                          np.concatenate([plain, mirror]))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("width", [1, 2, 3, 6, 201, 401, 402])
def test_one_pass_matches_separate_calls(n, width):
    # one mirrored call at d = n and n^3 gives bit for bit what a call on
    # the draws and a call on the negated columns, of the same width, give
    ds = [n, n ** 3]
    dev, off2 = goe_tridiagonal(n, width, RngState(width, n).generator())
    got = alpha_from_tridiagonal(dev, off2, n, ds, True)
    ref = zip(alpha_from_tridiagonal(dev, off2, n, ds),
              alpha_from_tridiagonal(-dev, off2, n, ds))
    for g, (plain, mirror) in zip(got, ref):
        assert g.tobytes() == np.concatenate([plain, mirror], -1).tobytes()


def test_one_pass_matches_separate_calls_at_exact_ties():
    # n = 1, d = 10^8: X = [r] with r = sqrt(d) is T = [2d], and its mirror
    # [-r] is T = [0], an eigenvalue exactly at zero; X = [s] with
    # s = (1 + 1e-8) sqrt(d) is T = [2d + 1], and its mirror [-s] is
    # T = [-1], at -1e-8 d; -+3 are the Q window's edges on the scale of X.
    # A matrix with an eigenvalue at or below zero is not PSD, on the
    # pivots as on the eigenvalues, and its alpha is -inf
    n, d = 1, 10 ** 8
    half = q_half_width(n, 1)
    r = math.sqrt(d)
    s = (1.0 + 1e-8) * r
    dev = np.array([[r, -r, s, -s, -half, half, 0.0]])
    off2 = np.zeros((0, dev.shape[1]))
    got = alpha_from_tridiagonal(dev, off2, n, [d], True)
    ref = zip(alpha_from_tridiagonal(dev, off2, n, [d]),
              alpha_from_tridiagonal(-dev, off2, n, [d]))
    for g, (plain, mirror) in zip(got, ref):
        assert g.tobytes() == np.concatenate([plain, mirror], -1).tobytes()
    alpha, _, psd = got
    drawn = [True, False, True, False, True, True, True]
    assert list(psd[0]) == drawn + [not x for x in drawn[:4]] + [True] * 3
    np.testing.assert_array_equal(psd, alpha > -np.inf)
    for lam in (0.0, -1e-8 * d):
        bd = s_decomposition(Spectrum(np.array([lam])), n, d)
        assert not bd.psd and bd.alpha == -math.inf


def test_q_certificate_boundary():
    # n = 2: X = [[x, e], [e, x]] has eigenvalues x +- e and Gershgorin
    # bound |x| + e, and the Q half-width on the scale of X is 3 sqrt(2);
    # with e = 1/2, x = t - e and |x| + e = t are exact.  The extreme
    # eigenvalue t steps across the certificate's threshold
    # 3 sqrt(2) (1 - 1e-9) and across the window's edges, from above and
    # from below
    n, d, e = 2, 8, 0.5
    half = q_half_width(n, 1)
    edge = half * (1.0 - 1e-9)
    t = np.array([half * (1.0 - 2e-9), np.nextafter(edge, 0.0), edge,
                  np.nextafter(edge, 5.0), half * (1.0 - 1e-12),
                  np.nextafter(half, 0.0), half, np.nextafter(half, 5.0),
                  half * (1.0 + 1e-9)])
    x = np.concatenate([t - e, e - t])
    dev = np.vstack([x, x])
    off2 = np.full((1, x.size), e * e)
    bound = np.abs(x) + e
    assert np.all(bound == np.concatenate([t, t]))
    assert np.any(bound < edge) and np.any(bound >= edge)
    _, q, psd = alpha_from_tridiagonal(dev, off2, n, [d])
    ref_q, ref_psd = sturm_flags(dev, off2, n, d)
    np.testing.assert_array_equal(q, ref_q)
    np.testing.assert_array_equal(psd[0], ref_psd)
    assert q[0] and q[x.size // 2] and not q[-1]


@pytest.mark.parametrize("t,expected", [(18.0, [False, True, True]),
                                        (54.0, [True, True, False])])
def test_q_window_closed_at_both_edges(t, expected):
    # n = 1, d = 36: the window is [18, 54], and T = [t] has the single
    # eigenvalue t, X = [(t - 36) / 6] the single eigenvalue -+3 on the
    # window's edges on the scale of X.  An eigenvalue on an edge is
    # inside, as in in_q_mask, and one ulp outside is out.  The mirror
    # [-x] of each X gets its flag, as does a direct count on the mirror
    n, d = 1, 36
    ts = np.array([np.nextafter(t, 0.0), t, np.nextafter(t, 100.0)])
    dev, off2 = ((ts - d) / math.sqrt(d)).reshape(1, -1), np.zeros((0, 3))
    assert abs(dev[0, 1]) == q_half_width(n, 1)
    _, q, _ = alpha_from_tridiagonal(dev, off2, n, [d], True)
    _, q_mirror, _ = alpha_from_tridiagonal(-dev, off2, n, [d])
    assert list(in_q_mask(ts[:, None], n, d)) == expected
    assert list(q) == expected * 2 and list(q_mirror) == expected
    for sign in (1.0, -1.0):
        assert list(sturm_flags(sign * dev, off2, n, d)[0]) == expected


def test_q_window_closed_at_both_edges_n2():
    # n = 2: X = [[0, e], [e, 0]] has eigenvalues -+e, and with e^2 = h^2,
    # h = 3 sqrt(2) the window's half-width on the scale of X as rounded,
    # the second Sturm pivot at either edge, -h + e^2 / h, is exactly zero,
    # on X and on -X.  A larger off-diagonal moves both eigenvalues out, a
    # smaller one both in
    n, d = 2, 18
    h = q_half_width(n, 1)
    off2 = np.array([[h * h, np.nextafter(h * h, 0.0),
                      np.nextafter(h * h, 1e3)]])
    assert -h + off2[0, 0] / h == 0.0
    dev = np.zeros((2, 3))
    _, q, _ = alpha_from_tridiagonal(dev, off2, n, [d], True)
    assert list(q) == [True, True, False] * 2
    np.testing.assert_array_equal(q[:3], sturm_flags(dev, off2, n, d)[0])
    assert in_q_mask(np.array([[0.0, 36.0]]), n, d)[0]


def test_tridiagonal_alpha_rejects_d_below_n():
    dev, off2 = goe_tridiagonal(3, 2, RngState(0).generator())
    for ds in ([2], [3, 2]):
        with pytest.raises(InvalidParameterError):
            alpha_from_tridiagonal(dev, off2, 3, ds)


def test_tridiagonal_exactly_zero_pivots():
    # n = 2, d = 16, so T / d = I + X / 4 and the Q window of X is -+h,
    # h = 3 sqrt(2); x - h and x / 4 are exact for each x below.  Column 0
    # is X = [[-4, 1], [1, 0]], whose first pivot of T / d is exactly zero;
    # column 1 is X = [[-h, 2], [2, 0]], whose first Sturm pivot at the
    # window's lower edge is exactly zero; column 2 is X = [[h - 1, 2],
    # [2, h - 4]], with eigenvalues h - 5 and h, whose second Sturm pivot
    # at the upper edge is exactly zero.  A zero pivot counts as negative,
    # so an eigenvalue on the upper edge is inside the window, as in
    # in_q_mask.  Column 3 is X = [[-2, 2], [2, -2]], T = [[8, 8], [8, 8]]
    # singular: its second pivot of T / d is exactly zero, so alpha is
    # -inf and it is not PSD, as its eigenvalue 0 says.
    n, d = 2, 16
    h = q_half_width(n, 1)
    dev = np.array([[-4.0, -h, h - 1.0, -2.0], [0.0, 0.0, h - 4.0, -2.0]])
    off2 = np.array([[1.0, 4.0, 4.0, 4.0]])
    with np.errstate(all="raise"):
        alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, [d])
    ref_alpha, ref_q, ref_psd, _ = eigenvalue_reference(dev, off2, n, d)
    assert list(alpha[0, :2]) == [-np.inf, -np.inf] == list(ref_alpha[:2])
    assert alpha[0, 2] == pytest.approx(ref_alpha[2], rel=1e-12)
    assert alpha[0, 3] == -np.inf
    assert list(q) == [True, False, True, True]
    assert list(q[:2]) == list(ref_q[:2])
    assert list(psd[0]) == [False, False, True, False] == list(ref_psd)
    for got, ref in zip((q, psd[0]), sturm_flags(dev, off2, n, d)):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 4, 32])
def test_psd_flag_is_finite_alpha(n):
    # at d = n, where most GOE-side draws are not PSD, the PSD flag is True
    # exactly where alpha is finite: on mirrored GOE-side batches and on
    # Wishart batches, in s_decomposition of the eigenvalues of each draw
    # and mirror, and in every row of the profile CSV
    d = n
    gen = RngState(40 + n).generator()
    for sampler, mirrored in ((goe_tridiagonal, True),
                              (wishart_tridiagonal, False)):
        dev, off2 = draw(sampler, n, d, 300, gen)
        alpha, _, psd = alpha_from_tridiagonal(dev, off2, n, [d], mirrored)
        np.testing.assert_array_equal(psd, alpha > -np.inf)
        if mirrored:
            assert not psd.all()
            dev = np.concatenate([dev, -dev], axis=1)
            off2 = np.concatenate([off2, off2], axis=1)
        for x, y in zip(dev.T, off2.T):
            bd = s_decomposition(Spectrum(eigvalsh_tridiagonal(
                d + math.sqrt(d) * x, np.sqrt(d * y))), n, d)
            assert bd.psd == (bd.alpha > -math.inf)
    out = io.StringIO()
    assert cli_dispatch(["profile", "--n", str(n), "--d", str(d),
                         "--samples", "601", "--seed", "5"], out=out) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert len(rows) == 601
    assert all((r[8] == "true") == (r[0] != "-inf") for r in rows)
    assert any(r[8] == "false" for r in rows)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), ratios=st.lists(st.integers(1, 100), min_size=1,
                                             max_size=3), data=st.data())
def test_tridiagonal_alpha_property(n, ratios, data):
    # X = sqrt(d0) tridiag(x, sqrt(y)) for arbitrary x in [-1, 1] and
    # y in [0, 1/4], so that T / d0 = I + tridiag(x, sqrt(y)) at the first
    # d0 of the group; the others see the same X, at other scales
    ds = [n * r for r in ratios]
    x = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    y = data.draw(st.lists(st.floats(0.0, 0.25), min_size=n - 1,
                           max_size=n - 1))
    dev = math.sqrt(ds[0]) * np.array(x, dtype=float).reshape(n, 1)
    off2 = ds[0] * np.array(y, dtype=float).reshape(n - 1, 1)
    alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, ds)
    for row, d in enumerate(ds):
        ref_alpha, ref_q, ref_psd, eigs = eigenvalue_reference(dev, off2, n,
                                                               d)
        # skip a d with an eigenvalue near zero or a flag threshold, where
        # eigensolver rounding alone could flip the reference
        half = 3.0 * math.sqrt(d * n)
        if any(np.any(np.abs(eigs[0] - edge) <= 1e-6 * d)
               for edge in (0.0, d - half, d + half)):
            continue
        assert q[0] == ref_q[0] and psd[row, 0] == ref_psd[0]
        if ref_alpha[0] == -np.inf:
            assert alpha[row, 0] == -np.inf
        else:
            # log det error grows like the condition number of T
            cond = eigs[0, -1] / eigs[0, 0]
            tol = (1e-12 * cond * (d + 1) * n
                   + 1e-9 * max(1.0, abs(ref_alpha[0])))
            assert abs(alpha[row, 0] - ref_alpha[0]) <= tol
