import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wglab import (DomainError, InvalidParameterError, RngState, Spectrum,
                   alpha_exact, alpha_from_densities, in_q, log_gamma,
                   log_goe_density, log_wishart_density, s_decomposition,
                   sample_goe, shift_scale_goe, symmetric_eigenvalues,
                   taylor_coeffs)
from wglab.densities import (TOL_PSD_SCALE, alpha_from_eigenvalues,
                             alpha_from_tridiagonal, in_q_mask,
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


# --- log_gamma ------------------------------------------------------------

def test_log_gamma_integers():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0


def test_log_gamma_half():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)


def test_log_gamma_half_integer_recurrence():
    # Gamma(10.5) = 9.5 * 8.5 * ... * 0.5 * Gamma(0.5)
    ref = math.fsum(math.log(0.5 + k) for k in range(10)) + 0.5 * math.log(math.pi)
    assert log_gamma(10.5) == pytest.approx(ref, rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_log_gamma_recurrence_grid():
    for z in np.arange(0.5, 101.0, 1.0):
        resid = log_gamma(z + 1) - log_gamma(z) - math.log(z)
        assert abs(resid) <= 1e-13 * max(1.0, abs(log_gamma(z + 1)))


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


def test_alpha_at_deterministic_spectrum_equals_constant():
    n, d = 3, 100
    s = Spectrum(np.full(n, float(d)))
    assert alpha_exact(s, n, d) == pytest.approx(spectrum_constant(n, d), abs=1e-12)
    # extended-precision oracle for the constant itself
    with mp.workdps(60):
        k = (mp.mpf(n) / 2 * (d - n - 1) * mp.log(d) - mp.mpf(n) * d / 2
             + (mp.mpf(n) * (n + 3) / 4 - mp.mpf(d) * n / 2) * mp.log(2)
             + mp.mpf(n) / 2 * mp.log(mp.pi)
             + mp.mpf(n) * (n + 1) / 4 * mp.log(d)
             - mp.fsum(mp.log(mp.gamma(mp.mpf(d + 1 - i) / 2))
                       for i in range(1, n + 1)))
        ref = float(k)
    assert spectrum_constant(n, d) == pytest.approx(ref, abs=1e-10)
    # direct-form alpha agrees at the same spectrum
    assert alpha_from_densities(s, n, d) == pytest.approx(ref, abs=1e-6)


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
    tc = taylor_coeffs(3, 100)
    assert tc.h1 == pytest.approx(-0.02)
    assert tc.h2 == pytest.approx(2e-4)
    assert tc.h3 == pytest.approx(9.6e-5)
    assert tc.h4 == pytest.approx(-2.88e-6)
    assert tc.remainder_bound > 0


def test_taylor_precondition():
    with pytest.raises(InvalidParameterError):
        taylor_coeffs(10, 90)


def test_taylor_remainder_scaling():
    # with d = n^3 the per-matrix remainder bound n * bound decays like 1/n
    prev = None
    for n in (8, 16, 32, 64):
        bound = taylor_coeffs(n, n ** 3).remainder_bound * n
        if prev is not None:
            assert bound < prev
        prev = bound


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
    tc = taylor_coeffs(n, d)
    dev = s.eigenvalues - d
    for k, (h, got) in enumerate(zip((tc.h1, tc.h2, tc.h3, tc.h4),
                                     (bd.s1, bd.s2, bd.s3, bd.s4)), 1):
        want = h / math.factorial(k) * math.fsum(dev ** k)
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
    """(size, n, n) dense form of a (dev, off2) tridiagonal batch."""
    n, size = dev.shape
    t = np.zeros((size, n, n))
    i = np.arange(n)
    t[:, i, i] = dev.T + d
    off = np.sqrt(off2.T)
    t[:, i[:-1], i[1:]] = off
    t[:, i[1:], i[:-1]] = off
    return t


def eigenvalue_reference(dev, off2, n, d):
    """(alpha, in_q, psd, eigenvalues) through the dense eigensolver path."""
    eigs = batch_eigenvalues(dense_tridiagonal(dev, off2, d))
    return (alpha_from_eigenvalues(eigs, n, d), in_q_mask(eigs, n, d),
            eigs[:, 0] >= -TOL_PSD_SCALE * d, eigs)


EQUIVALENCE_POINTS = [(1, 1), (2, 8), (3, 27), (8, 512), (32, 32768),
                      (64, 262144), (3, 3), (4, 4)]


@pytest.mark.parametrize("sampler", [goe_tridiagonal, wishart_tridiagonal])
@pytest.mark.parametrize("n,d", EQUIVALENCE_POINTS)
def test_tridiagonal_alpha_matches_eigenvalues(sampler, n, d):
    dev, off2 = sampler(n, d, 400, RngState(900 + n + d).generator())
    alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, d)
    ref_alpha, ref_q, ref_psd, _ = eigenvalue_reference(dev, off2, n, d)
    np.testing.assert_array_equal(q, ref_q)
    np.testing.assert_array_equal(psd, ref_psd)
    finite = np.isfinite(ref_alpha)
    np.testing.assert_array_equal(np.isfinite(alpha), finite)
    assert np.all(alpha[~finite] == -np.inf)
    if sampler is goe_tridiagonal and d <= 4:
        # the non-PSD-heavy points must exercise the -inf rows
        assert 0 < np.count_nonzero(finite) < finite.size
    err = np.abs(alpha[finite] - ref_alpha[finite])
    scale = np.maximum(1.0, np.abs(ref_alpha[finite]))
    if sampler is wishart_tridiagonal and d == n:
        # eigvalsh loses digits of the tiny smallest eigenvalue at d = n,
        # which alpha weights by log; only a loose check is meaningful
        assert np.all(err <= 1e-6 * scale)
    else:
        assert np.all(err <= 1e-9 * scale)


def test_tridiagonal_alpha_rejects_d_below_n():
    dev, off2 = goe_tridiagonal(3, 3, 2, RngState(0).generator())
    with pytest.raises(InvalidParameterError):
        alpha_from_tridiagonal(dev, off2, 3, 2)


def test_tridiagonal_exactly_zero_pivots():
    # n = 2, d = 8, so the Q window is [-4, 20].  Column 0 is T = [[0, 1],
    # [1, 0]], whose first pivot of T / d is exactly zero; column 1 is
    # T = [[-4, 2], [2, 8]], whose first Sturm pivot at the window's lower
    # edge is exactly zero; column 2 is T = [[4, 4], [4, 19]], with
    # eigenvalues 3 and 20, whose second Sturm pivot at the upper edge is
    # exactly zero.  A zero pivot counts as negative, so an eigenvalue on
    # the upper edge is inside the window, as in in_q_mask.
    n, d = 2, 8
    dev = np.array([[-8.0, -12.0, -4.0], [-8.0, 0.0, 11.0]])
    off2 = np.array([[1.0, 4.0, 16.0]])
    with np.errstate(all="raise"):
        alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, d)
    ref_alpha, ref_q, ref_psd, _ = eigenvalue_reference(dev, off2, n, d)
    assert list(alpha[:2]) == [-np.inf, -np.inf] == list(ref_alpha[:2])
    assert alpha[2] == pytest.approx(ref_alpha[2], rel=1e-12)
    assert list(q) == [True, False, True]
    assert list(q[:2]) == list(ref_q[:2])
    assert list(psd) == [False, False, True] == list(ref_psd)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), ratio=st.integers(1, 100), data=st.data())
def test_tridiagonal_alpha_property(n, ratio, data):
    # T / d = I + tridiag(x, sqrt(y)) for arbitrary x in [-1, 1], y in [0, 1/4]
    d = n * ratio
    x = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    y = data.draw(st.lists(st.floats(0.0, 0.25), min_size=n - 1,
                           max_size=n - 1))
    dev = d * np.array(x, dtype=float).reshape(n, 1)
    off2 = float(d) ** 2 * np.array(y, dtype=float).reshape(n - 1, 1)
    alpha, q, psd = alpha_from_tridiagonal(dev, off2, n, d)
    ref_alpha, ref_q, ref_psd, eigs = eigenvalue_reference(dev, off2, n, d)
    # keep every eigenvalue clear of zero and of the flag thresholds, where
    # eigensolver rounding alone could flip the reference
    half = 3.0 * math.sqrt(d * n)
    for edge in (0.0, d - half, d + half, -TOL_PSD_SCALE * d):
        assume(np.all(np.abs(eigs[0] - edge) > 1e-6 * d))
    assert q[0] == ref_q[0] and psd[0] == ref_psd[0]
    if ref_alpha[0] == -np.inf:
        assert alpha[0] == -np.inf
    else:
        # log det error grows like the condition number of T
        cond = eigs[0, -1] / eigs[0, 0]
        tol = 1e-12 * cond * (d + 1) * n + 1e-9 * max(1.0, abs(ref_alpha[0]))
        assert abs(alpha[0] - ref_alpha[0]) <= tol
