import math

import mpmath as mp
import numpy as np
import pytest

from wglab import (DomainError, InvalidParameterError, LimitEstimate,
                   LimitParams, RngState, asymptotic_tail,
                   clt_covariance_estimate, limiting_tv_closed_form,
                   limiting_tv_mc, limiting_tv_quadrature, s_limit_vector)
from wglab.densities import s0_term
from wglab.limit_theory import sample_clt_pairs

C_GRID = [0.01, 0.1, 1.0 / 48.0, 0.5, 1.0, 10.0, 100.0]


def erf_oracle(x):
    with mp.workdps(40):
        return float(mp.erf(x))


def test_closed_form_anchor_values():
    # c = 1/48 reduces the argument to exactly 1
    assert limiting_tv_closed_form(LimitParams(1.0 / 48.0)) == pytest.approx(
        erf_oracle(1.0), rel=1e-12)
    assert limiting_tv_closed_form(LimitParams(1.0)) == pytest.approx(
        erf_oracle(1.0 / (4.0 * math.sqrt(3.0))), rel=1e-12)
    assert limiting_tv_closed_form(LimitParams(1.0 / 48.0)) == pytest.approx(
        0.8427008, abs=5e-8)


def test_closed_form_endpoints():
    assert limiting_tv_closed_form(LimitParams(1e12)) < 1e-5
    assert limiting_tv_closed_form(LimitParams(1e-12)) == pytest.approx(1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        LimitParams(0.0)
    with pytest.raises(DomainError):
        LimitParams(-1.0)
    with pytest.raises(DomainError):
        LimitParams(math.inf)
    with pytest.raises(DomainError):
        s_limit_vector(-2.0)


def test_closed_form_strictly_decreasing():
    grid = np.logspace(-3, 3, 100)
    vals = [limiting_tv_closed_form(LimitParams(c)) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


@pytest.mark.parametrize("c", C_GRID)
def test_quadrature_matches_closed_form(c):
    p = LimitParams(c)
    assert abs(limiting_tv_quadrature(p) - limiting_tv_closed_form(p)) <= 1e-9


def test_quadrature_small_at_large_c():
    assert limiting_tv_quadrature(LimitParams(100.0)) < 0.03


@pytest.mark.parametrize("c", [1.0 / 48.0, 1.0, 10.0])
def test_mc_matches_closed_form(c):
    p = LimitParams(c)
    samples = 200_000
    est = limiting_tv_mc(p, samples, RngState(1))
    assert abs(est.mean - limiting_tv_closed_form(p)) <= 3 * est.stderr
    # the exponent from s_limit_vector against the limit functional
    # written out, -1/(12c) - N1/(2 sqrt c) + N3/(6 sqrt c), on the same draws
    gen = RngState(1).generator()
    y = gen.standard_normal(samples) * math.sqrt(2.0)
    z = gen.standard_normal(samples) * math.sqrt(6.0)
    sqc = math.sqrt(c)
    expo = -1.0 / (12.0 * c) - y / (2.0 * sqc) + (3.0 * y + z) / (6.0 * sqc)
    vals = np.where(expo < 0.0, -np.expm1(np.minimum(expo, 0.0)), 0.0)
    assert abs(est.mean - vals.mean()) <= 1e-12
    assert abs(est.stderr - vals.std(ddof=1) / math.sqrt(samples)) <= 1e-12


def test_mc_degenerate_sample():
    est = limiting_tv_mc(LimitParams(1.0), 1, RngState(2))
    assert est.samples == 1 and est.stderr == 0.0
    assert 0.0 <= est.mean <= 1.0


def test_mc_result_has_no_finite_n_fields():
    est = limiting_tv_mc(LimitParams(1.0), 1000, RngState(3))
    assert type(est) is LimitEstimate
    assert est.samples == 1000 and est.seed == 3
    assert est.ci_lo <= est.mean <= est.ci_hi
    for field in ("n", "d", "side", "frac_in_q", "frac_psd"):
        assert not hasattr(est, field)


def test_mc_invalid_samples():
    with pytest.raises(InvalidParameterError):
        limiting_tv_mc(LimitParams(1.0), 0, RngState(0))


def test_asymptotic_tail():
    assert asymptotic_tail(LimitParams(1.0)) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0 * math.pi)), rel=1e-14)
    # sqrt(c) scaling
    assert asymptotic_tail(LimitParams(4.0)) == pytest.approx(
        asymptotic_tail(LimitParams(1.0)) / 2.0, rel=1e-14)
    # ratio to the closed form approaches 1
    ratio = (limiting_tv_closed_form(LimitParams(1e3))
             / asymptotic_tail(LimitParams(1e3)))
    assert 0.98 <= ratio <= 1.0


def test_s_limit_vector_values():
    s0, k1, s2, k3, s4 = s_limit_vector(1.0)
    assert (s0, k1, s2, k3, s4) == pytest.approx(
        (-1.0 / 12.0, -0.5, 0.25, 1.0 / 6.0, -0.25))
    for c in (0.1, 1.0, 7.5):
        v = s_limit_vector(c)
        assert v[2] + v[4] == 0.0


@pytest.mark.parametrize("c", [0.01, 1.0 / 48.0, 1.0, 10.0])
def test_s0_limit_is_the_finite_n_s0(c):
    # one formula: s0 = -n^3 / (12 d) is a function of d / n^3 alone
    assert s_limit_vector(c)[0] == s0_term(1, c) == -1.0 / (12.0 * c)
    for n in (2, 8, 64):
        assert s0_term(n, c * n ** 3) == pytest.approx(s_limit_vector(c)[0],
                                                       rel=1e-15)


def test_s_limit_vector_functional_reproduces_erf():
    # averaging the limit functional built from these components over the
    # Gaussian pair recovers the closed form
    c = 1.0 / 48.0
    s0, k1, s2, k3, s4 = s_limit_vector(c)
    gen = RngState(3).generator()
    y = gen.standard_normal(400_000) * math.sqrt(2.0)
    z = gen.standard_normal(400_000) * math.sqrt(6.0)
    n1, n3 = y, 3.0 * y + z
    expo = s0 + s2 + s4 + k1 * n1 + k3 * n3
    vals = np.where(expo < 0.0, -np.expm1(np.minimum(expo, 0.0)), 0.0)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - erf_oracle(1.0)) <= 3 * se


def test_clt_pair_mean_zero():
    pairs = sample_clt_pairs(100, 4000, RngState(4))
    se = pairs.std(axis=0, ddof=1) / math.sqrt(pairs.shape[0])
    assert abs(pairs[:, 0].mean()) <= 4 * se[0]
    assert abs(pairs[:, 1].mean()) <= 4 * se[1]


def test_clt_covariance_near_target():
    cov = clt_covariance_estimate(100, 4000, RngState(5))
    assert cov.c11 == pytest.approx(2.0, rel=0.10)
    assert cov.c12 == pytest.approx(6.0, rel=0.15)
    assert cov.c22 == pytest.approx(24.0, rel=0.15)
    # PSD by construction
    assert cov.c11 >= 0 and cov.c11 * cov.c22 - cov.c12 ** 2 >= 0


def test_clt_covariance_validation():
    with pytest.raises(InvalidParameterError):
        clt_covariance_estimate(1, 100, RngState(0))
    with pytest.raises(InvalidParameterError):
        clt_covariance_estimate(10, 1, RngState(0))


def test_yz_decoupling_matches_cholesky_sampler():
    # (Y, 3Y + Z) vs an explicit Cholesky factor of [[2, 6], [6, 24]]
    c = 1.0
    n_samp = 200_000
    est = limiting_tv_mc(LimitParams(c), n_samp, RngState(6))
    gen = RngState(7).generator()
    g = gen.standard_normal((n_samp, 2))
    chol = np.linalg.cholesky(np.array([[2.0, 6.0], [6.0, 24.0]]))
    n1, n3 = (g @ chol.T).T
    expo = -1.0 / (12.0 * c) - n1 / 2.0 + n3 / 6.0
    vals = np.where(expo < 0.0, -np.expm1(np.minimum(expo, 0.0)), 0.0)
    se = vals.std(ddof=1) / math.sqrt(n_samp)
    assert abs(vals.mean() - est.mean) <= 3 * (se + est.stderr)
