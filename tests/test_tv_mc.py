import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import chi2, norm

import wglab.tv_mc as tv_mc
from wglab import (InvalidParameterError, RngState, Spectrum, s_decomposition,
                   tv_estimate_goe_side, tv_estimate_wishart_side, tv_profile)
from wglab.densities import alpha_from_eigenvalues, alpha_from_tridiagonal
from wglab.ensembles import sample_goe_dense, sample_wishart_dense
from wglab.spectral import batch_eigenvalues


def tv_chi2_vs_normal(d):
    """Quadrature oracle for TV(chi2(d), N(d, 2d)) at n = 1."""
    sd = math.sqrt(2 * d)
    diff = lambda a: abs(chi2.pdf(a, d) - norm.pdf(a, d, sd))
    body, _ = integrate.quad(diff, 0, np.inf, limit=500)
    return 0.5 * (norm.cdf(0, d, sd) + body)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        tv_estimate_goe_side(3, 2, 10, RngState(0))
    with pytest.raises(InvalidParameterError):
        tv_estimate_goe_side(2, 4, 0, RngState(0))
    with pytest.raises(InvalidParameterError):
        tv_estimate_wishart_side(2, 4, 10, RngState(0), workers=0)


def test_single_sample_degenerate():
    est = tv_estimate_goe_side(2, 8, 1, RngState(3))
    assert est.samples == 1
    assert est.stderr == 0.0
    assert 0.0 <= est.mean <= 1.0
    assert est.ci_lo == est.mean == est.ci_hi


def test_determinism_and_fields():
    a = tv_estimate_goe_side(3, 27, 500, RngState(11))
    b = tv_estimate_goe_side(3, 27, 500, RngState(11))
    assert a == b
    assert a.side == "goe_side"
    assert a.n == 3 and a.d == 27 and a.seed == 11
    assert 0.0 <= a.ci_lo <= a.mean <= a.ci_hi <= 1.0
    assert 0.0 <= a.frac_in_q <= 1.0 and 0.0 <= a.frac_psd <= 1.0


def test_worker_count_determinism(monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        """A real process pool that records its size."""

        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(tv_mc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: 2)
    # n = 64 has 4096-draw blocks: four blocks, the last of five draws
    n, samples = 64, 3 * 4096 + 5
    assert tv_mc._block_count(n, samples) == 4
    for estimate in (tv_estimate_goe_side, tv_estimate_wishart_side):
        pools.clear()
        runs = [estimate(n, n ** 3, samples, RngState(5), workers=w)
                for w in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].samples == samples
        assert pools == [2, 2]


@pytest.mark.parametrize("d", [3, 10])
def test_scalar_case_matches_quadrature_goe_side(d):
    oracle = tv_chi2_vs_normal(d)
    est = tv_estimate_goe_side(1, d, 100_000, RngState(1))
    assert abs(est.mean - oracle) <= 3 * est.stderr


@pytest.mark.parametrize("d", [3, 10])
def test_scalar_case_matches_quadrature_wishart_side(d):
    oracle = tv_chi2_vs_normal(d)
    est = tv_estimate_wishart_side(1, d, 100_000, RngState(2))
    assert abs(est.mean - oracle) <= 3 * est.stderr


def test_tv_shrinks_with_d():
    assert tv_chi2_vs_normal(50) < tv_chi2_vs_normal(3)
    lo = tv_estimate_goe_side(1, 50, 50_000, RngState(4))
    hi = tv_estimate_goe_side(1, 3, 50_000, RngState(4))
    assert lo.mean < hi.mean


def test_cross_side_agreement():
    n, d, samples = 8, 512, 20_000
    a = tv_estimate_goe_side(n, d, samples, RngState(7))
    b = tv_estimate_wishart_side(n, d, samples, RngState(8))
    assert abs(a.mean - b.mean) <= 3 * (a.stderr + b.stderr)


def test_wishart_side_all_psd():
    est = tv_estimate_wishart_side(4, 16, 2000, RngState(9))
    assert est.frac_psd == 1.0


def test_profile_stream_length_and_consistency():
    n, d, samples = 4, 64, 300
    records = tv_profile(n, d, samples, RngState(12))
    assert len(records) == samples
    for rec in records:
        assert 0.0 <= rec.integrand <= 1.0
        b = rec.breakdown
        if b.s0 is not None:
            total = b.s0 + b.s1 + b.s2 + b.s3 + b.s4 + b.remainder
            assert b.alpha == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_profile_reproduces_estimator_mean():
    n, d, samples = 3, 27, 500
    est = tv_estimate_goe_side(n, d, samples, RngState(13))
    records = tv_profile(n, d, samples, RngState(13))
    vals = np.array([r.integrand for r in records])
    assert float(vals.sum()) / samples == est.mean


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_profile_matches_eigenvalue_decomposition(n, monkeypatch):
    # the batched trace formulas against s_decomposition of the eigenvalues
    # of the same tridiagonal draws, and alpha against the estimator's own;
    # 128-draw blocks, so the records span three blocks
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 128 * n)
    d, samples, rng = n ** 3, 300, RngState(15 + n)
    records = tv_profile(n, d, samples, rng)
    draws = tv_mc._draw_blocks(n, d, samples, rng, tv_mc.GOE_SIDE, 0,
                               tv_mc._block_count(n, samples))
    dev, off2 = (np.concatenate(x, axis=1) for x in zip(*draws))
    alpha, _, _ = alpha_from_tridiagonal(dev, off2, n, d)
    assert [r.breakdown.alpha for r in records] == alpha.tolist()
    checked = 0
    for k, rec in enumerate(records):
        eigs = eigvalsh_tridiagonal(dev[:, k] + d, np.sqrt(off2[:, k]))
        ref = s_decomposition(Spectrum(eigs), n, d)
        got = rec.breakdown
        assert got.in_q == ref.in_q and got.psd == ref.psd
        if ref.s0 is None:
            assert got.s0 is None and got.alpha == -math.inf
            continue
        for field in ("s0", "s1", "s2", "s3", "s4", "remainder"):
            want = getattr(ref, field)
            assert abs(getattr(got, field) - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1
    assert checked > samples // 2


def test_integrand_bounded_small_d():
    # d barely above n forces frequent non-PSD draws; integrand stays in [0, 1]
    records = tv_profile(3, 3, 400, RngState(14))
    vals = np.array([r.integrand for r in records])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    est = tv_estimate_goe_side(3, 3, 400, RngState(14))
    assert 0.0 <= est.mean <= 1.0
    assert est.frac_psd < 1.0


def dense_integrand(n, d, samples, gen, side):
    """Integrand values over the dense samplers and eigvalsh."""
    if side == tv_mc.GOE_SIDE:
        mats = math.sqrt(d) * sample_goe_dense(n, samples, gen)
        mats += d * np.eye(n)
    else:
        mats = sample_wishart_dense(n, d, samples, gen)
    alpha = alpha_from_eigenvalues(batch_eigenvalues(mats), n, d)
    return tv_mc._integrand(alpha, side)


@pytest.mark.parametrize("side", [tv_mc.GOE_SIDE, tv_mc.WISHART_SIDE])
def test_tridiagonal_and_dense_draws_agree_in_law(side):
    n, d, samples = 8, 512, 20_000
    blocks = tv_mc._draw_blocks(n, d, samples, RngState(41), side, 0,
                                tv_mc._block_count(n, samples))
    tri = np.concatenate([
        tv_mc._integrand(alpha_from_tridiagonal(dev, off2, n, d)[0], side)
        for dev, off2 in blocks])
    assert tri.shape == (samples,)
    dense = dense_integrand(n, d, samples, RngState(42).generator(), side)
    se = math.hypot(tri.std(ddof=1), dense.std(ddof=1)) / math.sqrt(samples)
    assert abs(tri.mean() - dense.mean()) <= 4 * se


def test_worker_fan_out_is_bounded(monkeypatch):
    pools = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: runs tasks inline."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(tv_mc, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: 8)
    # a single block starts no pool, whatever the worker count
    huge = tv_estimate_goe_side(2, 8, 3, RngState(6), workers=10 ** 12)
    assert pools == []
    assert huge == tv_estimate_goe_side(2, 8, 3, RngState(6))
    # one-draw blocks: five of them
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 2)
    single = tv_estimate_goe_side(2, 8, 5, RngState(6))
    assert pools == []
    for workers, cpus in [(10 ** 12, 2), (3, 8), (10 ** 12, 8), (1, 8)]:
        monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: cpus)
        pools.clear()
        est = tv_estimate_goe_side(2, 8, 5, RngState(6), workers=workers)
        assert est == single
        procs = min(workers, 5, cpus)
        assert pools == ([procs] if procs > 1 else [])
