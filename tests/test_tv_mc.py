import math
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import chi2, norm

import wglab.tv_mc as tv_mc
from wglab import (InvalidParameterError, RngState, Spectrum, s_decomposition,
                   tv_estimate_goe_side, tv_estimate_wishart_side, tv_profile)
from wglab.densities import (TOL_PSD_SCALE, alpha_from_eigenvalues,
                             alpha_from_tridiagonal, in_q_mask)
from wglab.ensembles import (goe_tridiagonal, sample_goe_dense,
                             sample_wishart_dense)
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
    # checked at the call, before any record is asked for
    with pytest.raises(InvalidParameterError):
        tv_profile(3, 2, 10, RngState(0))


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
    # n = 64 has 4096-evaluation blocks: four blocks, the last of five
    # evaluations, so on the GOE side it holds one unpaired draw
    n, samples = 64, 3 * 4096 + 5
    for estimate, side in ((tv_estimate_goe_side, tv_mc.GOE_SIDE),
                           (tv_estimate_wishart_side, tv_mc.WISHART_SIDE)):
        assert tv_mc._block_count(n, samples, side) == 4
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
    records = list(tv_profile(n, d, samples, RngState(12)))
    assert len(records) == samples
    for rec in records:
        assert 0.0 <= rec.integrand <= 1.0
        b = rec.breakdown
        if b.s0 is not None:
            total = b.s0 + b.s1 + b.s2 + b.s3 + b.s4 + b.remainder
            assert b.alpha == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_profile_makes_records_one_block_at_a_time(monkeypatch):
    draws, calls = [], []
    sample, alpha = tv_mc.goe_tridiagonal, tv_mc.alpha_from_tridiagonal

    def counting_sample(n, d, size, gen):
        draws.append(size)
        return sample(n, d, size, gen)

    def counting_alpha(*args):
        calls.append(args[0].shape[1])
        return alpha(*args)

    monkeypatch.setattr(tv_mc, "goe_tridiagonal", counting_sample)
    monkeypatch.setattr(tv_mc, "alpha_from_tridiagonal", counting_alpha)
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 4 * 16)
    # blocks of 16, 16, 16 and 2 evaluations: 8, 8, 8 and 1 draws, each
    # evaluated as drawn and mirrored
    records = tv_profile(4, 64, 50, RngState(12))
    assert draws == calls == []
    next(records)
    assert draws == calls == [8]
    assert len(list(records)) == 49
    assert draws == [8, 8, 8, 1]
    assert calls == [8, 8, 8, 8, 8, 8, 1, 1]


def test_profile_reproduces_estimator_mean():
    n, d, samples = 3, 27, 500
    est = tv_estimate_goe_side(n, d, samples, RngState(13))
    records = tv_profile(n, d, samples, RngState(13))
    vals = np.array([r.integrand for r in records])
    assert float(vals.sum()) / samples == est.mean


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_profile_matches_eigenvalue_decomposition(n, monkeypatch):
    # the batched trace formulas against s_decomposition of the eigenvalues
    # of the same tridiagonal draws, mirrored ones included, and alpha
    # against the estimator's own; 128-evaluation blocks, so the records
    # span three blocks, the last with one unpaired draw
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 128 * n)
    d, samples, rng = n ** 3, 301, RngState(15 + n)
    records = list(tv_profile(n, d, samples, rng))
    blocks = tv_mc._draw_blocks(n, d, samples, rng, tv_mc.GOE_SIDE, 0,
                                tv_mc._block_count(n, samples, tv_mc.GOE_SIDE))
    batches = [batch for block in blocks for batch in block]
    assert len(batches) == 6
    dev, off2 = (np.concatenate(x, axis=1) for x in zip(*batches))
    assert dev.shape == (n, samples)
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_integrand_in_unit_interval(alphas):
    # any non-NaN alpha, +-inf and the extremes included, on both sides
    alpha = np.array(alphas)
    for side in (tv_mc.GOE_SIDE, tv_mc.WISHART_SIDE):
        vals = tv_mc._integrand(alpha, side)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


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
    # the as-drawn columns and, on the GOE side, the mirrored columns each
    # against the dense ensemble; within a group the columns are independent
    n, d, samples = 8, 512, 20_000
    blocks = tv_mc._draw_blocks(n, d, samples, RngState(41), side, 0,
                                tv_mc._block_count(n, samples, side))
    groups = [np.concatenate(g) for g in zip(*(
        [tv_mc._integrand(alpha_from_tridiagonal(dev, off2, n, d)[0], side)
         for dev, off2 in block] for block in blocks))]
    assert len(groups) == (2 if side == tv_mc.GOE_SIDE else 1)
    assert sum(g.size for g in groups) == samples
    dense = dense_integrand(n, d, samples, RngState(42).generator(), side)
    for tri in groups:
        se = math.hypot(tri.std(ddof=1) / math.sqrt(tri.size),
                        dense.std(ddof=1) / math.sqrt(samples))
        assert abs(tri.mean() - dense.mean()) <= 4 * se


@pytest.mark.parametrize("samples", [2000, 2001])
def test_pair_mean_matches_plain_path(samples, monkeypatch):
    # the antithetic estimate against the plain per-draw integrands of the
    # same T and of its mirror, block by block: each pair contributes the
    # mean of its two values; a budget of 511 evaluations rounds up to
    # 512-evaluation blocks, so pairs never straddle one; four blocks
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 511 * 8)
    n, d, rng = 8, 512, RngState(31)
    est = tv_estimate_goe_side(n, d, samples, rng)
    values, pair_means, unpaired = [], [], []
    for b in range(4):
        size = min(512, samples - 512 * b)
        dev, off2 = goe_tridiagonal(n, d, size - size // 2,
                                    rng.substream(b).generator())
        m = size // 2
        v = tv_mc._integrand(alpha_from_tridiagonal(dev, off2, n, d)[0],
                             tv_mc.GOE_SIDE)
        w = tv_mc._integrand(alpha_from_tridiagonal(-dev, off2, n, d)[0],
                             tv_mc.GOE_SIDE)
        pair_means.append((v[:m] + w[:m]) / 2.0)
        unpaired += v[m:].tolist()
        values += [v, w[:m]]
    values, pair_means = np.concatenate(values), np.concatenate(pair_means)
    assert values.size == samples
    assert est.mean == pytest.approx(math.fsum(values) / samples, rel=1e-14)
    pairs, single = divmod(samples, 2)
    assert len(unpaired) == single
    assert est.mean == pytest.approx(
        (2.0 * pair_means.sum() + sum(unpaired)) / samples, rel=1e-14)
    # stderr = sqrt(P var(v + v') + r var(v)) / N
    var = (pairs * np.var(2.0 * pair_means, ddof=1)
           + single * np.var(values, ddof=1))
    assert est.stderr == pytest.approx(math.sqrt(var) / samples, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_mirrored_columns_match_eigenvalues(n):
    # the mirrored batch is the first floor(size / 2) draws with the
    # diagonal negated, and its alpha and flags match the eigenvalues of
    # that mirrored T
    d, samples = n ** 3, 201
    [(plain, mirror)] = tv_mc._draw_blocks(n, d, samples, RngState(60 + n),
                                           tv_mc.GOE_SIDE, 0, 1)
    assert plain[0].shape == (n, 101) and mirror[0].shape == (n, 100)
    np.testing.assert_array_equal(mirror[0], -plain[0][:, :100])
    np.testing.assert_array_equal(mirror[1], plain[1][:, :100])
    alpha, q, psd = alpha_from_tridiagonal(*mirror, n, d)
    eigs = np.array([eigvalsh_tridiagonal(-plain[0][:, k] + d,
                                          np.sqrt(plain[1][:, k]))
                     for k in range(100)])
    np.testing.assert_array_equal(q, in_q_mask(eigs, n, d))
    np.testing.assert_array_equal(psd, eigs[:, 0] >= -TOL_PSD_SCALE * d)
    ref = alpha_from_eigenvalues(eigs, n, d)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(np.isfinite(alpha), finite)
    assert np.all(alpha[~finite] == -np.inf)
    err = np.abs(alpha[finite] - ref[finite])
    assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(ref[finite])))


def test_stderr_is_honest():
    # over 200 seeds the spread of the GOE-side means matches the mean
    # reported stderr within 25% (the sampling error of the spread is about
    # 5%); the i.i.d. formula, which ignores the negative correlation within
    # a pair, overstates the spread by about 1.6x at this point
    n, d, samples = 8, 512, 512
    runs = [tv_estimate_goe_side(n, d, samples, RngState(1000 + s))
            for s in range(200)]
    spread = np.std([r.mean for r in runs], ddof=1)
    reported = np.mean([r.stderr for r in runs])
    assert abs(spread / reported - 1.0) <= 0.25


class SequentialExecutor:
    """Stands in for ProcessPoolExecutor: runs the tasks in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_worker_fan_out_is_bounded(monkeypatch):
    pools = []

    class RecordingExecutor(SequentialExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)

    monkeypatch.setattr(tv_mc, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: 8)
    # a single block starts no pool, whatever the worker count
    huge = tv_estimate_goe_side(2, 8, 3, RngState(6), workers=10 ** 12)
    assert pools == []
    assert huge == tv_estimate_goe_side(2, 8, 3, RngState(6))
    # one-pair blocks: five of them
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 2)
    assert tv_mc._block_count(2, 10, tv_mc.GOE_SIDE) == 5
    single = tv_estimate_goe_side(2, 8, 10, RngState(6))
    assert pools == []
    for workers, cpus in [(10 ** 12, 2), (3, 8), (10 ** 12, 8), (1, 8)]:
        monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: cpus)
        pools.clear()
        est = tv_estimate_goe_side(2, 8, 10, RngState(6), workers=workers)
        assert est == single
        procs = min(workers, 5, cpus)
        assert pools == ([procs] if procs > 1 else [])


@settings(max_examples=60, deadline=None)
@given(samples=st.integers(1, 200), budget=st.integers(1, 64),
       workers=st.integers(2, 4))
def test_block_merge_invariant_under_any_split(samples, budget, workers):
    # any block size and any split of the blocks over tasks give the
    # estimate of one task, on both sides
    n, d = 2, 8
    with mock.patch.object(tv_mc, "_BATCH_BUDGET", budget * n), \
            mock.patch.object(tv_mc, "ProcessPoolExecutor",
                              SequentialExecutor), \
            mock.patch.object(tv_mc.os, "cpu_count", lambda: 4):
        assert tv_mc._batch_size(n, tv_mc.GOE_SIDE) % 2 == 0
        for estimate in (tv_estimate_goe_side, tv_estimate_wishart_side):
            one = estimate(n, d, samples, RngState(samples), workers=1)
            split = estimate(n, d, samples, RngState(samples),
                             workers=workers)
            assert split == one
            assert one.samples == samples
