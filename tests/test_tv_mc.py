import functools
import math
import tracemalloc
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
from wglab.densities import (_taylor_terms, alpha_from_eigenvalues,
                             alpha_from_tridiagonal, in_q_mask,
                             linear_statistic_variance, power_sum_moments,
                             power_sums)
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


def single_d_blocks(n, d, samples, rng, side, stop, m=0):
    """Blocks 0..stop-1 of a run at d alone, each as
    ``(dev, off2, in_q, rows, alpha, integrand)``: its d-free part and its
    one pass."""
    for dev, off2, q, rows, passes in tv_mc._blocks(n, [d], samples, rng,
                                                    side, 0, stop, m):
        [(alpha, values)] = passes
        yield dev, off2, q, rows, alpha, values


def alpha_at(dev, off2, n, d):
    """alpha at d of each column of a tridiagonal batch, unmirrored."""
    power = power_sums(dev, off2, np.empty((2, dev.shape[1])))
    return alpha_from_tridiagonal(dev, off2, n, [d], False, power)[0]


def kernel_rows_reference(n, dev, off2):
    """The six kernel control rows of each draw (dev, off2), by an
    explicit loop over i with ``math.exp``: the slow path the estimator's
    vectorized rows are pinned to.  With w_i = e_{i-1}^2 + e_i^2,
    l = sum g_i (1 - w_i / (n - 1)), sigma^2 = 2 sum (1 - w_i / (n - 1))^2
    and s = (1/2, 1, 2) sqrt(v(n)), rows 1..3 are
    x_j = exp(-l^2 / (2 s_j^2)) - s_j / sqrt(s_j^2 + sigma^2), and rows
    4..6 are r = sigma^2 / v(n) - 1, x_1 r and x_2 r, which the estimator
    makes only from n = ``tv_mc._R_ROWS_MIN_N`` on."""
    v = linear_statistic_variance(n)
    root = math.sqrt(v)
    rows = []
    for g, e2 in zip(dev.T.tolist(), off2.T.tolist()):
        e2 = [0.0, *e2, 0.0]
        ell = var = 0.0
        for i in range(n):
            a = 1.0 - (e2[i] + e2[i + 1]) / (n - 1)
            ell += g[i] * a
            var += 2.0 * a * a
        x = [math.exp(-ell * ell / (2.0 * s * s)) - s / math.sqrt(s * s + var)
             for s in (0.5 * root, root, 2.0 * root)]
        r = var / v - 1.0
        rows.append([*x, r, x[0] * r, x[1] * r])
    return np.array(rows).reshape(-1, 6).T


def lstsq_estimate(n, d, u, power, values, kernel, keep=None):
    """(mean, stderr, var_ratio) of the control-variate estimate over the
    N = values.size integrand values, by a direct least-squares fit.

    u holds the P pair sums, power the (3, P) power sums p1..p3 of T - dI
    of their draws, kernel their (6, P) ``kernel_rows_reference``, of which
    the rows the estimator makes at n are used, values every integrand
    value, the unpaired one of an odd N included, and keep the controls
    fitted (all by default), numbered as the rows of the estimator's
    z = (u, p1^2, p2, p3^2, p1 p3, x_1, x_2, x_3, r, x_1 r, x_2 r).
    """
    pairs, samples = u.size, values.size
    m = tv_mc._controls(n, tv_mc.GOE_SIDE, math.inf)
    keep = range(1, m + 1) if keep is None else keep
    p1, p2, p3 = power / np.array([[d ** 0.5], [d], [d ** 1.5]])
    e11, e2, e13, e33 = power_sum_moments(n)
    x = np.column_stack([np.ones(pairs), p1 * p1 - e11, p2 - e2,
                         p3 * p3 - e33, p1 * p3 - e13,
                         *kernel[:m - 4]])[:, [0, *keep]]
    coef, *_ = np.linalg.lstsq(x, u, rcond=None)
    resid = u - x @ coef
    var = resid @ resid / (pairs - 1 - len(keep))
    # with x centered at its exact mean, the intercept is the controlled
    # pair mean u-bar - beta . x-bar
    mean = (pairs * coef[0] + values.sum() - u.sum()) / samples
    stderr = math.sqrt(pairs * var + samples % 2 * np.var(values, ddof=1))
    return mean, stderr / samples, np.var(u, ddof=1) / var


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
        # the GOE side's control variates are fitted after the merge
        assert (runs[0].var_ratio > 1.0) == (side == tv_mc.GOE_SIDE)
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


def test_frac_psd_is_the_share_of_finite_alpha():
    # n = d = 59 on the Wishart side: one draw of 7,001 has a smallest
    # eigenvalue below the rounding of its tridiagonal X, whose last pivot
    # of T / d is -4e-16 (-5e-17 in exact arithmetic on the same X), so its
    # alpha is -inf, and frac_psd, the share of finite alpha, leaves it out
    n = d = 59
    side, samples = tv_mc.WISHART_SIDE, 7001
    est = tv_estimate_wishart_side(n, d, samples, RngState(59))
    blocks = single_d_blocks(n, d, samples, RngState(59), side,
                             tv_mc._block_count(n, samples, side))
    finite = sum(int(np.count_nonzero(alpha > -np.inf))
                 for *_, alpha, _ in blocks)
    assert finite == samples - 1
    assert est.frac_psd == finite / samples


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

    def counting_sample(n, size, gen, *empty):
        draws.append(size)
        return sample(n, size, gen, *empty)

    def counting_alpha(dev, off2, n, ds, mirrored, power):
        calls.append((dev.shape[1], mirrored))
        return alpha(dev, off2, n, ds, mirrored, power)

    monkeypatch.setattr(tv_mc, "goe_tridiagonal", counting_sample)
    monkeypatch.setattr(tv_mc, "alpha_from_tridiagonal", counting_alpha)
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 4 * 16)
    # blocks of 16, 16, 16 and 2 evaluations: 8, 8, 8 and 1 draws, each
    # evaluated as drawn and mirrored in one call per block
    records = tv_profile(4, 64, 50, RngState(12))
    assert draws == calls == []
    next(records)
    assert draws == [8] and calls == [(8, True)]
    assert len(list(records)) == 49
    assert draws == [8, 8, 8, 1]
    assert calls == [(8, True)] * 3 + [(1, True)]


def _block_draws(n, samples, seed):
    """The draws (dev, off2) of a one-block GOE-side run."""
    assert tv_mc._block_count(n, samples, tv_mc.GOE_SIDE) == 1
    return goe_tridiagonal(n, samples - samples // 2,
                           RngState(seed).substream(0).generator())


def test_profile_reproduces_estimator_mean(monkeypatch):
    # one block of 250 draws and their mirrors, too few pairs for control
    # variates: the estimate is the profile's plain mean
    n, d, samples = 3, 27, 500
    records = tv_profile(n, d, samples, RngState(13))
    vals = np.array([r.integrand for r in records])
    plain = tv_estimate_goe_side(n, d, samples, RngState(13))
    assert plain.var_ratio == 1.0
    assert float(vals.sum()) / samples == plain.mean
    # with the controls forced on, the profile's integrands and s1..s3
    # rebuild the power-sum part of the controlled estimate, with
    # p_k = s_k / (h_k / k!) of each draw as drawn; the kernel rows come
    # from the slow reference on the same draws
    monkeypatch.setattr(tv_mc, "_SKEW_TOL", math.inf)
    est = tv_estimate_goe_side(n, d, samples, RngState(13))
    (_, drawn, *_, v), (*_, w) = tv_mc.profile_columns(n, d, samples,
                                                       RngState(13))
    power = np.array(drawn[1:4]) / np.array(_taylor_terms(n, d)[:3])[:, None]
    values = np.concatenate([v, w])
    kernel = kernel_rows_reference(n, *_block_draws(n, samples, 13))
    mean, stderr, ratio = lstsq_estimate(n, d, v + w, power, values, kernel)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-9)
    assert est.var_ratio == pytest.approx(ratio, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_profile_matches_eigenvalue_decomposition(n, monkeypatch):
    # the batched trace formulas against s_decomposition of the eigenvalues
    # of the same tridiagonal draws, mirrored ones included, and alpha
    # against the estimator's own; 128-evaluation blocks, so the records
    # span three blocks, the last with one unpaired draw
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 128 * n)
    d, samples, rng = n ** 3, 301, RngState(15 + n)
    records = list(tv_profile(n, d, samples, rng))
    blocks = single_d_blocks(n, d, samples, rng, tv_mc.GOE_SIDE,
                             tv_mc._block_count(n, samples, tv_mc.GOE_SIDE))
    # each block's draws, then their mirrors: the plain batches of the
    # evaluations in record order
    batches = [batch for dev, off2, _, _, alpha, _ in blocks
               for m in [alpha.size - dev.shape[1]]
               for batch in ((dev, off2), (-dev[:, :m], off2[:, :m]))]
    assert len(batches) == 6
    dev, off2 = (np.concatenate(x, axis=1) for x in zip(*batches))
    assert dev.shape == (n, samples)
    alpha = alpha_at(dev, off2, n, d)
    assert [r.breakdown.alpha for r in records] == alpha.tolist()
    checked = 0
    for k, rec in enumerate(records):
        eigs = eigvalsh_tridiagonal(d + math.sqrt(d) * dev[:, k],
                                    np.sqrt(d * off2[:, k]))
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
    blocks = single_d_blocks(n, d, samples, RngState(41), side,
                             tv_mc._block_count(n, samples, side))
    drawn, mirrored = [], []
    for dev, *_, values in blocks:
        drawn.append(values[0, :dev.shape[1]])
        mirrored.append(values[0, dev.shape[1]:])
    groups = [g for g in map(np.concatenate, (drawn, mirrored)) if g.size]
    assert len(groups) == (2 if side == tv_mc.GOE_SIDE else 1)
    assert sum(g.size for g in groups) == samples
    dense = dense_integrand(n, d, samples, RngState(42).generator(), side)
    for tri in groups:
        se = math.hypot(tri.std(ddof=1) / math.sqrt(tri.size),
                        dense.std(ddof=1) / math.sqrt(samples))
        assert abs(tri.mean() - dense.mean()) <= 4 * se


@pytest.mark.parametrize("samples", [2000, 2001, 1539])
def test_pair_mean_matches_plain_path(samples, monkeypatch):
    # the controlled antithetic estimate against a least-squares fit on the
    # plain per-draw integrands of the same T and of its mirror, block by
    # block, with the power sums from the trace formulas written out; a
    # budget of 511 evaluations rounds up to 512-evaluation blocks, so pairs
    # never straddle one; four blocks, the last of 3 evaluations at
    # samples = 1539: two draws and one mirror.  The controls are forced on
    # for a run this short
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 511 * 8)
    monkeypatch.setattr(tv_mc, "_SKEW_TOL", math.inf)
    n, d, rng = 8, 512, RngState(31)
    est = tv_estimate_goe_side(n, d, samples, rng)
    values, pair_sums, power, kernel = [], [], [], []
    for b in range(4):
        size = min(512, samples - 512 * b)
        dev, off2 = goe_tridiagonal(n, size - size // 2,
                                    rng.substream(b).generator())
        m = size // 2
        v = tv_mc._integrand(alpha_at(dev, off2, n, d), tv_mc.GOE_SIDE)
        w = tv_mc._integrand(alpha_at(-dev, off2, n, d), tv_mc.GOE_SIDE)
        pair_sums.append(v[:m] + w[:m])
        values += [v, w[:m]]
        # p1..p3 of X, then of T - dI = sqrt(d) X
        p3 = (dev ** 3).sum(axis=0) + 3.0 * (off2 * (dev[:-1] + dev[1:])).sum(
            axis=0)
        power.append((np.stack([dev.sum(axis=0), (dev ** 2).sum(axis=0)
                                + 2.0 * off2.sum(axis=0), p3])
                      * np.array([[d ** 0.5], [d], [d ** 1.5]]))[:, :m])
        kernel.append(kernel_rows_reference(n, dev[:, :m], off2[:, :m]))
    values, u = np.concatenate(values), np.concatenate(pair_sums)
    assert values.size == samples and u.size == samples // 2
    # the plain values are the profile's integrands, in its order
    profile = [group[-1] for group in tv_mc.profile_columns(n, d, samples,
                                                             rng)]
    np.testing.assert_array_equal(np.concatenate(profile), values)
    mean, stderr, ratio = lstsq_estimate(n, d, u, np.concatenate(power, 1),
                                         values, np.concatenate(kernel, 1))
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-9)
    assert est.var_ratio == pytest.approx(ratio, rel=1e-9)
    assert est.var_ratio > 1.5


@pytest.mark.parametrize("n, samples, forced", [
    (1, 1, True), (1, 2, True), (1, 3, True), (1, 11, True), (1, 2001, True),
    (2, 1, True), (2, 2, True), (2, 3, True), (2, 11, True),
    (2, 2133, False), (4, 639, False)])
def test_no_control_falls_back_to_plain_pairs(n, samples, forced,
                                              monkeypatch):
    # beta = 0, and the estimate is the plain antithetic one,
    # stderr = sqrt(P var(u) + (N mod 2) var(v)) / N, where there are at
    # most 5 pairs, where n = 1 (which has no controls, even where they are
    # forced on), and where P is below every control's floor: 1,066 pairs
    # at n = 2 and 319 at n = 4, one short of p2's; warnings are errors
    if forced:
        monkeypatch.setattr(tv_mc, "_SKEW_TOL", math.inf)
    d = 4 * n
    est = tv_estimate_goe_side(n, d, samples, RngState(samples))
    (*_, v), *mirrors = tv_mc.profile_columns(n, d, samples,
                                              RngState(samples))
    w = mirrors[0][-1] if mirrors else v[:0]
    values, u = np.concatenate([v, w]), v[:w.size] + w
    assert est.var_ratio == 1.0
    assert est.mean == float(values.sum()) / samples
    var = (u.size * (np.var(u, ddof=1) if u.size > 1 else 0.0)
           + samples % 2 * (np.var(values, ddof=1) if samples > 1 else 0.0))
    assert est.stderr == pytest.approx(math.sqrt(var) / samples, rel=1e-12)
    assert all(map(math.isfinite, (est.mean, est.stderr, est.ci_lo,
                                   est.ci_hi)))


def test_control_floors():
    # a run makes only the controls whose floor its P reaches: none below
    # p2's floor of 6,400 / (n(n+1)) pairs, whose law is
    # 2 chi^2_{n(n+1)/2}, p2 alone from there up to 3,199 pairs, and from
    # 3,200 pairs p1^2, p3^2, p1 p3 and the kernel rows too, with r, x_1 r
    # and x_2 r only from n = 10 on; no control on the Wishart side or at
    # n = 1
    goe, p2_floors = tv_mc.GOE_SIDE, {2: 1067, 3: 534, 4: 320, 8: 89, 9: 72,
                                      10: 59, 16: 24, 32: 7}
    for n, floor in p2_floors.items():
        assert floor == math.ceil(6400 / (n * (n + 1)))
        assert tv_mc._controls(n, goe, floor - 1) == 0
        assert tv_mc._controls(n, goe, floor) == 1
        assert tv_mc._controls(n, goe, 3199) == 1
        m = 10 if n >= 10 else 7
        assert tv_mc._controls(n, goe, 3200) == m
        assert tv_mc._controls(n, goe, 10 ** 6) == m
        assert tv_mc._controls(n, tv_mc.WISHART_SIDE, 10 ** 6) == 0
    assert tv_mc._controls(1, goe, 10 ** 6) == 0
    assert tv_mc._controls(1, goe, 0) == 0


@pytest.mark.parametrize("n, samples, seed, kept", [
    (8, 6399, 6399, [1]), (4, 2000, 1, [1]), (4, 2001, 2, [1]),
    (4, 20000, 3, [1, 2, 4, 5, 6, 7])],
    ids=["8-6399", "4-2000", "4-2001", "4-20000"])
def test_failing_controls_are_dropped(n, samples, seed, kept):
    # below 3,200 pairs only p2 is made, and it is kept, and at n = 4 and
    # 10,000 pairs p3^2 is too skewed on this stream (p1 p3, whose sample
    # skewness there sits near the bound of 5, passes on some streams and
    # fails on others), while the three kernel rows x_j pass (r, x_1 r and
    # x_2 r are not made at n = 4): the controls that fail are
    # dropped and the rest are fitted, where the all-or-nothing gate fitted
    # none.  The estimate is the least-squares fit on the kept controls of
    # the same draws, and the gate takes the decisions of the elimination
    d = 4 * n
    est = tv_estimate_goe_side(n, d, samples, RngState(seed))
    units = _goe_units(n, samples, seed, d)
    assert tv_mc._kept(units) == kept
    want_kept, want = reference_unit_fit(units)
    assert want_kept == kept
    assert tv_mc._unit_fit(units, kept) == pytest.approx(want, rel=1e-12)
    (_, drawn, *_, v), (*_, w) = tv_mc.profile_columns(n, d, samples,
                                                       RngState(seed))
    power = np.array(drawn[1:4]) / np.array(_taylor_terms(n, d)[:3])[:, None]
    values = np.concatenate([v, w])
    dev, off2 = _block_draws(n, samples, seed)
    kernel = kernel_rows_reference(n, dev[:, :w.size], off2[:, :w.size])
    # lstsq_estimate numbers p2 as row 2 of the full z, which a run that
    # makes p2 alone has in row 1
    rows = [0, 2] if len(units[2]) == 2 else range(11)
    mean, stderr, ratio = lstsq_estimate(n, d, v[:w.size] + w,
                                         power[:, :w.size], values, kernel,
                                         [rows[i] for i in kept])
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-9)
    assert est.var_ratio == pytest.approx(ratio, rel=1e-9)
    assert est.var_ratio > 1.2


def test_p2_is_not_used_below_its_floor(monkeypatch):
    # at n = 4 and 319 pairs, one short of p2's floor of 320, no control
    # row is made and the estimate is the plain one.  The sample skewness
    # of p2 on this stream passes the test (0.032 against 0.05 over
    # sqrt(P)): a run made to make p2, alone or with the six other controls
    # of n = 4 (of which p1^2, p3^2, p1 p3 and x_3 are not kept there),
    # would keep it
    n, samples = 4, 638
    units = _goe_units(n, samples, 0)
    assert units[0] == 319 and units[2].shape == (1, 1)
    assert tv_mc._kept(units) == []
    assert tv_estimate_goe_side(n, n ** 3, samples,
                                RngState(0)).var_ratio == 1.0
    for m, kept in ((1, [1]), (7, [2, 5, 6])):
        monkeypatch.setattr(tv_mc, "_controls", lambda *_, m=m: m)
        assert tv_mc._kept(_goe_units(n, samples, 0)) == kept


def test_short_run_makes_p2_alone(monkeypatch):
    # a 1,000-pair run at n = 8, the size of a benchmark sweep point,
    # computes p1 and p2 but neither p3 nor Y, and its z is (u, p2)
    shapes = []
    power_sums, unit_moments = tv_mc.power_sums, tv_mc._unit_moments

    def spy_power_sums(dev, off2, out):
        shapes.append(("power", out.shape))
        return power_sums(dev, off2, out)

    def spy_unit_moments(units, z, controls):
        shapes.append(("z", z.shape))
        return unit_moments(units, z, controls)

    monkeypatch.setattr(tv_mc, "power_sums", spy_power_sums)
    monkeypatch.setattr(tv_mc, "_unit_moments", spy_unit_moments)
    est = tv_estimate_goe_side(8, 512, 2000, RngState(4))
    assert shapes == [("power", (2, 1000)), ("z", (2, 1000))]
    assert est.var_ratio > 1.0


def test_profile_makes_no_control_row(monkeypatch):
    # the profile reads no control: at 20,000 samples, where the estimate
    # on the same stream makes ten control rows in each of its three
    # blocks, it makes none
    calls = []
    control_rows = tv_mc._control_rows

    def spy_control_rows(power, off2, n, out):
        calls.append(out.shape[0])
        control_rows(power, off2, n, out)

    monkeypatch.setattr(tv_mc, "_control_rows", spy_control_rows)
    n, d, samples = 32, 32768, 20000
    columns = list(tv_mc.profile_columns(n, d, samples, RngState(5)))
    assert len(columns) == 6 and calls == []
    tv_estimate_goe_side(n, d, samples, RngState(5))
    assert calls == [10, 10, 10]


def _partials(u, x=None):
    """The ``_moments`` of units u and controls x (none by default), as
    ``_unit_fit`` takes them merged."""
    x = np.empty((0, u.size)) if x is None else x
    return tv_mc._moments(np.vstack([u, x]))


def test_unit_fit_without_controls_is_the_sample_variance():
    # m = 0: beta = [], the sample variance of the units and a ratio of 1;
    # with at most one unit the variance is 0
    u = np.random.default_rng(2).standard_normal(1001) + 0.5
    shift, var, ratio = tv_mc._unit_fit(_partials(u), [])
    assert (shift, ratio) == (0.0, 1.0)
    assert var == pytest.approx(float(np.var(u, ddof=1)), rel=1e-15)
    for size in (0, 1):
        assert tv_mc._unit_fit(_partials(u[:size]), []) == (0.0, 0.0, 1.0)


def test_unit_fit_rejects_nearly_collinear_controls():
    # a control equal to an earlier one up to a relative 1e-7 leaves it a
    # share of about 1e-14 of its variance, below 1e-10: that control is
    # dropped, where a test for an exactly zero pivot would fit rounding
    # noise, and the fit is the one on the other three; so is an exact
    # copy, whose Cxx is singular
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5000))
    u = 1.0 + x[0] + 0.1 * rng.standard_normal(5000)
    plain = tv_mc._unit_fit(_partials(u), [])
    assert plain[1] == pytest.approx(float(np.var(u, ddof=1)), rel=1e-12)
    rest = tv_mc._unit_fit(_partials(u, x[[0, 2, 3]]), [1, 2, 3])
    for scale in (1e-7 * rng.standard_normal(5000), 0.0):
        near = x.copy()
        near[1] = x[0] * (1.0 + scale)
        units = _partials(u, near)
        assert tv_mc._kept(units) == [1, 3, 4]
        assert tv_mc._unit_fit(units, [1, 3, 4]) == pytest.approx(
            rest, rel=1e-12)
    # with independent controls all four are kept, and the fit removes
    # x[0]'s part of u
    units = _partials(u, x)
    assert tv_mc._kept(units) == [1, 2, 3, 4]
    shift, var, ratio = tv_mc._unit_fit(units, [1, 2, 3, 4])
    assert shift == pytest.approx(float(x[0].sum()), rel=0.05)
    assert var == pytest.approx(0.01, rel=0.1) and ratio > 50
    assert rest[2] > 50


def test_unit_fit_skewness_test():
    # a control's skewness is taken about its sample mean, so an offset
    # symmetric control passes; one whose mean over P = 5,000 is skewed by
    # more than 0.05 (skewness above 3.5) is dropped, and only it, so the
    # fit is the one on the other three
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5000))
    u = 1.0 + x[0] + 0.1 * rng.standard_normal(5000)
    x[3] += 10.0
    units = _partials(u, x)
    assert tv_mc._kept(units) == [1, 2, 3, 4]
    assert tv_mc._unit_fit(units, [1, 2, 3, 4])[2] > 50
    x[3] = rng.exponential(size=5000) ** 3
    units = _partials(u, x)
    assert tv_mc._kept(units) == [1, 2, 3]
    assert tv_mc._unit_fit(units, [1, 2, 3]) == pytest.approx(
        tv_mc._unit_fit(_partials(u, x[:3]), [1, 2, 3]), rel=1e-12)
    assert tv_mc._unit_fit(units, [1, 2, 3])[2] > 50


def reference_unit_fit(units):
    """``_kept`` and ``_unit_fit`` by Gaussian elimination over Python
    lists, pivot by pivot, with the same tests: the slow path the numpy fit
    is pinned to.  Returns (the kept controls, the fit).  A control too
    skewed is dropped first; then a control whose pivot fails is dropped
    and the elimination starts again on the rest."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    count, total, cross, cubes = units
    plain = 0.0, tv_mc.sample_variance(count, float(cross[0, 0])), 1.0
    var = [float(cross[i, i]) / count for i in range(len(cross))]
    keep = [i for i in range(1, len(cross)) if (cubes[i] / count) ** 2
            <= tv_mc._SKEW_TOL ** 2 * count * var[i] ** 3]
    while True:
        m = len(keep)
        # rows [Cxx | Cxu] of the centered cross-products
        rows = cross[np.ix_(keep, [*keep, 0])].tolist()
        for i, row in enumerate(rows):
            if not row[i] > 1e-10 * count * var[keep[i]]:
                del keep[i]
                break
            for below in rows[i + 1:]:
                f = below[i] / row[i]
                for j in range(i + 1, m + 1):
                    below[j] -= f * row[j]
        else:
            break
    if not m or count <= 1 + m:
        return keep, plain
    cxu = cross[keep, 0].tolist()
    beta = [0.0] * m
    for i in reversed(range(m)):
        row = rows[i]
        beta[i] = (row[m] - dot(row[i + 1:m], beta[i + 1:])) / row[i]
    resid = max(float(cross[0, 0]) - dot(beta, cxu), 0.0) / (count - 1 - m)
    return keep, (dot(beta, total[keep].tolist()), resid,
                  plain[1] / resid if resid > 0 else 1.0)


def _goe_units(n, samples, seed, d=None):
    """The merged unit ``_moments`` of a GOE-side run, at d = n^3 by
    default."""
    side = tv_mc.GOE_SIDE
    task = (n, (d or n ** 3,), samples, RngState(seed), side, 0,
            tv_mc._block_count(n, samples, side))
    return tv_mc._merge_moments([per_d[0][2]
                                 for _, per_d in tv_mc._block_stats(task)])


def _fit_cases():
    """The unit ``_moments`` of random Grams with m = 1..4 controls, of
    nearly collinear and of skewed controls, and of GOE-side runs with the
    controls they make: none at n = 1, p2 alone at n = 4 and 1,000 pairs,
    seven with p3^2 too skewed at n = 4 and 10,000 pairs, all ten at
    n = 32."""
    rng = np.random.default_rng(7)
    for m in range(1, 5):
        for size in (m + 2, 50, 5000):
            x = rng.standard_normal((m, m)) @ rng.standard_normal((m, size))
            u = 0.3 + rng.standard_normal(m) @ x + rng.standard_normal(size)
            yield _partials(u, x + 0.5)
    x = rng.standard_normal((4, 5000))
    u = 1.0 + x[0] + 0.1 * rng.standard_normal(5000)
    near = x.copy()
    near[1] = x[0] * (1.0 + 1e-7 * rng.standard_normal(5000))
    skewed = x.copy()
    skewed[3] = rng.exponential(size=5000) ** 3
    yield _partials(u, near)
    yield _partials(u, skewed)
    for n, samples in ((1, 20001), (4, 2000), (4, 20001), (32, 20001)):
        yield _goe_units(n, samples, 3)


def test_unit_fit_matches_the_elimination():
    # the Cholesky gate keeps the controls that the elimination keeps, and
    # the numpy fit on them gives its shift and residual variance
    kept = []
    for units in _fit_cases():
        want_kept, want = reference_unit_fit(units)
        kept.append(tv_mc._kept(units))
        assert kept[-1] == want_kept
        got = tv_mc._unit_fit(units, kept[-1])
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # every test is met: the skew of a mean over a few units drops some
    # of the controls of the random Grams, and the nearly collinear,
    # skewed and GOE-side cases keep the controls named above
    assert [len(k) for k in kept[:12]] == [1, 1, 1, 0, 2, 2, 1, 3, 3, 1, 3, 4]
    assert kept[12:] == [[1, 3, 4], [1, 2, 3], [], [1], [1, 2, 4, 5, 6, 7],
                         list(range(1, 11))]


def test_wishart_side_is_the_plain_mean(monkeypatch):
    # the Wishart side fits no control: over four blocks the mean is the
    # block-order sum of the values over N, and the stderr the i.i.d. one
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 500 * 8)
    n, d, samples, side = 8, 512, 1701, tv_mc.WISHART_SIDE
    est = tv_estimate_wishart_side(n, d, samples, RngState(17))
    assert tv_mc._block_count(n, samples, side) == 4
    blocks = [values[0] for *_, values in single_d_blocks(
        n, d, samples, RngState(17), side, 4)]
    values = np.concatenate(blocks)
    assert values.size == samples and est.var_ratio == 1.0
    assert est.mean == math.fsum(float(v.sum()) for v in blocks) / samples
    assert est.stderr == pytest.approx(
        math.sqrt(np.var(values, ddof=1) / samples), rel=1e-12)


def test_control_variate_bias_and_spread():
    # beta is fitted on the draws it corrects, which biases the mean by
    # O(1 / P).  Over 200 seeds at n = 32, c = 1 and P = 5,000 pairs, where
    # the controls are used, the mean of the controlled means stays within
    # a quarter of the mean reported stderr of an independent reference of
    # 4 * 10^6 evaluations on other seeds (the sampling error of that
    # difference is about 0.09 of it: 0.07 from the 200 means and 0.05 from
    # the reference), and the spread of the controlled means matches that
    # stderr within 25%, as test_stderr_is_honest asks of the plain pairs.
    # The reference is controlled too, so a wrong exact mean of a control
    # biases both sides alike: that the means are exact is checked by
    # test_power_sum_moments_exact, test_linear_statistic_variance_exact
    # and test_kernel_rows_have_mean_zero
    n, d, samples = 32, 32768, 10000
    ref = goe_reference(n, d)
    runs = [tv_estimate_goe_side(n, d, samples, RngState(seed))
            for seed in range(3000, 3200)]
    assert sum(r.var_ratio > 1.0 for r in runs) >= 180
    reported = np.mean([r.stderr for r in runs])
    assert abs(np.mean([r.mean for r in runs]) - ref.mean) <= 0.25 * reported
    spread = np.std([r.mean for r in runs], ddof=1)
    assert abs(spread / reported - 1.0) <= 0.25


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_mirrored_columns_match_eigenvalues(n):
    # a block of 201 evaluations is 101 draws and the mirrors of the first
    # 100; the mirrors' alpha and flags from the estimator's one-pass call
    # match the eigenvalues of each draw with its diagonal negated
    d, samples = n ** 3, 201
    [(dev, off2, q, _, alpha, _)] = single_d_blocks(
        n, d, samples, RngState(60 + n), tv_mc.GOE_SIDE, 1)
    assert dev.shape == (n, 101) and alpha.shape == (1, 201)
    alpha, q = alpha[0, 101:], q[101:]
    eigs = np.array([eigvalsh_tridiagonal(d - math.sqrt(d) * dev[:, k],
                                          np.sqrt(d * off2[:, k]))
                     for k in range(100)])
    np.testing.assert_array_equal(q, in_q_mask(eigs, n, d))
    np.testing.assert_array_equal(alpha > -np.inf, eigs[:, 0] > 0.0)
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
    # the controls forced on, so their partials are merged too
    with mock.patch.object(tv_mc, "_BATCH_BUDGET", budget * n), \
            mock.patch.object(tv_mc, "_SKEW_TOL", math.inf), \
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


@pytest.mark.parametrize("blocks", [1, 4])
def test_stderr_matches_two_pass_variance_near_one(blocks, monkeypatch):
    # at n = d = 16 the TV is near 1 and the values' variance is about
    # 3e-15 of their squared mean, where a variance from raw sums loses
    # digits (a stderr of 7.2995e-10 against 7.0907e-10 in one block); the
    # block moments about their own means, merged in block order, keep
    # them, in one block and in four
    n, d, samples = 16, 16, 6401
    if blocks > 1:
        monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 1601 * n)
    side = tv_mc.WISHART_SIDE
    assert tv_mc._block_count(n, samples, side) == blocks
    est = tv_estimate_wishart_side(n, d, samples, RngState(22401))
    values = np.concatenate([v[0] for *_, v in single_d_blocks(
        n, d, samples, RngState(22401), side, blocks)])
    two_pass = math.sqrt(np.var(values, ddof=1) / samples)
    assert est.mean > 0.99
    assert est.stderr == pytest.approx(two_pass, rel=1e-6)


def test_merged_moments_match_the_whole_set():
    # the block-order merge of the moments of uneven blocks, empty ones
    # included, against the moments of the whole set in one pass
    rng = np.random.default_rng(5)
    z = np.vstack([1.0 + 1e-4 * rng.standard_normal(3000),
                   rng.exponential(size=3000), rng.standard_normal(3000)])
    cuts = [0, 0, 7, 1000, 1000, 2999, 3000]
    parts = [tv_mc._moments(z[:, a:b]) for a, b in zip(cuts, cuts[1:])]
    count, sums, cross, cubes = tv_mc._merge_moments(parts)
    ref = tv_mc._moments(z)
    assert count == ref[0] == 3000
    np.testing.assert_allclose(sums, ref[1], rtol=1e-14)
    np.testing.assert_allclose(cross, ref[2], rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(cubes, ref[3], rtol=1e-10, atol=1e-12)
    c = z - z.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(cross, c @ c.T, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(cubes, (c ** 3).sum(axis=1), rtol=1e-10,
                               atol=1e-12)


def test_pass_groups_change_no_bit(monkeypatch):
    # the d values of one call share the draws and are grouped into passes
    # by _PASS_COLUMNS; any grouping, down to one d per pass, gives bit for
    # bit the estimates of separate calls on the same stream, over four
    # blocks, the last with an unpaired draw, with the controls on.  The
    # d-free Q flags are made once per block of a call, whatever the
    # number of passes
    monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", 2000 * 8)
    monkeypatch.setattr(tv_mc, "_SKEW_TOL", math.inf)
    flags, calls = tv_mc.q_window_flags, []

    def counting_flags(dev, off2, n):
        calls.append(dev.shape[1])
        return flags(dev, off2, n)

    monkeypatch.setattr(tv_mc, "q_window_flags", counting_flags)
    n, samples, rng = 8, 7001, RngState(23)
    ds = [8, 9, 64, 512, 512, 4096, 10 ** 6]
    per_call = [1000, 1000, 1000, 501]
    assert tv_mc._block_count(n, samples, tv_mc.GOE_SIDE) == 4
    grouped = tv_mc.tv_estimates_goe_side(n, ds, samples, rng)
    assert [e.d for e in grouped] == ds
    assert all(e.var_ratio != 1.0 for e in grouped[2:])
    assert calls == per_call
    monkeypatch.setattr(tv_mc, "_PASS_COLUMNS", 1)
    assert tv_mc.tv_estimates_goe_side(n, ds, samples, rng) == grouped
    assert calls == per_call * 2
    assert [tv_estimate_goe_side(n, d, samples, rng) for d in ds] == grouped
    assert calls == per_call * (2 + len(ds))


def test_pass_memory_is_bounded_by_the_column_budget(monkeypatch):
    # 512 d values at n = 4 on 1,000 draws: 1,024,000 evaluations, which
    # one pass would hold at about 16 floats each (130 MB).  The passes
    # hold at most _PASS_COLUMNS evaluations at a time, so the traced peak,
    # fresh scratch included, is set by that budget and not by the number
    # of d values
    from wglab import densities
    from wglab.scratch import Scratch
    for module in (densities, tv_mc):
        monkeypatch.setattr(module, "SCRATCH", Scratch())
    ds = [4 * i for i in range(1, 513)]
    tracemalloc.start()
    try:
        estimates = tv_mc.tv_estimates_goe_side(4, ds, 2000, RngState(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 512
    assert peak <= 24 * 8 * tv_mc._PASS_COLUMNS


def test_one_gate_per_pass(monkeypatch):
    # the benchmark sweep's 1,000-pair points at n = 4: the controls are
    # d-free, so the gate runs once per pass and keeps p2 at every d, and
    # each estimate is bit for bit its one-d call, in one block and over
    # four blocks split across two tasks
    gates = []
    kept = tv_mc._kept

    def counting_kept(units):
        gates.append(kept(units))
        return gates[-1]

    monkeypatch.setattr(tv_mc, "_kept", counting_kept)
    monkeypatch.setattr(tv_mc, "ProcessPoolExecutor", SequentialExecutor)
    monkeypatch.setattr(tv_mc.os, "cpu_count", lambda: 2)
    n, samples, rng = 4, 2000, RngState(19)
    ds = [4, 8, 16, 32, 64, 128, 256, 512]
    for blocks, budget in ((1, tv_mc._BATCH_BUDGET), (4, 500 * n)):
        monkeypatch.setattr(tv_mc, "_BATCH_BUDGET", budget)
        assert tv_mc._block_count(n, samples, tv_mc.GOE_SIDE) == blocks
        gates.clear()
        grouped = tv_mc.tv_estimates_goe_side(n, ds, samples, rng, workers=2)
        assert gates == [[1]]
        assert all(e.var_ratio > 1.0 for e in grouped)
        for workers in (1, 2):
            assert [tv_estimate_goe_side(n, d, samples, rng, workers=workers)
                    for d in ds] == grouped


def test_sweep_point_calibration_at_small_p():
    # the sweep's weakest point, n = 4 and c = 0.125 (d = 8), at 1,000
    # pairs, where p2 alone is fitted: over 400 seeds the spread of the
    # controlled means matches their mean reported stderr within 15% (its
    # sampling error is about 3.5%), no z-score against a reference of
    # 400,000 evaluations exceeds 4, and their mean stays within 0.2 (its
    # sampling error is 0.05), where the fitted beta's O(1 / P) bias would
    # show
    n, d, samples = 4, 8, 2000
    ref = tv_estimate_goe_side(n, d, 400_000, RngState(2 ** 40))
    runs = [tv_estimate_goe_side(n, d, samples, RngState(seed))
            for seed in range(4000, 4400)]
    assert all(r.var_ratio > 1.2 for r in runs)
    z = np.array([(r.mean - ref.mean) / math.hypot(r.stderr, ref.stderr)
                  for r in runs])
    spread = np.std([r.mean for r in runs], ddof=1)
    assert abs(spread / np.mean([r.stderr for r in runs]) - 1.0) <= 0.15
    assert np.abs(z).max() <= 4.0
    assert abs(z.mean()) <= 0.2


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_kernel_rows_match_the_slow_reference(n, monkeypatch):
    # the estimator's vectorized kernel rows of a block of 201 draws, made
    # with the controls forced on, against the per-draw loop of
    # kernel_rows_reference; x_j is the difference of two terms in (0, 1],
    # r of sigma^2 / v(n) and 1, and each row matches to 1e-13 of them
    monkeypatch.setattr(tv_mc, "_SKEW_TOL", math.inf)
    m = tv_mc._controls(n, tv_mc.GOE_SIDE, 201)
    assert m == (10 if n >= tv_mc._R_ROWS_MIN_N else 7)
    [(dev, off2, _, rows, _)] = tv_mc._blocks(
        n, [n ** 3], 402, RngState(80 + n), tv_mc.GOE_SIDE, 0, 1, m)
    ref = kernel_rows_reference(n, dev, off2)
    assert rows.shape == (m + 1, 201)
    np.testing.assert_allclose(rows[5:], ref[:m - 4], rtol=1e-13, atol=1e-13)
    # below n = 10 a block makes no r rows, but they are made on request
    full = np.empty((10, 201))
    tv_mc._control_rows(power_sums(dev, off2, np.empty((4, 201))), off2, n,
                        full)
    np.testing.assert_allclose(full[4:], ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [2, 4, 32])
def test_kernel_rows_have_mean_zero(n):
    # given the off-diagonals, l is exactly N(0, sigma^2), so each x_j, and
    # x_1 r and x_2 r with r a function of the off-diagonals, has
    # conditional mean 0 and so mean 0 at every n, and r has mean 0 as
    # v(n) = E sigma^2: over 10^6 draws each row's mean is within 4 stderr
    # of 0
    gen, size = RngState(7000 + n).generator(), 100_000
    sums, squares = np.zeros(6), np.zeros(6)
    for _ in range(10):
        dev, off2 = goe_tridiagonal(n, size, gen)
        power = power_sums(dev, off2, np.empty((4, size)))
        rows = np.empty((10, size))
        tv_mc._control_rows(power, off2, n, rows)
        x = rows[4:]
        sums += x.sum(axis=1)
        squares += np.einsum("ij,ij->i", x, x)
    mean = sums / 10 ** 6
    stderr = np.sqrt((squares / 10 ** 6 - mean * mean) / (10 ** 6 - 1))
    assert np.all(np.abs(mean) <= 4.0 * stderr)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_kernel_direction_is_the_normal_part_of_p3(n):
    # l = sum g_i (1 - w_i / (n - 1)) = p1 - Y / (n - 1), and
    # p3 - 3 (n + 1) p1 = sum (g^3 - 6g) - 3 (n - 1) l on every draw: the
    # first term is uncorrelated with every linear function of g ~ N(0, 2),
    # so l is the exactly normal part of the direction of s1 + s3
    dev, off2 = goe_tridiagonal(n, 500, RngState(90 + n).generator())
    p1, _, p3, y = power_sums(dev, off2, np.empty((4, 500)))
    w = np.zeros_like(dev)
    w[:-1] += off2
    w[1:] += off2
    ell = (dev * (1.0 - w / (n - 1))).sum(axis=0)
    # relative to the sizes of the terms summed, as l and the difference
    # may cancel to near 0
    g = np.abs(dev)
    scale = (g ** 3 + 3.0 * g * w + 3.0 * (n + 1) * g).sum(axis=0)
    assert np.all(np.abs(p1 - y / (n - 1) - ell) <= 1e-12 * scale)
    got = p3 - 3.0 * (n + 1) * p1
    want = (dev ** 3 - 6.0 * dev).sum(axis=0) - 3.0 * (n - 1) * ell
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@functools.cache
def goe_reference(n, d):
    """The GOE-side estimate of 4 * 10^6 evaluations at (n, d) on
    ``RngState(2 ** 41)``, made once per process for the tests that
    compare runs on other seeds with it."""
    return tv_estimate_goe_side(n, d, 4_000_000, RngState(2 ** 41))


def floor_z_scores(n, d, monkeypatch):
    """The controls kept and the z-scores against ``goe_reference`` of 400
    runs of 3,200 pairs at (n, d), seeds 6000..6399."""
    gates = []
    kept = tv_mc._kept

    def recording_kept(units):
        gates.append(kept(units))
        return gates[-1]

    ref = goe_reference(n, d)
    monkeypatch.setattr(tv_mc, "_kept", recording_kept)
    runs = [tv_estimate_goe_side(n, d, 6400, RngState(seed))
            for seed in range(6000, 6400)]
    z = np.array([(r.mean - ref.mean) / math.hypot(r.stderr, ref.stderr)
                  for r in runs])
    return gates, z


def test_kernel_floor_calibration(monkeypatch):
    # n = 32, c = 1 at 3,200 pairs, the kernel rows' floor, where the
    # three kernel rows are fitted in every run: over 400 seeds the
    # z-scores against a reference of 4 * 10^6 evaluations have sd within
    # 0.1 of 1 (its sampling error is about 0.035) and mean within 0.25 (its
    # sampling error is 0.05), where the O(m / P) bias of a beta fitted on
    # the draws it corrects would show
    gates, z = floor_z_scores(32, 32768, monkeypatch)
    assert len(gates) == 400 and all({5, 6, 7} <= set(g) for g in gates)
    assert abs(z.std(ddof=1) - 1.0) <= 0.1
    assert abs(z.mean()) <= 0.25


def test_r_rows_floor_calibration(monkeypatch):
    # the same check at n = 10, c = 1, the least n at which r, x_1 r and
    # x_2 r are made, and where their skewness is largest: at 3,200 pairs
    # they are kept in most runs, and the z-scores meet the same bounds
    gates, z = floor_z_scores(10, 1000, monkeypatch)
    assert len(gates) == 400
    assert sum({8, 9, 10} <= set(g) for g in gates) >= 200
    assert abs(z.std(ddof=1) - 1.0) <= 0.1
    assert abs(z.mean()) <= 0.25


@pytest.mark.parametrize("n", [8, 10])
def test_r_rows_skewness_below_their_floor_bound(n):
    # the 3,200-pair floor of a control holds where its skewness is at
    # most sqrt(8): over 10^6 draws the sample skewness of r, x_1 r and
    # x_2 r is below it at n = 10 (2.2, 2.5, 0.5; from there it falls in
    # n), and x_1 r is above it at n = 8 (3.5), where the rows are not made
    gen, size = RngState(7100 + n).generator(), 100_000
    powers = np.zeros((3, 3))
    for _ in range(10):
        dev, off2 = goe_tridiagonal(n, size, gen)
        rows = np.empty((10, size))
        tv_mc._control_rows(power_sums(dev, off2, np.empty((4, size))), off2,
                            n, rows)
        powers += [(rows[7:] ** k).sum(axis=1) for k in (1, 2, 3)]
    m1, m2, m3 = powers / 10 ** 6
    skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3) / (m2 - m1 * m1) ** 1.5
    assert (np.abs(skew).max() <= math.sqrt(8)) == (
        n >= tv_mc._R_ROWS_MIN_N)
