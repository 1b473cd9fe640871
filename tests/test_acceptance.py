"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
from scipy import integrate
from scipy.stats import chi2, norm

from wglab import (LimitParams, RngState, Spectrum, alpha_exact,
                   alpha_from_densities, asymptotic_tail,
                   clt_covariance_estimate, empirical_moment, in_q,
                   limiting_tv_closed_form, limiting_tv_mc,
                   limiting_tv_quadrature, normalize_spectrum, sample_goe,
                   sample_wishart, shift_scale_goe, symmetric_eigenvalues,
                   tv_estimate_goe_side, tv_estimate_wishart_side, tv_profile)
from wglab.experiments import (ExperimentConfig, emit_csv, emit_figure1_svg,
                               run_sweep)

C_SET = [0.01, 1.0 / 48.0, 0.1, 0.5, 1.0, 10.0, 100.0]


def report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


def tv_chi2_vs_normal(d):
    sd = math.sqrt(2 * d)
    diff = lambda a: abs(chi2.pdf(a, d) - norm.pdf(a, d, sd))
    body, _ = integrate.quad(diff, 0, np.inf, limit=500)
    return 0.5 * (norm.cdf(0, d, sd) + body)


def test_criterion_1_closed_form_identity():
    start = time.perf_counter()
    worst = max(abs(limiting_tv_quadrature(LimitParams(c))
                    - limiting_tv_closed_form(LimitParams(c)))
                for c in C_SET)
    anchor = limiting_tv_closed_form(LimitParams(1.0 / 48.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and abs(anchor - 0.8427008) < 5e-8 and elapsed < 1.0
    report(1, ok, f"max |closed-quadrature| = {worst:.2e}, "
                  f"anchor Erf(1) = {anchor:.7f}", elapsed)


def test_criterion_2_limit_functional_mc():
    start = time.perf_counter()
    worst_sigma = 0.0
    for c in (1.0 / 48.0, 1.0, 10.0):
        p = LimitParams(c)
        est = limiting_tv_mc(p, 1_000_000, RngState(101))
        sigma = abs(est.mean - limiting_tv_closed_form(p)) / est.stderr
        worst_sigma = max(worst_sigma, sigma)
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 3.0 and elapsed < 30.0
    report(2, ok, f"worst deviation = {worst_sigma:.2f} stderr", elapsed)


def test_criterion_3_scalar_exact_oracle():
    start = time.perf_counter()
    worst_sigma = 0.0
    for d in (3, 10, 50):
        oracle = tv_chi2_vs_normal(d)
        for i, estimate in enumerate((tv_estimate_goe_side,
                                      tv_estimate_wishart_side)):
            est = estimate(1, d, 1_000_000, RngState(200 + d + i))
            sigma = abs(est.mean - oracle) / est.stderr
            worst_sigma = max(worst_sigma, sigma)
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 3.0 and elapsed < 60.0
    report(3, ok, f"worst deviation = {worst_sigma:.2f} stderr "
                  f"over d in {{3,10,50}}, both sides", elapsed)


def test_criterion_4_finite_n_convergence():
    start = time.perf_counter()
    limit = limiting_tv_closed_form(LimitParams(1.0))
    diffs = []
    for n in (8, 16, 32):
        est = tv_estimate_goe_side(n, n ** 3, 100_000, RngState(301))
        diffs.append(abs(est.mean - limit))
    elapsed = time.perf_counter() - start
    ok = (diffs[0] > diffs[1] > diffs[2] and diffs[2] <= 0.05
          and elapsed < 600.0)
    report(4, ok, f"|estimate - {limit:.4f}| = "
                  f"{', '.join(f'{d:.4f}' for d in diffs)} at n = 8, 16, 32",
           elapsed)


def test_criterion_5_clt_covariance():
    start = time.perf_counter()
    cov = clt_covariance_estimate(200, 10_000, RngState(401))
    elapsed = time.perf_counter() - start
    ok = (1.8 <= cov.c11 <= 2.2 and 5.1 <= cov.c12 <= 6.9
          and 20.4 <= cov.c22 <= 27.6 and elapsed < 300.0)
    report(5, ok, f"c11 = {cov.c11:.3f}, c12 = {cov.c12:.3f}, "
                  f"c22 = {cov.c22:.3f} (targets 2, 6, 24)", elapsed)


def test_criterion_6_semicircle_moments():
    start = time.perf_counter()
    n = 500
    m2, m4 = [], []
    for seed in range(100):
        s = symmetric_eigenvalues(shift_scale_goe(
            sample_goe(n, RngState(500 + seed)), n))
        ns = normalize_spectrum(s, n, n)
        m2.append(empirical_moment(ns, 2))
        m4.append(empirical_moment(ns, 4))
    avg2, avg4 = np.mean(m2), np.mean(m4)
    elapsed = time.perf_counter() - start
    ok = abs(avg2 - 1.0) <= 0.05 and abs(avg4 - 2.0) <= 0.15 and elapsed < 120.0
    report(6, ok, f"mean mu^2 = {avg2:.4f} (target 1), "
                  f"mean mu^4 = {avg4:.4f} (target 2), 100 seeds", elapsed)


def test_criterion_7_alpha_decomposition():
    start = time.perf_counter()
    n, d = 32, 32 ** 3
    records = tv_profile(n, d, 1000, RngState(601))
    in_q_bds = [r.breakdown for r in records if r.breakdown.in_q]
    max_rem = max(abs(b.remainder) for b in in_q_bds)
    s2_mean = np.mean([b.s2 for b in in_q_bds])
    s4_mean = np.mean([b.s4 for b in in_q_bds])
    elapsed = time.perf_counter() - start
    ok = (max_rem <= 0.02 and abs(s2_mean - 0.25) <= 0.05
          and abs(s4_mean + 0.25) <= 0.05 and elapsed < 120.0)
    report(7, ok, f"{len(in_q_bds)}/1000 draws in Q, max |remainder| = "
                  f"{max_rem:.4f}, mean s2 = {s2_mean:.3f}, "
                  f"mean s4 = {s4_mean:.3f}", elapsed)


def test_criterion_8_large_c_asymptote():
    start = time.perf_counter()
    ratio = (limiting_tv_closed_form(LimitParams(1e3))
             / asymptotic_tail(LimitParams(1e3)))
    elapsed = time.perf_counter() - start
    ok = 0.98 <= ratio <= 1.0 and elapsed < 1.0
    report(8, ok, f"closed_form / asymptote = {ratio:.5f} at c = 1000",
           elapsed)


def test_criterion_9_figure1_reproduction(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(c_grid=(0.001, 0.005, 0.01, 0.02, 0.05),
                           n_list=(32,), samples=2000, seed=1)
    rows = run_sweep(cfg)
    limits = [r.tv_limit for r in rows]
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_csv(rows, csv1)
    emit_figure1_svg(rows, svg1)
    rows2 = run_sweep(cfg)
    emit_csv(rows2, csv2)
    emit_figure1_svg(rows2, svg2)
    elapsed = time.perf_counter() - start
    ok = (limits[0] > 0.95
          and all(a > b for a, b in zip(limits, limits[1:]))
          and csv1.read_bytes() == csv2.read_bytes()
          and svg1.read_bytes() == svg2.read_bytes())
    report(9, ok, f"limit curve {limits[0]:.4f} -> {limits[-1]:.4f} over "
                  f"c in [0.001, 0.05], artifacts byte-identical on re-run",
           elapsed)


def test_criterion_10_invariants_suite():
    start = time.perf_counter()
    # alpha path equivalence on Q-window draws
    path_ok = True
    for n, seed in ((8, 701), (16, 702), (32, 703), (64, 704)):
        d = n ** 3
        s = symmetric_eigenvalues(shift_scale_goe(sample_goe(n, RngState(seed)), d))
        if in_q(s, n, d):
            path_ok &= abs(alpha_exact(s, n, d)
                           - alpha_from_densities(s, n, d)) <= 1e-6
    # trace identity
    trace_ok = True
    for seed in range(5):
        m = sample_goe(30, RngState(710 + seed))
        s = symmetric_eigenvalues(m)
        scale = 30 * max(np.max(np.abs(s.eigenvalues)), 1.0)
        trace_ok &= abs(math.fsum(s.eigenvalues)
                        - np.trace(m)) <= 1e-10 * scale
    # estimator side symmetry
    a = tv_estimate_goe_side(8, 512, 20_000, RngState(720))
    b = tv_estimate_wishart_side(8, 512, 20_000, RngState(721))
    sides_ok = abs(a.mean - b.mean) <= 3 * (a.stderr + b.stderr)
    # integrand boundedness
    vals = [r.integrand for r in tv_profile(3, 3, 500, RngState(730))]
    bounded_ok = all(0.0 <= v <= 1.0 for v in vals)
    # Wishart draws are PSD
    psd_ok = all(
        symmetric_eigenvalues(sample_wishart(6, 12, RngState(740 + s))
                              ).eigenvalues[0] >= -1e-8 * 12
        for s in range(50))
    elapsed = time.perf_counter() - start
    ok = path_ok and trace_ok and sides_ok and bounded_ok and psd_ok
    report(10, ok, f"path={path_ok} trace={trace_ok} sides={sides_ok} "
                   f"bounded={bounded_ok} psd={psd_ok}", elapsed)
