"""Command-line interface.

Subcommands:
  tv       single-point Monte Carlo TV estimate
  limit    closed form, quadrature, and large-c asymptote at one c
  clt      empirical covariance of the (first, third) power-sum pair
  sweep    run a configured (c, n) grid, write CSV and optionally SVG
  profile  stream per-evaluation alpha breakdowns as CSV

Exit codes: 0 success, 1 runtime error, 2 configuration/usage error.
The WGLAB_WORKERS environment variable overrides the worker count of tv and
sweep.  The worker count only spreads the work over processes: a given seed
gives the same output for any worker count.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DomainError, InvalidParameterError
from .experiments import (_SVG_MIN_C, emit_csv, emit_figure1_svg,
                          parse_config, run_sweep)
from .limit_theory import (LimitParams, asymptotic_tail,
                           clt_covariance_estimate, limiting_tv_closed_form,
                           limiting_tv_quadrature)
from .rng import RngState
from .tv_mc import (GOE_SIDE, WISHART_SIDE, profile_columns,
                    tv_estimate_goe_side, tv_estimate_wishart_side)

PROFILE_HEADER = "alpha,s0,s1,s2,s3,s4,remainder,in_q,psd,integrand"


def _workers_from_env(default: int) -> int:
    raw = os.environ.get("WGLAB_WORKERS")
    if raw is None:
        return default
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"WGLAB_WORKERS must be an integer, got {raw!r}")
    if workers < 1:
        raise ConfigError(f"WGLAB_WORKERS must be >= 1, got {workers}")
    return workers


# built once per process: parsing reuses it, and leaves it as it was
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wglab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_tv = sub.add_parser("tv", help="single-point TV estimate")
    p_tv.add_argument("--n", type=int, required=True)
    p_tv.add_argument("--d", type=int, required=True)
    p_tv.add_argument("--samples", type=int, default=100_000,
                      help="alpha evaluations; on the GOE side each draw is "
                      "evaluated as drawn and mirrored (an antithetic pair)")
    p_tv.add_argument("--seed", type=int, default=0)
    p_tv.add_argument("--side", choices=[GOE_SIDE, WISHART_SIDE],
                      default=GOE_SIDE)
    p_tv.add_argument("--workers", type=int, default=1)

    p_limit = sub.add_parser("limit", help="limiting TV at one c")
    p_limit.add_argument("--c", type=float, required=True)

    p_clt = sub.add_parser("clt", help="empirical CLT covariance")
    p_clt.add_argument("--n", type=int, required=True)
    p_clt.add_argument("--reps", type=int, required=True,
                       help="GOE draws, from 2 to 2^22")
    p_clt.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="run a configured grid")
    p_sweep.add_argument("--config", required=True)

    p_prof = sub.add_parser("profile",
                            help="stream per-evaluation diagnostics")
    p_prof.add_argument("--n", type=int, required=True)
    p_prof.add_argument("--d", type=int, required=True)
    p_prof.add_argument("--samples", type=int, default=1000,
                        help="alpha evaluations, one row each; each draw is "
                        "evaluated as drawn and mirrored (an antithetic pair)")
    p_prof.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_tv(args, out) -> int:
    estimate = (tv_estimate_goe_side if args.side == GOE_SIDE
                else tv_estimate_wishart_side)
    est = estimate(args.n, args.d, args.samples, RngState(args.seed),
                   workers=_workers_from_env(args.workers))
    print(f"tv_mean={est.mean!r}", file=out)
    print(f"tv_stderr={est.stderr!r}", file=out)
    print(f"ci99=[{est.ci_lo!r},{est.ci_hi!r}]", file=out)
    print(f"frac_in_q={est.frac_in_q!r} frac_psd={est.frac_psd!r}", file=out)
    print(f"cv_var_ratio={est.var_ratio!r}", file=out)
    return 0


def _cmd_limit(args, out) -> int:
    p = LimitParams(args.c)
    print(f"closed_form={limiting_tv_closed_form(p)!r}", file=out)
    print(f"quadrature={limiting_tv_quadrature(p)!r}", file=out)
    print(f"asymptote={asymptotic_tail(p)!r}", file=out)
    return 0


def _cmd_clt(args, out) -> int:
    cov = clt_covariance_estimate(args.n, args.reps, RngState(args.seed))
    print(f"c11={cov.c11!r}", file=out)
    print(f"c12={cov.c12!r}", file=out)
    print(f"c22={cov.c22!r}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    cfg = parse_config(args.config)
    cfg = replace(cfg, workers=_workers_from_env(cfg.workers))
    # checked before the grid runs, not after it has written sweep.csv
    if cfg.emit_svg and len(cfg.c_grid) < _SVG_MIN_C:
        raise ConfigError(f"emit_svg needs {_SVG_MIN_C} or more c values")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(cfg)
    csv_path = cfg.out_dir / "sweep.csv"
    emit_csv(rows, csv_path)
    print(f"wrote {csv_path}", file=out)
    if cfg.emit_svg:
        svg_path = cfg.out_dir / "figure1.svg"
        emit_figure1_svg(rows, svg_path)
        print(f"wrote {svg_path}", file=out)
    return 0


def _cmd_profile(args, out) -> int:
    groups = profile_columns(args.n, args.d, args.samples,
                             RngState(args.seed))
    print(PROFILE_HEADER, file=out)
    for group in groups:
        out.write("".join(row + "\n" for row in _profile_rows(*group)))
    return 0


def _profile_rows(alpha, terms, q, psd, values):
    """The CSV rows of one group of evaluations, built a column at a time:
    floats as repr, flags as true/false, and no s-fields where alpha is
    -inf."""
    s0, *rest = terms
    fields = [[repr(s0)] * alpha.size,
              *(list(map(repr, col.tolist())) for col in rest)]
    for j in np.flatnonzero(alpha == -np.inf).tolist():
        for col in fields:
            col[j] = ""
    flags = (np.where(f, "true", "false").tolist() for f in (q, psd))
    return map(",".join, zip(map(repr, alpha.tolist()), *fields, *flags,
                             map(repr, values.tolist())))


_COMMANDS = {"tv": _cmd_tv, "limit": _cmd_limit, "clt": _cmd_clt,
             "sweep": _cmd_sweep, "profile": _cmd_profile}


def cli_dispatch(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args, out)
    except (ConfigError, DomainError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())
