"""The three fixed workloads, their CLI arguments and their output checks.

Each workload is one `wglab` command line, run in-process through
`wglab.cli.cli_dispatch`.  Only the `--seed` of each call varies; it is
derived from the benchmark seed, so the same benchmark seed gives the same
inputs.  Workload seeds stay below 2**60; the references in
`reference.json` were made with seeds from 2**62 up, so the two never share
a random stream.
"""

import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

GOE = {"n": 32, "d": 32768, "side": "goe_side", "samples": 20000}
SWEEP = {"c_grid": (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
         "n_list": (4, 8, 16), "samples": 2000, "workers": 2}
CLT = {"n": 200, "reps": 500}

NAMES = ("goe_n32_c1", "sweep_small_n_w2", "clt_n200")

REF_SEED_BASE = 2 ** 62

# a check fails when an estimate is more than this many combined standard
# errors from its reference; at 6 a false alarm is about 2e-9 per check, so
# even the ~1e5 point checks of many sweep runs stay clean
Z_CHECK = 6.0

# stderr target of the `time_to_stderr_1e-3_s` projection
TARGET_STDERR = 1e-3

CLT_TARGET = (2.0, 6.0, 24.0)


def call_seed(bench_seed: int, workload: str, child: int, call: int) -> int:
    """CLI seed of one call: a pure function of its position in the run."""
    key = f"{bench_seed}/{workload}/{child}/{call}".encode()
    return int(hashlib.sha256(key).hexdigest()[:15], 16)


def degrees_of_freedom(c: float, n: int) -> int:
    return int(round(c * n ** 3))


def sweep_points():
    """(c, n, d) in the grid order the sweep must write them."""
    return [(c, n, degrees_of_freedom(c, n))
            for c in SWEEP["c_grid"] for n in SWEEP["n_list"]]


def limit_tv(c: float) -> float:
    return math.erf(1.0 / (4.0 * math.sqrt(3.0) * math.sqrt(c)))


def argv(workload: str, seed: int, work_dir: Path) -> list:
    """The command line of one call."""
    if workload == "clt_n200":
        return ["clt", "--n", str(CLT["n"]), "--reps", str(CLT["reps"]),
                "--seed", str(seed)]
    if workload == "sweep_small_n_w2":
        cfg = work_dir / "sweep.cfg"
        cfg.write_text(
            f"c_grid = {', '.join(repr(c) for c in SWEEP['c_grid'])}\n"
            f"n_list = {', '.join(str(n) for n in SWEEP['n_list'])}\n"
            f"samples = {SWEEP['samples']}\n"
            f"seed = {seed}\n"
            f"workers = {SWEEP['workers']}\n"
            f"out_dir = {work_dir / 'out'}\n"
            "emit_svg = true\n", encoding="utf-8")
        return ["sweep", "--config", str(cfg)]
    if workload != "goe_n32_c1":
        raise ValueError(f"unknown workload {workload!r}")
    return ["tv", "--n", str(GOE["n"]), "--d", str(GOE["d"]),
            "--side", GOE["side"], "--workers", "1",
            "--samples", str(GOE["samples"]), "--seed", str(seed)]


def draws(workload: str) -> int:
    """Matrix draws one call completes (MC samples or CLT reps)."""
    if workload == "goe_n32_c1":
        return GOE["samples"]
    if workload == "clt_n200":
        return CLT["reps"]
    return SWEEP["samples"] * len(sweep_points())


def artifacts(workload: str, work_dir: Path) -> bytes:
    """Bytes a call wrote besides its standard output (sweep only)."""
    if workload != "sweep_small_n_w2":
        return b""
    out = work_dir / "out"
    return (out / "sweep.csv").read_bytes() + b"\0" + \
        (out / "figure1.svg").read_bytes()


def _fields(text: str) -> dict:
    out = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


class CheckFailed(Exception):
    """Output that is malformed or inconsistent, whatever its values."""


def _estimates(workload: str, text: str, work_dir: Path) -> dict:
    """{key: [estimate, its stderr]} of one call's output."""
    f = _fields(text)
    if workload == "goe_n32_c1":
        mean, stderr = float(f["tv_mean"]), float(f["tv_stderr"])
        if not (0.0 <= mean <= 1.0 and stderr > 0.0):
            raise CheckFailed(f"tv_mean={mean} tv_stderr={stderr} out of range")
        return {"tv_mean": [mean, stderr]}
    if workload == "clt_n200":
        # Gaussian-theory stderr of each sample covariance entry at the
        # target covariance [[2, 6], [6, 24]]
        reps = CLT["reps"]
        c11, c12, c22 = CLT_TARGET
        se = (math.sqrt(2 * c11 ** 2 / (reps - 1)),
              math.sqrt((c11 * c22 + c12 ** 2) / (reps - 1)),
              math.sqrt(2 * c22 ** 2 / (reps - 1)))
        return {k: [float(f[k]), s] for k, s in zip(("c11", "c12", "c22"), se)}
    return _sweep_estimates(work_dir)


def _sweep_estimates(work_dir: Path) -> dict:
    from wglab.experiments import read_csv

    points = sweep_points()
    rows = read_csv(work_dir / "out" / "sweep.csv")
    if [(r.c, r.n, r.d) for r in rows] != points:
        raise CheckFailed(f"sweep.csv rows {[(r.c, r.n, r.d) for r in rows]} "
                          "!= grid")
    for row in rows:
        if abs(row.tv_limit - limit_tv(row.c)) > 1e-12:
            raise CheckFailed(f"tv_limit {row.tv_limit} wrong at c={row.c}")
        if not row.tv_stderr > 0.0:
            raise CheckFailed(f"tv_stderr {row.tv_stderr} at (c={row.c}, "
                              f"n={row.n})")
    svg = ET.parse(work_dir / "out" / "figure1.svg").getroot()
    dots = [e for e in svg.iter() if e.get("data-tv-mc") is not None]
    if len(dots) != len(points):
        raise CheckFailed(f"figure1.svg has {len(dots)} data points, "
                          f"want {len(points)}")
    if [float(e.get("data-tv-mc")) for e in dots] != [r.tv_mc for r in rows]:
        raise CheckFailed("figure1.svg data points differ from sweep.csv")
    return {f"tv_mc(c={r.c},n={r.n})": [r.tv_mc, r.tv_stderr] for r in rows}


def _references(workload: str, refs: dict) -> dict:
    """{key: [reference value, its stderr]} matching `_estimates`."""
    if workload == "goe_n32_c1":
        ref = refs["tv"][workload]
        return {"tv_mean": [ref["mean"], ref["stderr"]]}
    if workload == "clt_n200":
        return {k: [v, 0.0] for k, v in zip(("c11", "c12", "c22"), CLT_TARGET)}
    if [(r["c"], r["n"], r["d"]) for r in refs["sweep"]] != sweep_points():
        raise CheckFailed("reference.json does not match the sweep grid")
    return {f"tv_mc(c={r['c']},n={r['n']})": [r["mean"], r["stderr"]]
            for r in refs["sweep"]}


def _compare(workload: str, estimates: dict, refs: dict):
    """The first estimate more than Z_CHECK combined stderr from its
    reference, as a problem string, or None."""
    for key, (ref, ref_se) in _references(workload, refs).items():
        value, se = estimates[key]
        z = abs(value - ref) / math.hypot(se, ref_se)
        if not z <= Z_CHECK:
            return (f"{key}={value} is {z:.1f} combined stderr from "
                    f"reference {ref}")
    return None


def check(workload: str, text: str, work_dir: Path, refs: dict):
    """(problem or None, estimates) of one call."""
    try:
        estimates = _estimates(workload, text, work_dir)
    except CheckFailed as exc:
        return str(exc), {}
    return _compare(workload, estimates, refs), estimates


def pooled_check(workload: str, calls: list, refs: dict):
    """Check the mean of a run's per-call estimates, with their stderrs
    combined, at the same Z: a bias far too small for one call shows here.

    `calls` holds the estimates of each call; returns a problem or None.
    """
    if not calls:
        return None
    k = len(calls)
    pooled = {key: [sum(c[key][0] for c in calls) / k,
                    math.sqrt(sum(c[key][1] ** 2 for c in calls)) / k]
              for key in calls[0]}
    problem = _compare(workload, pooled, refs)
    return problem and f"pooled over {k} calls: {problem}"
