"""The wglab benchmark: three fixed CLI workloads, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is driven in-process through
`wglab.cli.cli_dispatch` with `src/` on the path, so nothing is installed.
A run starts five fresh measuring processes (child.py) one after another;
each imports wglab, makes a warm-up call and then repeats the workload for a
fifth of S seconds.  Every call's output is checked against the references
in reference.json, and so is the mean of the run's calls (the pooled
check), which narrows the tolerance by the square root of the call count.

With --trace 0 the run reports the end-to-end metrics: medians over calls
(wall_s, draws_per_s, time_to_stderr_1e-3_s), over processes (setup_s,
and peak_rss_mb after each process's first call) and the share of calls
that passed (ok_frac).  With --trace 1
each call is made plain and traced, and the run reports per-layer counts and
self times (spans.py), medians over calls.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

Workloads (see workloads.py for their arguments and checks):
  goe_n32_c1        tv on the GOE side at n=32, d=n^3: sampling + eigvalsh
  sweep_small_n_w2  sweep over 8 c x n in {4, 8, 16} with 2 pool workers
  clt_n200          clt at n=200: few eigvalsh calls on large matrices
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

PROCESSES = 5
# every run, the slowest included, must end well inside 180 s
DEADLINE_S = 170.0


def _child(workload, seed, index, seconds, trace, work_dir, deadline):
    """Run one measuring process; returns (setup seconds, its JSON record)."""
    env = dict(os.environ)
    # the workloads fix their own worker counts
    env.pop("WGLAB_WORKERS", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(seed),
         str(index), repr(seconds), "1" if trace else "0", str(work_dir)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.perf_counter(), 0.0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        if line.strip() != b"READY":
            raise RuntimeError(f"measuring process not ready: {line!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(workload, setups, records):
    calls = [c for r in records for c in r["calls"]]
    good = [c for c in calls if c.get("problem") is None] or calls
    timed = [c for c in good if "wall_s" in c]
    wall = _median(c["wall_s"] for c in timed)
    # the largest stderr a call reports, squared and averaged over the
    # run's calls, is steadier than any one call's
    var = statistics.fmean(max((se for _, se in c["estimates"].values()),
                               default=0.0) ** 2
                           for c in timed) if timed else 0.0
    return {
        "wall_s": wall,
        "draws_per_s": wl.draws(workload) / wall if wall else 0.0,
        "time_to_stderr_1e-3_s": wall * var / wl.TARGET_STDERR ** 2,
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in records),
        "ok_frac": 1.0 - sum(c.get("problem") is not None
                             for c in calls) / len(calls),
    }


def per_layer(records):
    layers = [m for r in records for m in r["layers"]]
    calls = [c for r in records for c in r["calls"] if "traced_wall_s" in c]
    out = {k: _median(m[k] for m in layers) for k in (layers[0] if layers else {})}
    out["tv_mc.pool_overhead_s"] = _median(
        r["pool_overhead_s"] for r in records if "pool_overhead_s" in r)
    plain = _median(c["wall_s"] for c in calls)
    out["trace.overhead_frac"] = (
        _median(c["traced_wall_s"] for c in calls) / plain - 1.0 if plain else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wglab" / "cli.py").is_file():
        print(f"error: no wglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: perfbench/reference.json is missing; "
              "make it with perfbench/reference.py", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    work_dir = ROOT / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    setups, records, errors = [], [], []
    try:
        for index in range(PROCESSES):
            try:
                setup, record = _child(args.workload, args.seed, index,
                                       args.seconds / PROCESSES, args.trace,
                                       work_dir, deadline)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                errors.append(f"process {index}: {exc}")
                continue
            setups.append(setup)
            records.append(record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    calls = [c for r in records for c in r["calls"]]
    problems = [c["problem"] for c in calls if c.get("problem") is not None]
    # the run's pooled check counts as one more attempt
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    pooled = wl.pooled_check(args.workload, [c["estimates"] for c in calls
                                             if c.get("estimates")], refs)
    for problem in errors + problems[:5] + [pooled] * bool(pooled):
        print(f"FAILED: {problem}", file=sys.stderr)
    env = next((r["env"] for r in records if "env" in r), None)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = len(calls) + len(errors) + 1
    failed = len(problems) + len(errors) + bool(pooled)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    measured = {}
    if calls:
        measured = (per_layer(records) if args.trace
                    else end_to_end(args.workload, setups, records))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in measured}
    # every measured metric is declared and reported, and the reverse
    unmatched = set(measured) ^ {m["name"] for m in declared}
    if calls and unmatched:
        print(f"error: measured and declared metrics differ: "
              f"{sorted(unmatched)}", file=sys.stderr)
        failed += 1
    failed = min(failed, attempted)
    print(f"workload {args.workload}: {attempted} attempted ({len(calls)} "
          f"calls and the pooled check), {failed} failed "
          f"(failed_frac = {failed / attempted:.4g})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(calls),
        "attempted": attempted,
        "failed": failed if calls else attempted,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
