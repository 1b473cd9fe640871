"""One measuring process of a benchmark run; started by run.py.

    python3 perfbench/child.py WORKLOAD SEED CHILD SECONDS TRACE WORK_DIR

Imports wglab from `src/`, makes one tiny warm-up call, prints `READY`, then
calls the workload through `cli_dispatch` until SECONDS have passed.  With
TRACE=1 every call is made twice with the same seed, once plain and once
traced; the two outputs must be byte-identical.  The last line printed is a
JSON record of the calls.
"""

import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from wglab.cli import cli_dispatch  # noqa: E402

import envinfo  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WARMUP = ["tv", "--n", "2", "--d", "4", "--samples", "8", "--seed", "0"]


def _call(argv, tracer=None):
    """(exit code, stdout text, wall seconds, spans or None)."""
    out = io.StringIO()
    if tracer is None:
        start = time.perf_counter()
        rc = cli_dispatch(argv, out=out)
        return rc, out.getvalue(), time.perf_counter() - start, None
    tracer.install()
    try:
        rc, recorded = tracer.invoke(cli_dispatch, argv, out=out)
    finally:
        tracer.uninstall()
    return rc, out.getvalue(), recorded[0].duration, recorded


def _pool_overhead(seed, reps=5):
    """Median wall of a 2-draw estimate at workers=2 minus at workers=1."""
    from wglab import RngState, tv_estimate_goe_side

    gaps = []
    for i in range(reps):
        walls = {}
        for workers in ((1, 2) if i % 2 else (2, 1)):
            start = time.perf_counter()
            tv_estimate_goe_side(4, 64, 2, RngState(seed + i), workers=workers)
            walls[workers] = time.perf_counter() - start
        gaps.append(walls[2] - walls[1])
    return statistics.median(gaps)


def _peak_rss_mb():
    """Larger of this process's and its waited-for children's max RSS."""
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage * 1024 / 1e6


def _checked(workload, rc, text, work_dir, refs):
    """(problem or None, estimates) of one call."""
    if rc != 0:
        return f"exit code {rc}", {}
    try:
        return wl.check(workload, text, work_dir, refs)
    except Exception as exc:  # any malformed output is a failed call
        return f"output check raised {exc!r}", {}


def main() -> int:
    workload, seed, child, seconds, trace, work_dir = sys.argv[1:7]
    seed, child, seconds, trace = int(seed), int(child), float(seconds), trace == "1"
    work_dir = Path(work_dir)
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    cli_dispatch(WARMUP, out=io.StringIO())
    print("READY", flush=True)

    calls = []
    layers = []
    tracer = spans.Tracer() if trace else None
    start = last = time.perf_counter()
    i = 0
    while True:
        # stop at the call boundary nearest to the end of the time budget,
        # taking the next call to last as long as the previous one
        now = time.perf_counter()
        if calls and (now - start) + (now - last) / 2 >= seconds:
            break
        last = now
        argv = wl.argv(workload, wl.call_seed(seed, workload, child, i), work_dir)
        record = {}
        try:
            # in a traced run the plain and the traced call alternate in
            # order, so neither side always runs on the warmer cache
            if trace and i % 2:
                rc2, text2, wall2, recorded = _call(argv, tracer)
                traced = (rc2, text2, wl.artifacts(workload, work_dir))
            rc, text, wall, _ = _call(argv)
            problem, estimates = _checked(workload, rc, text, work_dir, refs)
            record = {"wall_s": wall, "estimates": estimates,
                      "problem": problem}
            if trace:
                plain = (rc, text, wl.artifacts(workload, work_dir))
                if not i % 2:
                    rc2, text2, wall2, recorded = _call(argv, tracer)
                    traced = (rc2, text2, wl.artifacts(workload, work_dir))
                if traced != plain:
                    record["problem"] = "traced output differs from untraced"
                metrics = spans.layer_metrics(recorded)
                gap = spans.self_time_gap(recorded, metrics)
                if gap > 1e-6:
                    record["problem"] = (f"reported self times miss the "
                                         f"cli_dispatch wall by {gap:.3g}s")
                record["traced_wall_s"] = wall2
                layers.append(metrics)
        except Exception:
            record["problem"] = traceback.format_exc(limit=3)
        calls.append(record)
        if i == 0:
            # what one command of the console script costs; later calls
            # add heap growth that depends on how many fit in the budget
            peak_rss_mb = _peak_rss_mb()
        i += 1

    result = {"calls": calls, "layers": layers, "peak_rss_mb": peak_rss_mb}
    if trace and workload == "sweep_small_n_w2":
        result["pool_overhead_s"] = _pool_overhead(
            wl.call_seed(seed, "pool", child, 0))
    if child == 0:
        result["env"] = envinfo.collect(ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
