"""Measure the committed baseline of every workload into baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py

Two sets of ten untraced runs of run.py per workload (seeds 100-109, then
200-209; the first set over every workload before the second), then one
traced run per workload (seed 110).  For each set and end-to-end metric it
records the median, the quartiles and the spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json, plus the per-layer metrics of the
traced run and the run environment.  A spread above a third of its bound is
flagged as unsteady, and a second-set median worse than the first by more
than the bound as a disagreement.  Takes about 45 minutes.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = (range(100, 110), range(200, 210))
TRACED_SEED = 110


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def _summary(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": bound,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = {"made_by": "python3 perfbench/baseline.py", "run_seconds": seconds,
           "workloads": {name: {"failed": 0, "sets": []} for name in names}}
    unsteady, disagree = [], []
    for seeds in SETS:
        for name in names:
            values = {}
            for seed in seeds:
                start = time.perf_counter()
                res, env = _run(name, seed, seconds, 0)
                elapsed = time.perf_counter() - start
                out["workloads"][name]["failed"] += res["failed"]
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                print(name, seed, f"{elapsed:.1f}s",
                      {k: round(v["value"], 4)
                       for k, v in res["metrics"].items()}, flush=True)
            summary = {k: _summary(v, declared[k]["bound"])
                       for k, v in values.items()}
            out["workloads"][name]["sets"].append(
                {"seeds": list(seeds), "end_to_end": summary})
            for k, v in summary.items():
                print(f"  {name} {k}: median {v['median']:.5g} "
                      f"spread {v['spread']:.3f} (bound {v['bound']})",
                      flush=True)
                if v["spread"] > v["bound"] / 3:
                    unsteady.append(f"{name} seeds {seeds[0]}-{seeds[-1]} "
                                    f"{k}: spread {v['spread']:.3f} > "
                                    f"{v['bound']}/3")
    for name in names:
        first, second = (s["end_to_end"] for s in out["workloads"][name]["sets"])
        for k, m in declared.items():
            change = second[k]["median"] / first[k]["median"] - 1.0
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                disagree.append(f"{name} {k}: second median worse by "
                                f"{worse:.3f} > {m['bound']}")
        traced, env = _run(name, TRACED_SEED, seconds, 1)
        out["workloads"][name]["failed"] += traced["failed"]
        out["workloads"][name]["per_layer"] = {
            k: v["value"] for k, v in traced["metrics"].items()}
        out["environment"] = env
    out["unsteady"] = unsteady
    out["disagree"] = disagree
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                        encoding="utf-8")
    print("unsteady:", unsteady or "none")
    print("disagree:", disagree or "none")
    return 1 if unsteady or disagree else 0


if __name__ == "__main__":
    sys.exit(main())
