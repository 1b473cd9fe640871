"""Alternating benchmark pairs: the parent checkout against the change.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 101 102 ... --out BENCH_<pr>.json

Each checkout must be a git checkout with no uncommitted changes to
tracked files, so that the commit it names (`git rev-parse HEAD`) is what
runs; `git worktree add DIR REV` makes one.  Otherwise the tool exits 2.

For each seed, runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once from each checkout, one after the other, and switches which
checkout goes first every pair.  T is the `run_seconds` of the change's
BENCHMARK.json.  Each run's last line of standard output (its JSON result)
is appended to --out with the commit it ran, and the file is rewritten
after every run; an existing file is extended, so several workloads can
share it, as long as it names the same two commits.  A run that fails is
recorded with a null result and its error.

At the end, prints for each end-to-end metric the median and quartiles of
each side over this invocation's complete pairs, the number of pairs the
change won, by the metric's declared direction, and the change's median
over the parent's next to the metric's `bound`, flagged where it is worse
than the bound, or as unresolved where the parent's runs spread too widely
to tell; a last line names every such metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

PAIRING = ("parent and change alternate, the first of each pair switching "
           "every pair")


def _git(checkout: Path, *args):
    """Standard output of a git command in the checkout, or None if it
    fails."""
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(checkout: Path) -> str:
    """The commit the checkout runs; SystemExit(2) where it has none, or
    has uncommitted changes to tracked files."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    rev = _git(checkout, "rev-parse", "--verify", "HEAD")
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    if not (top and rev) or status is None or (
            Path(top).resolve() != checkout.resolve()):
        problem = "has no readable git revision of its own"
    elif status:
        problem = "has uncommitted changes to tracked files"
    else:
        return rev
    print(f"error: {checkout} {problem}; measure a clean checkout of the "
          "commit, for example one made by `git worktree add DIR REV`",
          file=sys.stderr)
    raise SystemExit(2)


def _host() -> str:
    versions = []
    for name in ("numpy", "scipy"):
        try:
            versions.append(f"{name} {metadata.version(name)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{name} absent")
    return ", ".join([f"{os.cpu_count()} CPUs", *versions,
                      f"Python {platform.python_version()}"])


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """(JSON result or None, error or None) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), None
    except ValueError as exc:
        return None, f"last line is not JSON: {exc}"


def summarize(runs, declared):
    """Lines of per-side medians and quartiles, the pairs the change won
    and the no-regression verdict, over the pairs (runs of one seed) that
    both sides completed.  The verdict sets the change's median over the
    parent's against the metric's bound: a metric is worse than its bound
    where that ratio exceeds 1 + bound (lower is better) or falls below
    1 - bound (higher is better).  Otherwise it is ok, unless the parent's
    interquartile range exceeds bound times its median, where the medians
    cannot show a change of the bound's size: then it is unresolved, but
    for a change each of whose runs beats every run of the parent."""
    by_seed = {}
    for run in runs:
        if run["result"] is not None:
            by_seed.setdefault(run["seed"], {})[run["commit"]] = (
                run["result"]["metrics"])
    pairs = [p for p in by_seed.values() if len(p) == 2]
    lines = [f"{len(pairs)} complete pairs"]
    worse, unresolved = [], []
    for m in declared:
        name = m["name"]
        values = [(p["parent"][name]["value"], p["change"][name]["value"])
                  for p in pairs
                  if name in p["parent"] and name in p["change"]]
        if len(values) < 2:
            continue
        parents, changes = zip(*values)
        text, quartiles = [], []
        for side, side_values in (("parent", parents), ("change", changes)):
            q1, med, q3 = statistics.quantiles(side_values, n=4)
            text.append(f"{side} {med:.6g} ({q1:.6g}-{q3:.6g})")
            quartiles.append((q1, med, q3))
        (q1, parent, q3), (_, change, _) = quartiles
        lower = m["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in values)
        beats_all = (max(changes) < min(parents) if lower
                     else min(changes) > max(parents))
        verdict = "no parent median"
        if parent:
            ratio = change / parent
            bad = ratio > 1 + m["bound"] if lower else ratio < 1 - m["bound"]
            if bad:
                state = "WORSE THAN BOUND"
                worse.append(name)
            elif q3 - q1 > m["bound"] * abs(parent) and not beats_all:
                state = "unresolved"
                unresolved.append(name)
            else:
                state = "ok"
            verdict = (f"change/parent {ratio:.4g}, bound {m['bound']:g}: "
                       f"{state}")
        lines.append(f"  {name}: {', '.join(text)}; change won "
                     f"{won}/{len(values)}; {verdict}")
    lines.append(f"verdict: worse than bound: {', '.join(worse)}" if worse
                 else "verdict: no metric worse than its bound")
    if unresolved:
        lines[-1] += f"; unresolved: {', '.join(unresolved)}"
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    revs = {"parent": revision(args.parent), "change": revision(args.change)}
    declared = json.loads((args.change / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    seconds = declared["run_seconds"]
    if args.out.is_file():
        bench = json.loads(args.out.read_text(encoding="utf-8"))
        if {k: bench.get(k) for k in revs} != revs:
            print(f"error: {args.out} measures other commits", file=sys.stderr)
            return 2
    else:
        bench = {"command": "python3 perfbench/run.py --workload W --seed S "
                            f"--seconds {seconds:g} --trace 0",
                 **revs, "host": _host(), "pairing": PAIRING,
                 "series": {"final": "the committed change"}, "runs": []}
    runs = bench["runs"]
    start = len(runs)
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for commit in order:
            checkout = args.parent if commit == "parent" else args.change
            result, error = run_once(checkout, args.workload, seed, seconds)
            run = {"commit": commit, "revision": revs[commit],
                   "series": "final", "order": len(runs),
                   "workload": args.workload, "seed": seed, "result": result}
            if error is not None:
                run["error"] = error
            runs.append(run)
            args.out.write_text(json.dumps(bench, indent=1) + "\n",
                                encoding="utf-8")
            status = "failed" if result is None else (
                f"correct {result['correct']}")
            print(f"{args.workload} seed {seed} {commit}: {status}",
                  flush=True)
    print(f"{args.workload}:")
    for line in summarize(runs[start:], declared["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
