import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="the tool measures git checkouts")

# stands in for perfbench/run.py: prints a status line, then one JSON
# result whose wall_s is the checkout's WALL plus the seed / 1000
FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("workload fake: 2 attempted")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "wall_s": {"value": WALL + seed / 1000, "unit": "s"},
    "ok_frac": {"value": 1.0, "unit": "frac"}}}))
"""

DECLARED = {"run_seconds": 36, "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01}]}


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=bench",
         "-c", "user.email=bench@example.com", *args],
        capture_output=True, text=True, check=True).stdout.strip()


def fake_tree(root, run_py):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    return root


def fake_checkout(root, wall=None, run_py=None):
    """A git repository with one commit of a fake benchmark."""
    fake_tree(root, run_py or FAKE_RUN.replace("WALL", repr(wall)))
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "fake benchmark")
    return root


def run_tool(parent, change, out, seeds, check=True):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change",
         str(change), "--workload", "fake", "--seeds", *map(str, seeds),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=check)
    return proc.stdout if check else proc


def test_pairs_alternate_and_append(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 2.0)
    change = fake_checkout(tmp_path / "change", 1.0)
    out = tmp_path / "BENCH.json"
    text = run_tool(parent, change, out, [1, 2, 3])
    assert "wall_s: parent 2.002 (2.001-2.003), change 1.002 (1.001-1.003); " \
           "change won 3/3" in text
    assert "ok_frac" in text and "change won 0/3" in text
    bench = json.loads(out.read_text())
    revs = {side: git(root, "rev-parse", "HEAD")
            for side, root in (("parent", parent), ("change", change))}
    assert {k: bench[k] for k in revs} == revs
    assert [(r["commit"], r["seed"]) for r in bench["runs"]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3)]
    assert [r["order"] for r in bench["runs"]] == list(range(6))
    assert bench["runs"][0]["result"]["metrics"]["wall_s"]["value"] == 2.001
    assert all(r["revision"] == revs[r["commit"]] for r in bench["runs"])
    # a second invocation extends the same file and is summarized alone
    text = run_tool(parent, change, out, [1, 4])
    assert "2 complete pairs" in text and "change won 2/2" in text
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 10 and [r["order"] for r in runs] == list(range(10))
    # but not once the change is another commit
    (change / "BENCHMARK.json").write_text(json.dumps(DECLARED, indent=1))
    git(change, "commit", "-q", "-am", "another commit")
    proc = run_tool(parent, change, out, [5], check=False)
    assert proc.returncode == 2 and "other commits" in proc.stderr
    assert len(json.loads(out.read_text())["runs"]) == 10


def test_failed_run_is_recorded(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 2.0)
    change = fake_checkout(tmp_path / "change",
                           run_py="raise SystemExit(3)\n")
    out = tmp_path / "BENCH.json"
    text = run_tool(parent, change, out, [1])
    assert "0 complete pairs" in text
    runs = json.loads(out.read_text())["runs"]
    assert runs[1]["result"] is None and runs[1]["error"].startswith("exit 3")


@pytest.mark.parametrize("case", ["plain", "subdirectory", "dirty"])
def test_unknown_or_unclean_checkout_is_refused(tmp_path, case):
    # a plain copy, a directory inside another repository and a checkout
    # whose tracked files differ from its commit do not say what they run
    parent = fake_checkout(tmp_path / "parent", 2.0)
    if case == "plain":
        change = fake_tree(tmp_path / "change", FAKE_RUN.replace("WALL", "1"))
    elif case == "subdirectory":
        change = fake_tree(parent / "copy", FAKE_RUN.replace("WALL", "1"))
    else:
        change = fake_checkout(tmp_path / "change", 1.0)
        (change / "perfbench" / "run.py").write_text("raise SystemExit(0)\n")
    out = tmp_path / "BENCH.json"
    proc = run_tool(parent, change, out, [1], check=False)
    assert proc.returncode == 2
    assert str(change) in proc.stderr and "git worktree add" in proc.stderr
    assert not out.exists()


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(parent, change):
    """Runs of one seed per pair, each side's {metric: values}."""
    runs = []
    for seed in range(len(parent["wall_s"])):
        for commit, values in (("parent", parent), ("change", change)):
            metrics = {k: {"value": v[seed]} for k, v in values.items()}
            runs.append({"commit": commit, "seed": seed,
                         "result": {"metrics": metrics}})
    return runs


def test_verdict_flags_each_metric_worse_than_its_bound():
    declared = [*DECLARED["end_to_end"],
                {"name": "draws_per_s", "better": "higher", "bound": 0.25}]
    summarize = load_tool().summarize
    parent = {"wall_s": [1.0, 1.1, 0.9], "ok_frac": [1.0, 1.0, 1.0],
              "draws_per_s": [100.0, 110.0, 90.0]}
    # within every bound, though the change lost every pair of wall_s
    lines = summarize(synthetic_runs(parent, {
        "wall_s": [1.2, 1.3, 1.1], "ok_frac": [1.0, 1.0, 1.0],
        "draws_per_s": [80.0, 90.0, 70.0]}), declared)
    assert "change/parent 1.2, bound 0.25: ok" in lines[1]
    assert "change/parent 0.8, bound 0.25: ok" in lines[3]
    assert lines[-1] == "verdict: no metric worse than its bound"
    # 30% slower, 2% of calls failed and 30% fewer draws per second
    lines = summarize(synthetic_runs(parent, {
        "wall_s": [1.3, 1.4, 1.2], "ok_frac": [0.98, 0.98, 0.98],
        "draws_per_s": [70.0, 80.0, 60.0]}), declared)
    assert "change/parent 1.3, bound 0.25: WORSE THAN BOUND" in lines[1]
    assert "change/parent 0.98, bound 0.01: WORSE THAN BOUND" in lines[2]
    assert "change/parent 0.7, bound 0.25: WORSE THAN BOUND" in lines[3]
    assert lines[-1] == "verdict: worse than bound: wall_s, ok_frac, " \
                        "draws_per_s"


def test_verdict_is_unresolved_where_the_parent_spreads_too_widely():
    # the parent's wall_s quartiles (0.8 and 1.5) span 70% of its median,
    # more than the bound of 25%: a change within the bound is unresolved
    # unless every one of its runs beats every run of the parent; ok_frac,
    # with no spread, stays ok
    summarize = load_tool().summarize
    parent = {"wall_s": [1.0, 1.5, 0.8], "ok_frac": [1.0, 1.0, 1.0]}
    lines = summarize(synthetic_runs(parent, {
        "wall_s": [0.9, 1.4, 1.0], "ok_frac": [1.0, 1.0, 1.0]}),
        DECLARED["end_to_end"])
    assert "change/parent 1, bound 0.25: unresolved" in lines[1]
    assert "change/parent 1, bound 0.01: ok" in lines[2]
    assert lines[-1] == "verdict: no metric worse than its bound; " \
                        "unresolved: wall_s"
    lines = summarize(synthetic_runs(parent, {
        "wall_s": [0.5, 0.7, 0.6], "ok_frac": [1.0, 1.0, 1.0]}),
        DECLARED["end_to_end"])
    assert "change/parent 0.6, bound 0.25: ok" in lines[1]
    assert lines[-1] == "verdict: no metric worse than its bound"
    # a change worse than the bound is flagged so, however wide the spread
    lines = summarize(synthetic_runs(parent, {
        "wall_s": [1.3, 1.9, 1.2], "ok_frac": [1.0, 1.0, 1.0]}),
        DECLARED["end_to_end"])
    assert "change/parent 1.3, bound 0.25: WORSE THAN BOUND" in lines[1]
    assert lines[-1] == "verdict: worse than bound: wall_s"
