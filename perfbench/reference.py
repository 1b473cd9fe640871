"""Compute the correctness references of the benchmark into reference.json.

Run from the repository root:

    python3 perfbench/reference.py

Each reference is one long run of the same estimator a workload calls, on
seeds from 2**62 up (disjoint from every workload seed, which stays below
2**60).  The finite-n TV of the `tv` workload and of each sweep point is
stored with its stderr; the CLT entry records the finite-n covariance at
n = 200, so the bias of the [[2, 6], [6, 24]] target at that n is on file.
Takes about 5 minutes on two cores.
"""

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from wglab import (RngState, clt_covariance_estimate,  # noqa: E402
                   tv_estimate_goe_side)

TV_SAMPLES = 1_000_000
SWEEP_SAMPLES = 200_000
CLT_REPS = 20_000
WORKERS = 2


def _tv(n, d, samples, seed):
    est = tv_estimate_goe_side(n, d, samples, RngState(seed), workers=WORKERS)
    return {"n": n, "d": d, "side": "goe_side", "samples": est.samples,
            "seed": seed, "workers": WORKERS, "mean": est.mean,
            "stderr": est.stderr}


def main() -> int:
    start = time.perf_counter()
    seed = wl.REF_SEED_BASE
    tv = {"goe_n32_c1": _tv(wl.GOE["n"], wl.GOE["d"], TV_SAMPLES, seed)}
    seed += 1
    print("goe_n32_c1", tv["goe_n32_c1"], flush=True)
    sweep = []
    for c, n, d in wl.sweep_points():
        ref = _tv(n, d, SWEEP_SAMPLES, seed)
        sweep.append({"c": c, **ref})
        seed += 1
        print("sweep", sweep[-1], flush=True)
    cov = clt_covariance_estimate(wl.CLT["n"], CLT_REPS, RngState(seed))
    se22 = math.sqrt(2 * cov.c22 ** 2 / (CLT_REPS - 1))
    clt = {"n": wl.CLT["n"], "reps": CLT_REPS, "seed": seed,
           "c11": cov.c11, "c12": cov.c12, "c22": cov.c22,
           "c22_stderr": se22, "target": [[2, 6], [6, 24]]}
    print("clt", clt, flush=True)
    out = {
        "how": ("long runs of the workloads' own estimators (the GOE-side "
                "tv_mc estimator for tv and for every sweep point, "
                "clt_covariance_estimate for clt) at the sample "
                "counts below, one seed per entry counting up from 2**62; "
                "made by `python3 perfbench/reference.py`"),
        "seconds": round(time.perf_counter() - start, 1),
        "tv": tv, "sweep": sweep, "clt": clt,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
