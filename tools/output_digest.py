"""sha256 of every output of a wglab checkout over a fixed grid.

    python3 tools/output_digest.py SRC > digest.txt

SRC is the `src/` directory of a checkout; wglab is imported from it, and
the tool exits 2 where that import resolves elsewhere.  For each output of
`GRID` it prints one line, `<sha256>  <label>`:

- `tv`: the mean, stderr, 99% interval, var_ratio, frac_in_q and frac_psd
  of one estimate, on the GOE side and the Wishart side at every
  n = 1..64, each at d = n (where most GOE-side draws are not PSD) and
  d = n^3, at an odd number of samples that is past the floor of every
  control;
- `tvs`: the same fields at each d of one multi-d GOE-side run, whose d
  values share their draws; at 7,001 samples each block is one pass over
  every d, and the n = 4 run of 70,001 samples has a first block of
  65,536 evaluations, which takes one pass per d;
- `tv` with `workers=2`: runs of several blocks, spread over two processes;
- `profile`: the standard output of `wglab profile`, the CSV;
- `sweep`: the bytes of `sweep.csv` and `figure1.svg` of `wglab sweep` on
  the benchmark's grid at two workers, at ten seeds.

Two checkouts give bit-identical outputs on the grid where their lines
are the same, which `diff` shows.  The grid takes about 5 s on two cores
of a 2-vCPU Linux host.
"""

import hashlib
import io
import sys
import tempfile
from pathlib import Path

GOE, WISHART = "goe_side", "wishart_side"

# the fields of a TvEstimate that the program reports
FIELDS = ("mean", "stderr", "ci_lo", "ci_hi", "var_ratio", "frac_in_q",
          "frac_psd")

# the benchmark's sweep grid (perfbench/workloads.py)
SWEEP_C = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_N = (4, 8, 16)

GRID = (
    [("tv", side, n, d, 7001, n, 1) for side in (GOE, WISHART)
     for n in range(1, 65) for d in (n, n ** 3)]
    + [("tvs", n, (n, n ** 2, n ** 3, 4 * n ** 3), 7001, 100 + n)
       for n in (2, 8, 32)]
    + [("tvs", 4, (4, 16, 64, 256, 1024), 70001, 104)]
    + [("tv", side, n, n ** 3, samples, 200 + n, 2)
       for side in (GOE, WISHART) for n, samples in ((8, 70001),
                                                     (64, 20001))]
    + [("profile", n, d, 1001, 9) for n, d in ((1, 1), (4, 4), (32, 32768))]
    + [("sweep", SWEEP_C, SWEEP_N, 2000, seed, 2) for seed in range(1, 11)])


def _sha(data) -> str:
    return hashlib.sha256(
        data if isinstance(data, bytes) else data.encode()).hexdigest()


def _estimate_text(est) -> str:
    return " ".join(repr(getattr(est, f)) for f in FIELDS)


def _cli(argv) -> str:
    from wglab.cli import cli_dispatch
    out = io.StringIO()
    code = cli_dispatch(argv, out=out)
    if code:
        raise RuntimeError(f"wglab {' '.join(argv)} exited {code}")
    return out.getvalue()


def digest_lines(grid):
    """Yield the `<sha256>  <label>` line of each output of ``grid``."""
    from wglab import (RngState, tv_estimate_goe_side,
                       tv_estimate_wishart_side, tv_estimates_goe_side)
    for kind, *params in grid:
        if kind == "tv":
            side, n, d, samples, seed, workers = params
            estimate = (tv_estimate_goe_side if side == GOE
                        else tv_estimate_wishart_side)
            est = estimate(n, d, samples, RngState(seed), workers=workers)
            yield (f"{_sha(_estimate_text(est))}  tv side={side} n={n} d={d}"
                   f" samples={samples} seed={seed} workers={workers}")
        elif kind == "tvs":
            n, ds, samples, seed = params
            ests = tv_estimates_goe_side(n, ds, samples, RngState(seed))
            for d, est in zip(ds, ests):
                yield (f"{_sha(_estimate_text(est))}  tvs n={n} d={d} of"
                       f" {','.join(map(str, ds))} samples={samples}"
                       f" seed={seed}")
        elif kind == "profile":
            n, d, samples, seed = params
            text = _cli(["profile", "--n", str(n), "--d", str(d),
                         "--samples", str(samples), "--seed", str(seed)])
            yield (f"{_sha(text)}  profile n={n} d={d} samples={samples}"
                   f" seed={seed}")
        elif kind == "sweep":
            c_grid, n_list, samples, seed, workers = params
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                cfg = Path(tmp) / "sweep.cfg"
                cfg.write_text(
                    f"c_grid = {', '.join(map(repr, c_grid))}\n"
                    f"n_list = {', '.join(map(str, n_list))}\n"
                    f"samples = {samples}\nseed = {seed}\n"
                    f"workers = {workers}\nout_dir = {out}\n",
                    encoding="utf-8")
                _cli(["sweep", "--config", str(cfg)])
                for name in ("sweep.csv", "figure1.svg"):
                    yield (f"{_sha((out / name).read_bytes())}  sweep {name}"
                           f" seed={seed} samples={samples}"
                           f" workers={workers}")
        else:
            raise ValueError(f"unknown output kind {kind!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import wglab
    if Path(wglab.__file__).resolve().parents[1] != src:
        print(f"error: wglab was imported from {wglab.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    for line in digest_lines(GRID):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
