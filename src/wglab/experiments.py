"""Sweep runner and artifact emission (CSV table, SVG figure).

A sweep walks a grid of (c, n) points with d = round(c * n^3), runs the
GOE-side Monte Carlo estimator at each point next to the closed-form limit,
and persists the rows as CSV.  The figure reproduces the limit curve with the
finite-n estimates overlaid as points with 99% error bars.

All artifact bytes are determined by the config, whatever its worker
count: each estimate depends on its seed alone, rows are produced in a fixed
grid order, floats are written as shortest round-trip decimals, and the SVG
is assembled by hand rather than through a plotting library so no
timestamps or generated ids leak in.
"""

import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .limit_theory import LimitParams, limiting_tv_closed_form
from .rng import RngState
from .tv_mc import Z99, tv_estimate_goe_side

CSV_HEADER = "c,n,d,tv_mc,tv_stderr,tv_limit,frac_in_q,runtime_s,seed"


@dataclass(frozen=True)
class ExperimentConfig:
    c_grid: tuple[float, ...]
    n_list: tuple[int, ...]
    samples: int = 100_000
    seed: int = 0
    workers: int = 1
    out_dir: Path = Path("out")
    emit_svg: bool = True
    # wall-clock runtimes break byte-determinism of the CSV; off by default
    record_runtime: bool = False

    def __post_init__(self):
        if not self.c_grid or not self.n_list:
            raise ConfigError("c_grid and n_list must be nonempty")
        if any(c <= 0 for c in self.c_grid):
            raise ConfigError("c_grid entries must be positive")
        if list(self.c_grid) != sorted(set(self.c_grid)):
            raise ConfigError("c_grid must be strictly increasing")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly increasing")
        if self.samples < 1 or self.workers < 1:
            raise ConfigError("samples and workers must be >= 1")
        for c in self.c_grid:
            for n in self.n_list:
                if degrees_of_freedom(c, n) < n:
                    raise ConfigError(
                        f"d = round(c*n^3) < n at (c={c}, n={n}); "
                        "the Wishart density requires d >= n")


@dataclass(frozen=True)
class SweepRow:
    c: float
    n: int
    d: int
    tv_mc: float
    tv_stderr: float
    tv_limit: float
    frac_in_q: float
    runtime_s: float
    seed: int


def degrees_of_freedom(c: float, n: int) -> int:
    """The canonical finite-n realization of d / n^3 -> c."""
    return int(round(c * n ** 3))


_BOOLS = {"true": True, "false": False, "1": True, "0": False,
          "yes": True, "no": False}


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file.

    Recognized keys: c_grid and n_list (comma-separated), samples, seed,
    workers, out_dir, emit_svg, record_runtime.  Lines starting with '#'
    are comments.
    """
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    try:
        kwargs = {}
        if "c_grid" in raw:
            kwargs["c_grid"] = tuple(float(v) for v in raw["c_grid"].split(","))
        if "n_list" in raw:
            kwargs["n_list"] = tuple(int(v) for v in raw["n_list"].split(","))
        for key in ("samples", "seed", "workers"):
            if key in raw:
                kwargs[key] = int(raw[key])
        if "out_dir" in raw:
            kwargs["out_dir"] = Path(raw["out_dir"])
        for key in ("emit_svg", "record_runtime"):
            if key in raw:
                try:
                    kwargs[key] = _BOOLS[raw[key].lower()]
                except KeyError:
                    raise ConfigError(f"{path}: bad boolean for {key}: {raw[key]}")
        if "c_grid" not in kwargs or "n_list" not in kwargs:
            raise ConfigError(f"{path}: c_grid and n_list are required")
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run the grid in (c, n) order and return one row per point."""
    rows = []
    point = 0
    for c in cfg.c_grid:
        tv_limit = limiting_tv_closed_form(LimitParams(c))
        for n in cfg.n_list:
            d = degrees_of_freedom(c, n)
            start = time.perf_counter()
            est = tv_estimate_goe_side(n, d, cfg.samples,
                                       RngState(cfg.seed, stream_id=point),
                                       workers=cfg.workers)
            elapsed = time.perf_counter() - start
            rows.append(SweepRow(
                c=c, n=n, d=d,
                tv_mc=est.mean, tv_stderr=est.stderr, tv_limit=tv_limit,
                frac_in_q=est.frac_in_q,
                runtime_s=elapsed if cfg.record_runtime else 0.0,
                seed=cfg.seed))
            point += 1
    return rows


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows with shortest round-trip decimals, LF endings, UTF-8."""
    if not rows:
        raise ConfigError("no rows to write")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            repr(r.c), str(r.n), str(r.d), repr(r.tv_mc), repr(r.tv_stderr),
            repr(r.tv_limit), repr(r.frac_in_q), repr(r.runtime_s),
            str(r.seed)]))
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                              newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> list[SweepRow]:
    """Parse a file previously written by emit_csv."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: missing or unexpected header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 9:
            raise ConfigError(f"{path}: expected 9 columns, got {len(f)}")
        rows.append(SweepRow(float(f[0]), int(f[1]), int(f[2]), float(f[3]),
                             float(f[4]), float(f[5]), float(f[6]),
                             float(f[7]), int(f[8])))
    return rows


# --- SVG figure -----------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_CURVE_POINTS = 200


def _xpix(c, cmin, cmax):
    return _ML + (c - cmin) / (cmax - cmin) * (_W - _ML - _MR)


def _ypix(tv):
    return _MT + (1.0 - tv) * (_H - _MT - _MB)


def _fmt(v):
    return f"{v:.2f}"


def emit_figure1_svg(rows: list[SweepRow], path) -> None:
    """Self-contained SVG: dense limit curve plus MC points with error bars."""
    cs = sorted({r.c for r in rows})
    if len(cs) < 5:
        raise ConfigError(f"need at least 5 distinct c values, got {len(cs)}")
    cmin, cmax = cs[0], cs[-1]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        # axes
        f'<line x1="{_ML}" y1="{_ypix(0)}" x2="{_W - _MR}" y2="{_ypix(0)}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_ypix(0)}" x2="{_ML}" y2="{_MT}" '
        'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _ypix(frac)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 10}" y="{_fmt(y + 4)}" font-size="12" '
                     f'text-anchor="end">{frac}</text>')
    for i in range(5):
        c = cmin + i * (cmax - cmin) / 4
        x = _xpix(c, cmin, cmax)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_ypix(0)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(_ypix(0) + 5)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_ypix(0) + 20)}" '
                     f'font-size="12" text-anchor="middle">{c:.4g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" '
                 'font-size="14" text-anchor="middle">c</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) // 2}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{(_MT + _H - _MB) // 2})">total variation distance</text>')
    # limit curve from dense closed-form evaluations
    pts = []
    for i in range(_CURVE_POINTS):
        c = cmin + i * (cmax - cmin) / (_CURVE_POINTS - 1)
        tv = limiting_tv_closed_form(LimitParams(c))
        pts.append(f"{_fmt(_xpix(c, cmin, cmax))},{_fmt(_ypix(tv))}")
    parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                 'stroke="#1f77b4" stroke-width="2"/>')
    # Monte Carlo overlay with 99% error bars; data embedded as attributes
    for r in rows:
        x = _xpix(r.c, cmin, cmax)
        y = _ypix(r.tv_mc)
        ylo = _ypix(max(r.tv_mc - Z99 * r.tv_stderr, 0.0))
        yhi = _ypix(min(r.tv_mc + Z99 * r.tv_stderr, 1.0))
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(ylo)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(yhi)}" stroke="#d62728"/>')
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                     f'fill="#d62728" data-c="{repr(r.c)}" data-n="{r.n}" '
                     f'data-tv-mc="{repr(r.tv_mc)}" '
                     f'data-tv-limit="{repr(r.tv_limit)}"/>')
    # legend
    lx, ly = _W - _MR - 190, _MT + 10
    parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 25}" y2="{ly}" '
                 'stroke="#1f77b4" stroke-width="2"/>')
    parts.append(f'<text x="{lx + 32}" y="{ly + 4}" font-size="12">'
                 'limit Erf(1/(4&#8730;3&#8730;c))</text>')
    parts.append(f'<circle cx="{lx + 12}" cy="{ly + 20}" r="3" fill="#d62728"/>')
    parts.append(f'<text x="{lx + 32}" y="{ly + 24}" font-size="12">'
                 'Monte Carlo (99% bars)</text>')
    parts.append('</svg>')
    try:
        Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8",
                              newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
