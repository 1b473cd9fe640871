"""Sweep runner and artifact emission (CSV table, SVG figure).

A sweep walks a grid of (c, n) points with d = round(c * n^3), runs the
GOE-side Monte Carlo estimator at each point next to the closed-form limit,
and persists the rows as CSV.  The GOE-side draws do not depend on d, so
one pass per n evaluates every c on the same draws (common random
numbers): the errors of the points at one n are correlated, and each
keeps its own law.  The figure reproduces the limit curve with the
finite-n estimates overlaid as points with marginal 99% error bars.

All artifact bytes are determined by the config, whatever its worker
count: each estimate depends on its seed alone, rows are produced in a fixed
grid order, floats are written as shortest round-trip decimals, and the SVG
is assembled by hand rather than through a plotting library so no
timestamps or generated ids leak in.
"""

import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError, InvalidParameterError
from .limit_theory import LimitParams, limiting_tv_closed_form
from .rng import RngState
from .tv_mc import Z99, _check_params, tv_estimates_goe_side

# the fewest distinct c values that figure 1 is drawn from
_SVG_MIN_C = 5


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
        if not all(c > 0 and math.isfinite(c) for c in self.c_grid):
            raise ConfigError("c_grid entries must be finite and positive")
        if list(self.c_grid) != sorted(set(self.c_grid)):
            raise ConfigError("c_grid must be strictly increasing")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError("n_list must be strictly increasing")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for c in self.c_grid:
            for n in self.n_list:
                try:
                    d = degrees_of_freedom(c, n)
                except OverflowError:  # c * n^3 is not a finite float
                    d = math.inf
                try:
                    _check_params(n, d, self.samples)
                except InvalidParameterError as exc:
                    raise ConfigError(
                        f"c_grid x n_list at c={c}, n={n}: {exc}") from exc


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


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def degrees_of_freedom(c: float, n: int) -> int:
    """The canonical finite-n realization of d / n^3 -> c."""
    return int(round(c * n ** 3))


_BOOLS = {"true": True, "false": False, "1": True, "0": False,
          "yes": True, "no": False}
# how a config value is read, by the type of its ExperimentConfig field
_CONVERT = {tuple[float, ...]: lambda v: tuple(map(float, v.split(","))),
            tuple[int, ...]: lambda v: tuple(map(int, v.split(","))),
            int: int, Path: Path, bool: lambda v: _BOOLS[v.lower()]}


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file in UTF-8.

    Recognized keys: c_grid and n_list (comma-separated), samples, seed,
    workers, out_dir, emit_svg, record_runtime.  Lines starting with '#'
    are comments.  An unknown or repeated key is an error, so a misspelled
    key cannot fall back silently to its default, and so is a value that
    does not convert to its key's type; each error names its line.
    """
    convert = {f.name: _CONVERT[f.type] for f in fields(ExperimentConfig)}
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line_no}: not valid UTF-8") from exc
    kwargs = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in convert:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{path}:{line_no}: repeated key {key!r}")
        try:
            kwargs[key] = convert[key](value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"{path}:{line_no}: bad value for {key!r}: {value!r}") from exc
    if "c_grid" not in kwargs or "n_list" not in kwargs:
        raise ConfigError(f"{path}: c_grid and n_list are required")
    return ExperimentConfig(**kwargs)


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run the grid and return one row per point, in (c, n) order.  The
    j-th n of ``n_list`` draws from ``RngState(seed, j, "sweep")``, and one
    pass evaluates every c on those draws; a recorded runtime is the pass's
    wall time over the number of c values."""
    columns = []
    for j, n in enumerate(cfg.n_list):
        start = time.perf_counter()
        ests = tv_estimates_goe_side(
            n, [degrees_of_freedom(c, n) for c in cfg.c_grid], cfg.samples,
            RngState(cfg.seed, j, "sweep"), workers=cfg.workers)
        elapsed = (time.perf_counter() - start) / len(ests)
        columns.append([(est, elapsed if cfg.record_runtime else 0.0)
                        for est in ests])
    rows = []
    for c, points in zip(cfg.c_grid, zip(*columns)):
        tv_limit = limiting_tv_closed_form(LimitParams(c))
        rows += [SweepRow(c=c, n=est.n, d=est.d, tv_mc=est.mean,
                          tv_stderr=est.stderr, tv_limit=tv_limit,
                          frac_in_q=est.frac_in_q, runtime_s=runtime,
                          seed=cfg.seed) for est, runtime in points]
    return rows


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows with shortest round-trip decimals, LF endings, UTF-8."""
    if not rows:
        raise ConfigError("no rows to write")
    lines = [CSV_HEADER]
    lines += (",".join(map(repr, vars(r).values())) for r in rows)
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
    columns = fields(SweepRow)
    rows = []
    for line_no, line in enumerate(lines[1:], 2):
        values = line.split(",")
        if len(values) != len(columns):
            raise ConfigError(f"{path}:{line_no}: expected {len(columns)} "
                              f"columns, got {len(values)}")
        try:
            rows.append(SweepRow(*(f.type(v) for f, v in zip(columns,
                                                              values))))
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
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


@lru_cache(maxsize=16)
def _curve_points(cmin: float, cmax: float) -> str:
    """The polyline points of the limit curve over [cmin, cmax], from
    dense closed-form evaluations: the same for every sweep of one grid."""
    pts = []
    for i in range(_CURVE_POINTS):
        c = cmin + i * (cmax - cmin) / (_CURVE_POINTS - 1)
        tv = limiting_tv_closed_form(LimitParams(c))
        pts.append(f"{_fmt(_xpix(c, cmin, cmax))},{_fmt(_ypix(tv))}")
    return " ".join(pts)


def emit_figure1_svg(rows: list[SweepRow], path) -> None:
    """Self-contained SVG: dense limit curve plus MC points with error bars."""
    cs = sorted({r.c for r in rows})
    if len(cs) < _SVG_MIN_C:
        raise ConfigError(f"need {_SVG_MIN_C} or more c values, got {len(cs)}")
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
    parts.append(f'<polyline points="{_curve_points(cmin, cmax)}" '
                 'fill="none" stroke="#1f77b4" stroke-width="2"/>')
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
