import hashlib
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wglab import (ConfigError, ExperimentConfig, RngState, SweepRow, emit_csv,
                   experiments,
                   emit_figure1_svg, parse_config, run_sweep,
                   tv_estimate_goe_side)
from wglab.experiments import CSV_HEADER, _ypix, degrees_of_freedom, read_csv
from wglab.tv_mc import Z99


def small_config(**overrides):
    kwargs = dict(c_grid=(0.5, 1.0), n_list=(4, 6), samples=200, seed=3,
                  workers=1)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_degrees_of_freedom():
    assert degrees_of_freedom(1.0, 8) == 512
    assert degrees_of_freedom(1.0 / 48.0, 16) == 85


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(c_grid=(), n_list=(4,))
    with pytest.raises(ConfigError):
        ExperimentConfig(c_grid=(1.0,), n_list=())
    with pytest.raises(ConfigError):
        ExperimentConfig(c_grid=(1.0, 0.5), n_list=(4,))
    with pytest.raises(ConfigError):
        ExperimentConfig(c_grid=(0.5,), n_list=(8, 4))
    with pytest.raises(ConfigError):
        ExperimentConfig(c_grid=(-1.0,), n_list=(4,))
    for c in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(c_grid=(c,), n_list=(4,))
    # d = round(c n^3) < n
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(c_grid=(0.001,), n_list=(4,))
    assert "0.001" in str(exc.value)
    # n in [1, 2^18]: past the block budget one draw outgrows a block
    for n_list in ((0, 4), (4, 2 ** 18 + 1)):
        with pytest.raises(ConfigError, match="n_list"):
            ExperimentConfig(c_grid=(1.0,), n_list=n_list)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(c_grid=(1.0,), n_list=(4,), seed=seed)
    # d = round(c n^3) with a square beyond the float range, and c n^3
    # beyond it
    for n in (4, 1000):
        with pytest.raises(ConfigError, match="too large"):
            ExperimentConfig(c_grid=(1e300,), n_list=(n,))


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment\n"
        "c_grid = 0.25, 0.5, 1.0\n"
        "n_list = 4, 8\n"
        "samples = 1000\n"
        "seed = 7\n"
        "workers = 2\n"
        "out_dir = results\n"
        "emit_svg = false\n")
    cfg = parse_config(path)
    assert cfg.c_grid == (0.25, 0.5, 1.0)
    assert cfg.n_list == (4, 8)
    assert cfg.samples == 1000 and cfg.seed == 7 and cfg.workers == 2
    assert str(cfg.out_dir) == "results"
    assert cfg.emit_svg is False


def _config_text(cfg, order):
    """cfg as `key = value` lines in the given key order, floats as repr."""
    values = {"c_grid": ", ".join(map(repr, cfg.c_grid)),
              "n_list": ", ".join(map(str, cfg.n_list)),
              "samples": cfg.samples, "seed": cfg.seed,
              "workers": cfg.workers, "out_dir": cfg.out_dir,
              "emit_svg": str(cfg.emit_svg).lower(),
              "record_runtime": str(cfg.record_runtime).lower()}
    return "".join(f"{key} = {values[key]}\n" for key in order)


def _sorted_tuple(values):
    return tuple(sorted(values))


# c >= 1 keeps d = round(c n^3) >= n at every n
_CONFIGS = st.builds(
    ExperimentConfig,
    c_grid=st.lists(st.floats(1.0, 1e12), min_size=1, max_size=5,
                    unique=True).map(_sorted_tuple),
    n_list=st.lists(st.integers(1, 512), min_size=1, max_size=5,
                    unique=True).map(_sorted_tuple),
    samples=st.integers(1, 2 ** 40), seed=st.integers(0, 2 ** 64 - 1),
    workers=st.integers(1, 64),
    out_dir=st.from_regex(r"[\w.-]+(/[\w.-]+)*", fullmatch=True).map(Path),
    emit_svg=st.booleans(), record_runtime=st.booleans())


_KEYS = ["c_grid", "n_list", "samples", "seed", "workers", "out_dir",
         "emit_svg", "record_runtime"]


@settings(max_examples=100, deadline=None)
@given(cfg=_CONFIGS, order=st.permutations(_KEYS))
# floats one ulp apart and a seed that no float holds exactly
@example(cfg=ExperimentConfig(
    c_grid=(1.0, 1.0000000000000002), n_list=(1, 512), samples=2 ** 40,
    seed=2 ** 64 - 1, workers=64, out_dir=Path("a/b.c"), emit_svg=False,
    record_runtime=True), order=_KEYS[::-1])
def test_parse_config_round_trip(tmp_path_factory, cfg, order):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(_config_text(cfg, order), encoding="utf-8")
    assert parse_config(path) == cfg


def test_parse_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("c_grid = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(path)  # n_list missing
    path.write_text("c_grid = 0.5\nn_list = 4\nemit_svg = maybe\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("text,line,key", [
    ("c_grid = 0.5\nn_list = 4\nemit_svg = maybe\n", 3, "emit_svg"),
    ("c_grid = 0.5\n\nsamples = 1e3\nn_list = 4\n", 3, "samples"),
    ("c_grid = 0.5, x\nn_list = 4\n", 1, "c_grid"),
    ("n_list = 4, 8.0\nc_grid = 0.5\n", 1, "n_list"),
])
def test_parse_config_names_the_key_and_line_of_a_bad_value(tmp_path, text,
                                                            line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert f":{line}:" in str(exc.value) and repr(key) in str(exc.value)


def test_parse_config_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"c_grid = 0.5, 1.0\nn_list = 4\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=":3: not valid UTF-8"):
        parse_config(path)


@pytest.mark.parametrize("text,line,key", [
    ("c_grid = 0.5\nn_list = 4\nsample = 10\n", 3, "sample"),
    ("c_grid = 0.5\n# note\nn_list = 4\nseed = 1\nseed = 2\n", 5, "seed"),
    ("c_grid = 0.5\nn_list = 4\nN_list = 8\n", 3, "N_list"),
])
def test_parse_config_rejects_unknown_and_repeated_keys(tmp_path, text, line,
                                                        key):
    # a misspelled key would otherwise run with its default, and a repeated
    # one would silently overwrite the first
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert f":{line}:" in str(exc.value) and repr(key) in str(exc.value)


def test_run_sweep_rows():
    cfg = small_config()
    rows = run_sweep(cfg)
    assert [(r.c, r.n) for r in rows] == [(0.5, 4), (0.5, 6), (1.0, 4), (1.0, 6)]
    for r in rows:
        assert r.d == degrees_of_freedom(r.c, r.n)
        assert 0.0 <= r.tv_mc <= 1.0
        assert 0.0 <= r.tv_limit <= 1.0
        assert r.seed == cfg.seed
        assert r.runtime_s == 0.0


def test_sweep_points_read_the_sweep_streams():
    # the points at the j-th n read stream (seed, j) with the purpose
    # "sweep", and each is bit for bit the estimate at its (n, d) alone on
    # that stream, at one worker and at two; 8199 draws are two blocks at
    # n = 32 and three at n = 64, so at two workers each pass is split
    # across processes.  Point 0 does not repeat the tv estimate of the
    # same seed
    for base in (small_config(), small_config(n_list=(32, 64), samples=8199)):
        for workers in (1, 2):
            cfg = replace(base, workers=workers)
            rows = run_sweep(cfg)
            assert [(r.c, r.n) for r in rows] == [
                (c, n) for c in cfg.c_grid for n in cfg.n_list]
            for row in rows:
                stream = RngState(cfg.seed, cfg.n_list.index(row.n), "sweep")
                est = tv_estimate_goe_side(row.n, row.d, cfg.samples, stream,
                                           workers=workers)
                assert (row.tv_mc, row.tv_stderr, row.frac_in_q) == (
                    est.mean, est.stderr, est.frac_in_q)
    tv = tv_estimate_goe_side(rows[0].n, rows[0].d, cfg.samples,
                              RngState(cfg.seed))
    assert tv.mean != rows[0].tv_mc


def test_shared_draw_rows_keep_the_law_of_independent_points():
    # the points at one n share their draws, which correlates their errors
    # but leaves the law of each: over 50 seeds the mean of each row agrees
    # with the mean of estimates at the same (c, n) drawn on streams of
    # their own, within 4 stderr of the difference
    cfg = small_config(c_grid=(0.25, 0.5, 1.0, 2.0, 4.0), n_list=(4, 8),
                       samples=2000)
    runs = [run_sweep(replace(cfg, seed=seed)) for seed in range(50)]
    for i, row in enumerate(runs[0]):
        shared = [rows[i] for rows in runs]
        alone = [tv_estimate_goe_side(row.n, row.d, cfg.samples,
                                      RngState(seed, i))
                 for seed in range(100, 150)]
        diff = (math.fsum(r.tv_mc for r in shared)
                - math.fsum(e.mean for e in alone)) / 50
        se = math.sqrt(math.fsum(r.tv_stderr ** 2 for r in shared)
                       + math.fsum(e.stderr ** 2 for e in alone)) / 50
        assert abs(diff) <= 4 * se


def test_sweep_bytes_do_not_depend_on_pass_groups(tmp_path, monkeypatch):
    # one d per pass gives the same sweep.csv and figure1.svg as the
    # default grouping
    import wglab.tv_mc as tv_mc
    cfg = small_config(c_grid=(0.25, 0.5, 1.0, 2.0, 4.0), n_list=(4, 8),
                       samples=1001)
    written = []
    for columns in (tv_mc._PASS_COLUMNS, 1):
        monkeypatch.setattr(tv_mc, "_PASS_COLUMNS", columns)
        rows = run_sweep(cfg)
        emit_csv(rows, tmp_path / "sweep.csv")
        emit_figure1_svg(rows, tmp_path / "figure1.svg")
        written.append([(tmp_path / f).read_bytes()
                        for f in ("sweep.csv", "figure1.svg")])
    assert written[0] == written[1]


def test_run_sweep_deterministic(tmp_path):
    cfg = small_config()
    assert run_sweep(cfg) == run_sweep(cfg)
    # 8199 draws are two blocks at n = 32 and three at n = 64, so at two
    # workers each point is split across processes
    written = []
    for workers in (1, 2):
        path = tmp_path / f"sweep_w{workers}.csv"
        emit_csv(run_sweep(small_config(n_list=(32, 64), samples=8199,
                                        workers=workers)), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_csv_roundtrip(tmp_path):
    rows = run_sweep(small_config())
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    assert all(line.count(",") == 8 for line in lines)
    assert read_csv(path) == rows


@pytest.mark.parametrize("bad, problem", [
    ("x", "could not convert"), ("", "could not convert"),
    ("1.5", "invalid literal")])
def test_read_csv_names_the_line_of_a_bad_field(tmp_path, bad, problem):
    # a field that does not convert is a ConfigError naming the path and
    # line, as a wrong header or column count is; the n field is an int
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(small_config()), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    field = 1 if problem == "invalid literal" else 3
    cells = lines[2].split(",")
    cells[field] = bad
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{path}:3: {problem}"):
        read_csv(path)
    lines[2] += ",0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{path}:3: expected 9 columns"):
        read_csv(path)


def test_sweep_artifact_bytes_are_pinned(tmp_path):
    # the benchmark's sweep grid at samples 2000, seed 11, one worker: the
    # sha256 of each artifact, recorded when the per-control gate first
    # fitted p2 to these 1,000-pair points (they were plain pairs before)
    cfg = ExperimentConfig(c_grid=(0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0,
                                   8.0), n_list=(4, 8, 16), samples=2000,
                           seed=11, workers=1)
    rows = run_sweep(cfg)
    emit_csv(rows, tmp_path / "sweep.csv")
    emit_figure1_svg(rows, tmp_path / "figure1.svg")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("sweep.csv", "figure1.svg")}
    assert digest == {
        "sweep.csv": "47604f594749ab3924d7889c50f9ebca"
                     "ddac3f7398137bcbf6fee8d4747d960d",
        "figure1.svg": "1dcdc1e3ad0abf49cdfb316ce3711728"
                       "8450dff944b4bb4595f4e18a7bef7260"}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(SweepRow, _FINITE, st.integers(), st.integers(),
                          _FINITE, _FINITE, _FINITE, _FINITE, _FINITE,
                          st.integers()), min_size=1, max_size=5))
def test_csv_roundtrip_arbitrary_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    emit_csv(rows, path)
    assert read_csv(path) == rows


def test_sweep_records_runtime(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("c_grid = 0.5, 1.0\nn_list = 4\nsamples = 200\n"
                    "record_runtime = true\n")
    csv = tmp_path / "sweep.csv"
    emit_csv(run_sweep(parse_config(path)), csv)
    assert all(r.runtime_s > 0.0 for r in read_csv(csv))


def test_csv_single_row(tmp_path):
    rows = run_sweep(small_config(c_grid=(1.0,), n_list=(4,)))
    path = tmp_path / "one.csv"
    emit_csv(rows, path)
    assert len(path.read_text().splitlines()) == 2


def test_csv_requires_rows(tmp_path):
    with pytest.raises(ConfigError):
        emit_csv([], tmp_path / "empty.csv")


def test_svg_wellformed_and_deterministic(tmp_path):
    cfg = small_config(c_grid=(0.25, 0.5, 1.0, 2.0, 4.0), n_list=(4,))
    rows = run_sweep(cfg)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_figure1_svg(rows, p1)
    emit_figure1_svg(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.parse(p1).getroot()
    assert root.tag.endswith("svg")
    # one data circle per row, with data embedded as attributes
    circles = [e for e in root.iter() if e.tag.endswith("circle")
               and "data-c" in e.attrib]
    assert len(circles) == len(rows)
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 1
    # each error bar spans the estimator's 99% interval mean +- Z99 stderr
    bars = [e for e in root.iter() if e.tag.endswith("line")
            and e.get("stroke") == "#d62728"]
    assert len(bars) == len(rows)
    for bar, r in zip(bars, rows):
        lo = max(r.tv_mc - Z99 * r.tv_stderr, 0.0)
        hi = min(r.tv_mc + Z99 * r.tv_stderr, 1.0)
        assert abs(float(bar.get("y1")) - _ypix(lo)) <= 0.01
        assert abs(float(bar.get("y2")) - _ypix(hi)) <= 0.01


def test_svg_curve_is_built_once_per_grid(tmp_path, monkeypatch):
    # the limit curve's 200 closed-form points are made on the first figure
    # of a (cmin, cmax) and reused, with the same bytes, by the next; a
    # grid with other ends makes its own
    calls = []
    closed_form = experiments.limiting_tv_closed_form

    def counting(params):
        calls.append(params.c)
        return closed_form(params)

    rows = run_sweep(small_config(c_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
                                  n_list=(4,)))
    monkeypatch.setattr(experiments, "limiting_tv_closed_form", counting)
    experiments._curve_points.cache_clear()
    paths = [tmp_path / f"{i}.svg" for i in range(3)]
    emit_figure1_svg(rows, paths[0])
    assert len(calls) == experiments._CURVE_POINTS
    emit_figure1_svg(rows, paths[1])
    assert len(calls) == experiments._CURVE_POINTS
    assert paths[0].read_bytes() == paths[1].read_bytes()
    experiments._curve_points.cache_clear()
    emit_figure1_svg(rows, paths[2])
    assert paths[2].read_bytes() == paths[0].read_bytes()
    emit_figure1_svg(rows[1:] + [replace(rows[0], c=0.125)], paths[2])
    assert len(calls) == 3 * experiments._CURVE_POINTS


def test_svg_requires_five_c_values(tmp_path):
    rows = run_sweep(small_config(c_grid=(0.5, 1.0), n_list=(4,)))
    with pytest.raises(ConfigError):
        emit_figure1_svg(rows, tmp_path / "few.svg")
