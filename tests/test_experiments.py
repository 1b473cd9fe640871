import io
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglab import (ConfigError, ExperimentConfig, SweepRow, emit_csv,
                   emit_figure1_svg, parse_config, run_sweep)
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
    # d = round(c n^3) < n
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(c_grid=(0.001,), n_list=(4,))
    assert "0.001" in str(exc.value)


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


def test_svg_requires_five_c_values(tmp_path):
    rows = run_sweep(small_config(c_grid=(0.5, 1.0), n_list=(4,)))
    with pytest.raises(ConfigError):
        emit_figure1_svg(rows, tmp_path / "few.svg")
