import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_gives_the_same_lines_twice():
    # every kind of output: both sides, a multi-d run, a two-block run at
    # two workers, a profile with -inf rows and a sweep with its SVG
    tool = load_tool()
    goe, wishart = tool.GOE, tool.WISHART
    grid = [("tv", goe, 2, 8, 11, 1, 1), ("tv", wishart, 2, 2, 11, 1, 1),
            ("tvs", 2, (2, 8), 11, 3), ("tv", goe, 64, 64 ** 3, 4097, 5, 2),
            ("profile", 3, 3, 41, 9),
            ("sweep", (0.25, 0.5, 1.0, 2.0, 4.0), (2,), 20, 1, 1)]
    first = list(tool.digest_lines(grid))
    assert first == list(tool.digest_lines(grid))
    assert len(first) == 8 and len(set(first)) == 8
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in first)
    assert [line.split()[1] for line in first] == [
        "tv", "tv", "tvs", "tvs", "tv", "profile", "sweep", "sweep"]


def test_source_other_than_the_imported_one_is_refused(tmp_path,
                                                       monkeypatch, capsys):
    # wglab is already imported from this checkout, not from tmp_path
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    assert tool.main([str(tmp_path)]) == 2
    assert "not from" in capsys.readouterr().err
    assert tool.main([]) == 2
