import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wglab.cli
import wglab.tv_mc
from wglab import RngState, tv_profile
from wglab.cli import PROFILE_HEADER, cli_dispatch
from wglab.experiments import SweepRow


def run_cli(args):
    out = io.StringIO()
    code = cli_dispatch(args, out=out)
    return code, out.getvalue()


def parse_kv(text):
    vals = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            vals[key] = value
    return vals


def test_unknown_subcommand_exits_2():
    assert cli_dispatch(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert cli_dispatch(["limit", "--c", "1.0", "--bogus"]) == 2


def test_missing_required_flag_exits_2():
    assert cli_dispatch(["tv", "--n", "2"]) == 2


def test_limit_command():
    code, text = run_cli(["limit", "--c", str(1.0 / 48.0)])
    assert code == 0
    vals = parse_kv(text)
    closed = float(vals["closed_form"])
    quad = float(vals["quadrature"])
    asym = float(vals["asymptote"])
    assert abs(closed - quad) <= 1e-9
    assert closed == pytest.approx(0.8427008, abs=5e-8)
    assert asym > 0


def test_limit_command_bad_c():
    assert cli_dispatch(["limit", "--c", "-1.0"]) == 2
    # subnormal: 1 / (4c) overflows
    assert cli_dispatch(["limit", "--c", "1e-320"]) == 2


def test_tv_command_deterministic():
    args = ["tv", "--n", "2", "--d", "8", "--samples", "500", "--seed", "7"]
    code1, text1 = run_cli(args)
    code2, text2 = run_cli(args)
    assert code1 == code2 == 0
    assert text1 == text2
    mean = float(parse_kv(text1)["tv_mean"])
    assert 0.0 <= mean <= 1.0
    # the control variates' gain, on a line of its own: none for 250 pairs
    assert "\ncv_var_ratio=1.0\n" in text1
    code, text = run_cli(["tv", "--n", "16", "--d", "4096", "--samples",
                          "20000", "--seed", "7"])
    assert code == 0 and float(parse_kv(text)["cv_var_ratio"]) > 2.0


def test_tv_command_output_is_pinned():
    # a run of 10,000 pairs, whose fit keeps all ten controls
    args = ["tv", "--n", "32", "--d", "32768", "--samples", "20000",
            "--seed", "3"]
    code, text = run_cli(args)
    assert code == 0
    vals = parse_kv(text)
    assert vals["tv_mean"] == "0.1685591098768991"
    assert vals["tv_stderr"] == "9.201359186846632e-05"
    assert vals["cv_var_ratio"] == "63.87153796283117"


def test_parser_is_built_once_and_survives_errors(capsys):
    # one parser per process; a usage error and --help leave it parsing
    # and running as before
    assert wglab.cli._parser() is wglab.cli._parser()
    args = ["tv", "--n", "2", "--d", "8", "--samples", "500", "--seed", "7"]
    first = run_cli(args)
    assert first[0] == 0
    for bad, code in ((["tv", "--n", "2"], 2), (["tv", "--n", "x"], 2),
                      (["frobnicate"], 2), (["--help"], 0),
                      (["tv", "--help"], 0)):
        assert cli_dispatch(bad) == code
        assert run_cli(args) == first
    _, text = run_cli(["tv", "--n", "2", "--d", "8", "--samples", "500",
                       "--seed", "8", "--side", "wishart_side"])
    assert text != first[1] and "cv_var_ratio=1.0" in text
    code, text = run_cli(["limit", "--c", "1.0"])
    assert code == 0 and "closed_form=" in text
    capsys.readouterr()


def test_tv_command_at_large_d():
    # TV at c = d / n^3 ~ 1.6e13 is Erf(1 / (4 sqrt(3c))) ~ 4e-8; a spectrum
    # constant off by 2 (grouping lgamma against d log d per term) made it
    # 0.86
    code, text = run_cli(["tv", "--n", "4", "--d", str(10 ** 15),
                          "--samples", "2000", "--seed", "3"])
    assert code == 0
    assert 0.0 <= float(parse_kv(text)["tv_mean"]) < 1e-6


def test_tv_command_sides_differ_but_agree():
    base = ["--n", "1", "--d", "10", "--samples", "20000", "--seed", "1"]
    _, goe = run_cli(["tv", *base, "--side", "goe_side"])
    _, wis = run_cli(["tv", *base, "--side", "wishart_side"])
    assert abs(float(parse_kv(goe)["tv_mean"])
               - float(parse_kv(wis)["tv_mean"])) < 0.03


def test_tv_command_invalid_params_exit_2():
    assert cli_dispatch(["tv", "--n", "4", "--d", "2", "--samples", "10"]) == 2


@pytest.mark.parametrize("command", ["tv", "profile"])
def test_d_with_overflowing_square_exits_2(command):
    # alpha divides by d^2 in floating point; this d once escaped as an
    # OverflowError
    assert cli_dispatch([command, "--n", "4", "--d", "1" + "0" * 160,
                         "--samples", "10"]) == 2


def test_seed_outside_64_bits_exits_2():
    # the seed used to be masked to 64 bits, so -1 and 2**64 - 1 shared a
    # stream
    for seed in (-1, 2 ** 64):
        assert cli_dispatch(["tv", "--n", "4", "--d", "64", "--samples", "10",
                             "--seed", str(seed)]) == 2
    code, text = run_cli(["tv", "--n", "4", "--d", "64", "--samples", "10",
                          "--seed", str(2 ** 64 - 1)])
    assert code == 0 and "tv_mean=" in text


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("WGLAB_WORKERS", "junk")
    assert cli_dispatch(["tv", "--n", "2", "--d", "8", "--samples", "10"]) == 2
    monkeypatch.setenv("WGLAB_WORKERS", "0")
    assert cli_dispatch(["tv", "--n", "2", "--d", "8", "--samples", "10"]) == 2


def test_clt_command():
    code, text = run_cli(["clt", "--n", "40", "--reps", "400", "--seed", "1"])
    assert code == 0
    vals = parse_kv(text)
    assert 1.0 < float(vals["c11"]) < 3.0
    assert 3.0 < float(vals["c12"]) < 9.0
    assert 15.0 < float(vals["c22"]) < 33.0


def test_clt_command_rejects_order_beyond_one_batch():
    # one draw at n = 1449 outgrows clt's batch of 2^21 elements
    assert cli_dispatch(["clt", "--n", "1449", "--reps", "2"]) == 2


@pytest.mark.parametrize("reps", [2 ** 22 + 1, 10 ** 18])
def test_clt_command_rejects_reps_beyond_the_bound(reps):
    # checked before the (reps, 2) array of pairs is allocated; 10^18 once
    # escaped as numpy's "array is too big" ValueError
    assert cli_dispatch(["clt", "--n", "2", "--reps", str(reps)]) == 2


@pytest.mark.parametrize("command", ["tv", "profile"])
def test_order_beyond_block_budget_exits_2(command):
    # one draw at n = 2^18 + 1 outgrows a block of 2^18 draws times n
    assert cli_dispatch([command, "--n", "262145", "--d", "262145",
                         "--samples", "2"]) == 2


def test_profile_command():
    code, text = run_cli(["profile", "--n", "2", "--d", "8",
                          "--samples", "50", "--seed", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == PROFILE_HEADER
    assert len(lines) == 51
    first = lines[1].split(",")
    assert len(first) == 10
    assert 0.0 <= float(first[-1]) <= 1.0


@pytest.mark.parametrize("d", [10 ** 100, 10 ** 150])
def test_profile_command_at_huge_d(d):
    # d^4 and d^3 pass the float range below the d^2 bound that tv and
    # profile check; the Taylor coefficients must not overflow
    code, text = run_cli(["profile", "--n", "4", "--d", str(d),
                          "--samples", "20"])
    assert code == 0
    assert len(text.splitlines()) == 21


def test_sweep_command_rejects_misspelled_key(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("c_grid = 0.25, 0.5, 1.0, 2.0, 4.0\nn_list = 4\n"
                   f"sample = 10\nout_dir = {tmp_path / 'out'}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def reference_profile(n, d, samples, seed):
    """The profile CSV written one record at a time, as rows were first
    formatted: repr of each float, an empty field for None, true/false."""
    def opt(v):
        return "" if v is None else repr(v)

    lines = [PROFILE_HEADER]
    for rec in tv_profile(n, d, samples, RngState(seed)):
        b = rec.breakdown
        lines.append(",".join([repr(b.alpha), opt(b.s0), opt(b.s1),
                               opt(b.s2), opt(b.s3), opt(b.s4),
                               opt(b.remainder), str(b.in_q).lower(),
                               str(b.psd).lower(), repr(rec.integrand)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,d,samples", [(3, 3, 41), (8, 512, 1003),
                                         (1, 1, 1), (2, 8, 3)])
def test_profile_output_matches_record_format(n, d, samples, monkeypatch):
    # the column-built CSV equals the per-record rows byte for byte; d = n
    # gives many -inf rows, and 128-evaluation blocks give several blocks
    # whose last one holds an unpaired draw
    monkeypatch.setattr(wglab.tv_mc, "_BATCH_BUDGET", 128 * n)
    code, text = run_cli(["profile", "--n", str(n), "--d", str(d),
                          "--samples", str(samples), "--seed", "9"])
    assert code == 0
    assert text == reference_profile(n, d, samples, 9)
    assert len(text.splitlines()) == samples + 1


def test_sweep_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        "c_grid = 0.25, 0.5, 1.0, 2.0, 4.0\n"
        "n_list = 4\n"
        "samples = 100\n"
        "seed = 5\n"
        f"out_dir = {out_dir}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 0
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "figure1.svg").exists()


def test_sweep_command_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c_grid = 0.5, 0.25\nn_list = 4\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert cli_dispatch(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_sweep_command_rejects_config_that_is_not_utf8(tmp_path, capsys):
    # a decode error once escaped cli_dispatch as a traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"c_grid = 0.5, 1.0\nn_list = 4\n# caf\xe9\n"
                    + f"out_dir = {tmp_path / 'out'}\n".encode())
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_command_rejects_svg_with_few_c_before_running(tmp_path):
    # figure 1 needs 5 c values; 3 are refused before any point runs, so
    # no sweep.csv is written
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("c_grid = 0.5, 1, 2\nn_list = 2, 3\nsamples = 20\n"
                   f"emit_svg = true\nout_dir = {tmp_path / 'out'}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("c", ["inf", "nan"])
def test_sweep_command_rejects_non_finite_c(c, tmp_path):
    # inf once escaped as an OverflowError from degrees_of_freedom
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"c_grid = 0.5, {c}\nn_list = 4\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [4, 1000])
def test_sweep_command_rejects_d_with_overflowing_square(n, tmp_path):
    # at n = 4, d = round(c n^3) has a square beyond the float range; at
    # n = 1000, c n^3 itself is, and rounding it raised an OverflowError
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"c_grid = 1e300\nn_list = {n}\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_sweep_workers_env_override(tmp_path, monkeypatch):
    seen = []

    def fake_run_sweep(cfg):
        seen.append(cfg.workers)
        return [SweepRow(1.0, 4, 64, 0.5, 0.01, 0.16, 1.0, 0.0, cfg.seed)]

    monkeypatch.setattr(wglab.cli, "run_sweep", fake_run_sweep)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("c_grid = 1.0\nn_list = 4\nworkers = 4\n"
                   f"emit_svg = false\nout_dir = {tmp_path / 'out'}\n")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 0
    monkeypatch.setenv("WGLAB_WORKERS", "3")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 0
    monkeypatch.setenv("WGLAB_WORKERS", "0")
    assert cli_dispatch(["sweep", "--config", str(cfg)]) == 2
    assert seen == [4, 3]


# runs one command in a fresh interpreter and prints its exit code, its
# output and the slow-to-import modules it loaded (scipy, and the process
# pool's); pytest's own process has them loaded already, so only a fresh
# one can tell
_FRESH_RUN = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from wglab.cli import cli_dispatch
out = io.StringIO()
rc = cli_dispatch(sys.argv[2:], out=out)
heavy = sorted(m for m in sys.modules
               if m.split(".")[0] in ("scipy", "multiprocessing")
               or m == "concurrent.futures.process")
print(json.dumps([rc, out.getvalue(), heavy]))
"""


def run_fresh(args):
    src = str(Path(wglab.cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "WGLAB_WORKERS"}
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, src, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_limit_imports_scipy(tmp_path):
    # nor does a run of one block per estimate load the process pool's
    # modules, whatever its worker count
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("c_grid = 0.25, 0.5, 1, 2, 4\nn_list = 2, 3\nsamples = 20\n"
                   "workers = 2\nemit_svg = true\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    tv = ["tv", "--n", "3", "--d", "27", "--samples", "50"]
    commands = [tv, [*tv, "--side", "wishart_side"], [*tv, "--workers", "2"],
                ["clt", "--n", "3", "--reps", "20"],
                ["profile", "--n", "3", "--d", "27", "--samples", "10"],
                ["sweep", "--config", str(cfg)]]
    for args in commands:
        rc, _, heavy = run_fresh(args)
        assert rc == 0 and heavy == [], args
    # the check sees scipy where it is loaded, and limit prints what it
    # prints in-process
    rc, text, heavy = run_fresh(["limit", "--c", "0.5"])
    assert rc == 0 and "scipy.integrate" in heavy
    assert text == run_cli(["limit", "--c", "0.5"])[1]
    # and the pool's modules where a run of four blocks starts one
    if (os.cpu_count() or 1) > 1:
        rc, _, heavy = run_fresh(["tv", "--n", "3", "--d", "27", "--samples",
                                  "200000", "--workers", "2"])
        assert rc == 0 and "concurrent.futures.process" in heavy
        assert "multiprocessing" in heavy
