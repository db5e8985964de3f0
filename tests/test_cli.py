"""End-to-end command-line checks through ``python -m esdkit``; the
contract checks at the end call ``esdkit.cli.main`` in process."""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esdkit.classify
import esdkit.entanglement
from esdkit import (
    DEFAULT_TOL, XState, cli, death_time, format_state_literal, make_x, parse_channel_literal,
    parse_state_literal, parse_trajectory_csv,
)
from esdkit.errors import ValidationError

from _cli import cli_env
from _oracles import death_time_scalar, x_rule_scalar

PURE_07 = "x:0.7,0,0,0.3,0.45825756949558405,0,0,0"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "esdkit", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def assert_clean_exit_2(result):
    """Exit 2 with a one-line ``error:`` message, not a traceback."""
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr, result.stderr


# --- evolve -----------------------------------------------------------------

def test_evolve_writes_parseable_csv():
    result = run_cli(
        "evolve", "--channel", "decay:1,1,0", "--state", PURE_07, "--horizon", "2.0"
    )
    assert result.returncode == 0, result.stderr
    cols = parse_trajectory_csv(result.stdout)
    assert cols["t"][0] == 0.0 and cols["t"][-1] == 2.0
    assert cols["a"] is not None  # X input keeps population columns
    assert cols["negativity"][0] > cols["negativity"][-1]


def off_pattern_dense_literal():
    """I/4 plus a small (0,1) coherence: valid but not of X form."""
    entries = np.eye(4, dtype=complex) * 0.25
    entries[0, 1] = entries[1, 0] = 0.05
    return "dense:" + ",".join(
        f"{v.real}:{v.imag}" for v in entries.reshape(-1)
    )


def test_evolve_dense_state_and_out_file(tmp_path):
    out = tmp_path / "traj.csv"
    result = run_cli(
        "evolve", "--channel", "dephase:1,1", "--state", off_pattern_dense_literal(),
        "--horizon", "1.0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    cols = parse_trajectory_csv(out.read_text())
    assert cols["a"] is None  # non-X input leaves population cells empty
    np.testing.assert_allclose(cols["negativity"], 0.0, atol=1e-10)


def test_evolve_missing_flags_exit_2():
    result = run_cli("evolve", "--channel", "decay:1,1,0")
    assert result.returncode == 2
    assert "missing required --state" in result.stderr


def test_evolve_runtime_error_exit_3():
    # a step far above the stability limit wrecks the numeric integration,
    # which the re-validation turns into a runtime failure
    result = run_cli(
        "evolve", "--channel", "decay:1,1,0", "--state", off_pattern_dense_literal(),
        "--horizon", "40.0", "--dt", "4.0",
    )
    assert result.returncode == 3
    assert "error:" in result.stderr


# --- death-time -------------------------------------------------------------

def test_death_time_finite_json():
    result = run_cli(
        "death-time", "--channel", "decay:1,1,0", "--state", PURE_07,
        "--horizon", "10",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "finite"
    expected = -np.log(1.0 - np.sqrt(3.0 / 7.0))
    assert abs(payload["t_star"] - expected) < 1e-6
    assert payload["horizon"] == 10.0
    assert payload["crossings"] == 1


def test_death_time_default_horizon_scales_with_rate():
    result = run_cli(
        "death-time", "--channel", "decay:2,2,0", "--state", PURE_07
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["horizon"] == 25.0  # 50 / max_rate


def test_death_time_custom_channel_exit_2(tmp_path):
    entries = ",".join(
        f"{1.0 if i == j else 0.0}:0.0" for i in range(4) for j in range(4)
    )
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"jumps": [{"matrix": entries, "rate": 1.0}]}))
    result = run_cli(
        "death-time", "--channel", f"custom:{path}", "--state", PURE_07
    )
    assert result.returncode == 2
    assert "catalog channel" in result.stderr
    # a malformed jump list is a parse error, not a crash
    for payload in ({"jumps": 5}, {"jumps": [{"matrix": entries, "rate": [1]}]}):
        path.write_text(json.dumps(payload))
        assert_clean_exit_2(run_cli(
            "evolve", "--channel", f"custom:{path}", "--state", PURE_07, "--horizon", "1"
        ))


def test_death_time_eps_death_flag_recorded():
    result = run_cli(
        "death-time", "--channel", "decay:1,1,0", "--state", PURE_07,
        "--horizon", "10", "--eps-death", "1e-8",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["epsilon_death"] == 1e-8


# --- classify ---------------------------------------------------------------

def test_classify_channel_json():
    result = run_cli("classify", "--channel", "collective:1.0", "--samples", "10")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["family"] == "multi"
    assert payload["case"] == "iv"
    assert {"state", "label", "margin"} <= set(payload["evidence"][0])


def test_classify_set_file(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"states": ["x:0.5,0,0,0.5,0.5,0,0,0"]}))
    result = run_cli("classify", "--set-file", str(path))
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert (payload["family"], payload["case"]) == ("one", "iii")


def test_classify_builds_no_per_member_objects(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-member object was built")

    path = tmp_path / "set.json"
    states = ["x:0.5,0,0,0.5,0.5,0,0,0", off_pattern_dense_literal()]
    path.write_text(json.dumps({"states": states}))
    runs = (["--channel", "collective:1", "--samples", "300"], ["--set-file", str(path)])
    expected = []
    for args in runs:
        assert cli.main(["classify", *args]) == 0
        expected.append(capsys.readouterr().out)
    monkeypatch.setattr(esdkit.classify, "Evidence", refuse)
    for module in (esdkit.classify, esdkit.entanglement):
        monkeypatch.setattr(module, "RegionLabel", refuse)
    for args, out in zip(runs, expected):
        assert cli.main(["classify", *args]) == 0
        assert capsys.readouterr().out == out


def test_classify_negative_seed_exits_2(capsys):
    # refused as a flag value, whether or not the set draws random members
    for args in (("--channel", "collective:1", "--samples", "5"),
                 ("--channel", "decay:1,1,0", "--samples", "0")):
        assert cli.main(["classify", *args, "--seed", "-3"]) == 2, args
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: invalid --seed: must be >= 0, got -3\n")


def test_classify_refuses_more_than_a_million_samples(tmp_path, capsys):
    # each member costs about 1 KB of memory, so such a count ran until killed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 10 ** 20}))
    for args in (("--samples", "1000001"), ("--samples", str(10 ** 20)), ("--config", str(config))):
        assert cli.main(["classify", "--channel", "collective:1", *args]) == 2, args
        captured = capsys.readouterr()
        count = args[1] if args[0] == "--samples" else str(10 ** 20)
        assert (captured.out, captured.err) == (
            "", f"error: invalid --samples: must be <= 1000000, got {count}\n")
    assert cli._read("samples", 1_000_000) == 1_000_000


def test_death_bracket_at_the_largest_floats_bisects_to_a_finite_time(capsys):
    # the ladder brackets this death in [6.7e307, 1.3e308], whose ends sum past
    # the largest float; the midpoint then halves each end before adding
    state, horizon = "x:0.4,0.1,0.1,0.4,0.3,0,0,0", 1e300
    channel = parse_channel_literal("dephase:7e-309,7e-309")
    argv = ["death-time", "--channel", "dephase:7e-309,7e-309", "--horizon", repr(horizon),
            "--state", state]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    want = death_time_scalar(parse_state_literal(state), channel, horizon, DEFAULT_TOL)
    assert report["verdict"] == want.verdict == "finite"
    assert 6.7e307 < report["t_star"] == want.t_star < 1.3e308
    assert death_time(parse_state_literal(state), channel, horizon) == want


def test_classify_requires_exactly_one_source(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"states": ["x:0.5,0,0,0.5,0.5,0,0,0"]}))
    neither = run_cli("classify")
    both = run_cli("classify", "--channel", "collective:1.0", "--set-file", str(path))
    assert neither.returncode == 2
    assert both.returncode == 2


def test_classify_bad_set_file_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["x:0.5,0,0"]}))
    result = run_cli("classify", "--set-file", str(path))
    assert result.returncode == 2
    path.write_text(json.dumps({"states": 5}))
    assert_clean_exit_2(run_cli("classify", "--set-file", str(path)))


# --- sweep ------------------------------------------------------------------

def test_sweep_pure_family():
    result = run_cli(
        "sweep", "--channel", "decay:1,1,0", "--family", "pure",
        "--grid", "a=0.55:0.95:5", "--jobs", "1",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "a,verdict,t_star,crossings"
    assert len(lines) == 6
    for line in lines[1:]:
        a_text, verdict, t_star, crossings = line.split(",")
        assert verdict == "finite"
        a = float(a_text)
        expected = -np.log(1.0 - np.sqrt((1.0 - a) / a))
        assert abs(float(t_star) - expected) < 1e-6
        assert crossings == "1"


def test_sweep_pure_family_below_threshold():
    result = run_cli(
        "sweep", "--channel", "decay:1,1,0", "--family", "pure",
        "--grid", "a=0.1:0.4:3", "--jobs", "1",
    )
    assert result.returncode == 0, result.stderr
    for line in result.stdout.strip().splitlines()[1:]:
        _, verdict, t_star, _ = line.split(",")
        assert verdict == "asymptotic"
        assert t_star == ""


def test_sweep_x_overrides_base_state():
    result = run_cli(
        "sweep", "--channel", "dephase:1,1", "--state", "x:0.2,0.3,0.3,0.2,0,0,0.25,0",
        "--grid", "z=0.21:0.25:2", "--horizon", "10", "--jobs", "1",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "z_re,verdict,t_star,crossings"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[1] == "finite"


def test_sweep_grid_cross_product():
    # coherence grids compose freely (populations are pinned by the base state)
    result = run_cli(
        "sweep", "--channel", "decay:1,1,0.5", "--state",
        "x:0.3,0.2,0.2,0.3,0,0,0,0",
        "--grid", "w=0:0.25:2", "--grid", "z=0:0.15:2",
        "--horizon", "5", "--jobs", "1",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "w_re,z_re,verdict,t_star,crossings"
    assert len(lines) == 5


def test_sweep_grid_errors_exit_2(capsys):
    pure = ("--channel", "decay:1,1,0", "--family", "pure")
    base = ("--channel", "decay:1,1,0", "--state", "x:0.4,0.1,0.1,0.4,0.1,0,0,0")
    cases = [
        (pure, "sweep requires at least one --grid (param=start:stop:n)"),
        (pure + ("--grid", "a=0:1"), "invalid --grid: 'a=0:1': expected start:stop:n"),
        (pure + ("--grid", "q=0:1:3"), "invalid --grid: 'q=0:1:3': unknown parameter 'q' "
                                       "(expected one of a, b, c, d, w_re, w_im, z_re, z_im)"),
        (pure + ("--grid", "a=0:1:0"), "invalid --grid: 'a=0:1:0': n must be >= 1"),
        (base + ("--grid", "a=0.2:0.3:2", "--grid", "a=0.2:0.3:2"),
         "sweep grids repeat a parameter name"),
        # a grid point off unit trace is rejected like any other bad grid
        (base + ("--grid", "a=0.5:0.6:2"),
         "invalid sweep grid point a=0.5: populations sum deviates from 1 by 1.000e-01"),
        # the first failing point in itertools.product order
        (base + ("--grid", "w=0:0.5:5", "--grid", "z=0:0.2:3"),
         "invalid sweep grid point w_re=0.0, z_re=0.2: |z|^2=4.000000e-02 exceeds "
         "(b+1.0e-09)*(c+1.0e-09)=1.000000e-02"),
        (pure + ("--grid", "a=0:1:3"), "pure family requires 0 < a < 1, got 0.0"),
        (pure + ("--grid", "a=0.2:1.2:6"), "pure family requires 0 < a < 1, got 1.0"),
        (pure + ("--grid", "a=0.2:0.8:3", "--grid", "w=0:0.1:2"),
         "pure family sweeps accept exactly one grid over a"),
    ]
    for args, line in cases:
        assert cli.main(["sweep", *args]) == 2, args
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line}\n"), args


def test_sweep_oversized_grid_exits_2():
    # 10**18 points is beyond the address space, so allocation fails under
    # any overcommit policy; a size that fits could be allocated and written
    args = ("sweep", "--channel", "decay:1,1,0", "--state", "x:0.4,0.1,0.1,0.4,0.1,0,0,0")
    one = ("--grid", "a=0.1:0.9:1000000000000000000")
    product = tuple(f"--grid={name}=0:0.1:1000000" for name in ("w", "w_im", "z"))
    for grids in (one, product):
        result = run_cli(*args, *grids)
        assert_clean_exit_2(result)
        assert result.stderr == ("error: a sweep grid of 1000000000000000000 points "
                                 "is too large to allocate\n")


# one coherence grid per catalog channel kind; together they reach every verdict
SWEEP_GRIDS = [
    ("decay:1,1,0", "x:0.2,0,0,0.8,0,0,0,0",
     [("w_re", -0.28, 0.28, 5), ("w_im", -0.28, 0.28, 5)]),
    ("decay:1,0.5,0.3", "x:0.3,0.2,0.2,0.3,0,0,0,0",
     [("w_re", -0.2, 0.2, 5), ("w_im", -0.2, 0.2, 5)]),
    ("dephase:1,0.5", "x:0.3,0.2,0.2,0.3,0,0,0,0",
     [("z_re", 0.0, 0.2, 3), ("w_re", 0.0, 0.3, 4)]),
    ("collective:1", "x:0.1,0.4,0.4,0.1,0,0,0,0",
     [("z_re", -0.35, 0.35, 5), ("w_re", 0.0, 0.1, 3)]),
]


def test_sweep_rows_match_death_time(capsys):
    verdicts = set()
    for channel_text, state_text, grids in SWEEP_GRIDS:
        args = ["sweep", "--channel", channel_text, "--state", state_text, "--horizon", "2"]
        assert cli.main(args + [f"--grid={n}={lo!r}:{hi!r}:{k}" for n, lo, hi, k in grids]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        names = [name for name, *_ in grids]
        assert header == ",".join(names) + ",verdict,t_star,crossings"
        points = list(itertools.product(*(np.linspace(*grid[1:]).tolist() for grid in grids)))
        assert len(lines) == len(points)
        base = parse_state_literal(state_text)
        channel = parse_channel_literal(channel_text)
        for line, point in zip(lines, points):
            fields = {"w_re": base.w.real, "w_im": base.w.imag,
                      "z_re": base.z.real, "z_im": base.z.imag, **dict(zip(names, point))}
            x = make_x(base.a, base.b, base.c, base.d,
                       complex(fields["w_re"], fields["w_im"]),
                       complex(fields["z_re"], fields["z_im"]))
            report = death_time(x, channel, 2.0)
            t_star = "" if report.t_star is None else repr(report.t_star)
            cells = [*map(repr, point), report.verdict, t_star, str(report.crossings)]
            assert line == ",".join(cells), (channel_text, point)
            verdicts.add(report.verdict)
    assert verdicts == {"finite", "asymptotic", "persistent", "never_entangled"}


def test_sweep_jobs_do_not_change_output():
    args = (
        "sweep", "--channel", "decay:1,1,0", "--family", "pure",
        "--grid", "a=0.55:0.9:8",
    )
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "4")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    # death-time decisions use no grid, so --dt is validated but ignored
    death_args = ("death-time", "--channel", "decay:1,0.5,0.2", "--state", PURE_07)
    for command in (args, death_args):
        runs = [run_cli(*command, *dt) for dt in ((), ("--dt", "0.5"), ("--dt", "1e-4"))]
        assert [run.returncode for run in runs] == [0, 0, 0]
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout


# --- config files and precedence --------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "channel": "decay:1,1,0", "state": PURE_07, "horizon": 10.0,
    }))
    result = run_cli("death-time", "--config", str(config))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "finite"


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "channel": "decay:1,1,0", "state": PURE_07, "horizon": 10.0,
    }))
    result = run_cli(
        "death-time", "--config", str(config), "--state", "x:0.3,0,0,0.7,0.45825756949558405,0,0,0",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "asymptotic"


def test_config_file_errors_exit_2(tmp_path, capsys):
    missing = run_cli("classify", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run_cli("classify", "--config", str(bad)).returncode == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"channel": "collective:1.0", "color": "red"}))
    assert run_cli("classify", "--config", str(unknown)).returncode == 2
    # an entry is read as its flag's text would be, so a wrong type fails
    # as the same bad flag does instead of crashing or being truncated
    # (in process: a crash would raise out of main)
    wrong_types = tmp_path / "wrong.json"
    for entry in ({"seed": "abc"}, {"horizon": "abc"}, {"jobs": "two"},
                  {"horizon": [1]}, {"seed": 1.5}, {"seed": True}, {"seed": -3}):
        wrong_types.write_text(json.dumps({"channel": "collective:1.0", **entry}))
        assert cli.main(["classify", "--samples", "1", "--config", str(wrong_types)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid --{next(iter(entry))}: ")


# --- shared behaviour -------------------------------------------------------

def test_bad_literals_exit_2():
    bad_channel = run_cli(
        "evolve", "--channel", "squeeze:1", "--state", PURE_07, "--horizon", "1"
    )
    assert bad_channel.returncode == 2
    assert "invalid --channel" in bad_channel.stderr
    bad_state = run_cli(
        "evolve", "--channel", "decay:1,1,0", "--state", "x:1,2", "--horizon", "1"
    )
    assert bad_state.returncode == 2
    assert "invalid --state" in bad_state.stderr


def dense_literal_with(first_entry: str) -> str:
    """I/4 as a dense literal with its (1,1) entry replaced."""
    entries = [f"{0.25 if i == j else 0.0}:0.0" for i in range(4) for j in range(4)]
    entries[0] = first_entry
    return "dense:" + ",".join(entries)


@pytest.mark.parametrize("args", [
    ("death-time", "--channel", "decay:1,1,0", "--state", "x:nan,0,0,1,0,0,0,0"),
    ("evolve", "--channel", "decay:1,1,0", "--state", dense_literal_with("nan:0"),
     "--horizon", "1"),
    ("death-time", "--channel", "decay:nan,1,0", "--state", PURE_07),
    ("classify", "--channel", "collective:nan"),
    ("death-time", "--channel", "decay:inf,1,0", "--state", PURE_07),
    ("death-time", "--channel", "decay:1,1,0", "--state", PURE_07, "--horizon", "nan"),
    ("death-time", "--channel", "decay:1,1,0", "--state", PURE_07, "--dt", "nan"),
    ("evolve", "--channel", "decay:1,1,0", "--state", PURE_07, "--horizon", "inf"),
    ("sweep", "--channel", "decay:1,1,0", "--state", "x:0.4,0.1,0.1,0.4,0.1,0,0,0",
     "--grid", "w=nan:0.1:2"),
    # horizon / dt overflows to inf steps, on both paths of evolve
    ("evolve", "--channel", "decay:1,1,0", "--state", PURE_07, "--horizon", "5",
     "--dt", "5e-324"),
    ("evolve", "--channel", "decay:1,1,0", "--state", dense_literal_with("0.25:0"),
     "--horizon", "5", "--dt", "5e-324"),
], ids=["x-state", "dense-state", "decay-rate", "collective-rate", "infinite-rate",
        "nan-horizon", "nan-dt", "infinite-horizon", "grid-bound", "step-count-x",
        "step-count-dense"])
def test_non_finite_inputs_exit_2(args):
    result = run_cli(*args)
    assert result.returncode == 2, (result.returncode, result.stderr)
    assert result.stderr.startswith("error: invalid --")


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("warp").returncode == 2
    assert run_cli("evolve", "--frobnicate").returncode == 2


def test_repeated_runs_byte_identical():
    evolve_args = (
        "evolve", "--channel", "collective:1.0",
        "--state", "x:0.3,0.2,0.2,0.3,0.28,0,0,0", "--horizon", "3.0",
    )
    classify_args = ("classify", "--channel", "collective:1.0", "--seed", "7")
    for args in (evolve_args, classify_args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


# --- unchanged input contract, in process ------------------------------------

CONTRACT_RUNS = {
    "evolve": ("--channel", "decay:1,1,0", "--state", PURE_07, "--horizon", "0.5"),
    "death-time": ("--channel", "decay:1,1,0", "--state", PURE_07),
    "classify": ("--channel", "collective:1", "--samples", "2"),
    "sweep": ("--channel", "decay:1,1,0", "--family", "pure", "--grid", "a=0.6:0.8:2"),
}


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_jobs_and_dt_accepted_and_validated_everywhere(command, capsys):
    args = [command, *CONTRACT_RUNS[command]]
    assert cli.main(args + ["--jobs", "1", "--dt", "0.01"]) == 0
    capsys.readouterr()
    for bad in (["--jobs", "0"], ["--dt", "-1"], ["--dt", "nan"]):
        assert cli.main(args + bad) == 2, bad
        assert capsys.readouterr().err.startswith(f"error: invalid {bad[0]}: ")


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "channel": "decay:1,1,0", "state": PURE_07, "horizon": 0.5,
        "grid": ["a=0.6:0.8:2"], "family": "pure", "samples": 3, "set-file": None,
    }))
    assert cli.main(["evolve", "--config", str(config)]) == 0
    with_config = capsys.readouterr().out
    assert cli.main(["evolve", *CONTRACT_RUNS["evolve"]]) == 0
    assert capsys.readouterr().out == with_config


def test_main_reuses_one_parser(monkeypatch, capsys):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
    assert cli.main(["classify", "--channel", "collective:1", "--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "iv"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "result.txt")
    for command in sorted(CONTRACT_RUNS):
        assert cli.main([command, *CONTRACT_RUNS[command], "--out", out]) == 2, command
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out!r}: ")


# --- one X rule on every entry path ------------------------------------------

X_PATH_STATES = {
    # the trace drifts by 9.99999860695766e-10 summed left to right, and by
    # 1.000000082740371e-09 under a compensated sum (Python 3.12's ``sum``)
    "left-to-right-trace": ((0.2995003433643095, 0.2103744450659106, 0.014667877085600078,
                             0.47545733548417984, 0j, 0j), None),
    # |w|^2 above (a + eps_psd)(d + eps_psd) as abs and a square give it,
    # though numpy's abs(w), one ulp lower, passes squared
    "w-rounding": ((0.4598761641418843, 0.1718529728040154, 0.1718529728040154,
                    0.19641789025008494, 0.2565094451106953 - 0.15662315014820752j, 0j),
                   "|w|^2=9.032791e-02 exceeds (a+1.0e-09)*(d+1.0e-09)=9.032791e-02"),
}


@pytest.mark.parametrize("name", list(X_PATH_STATES))
def test_x_rule_is_the_same_on_every_entry_path(name, tmp_path, capsys):
    member, message = X_PATH_STATES[name]
    rule = x_rule_scalar(*member, DEFAULT_TOL)
    assert (rule and rule[2]) == message
    literal = format_state_literal(XState(*member))
    # the sweep's base is valid with w_re = 0; its one grid point puts w_re back
    w_re = member[4].real
    base = literal.split(",")
    base[4] = "0.0"
    path = str(tmp_path / "set.json")
    Path(path).write_text(json.dumps({"states": [literal]}))
    runs = {
        "set-file": ["classify", "--set-file", path],
        "sweep": ["sweep", "--channel", "decay:1,1,0", "--horizon", "1",
                  "--state", ",".join(base), f"--grid=w_re={w_re!r}:{w_re!r}:1"],
    }
    if message is None:
        assert make_x(*member) == parse_state_literal(literal) == XState(*member)
        for argv in runs.values():
            assert cli.main(argv) == 0
            assert capsys.readouterr().err == ""
        return
    for call in (lambda: make_x(*member), lambda: parse_state_literal(literal)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()
    wants = {"set-file": f"error: --set-file {path!r} state 1: {message}\n",
             "sweep": f"error: invalid sweep grid point w_re={w_re!r}: {message}\n"}
    for key, argv in runs.items():
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == wants[key]


def test_huge_coherence_exits_2(capsys):
    message = "|w|^2=inf exceeds (a+1.0e-09)*(d+1.0e-09)=2.500000e-01"
    base = ["--channel", "decay:1,1,0", "--horizon", "1", "--state"]
    assert cli.main(["evolve", *base, "x:0.5,0,0,0.5,1e200,0,0,0"]) == 2
    assert capsys.readouterr().err == f"error: invalid --state: {message}\n"
    assert cli.main(["sweep", *base, "x:0.5,0,0,0.5,0,0,0,0", "--grid=w_re=1e200:1e200:1"]) == 2
    assert capsys.readouterr().err == f"error: invalid sweep grid point w_re=1e+200: {message}\n"


@pytest.mark.parametrize("w, code", [
    # |w|^2 = a*d + 9e-10: the w block's lowest eigenvalue is -4.5e-09
    ("0.1000000044999999", 2),
    # |w|^2 = a*d + 1.5e-10: the lowest eigenvalue is -7.5e-10
    ("0.10000000075", 0),
])
def test_x_band_is_the_dense_eigenvalue_check(w, code, tmp_path, capsys):
    matrix = np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex)
    matrix[0, 3] = matrix[3, 0] = float(w)
    path = tmp_path / "set.json"
    for literal in (f"x:0.1,0.4,0.4,0.1,{w},0,0,0", dense_literal(matrix)):
        path.write_text(json.dumps({"states": [literal]}))
        for argv in (["evolve", "--channel", "decay:1,1,0", "--horizon", "1", "--state", literal],
                     ["classify", "--set-file", str(path)]):
            assert cli.main(argv) == code, (literal, argv[0])
            capsys.readouterr()


# --- set-file errors name the first bad member -------------------------------

def dense_literal(matrix) -> str:
    return "dense:" + ",".join(f"{v.real!r}:{v.imag!r}" for v in np.ravel(matrix).astype(complex).tolist())


def with_coherence(upper, lower) -> str:
    """diag(1/2, 1/2, 0, 0) with ``upper`` at (1,2) and ``lower`` at (2,1)."""
    matrix = np.diag([0.5, 0.5, 0.0, 0.0])
    matrix[0, 1], matrix[1, 0] = upper, lower
    return dense_literal(matrix)


GOOD_X = "x:0.4,0.1,0.2,0.3,0.1,0.05,0,0.1"
GOOD_DENSE = dense_literal(np.eye(4) / 4.0)
BAD_X = {
    "field-count": "x:0.5,0,0,0.5",
    "non-numeric": "x:0.5,zero,0,0.5,0,0,0,0",
    "negative-population": "x:1.2,-0.2,0,0,0,0,0,0",
    "trace-off": "x:0.5,0.5,0.5,0,0,0,0,0",
    "w-bound": "x:0.5,0,0,0.5,0.6,0,0,0",
    "nan": "x:nan,0,0,1,0,0,0,0",
}
BAD_DENSE = {
    "entry-count": "dense:0.25:0,0:0,0:0",
    "not-re-im": dense_literal_with("0.25"),
    "not-hermitian": dense_literal(np.eye(4) / 4.0 + np.triu(np.ones((4, 4)), 1) * 1e-3),
    "trace-off": dense_literal(np.eye(4) / 2.0),
    "negative-eigenvalue": dense_literal(np.diag([0.5, 0.5, 0.25, -0.25])),
    # finite entries near the float maximum, whose hermitization overflows
    "overflow-trace": dense_literal(np.diag([1e308, 1e308, 0.0, 0.0])),
    "overflow-hermiticity": with_coherence(1e308, -1e308),
    "overflow-eigenvalue": with_coherence(1e308, 1e308),
    # the right totals of commas and colons, in the wrong places
    "misplaced-colon": GOOD_DENSE.replace("0.25:0.0,0.0:0.0,", "0.25:0.0:0.0,0.0,", 1),
    "space-inside-number": GOOD_DENSE.replace("0.25:0.0", "0.2 5:0.0", 1),
    "double-underscore": GOOD_DENSE.replace("0.25:0.0", "0.2__5:0.0", 1),
    "inf": GOOD_DENSE.replace("0.25:0.0", "inf:0.0", 1),
    "nan": GOOD_DENSE.replace("0.0:0.0", "0.0:nan", 1),
}
BAD_SETS = {
    **{f"x-{name}": [GOOD_DENSE, GOOD_DENSE, bad] for name, bad in BAD_X.items()},
    **{f"dense-{name}": [GOOD_X, GOOD_X, bad] for name, bad in BAD_DENSE.items()},
    "prefix": [GOOD_X, GOOD_DENSE, "y:0.25,0.25,0.25,0.25"],
    "dense-value-then-x-syntax": [GOOD_X, BAD_DENSE["trace-off"], BAD_X["field-count"]],
    "x-syntax-then-dense-value": [GOOD_DENSE, BAD_X["field-count"], BAD_DENSE["trace-off"]],
    # one entry moved to the member before: joined, they read as two good ones
    "dense-entry-moved-up": [GOOD_X, GOOD_DENSE + ",0.25:0.0",
                             GOOD_DENSE.replace("0.25:0.0,", "", 1)],
    "x-field-moved-up": [GOOD_DENSE, GOOD_X + ",0.4", GOOD_X.replace("0.4,", "", 1)],
}


@pytest.mark.parametrize("name", list(BAD_SETS))
def test_set_file_names_first_bad_member(name, tmp_path, capsys):
    members = BAD_SETS[name]
    first_bad = next(k for k, literal in enumerate(members) if literal not in (GOOD_X, GOOD_DENSE))
    with pytest.raises(ValueError) as own:
        parse_state_literal(members[first_bad])
    path = str(tmp_path / "set.json")
    Path(path).write_text(json.dumps({"states": members}))
    assert cli.main(["classify", "--set-file", path]) == 2
    expected = f"error: --set-file {path!r} state {first_bad + 1}: {own.value}\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("name,message", [
    ("overflow-trace", "trace deviates from 1 by inf"),
    ("overflow-hermiticity", "density matrix deviates from Hermiticity by inf"),
    ("overflow-eigenvalue", "minimum eigenvalue -1.000e+308"),
])
def test_dense_state_near_float_max_exits_2(name, message, capsys):
    # rejected by the ordinary checks, with no numpy RuntimeWarning
    argv = ["evolve", "--channel", "dephase:1,1", "--horizon", "1", "--state", BAD_DENSE[name]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid --state: {message} ")


@pytest.mark.parametrize("channel", ["collective:1e308", "decay:1e308,1e308,1e308"])
def test_overflowing_channel_rates_exit_2(channel):
    # refused when parsed, not read as never entangled, and with no numpy
    # RuntimeWarning even where warnings are errors
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "esdkit", "death-time",
         "--channel", channel, "--state", "x:0.4,0.1,0.1,0.4,0.3,0,0.05,0"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert_clean_exit_2(result)
    assert result.stderr.startswith("error: invalid --channel: ")
    assert result.stderr.count("\n") == 1 and result.stdout == ""


SMALL_STEP_STATE = ("dense:0.4:0,0.05:0,0:0,0.2:0,0.05:0,0.1:0,0.05:0,0:0,"
                    "0:0,0.05:0,0.1:0,0:0,0.2:0,0:0,0:0,0.4:0")


def test_tiny_dense_steps_still_move_the_state(capsys):
    def run(channel, dt):
        argv = ["evolve", "--channel", channel, "--horizon", "5", "--dt", dt,
                "--state", SMALL_STEP_STATE]
        return cli.main(argv), capsys.readouterr()

    # at dt = 1e-300, I + dt L rounds to I; the steps must still add up
    code, captured = run("dephase:1,1", "1e-300")
    assert code == 0
    last = parse_trajectory_csv(captured.out)["abs_w"][-1]
    assert abs(last - 0.2 * np.exp(-10.0)) <= 1e-14
    # decay keeps unit trace at small steps, so revalidation passes
    code, captured = run("decay:1,1,0", "1e-9")
    assert code == 0, captured.err


@pytest.mark.parametrize("dt", ["3", "30"])
def test_step_too_large_for_dense_state_exits_3(dt, capsys):
    # the oversized RK4 steps overflow; revalidation reports the failure,
    # with no numpy RuntimeWarning
    state = dense_literal(np.array([[0.25, 0.1, 0, 0.1], [0.1, 0.25, 0, 0],
                                    [0, 0, 0.25, 0], [0.1, 0, 0, 0.25]]))
    argv = ["evolve", "--channel", "decay:1,1,0", "--horizon", "3000", "--dt", dt,
            "--state", state]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: minimum eigenvalue -\S+ after integration; reduce dt\n",
                        captured.err)
