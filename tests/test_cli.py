"""Command-line interface: subcommands, config precedence, exit codes.

Everything goes through main(argv) in-process so the tests see real exit
codes and real files without shelling out.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lobexec.cli as cli
from lobexec import OracleResult, Strategy

FIG3_XI0 = 10222.876651256016


def run(argv):
    return cli.main([str(a) for a in argv])


def test_solve_defaults(tmp_path, capsys):
    assert run(["solve", "--out-dir", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "xi0   = 10222.9" in out
    csv_lines = (tmp_path / "schedule.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "n,trade"
    assert len(csv_lines) == 12
    assert float(csv_lines[1].split(",")[1]) == pytest.approx(FIG3_XI0, rel=1e-15)
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["model"] == 1
    assert payload["config"]["x0"] == 100000.0
    assert len(payload["trades"]) == 11


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x0": 50_000.0, "n": 4, "shape": {"kind": "block", "q": 5000.0}}))
    assert run(["solve", "--config", cfg, "--x0", 100_000.0, "--out-dir", tmp_path]) == 0
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["config"]["x0"] == 100_000.0  # flag wins
    assert payload["config"]["n"] == 4  # config survives where no flag given
    assert len(payload["trades"]) == 5


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    # bad keys are an invalid-parameter problem, same exit class as bad values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_total": 1.0}))
    assert run(["solve", "--config", cfg, "--out-dir", tmp_path]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_replay_round_trip(tmp_path, capsys):
    assert run(["solve", "--out-dir", tmp_path]) == 0
    sched = tmp_path / "schedule.json"
    traj = tmp_path / "traj.csv"
    rep = tmp_path / "report.json"
    assert run(["replay", "--schedule", sched, "--trajectory", traj, "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "cost  = 116064" in out
    report = json.loads(rep.read_text())
    assert report["total"] == pytest.approx(116063.92558346705, rel=1e-12)
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "n,t,E_pre,D_pre,E_post,D_post"
    assert len(lines) == 12
    # post-trade volume is xi0 at every interior node (first-order condition)
    for ln in lines[1:-1]:
        assert float(ln.split(",")[4]) == pytest.approx(FIG3_XI0, rel=1e-9)


def test_replay_honors_flag_overrides(tmp_path, capsys):
    assert run(["solve", "--out-dir", tmp_path]) == 0
    assert run(["replay", "--schedule", tmp_path / "schedule.json", "--a0", 100.0]) == 0
    out = capsys.readouterr().out
    # base term a0*X0 = 1e7 dominates
    assert "cost  = 1.01161e+07" in out


def test_replay_missing_schedule(tmp_path):
    assert run(["replay", "--schedule", tmp_path / "nope.json"]) == 1


def test_sweep_writes_rows(tmp_path):
    assert run(["sweep", "--alphas", "0,1", "--models", "1", "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,model,xi0,xi1,xiN,cost,status"
    assert len(lines) == 3
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["xi0"]) == pytest.approx(FIG3_XI0, rel=1e-12)
    assert row["status"] == "ok"


def test_sweep_marks_failures_instead_of_dropping(tmp_path):
    # alpha = 1.5 saturates: X0 = 1e5 overruns the one-sided depth 2q
    assert run(["sweep", "--alphas", "0,1.5", "--models", "1", "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    bad = lines[2].split(",")
    assert bad[0] == "1.5"
    assert bad[-1] in ("precondition", "numeric")


def test_sweep_prints_orderings(tmp_path, capsys):
    assert run(["sweep", "--alphas=-2,0.5", "--out-dir", tmp_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "alpha=+0.5: front-loaded; intermediate volume-rec > spread-rec" in lines
    assert "alpha=-2.0: back-loaded; intermediate volume-rec < spread-rec" in lines


def test_sweep_prints_a_tie(tmp_path, capsys):
    # on the flat book both models give the same symmetric schedule
    assert run(["sweep", "--alphas", "0", "--out-dir", tmp_path]) == 0
    assert "alpha=+0.0: symmetric; intermediate volume-rec = spread-rec" in capsys.readouterr().out


def test_sweep_takes_a_leading_negative_alpha(tmp_path):
    assert run(["sweep", "--alphas", "-2,-1", "--out-dir", tmp_path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["-2.0", "-2.0", "-1.0", "-1.0"]


def test_ow_compare(tmp_path, capsys):
    assert run(["ow-compare", "--out-dir", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "agrees" in out
    lines = (tmp_path / "ow_compare.csv").read_text().strip().splitlines()
    assert lines[0].startswith("n,block_closed,lambda_")
    assert len(lines) == 12
    assert (tmp_path / "ow_coeffs_lambda0.csv").exists()


@pytest.mark.filterwarnings("error")
def test_ow_compare_at_a_depth_near_the_float_limit_agrees(tmp_path, capsys):
    # q lam overflowed in the closed-form alpha: every alpha was NaN, the
    # NaN gap was dropped, and the command agreed with two RuntimeWarnings
    assert run(["ow-compare", "--q", 1e308, "--lambdas", -1, "--out-dir", tmp_path]) == 0
    assert "agrees" in capsys.readouterr().out
    params = cli.make_params(cli.DEFAULTS)
    closed = cli.ow.closed_coeffs(1e308, -1.0, params)
    back = cli.ow.backward_coeffs(1e308, -1.0, params)
    assert closed.alpha == pytest.approx(back.alpha, rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["ow-compare", "--lambdas", "-1e-4"],
    ["ow-compare", "--lambdas", "-1,-2"],
    ["ow-compare", "--lambdas", "-.5e-4,0"],
    ["sweep", "--alphas", "-0.5e0,1"],
], ids=["lambdas -1e-4", "lambdas -1,-2", "lambdas -.5e-4,0", "alphas -0.5e0,1"])
def test_a_list_flag_takes_a_negative_list(argv, tmp_path, capsys):
    # argparse takes a value that starts with "-" and is not a plain
    # number for a flag: --lambdas -1e-4 was "expected one argument"
    values = [float(v) for v in argv[-1].split(",")]
    assert run(argv + ["--out-dir", tmp_path]) == 0
    assert "usage error" not in capsys.readouterr().err
    if argv[0] == "ow-compare":
        header = (tmp_path / "ow_compare.csv").read_text().splitlines()[0].split(",")
        assert header == ["n", "block_closed"] + [f"lambda_{v:g}" for v in values]
    else:
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        assert sorted({float(r.split(",")[0]) for r in rows}) == sorted(values)


@pytest.mark.filterwarnings("error")
def test_ow_compare_with_a_recursion_that_overflows_is_exit_3(tmp_path, capsys):
    # lam = -1e308 is finite and below 1/q, but kappa^2 a^2 overflows in the
    # recursion: a numerical failure at a node, not an invalid parameter
    for lambdas in ("-1e308,0", "-1.7e308"):
        assert run(["ow-compare", f"--lambdas={lambdas}", "--out-dir", tmp_path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: recursion overflows at node 9")


@pytest.mark.filterwarnings("error")
def test_ow_compare_with_a_forward_pass_that_overflows_is_exit_3(tmp_path, capsys):
    # the forward pass overflows at x0 = 1e308: a numerical failure that
    # names the slope, not a verification mismatch (exit 4)
    assert run(["ow-compare", "--x0", 1e308, "--lambdas", -11, "--out-dir", tmp_path]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: permanent slope -11.0")
    assert "agrees" not in captured.out


def test_oracle_check_small(capsys):
    assert run(["oracle-check", "--n", 3, "--starts", 3]) == 0
    assert "oracle agrees with the solver" in capsys.readouterr().out


def test_oracle_check_notes_starts_off_the_book(capsys):
    # power alpha = 1.5 holds 1e4 shares a side: putting all 2e4 into the
    # first trade overruns it, and that start is dropped, not failed
    argv = ["--shape", "power", "--alpha", 1.5, "--x0", 2e4, "--n", 10]
    assert run(["oracle-check"] + argv) == 0
    captured = capsys.readouterr()
    assert "oracle agrees with the solver" in captured.out
    assert "1 of 8 oracle starts lie off the book" in captured.err
    assert "not every oracle start converged" not in captured.err


def test_oracle_check_mismatch_is_exit_4(monkeypatch):
    # force a fake oracle that claims a different, much better minimum
    def fake(params, shape, starts=8, seed=0, max_iter=100_000):
        n = params.steps + 1
        return OracleResult(
            best_strategy=Strategy(trades=tuple([params.x0 / n] * n)),
            best_cost=1.0,
            starts=starts,
            converged=True,
            grid_resolution=None,
        )

    monkeypatch.setattr(cli.oracle, "minimize_cost", fake)
    assert run(["oracle-check", "--n", 3]) == 4


# (command, flag) pairs that every command took and the command never read
FLAGS_A_COMMAND_DOES_NOT_READ = [
    ("solve", "--seed"),
    ("replay", "--seed"), ("replay", "--out-dir"),
    ("oracle-check", "--a0"), ("oracle-check", "--out-dir"),
] + [(command, flag) for command in ("sweep", "ow-compare")
     for flag in ("--shape", "--alpha", "--mu", "--n-param", "--csv-path", "--model", "--a0", "--seed")]
FLAG_VALUES = {"--seed": "1", "--a0": "1", "--out-dir": "elsewhere", "--shape": "power",
               "--alpha": "1", "--mu": "1", "--n-param": "2", "--csv-path": "shape.csv",
               "--model": "2"}
COMMAND_ARGV = {
    "solve": ["solve", "--out-dir", "{tmp}"],
    "replay": ["replay", "--schedule", "{tmp}/schedule.json"],
    "oracle-check": ["oracle-check", "--n", "2", "--starts", "1"],
    "sweep": ["sweep", "--alphas", "0", "--models", "1", "--out-dir", "{tmp}"],
    "ow-compare": ["ow-compare", "--out-dir", "{tmp}"],
}


@pytest.mark.parametrize("command, flag", FLAGS_A_COMMAND_DOES_NOT_READ,
                         ids=[" ".join(pair) for pair in FLAGS_A_COMMAND_DOES_NOT_READ])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    # each was taken and silently ignored
    if command == "replay":
        assert run(["solve", "--n", 1, "--out-dir", tmp_path]) == 0
        capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in COMMAND_ARGV[command]]
    assert run(argv + [flag, FLAG_VALUES[flag]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}")


def test_each_command_registers_only_the_flags_it_reads():
    book = {"--shape", "--q", "--alpha", "--mu", "--n-param", "--csv-path"}
    market = {"--x0", "--t", "--n", "--rho", "--model"}
    depth_and_market = {"--q", "--x0", "--t", "--n", "--rho", "--config", "--out-dir"}
    want = {
        "solve": book | market | {"--a0", "--config", "--out-dir"},
        "replay": book | market | {"--a0", "--config", "--schedule", "--trajectory", "--report"},
        "oracle-check": book | market | {"--seed", "--config", "--starts", "--force"},
        "sweep": depth_and_market | {"--alphas", "--models"},
        "ow-compare": depth_and_market | {"--lambdas"},
    }
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    got = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
           for name, sub in commands.choices.items()}
    assert got == want
    assert sum(map(len, got.values())) == 62


def test_an_abbreviated_flag_is_a_usage_error(tmp_path, capsys):
    # with abbreviations, sweep would read --alpha as --alphas
    assert run(["sweep", "--alpha", "0", "--out-dir", tmp_path]) == 1
    assert run(["solve", "--out", tmp_path]) == 1
    assert "unrecognized arguments: --alpha 0" in capsys.readouterr().err


def test_usage_errors():
    assert run(["solve", "--no-such-flag"]) == 1
    assert run(["solve", "--model", "3"]) == 1
    assert run([]) == 1


MALFORMED_CONFIGS = {
    "fractional n": {"n": 2.5},
    "model 3": {"model": 3},
    "x0 not a number": {"x0": "abc"},
    "fractional counterexample index": {"shape": {"kind": "piecewise-ce", "n": 2.5}},
    "not JSON": "{not json",
    "not an object": [1, 2],
    "shape not an object": {"shape": "block"},
    "unknown shape kind": {"shape": {"kind": "wedge"}},
    "unknown shape key": {"shape": {"depth": 1.0}},
}


@pytest.mark.parametrize("cfg", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_a_malformed_config_file_is_an_invalid_parameter(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert run(["solve", "--config", path, "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameter: ") and "Traceback" not in err
    assert not (tmp_path / "schedule.json").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--models", "3"],
    ["sweep", "--alphas", "0,x"],
    ["ow-compare", "--lambdas", "0,x"],
], ids=["sweep models", "sweep alphas", "ow-compare lambdas"])
def test_a_malformed_list_flag_is_a_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_validation_failure_is_exit_2(capsys):
    code = run(
        ["solve", "--shape", "piecewise-ce", "--n-param", 2, "--model", 2,
         "--x0", 3.0, "--rho", 6.9, "--n", 10]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "witness" in err


@pytest.mark.parametrize("argv, reason", [
    (["--shape", "power", "--alpha", "nan"], "exponent must be finite"),
    (["--shape", "power", "--alpha", "inf"], "exponent must be finite"),
    (["--shape", "sqrt", "--mu", "nan"], "curvature must be finite"),
    (["--q", "inf"], "depth must be finite"),
    (["--a0", "nan"], "a0 must be finite"),
], ids=["alpha nan", "alpha inf", "mu nan", "q inf", "a0 nan"])
def test_a_value_that_is_not_finite_is_an_invalid_parameter(tmp_path, capsys, argv, reason):
    # each was read as something else: a numeric failure (exit 3), a
    # failed scan, or a cost of nan (exit 0)
    assert run(["solve"] + argv + ["--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameter: ") and reason in err
    assert not (tmp_path / "schedule.json").exists()


def test_numeric_failure_is_exit_3(tmp_path):
    # alpha=3 book holds only q/2 = 2500 shares on the ask side
    assert run(["solve", "--shape", "power", "--alpha", 3.0, "--x0", 1e5,
                "--out-dir", tmp_path]) == 3


def test_a_sqrt_depth_whose_square_underflows_is_exit_3(tmp_path, capsys):
    # q * q underflows to 0 in the sqrt book's offset: a ZeroDivisionError
    # that ended in a traceback
    assert run(["solve", "--shape", "sqrt", "--q", 5e-324, "--out-dir", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_offset_overflow_is_exit_3(tmp_path):
    # at x0 = 1e15 the log-law offset overflows inside the validator scan
    argv = ["--shape", "power", "--alpha", 1.0, "--x0", 1e15, "--model", 1, "--out-dir", tmp_path]
    assert run(["solve"] + argv) == 3
    assert run(["sweep", "--alphas", "1", "--models", "1", "--x0", 1e15, "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[-1] == "numeric"


def test_sweep_marks_a_power_overflow_numeric(tmp_path):
    # at alpha = 0.99 the offset's float ** overflows inside the validator
    # scan: the cell reads numeric and the sweep finishes
    argv = ["--alphas", 0.99, "--models", 1, "--x0", 1e15, "--out-dir", tmp_path]
    assert run(["sweep"] + argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[1].split(",") == ["0.99", "1", "", "", "", "", "numeric"]


@pytest.mark.parametrize("model", [1, 2])
def test_decay_that_underflows_solves(tmp_path, model):
    # rho tau = 1000: exp(-1000) underflows to 0, full recovery between trades
    argv = ["solve", "--n", 1, "--rho", 1000.0, "--model", model, "--out-dir", tmp_path]
    assert run(argv) == 0
    assert json.loads((tmp_path / "schedule.json").read_text())["trades"] == [50000.0, 50000.0]


def test_tabulated_shape_through_cli(tmp_path, capsys):
    csv = tmp_path / "shape.csv"
    csv.write_text("offset,density\n-40,5000\n40,5000\n")
    assert run(["solve", "--shape", "tabulated", "--csv-path", csv, "--out-dir", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "10222.9" in out  # constant density == block


@pytest.mark.parametrize("rows", ["-40,5000\n0,inf\n40,5000", "-40,5000\n0,5000\n40,nan",
                                  "-40,5000\n0,5000\ninf,5000"],
                         ids=["inf-density", "nan-density", "inf-offset"])
def test_tabulated_csv_with_a_non_finite_row_is_exit_2(tmp_path, rows):
    # an inf density solved to a numeric failure (exit 3) on maps that
    # were NaN everywhere: a table must be finite, a bad parameter
    csv = tmp_path / "shape.csv"
    csv.write_text("offset,density\n" + rows + "\n")
    assert run(["solve", "--shape", "tabulated", "--csv-path", csv, "--out-dir", tmp_path]) == 2


def test_solve_model2_matches_model1_on_block(tmp_path):
    assert run(["solve", "--model", 2, "--out-dir", tmp_path]) == 0
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["trades"][0] == pytest.approx(FIG3_XI0, rel=1e-9)
    assert payload["model"] == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "lobexec", "solve", "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    payload = json.loads((tmp_path / "schedule.json").read_text())
    assert payload["trades"][0] == pytest.approx(FIG3_XI0, rel=1e-15)


BAD_SCHEDULES = {
    "not JSON": "{not json",
    "an array": "[1, 2]",
    "no trades": "{}",
    "a trade not a number": json.dumps({"trades": [1, "a"]}),
    "config not an object": json.dumps({"trades": [5e4, 5e4], "config": 5}),
    "shape not an object": json.dumps({"trades": [5e4, 5e4], "config": {"shape": 3}}),
}


@pytest.mark.parametrize("text", BAD_SCHEDULES.values(), ids=BAD_SCHEDULES.keys())
def test_replay_refuses_a_malformed_schedule_with_a_reason(tmp_path, capsys, text):
    path = tmp_path / "schedule.json"
    path.write_text(text)
    assert run(["replay", "--schedule", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameter: ") and "Traceback" not in err


def test_replay_refuses_an_unknown_key_in_the_embedded_config(tmp_path, capsys):
    # the embedded config merges by the --config file's rules
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"trades": [5e4, 5e4], "config": {"n": 1, "x_total": 1.0}}))
    assert run(["replay", "--schedule", path]) == 2
    assert "unknown config key 'x_total'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["abc", 2.5, -1], ids=repr)
def test_oracle_check_refuses_a_seed_that_is_not_a_count(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": seed}))
    assert run(["oracle-check", "--config", cfg, "--starts", 3]) == 2
    err = capsys.readouterr().err
    assert "seed must be an integer >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--config", "--csv-path"])
def test_a_directory_for_an_input_file_is_a_usage_error(tmp_path, capsys, flag):
    argv = ["solve", flag, tmp_path, "--out-dir", tmp_path]
    if flag == "--csv-path":
        argv += ["--shape", "tabulated"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_a_csv_path_that_is_not_a_string_is_refused(tmp_path, capsys):
    # open(5) would read file descriptor 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": {"kind": "tabulated", "csv_path": 5}}))
    assert run(["solve", "--config", cfg, "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "csv_path" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--x0", "inf"],
    ["solve", "--x0", "1e-320"],
    ["sweep", "--x0", "inf", "--alphas", "0"],
    ["solve", "--config", "{tmp}/cfg.json"],
], ids=["solve inf", "solve 1e-320", "sweep inf", "config 1e400"])
def test_a_size_that_breaks_the_root_bracket_is_refused(tmp_path, capsys, argv):
    (tmp_path / "cfg.json").write_text('{"x0": 1e400}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv + ["--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameter: ") and "Traceback" not in err
    assert "x0" in err or "total size" in err
    assert not (tmp_path / "schedule.json").exists()


@pytest.mark.parametrize("x0", ["1e308", "1e200"])
def test_solve_refuses_a_schedule_whose_cost_is_not_finite(tmp_path, capsys, x0):
    # the block premium overflows: the cost read nan, and solve exited 0
    # (at 1e308 the validator's scan first ran out to inf, and numpy warned)
    assert run(["solve", "--x0", x0, "--out-dir", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "not finite" in err and "Traceback" not in err
    assert not (tmp_path / "schedule.json").exists()


@pytest.mark.parametrize("trades,n", [([1e200 / 11] * 11, 10), ([1e200, -math.exp(-20.0) * 1e200], 1)],
                         ids=["nan", "inf - inf"])
def test_replay_refuses_a_schedule_whose_cost_is_not_finite(tmp_path, capsys, trades, n):
    # the report would carry NaN and Infinity, which is not JSON; selling
    # back what decayed from an overflowed buy leaves one node's premium
    # difference inf and the next one's -inf, where math.fsum raised
    # ValueError, a traceback
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"trades": trades, "config": {"x0": math.fsum(trades), "n": n}}))
    report = tmp_path / "report.json"
    assert run(["replay", "--schedule", schedule, "--report", report]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "not finite" in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("x0", ["1e308", "1e200"])
def test_sweep_marks_a_cost_that_is_not_finite_numeric(tmp_path, capsys, x0):
    # the rows read "nan,ok"; power alpha = -2 still overflows nowhere at 1e200
    assert run(["sweep", "--x0", x0, "--alphas", "-2,0", "--models", "1,2", "--out-dir", tmp_path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    status = {tuple(row.split(",")[:2]): row.split(",")[-1] for row in rows}
    assert status[("0.0", "1")] == status[("0.0", "2")] == "numeric"
    if x0 == "1e200":
        assert status[("-2.0", "1")] == status[("-2.0", "2")] == "ok"
    assert not any("nan" in row or "inf" in row for row in rows)
    assert "alpha=0.0 model=1: numeric failure: the cost is nan" in capsys.readouterr().err


def test_sweep_marks_a_cost_whose_fsum_overflows_numeric(tmp_path, capsys):
    # on a book this thin the block rows' premiums are finite, but their
    # fsum overflows: OverflowError stopped the sweep after 6 of 12 rows
    # (exit 3); the rows read numeric and the sweep finishes
    assert run(["sweep", "--q", "1e-300", "--out-dir", tmp_path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 12
    status = {tuple(row.split(",")[:2]): row.split(",")[-1] for row in rows}
    assert status[("0.0", "1")] == status[("0.0", "2")] == "numeric"
    assert "alpha=0.0 model=1: numeric failure: intermediate overflow in fsum" in capsys.readouterr().err


# the log law's offset overflows inside model 2's scan at x0 = 1e200: the
# scan read it as h2_not_injective at offset inf, a refused precondition
# (exit 2), where model 1 on the same book says offset_not_finite (exit 3)


def test_solve_calls_an_offset_overflow_under_model_2_numeric(tmp_path, capsys):
    argv = ["solve", "--shape", "power", "--alpha", "1", "--model", "2", "--x0", "1e200"]
    assert run(argv + ["--out-dir", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: offset overflows at volume ") and "Traceback" not in err
    assert not (tmp_path / "schedule.json").exists()


def test_sweep_marks_an_offset_overflow_under_model_2_numeric(tmp_path):
    assert run(["sweep", "--x0", "1e200", "--alphas", "1", "--models", "2", "--out-dir", tmp_path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[1].split(",") == ["1.0", "2", "", "", "", "", "numeric"]


# ---------------------------------------------------------------------------
# generated flags and configs: a reason and an exit code, never a traceback
# ---------------------------------------------------------------------------

ODD_NUMBERS = [math.inf, -math.inf, math.nan, 5e-324, 1e-310, 1e308, -1e308, 0.0, -0.0, -1.0]
NUMBERS = st.one_of(st.sampled_from(ODD_NUMBERS), st.floats(-1e6, 1e6), st.integers(-3, 12))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5,
)
VALUES = st.one_of(NUMBERS, JSON_VALUES)
# a step count stays small, or is not a count at all: the commands hold
# O(N) lists, and N = 1e9 would be a test of the machine's memory
COUNTS = st.one_of(st.integers(-1, 12), st.sampled_from([2.5, math.nan, math.inf, "10", [10], None, True]))
KINDS = ["block", "power", "sqrt", "piecewise-ce", "tabulated"]
SHAPE_CONFIGS = st.one_of(VALUES, st.fixed_dictionaries({}, optional={
    "kind": st.one_of(st.sampled_from(KINDS), VALUES),
    "q": VALUES, "alpha": VALUES, "mu": VALUES, "n": COUNTS, "csv_path": VALUES, "depth": VALUES,
}))
CONFIGS = st.one_of(VALUES, st.fixed_dictionaries({}, optional={
    "x0": VALUES, "t": VALUES, "n": COUNTS, "rho": VALUES,
    "model": st.one_of(st.sampled_from([1, 2, 3, 2.0]), VALUES),
    "a0": VALUES, "seed": st.one_of(st.integers(-1, 3), VALUES), "shape": SHAPE_CONFIGS,
    "x_total": VALUES,
}))
FLAG_VALUES_DRAWN = {
    **{flag: NUMBERS.map(str) for flag in ["--x0", "--t", "--rho", "--a0", "--q", "--alpha", "--mu"]},
    "--n": st.sampled_from(["1", "3", "10", "0", "2.5", "x"]),
    "--model": st.sampled_from(["1", "2", "3"]),
    "--shape": st.sampled_from(KINDS),
    "--seed": st.sampled_from(["0", "7", "-1"]),
}
# the drawn flags each command reads; every command takes --config, and
# solve, sweep and ow-compare take --out-dir
BOOK_AND_MARKET = ["--shape", "--q", "--alpha", "--mu", "--x0", "--t", "--n", "--rho", "--model"]
DEPTH_AND_MARKET = ["--q", "--x0", "--t", "--n", "--rho"]
COMMAND_FLAGS = {
    "solve": BOOK_AND_MARKET + ["--a0"],
    "replay": BOOK_AND_MARKET + ["--a0"],
    "sweep": DEPTH_AND_MARKET,
    "oracle-check": BOOK_AND_MARKET + ["--seed"],
    "ow-compare": DEPTH_AND_MARKET,
}
TAKES_OUT_DIR = {"solve", "sweep", "ow-compare"}
NUMBER_LISTS = st.lists(NUMBERS, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
EXTRAS = {
    "solve": st.just([]),
    "replay": st.just([]),
    "sweep": st.tuples(NUMBER_LISTS, st.sampled_from(["1", "2", "1,2"])).map(
        lambda t: ["--alphas", t[0], "--models", t[1]]),
    "oracle-check": st.tuples(st.sampled_from(["0", "1", "2"]), st.booleans()).map(
        lambda t: ["--starts", t[0]] + ["--force"] * t[1]),
    "ow-compare": NUMBER_LISTS.map(lambda s: ["--lambdas", s]),
}


def _promised_files(command, out: Path, argv):
    """The files a command that exits 0 has written."""
    if command == "solve":
        return [out / "schedule.csv", out / "schedule.json"]
    if command == "replay":
        return [out / "trajectory.csv", out / "report.json"]
    if command == "sweep":
        return [out / "sweep.csv"]
    if command == "ow-compare":
        count = len([s for s in argv[argv.index("--lambdas") + 1].split(",") if s.strip()])
        return [out / "ow_compare.csv"] + [out / f"ow_coeffs_lambda{i}.csv" for i in range(count)]
    return []


class _Draws:
    """Stands in for st.data() in an @example: hands out the given draws
    in the order the test makes them."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def draw(self, strategy):
        return next(self._draws)

    def __repr__(self):
        return "_Draws(...)"


# draws that failed: a scan range out to 2 x0 = inf made numpy warn, an
# overflowing cost was a success, and on a book so deep that its gradient
# is subnormal the descent's first step overflowed to inf. The draws are
# the flags, the extra arguments, the replay trades and the no-stray-flag
# integer
@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(command=st.sampled_from(list(EXTRAS)), config=st.one_of(st.none(), CONFIGS), data=st.data())
@example(command="solve", config=None, data=_Draws([["--x0", "1e+308"]], [], [], 1))
@example(command="sweep", config=None,
         data=_Draws([["--x0", "1e+308"]], ["--alphas", "0", "--models", "1,2"], [], 1))
@example(command="oracle-check", config=None, data=_Draws([["--x0", "1e+308"]], ["--starts", "1"], [], 1))
@example(command="oracle-check", config=None,
         data=_Draws([["--q", "1e+308"], ["--n", "3"]], ["--starts", "1"], [], 1))
def test_generated_flags_and_configs_end_in_an_exit_code(command, config, data):
    flags = data.draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]).flatmap(
        lambda flag: FLAG_VALUES_DRAWN[flag].map(lambda value: [flag, value])), max_size=4))
    extra = data.draw(EXTRAS[command])
    trades = data.draw(st.lists(st.one_of(st.just(1e5 / 11), NUMBERS, st.text(max_size=2)), max_size=12))
    # now and then a flag the command does not take, which is a usage error
    foreign = [flag for flag in FLAG_VALUES_DRAWN if flag not in COMMAND_FLAGS[command]]
    foreign += [] if command in TAKES_OUT_DIR else ["--out-dir"]
    stray = data.draw(st.sampled_from(foreign)) if data.draw(st.integers(0, 4)) == 0 else None
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        argv = [command] + (["--out-dir", str(out)] if command in TAKES_OUT_DIR else [])
        argv += [s for pair in flags for s in pair] + extra
        if stray is not None:
            argv += [stray, "1"]
        if config is not None:
            (Path(work) / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(work) / "cfg.json")]
        if command == "replay":
            schedule = Path(work) / "schedule.json"
            schedule.write_text(json.dumps({"trades": trades, "config": data.draw(CONFIGS)}))
            argv += ["--schedule", str(schedule), "--trajectory", str(out / "trajectory.csv"),
                     "--report", str(out / "report.json")]
            out.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in ({1} if stray is not None else {0, 1, 2, 3, 4}), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            for path in _promised_files(command, out, argv):
                assert path.is_file(), (argv, path)
