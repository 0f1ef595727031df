"""The four workloads: their case lists, one operation each, and its check.

All cases use the Figure-3 market of the paper: buy x0 = 1e5 shares on
[0, T = 1] with resilience rho = 20 against books of depth scale
q = 5000. A case holds the lobexec inputs and, apart from them, the
reference book the checks replay it on.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lobexec import MarketParams, Resilience, cli, oracle, shapes, solver

import reference as ref

X0, Q, RHO, T = 1e5, 5000.0, 20.0, 1.0
MU = 1.0
ALPHAS_SOLVE = (-2.0, -1.0, 0.5, 1.0)
ALPHAS_CERTIFY = (-2.0, -1.0, 0.0, 0.5, 1.0)
LATTICE_RESOLUTION = X0 / 200
SWEEP_ALPHAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)  # the defaults of `lobexec sweep`


def table():
    """401 knots of 5000/sqrt(1+|x|) on [-200, 200]; it covers 1.32e5 shares a side."""
    offsets = np.arange(-200.0, 201.0)
    return offsets, Q / np.sqrt(1.0 + np.abs(offsets))


@dataclass
class Case:
    label: str
    shape: object          # the lobexec shape
    book: object           # the reference shape the checks use
    steps: int
    model: int
    check: dict = field(default_factory=dict)

    def params(self, steps=None):
        return MarketParams(x0=X0, horizon=T, steps=steps or self.steps, rho=RHO,
                            mode=Resilience(self.model))

    def market(self, steps=None):
        return ref.Market(X0, T, steps or self.steps, RHO, self.model)


def _families(alphas, sqrt=True):
    out = [("block", shapes.BlockShape(Q), ref.RefBlock(Q), {"block": True})]
    out += [(f"power{al:g}", shapes.PowerLawShape(Q, al), ref.RefPower(Q, al),
             {"block": al == 0.0}) for al in alphas]
    if sqrt:
        out.append(("sqrt", shapes.SqrtShape(Q, MU), ref.RefSqrt(Q, MU), {"sqrt": (Q, MU)}))
    return out


def _cases(families, steps, skip=()):
    return [Case(f"{label}/N{steps}/m{model}", shape, book, steps, model, check)
            for label, shape, book, check in families
            for model in (1, 2)
            if (label, model) not in skip]


# ---------------------------------------------------------------------------
# solve-small and solve-large: one validated solve
# ---------------------------------------------------------------------------


def solve_small_cases():
    fams = _families(ALPHAS_SOLVE)
    offsets, dens = table()
    tab = [("tabulated", shapes.TabulatedShape(offsets, dens), ref.RefTable(offsets, dens), {})]
    return _cases(fams, 10) + _cases(fams, 100) + _cases(tab, 10)


def solve_large_cases():
    # power alpha = 1 under model 2 is refused at large N (a false rejection)
    return _cases(_families(ALPHAS_SOLVE), 10_000, skip={("power1", 2)})


def solve_op(case):
    return solver.solve(case.params(), case.shape).trades


def solve_check(case, trades):
    ref.check_schedule(case.market(), case.book, trades, **case.check)


# ---------------------------------------------------------------------------
# certify: the solver against both referees, as acceptance criterion 3
# ---------------------------------------------------------------------------


def certify_cases():
    return _cases(_families(ALPHAS_CERTIFY, sqrt=False), 10)


def certify_op(case):
    p10, p2 = case.params(), case.params(steps=2)
    solved = solver.solve(p10, case.shape).trades
    descent = oracle.minimize_cost(p10, case.shape, starts=8, seed=0).best_strategy.trades
    solved2 = solver.solve(p2, case.shape).trades
    lattice = oracle.grid_search(p2, case.shape, LATTICE_RESOLUTION).best_strategy.trades
    return solved, descent, solved2, lattice


def certify_check(case, out):
    solved, descent, solved2, lattice = out
    ref.check_schedule(case.market(), case.book, solved, **case.check)
    ref.check_certificate(case.market(), case.book, solved, descent)
    ref.check_schedule(case.market(steps=2), case.book, solved2, **case.check)
    ref.check_lattice(solved2, lattice, LATTICE_RESOLUTION)


# ---------------------------------------------------------------------------
# cli: one command in a fresh interpreter
# ---------------------------------------------------------------------------


CLI_LAUNCH = ("import sys; from lobexec.cli import console_main; "
              "sys.argv[0] = 'lobexec'; console_main()")


@dataclass
class Command:
    label: str       # the subcommand
    name: str        # unique among the commands
    args: list


def cli_commands(work: Path):
    d = {n: work / n for n in ("solve-power", "solve-sqrt", "replay", "sweep", "oracle-check")}
    return [
        Command("solve", "solve-power",
                ["solve", "--shape", "power", "--alpha", "1", "--out-dir", str(d["solve-power"])]),
        Command("solve", "solve-sqrt",
                ["solve", "--shape", "sqrt", "--model", "2", "--out-dir", str(d["solve-sqrt"])]),
        Command("replay", "replay",
                ["replay", "--schedule", str(d["solve-sqrt"] / "schedule.json"),
                 "--trajectory", str(d["replay"] / "trajectory.csv"),
                 "--report", str(d["replay"] / "report.json")]),
        Command("sweep", "sweep", ["sweep", "--out-dir", str(d["sweep"])]),
        Command("oracle-check", "oracle-check", ["oracle-check", "--n", "4"]),
    ]


def cli_order(commands, rng):
    """A shuffled order in which the replay still follows the solve it reads."""
    order = list(range(len(commands)))
    rng.shuffle(order)
    names = [commands[i].name for i in order]
    i, j = names.index("solve-sqrt"), names.index("replay")
    if j < i:
        order[i], order[j] = order[j], order[i]
    return order


def cli_prepare(work: Path, cmd: Command) -> None:
    """Empty the command's output directory, so stale files cannot pass."""
    out = work / cmd.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def cli_run_child(cmd: Command, env, log: Path):
    """Run one command in a fresh interpreter; (exit code, stdout, peak RSS in kB)."""
    with open(log, "w+b") as out:
        proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCH, *cmd.args],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return proc.returncode, text, usage.ru_maxrss


def cli_run_inprocess(cmd: Command):
    """Run one command through lobexec.cli.main in this process; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cmd.args)
    return code, buf.getvalue()


def cli_check(work: Path, cmd: Command, stdout: str) -> None:
    market1 = ref.Market(X0, T, 10, RHO, 1)
    market2 = ref.Market(X0, T, 10, RHO, 2)
    out = work / cmd.name
    if cmd.name == "solve-power":
        ref.check_schedule_files(out, market1, ref.RefPower(Q, 1.0))
    elif cmd.name == "solve-sqrt":
        ref.check_schedule_files(out, market2, ref.RefSqrt(Q, MU))
    elif cmd.name == "replay":
        trades = ref.read_schedule_files(work / "solve-sqrt")
        ref.check_replay_files(out / "trajectory.csv", out / "report.json",
                               market2, ref.RefSqrt(Q, MU), trades)
    elif cmd.name == "sweep":
        ref.check_sweep_file(out / "sweep.csv", Q, SWEEP_ALPHAS, (1, 2),
                             lambda m: ref.Market(X0, T, 10, RHO, m))
    else:
        ref.check_oracle_output(stdout, X0)
