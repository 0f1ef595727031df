"""The benchmark's own tests: each check accepts lobexec's outputs and
rejects a wrong one, the reference formulas are right on their own, and
the speed gauge reads and scales as gauge.py says.

    python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gauge  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from lobexec import solver  # noqa: E402
from tracing import Tracer  # noqa: E402

BOOKS = [ref.RefBlock(wl.Q), ref.RefPower(wl.Q, -2.0), ref.RefPower(wl.Q, 0.5),
         ref.RefPower(wl.Q, 1.0), ref.RefPower(wl.Q, 2.0), ref.RefSqrt(wl.Q, wl.MU),
         ref.RefTable(*wl.table())]


def case(label):
    cases = {c.label: c for c in wl.solve_small_cases() + wl.certify_cases()}
    return cases[label]


def solved(c):
    return list(wl.solve_op(c))


# -- the reference formulas, against their definitions -------------------------


@pytest.mark.parametrize("book", BOOKS, ids=lambda b: type(b).__name__)
def test_reference_book_is_consistent(book):
    for x in (1e-3, 0.7, 3.0, 19.0):
        assert book.inverse_depth(book.depth(x)) == pytest.approx(x, rel=1e-12)
        # F' = f and P' = x f, so P'(x) = x F'(x)
        h = 1e-6 * x
        dF = (book.depth(x + h) - book.depth(x - h)) / (2 * h)
        dP = (book.premium(x + h) - book.premium(x - h)) / (2 * h)
        assert dP == pytest.approx(x * dF, rel=1e-6)


def test_reference_table_matches_its_knots():
    offsets, dens = wl.table()
    book = ref.RefTable(offsets, dens)
    # the interpolant's depth is the trapezoid sum over the knots
    positive = dens[offsets >= 0.0]
    trapezoids = math.fsum(0.5 * (positive[:-1] + positive[1:]))
    assert book.depth(200.0) == pytest.approx(trapezoids, rel=1e-12)
    h = 1e-7
    assert (book.depth(5.0 + h) - book.depth(5.0 - h)) / (2 * h) == pytest.approx(
        wl.Q / math.sqrt(6.0), rel=1e-6)


def test_sqrt_closed_form_reduces_to_block():
    m = ref.Market(wl.X0, wl.T, 10, wl.RHO, 1)
    block = wl.X0 / (9 * m.one_minus_a + 2.0)
    assert ref.sqrt_xi0(wl.Q, 1e-12, m) == pytest.approx(block, rel=1e-9)


# -- every check accepts lobexec's output ...------------------------------------


@pytest.mark.parametrize("label", ["block/N10/m1", "power-2/N100/m2", "power1/N10/m2",
                                   "sqrt/N100/m1", "tabulated/N10/m2"])
def test_checks_accept_solver_output(label):
    c = case(label)
    wl.solve_check(c, solved(c))


# -- ... and rejects a wrong one --------------------------------------------------


def test_rejects_perturbed_schedule():
    c = case("power0.5/N10/m1")
    trades = solved(c)
    trades[0] += 1e-6 * wl.X0
    trades[1] -= 1e-6 * wl.X0
    with pytest.raises(ref.CheckFailed, match="changes the cost"):
        ref.check_first_order(c.market(), c.book, trades)
    with pytest.raises(ref.CheckFailed):
        wl.solve_check(c, trades)


def test_rejects_trades_not_summing_to_x0():
    c = case("sqrt/N10/m2")
    trades = solved(c)
    trades[-1] *= 1.0 + 1e-6
    with pytest.raises(ref.CheckFailed, match="sum to"):
        wl.solve_check(c, trades)


def test_rejects_non_positive_trade():
    c = case("block/N10/m1")
    trades = solved(c)
    trades[3], trades[4] = 0.0, trades[3] + trades[4]
    with pytest.raises(ref.CheckFailed, match="not positive"):
        wl.solve_check(c, trades)


def test_rejects_broken_constant_state():
    c = case("power-2/N10/m2")
    trades = solved(c)
    trades[4] += 1.0
    trades[5] -= 1.0
    with pytest.raises(ref.CheckFailed, match="interior state"):
        ref.check_constant_state(c.market(), c.book, trades)


def test_rejects_wrong_closed_forms():
    c = case("block/N10/m2")
    uniform = [wl.X0 / 11] * 11
    with pytest.raises(ref.CheckFailed, match="block schedule"):
        ref.check_block(c.market(), uniform)
    s = case("sqrt/N10/m1")
    trades = solved(s)
    trades[0] *= 1.0 + 1e-6
    with pytest.raises(ref.CheckFailed, match="first trade"):
        ref.check_sqrt_xi0(s.market(), wl.Q, wl.MU, trades)


def test_rejects_referee_disagreement():
    c = case("power-1/N10/m1")
    trades = solved(c)
    off = list(trades)
    off[0] += 2e-5 * wl.X0
    off[-1] -= 2e-5 * wl.X0
    with pytest.raises(ref.CheckFailed, match="descent lands"):
        ref.check_certificate(c.market(), c.book, trades, off)
    with pytest.raises(ref.CheckFailed, match="lattice minimum"):
        ref.check_lattice([1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 2 * wl.LATTICE_RESOLUTION],
                          wl.LATTICE_RESOLUTION)


# -- command outputs ----------------------------------------------------------


def test_rejects_command_that_wrote_nothing(tmp_path):
    # `python -m lobexec.cli` exits 0 without running anything: the module
    # has no __main__ guard, so only the files show that nothing happened
    out = tmp_path / "solve"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "lobexec.cli", "solve", "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    with pytest.raises(ref.CheckFailed, match="was not written"):
        ref.check_schedule_files(out, ref.Market(wl.X0, wl.T, 10, wl.RHO, 1), ref.RefBlock(wl.Q))


def test_cli_commands_pass_and_tampered_files_fail(tmp_path):
    commands = {c.name: c for c in wl.cli_commands(tmp_path)}
    for name in ("solve-power", "solve-sqrt", "replay", "sweep", "oracle-check"):
        cmd = commands[name]
        wl.cli_prepare(tmp_path, cmd)
        code, stdout = wl.cli_run_inprocess(cmd)
        assert code == 0
        wl.cli_check(tmp_path, cmd, stdout)
        if name == "oracle-check":
            with pytest.raises(ref.CheckFailed):
                wl.cli_check(tmp_path, cmd, stdout.replace("agrees", "differs"))

    report = tmp_path / "replay" / "report.json"
    payload = json.loads(report.read_text())
    payload["total"] *= 1.0 + 1e-6
    report.write_text(json.dumps(payload))
    with pytest.raises(ref.CheckFailed, match="report total"):
        wl.cli_check(tmp_path, commands["replay"], "")

    sweep = tmp_path / "sweep" / "sweep.csv"
    lines = sweep.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:2] + ["", "", "", "", "precondition"])
    sweep.write_text("\n".join(lines) + "\n")
    with pytest.raises(ref.CheckFailed, match="precondition"):
        wl.cli_check(tmp_path, commands["sweep"], "")

    sched = tmp_path / "solve-power" / "schedule.csv"
    rows = sched.read_text().splitlines()
    rows[2] = "1,1.0"
    sched.write_text("\n".join(rows) + "\n")
    with pytest.raises(ref.CheckFailed):
        wl.cli_check(tmp_path, commands["solve-power"], "")


def test_cli_order_keeps_replay_after_its_solve():
    import random
    commands = wl.cli_commands(Path("w"))
    rng = random.Random(0)
    for _ in range(50):
        names = [commands[i].name for i in wl.cli_order(commands, rng)]
        assert sorted(names) == sorted(c.name for c in commands)
        assert names.index("solve-sqrt") < names.index("replay")


# -- tracing ------------------------------------------------------------------


def test_tracer_counts_and_restores():
    original = solver.validate_model2
    c = case("power0.5/N10/m2")
    layers = Tracer().install()
    try:
        layers.op_call(0, wl.solve_op, c)
    finally:
        layers.remove()
    assert solver.validate_model2 is original
    m = layers.metrics(attempted=1, passes=1)
    assert m["shapes.validate_ms"][0] > 0.0 and m["costs.certificate_ms"][0] > 0.0
    assert m["numerics.root_evals"][0] > 2
    assert m["solver.self_ms"][0] > 0.0
    prims = Tracer().install(primitives=True)
    try:
        wl.solve_op(c)
    finally:
        prims.remove()
    p = prims.primitive_metrics(attempted=1)
    assert p["shapes.primitive_calls"][0] > 1000
    assert p["shapes.primitive_us.power"][0] > 0.0 and p["shapes.primitive_us.block"][0] == 0.0


def test_scipy_share_of_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       300 |        450 |     scipy",
        "import time:       200 |        200 |       scipy.optimize._x",
        "import time:       400 |        600 |     scipy.optimize",
        "import time:        10 |       1060 |   lobexec.numerics",
        "import time:        20 |       1080 | lobexec",
    ])
    assert run.scipy_import_ms(text) == pytest.approx(1.05)


def test_gauge_factor_uses_readings_inside_and_beside_the_timing():
    g = gauge.Gauge(lambda: 0.0, nominal=1.0)
    g.readings = [(1.0, 2.0), (2.0, 4.0), (3.0, 1.0), (4.0, 8.0), (5.0, 16.0)]
    # [2.5, 3.5] holds the reading at 3.0; its neighbours are 2.0 and 4.0
    assert g.factor(2.5, 3.5) == pytest.approx(1.0 / ((4.0 + 1.0 + 8.0) / 3))
    # a timing between two readings takes the two
    assert g.factor(1.2, 1.8) == pytest.approx(1.0 / 3.0)
    # before the first reading or after the last: the one nearest
    assert g.factor(0.1, 0.2) == pytest.approx(1.0 / 2.0)
    assert g.factor(6.0, 7.0) == pytest.approx(1.0 / 16.0)


def test_sampler_reads_inside_a_long_operation_and_stops():
    g = gauge.Gauge(gauge.read_inprocess, gauge.INPROCESS_NOMINAL_S)
    with gauge.Sampler(g, every=0.02):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert sum(t0 < t < t1 for t, _ in g.readings) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < g.spent < 0.3
