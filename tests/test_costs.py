"""Cost functionals against longhand sums and finite differences.

The N=1 case is written out by hand so the replay-based evaluation is
checked against something that never touches the dynamics module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobexec import (
    BlockShape,
    CounterexampleShape,
    InvalidParam,
    MarketParams,
    PowerLawShape,
    Resilience,
    SqrtShape,
    Strategy,
    TabulatedShape,
    analytic_gradient,
    cost_and_gradient,
    cost_report,
    gradient_check,
    impact_cost,
    impact_costs,
    lagrange_residual,
    solve,
    solve_block,
    replay,
)
from lobexec.costs import CostReport, as_trades, premium_steps
from lobexec.dynamics import TrajectoryPoint, equal_run, expand, node_states, walk
from lobexec.errors import OutOfDomain
from lobexec.oracle import _safe_cost
from lobexec.ow import ow_cost
from lobexec.shapes import Shape
from reference_models import SimplifiedState, apply_order, decay, impact_cost_gform, order_cost

Q = 5000.0


def test_order_cost_block_by_hand():
    b = BlockShape(Q)
    # buy 100 into a fresh book: premium = 100^2/(2q) = 1.0
    assert order_cost(b, 0.0, 100.0 / Q) == pytest.approx(1.0)
    # same trade with a0=10 adds 10*100
    assert order_cost(b, 0.0, 100.0 / Q, a0=10.0) == pytest.approx(1001.0)


def test_two_trade_cost_longhand():
    """N=1, block shape, volume mode: cost = G(x0) + G(a x0 + x1) - G(a x0)
    with G(y) = y^2/(2q). Computed without the library's replay."""
    b = BlockShape(Q)
    p = MarketParams(x0=3000.0, horizon=1.0, steps=1, rho=20.0)
    a = math.exp(-20.0)
    x0, x1 = 1800.0, 1200.0
    G = lambda y: y * y / (2 * Q)
    want = G(x0) + G(a * x0 + x1) - G(a * x0)
    assert impact_cost(p, b, (x0, x1)) == pytest.approx(want, rel=1e-14)


def test_two_trade_cost_longhand_spread_mode():
    """Same book, spread recovery: the remembered volume after decay is
    F(a F^-1(E)), which equals a*E only on the block."""
    sh = PowerLawShape(Q, 1.0)
    p = MarketParams(x0=3000.0, horizon=1.0, steps=1, rho=2.0, mode=Resilience.SPREAD)
    a = math.exp(-2.0)
    x0, x1 = 1800.0, 1200.0
    F = lambda x: Q * math.log1p(x)
    Finv = lambda y: math.expm1(y / Q)
    Ft = lambda x: Q * (x - math.log1p(x))
    G = lambda y: Ft(Finv(y))
    e1 = F(a * Finv(x0))
    want = G(x0) + G(e1 + x1) - G(e1)
    assert impact_cost(p, sh, (x0, x1)) == pytest.approx(want, rel=1e-12)


SHAPES = [BlockShape(Q), PowerLawShape(Q, 1.0), PowerLawShape(Q, -2.0), SqrtShape(Q, 2.0)]


@pytest.mark.parametrize("shape", SHAPES, ids=[s.name for s in SHAPES])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_impact_cost_two_forms_agree(shape, mode):
    p = MarketParams(x0=10_000.0, horizon=1.0, steps=6, rho=8.0, mode=mode)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.dirichlet(np.ones(7)) * p.x0
        c1 = impact_cost(p, shape, x)
        c2 = impact_cost_gform(p, shape, x)
        assert c1 == pytest.approx(c2, rel=1e-11)


def test_cost_defined_off_the_constraint(fig3_params, block):
    # the optimizers probe infeasible vectors; the functional must not throw
    x = [20000.0] * 5 + [-1000.0] + [500.0] * 5
    c = impact_cost(fig3_params, block, x)
    assert math.isfinite(c)


def test_vanishing_resilience_telescopes():
    # rho ~ 0: nothing recovers, any split of X0 costs G(X0)
    b = BlockShape(Q)
    p = MarketParams(x0=40_000.0, horizon=1.0, steps=5, rho=1e-12)
    G = lambda y: y * y / (2 * Q)
    for x in ([40000, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 40000], [10000, 5000, 5000, 5000, 5000, 10000]):
        assert impact_cost(p, b, [float(v) for v in x]) == pytest.approx(G(40_000.0), rel=1e-9)


def test_cost_report_consistency(fig3_params, block):
    sched = solve_block(fig3_params, Q)
    rep = cost_report(fig3_params, block, sched.strategy, a0=2.0)
    assert rep.total == pytest.approx(rep.base_term + rep.impact_term, rel=1e-14)
    assert rep.base_term == pytest.approx(2.0 * fig3_params.x0, rel=1e-14)
    assert math.fsum(rep.per_trade) == pytest.approx(rep.total, rel=1e-12)
    assert rep.lagrange_residual <= 1e-6 * abs(rep.impact_term)
    d = rep.to_dict()
    assert set(d) == {"total", "base_term", "impact_term", "per_trade", "lagrange_residual"}


@pytest.mark.parametrize("a0", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_price_that_is_not_finite_is_refused(fig3_params, block, a0):
    trades = solve_block(fig3_params, Q).trades
    with pytest.raises(InvalidParam, match="a0 must be finite"):
        cost_report(fig3_params, block, trades, a0=a0)
    with pytest.raises(InvalidParam, match="a0 must be finite"):
        ow_cost(Q, 0.0, fig3_params, trades, a0=a0)


def test_cost_report_dict_keeps_its_key_order(fig3_params, block):
    """report.json writes the keys in this order."""
    rep = cost_report(fig3_params, block, solve_block(fig3_params, Q).strategy)
    assert list(rep.to_dict()) == ["total", "base_term", "impact_term", "per_trade", "lagrange_residual"]


# --- permanent-impact cost -------------------------------------------------


def test_ow_cost_reduces_to_impact_cost_at_lambda_zero(fig3_params):
    b = BlockShape(Q)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.dirichlet(np.ones(11)) * fig3_params.x0
        assert ow_cost(Q, 0.0, fig3_params, x) == pytest.approx(
            impact_cost(fig3_params, b, x), rel=1e-11
        )


def test_ow_cost_longhand_two_trades():
    # N=1: a0*X + lam/2 X^2 + kappa*a*x0*x1 + kappa/2 (x0^2+x1^2)
    lam = 5e-5
    kappa = 1 / Q - lam
    p = MarketParams(x0=3000.0, horizon=1.0, steps=1, rho=20.0)
    a = math.exp(-20.0)
    x0, x1 = 1800.0, 1200.0
    want = lam / 2 * 3000.0**2 + kappa * a * x0 * x1 + kappa / 2 * (x0**2 + x1**2)
    assert ow_cost(Q, lam, p, (x0, x1)) == pytest.approx(want, rel=1e-13)
    want10 = want + 10.0 * 3000.0
    assert ow_cost(Q, lam, p, (x0, x1), a0=10.0) == pytest.approx(want10, rel=1e-13)


def test_ow_cost_requires_positive_kappa(fig3_params):
    with pytest.raises(InvalidParam):
        ow_cost(Q, 1 / Q, fig3_params, [0.0] * 11)
    with pytest.raises(InvalidParam):
        ow_cost(Q, 2 / Q, fig3_params, [0.0] * 11)


# --- gradients --------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=[s.name for s in SHAPES])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_analytic_gradient_matches_finite_differences(shape, mode):
    p = MarketParams(x0=50_000.0, horizon=1.0, steps=8, rho=12.0, mode=mode)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.dirichlet(np.full(9, 4.0)) * p.x0
        assert gradient_check(p, shape, x) <= 1e-5


def test_gradient_is_constant_at_the_optimum(fig3_params, block):
    sched = solve_block(fig3_params, Q)
    g = analytic_gradient(fig3_params, block, sched.trades)
    assert np.ptp(g) <= 1e-9 * abs(g.mean())
    resid, mean = lagrange_residual(fig3_params, block, sched.trades)
    assert resid <= 1e-9 * abs(mean)


def test_gradient_not_constant_off_optimum(fig3_params, block):
    x = [fig3_params.x0 / 11.0] * 11  # uniform is not optimal here
    resid, mean = lagrange_residual(fig3_params, block, x)
    assert resid > 1e-3 * abs(mean)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_cost_grows_with_scale(alpha):
    # coercivity along rays: buying c*X0 with the same profile costs more
    sh = PowerLawShape(Q, alpha)
    p = MarketParams(x0=10_000.0, horizon=1.0, steps=4, rho=10.0)
    base = np.full(5, 2000.0)
    costs = [impact_cost(p, sh, c * base) for c in (1.0, 1.5, 2.0, 3.0)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_round_trip_not_free(fig3_params, block):
    # buy then sell nets zero shares but the premium paid is positive
    x = [10_000.0, -10_000.0] + [0.0] * 9
    assert impact_cost(fig3_params, block, x) > 0.0


# --- the batched cost -----------------------------------------------------


def _table_401():
    offsets = np.arange(-200.0, 201.0)
    return TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))


BATCH_SHAPES = [
    BlockShape(Q),
    PowerLawShape(Q, -2.0),
    PowerLawShape(Q, 0.5),
    PowerLawShape(Q, 1.0),
    PowerLawShape(Q, 1.5),
    SqrtShape(Q, 1.0),
    CounterexampleShape(3),
    _table_401(),
]
BATCH_IDS = [f"{s.name}{s.alpha if s.name == 'power' else ''}" for s in BATCH_SHAPES]


def _summed_size(p, shape, row):
    """Sum of the premiums impact_cost adds and subtracts: the size its
    rounding is relative to."""
    return math.fsum(
        abs(shape.premium(t.offset_post)) + abs(shape.premium(t.offset_pre))
        for t in replay(p, shape, row)
    )


def _row_battery(shape, mode):
    """(params, trades) at 1, 2 and 5 steps: 150 rows each, 30 of them far
    off the book: past the alpha = 1.5 saturation, the table's mass, or
    into overflow."""
    rng = np.random.default_rng(23)
    x0 = 4.0 if isinstance(shape, CounterexampleShape) else 1e5
    for steps in (1, 2, 5):
        p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
        x = rng.uniform(-0.5, 1.5, (150, steps + 1)) * x0
        x[:30] *= 10.0 ** rng.uniform(0.0, 300.0, (30, 1))
        yield p, x


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=BATCH_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_impact_costs_match_impact_cost_row_by_row(shape, mode):
    for p, x in _row_battery(shape, mode):
        got = impact_costs(p, shape, x)
        want = np.array([_safe_cost(p, shape, row) for row in x])
        assert got.shape == (150,)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert not np.isnan(got).any() and (got[np.isinf(got)] > 0).all()
        for g, w, row in zip(got, want, x):
            if math.isfinite(w):
                assert abs(g - w) <= 1e-14 * _summed_size(p, shape, row), row


def _impact_costs_by_offset(p, shape, x):
    """impact_costs as the batched walk ran under both models before it
    priced model 1 by volume: each node's offsets through offset_array,
    each priced by premium_array, the differences added in node order.
    Kept as the reference of the spread-recovery walk, which still runs so."""
    with np.errstate(all="ignore"):
        _, d_pre, _, d_post, _ = node_states(p, x.T, shape.volume_array, shape.offset_array)
        low = [shape.premium_array(d) for d in d_pre]
        sums = None
        for pre, post in zip(low, d_post):
            step = shape.premium_array(post)
            step -= pre
            sums = np.add(np.zeros(x.shape[0]), step, out=step) if sums is None else sums + step
    sums[~np.isfinite(sums)] = np.inf
    return sums


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=BATCH_IDS)
def test_the_spread_recovery_batched_walk_prices_offsets_as_it_did(shape):
    for p, x in _row_battery(shape, Resilience.SPREAD):
        assert impact_costs(p, shape, x).tobytes() == _impact_costs_by_offset(p, shape, x).tobytes()


BY_VOLUME_SHAPES = [BlockShape(Q), PowerLawShape(Q, -2.0), PowerLawShape(Q, 0.5),
                    PowerLawShape(Q, 1.0), SqrtShape(Q, 1.0)]
BY_VOLUME_IDS = ["block", "power-2.0", "power0.5", "power1.0", "sqrt"]


def _refuse_offset_array_and_premium_array(monkeypatch):
    """Make the signed offset and premium array maps raise, and return the
    list that each premium_by_volume_array call appends its size to."""
    def refuse(self, arg):
        raise AssertionError("the walk formed an offset array or priced one")

    calls, by_volume = [], Shape.premium_by_volume_array

    def count(self, y):
        calls.append(np.size(y))
        return by_volume(self, y)

    monkeypatch.setattr(Shape, "offset_array", refuse)
    monkeypatch.setattr(Shape, "premium_array", refuse)
    monkeypatch.setattr(Shape, "premium_by_volume_array", count)
    return calls


@pytest.mark.parametrize("shape", BY_VOLUME_SHAPES, ids=BY_VOLUME_IDS)
def test_the_volume_recovery_walk_prices_each_node_by_its_volume(shape, monkeypatch):
    # one premium_by_volume_array call per walked state: each node's
    # post-trade volume and each pre-trade volume after the first, which
    # decays from the one before. No offset array is formed or priced
    want = [impact_costs(p, shape, x) for p, x in _row_battery(shape, Resilience.VOLUME)]
    calls = _refuse_offset_array_and_premium_array(monkeypatch)
    for (p, x), w in zip(_row_battery(shape, Resilience.VOLUME), want):
        calls.clear()
        assert impact_costs(p, shape, x).tobytes() == w.tobytes()
        assert calls == [len(x)] * (2 * p.steps + 1)


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=BATCH_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_a_batched_walk_split_at_a_pre_trade_state_adds_the_same_floats(shape, mode):
    # the lattice walks the first trades once per prefix, on into the next
    # node's pre-trade state and the premium there, and each point goes on
    # from that state: its costs are impact_costs', bit for bit. The state
    # is (E, premium) under volume recovery, (E, D, premium) under spread
    rng = np.random.default_rng(31)
    x0 = 4.0 if isinstance(shape, CounterexampleShape) else 1e5
    for steps in (1, 2, 3):
        p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
        x = rng.uniform(-0.25, 1.25, (64, steps + 1)) * x0
        want = impact_costs(p, shape, x)
        for cut in range(steps + 2):
            head, state = premium_steps(p, shape, [*x[:, :cut].T, None], np.zeros(64))
            assert len(state) == (2 if mode is Resilience.VOLUME else 3)
            got, _ = premium_steps(p, shape, x[:, cut:].T, head, state)
            got = np.where(np.isfinite(got), got, np.inf)
            assert [v.hex() for v in got] == [v.hex() for v in want], cut
            # 8 prefixes, each shared by 8 rows: walked once, taken by row
            row = np.repeat(np.arange(8), 8)
            head, state = premium_steps(p, shape, [*x[::8, :cut].T, None], np.zeros(8))
            start = tuple(np.broadcast_to(v, 8)[row] for v in state)
            got, _ = premium_steps(p, shape, x[:, cut:].T, head[row], start)
            got = np.where(np.isfinite(got), got, np.inf)
            shared = impact_costs(p, shape, np.hstack([x[::8, :cut][row], x[:, cut:]]))
            assert [v.hex() for v in got] == [v.hex() for v in shared], cut



@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=BATCH_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_premium_steps_only_reads_its_sums_its_start_and_its_columns(shape, mode):
    # the walk adds into sums of its own: given read-only views as its
    # sums, its start and its columns, it walks as on writable copies
    rng = np.random.default_rng(37)
    p = MarketParams(x0=1e5, horizon=1.0, steps=2, rho=20.0, mode=mode)
    x = rng.uniform(-0.25, 1.25, (64, 3)) * 1e5
    x.flags.writeable = False
    for cut in range(4):
        head, state = premium_steps(p, shape, [*x[:, :cut].T, None], np.broadcast_to(0.0, 64))
        want_head, want_state = premium_steps(p, shape, [*np.array(x[:, :cut].T), None], np.zeros(64))
        assert head.tobytes() == want_head.tobytes(), cut
        for got, want in zip(state, want_state):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), cut
        start = tuple(np.broadcast_to(v, 64) for v in state)
        total = np.broadcast_to(head, 64)
        got, _ = premium_steps(p, shape, x[:, cut:].T, total, start)
        want, _ = premium_steps(p, shape, np.array(x[:, cut:].T), np.array(head),
                                tuple(np.array(np.broadcast_to(v, 64)) for v in state))
        assert got.tobytes() == want.tobytes(), cut
        if cut < 3:  # a walk that trades returns sums of its own
            assert not any(np.shares_memory(got, v) for v in (total, *start))
    assert impact_costs(p, shape, x).tobytes() == impact_costs(p, shape, np.array(x)).tobytes()


def test_impact_costs_rejects_a_wrong_width():
    p = MarketParams(x0=1e5, horizon=1.0, steps=2, rho=20.0)
    with pytest.raises(InvalidParam):
        impact_costs(p, BlockShape(Q), np.zeros((4, 2)))
    with pytest.raises(InvalidParam):
        impact_costs(p, BlockShape(Q), np.zeros(3))


# --- the walk against the replay forms it replaced --------------------------
#
# Until the certificate, the costs and replay shared one walk, each cost
# form replayed the schedule on its own through a SimplifiedState per
# step and a TrajectoryPoint per node. Those bodies are kept here
# verbatim as the reference; the walk must reproduce them bit for bit.


def _replay_by_states(params, shape, trades):
    trades = list(trades)
    if len(trades) != params.steps + 1:
        raise InvalidParam(
            f"expected {params.steps + 1} trades, got {len(trades)}"
        )
    state = SimplifiedState.initial()
    out = []
    for n, x in enumerate(trades):
        if n > 0:
            state = decay(state, shape, params.mode, params.rho, params.tau)
        pre = state
        state = apply_order(state, shape, x)
        out.append(
            TrajectoryPoint(
                n, n * params.tau, pre.volume, pre.offset, state.volume, state.offset
            )
        )
    return out


def _impact_cost_by_replay(params, shape, strategy):
    traj = _replay_by_states(params, shape, as_trades(strategy))
    return math.fsum(
        shape.premium(p.offset_post) - shape.premium(p.offset_pre) for p in traj
    )


def _analytic_gradient_by_replay(params, shape, strategy):
    trades = as_trades(strategy)
    traj = _replay_by_states(params, shape, trades)
    a = params.decay
    n_last = params.steps
    g = np.empty(n_last + 1)
    if params.mode is Resilience.VOLUME:
        g[n_last] = shape.offset(traj[n_last].volume_post)
        for n in range(n_last - 1, -1, -1):
            e_post = traj[n].volume_post
            g[n] = a * (g[n + 1] - shape.offset(a * e_post)) + shape.offset(e_post)
    else:
        g[n_last] = traj[n_last].offset_post
        for n in range(n_last - 1, -1, -1):
            d_post = traj[n].offset_post
            d_next = traj[n + 1].offset_pre
            g[n] = d_post + a * shape.density(d_next) / shape.density(d_post) * (
                g[n + 1] - d_next
            )
    return g


def _lagrange_residual_by_replay(params, shape, strategy):
    g = _analytic_gradient_by_replay(params, shape, strategy)
    mean = float(g.mean())
    return float(np.max(np.abs(g - mean))), mean


def _cost_report_by_replay(params, shape, strategy, a0=0.0):
    trades = as_trades(strategy)
    traj = _replay_by_states(params, shape, trades)
    prem = [(shape.premium(p.offset_post), shape.premium(p.offset_pre)) for p in traj]
    per = [a0 * x + post - pre for x, (post, pre) in zip(trades, prem)]
    impact = math.fsum(post - pre for post, pre in prem)
    base = a0 * math.fsum(trades)
    resid, _ = _lagrange_residual_by_replay(params, shape, trades)
    return CostReport(
        total=base + impact,
        base_term=base,
        impact_term=impact,
        per_trade=tuple(per),
        lagrange_residual=resid,
    )


def _hex(value):
    """Every float of a result in hex, and an exception as its class."""
    if isinstance(value, type):
        return value
    if isinstance(value, CostReport):
        return _hex(tuple(value.to_dict().values()))
    if isinstance(value, TrajectoryPoint):
        return _hex((value.n, value.t, value.volume_pre, value.offset_pre,
                     value.volume_post, value.offset_post))
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_hex(v) for v in value]
    return float(value).hex()


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return _hex(fn(*args))
    except (OutOfDomain, InvalidParam, OverflowError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


WALK_SHAPES = [BlockShape(Q)] + [PowerLawShape(Q, al) for al in (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5)] + [
    SqrtShape(Q, 1.0),
    CounterexampleShape(3),
    _table_401(),
]
WALK_IDS = [f"{s.name}{s.alpha if s.name == 'power' else ''}" for s in WALK_SHAPES]
# these two books end: a volume past the alpha = 1.5 saturation q/(alpha-1)
# or past the table's mass has no offset
BOUNDED = {"power1.5", "tabulated"}


@pytest.mark.parametrize("shape", WALK_SHAPES, ids=WALK_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_walk_matches_the_replay_forms(shape, mode):
    rng = np.random.default_rng(31)
    x0 = 4.0 if isinstance(shape, CounterexampleShape) else 1e5
    bounded = f"{shape.name}{shape.alpha if shape.name == 'power' else ''}" in BOUNDED
    for steps in (1, 2, 10, 1000):
        p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
        count = 1 if steps == 1000 else 4
        # signed and off the constraint: totals from 1e-3 x0 to about 3 x0
        rows = rng.uniform(-0.5, 1.5, (count, steps + 1)) * (
            x0 / (steps + 1) * 10.0 ** rng.uniform(-3.0, 0.5, (count, 1))
        )
        if steps <= 10:
            far = np.full(steps + 1, x0 / (steps + 1))
            far[0] = 50.0 * x0  # past the saturation and the table's mass
            rows = list(rows) + [far]
        for i, row in enumerate(rows):
            cases = [
                (replay, _replay_by_states),
                (impact_cost, _impact_cost_by_replay),
                (analytic_gradient, _analytic_gradient_by_replay),
                (lagrange_residual, _lagrange_residual_by_replay),
                (lambda *a: cost_report(*a, a0=2.5), lambda *a: _cost_report_by_replay(*a, a0=2.5)),
            ]
            for new, old in cases:
                assert _outcome(new, p, shape, row) == _outcome(old, p, shape, row), (steps, row)
            pair = _outcome(cost_and_gradient, p, shape, row)
            assert pair == _outcome(lambda *a: (impact_cost(*a), analytic_gradient(*a)), p, shape, row)
            if i == count and bounded:  # the far row
                assert pair is OutOfDomain


# --- the fast-forward through runs of equal trades -------------------------
#
# walk and the backward gradient skip the nodes of a run of equal trades
# once the state (or g) they carry repeats. The replay forms above take
# every step; on schedules with runs, settled or not, both must agree bit
# for bit.


class _CountingShape:
    """A shape that counts its scalar map calls."""

    def __init__(self, shape):
        self.shape, self.calls = shape, 0

    def __getattr__(self, name):
        return getattr(self.shape, name)

    def _count(self, fn, x):
        self.calls += 1
        return fn(x)

    def volume(self, x):
        return self._count(self.shape.volume, x)

    def offset(self, y):
        return self._count(self.shape.offset, y)

    def density(self, x):
        return self._count(self.shape.density, x)


def _assert_replay_forms(p, shape, trades, costs=True):
    """The walk's forms equal the replay forms in hex, on the trades as a
    list, a tuple and a Strategy; costs=False checks the certificate only."""
    cases = [
        (replay, _replay_by_states),
        (analytic_gradient, _analytic_gradient_by_replay),
        (lagrange_residual, _lagrange_residual_by_replay),
    ]
    if costs:
        cases += [
            (impact_cost, _impact_cost_by_replay),
            (lambda *a: cost_report(*a, a0=2.5), lambda *a: _cost_report_by_replay(*a, a0=2.5)),
        ]
    want = [_outcome(old, p, shape, trades) for _, old in cases]
    for strategy in (list(trades), tuple(trades), Strategy(trades)):
        for (new, _), w in zip(cases, want):
            arg = strategy.trades if new is replay and isinstance(strategy, Strategy) else strategy
            assert _outcome(new, p, shape, arg) == w
        if costs:
            assert _outcome(cost_and_gradient, p, shape, strategy) == [want[3], want[1]]


RUN_SHAPES = [BlockShape(Q), PowerLawShape(Q, 0.5), SqrtShape(Q, 1.0)]
RUN_IDS = [f"{s.name}{s.alpha if s.name == 'power' else ''}" for s in RUN_SHAPES]


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_solver_schedules_walk_as_the_replay_forms(mode):
    # N = 1e4: xi0, then 9999 equal trades, then the last one
    shape = PowerLawShape(Q, 0.5)
    p = MarketParams(x0=1e5, horizon=1.0, steps=10_000, rho=20.0, mode=mode)
    trades = solve(p, shape).trades
    assert len(set(trades[1:-1])) == 1
    _assert_replay_forms(p, shape, trades, costs=False)


def _run_schedules(steps, x0):
    u = x0 / (steps + 1)
    interrupted = [u] * (steps + 1)
    interrupted[steps // 3] = 2.0 * u  # the run resumes and settles again
    interrupted[2 * steps // 3] = 0.5 * u
    short = [u, u, 2.0 * u, u, 3.0 * u, 3.0 * u, u] * (steps // 7 + 1)
    zeros = [4.0 * u] + [0.0] * 4 + [-0.0] * 3 + [u] * (steps // 2) + [0.0] * steps
    flip = [u] * (steps // 2) + [-u] * (steps // 2) + [u] * steps
    return {
        "interrupted": interrupted,
        "runs of 1 and 2": short[: steps + 1],
        "zeros": zeros[: steps + 1],
        "sign change": flip[: steps + 1],
        "all zeros": [0.0] * (steps + 1),
    }


@pytest.mark.parametrize("shape", RUN_SHAPES, ids=RUN_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("kind", ["interrupted", "runs of 1 and 2", "zeros", "sign change", "all zeros"])
def test_runs_walk_as_the_replay_forms(shape, mode, kind):
    # a = exp(-0.5): a run's state settles in about 80 nodes
    p = MarketParams(x0=1e5, horizon=1.0, steps=400, rho=200.0, mode=mode)
    trades = _run_schedules(p.steps, p.x0)[kind]
    assert len(trades) == p.steps + 1
    _assert_replay_forms(p, shape, trades)
    counting = _CountingShape(shape)
    walk(p, counting, trades)
    skips = kind in ("interrupted", "zeros", "sign change")
    assert (counting.calls < 2 * len(trades) - 1) == skips


@pytest.mark.parametrize("shape", RUN_SHAPES, ids=RUN_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_a_run_that_never_settles_walks_as_the_replay_forms(shape, mode):
    # a = exp(-2.5e-9): the book barely recovers, so a run's state keeps growing
    p = MarketParams(x0=1e5, horizon=1.0, steps=400, rho=1e-6, mode=mode)
    trades = [p.x0 / 401] * 401
    _assert_replay_forms(p, shape, trades)
    counting = _CountingShape(shape)
    walk(p, counting, trades)
    assert counting.calls == 2 * len(trades) - 1


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_the_certificate_walks_the_steady_stretch_once(mode):
    # N = 1e5: the walk and the gradient call the maps a fixed number of
    # times, not twice per node
    shape = PowerLawShape(Q, 0.5)
    p = MarketParams(x0=1e5, horizon=1.0, steps=100_000, rho=20.0, mode=mode)
    trades = solve(p, shape).trades
    counting = _CountingShape(shape)
    assert lagrange_residual(p, counting, trades) == lagrange_residual(p, shape, trades)
    assert counting.calls <= 20


def test_equal_run_with_and_without_a_copy():
    # one block of the value (found by count and index), the value again
    # after the run, and the value before it
    assert equal_run([1.0, 2.0, 2.0, 2.0], 2) == 2
    assert equal_run((1.0, 2.0, 2.0, 2.0, 3.0), 2) == 2
    assert equal_run([2.0, 2.0, 3.0, 2.0], 1) == 1
    assert equal_run([2.0, 3.0, 2.0, 2.0, 2.0], 3) == 2
    assert equal_run([2.0, 3.0, 2.0, 2.0, 4.0, 2.0], 3) == 1
    assert equal_run([1.0, 2.0], 2) == 0
    assert equal_run([2.0, 1.0, 2.0], 3) == 0


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_a_walk_that_records_its_runs_holds_each_run_once(mode):
    shape = PowerLawShape(Q, 0.5)
    p = MarketParams(x0=1e5, horizon=1.0, steps=400, rho=200.0, mode=mode)
    schedules = list(_run_schedules(p.steps, p.x0).values())
    big = MarketParams(x0=1e5, horizon=1.0, steps=10_000, rho=20.0, mode=mode)
    for params, trades in [(p, t) for t in schedules] + [(big, solve(big, shape).trades)]:
        *held, runs = walk(params, shape, trades)
        counts = [1] * len(held[0])
        for i, k in runs:
            counts[i] += k
        assert sum(counts) == len(trades)
        # node by node, as the reference book steps every node
        full = [(pt.volume_pre, pt.offset_pre, pt.volume_post, pt.offset_post)
                for pt in _replay_by_states(params, shape, trades)]
        for values, once in zip(zip(*full), held):
            expanded = [v for v, k in zip(once, counts) for _ in range(k)]
            assert [v.hex() for v in expanded] == [v.hex() for v in values]
            assert expand(once, runs) == expanded
    # the solver's schedule: a first block, one settled run, the last block
    assert len(held[0]) <= 10 and len(runs) == 1


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_a_scalar_walk_goes_on_from_a_start_state(mode):
    shape = SqrtShape(Q, 1.0)
    p = MarketParams(x0=1e5, horizon=1.0, steps=12, rho=20.0, mode=mode)
    trades = [9000.0, 7000.0, 7000.0, 7000.0, 5000.0] + [8000.0] * 8
    *full, runs = walk(p, shape, trades)
    full = [expand(values, runs) for values in full]
    for cut in (0, 1, 4, 9):
        # stopped at node cut's pre-trade state, and gone on from there
        *first, first_runs = node_states(p, trades[:cut] + [None], shape.volume, shape.offset)
        *rest, rest_runs = node_states(p, trades[cut:], shape.volume, shape.offset,
                                       start=(first[0][-1], first[1][-1]))
        first = [expand(values, first_runs) for values in first]
        rest = [expand(values, rest_runs) for values in rest]
        pre = [first[0][:-1] + rest[0], first[1][:-1] + rest[1]]
        post = [first[2] + rest[2], first[3] + rest[3]]
        for values, got in zip(full, pre + post):
            assert [v.hex() for v in got] == [v.hex() for v in values]


def test_strategy_of_floats_takes_the_tuple_as_it_is():
    trades = (1.0, 2.5, -0.0)
    s = Strategy.of_floats(trades)
    assert s.trades is trades
    assert s == Strategy(trades)
