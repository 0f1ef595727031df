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
    impact_cost_gform,
    impact_costs,
    lagrange_residual,
    order_cost,
    ow_cost,
    solve,
    solve_block,
    replay,
)
from lobexec.costs import CostReport, as_trades
from lobexec.dynamics import SimplifiedState, TrajectoryPoint, apply_order, decay
from lobexec.errors import OutOfDomain
from lobexec.oracle import _safe_cost

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


def test_strategy_helpers():
    s = Strategy(trades=(1.0, 2.0, 3.5))
    assert s.total == 6.5
    s.assert_feasible(6.5)
    with pytest.raises(InvalidParam):
        s.assert_feasible(7.0)


def test_cost_report_consistency(fig3_params, block):
    sched = solve_block(fig3_params, Q)
    rep = cost_report(fig3_params, block, sched.strategy, a0=2.0)
    assert rep.total == pytest.approx(rep.base_term + rep.impact_term, rel=1e-14)
    assert rep.base_term == pytest.approx(2.0 * fig3_params.x0, rel=1e-14)
    assert math.fsum(rep.per_trade) == pytest.approx(rep.total, rel=1e-12)
    assert rep.lagrange_residual <= 1e-6 * abs(rep.impact_term)
    d = rep.to_dict()
    assert set(d) == {"total", "base_term", "impact_term", "per_trade", "lagrange_residual"}


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
BATCH_IDS = [f"{s.name}{getattr(s, 'alpha', '')}" for s in BATCH_SHAPES]


def _summed_size(p, shape, row):
    """Sum of the premiums impact_cost adds and subtracts: the size its
    rounding is relative to."""
    return math.fsum(
        abs(shape.premium(t.offset_post)) + abs(shape.premium(t.offset_pre))
        for t in replay(p, shape, row)
    )


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=BATCH_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_impact_costs_match_impact_cost_row_by_row(shape, mode):
    rng = np.random.default_rng(23)
    x0 = 4.0 if isinstance(shape, CounterexampleShape) else 1e5
    for steps in (1, 2, 5):
        p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
        x = rng.uniform(-0.5, 1.5, (150, steps + 1)) * x0
        # rows far off the book: past the alpha = 1.5 saturation, the
        # table's mass, or into overflow
        x[:30] *= 10.0 ** rng.uniform(0.0, 300.0, (30, 1))
        got = impact_costs(p, shape, x)
        want = np.array([_safe_cost(p, shape, row) for row in x])
        assert got.shape == (150,)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert not np.isnan(got).any() and (got[np.isinf(got)] > 0).all()
        for g, w, row in zip(got, want, x):
            if math.isfinite(w):
                assert abs(g - w) <= 1e-14 * _summed_size(p, shape, row), row


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
WALK_IDS = [f"{s.name}{getattr(s, 'alpha', '')}" for s in WALK_SHAPES]
# these two books end: a volume past the alpha = 1.5 saturation q/(alpha-1)
# or past the table's mass has no offset
BOUNDED = {"power1.5", "tabulated"}


@pytest.mark.parametrize("shape", WALK_SHAPES, ids=WALK_IDS)
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_walk_matches_the_replay_forms(shape, mode):
    rng = np.random.default_rng(31)
    x0 = 4.0 if isinstance(shape, CounterexampleShape) else 1e5
    bounded = f"{shape.name}{getattr(shape, 'alpha', '')}" in BOUNDED
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
