"""Independent minimizers: multi-start descent and the exhaustive lattice.

These are the referees for the root-finding solvers, so they must not share
code paths with them; the tests here pin their own behavior down before they
are trusted in test_acceptance.
"""

import itertools
import math

import numpy as np
import pytest

import lobexec.costs
import lobexec.numerics
import lobexec.oracle
import lobexec.shapes
import lobexec.solver
from lobexec import (
    BlockShape,
    BudgetExceeded,
    CounterexampleShape,
    InvalidParam,
    MarketParams,
    PowerLawShape,
    Resilience,
    SqrtShape,
    TabulatedShape,
    gradient_check,
    grid_search,
    impact_cost,
    minimize_cost,
    solve,
    solve_block,
    solve_model2,
)
from lobexec.oracle import _safe_cost

Q = 5000.0
X0 = 100_000.0


def test_descent_matches_block_closed_form():
    p = MarketParams(x0=X0, horizon=1.0, steps=5, rho=20.0)
    want = solve_block(p, Q)
    got = minimize_cost(p, BlockShape(Q), starts=4)
    assert got.converged
    for g, w in zip(got.best_strategy.trades, want.trades):
        assert abs(g - w) <= 1e-6 * X0
    assert got.best_cost == pytest.approx(impact_cost(p, BlockShape(Q), want.trades), rel=1e-9)


def test_descent_is_start_insensitive():
    p = MarketParams(x0=X0, horizon=1.0, steps=3, rho=20.0)
    sh = PowerLawShape(Q, 0.5)
    a = minimize_cost(p, sh, starts=2, seed=1)
    b = minimize_cost(p, sh, starts=8, seed=99)
    assert a.best_cost == pytest.approx(b.best_cost, rel=1e-8)
    assert np.allclose(a.best_strategy.trades, b.best_strategy.trades, rtol=1e-5, atol=1e-4)


def test_grid_search_brackets_the_minimum():
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    res = X0 / 200
    g = grid_search(p, BlockShape(Q), res)
    want = solve_block(p, Q)
    assert g.grid_resolution == res
    for got, w in zip(g.best_strategy.trades, want.trades):
        assert abs(got - w) <= res  # cannot beat the lattice spacing
    # and the lattice minimum never undercuts the true one
    assert g.best_cost >= impact_cost(p, BlockShape(Q), want.trades) - 1e-9


def test_grid_search_guards():
    p4 = MarketParams(x0=X0, horizon=1.0, steps=4, rho=20.0)
    with pytest.raises(InvalidParam):
        grid_search(p4, BlockShape(Q), X0 / 10)
    p3 = MarketParams(x0=X0, horizon=1.0, steps=3, rho=20.0)
    with pytest.raises(BudgetExceeded):
        grid_search(p3, BlockShape(Q), X0 / 4000)
    with pytest.raises(InvalidParam):
        grid_search(p3, BlockShape(Q), 0.0)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_gradient_check_on_random_points(mode):
    p = MarketParams(x0=X0, horizon=1.0, steps=6, rho=20.0, mode=mode)
    sh = PowerLawShape(Q, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.dirichlet(np.full(7, 5.0)) * X0
        assert gradient_check(p, sh, x) <= 1e-5


def test_oracle_result_serializes():
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    r = minimize_cost(p, BlockShape(Q), starts=2)
    d = r.to_dict()
    assert d["best_cost"] == r.best_cost
    assert len(d["trades"]) == 3
    assert isinstance(r.to_json(), str)


def test_descent_never_loses_to_random_candidates():
    rng = np.random.default_rng(17)
    for shape in (BlockShape(Q), PowerLawShape(Q, 0.5)):
        p = MarketParams(x0=X0, horizon=1.0, steps=4, rho=12.0)
        sched = solve(p, shape)
        best = impact_cost(p, shape, sched.trades)
        draws = rng.dirichlet(np.ones(5), size=1000) * X0
        sample_best = min(impact_cost(p, shape, x) for x in draws)
        assert best <= sample_best + 1e-9


def test_descent_confirms_forced_counterexample_root():
    # where validation fails, the descent referee decides which critical
    # point is real: its minimum must not be worse than the forced root
    p = MarketParams(x0=14.5, horizon=1.0, steps=10, rho=10.0 * math.log(2.0), mode=Resilience.SPREAD)
    sh = CounterexampleShape(2)
    forced = solve_model2(p, sh, skip_validation=True)
    forced_cost = impact_cost(p, sh, forced.trades)
    # the density kinks stall the line search near the optimum, so cap the
    # iterations; the minimum itself is reached long before the cap
    oracle = minimize_cost(p, sh, starts=8, max_iter=3000)
    assert oracle.best_cost <= forced_cost + 1e-9 * abs(forced_cost)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_descent_on_a_table_with_finite_mass(mode):
    # 401 knots of q/sqrt(1+|x|) cover about 1.32e5 shares a side, so descent
    # probes can push the book past the table; they must cost inf, not
    # abort the referee
    offsets = np.arange(-200.0, 201.0)
    sh = TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0, mode=mode)
    sched = solve(p, sh)
    got = minimize_cost(p, sh, starts=8, seed=0)
    for g, w in zip(got.best_strategy.trades, sched.trades):
        assert abs(g - w) <= 1e-5 * X0
    want = impact_cost(p, sh, sched.trades)
    assert abs(got.best_cost - want) <= 1e-7 * abs(want)


def test_descent_prices_a_start_that_overflows_at_inf():
    # all at once, 720 q shares push the alpha = 1 offset past exp(700) to
    # inf: the cost is NaN and the spread-recovery gradient divides by the
    # density there, 0. That start is priced at inf and the other one wins
    p = MarketParams(x0=3.6e6, horizon=1.0, steps=1, rho=200.0, mode=Resilience.SPREAD)
    res = minimize_cost(p, PowerLawShape(Q, 1.0), starts=2)
    assert not res.converged
    assert math.isfinite(res.best_cost)
    assert res.best_strategy.trades == pytest.approx((1.8e6, 1.8e6), rel=1e-9)


def test_referee_stays_independent_of_the_root_path():
    # the referees may see the cost and its gradient only: no solver, no
    # root finder, no characteristic map or validator
    forbidden = {
        "bracketed_root",
        "validate_model1",
        "validate_model2",
        "volume_recovery_gap",
        "spread_recovery_gap",
        "injectivity_margin",
    }
    forbidden_objects = [lobexec.solver, lobexec.numerics, lobexec.numerics.bracketed_root]
    forbidden_objects += [getattr(lobexec.shapes, n) for n in forbidden - {"bracketed_root"}]
    forbidden_objects += [v for n, v in vars(lobexec.solver).items() if n.startswith("solve")]
    # the lattice's batched kernel lives in costs: that module is held to
    # the same rule
    assert lobexec.oracle.impact_costs is lobexec.costs.impact_costs
    for module in (lobexec.oracle, lobexec.costs):
        for name, value in vars(module).items():
            assert not name.startswith("solve"), name
            assert name not in forbidden, name
            assert not any(value is obj for obj in forbidden_objects), name
            assert getattr(value, "__module__", None) not in ("lobexec.solver", "lobexec.numerics"), name
    for name in lobexec.costs.impact_costs.__code__.co_names:
        assert name not in forbidden and not name.startswith("solve"), name


def _lattice_point_by_point(params, shape, resolution):
    """The point-by-point scan grid_search ran before it was batched: its
    body verbatim, kept here as the reference."""
    x0 = params.x0
    lo, hi = -0.25 * x0, 1.25 * x0
    if hi <= lo:
        pts = np.array([0.0])
    else:
        count = int(math.floor((hi - lo) / resolution)) + 1
        pts = lo + resolution * np.arange(count)
    slack = 1e-9 * max(1.0, abs(x0))
    best_x, best_f = None, math.inf
    for head in itertools.product(pts, repeat=params.steps):
        tail = x0 - math.fsum(head)
        if tail < lo - slack or tail > hi + slack:
            continue
        x = list(head) + [tail]
        f = _safe_cost(params, shape, x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def _table_401():
    offsets = np.arange(-200.0, 201.0)
    return TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))


LATTICE_BOOKS = [
    (BlockShape(Q), X0),
    (PowerLawShape(Q, -2.0), X0),
    (PowerLawShape(Q, 0.5), X0),
    (PowerLawShape(Q, 1.0), X0),
    # alpha = 1.5 holds 1e4 shares a side: at x0 = 5000 part of the lattice is finite
    (PowerLawShape(Q, 1.5), 5000.0),
    (SqrtShape(Q, 1.0), X0),
    # the counterexample's knees sit at volumes 4/3 and 3
    (CounterexampleShape(3), 4.0),
    (_table_401(), X0),
]
LATTICE_IDS = [f"{s.name}{getattr(s, 'alpha', '')}" for s, _ in LATTICE_BOOKS]
# coarse lattices of 901, 46^2 and 14^3 points
LATTICE_STEPS = {1: 600, 2: 30, 3: 9}


@pytest.mark.parametrize("steps", sorted(LATTICE_STEPS))
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("shape,x0", LATTICE_BOOKS, ids=LATTICE_IDS)
def test_grid_search_equals_the_point_by_point_scan(shape, x0, mode, steps, monkeypatch):
    p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
    res = x0 / LATTICE_STEPS[steps]
    want_x, want_f = _lattice_point_by_point(p, shape, res)
    # one slab, then slabs of 97 points that end mid-row
    for slab in (lobexec.oracle._SLAB_POINTS, 97):
        monkeypatch.setattr(lobexec.oracle, "_SLAB_POINTS", slab)
        got = grid_search(p, shape, res)
        assert [v.hex() for v in got.best_strategy.trades] == [float(v).hex() for v in want_x]
        assert got.best_cost.hex() == want_f.hex()


def test_grid_search_keeps_the_first_of_tied_points():
    # full recovery (exp(-1000) = 0) makes the N = 1 cost symmetric in the
    # two trades; the integer lattice straddles x0/2, so (49400, 50600) and
    # (50600, 49400) tie exactly and the scan keeps the first
    p = MarketParams(x0=X0, horizon=1.0, steps=1, rho=1000.0)
    for shape in (BlockShape(Q), PowerLawShape(Q, 0.5)):
        got = grid_search(p, shape, 1200.0)
        assert got.best_strategy.trades == (49400.0, 50600.0)
        assert got.best_cost == impact_cost(p, shape, (50600.0, 49400.0))
        assert _lattice_point_by_point(p, shape, 1200.0) == ([49400.0, 50600.0], got.best_cost)


def test_grid_search_refuses_a_lattice_of_infinite_costs():
    # x0 = 1e5 overruns the 1e4 shares a side of alpha = 1.5 at every point
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    assert _lattice_point_by_point(p, PowerLawShape(Q, 1.5), X0 / 20) == (None, math.inf)
    with pytest.raises(InvalidParam):
        grid_search(p, PowerLawShape(Q, 1.5), X0 / 20)
