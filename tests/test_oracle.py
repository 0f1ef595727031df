"""Independent minimizers: multi-start descent and the exhaustive lattice.

These are the referees for the root-finding solvers, so they must not share
code paths with them; the tests here pin their own behavior down before they
are trusted in test_acceptance.
"""

import itertools
import math
import tracemalloc

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


# the shapes of acceptance criterion 3; its cases at N = 10 are also the
# benchmark's certify cases
CRITERION_3_SHAPES = [BlockShape(Q)] + [PowerLawShape(Q, al) for al in (-2.0, -1.0, 0.0, 0.5, 1.0)]


@pytest.mark.parametrize("steps", [2, 10])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("shape", CRITERION_3_SHAPES,
                         ids=[f"{s.name}{s.alpha if s.name == 'power' else ''}" for s in CRITERION_3_SHAPES])
def test_every_descent_start_converges(shape, mode, steps):
    # the descent stops when the cost stops moving, with no restart: from
    # the block book's inverse Hessian every start, everything at once
    # included, must by then meet the gradient test
    p = MarketParams(x0=X0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
    assert minimize_cost(p, shape, starts=8, seed=0).converged


def test_descent_call_budget(monkeypatch):
    # the benchmark's certify books at N = 10, 8 starts each: stepping along
    # the block book's inverse Hessian, rescaled at each step, the descent
    # makes 894 cost and gradient calls
    calls = []
    counted = lobexec.oracle.cost_and_gradient

    def count(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(lobexec.oracle, "cost_and_gradient", count)
    for shape, mode in itertools.product(CRITERION_3_SHAPES, [Resilience.VOLUME, Resilience.SPREAD]):
        p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0, mode=mode)
        res = minimize_cost(p, shape, starts=8, seed=0)
        assert res.converged and res.off_book == 0
    assert len(calls) <= 1000


def test_the_block_inverse_hessian_is_the_closed_form():
    # (1 - a^2)(C'MC)^-1, C = [I; -1'] and M_ij = a^|i-j|, against the
    # dense inverse where that is well conditioned
    for steps, rho in itertools.product((1, 2, 10, 50), (0.1, 2.0, 20.0, 800.0)):
        p = MarketParams(x0=X0, horizon=1.0, steps=steps, rho=rho)
        a = p.decay
        idx = np.arange(steps + 1)
        m = a ** np.abs(idx[:, None] - idx[None, :])
        c = np.vstack([np.eye(steps), -np.ones(steps)])
        want = (1.0 - a * a) * np.linalg.inv(c.T @ m @ c)
        h0 = lobexec.oracle._block_inverse_hessian(p)
        got = np.column_stack([h0(e) for e in np.eye(steps)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (steps, rho)


@pytest.mark.parametrize("rho", [1e-17, 1e4], ids=["decay 1", "decay 0"])
@pytest.mark.parametrize("steps", [1, 2, 10, 50])
def test_the_block_inverse_hessian_is_positive_definite_at_the_ends(steps, rho):
    # rho tau below 1e-16 rounds the decay to 1.0, where M is singular;
    # past about 745 it underflows to 0, where M is the identity
    p = MarketParams(x0=X0, horizon=1.0, steps=steps, rho=rho * steps)
    assert p.decay == (1.0 if rho < 1.0 else 0.0)
    h0 = lobexec.oracle._block_inverse_hessian(p)
    h = np.column_stack([h0(e) for e in np.eye(steps)])
    assert np.array_equal(h, h.T)
    assert np.linalg.eigvalsh(h).min() > 0.0


N1000_BOOKS = [(BlockShape(Q), m) for m in Resilience] + [
    (PowerLawShape(Q, al), m) for al in (-2.0, 0.5, 1.0) for m in Resilience
    # power alpha = 1 is falsely refused under model 2 at this N
    if not (al == 1.0 and m is Resilience.SPREAD)
] + [(SqrtShape(Q, 1.0), m) for m in Resilience]


@pytest.mark.parametrize("shape,mode", N1000_BOOKS, ids=[
    f"{s.name}{s.alpha if s.name == 'power' else ''}-model{int(m)}" for s, m in N1000_BOOKS])
def test_one_descent_start_at_n_1000_meets_the_solver(shape, mode):
    # one start, the uniform split: the block book's inverse Hessian,
    # rescaled at each step, must come close enough to reach the solver
    p = MarketParams(x0=X0, horizon=1.0, steps=1000, rho=20.0, mode=mode)
    want = solve(p, shape).trades
    got = minimize_cost(p, shape, starts=1)
    assert got.converged
    assert max(abs(g - w) for g, w in zip(got.best_strategy.trades, want)) <= 5e-8 * X0


@pytest.mark.parametrize("shape", [PowerLawShape(Q, 0.5), SqrtShape(Q, 50.0)], ids=["power0.5", "sqrt"])
def test_one_descent_start_at_n_10000_meets_the_solver(shape):
    # at the solve's own N the descent holds no N x N matrix: each step is
    # O(N) and the whole start takes well under a second
    p = MarketParams(x0=X0, horizon=1.0, steps=10_000, rho=20.0, mode=Resilience.SPREAD)
    want = solve(p, shape).trades
    got = minimize_cost(p, shape, starts=1)
    assert got.converged
    assert max(abs(g - w) for g, w in zip(got.best_strategy.trades, want)) <= 5e-8 * X0


def test_a_descent_start_keeps_its_memory_linear_in_n():
    # one N x N float matrix at N = 2000 would alone be 32 MB; the descent
    # keeps a few vectors of length N (about 1 MB here)
    p = MarketParams(x0=X0, horizon=1.0, steps=2000, rho=20.0)
    tracemalloc.start()
    try:
        got = minimize_cost(p, BlockShape(Q), starts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.converged
    assert peak < 8e6


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
    forced = solve(p, sh, skip_validation=True)
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
    # density there, 0. That start is priced at inf, counted off the book,
    # and the other one wins
    p = MarketParams(x0=3.6e6, horizon=1.0, steps=1, rho=200.0, mode=Resilience.SPREAD)
    res = minimize_cost(p, PowerLawShape(Q, 1.0), starts=2)
    assert res.off_book == 1
    assert res.converged
    assert math.isfinite(res.best_cost)
    assert res.best_strategy.trades == pytest.approx((1.8e6, 1.8e6), rel=1e-9)


@pytest.mark.parametrize("x0,off_book", [(2e4, 1), (3e4, 1), (9e4, 7)])
def test_descent_drops_the_starts_off_a_shallow_book(x0, off_book):
    # power alpha = 1.5 holds 1e4 shares a side. From x0 = 2e4 on, the
    # all-at-once start overruns it; at 9e4 seven of the eight starts do.
    # The starts on the book all converge
    p = MarketParams(x0=x0, horizon=1.0, steps=10, rho=20.0)
    res = minimize_cost(p, PowerLawShape(Q, 1.5), starts=8, seed=0)
    assert res.off_book == off_book
    assert res.converged
    assert math.isfinite(res.best_cost)
    if x0 == 2e4:  # the solver still brackets its root here
        sched = solve(p, PowerLawShape(Q, 1.5))
        for g, w in zip(res.best_strategy.trades, sched.trades):
            assert abs(g - w) <= 1e-8 * x0


def test_descent_refuses_when_no_start_is_on_the_book():
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    with pytest.raises(InvalidParam):
        minimize_cost(p, PowerLawShape(Q, 1.5), starts=4)


@pytest.mark.parametrize("counts, what", [
    ({"starts": 2.5}, "number of starts"),
    ({"starts": "3"}, "number of starts"),
    ({"seed": -1}, "seed"),
    ({"seed": 0.5}, "seed"),
], ids=["starts 2.5", "starts str", "seed -1", "seed 0.5"])
def test_descent_refuses_counts_that_are_not_whole_numbers(counts, what):
    # a fractional count was a TypeError from a slice, a negative seed numpy's ValueError
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    with pytest.raises(InvalidParam, match=f"{what}.* must be an integer"):
        minimize_cost(p, BlockShape(Q), **counts)


@pytest.mark.parametrize("q", [1e300, 1e308], ids=repr)
def test_descent_on_a_book_so_deep_that_its_curvature_underflows(q):
    # the gradient is near 1e-300, and y'h0(y) underflowed to 0: the
    # rescaling divided by it (oracle-check --q 1e308 ended in a traceback)
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0)
    result = minimize_cost(p, BlockShape(q), starts=2)
    want = solve_block(p, q).trades
    assert max(abs(a - b) for a, b in zip(result.best_strategy.trades, want)) <= 1e-8 * X0


def test_descent_refuses_a_count_of_no_starts():
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0)
    with pytest.raises(InvalidParam, match="at least one start"):
        minimize_cost(p, BlockShape(Q), starts=0)


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
    assert lobexec.oracle.premium_steps is lobexec.costs.premium_steps
    for module in (lobexec.oracle, lobexec.costs):
        for name, value in vars(module).items():
            assert not name.startswith("solve"), name
            assert name not in forbidden, name
            assert not any(value is obj for obj in forbidden_objects), name
            assert getattr(value, "__module__", None) not in ("lobexec.solver", "lobexec.numerics"), name
    for kernel in (lobexec.costs.impact_costs, lobexec.costs.premium_steps):
        for name in kernel.__code__.co_names:
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
LATTICE_IDS = [f"{s.name}{s.alpha if s.name == 'power' else ''}" for s, _ in LATTICE_BOOKS]
# coarse lattices of 901, 46^2 and 14^3 points
LATTICE_STEPS = {1: 600, 2: 30, 3: 9}


def _assert_grid_search_is_the_scan(shape, x0, mode, steps, rho, monkeypatch):
    p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=rho, mode=mode)
    res = x0 / LATTICE_STEPS[steps]
    want_x, want_f = _lattice_point_by_point(p, shape, res)
    # one block, then blocks of at most 97 tiles bounded and 6 tiles (96
    # points) scored at a time
    for slab in (lobexec.oracle._SLAB_POINTS, 97):
        monkeypatch.setattr(lobexec.oracle, "_SLAB_POINTS", slab)
        got = grid_search(p, shape, res)
        assert [v.hex() for v in got.best_strategy.trades] == [float(v).hex() for v in want_x]
        assert got.best_cost.hex() == want_f.hex()


@pytest.mark.parametrize("steps", sorted(LATTICE_STEPS))
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("shape,x0", LATTICE_BOOKS, ids=LATTICE_IDS)
def test_grid_search_equals_the_point_by_point_scan(shape, x0, mode, steps, monkeypatch):
    _assert_grid_search_is_the_scan(shape, x0, mode, steps, 20.0, monkeypatch)


# the bound prunes least where the cost is flat (rho tau -> 0) and most
# where the nodes decouple (rho tau -> infinity, a = exp(-1000) = 0)
@pytest.mark.parametrize("rho", [1e-6, 2.0, 2000.0], ids=repr)
@pytest.mark.parametrize("steps", sorted(LATTICE_STEPS))
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("shape,x0", LATTICE_BOOKS, ids=LATTICE_IDS)
def test_grid_search_equals_the_point_by_point_scan_at_any_rate(shape, x0, mode, steps, rho, monkeypatch):
    _assert_grid_search_is_the_scan(shape, x0, mode, steps, rho, monkeypatch)


@pytest.mark.parametrize("rho", [1e-6, 2.0, 20.0, 2000.0], ids=repr)
@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@pytest.mark.parametrize("shape,x0", LATTICE_BOOKS, ids=LATTICE_IDS)
def test_a_tile_bound_is_at_most_the_cost_of_its_points(shape, x0, mode, steps, rho):
    # random tiles of 16 last free trades after random prefixes, on a
    # lattice of spacing x0/200: the bound on each tile's box of trades
    # and tails is at most the least batched cost of its points
    p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=rho, mode=mode)
    pts = -0.25 * x0 + (x0 / 200) * np.arange(301)
    rng = np.random.default_rng(26)
    tiles = 200
    heads = pts[rng.integers(0, 301, size=(steps - 1, tiles))]
    walked, state = lobexec.costs.premium_steps(p, shape, [*heads, None], np.zeros(tiles))
    state = tuple(np.broadcast_to(v, tiles) for v in state)
    x = pts[rng.integers(0, 301 - 16, size=tiles)[:, None] + np.arange(16)]
    t = x0 - (heads.sum(axis=0)[:, None] + x)
    # the tails of the box only, as the lattice takes them: others are NaN
    t[(t < -0.25 * x0) | (t > 1.25 * x0)] = np.nan
    x_in = np.where(np.isnan(t), np.nan, x)
    rows = np.repeat(np.arange(tiles), 16)
    cost, _ = lobexec.costs.premium_steps(p, shape, (x.ravel(), t.ravel()), walked[rows],
                                          tuple(v[rows] for v in state))
    least = np.where(np.isfinite(cost), cost, np.inf).reshape(tiles, 16).min(axis=1)
    # x_lo, x_hi, t_lo and t_hi of each tile's points
    ends = [least_or_most(v, axis=1, initial=start) for v in (x_in, t)
            for least_or_most, start in ((np.nanmin, np.inf), (np.nanmax, -np.inf))]
    bound = lobexec.oracle._tile_bounds(p, shape, walked, state, *ends)
    finite = np.isfinite(least)
    assert finite.sum() >= 20
    assert not np.any(bound[finite] > least[finite] + 1e-12 * np.abs(least[finite]))


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


# grid_search's answers on the benchmark's certify books at N = 2
# (rho = 20, resolution x0/200), pinned from the lattice that walked each
# block's prefixes itself: every book's best point is the same schedule
CERTIFY_LATTICE_TRADES = ("0x1.05b8000000000p+15", "0x1.01d0000000000p+15", "0x1.05b8000000000p+15")
CERTIFY_LATTICE_COSTS = {
    ("block", 1): "0x1.458e84e249e91p+18",
    ("block", 2): "0x1.458e84e249e91p+18",
    ("power-2", 1): "0x1.bb72c62c7df25p+16",
    ("power-2", 2): "0x1.bb6edf3a00a9bp+16",
    ("power-1", 1): "0x1.44e13640e53bap+17",
    ("power-1", 2): "0x1.44dec50673ecap+17",
    ("power0", 1): "0x1.458e84e249e91p+18",
    ("power0", 2): "0x1.458e84e249e91p+18",
    ("power0.5", 1): "0x1.57aaa9379316ep+19",
    ("power0.5", 2): "0x1.57b5c48e6d8b1p+19",
    ("power1", 1): "0x1.64a7a578c3f8ap+23",
    ("power1", 2): "0x1.6cfd1459b0709p+23",
}


def _certify_book(label):
    return BlockShape(Q) if label == "block" else PowerLawShape(Q, float(label[len("power"):]))


@pytest.mark.parametrize("label,model", sorted(CERTIFY_LATTICE_COSTS),
                         ids=[f"{b}-m{m}" for b, m in sorted(CERTIFY_LATTICE_COSTS)])
def test_grid_search_on_the_certify_books_is_pinned(label, model):
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0, mode=Resilience(model))
    got = grid_search(p, _certify_book(label), X0 / 200)
    assert tuple(v.hex() for v in got.best_strategy.trades) == CERTIFY_LATTICE_TRADES
    assert got.best_cost.hex() == CERTIFY_LATTICE_COSTS[label, model]


@pytest.mark.parametrize("shape", [BlockShape(Q), PowerLawShape(Q, -2.0), PowerLawShape(Q, 0.5),
                                   PowerLawShape(Q, 1.0), SqrtShape(Q, 1.0)],
                         ids=["block", "power-2.0", "power0.5", "power1.0", "sqrt"])
def test_the_volume_recovery_lattice_forms_no_offset_array(shape, monkeypatch):
    # under volume recovery the lattice's walk prices each node by its
    # volume: with the signed offset and premium array maps refused, it
    # finds the same point, rescored by the scalar impact_cost
    p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0, mode=Resilience.VOLUME)
    want = grid_search(p, shape, X0 / 30)

    def refuse(self, arg):
        raise AssertionError("the lattice formed an offset array or priced one")

    monkeypatch.setattr(lobexec.shapes.Shape, "offset_array", refuse)
    monkeypatch.setattr(lobexec.shapes.Shape, "premium_array", refuse)
    got = grid_search(p, shape, X0 / 30)
    assert got.best_strategy.trades == want.best_strategy.trades
    assert got.best_cost.hex() == want.best_cost.hex()


def _count_walks(monkeypatch, points=None):
    """The lattice's premium_steps calls, in order: the number of prefixes
    of each prefix walk (its columns end with None), "points" for a block;
    where a list points is given, each block's number of points goes
    into it."""
    walks = []
    counted = lobexec.oracle.premium_steps

    def count(params, shape, columns, *rest):
        walks.append(len(columns[0]) if columns[-1] is None else "points")
        if points is not None and columns[-1] is not None:
            points.append(len(columns[0]))
        return counted(params, shape, columns, *rest)

    monkeypatch.setattr(lobexec.oracle, "premium_steps", count)
    return walks


def test_grid_search_at_n_3_walks_its_prefixes_in_chunks(monkeypatch):
    # 92^2 = 8464 prefixes: one chunk, then, at 1000 points a block, nine
    # chunks of at most 1000 prefixes, each cut into blocks of 10 rows
    p = MarketParams(x0=X0, horizon=1.0, steps=3, rho=2.0, mode=Resilience.VOLUME)
    want = ["0x1.f9e4325c53ef4p+14", "0x1.c042192e29f78p+13",
            "0x1.f37cda3ac10c8p+13", "0x1.235e29f79b476p+15"]
    walks = _count_walks(monkeypatch)
    for slab, chunks in ((lobexec.oracle._SLAB_POINTS, [8464]), (1000, [1000] * 8 + [464])):
        monkeypatch.setattr(lobexec.oracle, "_SLAB_POINTS", slab)
        walks.clear()
        got = grid_search(p, PowerLawShape(Q, -1.0), X0 / 61)
        assert [v.hex() for v in got.best_strategy.trades] == want
        assert got.best_cost.hex() == "0x1.b9c9747bbcb5ap+17"
        assert [w for w in walks if w != "points"] == chunks


def test_grid_search_walks_the_prefixes_once_per_search(monkeypatch):
    # at N = 2 the 301 prefixes are walked by one call. The tiles whose
    # lower bound lies above the cut are never scored, which leaves at
    # most 15 % of the 301^2 points on the certify books (544 to 6400 of
    # them), the same count each time
    points = []
    walks = _count_walks(monkeypatch, points)
    for label, model in sorted(CERTIFY_LATTICE_COSTS):
        p = MarketParams(x0=X0, horizon=1.0, steps=2, rho=20.0, mode=Resilience(model))
        counts = []
        for _ in range(2):
            walks.clear()
            points.clear()
            grid_search(p, _certify_book(label), X0 / 200)
            assert walks[0] == 301 and walks.count("points") == len(walks) - 1
            counts.append(sum(points))
        assert counts[0] == counts[1] <= 0.15 * 301 ** 2, (label, model, counts)


@pytest.mark.parametrize("x0", [1e-150, 1e-158, 1e-170, 0.0], ids=repr)
def test_the_converged_flag_is_free_of_the_scale_of_x0(x0):
    # the gradient test was absolute, max |g| <= 1e-8 (1 + |f|): at x0 =
    # 1e-158 and 1e-170 every gradient passes it, and the descent reported
    # converged 1.13e-2 x0 off the optimum. Read against the full gradient,
    # a start either meets the optimum or says it did not. At x0 = 0 the
    # gradient is 0, and so is the schedule
    p = MarketParams(x0=x0, horizon=1.0, steps=10, rho=20.0)
    res = minimize_cost(p, BlockShape(5000.0), starts=4)
    want = solve_block(p, 5000.0).trades if x0 else [0.0] * 11
    gap = max(abs(a - b) for a, b in zip(res.best_strategy.trades, want))
    assert not res.converged or gap <= 1e-9 * x0, (gap, x0)
    if x0 in (0.0, 1e-150):
        assert res.converged
