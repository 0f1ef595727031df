"""Optimal schedules: closed forms, structure, counterexample, limits."""

import math

import numpy as np
import pytest

import lobexec.solver as solver
from lobexec import (
    BlockShape,
    CounterexampleShape,
    InvalidParam,
    MarketParams,
    PowerLawShape,
    PreconditionFailed,
    Resilience,
    SqrtShape,
    TabulatedShape,
    continuous_limit,
    impact_cost,
    minimize_cost,
    solve,
    solve_block,
    sqrt_shape_xi0,
)

Q = 5000.0
X0 = 100_000.0

# first trade of the Figure-3 baseline, X0/(9(1-exp(-2))+2), frozen
FIG3_XI0 = 10222.876651256016


def test_block_closed_form_value(fig3_params):
    sched = solve_block(fig3_params, Q)
    a = math.exp(-2.0)
    assert sched.xi0 == pytest.approx(X0 / (9 * (1 - a) + 2), rel=1e-14)
    assert sched.xi0 == pytest.approx(FIG3_XI0, rel=1e-13)
    # symmetric: first and last trades equal, intermediates (X0-2 xi0)/9
    assert sched.trades[-1] == pytest.approx(sched.xi0, rel=1e-12)
    mid = (X0 - 2 * sched.xi0) / 9
    for x in sched.trades[1:-1]:
        assert x == pytest.approx(mid, rel=1e-12)
    assert math.fsum(sched.trades) == pytest.approx(X0, rel=1e-14)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_root_solvers_reproduce_block_closed_form(mode, block):
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0, mode=mode)
    closed = solve_block(p, Q)
    sched = solve(p, block)
    for got, want in zip(sched.trades, closed.trades):
        assert got == pytest.approx(want, rel=1e-9)


def test_schedule_structure(fig3_params, loglaw):
    sched = solve(fig3_params, loglaw)
    assert len(sched.trades) == 11
    assert all(x > 0 for x in sched.trades)
    assert math.fsum(sched.trades) == pytest.approx(X0, rel=1e-12)
    # intermediates all equal
    mids = sched.trades[1:-1]
    assert max(mids) - min(mids) <= 1e-9 * mids[0]
    assert sched.diagnostics.root_residual <= 1e-7
    assert sched.diagnostics.lagrange_residual <= 1e-6 * abs(sched.diagnostics.lagrange_mean)
    assert sched.diagnostics.validation.ok


def test_single_interval_splits_in_half(block):
    # N=1 on the block: half now, half at the horizon
    p = MarketParams(x0=X0, horizon=1.0, steps=1, rho=20.0)
    sched = solve(p, block)
    assert sched.trades[0] == pytest.approx(X0 / 2, rel=1e-10)
    assert sched.trades[1] == pytest.approx(X0 / 2, rel=1e-10)


def test_full_resilience_limit_is_uniform(block):
    # rho -> inf: the book heals completely, all N+1 trades equal
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=500.0)
    sched = solve(p, block)
    for x in sched.trades:
        assert x == pytest.approx(X0 / 11, rel=1e-6)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_decay_that_underflows_is_full_recovery(mode, block):
    # rho tau = 1000: a = exp(-1000) underflows to 0, the book heals fully
    p = MarketParams(x0=X0, horizon=1.0, steps=1, rho=1000.0, mode=mode)
    assert p.decay == 0.0
    assert solve(p, block).trades == solve_block(p, Q).trades == (X0 / 2, X0 / 2)


def test_no_resilience_limit_is_two_blocks(block):
    # rho -> 0: nothing recovers; only the first and last trades survive
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=1e-7)
    sched = solve(p, block)
    assert sched.trades[0] == pytest.approx(X0 / 2, rel=1e-5)
    assert sched.trades[-1] == pytest.approx(X0 / 2, rel=1e-5)
    assert sum(sched.trades[1:-1]) < 1e-4 * X0


def test_solver_cost_beats_uniform_and_imbalanced(fig3_params):
    for shape in (PowerLawShape(Q, 0.5), PowerLawShape(Q, -1.0)):
        sched = solve(fig3_params, shape)
        best = impact_cost(fig3_params, shape, sched.trades)
        uniform = impact_cost(fig3_params, shape, [X0 / 11] * 11)
        lumpy = impact_cost(fig3_params, shape, [X0 / 2] + [X0 / 20] * 9 + [X0 / 20])
        assert best < uniform
        assert best < lumpy


def test_solve_requires_positive_total(block):
    with pytest.raises(InvalidParam):
        solve(MarketParams(x0=0.0, horizon=1.0, steps=5, rho=10.0), block)


def test_model2_on_counterexample_is_refused():
    p = MarketParams(x0=3.0, horizon=1.0, steps=10, rho=6.9, mode=Resilience.SPREAD)
    with pytest.raises(PreconditionFailed) as exc:
        solve(p, CounterexampleShape(2))
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_model2_counterexample_forced_solve_still_roots():
    # skip_validation finds *a* critical point; it satisfies the balance
    # identities even though global optimality is void here
    p = MarketParams(x0=3.0, horizon=1.0, steps=10, rho=6.9, mode=Resilience.SPREAD)
    sched = solve(p, CounterexampleShape(2), skip_validation=True)
    assert math.fsum(sched.trades) == pytest.approx(3.0, rel=1e-12)
    assert sched.diagnostics.root_residual <= 1e-9


def test_model1_on_counterexample_is_fine():
    # the piecewise ramp only defeats spread recovery; volume recovery is sound
    p = MarketParams(x0=3.0, horizon=1.0, steps=10, rho=6.9)
    sched = solve(p, CounterexampleShape(2))
    assert all(x > 0 for x in sched.trades)
    assert sched.diagnostics.lagrange_residual <= 1e-6 * abs(sched.diagnostics.lagrange_mean)


# --- sqrt-shape closed form -------------------------------------------------


def test_sqrt_xi0_matches_root_solver():
    for mu in (0.5, 1.0, 2.0, 5.0):
        sh = SqrtShape(Q, mu)
        p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0)
        want = solve(p, sh).xi0
        got = sqrt_shape_xi0(Q, mu, X0, 10, math.exp(-2.0))
        assert got == pytest.approx(want, rel=1e-10)
    # a = 0: the decay underflows, full recovery
    p = MarketParams(x0=X0, horizon=1.0, steps=10, rho=1e4)
    want = solve(p, SqrtShape(Q, 1.0)).xi0
    assert sqrt_shape_xi0(Q, 1.0, X0, 10, p.decay) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("steps", [0, 2.5, math.nan, math.inf, "10"], ids=repr)
def test_sqrt_xi0_refuses_a_step_count_that_is_not_a_whole_number(steps):
    with pytest.raises(InvalidParam, match="steps must be an integer"):
        sqrt_shape_xi0(Q, 1.0, X0, steps, math.exp(-2.0))


def test_sqrt_xi0_recovers_block_at_mu_zero():
    a = math.exp(-2.0)
    got = sqrt_shape_xi0(Q, 0.0, X0, 10, a)
    assert got == pytest.approx(X0 / (9 * (1 - a) + 2), rel=1e-14)


def test_sqrt_xi0_continuous_in_mu_near_zero():
    # the rationalized root has no blow-up where the quadratic degenerates
    a = math.exp(-2.0)
    vals = [sqrt_shape_xi0(Q, mu, X0, 10, a) for mu in (0.0, 1e-12, 1e-8, 1e-4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert all(math.isfinite(v) and v > 0 for v in vals)


def test_sqrt_xi0_increases_with_mu():
    a = math.exp(-2.0)
    mus = np.linspace(0.0, 6.0, 25)
    vals = [sqrt_shape_xi0(Q, float(m), X0, 10, a) for m in mus]
    assert all(b > a_ for a_, b in zip(vals, vals[1:]))


# --- continuous limit -------------------------------------------------------


def test_continuous_limit_block_value(block):
    lim = continuous_limit(Resilience.VOLUME, block, X0, 20.0, 1.0)
    assert lim.initial_block == pytest.approx(X0 / 22.0, rel=1e-12)
    assert lim.rate == pytest.approx(20.0 * X0 / 22.0, rel=1e-12)
    assert lim.final_block == pytest.approx(X0 / 22.0, rel=1e-12)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_continuous_limit_conserves_mass(mode, loglaw):
    lim = continuous_limit(mode, loglaw, X0, 20.0, 1.0)
    total = lim.initial_block + lim.rate * 1.0 + lim.final_block
    assert abs(total - X0) <= 1e-9 * X0


def test_continuous_limit_modes_coincide_on_block(block):
    l1 = continuous_limit(Resilience.VOLUME, block, X0, 20.0, 1.0)
    l2 = continuous_limit(Resilience.SPREAD, block, X0, 20.0, 1.0)
    assert l1.initial_block == pytest.approx(l2.initial_block, rel=1e-10)


def test_spread_limit_far_from_the_quote():
    # the bracket's end sits at offset 6.4e24, where f + x f' = q/(1+x)^2
    # used to cancel to 0 and the limit was refused as not convex
    sh = PowerLawShape(9005.38, 1.0)
    lim = continuous_limit(Resilience.SPREAD, sh, 514419.38, 0.957, 1.0)
    assert abs(lim.initial_block + lim.rate + lim.final_block - 514419.38) <= 1e-9 * 514419.38
    assert 0.0 < lim.initial_block < 514419.38
    # the gap's terms grow like x^2 at the root
    assert lim.root_residual <= 1e-9 * sh.offset(lim.initial_block) ** 2


def test_spread_limit_where_the_curvature_underflows():
    # x0 = 400 q: the bracket's end sits at offset 5.2e173, where
    # f + x f' = q/(1+x)^2 underflows to 0 and the limit was refused as
    # not convex; the ratio f / (f + x f') = 1 + x is finite there
    x0 = 2e6
    lim = continuous_limit(Resilience.SPREAD, PowerLawShape(Q, 1.0), x0, 20.0, 1.0)
    assert abs(lim.initial_block + lim.rate + lim.final_block - x0) <= 1e-9 * x0
    assert 0.0 < lim.initial_block < x0
    with pytest.raises(InvalidParam, match="not convex"):
        continuous_limit(Resilience.SPREAD, PowerLawShape(Q, 1.5), x0, 20.0, 1.0)


def test_spread_limit_refuses_a_concave_premium():
    # alpha = 1.5: the premium is concave past offset 2
    with pytest.raises(InvalidParam):
        continuous_limit(Resilience.SPREAD, PowerLawShape(Q, 1.5), Q, 20.0, 1.0)


@pytest.mark.parametrize("x0", [1e-320, 0.0, math.inf, math.nan], ids=repr)
def test_an_x0_that_leaves_no_root_bracket_is_refused(x0, block):
    # 1e-12 x0 underflows to 0 at x0 = 1e-320, and bracketed_root refused
    # (0, x0) with a ValueError; an infinite x0 left (inf, nan)
    with pytest.raises(InvalidParam, match="x0 = .* leaves no root bracket"):
        continuous_limit(Resilience.VOLUME, block, x0, 20.0, 1.0)
    if math.isfinite(x0):
        with pytest.raises(InvalidParam, match="x0 = .* leaves no root bracket"):
            solve(MarketParams(x0=x0, horizon=1.0, steps=10, rho=20.0), block)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_discrete_converges_at_rate_one_over_n(mode, block):
    # halving check: the xi0 gap to the limit shrinks by 2 when N doubles
    lim = continuous_limit(mode, block, X0, 20.0, 1.0)
    gaps = []
    for n in (10_000, 20_000):
        p = MarketParams(x0=X0, horizon=1.0, steps=n, rho=20.0, mode=mode)
        sched = solve(p, block, skip_validation=True)
        gaps.append(abs(sched.xi0 - lim.initial_block) / lim.initial_block)
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("mode, alpha", [(Resilience.VOLUME, 1.0), (Resilience.SPREAD, 0.5)])
def test_large_n_certifies(mode, alpha):
    # N = 1e5: the certificate walks the schedule once, in well under a second
    p = MarketParams(x0=X0, horizon=1.0, steps=100_000, rho=20.0, mode=mode)
    sched = solve(p, PowerLawShape(Q, alpha))
    assert len(sched.trades) == 100_001
    assert math.fsum(sched.trades) == pytest.approx(X0, rel=1e-12)
    assert sched.diagnostics.lagrange_residual <= 1e-6 * abs(sched.diagnostics.lagrange_mean)


def test_schedule_serialization(fig3_params, block):
    d = solve(fig3_params, block).to_dict()
    assert d["model"] == 1
    assert len(d["trades"]) == 11
    assert "root_residual" in d["diagnostics"]


def test_a_step_count_given_as_a_float_solves_as_its_int(fig3_params, block):
    p = MarketParams(1e5, 1.0, 10.0, 20.0)
    assert type(p.steps) is int
    assert solve(p, block).trades == solve(fig3_params, block).trades


def test_schedule_dict_keeps_its_key_order(fig3_params, block):
    """schedule.json writes the keys in this order, nested ones included."""
    d = solve(fig3_params, block).to_dict()
    assert list(d) == ["model", "xi0", "trades", "diagnostics"]
    assert list(d["diagnostics"]) == [
        "root_residual", "lagrange_residual", "lagrange_mean", "validation"]
    assert list(d["diagnostics"]["validation"]) == [
        "ok", "reason", "witness", "scan_lo", "scan_hi", "detail"]
    assert solve_block(fig3_params, Q).to_dict()["diagnostics"]["validation"] is None


# --- finite depth: each root is bracketed where its gap is defined -----------

# PowerLawShape(Q, 1.5) holds q/(alpha - 1) = 1e4 shares a side; under
# model 1 at N = 10 and rho = 20 the book holds at most its capacity
# 1e4 (1 + N (1 - a)) over the schedule
SHALLOW = PowerLawShape(Q, 1.5)
SHALLOW_CAPACITY = 1e4 * (1.0 + 10.0 * (1.0 - math.exp(-2.0)))


@pytest.mark.parametrize("x0", [3e4, 5e4, 9e4])
def test_a_finite_depth_book_solves_on_its_window_and_agrees_with_the_descent(x0):
    # the gap is finite only on a window y in (4626, 6939) at x0 = 5e4, which
    # the 64-point fallback scan on (eps, x0) missed: NoRootInBracket
    p = MarketParams(x0=x0, horizon=1.0, steps=10, rho=20.0)
    trades = solve(p, SHALLOW).trades
    descent = minimize_cost(p, SHALLOW, starts=8, seed=0).best_strategy.trades
    assert max(abs(a - b) for a, b in zip(trades, descent)) <= 1e-8 * x0


def test_a_book_too_shallow_for_x0_is_refused_at_its_capacity():
    p = MarketParams(x0=2e5, horizon=1.0, steps=10, rho=20.0)
    with pytest.raises(PreconditionFailed, match="past the 96466.* shares the book holds") as info:
        solve(p, SHALLOW)
    report = info.value.report
    assert (report.ok, report.reason) == (False, "book_too_shallow")
    assert report.witness == pytest.approx(SHALLOW_CAPACITY, rel=1e-11)
    # the window's edge: just inside the capacity the book still solves
    solve(MarketParams(x0=0.999 * SHALLOW_CAPACITY, horizon=1.0, steps=10, rho=20.0), SHALLOW)
    # model 2's capacity F_ask + N m(F_ask), on a table of 1 share a side
    table = TabulatedShape([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    p2 = MarketParams(x0=100.0, horizon=1.0, steps=10, rho=20.0, mode=Resilience.SPREAD)
    with pytest.raises(PreconditionFailed) as info:
        solve(p2, table)
    a, ask = math.exp(-2.0), 1.0 - 1e-12
    assert info.value.report.reason == "book_too_shallow"
    assert info.value.report.witness == pytest.approx(ask + 10.0 * (ask - a * ask), rel=1e-12)


def test_the_continuous_limit_brackets_on_the_window_under_volume_recovery():
    # its window is (x0 - F)/(rho T) < y < min(F, (x0 + F)/(rho T))
    lim = continuous_limit(Resilience.VOLUME, SHALLOW, X0, 20.0, 1.0)
    assert abs(lim.initial_block + lim.rate + lim.final_block - X0) <= 1e-9 * X0
    assert (X0 - 1e4) / 20.0 < lim.initial_block < 1e4
    with pytest.raises(PreconditionFailed) as info:
        continuous_limit(Resilience.VOLUME, SHALLOW, 3e5, 20.0, 1.0)
    assert info.value.report.reason == "book_too_shallow"
    assert info.value.report.witness == pytest.approx(1e4 * 21.0, rel=1e-11)


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_a_table_solve_takes_few_gap_evaluations_and_no_fallback_scan(mode, monkeypatch):
    # the 401-knot table covers 1.32e5 shares a side: from (eps, x0 - eps),
    # whose top is out of its domain, the fallback scan took 66-67 values
    offsets = np.arange(-200.0, 201.0)
    table = TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))
    roots = []

    def counted(fn, lo, hi):
        values = []

        def value(y):
            # an evaluation past the cover counts, as the NaN it becomes
            values.append(math.nan)
            values[-1] = fn(y)
            return values[-1]

        root = bracketed_root(value, lo, hi)
        roots.append(values)
        return root

    bracketed_root = solver.bracketed_root
    monkeypatch.setattr(solver, "bracketed_root", counted)
    solve(MarketParams(x0=X0, horizon=1.0, steps=10, rho=20.0, mode=mode), table)
    # model 2 finds its window's top by an inner root through the same call
    assert len(roots) == (1 if mode is Resilience.VOLUME else 2)
    assert sum(map(len, roots)) <= 25
    for values in roots:
        assert math.isfinite(values[0]) and math.isfinite(values[1])
        assert (values[0] < 0.0) != (values[1] < 0.0)
