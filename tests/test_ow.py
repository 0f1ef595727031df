"""Recursive scheme with permanent impact: coefficients and forward pass.

The backward recursion and the closed-form coefficient expressions are two
independent routes to the same numbers; the forward pass must reproduce the
block-shape schedule for every admissible permanent slope.
"""

import math

import numpy as np
import pytest

from lobexec import (
    InvalidParam,
    MarketParams,
    backward_coeffs,
    closed_coeffs,
    coeffs_to_csv,
    forward_strategy,
    ow_cost,
    solve_block,
)

Q = 5000.0
X0 = 100_000.0


def _params(n, rho=20.0):
    return MarketParams(x0=X0, horizon=1.0, steps=n, rho=rho)


def test_terminal_values():
    lam = 5e-5
    c = backward_coeffs(Q, lam, _params(10))
    n = 10
    assert c.alpha[n] == pytest.approx(1 / (2 * Q) - lam, rel=1e-15)
    assert c.beta[n] == 1.0
    assert c.gamma[n] == 0.0
    # one-step-before values, by hand from the update rules
    kappa = 1 / Q - lam
    a = math.exp(-2.0)
    delta_n = 1.0 / (1 / (2 * Q) + c.alpha[n] - c.beta[n] * kappa * a + c.gamma[n] * (kappa * a) ** 2)
    assert c.delta[n] == pytest.approx(delta_n, rel=1e-14)
    assert c.delta[n] == pytest.approx(1.0 / (kappa * (1 - a)), rel=1e-13)


def test_delta_epsilon_identity():
    # delta_n * epsilon_n = 2/((N-n)(1-a)+2), any lambda
    a = math.exp(-2.0)
    for lam in (0.0, 5e-5, 1.5e-4):
        c = backward_coeffs(Q, lam, _params(10))
        for n in range(1, 11):
            want = 2.0 / ((10 - n) * (1 - a) + 2)
            assert c.delta[n] * c.epsilon[n] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
@pytest.mark.parametrize("rho", [2.0, 20.0, 80.0])
@pytest.mark.parametrize("lam", [0.0, 5e-5, 1.5e-4])
def test_backward_equals_closed(n, rho, lam):
    p = _params(n, rho)
    b = backward_coeffs(Q, lam, p)
    c = closed_coeffs(Q, lam, p)
    for name in ("alpha", "beta", "gamma", "delta", "epsilon", "phi"):
        got = getattr(b, name)
        want = getattr(c, name)
        # gamma/phi cross zero; compare with an absolute floor tied to scale
        scale = np.maximum(np.abs(want), np.max(np.abs(want)) * 1e-6 + 1e-300)
        assert np.max(np.abs(got - want) / scale) <= 1e-10, name


@pytest.mark.parametrize("lam", [0.0, 5e-5, 1.5e-4])
def test_forward_reproduces_block_schedule(lam):
    p = _params(10)
    closed = solve_block(p, Q)
    c = backward_coeffs(Q, lam, p)
    strat = forward_strategy(c, p, X0)
    for got, want in zip(strat.trades, closed.trades):
        assert got == pytest.approx(want, rel=1e-9)


def test_trades_do_not_depend_on_lambda():
    p = _params(10)
    strats = [
        forward_strategy(backward_coeffs(Q, lam, p), p, X0).trades
        for lam in (0.0, 5e-5, 1.5e-4)
    ]
    for other in strats[1:]:
        assert np.allclose(other, strats[0], rtol=1e-10, atol=1e-8)


def test_forward_strategy_is_feasible_and_optimal_for_ow_cost():
    lam = 1e-4
    p = _params(8)
    c = backward_coeffs(Q, lam, p)
    strat = forward_strategy(c, p, X0)
    assert math.fsum(strat.trades) == pytest.approx(X0, rel=1e-12)
    base = ow_cost(Q, lam, p, strat.trades)
    rng = np.random.default_rng(0)
    x = np.asarray(strat.trades)
    for _ in range(50):
        d = rng.normal(size=9)
        d -= d.mean()  # stay on the constraint surface
        assert ow_cost(Q, lam, p, x + 40.0 * d) >= base


@pytest.mark.parametrize("rho", [250.0, 2000.0])
@pytest.mark.parametrize("n", [1, 2, 10, 100])
@pytest.mark.parametrize("lam", [0.0, 5e-5, 1.5e-4])
def test_closed_forms_stay_finite_as_rho_tau_grows(rho, n, lam):
    # r = 1/a overflowed r**3 at rho tau = 250 and divided by a = 0 at 2000;
    # the forms in a, with 1 - a = -expm1(-rho tau), hold down to a = 0
    p = _params(n, rho)
    b = backward_coeffs(Q, lam, p)
    c = closed_coeffs(Q, lam, p)
    for name in ("alpha", "beta", "gamma", "delta", "epsilon", "phi"):
        got = getattr(b, name)
        want = getattr(c, name)
        assert np.all(np.isfinite(want)), name
        # relative to the coefficient's largest value: alpha crosses zero
        # near m = 2, where the recursion's own rounding is all there is
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("rho", [250.0, 2000.0])
def test_ow_compare_solves_one_step_at_large_rho_tau(rho, tmp_path, capsys):
    from lobexec import cli

    argv = ["ow-compare", "--rho", str(rho), "--n", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "agrees" in capsys.readouterr().out
    rows = (tmp_path / "ow_compare.csv").read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == list(solve_block(_params(1, rho), Q).trades)
    for row in rows:
        block, *trades = map(float, row.split(",")[1:])
        assert trades == pytest.approx([block] * len(trades), rel=1e-12)


def test_rejects_nonpositive_kappa():
    with pytest.raises(InvalidParam):
        backward_coeffs(Q, 1 / Q, _params(5))
    with pytest.raises(InvalidParam):
        closed_coeffs(Q, 1.1 / Q, _params(5))
    with pytest.raises(InvalidParam):
        backward_coeffs(0.0, 0.0, _params(5))


def test_coeffs_csv(tmp_path):
    c = backward_coeffs(Q, 5e-5, _params(4))
    out = tmp_path / "coeffs.csv"
    coeffs_to_csv(c, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,alpha,beta,gamma,delta,epsilon,phi"
    assert len(lines) == 6
    assert float(lines[-1].split(",")[1]) == c.alpha[4]


@pytest.mark.parametrize("q", [0.0, -1.0, math.nan, 1e-310, 5e-324], ids=repr)
def test_a_depth_whose_reciprocal_overflows_is_refused(q):
    # at q = 1e-310, 1/q is inf, and the recursion formed inf - inf with a
    # numpy warning before it refused the degenerate node
    p = _params(10)
    for form in (backward_coeffs, closed_coeffs):
        with pytest.raises(InvalidParam, match="depth must be positive, with 1/q finite"):
            form(q, 0.0, p)


@pytest.mark.parametrize("lam", [-math.inf, math.inf, math.nan], ids=repr)
def test_a_permanent_slope_that_is_not_finite_is_refused(lam):
    # lam = -inf made kappa = inf, and the recursion formed inf - inf
    p = _params(10)
    for form in (backward_coeffs, closed_coeffs):
        with pytest.raises(InvalidParam, match="must be finite and below 1/q"):
            form(Q, lam, p)


@pytest.mark.parametrize("lam", [-1e308, -1.7e308], ids=repr)
def test_a_recursion_that_overflows_at_a_valid_slope_is_a_numerical_failure(lam):
    # lam is finite and below 1/q, so kappa is finite and positive, but
    # kappa^2 a^2 overflows: 1/delta = -inf at node 9 was refused as a
    # degenerate parameter (InvalidParam, exit 2)
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="at node 9"):
        backward_coeffs(Q, lam, _params(10))
