"""Brute-force certification of schedules, independent of the solver.

minimize_cost eliminates the last trade through the volume constraint
and runs scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) from several
starts: the uniform split, everything at once at t0, and random
Dirichlet splits. It touches the cost functional and its gradient only;
none of the solver's characteristic maps appear here, so agreement
between the two routes is evidence, not circularity.

grid_search exhaustively enumerates a lattice of feasible schedules for
very small N. gradient_check compares the analytic gradient against
central finite differences. Together the three give the certification
triangle used by the acceptance suite.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .costs import Strategy, analytic_gradient, as_trades, impact_cost
from .dynamics import MarketParams
from .errors import BudgetExceeded, InvalidParam, OutOfDomain
from .shapes import Shape

_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class OracleResult:
    best_strategy: Strategy
    best_cost: float
    starts: int
    converged: bool
    grid_resolution: float | None = None

    def to_dict(self) -> dict:
        return {
            "best_cost": self.best_cost,
            "trades": list(self.best_strategy.trades),
            "starts": self.starts,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _safe_cost(params, shape, x) -> float:
    try:
        c = impact_cost(params, shape, x)
    except (OverflowError, ValueError, OutOfDomain):
        return math.inf
    return c if math.isfinite(c) else math.inf


def _descend(params: MarketParams, shape: Shape, z0: np.ndarray, max_iter: int):
    """L-BFGS-B in the reduced coordinates (last trade eliminated)."""
    # imported here so that solving, which never needs scipy, does not
    # pay its import time
    from scipy.optimize import minimize

    x0 = params.x0
    n_free = params.steps

    def full(z):
        return np.append(z, x0 - z.sum())

    def value_grad(z):
        xfull = full(z)
        f = _safe_cost(params, shape, xfull)
        if not math.isfinite(f):
            return math.inf, np.zeros(n_free)
        g = analytic_gradient(params, shape, xfull)
        return f, g[:n_free] - g[n_free]

    # scipy's default ftol/gtol stop with trades still ~1e-6 x0 off the
    # optimum; an ftol of a few ulps and no gradient test run on until the
    # cost stops moving (~3e-9 x0 on the acceptance cases)
    res = minimize(value_grad, np.array(z0, dtype=float), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 1e-15, "gtol": 0.0})
    f = float(res.fun)
    converged = math.isfinite(f) and float(np.max(np.abs(res.jac))) <= _GRAD_TOL * (1.0 + abs(f))
    return full(res.x), f, converged


def _starting_points(params: MarketParams, starts: int, seed: int) -> list[np.ndarray]:
    n_free = params.steps
    x0 = params.x0
    uniform = np.full(n_free, x0 / (n_free + 1))
    all_at_once = np.zeros(n_free)
    all_at_once[0] = x0
    points = [uniform, all_at_once]
    rng = np.random.default_rng(seed)
    while len(points) < starts:
        split = rng.dirichlet(np.full(n_free + 1, 5.0)) * x0
        points.append(split[:n_free])
    return points[:starts]


def minimize_cost(
    params: MarketParams,
    shape: Shape,
    starts: int = 8,
    seed: int = 0,
    max_iter: int = 100_000,
) -> OracleResult:
    """Multi-start descent over feasible schedules.

    converged reports whether every start met the stopping criterion;
    the best point is returned either way, never silently dropped.
    """
    if starts < 1:
        raise InvalidParam(f"need at least one start, got {starts}")
    best_x, best_f = None, math.inf
    all_ok = True
    for z0 in _starting_points(params, starts, seed):
        x, f, ok = _descend(params, shape, z0, max_iter)
        all_ok = all_ok and ok
        if f < best_f:
            best_x, best_f = x, f
    if best_x is None:
        raise InvalidParam("no start produced a finite cost")
    return OracleResult(
        best_strategy=Strategy(tuple(float(v) for v in best_x)),
        best_cost=float(best_f),
        starts=starts,
        converged=all_ok,
    )


def grid_search(params: MarketParams, shape: Shape, resolution: float) -> OracleResult:
    """Exhaustive lattice search over feasible schedules, N <= 3.

    Coordinates range over [-0.25 x0, 1.25 x0] with the given spacing;
    the last trade is implied by the constraint and must land in the
    same box. Budget-capped at 1e8 lattice points.
    """
    if params.steps > 3:
        raise InvalidParam(f"grid search is for N <= 3, got N = {params.steps}")
    if not resolution > 0.0:
        raise InvalidParam(f"resolution must be positive, got {resolution}")
    x0 = params.x0
    lo, hi = -0.25 * x0, 1.25 * x0
    if hi <= lo:
        pts = np.array([0.0])
    else:
        count = int(math.floor((hi - lo) / resolution)) + 1
        pts = lo + resolution * np.arange(count)
    if float(len(pts)) ** params.steps > 1e8:
        raise BudgetExceeded(
            f"{len(pts)}^{params.steps} lattice points exceed the 1e8 budget"
        )
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
    if best_x is None:
        raise InvalidParam("no feasible lattice point in the search box")
    return OracleResult(
        best_strategy=Strategy(tuple(best_x)),
        best_cost=float(best_f),
        starts=1,
        converged=True,
        grid_resolution=resolution,
    )


def gradient_check(params: MarketParams, shape: Shape, strategy) -> float:
    """Worst relative gap between analytic and central-difference partials."""
    x = np.asarray(as_trades(strategy), dtype=float)
    g_exact = analytic_gradient(params, shape, x)
    worst = 0.0
    for i in range(x.size):
        h = 1e-5 * max(1.0, abs(x[i]))
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g_fd = (impact_cost(params, shape, up) - impact_cost(params, shape, dn)) / (2 * h)
        worst = max(worst, abs(g_exact[i] - g_fd) / max(1.0, abs(g_fd)))
    return worst
