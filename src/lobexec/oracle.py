"""Brute-force certification of schedules, independent of the solver.

minimize_cost eliminates the last trade through the volume constraint
and runs scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) from several
starts: the uniform split, everything at once at t0, and random
Dirichlet splits. It touches the cost functional and its gradient only;
none of the solver's characteristic maps appear here, so agreement
between the two routes is evidence, not circularity.

grid_search exhaustively enumerates a lattice of feasible schedules for
very small N. It scores the lattice in slabs of consecutive points with
the batched impact_costs, and rescores with the scalar impact_cost only
the points whose batched cost lies in a narrow band above the least cost
seen, so its answer is still the scalar lattice minimum, bit for bit.
gradient_check compares the analytic gradient against central finite
differences. Together the three give the certification triangle used by
the acceptance suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    Strategy,
    analytic_gradient,
    as_trades,
    cost_and_gradient,
    impact_cost,
    impact_costs,
)
from .dynamics import MarketParams
from .errors import BudgetExceeded, InvalidParam, OutOfDomain
from .shapes import Shape

_GRAD_TOL = 1e-8
# relative width of the band of batched lattice costs that are rescored
# with impact_cost; the two differ by about 1e-15 relative near a minimum
_RESCORE_BAND = 1e-9
# lattice points per batched call: each array of a slab stays near 128 kB,
# so the search's memory does not grow with the lattice (a whole 301^2
# plane at once peaked at 8-11 MB)
_SLAB_POINTS = 1 << 14


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
        try:
            f, g = cost_and_gradient(params, shape, full(z))
        except (OverflowError, ValueError, ZeroDivisionError, OutOfDomain):
            # an iterate off the book: past the saturation or the table,
            # or where a density underflows to 0 in the gradient
            return math.inf, np.zeros(n_free)
        if not math.isfinite(f):
            return math.inf, np.zeros(n_free)
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

    The lattice is scored in lattice order, in slabs of 2^14 consecutive
    points, by the batched impact_costs. A point is rescored with
    impact_cost, its tail recomputed as x0 - fsum(head), when its batched
    cost lies within a relative band of 1e-9 above the lower of the slab's
    least batched cost and the best rescored cost so far; the first strict
    improvement wins. The two costs differ by a few ulps, far less than
    the band, so the answer is the first lattice point of least
    impact_cost, bit for bit, as a point-by-point scan finds it.
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
    lattice = (len(pts),) * params.steps
    size = len(pts) ** params.steps
    best_x, best_f = None, math.inf
    for start in range(0, size, _SLAB_POINTS):
        flat = np.arange(start, min(start + _SLAB_POINTS, size))
        heads = pts[np.array(np.unravel_index(flat, lattice))]
        # exact for N <= 2; at N = 3 within an ulp of fsum, far inside the slack
        tails = x0 - heads.sum(axis=0)
        keep = (tails >= lo - slack) & (tails <= hi + slack)
        trades = np.vstack([heads[:, keep], tails[keep]])
        cost = impact_costs(params, shape, trades.T)
        # a point more than the band above this can be neither the slab's
        # least scalar cost nor better than the best so far
        bound = min(cost.min(initial=math.inf), best_f)
        if bound == math.inf:
            continue
        for head in trades[:-1, cost <= bound + _RESCORE_BAND * abs(bound)].T:
            x = list(head) + [x0 - math.fsum(head)]
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
