"""Execution-cost functionals and their exact gradients.

The cash paid for one market order that moves the ask offset from D_pre
to D_post is A0 x + premium(D_post) - premium(D_pre): the shares times
the unaffected price plus the price-weighted depth eaten. Summing over
trade nodes gives the total cost, so the impact part of any schedule is
a telescoping sum of premium differences along the walked trajectory.
That F-tilde-difference sum is the reference implementation here; the
expanded forms in terms of the volume potential G (premium as a function
of volume) are kept as independent cross-checks, one per model.

ow_cost is the classical quadratic cost for a block book with an extra
permanent-impact slope lambda; it exists so the optimizers can be tied
back to the known block-book solution for every admissible lambda.

analytic_gradient implements the exact backward recursions for the
partial derivatives of the impact cost in both resilience models. At an
optimum all components agree (the Lagrange multiplier of the volume
constraint); the residual spread of the components is the cheapest
stationarity certificate available, and CostReport carries it.

Each of impact_cost, analytic_gradient, cost_and_gradient (both at once,
for the descent referee), lagrange_residual and cost_report walks the
schedule once: dynamics.walk runs the book on plain floats and returns
the pre- and post-trade offsets, and everything here is read off those
lists. impact_costs runs the same recursion on (M,) columns through the
shape's array maps.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# replay stays bound here: benchmarks/tracing.py times costs.replay
from .dynamics import MarketParams, Resilience, equal_run, node_states, replay, walk
from .errors import InvalidParam
from .shapes import Shape


@dataclass(frozen=True)
class Strategy:
    """A trade per node; buys positive. Feasible when it sums to x0."""

    trades: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "trades", tuple(map(float, self.trades)))

    @property
    def total(self) -> float:
        return math.fsum(self.trades)

    def assert_feasible(self, x0: float, tol: float = 1e-9) -> None:
        if abs(self.total - x0) > tol * max(1.0, abs(x0)):
            raise InvalidParam(
                f"trades sum to {self.total}, expected {x0}"
            )


def as_trades(strategy) -> Sequence[float]:
    """The trades of a Strategy (its tuple, not a copy) or of any
    iterable of numbers, as floats."""
    if isinstance(strategy, Strategy):
        return strategy.trades
    return list(map(float, strategy))


def order_cost(shape: Shape, d_pre: float, d_post: float, a0: float = 0.0) -> float:
    """Cash for a single order moving the offset d_pre -> d_post."""
    x = shape.volume(d_post) - shape.volume(d_pre)
    return a0 * x + shape.premium(d_post) - shape.premium(d_pre)


def impact_cost(params: MarketParams, shape: Shape, strategy) -> float:
    """Impact part of the cost (total minus A0 * sum of trades).

    Defined for any trade vector of the right length, feasible or not;
    the optimizers rely on off-constraint evaluations.
    """
    _, d_pre, _, d_post = walk(params, shape, as_trades(strategy))
    return _impact(shape, d_pre, d_post)


def _impact(shape: Shape, d_pre, d_post) -> float:
    premium = shape.premium
    return math.fsum(premium(post) - premium(pre) for pre, post in zip(d_pre, d_post))


def impact_costs(params: MarketParams, shape: Shape, trades) -> np.ndarray:
    """impact_cost of each row of an (M, steps+1) trade array, as an (M,) array.

    The rows are replayed together, column by column, by the recursion
    impact_cost walks, through the shape's array maps. A row costs inf
    where impact_cost raises or is not finite. The sum is a plain one,
    not fsum, so a finite cost may differ from impact_cost's in the last
    few bits.
    """
    x = np.asarray(trades, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.steps + 1:
        raise InvalidParam(f"expected an (M, {params.steps + 1}) trade array, got {x.shape}")
    total = np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        _, d_pre, _, d_post = node_states(params, x.T, shape.volume_array, shape.offset_array)
        for pre, post in zip(d_pre, d_post):
            total += shape.premium_array(post) - shape.premium_array(pre)
    return np.where(np.isfinite(total), total, np.inf)


def impact_cost_gform(params: MarketParams, shape: Shape, strategy) -> float:
    """Cross-check form of impact_cost via the volume potential G.

    Volume recovery: sum of G(E_n + x_n) - G(E_n) with E recursed in
    volume. Spread recovery: sum of G(x_n + F(D_n)) - premium(D_n) with D
    recursed in offset. Both unroll the replay independently.
    """
    trades = as_trades(strategy)
    if len(trades) != params.steps + 1:
        raise InvalidParam(f"expected {params.steps + 1} trades, got {len(trades)}")
    a = params.decay
    total = 0.0
    if params.mode is Resilience.VOLUME:
        e = 0.0
        for x in trades:
            total += shape.premium_by_volume(e + x) - shape.premium_by_volume(e)
            e = a * (e + x)
    else:
        d = 0.0
        for x in trades:
            v = x + shape.volume(d)
            total += shape.premium_by_volume(v) - shape.premium(d)
            d = a * shape.offset(v)
    return total


def ow_cost(q: float, lam: float, params: MarketParams, strategy, a0: float = 0.0) -> float:
    """Quadratic block-book cost with permanent-impact slope lam.

    kappa = 1/q - lam is the decaying part of the impact. Requires
    lam < 1/q so that kappa > 0.
    """
    if not q > 0.0:
        raise InvalidParam(f"depth must be positive, got {q}")
    kappa = 1.0 / q - lam
    if not kappa > 0.0:
        raise InvalidParam(f"permanent slope {lam} must stay below 1/q = {1.0 / q}")
    x = np.asarray(as_trades(strategy), dtype=float)
    if x.size != params.steps + 1:
        raise InvalidParam(f"expected {params.steps + 1} trades, got {x.size}")
    a = params.decay
    tot = float(x.sum())
    decayed = 0.0
    cross = 0.0
    for k in range(x.size):
        if k > 0:
            decayed *= a
        cross += decayed * x[k]
        decayed += x[k]
    return (
        a0 * tot
        + 0.5 * lam * tot * tot
        + kappa * cross
        + 0.5 * kappa * float(np.dot(x, x))
    )


def analytic_gradient(params: MarketParams, shape: Shape, strategy) -> np.ndarray:
    """Exact partials of impact_cost with respect to each trade.

    Backward recursions along the walked path, with D_n and Dp_n the
    pre- and post-trade offsets at node n. Volume recovery, where
    F^{-1}(a (E_n + x_n)) is the next pre-trade offset D_{n+1}:

        g_N = Dp_N
        g_n = a (g_{n+1} - D_{n+1}) + Dp_n

    Spread recovery, where D_{n+1} = a Dp_n:

        g_N = Dp_N
        g_n = Dp_n + a f(D_{n+1}) / f(Dp_n) * (g_{n+1} - D_{n+1})
    """
    _, d_pre, _, d_post = walk(params, shape, as_trades(strategy))
    return _gradient(params, shape, d_pre, d_post)


def _gradient(params: MarketParams, shape: Shape, d_pre, d_post) -> np.ndarray:
    """The backward recursion of analytic_gradient over walked offsets.

    Each step maps g to a new g through the node's inputs (D_{n+1},
    Dp_n) alone, so where those repeat (the steady stretch of a walk)
    spread recovery reuses its coefficient a f(D_{n+1}) / f(Dp_n), and
    once a step also returns the g it found, every further node with the
    same inputs returns it too: the rest of that run is filled with it,
    by np.repeat rather than by converting a float per node. As in
    node_states, the values must be nonzero for equal to mean equal bits.
    """
    a = params.decay
    volume_mode = params.mode is Resilience.VOLUME
    density = shape.density
    nexts, posts = d_pre[:0:-1], d_post[-2::-1]  # nodes N-1 down to 0
    g = d_post[-1]
    out = [g]
    fills = []  # (j, k): out[j] also stands for the k nodes after it
    u = v = c = None  # spread recovery: c is a f(u) / f(v)
    i, end = 0, len(posts)
    while i < end:
        d_next, post = nexts[i], posts[i]
        if volume_mode:
            g_new = a * (g - d_next) + post
        else:
            if not (d_next == u and post == v and d_next and post):
                # left to right, as g = post + a f(d_next) / f(post) * (g - d_next)
                c = a * density(d_next) / density(post)
                u, v = d_next, post
            g_new = post + c * (g - d_next)
        out.append(g_new)
        if g_new == g and 0.0 not in (g, d_next, post):
            k = min(equal_run(nexts, i + 1), equal_run(posts, i + 1))
            fills.append((len(out) - 1, k))
            i += k
        g = g_new
        i += 1
    out.reverse()
    if not fills:
        return np.array(out)
    counts = np.ones(len(out), dtype=np.intp)
    for j, k in fills:
        counts[-1 - j] += k
    return np.repeat(out, counts)


def cost_and_gradient(params: MarketParams, shape: Shape, strategy) -> tuple[float, np.ndarray]:
    """(impact_cost, analytic_gradient) of one schedule from one walk."""
    _, d_pre, _, d_post = walk(params, shape, as_trades(strategy))
    return _impact(shape, d_pre, d_post), _gradient(params, shape, d_pre, d_post)


def lagrange_residual(params: MarketParams, shape: Shape, strategy) -> tuple[float, float]:
    """(max |g_i - mean|, mean) over the gradient components."""
    return _spread(analytic_gradient(params, shape, strategy))


def _spread(g: np.ndarray) -> tuple[float, float]:
    mean = float(g.mean())
    return float(np.max(np.abs(g - mean))), mean


@dataclass(frozen=True)
class CostReport:
    total: float
    base_term: float
    impact_term: float
    per_trade: tuple[float, ...]
    lagrange_residual: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "base_term": self.base_term,
            "impact_term": self.impact_term,
            "per_trade": list(self.per_trade),
            "lagrange_residual": self.lagrange_residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def cost_report(
    params: MarketParams, shape: Shape, strategy, a0: float = 0.0
) -> CostReport:
    trades = as_trades(strategy)
    _, d_pre, _, d_post = walk(params, shape, trades)
    # per-trade cash adds the two premiums in turn, as order_cost does
    high = [shape.premium(d) for d in d_post]
    low = [shape.premium(d) for d in d_pre]
    per = [a0 * x + hi - lo for x, hi, lo in zip(trades, high, low)]
    impact = math.fsum(hi - lo for hi, lo in zip(high, low))
    base = a0 * math.fsum(trades)
    resid, _ = _spread(_gradient(params, shape, d_pre, d_post))
    return CostReport(
        total=base + impact,
        base_term=base,
        impact_term=impact,
        per_trade=tuple(per),
        lagrange_residual=resid,
    )
