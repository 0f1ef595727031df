"""Execution-cost functionals and their exact gradients.

The cash paid for one market order that moves the ask offset from D_pre
to D_post is A0 x + premium(D_post) - premium(D_pre): the shares times
the unaffected price plus the price-weighted depth eaten. Summing over
trade nodes gives the total cost, so the impact part of any schedule is
a telescoping sum of premium differences along the replayed trajectory.
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MarketParams, Resilience, replay
from .errors import InvalidParam
from .shapes import Shape


@dataclass(frozen=True)
class Strategy:
    """A trade per node; buys positive. Feasible when it sums to x0."""

    trades: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "trades", tuple(float(x) for x in self.trades))

    @property
    def total(self) -> float:
        return math.fsum(self.trades)

    def assert_feasible(self, x0: float, tol: float = 1e-9) -> None:
        if abs(self.total - x0) > tol * max(1.0, abs(x0)):
            raise InvalidParam(
                f"trades sum to {self.total}, expected {x0}"
            )


def as_trades(strategy) -> list[float]:
    if isinstance(strategy, Strategy):
        return list(strategy.trades)
    return [float(x) for x in strategy]


def order_cost(shape: Shape, d_pre: float, d_post: float, a0: float = 0.0) -> float:
    """Cash for a single order moving the offset d_pre -> d_post."""
    x = shape.volume(d_post) - shape.volume(d_pre)
    return a0 * x + shape.premium(d_post) - shape.premium(d_pre)


def impact_cost(params: MarketParams, shape: Shape, strategy) -> float:
    """Impact part of the cost (total minus A0 * sum of trades).

    Defined for any trade vector of the right length, feasible or not;
    the optimizers rely on off-constraint evaluations.
    """
    traj = replay(params, shape, as_trades(strategy))
    return math.fsum(
        shape.premium(p.offset_post) - shape.premium(p.offset_pre) for p in traj
    )


def impact_costs(params: MarketParams, shape: Shape, trades) -> np.ndarray:
    """impact_cost of each row of an (M, steps+1) trade array, as an (M,) array.

    The rows are replayed together, column by column, with the decay in
    the mode's native variable and the operations in the order replay
    uses, through the shape's array maps. A row costs inf where
    impact_cost raises or is not finite. The sum is a plain one, not
    fsum, so a finite cost may differ from impact_cost's in the last few
    bits.
    """
    x = np.asarray(trades, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.steps + 1:
        raise InvalidParam(f"expected an (M, {params.steps + 1}) trade array, got {x.shape}")
    a = params.decay
    volume_mode = params.mode is Resilience.VOLUME
    e_pre = d_pre = 0.0  # the book starts flat
    total = np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        for n in range(x.shape[1]):
            if n > 0 and volume_mode:
                e_pre = a * e_post
                d_pre = shape.offset_array(e_pre)
            elif n > 0:
                d_pre = a * d_post
                e_pre = shape.volume_array(d_pre)
            e_post = e_pre + x[:, n]
            d_post = shape.offset_array(e_post)
            total += shape.premium_array(d_post) - shape.premium_array(d_pre)
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

    Backward recursions along the replayed path. Volume recovery:

        g_N = F^{-1}(E_N + x_N)
        g_n = a (g_{n+1} - F^{-1}(a (E_n + x_n))) + F^{-1}(E_n + x_n)

    Spread recovery, writing Dp_n = F^{-1}(x_n + F(D_n)) for the
    post-trade offset and D_{n+1} = a Dp_n:

        g_N = Dp_N
        g_n = Dp_n + a f(D_{n+1}) / f(Dp_n) * (g_{n+1} - D_{n+1})
    """
    trades = as_trades(strategy)
    traj = replay(params, shape, trades)
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


def lagrange_residual(params: MarketParams, shape: Shape, strategy) -> tuple[float, float]:
    """(max |g_i - mean|, mean) over the gradient components."""
    g = analytic_gradient(params, shape, strategy)
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
    traj = replay(params, shape, trades)
    # premium pairs, not differences: per-trade cash then rounds as order_cost does
    prem = [(shape.premium(p.offset_post), shape.premium(p.offset_pre)) for p in traj]
    per = [a0 * x + post - pre for x, (post, pre) in zip(trades, prem)]
    impact = math.fsum(post - pre for post, pre in prem)
    base = a0 * math.fsum(trades)
    resid, _ = lagrange_residual(params, shape, trades)
    return CostReport(
        total=base + impact,
        base_term=base,
        impact_term=impact,
        per_trade=tuple(per),
        lagrange_residual=resid,
    )
