"""Execution-cost functionals and their exact gradients.

The cash paid for one market order that moves the ask offset from D_pre
to D_post is A0 x + premium(D_post) - premium(D_pre): the shares times
the unaffected price plus the price-weighted depth eaten. Summing over
trade nodes gives the total cost, so the impact part of any schedule is
a telescoping sum of premium differences along the walked trajectory.
That F-tilde-difference sum is the one implementation here; the tests
check it against the expanded forms in terms of the volume potential G
(premium as a function of volume), one per model.

analytic_gradient implements the exact backward recursions for the
partial derivatives of the impact cost in both resilience models. At an
optimum all components agree (the Lagrange multiplier of the volume
constraint); the residual spread of the components is the cheapest
stationarity certificate available, and CostReport carries it.

Each of impact_cost, analytic_gradient, cost_and_gradient (both at once,
for the descent referee), lagrange_residual and cost_report walks the
schedule once: dynamics.walk runs the book on plain floats and returns
the pre- and post-trade offsets, with each settled run of nodes held
once, and everything here is read off those lists (dynamics.expand
writes a run out where each node needs its own value). impact_costs runs
the same recursion on (M,) columns through the shape's array maps, by
premium_steps, which the lattice referee also calls to walk a block of
schedules that share their first trades once: up to the pre-trade state
of the node after them, where each schedule goes on. Under volume
recovery the cost is the sum of G(E_n + x_n) - G(E_n), with G the
premium as a function of the volume (premium_by_volume), so that walk
prices each node by its volume, in closed form, and forms no offset;
under spread recovery it prices the offsets.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

# replay stays bound here: benchmarks/tracing.py times costs.replay
from .dynamics import MarketParams, Resilience, expand, node_states, replay, walk
from .errors import InvalidParam
from .shapes import Shape


@dataclass(frozen=True)
class Strategy:
    """A trade per node; buys positive. Feasible when it sums to x0."""

    trades: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "trades", tuple(map(float, self.trades)))

    @classmethod
    def of_floats(cls, trades: tuple[float, ...]) -> "Strategy":
        """A Strategy on a tuple that holds floats already, taken as it
        is: without the float() per trade that the constructor makes."""
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "trades", trades)
        return strategy


def as_trades(strategy) -> Sequence[float]:
    """The trades of a Strategy (its tuple, not a copy) or of any
    iterable of numbers, as floats."""
    if isinstance(strategy, Strategy):
        return strategy.trades
    return list(map(float, strategy))


def impact_cost(params: MarketParams, shape: Shape, strategy) -> float:
    """Impact part of the cost (total minus A0 * sum of trades).

    Defined for any trade vector of the right length, feasible or not;
    the optimizers rely on off-constraint evaluations.
    """
    _, d_pre, _, d_post, runs = walk(params, shape, as_trades(strategy))
    return _impact(shape, d_pre, d_post, runs)


def _impact(shape: Shape, d_pre, d_post, runs) -> float:
    """The fsum of the nodes' premium differences, in node order, over a
    walk that holds its runs once (see dynamics.node_states)."""
    premium = shape.premium
    terms = [premium(post) - premium(pre) for pre, post in zip(d_pre, d_post)]
    return math.fsum(expand(terms, runs))


def impact_costs(params: MarketParams, shape: Shape, trades) -> np.ndarray:
    """impact_cost of each row of an (M, steps+1) trade array, as an (M,) array.

    The rows are replayed together, column by column, by the recursion
    impact_cost walks, through the shape's array maps. A row costs inf
    where impact_cost raises or is not finite. The sum is a plain one,
    not fsum, and under volume recovery each node is priced by its volume
    (see premium_steps), so a finite cost may differ from impact_cost's by
    a few ulps per node.
    """
    x = np.asarray(trades, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.steps + 1:
        raise InvalidParam(f"expected an (M, {params.steps + 1}) trade array, got {x.shape}")
    total, _ = premium_steps(params, shape, x.T, np.zeros(x.shape[0]))
    total[~np.isfinite(total)] = np.inf
    return total


def premium_steps(params: MarketParams, shape: Shape, columns, total, start=None):
    """Walk (M,) trade columns, one per node, through the array maps and
    add each node's premium difference to the (M,) sums total, in node
    order. Returns the new sums and, where the columns end with None, the
    pre-trade state the walk stopped at (see node_states), else None.
    Given that state as start, a walk of the nodes from there on adds the
    same floats in the same order as one walk of all the columns. start
    None is a flat book.

    Under volume recovery the premium is a function of the volume alone,
    premium_by_volume: each node is priced by one premium_by_volume_array
    call on its volume, the walk forms no offset, and its state is (E,
    premium_by_volume(E)). So a model-1 cost may differ from the
    composition premium(offset(E)) that impact_cost takes by a few ulps
    per node. Under spread recovery the walk runs on the offset D, its
    native variable, and its state is (E, D, premium(D)).

    total and start are only read. The sums are one array of this
    walk's own, into which each node's difference is added in place; a
    walk of no trade returns total itself.
    """
    resumed = start is not None
    with np.errstate(all="ignore"):
        if params.mode is Resilience.VOLUME:
            # node_states reads D only through its map of E: given
            # premium_by_volume_array, its D lists are the premiums
            e_pre, low, _, high, _ = node_states(
                params, columns, shape.volume_array, shape.premium_by_volume_array, start)
            state = (e_pre[-1], low[-1]) if len(low) > len(high) else None
        else:
            e_pre, d_pre, _, d_post, _ = node_states(
                params, columns, shape.volume_array, shape.offset_array, start)
            low = [shape.premium_array(d) for d in d_pre[resumed:]]
            if resumed:
                low.insert(0, start[2])
            high = map(shape.premium_array, d_post)
            state = (e_pre[-1], d_pre[-1], low[-1]) if len(d_pre) > len(d_post) else None
        sums = None
        for pre, step in zip(low, high):
            # each post-trade premium is an array of this walk's own
            step -= pre
            if sums is None:  # the first node's sums, total + step, in step
                sums = np.add(total, step, out=step)
            else:
                sums += step
    return (total if sums is None else sums), state


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
    _, d_pre, _, d_post, runs = walk(params, shape, as_trades(strategy))
    return _gradient(params, shape, d_pre, d_post, runs)


def _gradient(params: MarketParams, shape: Shape, d_pre, d_post, runs) -> np.ndarray:
    """The backward recursion of analytic_gradient over a walk that holds
    its runs once (see dynamics.node_states).

    Every step is g <- c (g - D_{n+1}) + Dp_n, with c = a under volume
    recovery and a f(D_{n+1}) / f(Dp_n) under spread recovery (floating
    addition commutes, so this is the recursion as written above). A
    walked node that stands for k nodes after it as well holds k steps
    whose inputs (D_{n+1}, Dp_n) are its own offsets, bit for bit: they
    share one c, and once such a step returns the g it found, the rest
    of them return it too, so that g stands for them and is filled in by
    np.repeat. g must be nonzero for equal to mean equal bits.
    """
    a = params.decay
    volume_mode = params.mode is Resilience.VOLUME
    density = shape.density
    held = [0] * len(d_post)  # the further nodes each walked node stands for
    for i, k in runs:
        held[i] = k
    out = []  # g per node, from node N down, each value once per stretch
    fills = []  # (j, k): out[j] also stands for the k nodes before it
    for j in range(len(d_post) - 1, -1, -1):
        post = d_post[j]
        if out:  # the step into the last node walked node j stands for
            d_next = d_pre[j + 1]
            # left to right, as a f(d_next) / f(post)
            c = a if volume_mode else a * density(d_next) / density(post)
            g = c * (g - d_next) + post
        else:
            g = post
        out.append(g)
        left = held[j]
        if left:
            d_next = d_pre[j]
            c = a if volume_mode else a * density(d_next) / density(post)
            while left:
                left -= 1
                g_new = c * (g - d_next) + post
                if g_new == g and g:
                    fills.append((len(out) - 1, left + 1))
                    break
                out.append(g_new)
                g = g_new
    out.reverse()
    if not fills:
        return np.array(out)
    reps = np.ones(len(out), dtype=np.intp)
    for j, k in fills:
        reps[-1 - j] += k
    return np.repeat(out, reps)


def cost_and_gradient(params: MarketParams, shape: Shape, strategy) -> tuple[float, np.ndarray]:
    """(impact_cost, analytic_gradient) of one schedule from one walk."""
    _, d_pre, _, d_post, runs = walk(params, shape, as_trades(strategy))
    return _impact(shape, d_pre, d_post, runs), _gradient(params, shape, d_pre, d_post, runs)


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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def cost_report(
    params: MarketParams, shape: Shape, strategy, a0: float = 0.0
) -> CostReport:
    if not math.isfinite(a0):
        raise InvalidParam(f"unaffected ask a0 must be finite, got {a0}")
    trades = as_trades(strategy)
    _, d_pre, _, d_post, runs = walk(params, shape, trades)
    # per-trade cash adds the two premiums in turn, as order_cost does
    high = expand([shape.premium(d) for d in d_post], runs)
    low = expand([shape.premium(d) for d in d_pre], runs)
    per = [a0 * x + hi - lo for x, hi, lo in zip(trades, high, low)]
    impact = math.fsum(hi - lo for hi, lo in zip(high, low))
    base = a0 * math.fsum(trades)
    resid, _ = _spread(_gradient(params, shape, d_pre, d_post, runs))
    return CostReport(
        total=base + impact,
        base_term=base,
        impact_term=impact,
        per_trade=tuple(per),
        lagrange_residual=resid,
    )
