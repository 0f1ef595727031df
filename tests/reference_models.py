"""Reference models of the book and the cost, written apart from lobexec's
one walk (dynamics.node_states) and kept for the tests only.

The simplified single-state book steps a SimplifiedState per trade: a
trade moves the eaten volume and the offset follows, and between trades
the mode's native variable decays by exp(-rho s) while the other is
recomputed. The full two-sided book keeps independent ask and bid states:
buys eat the ask side only, sells the bid side only. It brackets the
simplified book trade by trade (bid volume <= simplified volume <= ask
volume). order_cost prices one order from its offsets, and
impact_cost_gform prices a schedule through the volume potential G
(premium as a function of volume), each model's recursion unrolled on its
own. The tests check lobexec's walk, replay and cost functionals against
these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from lobexec import InvalidParam, MarketParams, Resilience, Shape
from lobexec.costs import as_trades


@dataclass(frozen=True)
class SimplifiedState:
    """One-sided book state: eaten volume and the matching price offset."""

    volume: float
    offset: float

    @staticmethod
    def initial() -> "SimplifiedState":
        return SimplifiedState(0.0, 0.0)

    @staticmethod
    def from_volume(shape: Shape, volume: float) -> "SimplifiedState":
        return SimplifiedState(volume, shape.offset(volume))

    @staticmethod
    def from_offset(shape: Shape, offset: float) -> "SimplifiedState":
        return SimplifiedState(shape.volume(offset), offset)


def apply_order(state: SimplifiedState, shape: Shape, x: float) -> SimplifiedState:
    """Instantaneous jump from a trade of x shares (signed)."""
    return SimplifiedState.from_volume(shape, state.volume + x)


def decay(
    state: SimplifiedState, shape: Shape, mode: Resilience, rho: float, s: float
) -> SimplifiedState:
    """Recovery over a quiet interval of length s >= 0.

    The mode's native variable is scaled by exp(-rho s) exactly, the
    other recomputed, so decay(s1) then decay(s2) composes to decay(s1+s2)
    up to roundoff in the exponential itself.
    """
    if s < 0.0:
        raise InvalidParam(f"decay interval must be >= 0, got {s}")
    factor = math.exp(-rho * s)
    if Resilience(mode) is Resilience.VOLUME:
        return SimplifiedState.from_volume(shape, factor * state.volume)
    return SimplifiedState.from_offset(shape, factor * state.offset)


@dataclass(frozen=True)
class BookState:
    """Two-sided state: ask side holds E >= 0, bid side E <= 0."""

    ask: SimplifiedState
    bid: SimplifiedState

    @staticmethod
    def initial() -> "BookState":
        return BookState(SimplifiedState.initial(), SimplifiedState.initial())


def apply_order_book(state: BookState, shape: Shape, x: float) -> BookState:
    if x > 0.0:
        return BookState(apply_order(state.ask, shape, x), state.bid)
    if x < 0.0:
        return BookState(state.ask, apply_order(state.bid, shape, x))
    return state


def decay_book(
    state: BookState, shape: Shape, mode: Resilience, rho: float, s: float
) -> BookState:
    return BookState(
        decay(state.ask, shape, mode, rho, s),
        decay(state.bid, shape, mode, rho, s),
    )


def replay_book(
    params: MarketParams, shape: Shape, trades
) -> list[tuple[int, BookState, BookState]]:
    """Two-sided replay; yields (n, pre, post) book states per node."""
    trades = list(trades)
    if len(trades) != params.steps + 1:
        raise InvalidParam(
            f"expected {params.steps + 1} trades, got {len(trades)}"
        )
    state = BookState.initial()
    out = []
    for n, x in enumerate(trades):
        if n > 0:
            state = decay_book(state, shape, params.mode, params.rho, params.tau)
        pre = state
        state = apply_order_book(state, shape, x)
        out.append((n, pre, state))
    return out


def order_cost(shape: Shape, d_pre: float, d_post: float, a0: float = 0.0) -> float:
    """Cash for a single order moving the offset d_pre -> d_post."""
    x = shape.volume(d_post) - shape.volume(d_pre)
    return a0 * x + shape.premium(d_post) - shape.premium(d_pre)


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
