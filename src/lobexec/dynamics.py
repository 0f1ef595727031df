"""Deterministic book dynamics between equidistant trading times.

Two resilience models share one bookkeeping rule: a trade of x shares
moves the cumulative eaten volume E by x (and the price offset D with it,
through E = F(D)); between trades the book recovers exponentially at
rate rho, either in volume (E decays) or in spread (D decays). State is
stored in both variables but every update is computed from the variable
native to the mode, so repeated decays never accumulate F round trips.

node_states is that recursion, written once: on plain floats through a
shape's scalar maps it is walk, which the cost functionals, their
gradients and replay all read, and on (M,) columns through the array
maps it prices a batch of schedules (costs.impact_costs).

The full two-sided book keeps independent ask and bid states: buys eat
the ask side only, sells the bid side only. The simplified single-state
book lets signed trades cancel; it is the state the cost functional and
the optimizers work on, and it brackets the two-sided book trade by
trade (bid volume <= simplified volume <= ask volume).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

from .errors import InvalidParam
from .shapes import Shape


class Resilience(enum.IntEnum):
    VOLUME = 1
    SPREAD = 2


@dataclass(frozen=True)
class MarketParams:
    """Problem size and clock: buy x0 shares over steps+1 trades placed
    at equidistant times on [0, horizon], with resilience rate rho."""

    x0: float
    horizon: float
    steps: int
    rho: float
    mode: Resilience = Resilience.VOLUME

    def __post_init__(self):
        if self.x0 < 0.0:
            raise InvalidParam(f"total size must be >= 0, got {self.x0}")
        if not self.horizon > 0.0:
            raise InvalidParam(f"horizon must be positive, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise InvalidParam(f"steps must be an integer >= 1, got {self.steps}")
        if not self.rho > 0.0:
            raise InvalidParam(f"resilience rate must be positive, got {self.rho}")
        object.__setattr__(self, "mode", Resilience(self.mode))

    @property
    def tau(self) -> float:
        return self.horizon / self.steps

    @property
    def decay(self) -> float:
        """a = exp(-rho tau), the per-step recovery factor, in [0,1).

        It underflows to 0, full recovery between trades, once rho tau
        exceeds about 745.
        """
        return math.exp(-self.rho * self.tau)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(k * self.tau for k in range(self.steps + 1))


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


@dataclass(frozen=True)
class TrajectoryPoint:
    n: int
    t: float
    volume_pre: float
    offset_pre: float
    volume_post: float
    offset_post: float


def node_states(params: MarketParams, trades, volume, offset):
    """Pre- and post-trade volumes and offsets at each node of a trade run.

    The one recursion of the simplified book: the book starts flat, each
    trade moves the volume and the offset follows through offset, and
    between trades the mode's native variable decays by params.decay
    while the other is recomputed. The maps are the shape's scalar ones
    with a float per trade, or its array ones with an (M,) column per
    node, which runs M schedules at once. Returns the lists (E_pre,
    D_pre, E_post, D_post), indexed by node.
    """
    a = params.decay
    volume_mode = params.mode is Resilience.VOLUME
    states = e_pre, d_pre, e_post, d_post = [], [], [], []
    e = d = 0.0  # the book starts flat
    for n, x in enumerate(trades):
        if n > 0 and volume_mode:
            e = a * e
            d = offset(e)
        elif n > 0:
            d = a * d
            e = volume(d)
        e_pre.append(e)
        d_pre.append(d)
        e = e + x
        d = offset(e)
        e_post.append(e)
        d_post.append(d)
    return states


def walk(params: MarketParams, shape: Shape, trades):
    """node_states on plain floats through the shape's scalar maps.

    Trades must have length steps+1.
    """
    trades = list(trades)
    if len(trades) != params.steps + 1:
        raise InvalidParam(
            f"expected {params.steps + 1} trades, got {len(trades)}"
        )
    return node_states(params, trades, shape.volume, shape.offset)


def replay(params: MarketParams, shape: Shape, trades) -> list[TrajectoryPoint]:
    """Run a trade list through the simplified book at the node times.

    Returns one point per node with the pre/post state. Trades must have
    length steps+1.
    """
    tau = params.tau
    return [
        TrajectoryPoint(n, n * tau, *state)
        for n, state in enumerate(zip(*walk(params, shape, trades)))
    ]


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


def trajectory_to_csv(traj, path) -> None:
    """Write node states as ``n,t,E_pre,D_pre,E_post,D_post``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t", "E_pre", "D_pre", "E_post", "D_post"])
        for p in traj:
            writer.writerow(
                [
                    p.n,
                    f"{p.t:.17g}",
                    f"{p.volume_pre:.17g}",
                    f"{p.offset_pre:.17g}",
                    f"{p.volume_post:.17g}",
                    f"{p.offset_post:.17g}",
                ]
            )
