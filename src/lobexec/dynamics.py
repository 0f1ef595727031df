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
maps it prices a batch of schedules (costs.impact_costs). Under volume
recovery the second variable is read off the volume alone, so that
batched walk carries the premium premium_by_volume(E) in its place and
forms no offset. A walk can stop at a node's pre-trade state and go on
from it later, so that the lattice referee walks the trades many of its
schedules share once. On floats it walks a run of equal trades whose
state has settled once (see node_states), which is most of an optimal
schedule, and holds that run as one node; expand writes a list of such
nodes out node by node.

This is the simplified single-state book: signed trades cancel, and it
is the state the cost functional and the optimizers work on.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass
from itertools import chain, repeat

from .errors import InvalidParam
from .shapes import Shape


class Resilience(enum.IntEnum):
    VOLUME = 1
    SPREAD = 2


def whole_number(value, least: int, what: str) -> int:
    """value as an int, where it is a real number >= least with no
    fractional part (10.0 is 10); anything else is InvalidParam."""
    if not (isinstance(value, numbers.Real) and value >= least and value % 1 == 0):
        raise InvalidParam(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


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
        if not 0.0 <= self.x0 < math.inf:
            raise InvalidParam(f"total size must be finite and >= 0, got {self.x0}")
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParam(f"horizon must be finite and positive, got {self.horizon}")
        steps = whole_number(self.steps, 1, "steps")
        if not 0.0 < self.rho < math.inf:
            raise InvalidParam(f"resilience rate must be finite and positive, got {self.rho}")
        try:
            mode = Resilience(self.mode)
        except ValueError:
            raise InvalidParam(f"resilience mode must be 1 (volume) or 2 (spread), "
                               f"got {self.mode!r}") from None
        # stored as an int, so that a count given as 10.0 indexes as 10
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "mode", mode)

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
    def one_minus_a(self) -> float:
        """1 - a = -expm1(-rho tau), to full relative precision as rho tau
        goes to 0, where 1 - decay cancels."""
        return -math.expm1(-self.rho * self.tau)


@dataclass(frozen=True)
class TrajectoryPoint:
    n: int
    t: float
    volume_pre: float
    offset_pre: float
    volume_post: float
    offset_post: float


def node_states(params: MarketParams, trades, volume, offset, start=None):
    """Pre- and post-trade volumes and offsets at each node of a trade run.

    The one recursion of the simplified book: the book starts flat, each
    trade moves the volume and the offset follows through offset, and
    between trades the mode's native variable decays by params.decay
    while the other is recomputed. The maps are the shape's scalar ones
    with a float per trade, or its array ones with an (M,) column per
    node, which runs M schedules at once. Returns the lists (E_pre,
    D_pre, E_post, D_post), indexed by walked node, and runs.

    A walk can stop and go on later from where it stopped, and the two
    walks compute what one walk would, bit for bit. On a last trade of
    None it stops at that node's pre-trade state: the node gets its E_pre
    and D_pre, and no post-trade values. start says where a walk goes on
    from: a stopped node's pre-trade state as (E, D, ...), which meets
    the first trade as it is; what follows E and D is the caller's to
    keep (under spread recovery premium_steps keeps the premium at D
    there).

    Under volume recovery D is read off E alone, through offset, and
    volume is never called: any map of the volume may stand for offset,
    and the D lists then hold its values. premium_steps passes
    premium_by_volume_array there, so its model-1 walk carries (E,
    premium) and forms no offset.

    On a list or tuple of float trades, runs of equal trades are walked
    once. The step from one node to the next is a pure function of the
    state (E, D) it starts from and of the trade. So once a step returns
    the state it found, and the trades after it equal the one it used,
    each of those steps returns that state again, bit for bit, and the
    maps are not called there. Equal floats are equal bits except 0.0 and
    -0.0, so the trade and the state must also be nonzero. The lists hold
    such a run once, and runs holds (i, k) for each entry i that stands
    for the k nodes after it as well (expand writes them out). (M,)
    columns never skip, so their runs is empty.
    """
    a = params.decay
    volume_mode = params.mode is Resilience.VOLUME
    n, end = 0, len(trades)
    listed = end and isinstance(trades, (list, tuple)) and isinstance(trades[0], float)
    e_pre, d_pre, e_post, d_post, runs = [], [], [], [], []
    e, d = (0.0, 0.0) if start is None else start[:2]  # flat, or where a walk stopped
    x_prev = None
    while n < end:
        x = trades[n]
        if n:
            if volume_mode:
                e = a * e
                d = offset(e)
            else:
                d = a * d
                e = volume(d)
        e_pre.append(e)
        d_pre.append(d)
        if x is None:
            break
        e = e + x
        d = offset(e)
        e_post.append(e)
        d_post.append(d)
        if (listed and x == x_prev and e == e_post[-2] and d == d_post[-2]
                and 0.0 not in (x, e, d)):
            k = equal_run(trades, n + 1)
            runs.append((len(e_post) - 1, k))
            n += k
        x_prev = x
        n += 1
    return e_pre, d_pre, e_post, d_post, runs


def expand(values, runs):
    """A list of walked values with each run's value repeated for the
    nodes it stands for: one value per node (see node_states)."""
    if not runs:
        return values
    counts = [1] * len(values)
    for i, k in runs:
        counts[i] += k
    return list(chain.from_iterable(map(repeat, values, counts)))


def equal_run(values, start: int) -> int:
    """How many entries of a list or tuple, from index start on, equal
    the one before start without a break."""
    x = values[start - 1]
    first = values.index(x)
    stop = first + values.count(x)
    try:
        values.index(x, stop)
    except ValueError:
        # every x lies in values[first:stop], which has room for nothing
        # else: the run, found without copying the list
        return stop - start
    rest = values[start:]
    k = rest.count(x)
    if rest[:k].count(x) != k:  # x comes back after the run ends
        k = 0
        while rest[k] == x:
            k += 1
    return k


def walk(params: MarketParams, shape: Shape, trades):
    """node_states on plain floats through the shape's scalar maps.

    Trades is a sequence (a list, a tuple or an array row) of length
    steps+1; it is read in place. The lists hold each run of repeated
    nodes once, and runs says where (see node_states).
    """
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
    *states, runs = walk(params, shape, trades)
    tau = params.tau
    return [
        TrajectoryPoint(n, n * tau, *state)
        for n, state in enumerate(zip(*(expand(values, runs) for values in states)))
    ]


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
