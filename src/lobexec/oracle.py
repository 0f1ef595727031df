"""Brute-force certification of schedules, independent of the solver.

minimize_cost eliminates the last trade through the volume constraint
and descends from several starts: the uniform split, everything at once
at t0, and random Dirichlet splits. Each step is the block book's
inverse Hessian, in closed form from the decay and N, applied to the
gradient and rescaled after every step, with Armijo backtracking from
the unit step: L-BFGS with no stored pairs (Nocedal & Wright, Numerical
Optimization, 2nd ed., Algorithm 7.4). That map is applied in O(N) and
never stored. A start whose first cost is not finite lies off the book;
it is dropped and counted. The descent touches the cost functional and
its gradient only; none of the solver's characteristic maps appear here,
so agreement between the two routes is evidence, not circularity.

grid_search exhaustively enumerates a lattice of feasible schedules for
very small N, by branch and bound (Land & Doig, Econometrica 28, 1960).
Each prefix of N - 1 trades is walked once per search with the batched
walk of impact_costs, on into the last free trade's node: its pre-trade
state and the premium there. Under volume recovery that state is the
volume and its premium, as the walk prices each node by its volume and
forms no offset; under spread recovery it is the volume, the offset and
the premium. A tile, one prefix and a run of values of the last free
trade, gets a lower bound on its points' costs from that state; only the
tiles whose bound does not rule them out are scored, each point going on
from the state with its last two trades. Only the points whose batched
cost lies in a narrow band above the least cost seen are rescored with
the scalar impact_cost, so its answer is still the scalar lattice
minimum, bit for bit.
gradient_check compares the analytic gradient against central finite
differences. Together the three give the certification triangle used by
the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    Strategy,
    analytic_gradient,
    as_trades,
    cost_and_gradient,
    impact_cost,
    premium_steps,
)
from .dynamics import MarketParams, Resilience, node_states, whole_number
from .errors import BudgetExceeded, InvalidParam, OutOfDomain
from .shapes import Shape

# a start has converged where its reduced gradient is at most this share
# of its full gradient, the two read at the same point, so the test is
# free of the book's and x0's scale. Over every start of the test suite
# and the benchmark the share reads at most 7.8e-7 (a book so deep that
# its gradient is subnormal), 3.3e-7 otherwise; a descent stalled short
# of the optimum (x0 = 1e-158 on the block book) reads 0.12
_GRAD_TOL = 1e-5
# the descent stops once a step lowers the cost by no more than _FTOL
# relative: a few ulps, so it runs on until the cost stops moving (within
# 5e-9 x0 of the schedule on the acceptance cases)
_FTOL = 1e-15
# Armijo's sufficient-decrease constant
_ARMIJO = 1e-4
# the first step moves the largest coordinate by this share of x0
_FIRST_STEP = 0.01
# relative width of the band of batched lattice costs that are rescored
# with impact_cost; the two differ by about 1e-15 relative near a minimum
_RESCORE_BAND = 1e-9
# lattice points per batched block, prefixes per chunk of the prefix
# walk, and tiles per block of bounds (half as many, as the bound walks
# both ends of each): each array stays near 128 kB, so the search's
# memory does not grow with the lattice (a whole 301^2 plane at once
# peaked at 8-11 MB). glibc gives the heap back after a block and grows
# it again for the next: scoring every point, a search at N = 2 on the
# certify books took 280-720 minor page faults; with the tiles that the
# bound rules out skipped it takes 150-330 (0-80 in some runs: the count
# follows the allocator's history)
_SLAB_POINTS = 1 << 14
# lattice values of the last free trade per tile, the unit the lattice's
# lower bound rules out: on the certify books 32 ran about as fast, and 8
# and 64 up to twice as slow
_TILE = 16


@dataclass(frozen=True)
class OracleResult:
    best_strategy: Strategy
    best_cost: float
    starts: int
    converged: bool
    grid_resolution: float | None = None
    # descent starts dropped because their first cost was not finite
    off_book: int = 0


def _safe_cost(params, shape, x) -> float:
    try:
        c = impact_cost(params, shape, x)
    except (OverflowError, ValueError, OutOfDomain):
        return math.inf
    return c if math.isfinite(c) else math.inf


def _block_inverse_hessian(params: MarketParams):
    """The block book's reduced inverse Hessian, up to scale, as a map.

    The block cost is x'Mx/(2q), M_ij = a^|i-j|, and (1 - a^2) M^-1 = T =
    tridiag(-a; 1, 1 + a^2, ..., 1 + a^2, 1; -a). With x = Cz + x0 e_N,
    C = [I; -1'], (1 - a^2)(C'MC)^-1 = T11 - c uu', c = b/(2 + (N - 1) b):
    T11 is T less its last row and column, b = 1 - a, u = (1, b, ..., b).
    It is positive definite for every a in [0, 1] and reads no shape;
    the map applies it in O(N).
    """
    n, a, b = params.steps, params.decay, params.one_minus_a
    diag = np.full(n, 1.0 + a * a)
    diag[0] = 1.0
    u = np.full(n, b)
    u[0] = 1.0
    c = b / (2.0 + (n - 1) * b)

    def h0(v: np.ndarray) -> np.ndarray:
        out = diag * v
        out[1:] -= a * v[:-1]
        out[:-1] -= a * v[1:]
        out -= (c * float(u @ v)) * u
        return out

    return h0


def _descend(params: MarketParams, shape: Shape, z0: np.ndarray, h0, max_iter: int):
    """Descent along -gamma h0(g) in the reduced coordinates (last trade
    eliminated): L-BFGS with no stored pairs (Nocedal & Wright, Numerical
    Optimization, 2nd ed., Algorithm 7.4, m = 0).

    The first trial step moves its largest coordinate by _FIRST_STEP x0;
    each accepted step with s.y > 0 and y'h0(y) > 0 rescales to
    gamma = s.y / y'h0(y). It stops when the cost stops moving. converged
    is a finite cost with max |reduced gradient| <= _GRAD_TOL max |full
    gradient| (an all-zero gradient, as at x0 = 0, has converged).
    """
    x0, n_free = params.x0, params.steps

    def full(z):
        return z.tolist() + [x0 - float(z.sum())]

    def value_grad(z):
        """The cost, its reduced gradient and its full gradient at z."""
        try:
            f, g = cost_and_gradient(params, shape, full(z))
        except (OverflowError, ValueError, ZeroDivisionError, OutOfDomain):
            # an iterate off the book: past the saturation or the table,
            # or where a density underflows to 0 in the gradient
            return math.inf, None, None
        if not math.isfinite(f):
            return math.inf, None, None
        return f, g[:n_free] - g[n_free], g

    z = np.array(z0, dtype=float)
    f, g, g_full = value_grad(z)
    if g is None:
        return full(z), f, False
    # h0 once per accepted step: hg = h0(g) serves for the next direction,
    # and h0(y) = h0(g_new) - h0(g) by linearity
    hg = h0(g)
    size = float(np.max(np.abs(hg)))
    gamma = _FIRST_STEP * x0 / size if size > 0.0 else 0.0
    # on a book so deep that h0(g) is subnormal gamma overflows: the step
    # is then formed from h0(g) / size until gamma is rescaled, and hg
    # keeps its own scale for y'h0(y)
    scale = None
    if gamma == math.inf:
        gamma, scale = _FIRST_STEP * x0, size
    for _ in range(max_iter):
        p = -gamma * (hg if scale is None else hg / scale)
        slope = float(g @ p)
        # Armijo backtracking from the unit step. Along a convex line the
        # cost falls by at most -step * slope, so once that is within the
        # stopping threshold no shorter step can move it
        step, floor = 1.0, _FTOL * abs(f)
        while -step * slope > floor:
            z_new = z + step * p
            f_new, g_new, g_full_new = value_grad(z_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = z_new - z, g_new - g
        moved = f - f_new > floor
        z, f, g, g_full = z_new, f_new, g_new, g_full_new
        if not moved:
            break
        hg_new = h0(g)
        # y'h0(y) underflows to 0 on a book so deep that the gradient is
        # near 1e-300; gamma then stays as it was
        sy, yhy = float(s @ y), float(y @ (hg_new - hg))
        hg = hg_new
        if sy > 0.0 and yhy > 0.0:
            gamma, scale = sy / yhy, None
    converged = float(np.max(np.abs(g))) <= _GRAD_TOL * float(np.max(np.abs(g_full)))
    return full(z), f, converged


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

    A start whose first cost is not finite lies off the book (past its
    depth, or where an offset overflows): it is dropped and counted in
    off_book. converged reports whether every other start met the
    stopping criterion; the best point is returned either way, never
    silently dropped. No start priced finitely is InvalidParam, and so
    is a count of starts or a seed that is not a whole number in range.
    """
    starts = whole_number(starts, 1, "number of starts (at least one start)")
    seed = whole_number(seed, 0, "seed")
    h0 = _block_inverse_hessian(params)
    best_x, best_f = None, math.inf
    all_ok, off_book = True, 0
    for z0 in _starting_points(params, starts, seed):
        x, f, ok = _descend(params, shape, z0, h0, max_iter)
        if f == math.inf:  # the descent only moves to lower costs
            off_book += 1
            continue
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
        off_book=off_book,
    )


def _tile_bounds(params: MarketParams, shape: Shape, walked, state, x_lo, x_hi, t_lo, t_hi):
    """A lower bound on the cost of each tile's points: its prefix's
    walked cost plus interval bounds on the last two nodes.

    A tile's last free trades x lie in [x_lo, x_hi] and its tails t in
    [t_lo, t_hi]; walked and state are its prefix's sums and pre-trade
    state (E, ..., G(E)) at node N - 1, as premium_steps returns them.
    With G = premium o F^-1 the premium as a function of the volume, the
    last two nodes cost G(E + x) - G(E) + G(E' + t) - G(E'), where E' =
    R(E + x) is the next pre-trade volume: a v under volume recovery,
    F(a F^-1(v)) under spread recovery. G' = F^-1 has the sign of v, so G
    falls to 0 at 0 and rises on both sides: over an interval it is least
    at the point nearest 0 and largest at an end. R is nondecreasing, as
    F and F^-1 are. So

        G(E + x) - G(E) >= G(clamp(0; E + x_lo, E + x_hi)) - G(E),
        G(E' + t) - G(E') >= G(clamp(0; E'_lo + t_lo, E'_hi + t_hi))
                             - max(G(E'_lo), G(E'_hi)),

    with E'_lo = R(E + x_lo) and E'_hi = R(E + x_hi). This needs only a
    positive density, which every Shape has, and no map of the solver.
    Both ends of x go on through node_states, one trade and the decay
    after it, priced as the walk prices them, so rounding moves a bound
    by a few ulps of the premiums. A NaN bound, as past a finite book's
    depth, never prunes.
    """
    volume_mode = params.mode is Resilience.VOLUME
    # under volume recovery the walk's second variable is the premium itself
    price = (lambda d: d) if volume_mode else shape.premium_array
    with np.errstate(all="ignore"):
        e_pre, d_pre, e_post, d_post, _ = node_states(
            params, (np.concatenate((x_lo, x_hi)), None), shape.volume_array,
            shape.premium_by_volume_array if volume_mode else shape.offset_array,
            (np.tile(state[0], 2), None))
        u, e_next = e_post[0].reshape(2, -1), e_pre[1].reshape(2, -1)
        g_u, g_next = (price(d).reshape(2, -1) for d in (d_post[0], d_pre[1]))
        # node N - 1: G at the post-trade volume nearest 0, less G(E)
        node = np.where((u[0] <= 0.0) & (u[1] >= 0.0), 0.0, g_u.min(axis=0)) - state[-1]
        # node N: G at the post-trade volume nearest 0, less G at the
        # higher of its two pre-trade ends
        near = np.clip(0.0, e_next[0] + t_lo, e_next[1] + t_hi)
        return walked + node + (shape.premium_by_volume_array(near) - g_next.max(axis=0))


def grid_search(params: MarketParams, shape: Shape, resolution: float) -> OracleResult:
    """Exhaustive lattice search over feasible schedules, N <= 3.

    Coordinates range over [-0.25 x0, 1.25 x0] with the given spacing;
    the last trade is implied by the constraint and must land in the
    same box. Budget-capped at 1e8 lattice points.

    The prefixes, the first N - 1 trades, are walked once per search,
    through the array maps, into the last free trade's node: its
    pre-trade state and the premium there, two columns (E, premium) under
    volume recovery and three (E, D, premium) under spread recovery (see
    premium_steps). They are walked in lattice order, in chunks of at
    most 2^14 prefixes (one chunk for N <= 2), so the memory stays
    bounded at N = 3. N = 1 has no prefix: its state is the flat book's.

    A tile is one prefix and a run of _TILE consecutive lattice values of
    the last free trade. Its lower bound (see _tile_bounds) is the
    prefix's walked cost plus interval bounds on the last two nodes; a
    chunk's tiles are bounded in lattice order, 2^13 at a time. A tile is
    never scored where its bound lies above the cut, best + 1e-9 |best|:
    each of its points then costs more than the lattice minimum by far
    more than rounding. best starts at the scalar impact_cost of the
    lattice point nearest the uniform split x0/(N + 1), which, being a
    point of the lattice, bounds its minimum from above (where that cost
    is not finite nothing is pruned until a finite point has been
    rescored), and falls to each better point rescored.

    The tiles that remain are scored in lattice order, in blocks of at
    most 2^14 points: each point goes on from its prefix's state by its
    last two trades, so its batched cost is the sum impact_costs forms,
    node by node in the same order. A point is rescored with impact_cost,
    its tail recomputed as x0 - fsum(head), when its batched cost lies
    within the band above the lower of the block's least batched cost and
    the best rescored cost so far; the first strict improvement wins. The
    two costs differ by a few ulps, far less than the band, so the answer
    is the first lattice point of least impact_cost, bit for bit, as a
    point-by-point scan finds it, however the tiles, blocks and chunks
    fall. On the benchmark's books at N = 2 (301^2 points, rho = 20) a
    search scores 544-6400 points.
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
    size = len(pts)
    # the lattice point nearest the uniform split, where its tail lies in
    # the box (formed as the blocks form it): its cost bounds the lattice
    # minimum from above, so it seeds the cut
    h = float(pts[min(max(round((x0 / (params.steps + 1) - lo) / resolution), 0), size - 1)])
    seed, tail = [h] * params.steps, x0 - ((params.steps - 1) * h + h)
    f = math.inf
    if lo - slack <= tail <= hi + slack:
        f = _safe_cost(params, shape, seed + [x0 - math.fsum(seed)])
    cut = f + _RESCORE_BAND * abs(f)
    # the tiles of a row: runs of _TILE lattice values of the last free
    # trade, the last run padded with NaN, whose tails fall outside the box
    tiled = np.append(pts, np.full(-size % _TILE, np.nan)).reshape(-1, _TILE)
    per_row = len(tiled)
    x_lo, x_hi = tiled[:, 0], np.nanmax(tiled, axis=1)
    # tiles bounded at a time (the bound walks both ends of each) and
    # tiles scored at a time, so that no array exceeds _SLAB_POINTS
    span, group = max(1, _SLAB_POINTS // 2), max(1, _SLAB_POINTS // _TILE)
    prefixes = size ** (params.steps - 1)
    best_x, best_f = None, math.inf
    for first in range(0, prefixes, _SLAB_POINTS):
        chunk = np.arange(first, min(first + _SLAB_POINTS, prefixes))
        at = np.unravel_index(chunk, (size,) * (params.steps - 1)) if params.steps > 1 else ()
        heads = pts[np.array(at, dtype=np.intp).reshape(params.steps - 1, chunk.size)]
        # each prefix of the chunk walked once for all its tiles, into the
        # last free trade's node: its pre-trade state and the premium
        # there (N = 1 has no prefix: the state is the flat book's floats)
        walked, state = premium_steps(params, shape, [*heads, None], np.zeros(chunk.size))
        state = tuple(np.broadcast_to(v, chunk.size) for v in state)
        # a tail is x0 less its head summed in order: the prefix, then the last free trade
        psum = heads.sum(axis=0)
        tiles = chunk.size * per_row
        for t0 in range(0, tiles, span):
            row, col = np.divmod(np.arange(t0, min(t0 + span, tiles)), per_row)
            t_lo = np.maximum(x0 - (psum[row] + x_hi[col]), lo - slack)
            t_hi = np.minimum(x0 - (psum[row] + x_lo[col]), hi + slack)
            bound = _tile_bounds(params, shape, walked[row], tuple(v[row] for v in state),
                                 x_lo[col], x_hi[col], t_lo, t_hi)
            bound[t_lo > t_hi] = np.inf  # no tail of the tile lies in the box
            # each pass drops the tiles that the cut, as it falls, rules out
            live = np.arange(bound.size)
            while (live := live[~(bound[live] > cut)]).size:
                take, live = live[:group], live[group:]
                # the points of the tiles taken, in lattice order
                block = tiled[col[take]]
                # exact for N <= 2; at N = 3 within an ulp of fsum, far inside the slack
                tails = (x0 - (psum[row[take], None] + block)).ravel()
                keep = np.flatnonzero((tails >= lo - slack) & (tails <= hi + slack))
                rows, last = row[take][keep // _TILE], block.ravel()[keep]
                cost, _ = premium_steps(params, shape, (last, tails[keep]),
                                        walked[rows], tuple(v[rows] for v in state))
                cost[~np.isfinite(cost)] = np.inf
                # a point more than the band above this can be neither the
                # block's least scalar cost nor better than the best so far
                least = min(cost.min(initial=math.inf), best_f)
                if least == math.inf:
                    continue
                for i in np.flatnonzero(cost <= least + _RESCORE_BAND * abs(least)):
                    head = [*heads[:, rows[i]], last[i]]
                    x = head + [x0 - math.fsum(head)]
                    f = _safe_cost(params, shape, x)
                    if f < best_f:
                        best_x, best_f = x, f
                        cut = min(cut, f + _RESCORE_BAND * abs(f))
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
