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
very small N. It scores the lattice in blocks of consecutive points with
the batched walk of impact_costs. Each prefix of N - 1 trades is walked
once per search, before the blocks that score its points, on into the
last free trade's node: its pre-trade state and the premium there. Under
volume recovery that state is the volume and its premium, as the walk
prices each node by its volume and forms no offset; under spread
recovery it is the volume, the offset and the premium. Each point goes
on from that state with its last two trades. Only the points whose
batched cost lies in a narrow band above the least cost seen are
rescored with the scalar impact_cost, so its answer is still the scalar
lattice minimum, bit for bit.
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
from .dynamics import MarketParams, whole_number
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
# lattice points per batched block, and prefixes per chunk of the prefix
# walk: each array of a block or a chunk stays near 128 kB, so the
# search's memory does not grow with the lattice (a whole 301^2 plane at
# once peaked at 8-11 MB). glibc gives the heap back after a block and
# grows it again for the next: a search at N = 2 on the certify books
# takes 280-720 minor page faults, since the array maps work in arrays
# of their own (970-1500 when each made three or four temporaries per
# result). Blocks of 2^12 points took none, but the search 13.1 ms
# against 10.5 with those maps, in Python's overhead per block
_SLAB_POINTS = 1 << 14


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
    for _ in range(max_iter):
        p = -gamma * hg
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
            gamma = sy / yhy
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
    bounded at N = 3. The lattice is then scored in
    lattice order, in blocks of at most 2^14 consecutive points: whole
    rows of the last free trade's values after a run of a chunk's
    prefixes, each taking its prefixes' walked sums and states. Each
    point goes on from that state by its last two trades, so its batched
    cost is the sum impact_costs forms, node by node in the same order.
    The blocks' arrays are allocated afresh, and the heap that glibc
    trims after each block is grown again: at N = 2 (301^2 points on the
    benchmark's books) a search takes 280-720 minor page faults.
    A point is rescored with impact_cost, its tail recomputed as x0 -
    fsum(head), when its batched cost lies within a relative band of 1e-9
    above the lower of the block's least batched cost and the best
    rescored cost so far; the first strict improvement wins. The two
    costs differ by a few ulps, far less than the band, so the answer is
    the first lattice point of least impact_cost, bit for bit, as a
    point-by-point scan finds it, however the blocks and chunks fall.
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
    # a block is rows prefixes (the first N - 1 trades, in lattice order)
    # by width values of the last free trade; past 2^14 values a side, a
    # block is one prefix and 2^14 of its values
    rows = max(1, _SLAB_POINTS // size)
    width = min(size, _SLAB_POINTS)
    prefixes = size ** (params.steps - 1)
    best_x, best_f = None, math.inf
    for first in range(0, prefixes, _SLAB_POINTS):
        chunk = np.arange(first, min(first + _SLAB_POINTS, prefixes))
        at = np.unravel_index(chunk, (size,) * (params.steps - 1)) if params.steps > 1 else ()
        heads = pts[np.array(at, dtype=np.intp).reshape(params.steps - 1, chunk.size)]
        # each prefix of the chunk walked once for all its blocks, into the
        # last free trade's node: its pre-trade state and the premium
        # there (N = 1 has no prefix: the state is the flat book's floats)
        walked, state = premium_steps(params, shape, [*heads, None], np.zeros(chunk.size))
        state = tuple(np.broadcast_to(v, chunk.size) for v in state)
        # a tail is x0 less its head summed in order: the prefix, then the last free trade
        psum = heads.sum(axis=0)
        for r0 in range(0, chunk.size, rows):
            for v0 in range(0, size, width):
                last = pts[v0:v0 + width]
                # exact for N <= 2; at N = 3 within an ulp of fsum, far inside the slack
                tails = (x0 - (psum[r0:r0 + rows, None] + last)).ravel()
                keep = np.flatnonzero((tails >= lo - slack) & (tails <= hi + slack))
                row, col = np.divmod(keep, last.size)
                row += r0
                cost, _ = premium_steps(params, shape, (last[col], tails[keep]),
                                        walked[row], tuple(v[row] for v in state))
                cost[~np.isfinite(cost)] = np.inf
                # a point more than the band above this can be neither the
                # block's least scalar cost nor better than the best so far
                bound = min(cost.min(initial=math.inf), best_f)
                if bound == math.inf:
                    continue
                for i in np.flatnonzero(cost <= bound + _RESCORE_BAND * abs(bound)):
                    head = [*heads[:, row[i]], last[col[i]]]
                    x = head + [x0 - math.fsum(head)]
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
