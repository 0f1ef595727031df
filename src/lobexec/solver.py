"""Optimal execution schedules for both resilience models.

Each model reduces to a scalar root problem for the first trade's
post-trade state. Under volume recovery the unknown is the post-trade
volume xi0, characterized by

    F^{-1}(X0 - N xi0 (1-a)) = h1(xi0) / (1-a),

after which every intermediate trade equals xi0 (1-a) and the remainder
goes to the last trade. Under spread recovery the unknown is again a
volume xi0 (the post-trade offset is F^{-1}(xi0)), characterized by

    F^{-1}(X0 - N [xi0 - F(a F^{-1}(xi0))]) = h2(F^{-1}(xi0)),

with intermediate trades xi0 - F(a F^{-1}(xi0)). Both right-hand sides
are strictly increasing exactly when the corresponding validator scan
passes, which is why solve refuses shapes that fail it: on such shapes
the root equation can have several solutions and picking one silently
can cost real money (the counterexample shape demonstrates it). solve
is one driver for both: the mode's validator, the root of its gap, and
the schedule built from that root.

Each scalar equation is solved by Brent's method on the part of
(eps, X0 - eps), eps = 1e-12 X0, where its gap is defined: where y and
the rest X0 - N m(y) lie inside the book's volume bounds (-F_bid, F_ask),
m(y) the intermediate trade. On a book of infinite depth that is the
whole interval; on a finite depth it is the window between the two
volumes where the rest reaches a bound, and where it is empty the book
is refused as too shallow for X0. On valid shapes the gap increases, so
wherever it has a root its ends differ in sign, and bracketed_root goes
straight to Brent's method without its geometric subdivision fallback.

The block book admits closed forms for everything, including the
continuous-trading limit, and the square-root family admits a closed
form for xi0 under volume recovery; both are kept as independent
references for the root path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .costs import Strategy, lagrange_residual
from .dynamics import MarketParams, Resilience, whole_number
from .errors import InvalidParam, OutOfDomain, PreconditionFailed
from .numerics import bracketed_root
from .shapes import (
    BlockShape,
    Shape,
    ValidationReport,
    spread_recovery_gap,
    validate_model1,
    validate_model2,
    volume_recovery_gap,
)


@dataclass(frozen=True)
class SolverDiagnostics:
    root_residual: float
    lagrange_residual: float
    lagrange_mean: float
    validation: ValidationReport | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OptimalSchedule:
    strategy: Strategy
    xi0: float
    model: Resilience
    diagnostics: SolverDiagnostics

    @property
    def trades(self) -> tuple[float, ...]:
        return self.strategy.trades

    def to_dict(self) -> dict:
        return {
            "model": int(self.model),
            "xi0": self.xi0,
            "trades": list(self.trades),
            "diagnostics": self.diagnostics.to_dict(),
        }


def _root_bracket(x0: float) -> tuple[float, float]:
    """(eps, x0 - eps) with eps = 1e-12 x0, where each root is searched.

    An x0 that is not positive and finite, or so small that eps
    underflows to 0, leaves no bracket and is refused.
    """
    eps = 1e-12 * x0
    if not 0.0 < eps < x0 - eps:
        raise InvalidParam(f"x0 = {x0} leaves no root bracket (1e-12 x0, x0 - 1e-12 x0): "
                           "it must be positive and finite, and 1e-12 x0 must not underflow")
    return eps, x0 - eps


# a finite depth is pulled this far inside, relative, as the validators'
# scan range pulls it (see shapes._scan_range)
_INSIDE = 1.0 - 1e-12
# bracketed_root stops within its xtol, 1e-13 of the bracket's top, of the
# root, on either side: an end it finds is moved inside by twice that
_END_TOL = 2e-13


def _root_window(shape: Shape, x0: float, lo: float, hi: float, scale: float,
                 trade=None) -> tuple[float, float]:
    """The part of the root bracket (lo, hi) where the gap is defined.

    The gap at y takes the offsets of y and of the rest
    x0 - scale trade(y), so both must lie inside the book's volume bounds
    (-F_bid, F_ask), each pulled 1e-12 relative inside. trade(y) is the
    intermediate trade, increasing in y where the validator passed; None
    is y itself (under volume recovery, with scale N (1 - a)). On a book
    of infinite depth that holds everywhere, and (lo, hi) comes back as
    it is. Otherwise y < F_ask, and the window's ends are where the rest
    reaches a bound:

        (x0 - F_ask)/scale < trade(y) < (x0 + F_bid)/scale,

    in closed form where trade is None, else each by a root of trade,
    moved inside by _END_TOL of the bracket's top. Where that leaves no
    interval, x0 is past what the book holds over the schedule, its
    capacity F_ask + scale trade(F_ask) (with hi in place of F_ask where
    hi is lower), and the book is refused as book_too_shallow with the
    capacity as witness.
    """
    bid, ask = shape.volume_bounds()
    if bid == -math.inf and ask == math.inf:
        return lo, hi
    bid, ask = _INSIDE * bid, _INSIDE * ask
    hi = min(hi, ask)
    top = hi if trade is None else trade(hi)
    capacity = ask + scale * top
    low, high = (x0 - ask) / scale, (x0 - bid) / scale
    if low < top:
        if trade is None:
            lo, hi = max(lo, low), min(hi, high)
        else:
            if low > trade(lo):
                lo = bracketed_root(lambda y: trade(y) - low, lo, hi) + _END_TOL * hi
            if high < top:
                hi = bracketed_root(lambda y: trade(y) - high, lo, hi) - _END_TOL * hi
    if not (low < top and lo < hi):
        raise PreconditionFailed(
            f"x0 = {x0:.6g} is past the {capacity:.6g} shares the book holds over this schedule",
            ValidationReport(False, "book_too_shallow", capacity,
                             detail=f"the book's volume bounds are ({bid:.6g}, {ask:.6g})"),
        )
    return lo, hi


def _build_schedule(params: MarketParams, shape: Shape, xi0: float,
                    intermediate: float, residual: float,
                    report: ValidationReport | None) -> OptimalSchedule:
    n = params.steps
    last = params.x0 - xi0 - (n - 1) * intermediate
    # the least trade, in the trades' order, without a scan of all N + 1
    low = min(xi0, intermediate, last) if n > 1 else min(xi0, last)
    if low <= 0.0:
        raise PreconditionFailed(
            f"computed schedule is not strictly positive (min trade {low}); "
            "model assumptions do not hold at these parameters",
            report,
        )
    # three float() calls rather than one per trade, and one list of N + 1
    # (concatenating tuples copies them: 2.2 ms instead of 1.0 at N = 1e5)
    trades = [float(intermediate)] * (n + 1)
    trades[0], trades[-1] = float(xi0), float(last)
    strat = Strategy.of_floats(tuple(trades))
    resid, mean = lagrange_residual(params, shape, strat)
    return OptimalSchedule(
        strategy=strat,
        xi0=xi0,
        model=params.mode,
        diagnostics=SolverDiagnostics(
            root_residual=residual,
            lagrange_residual=resid,
            lagrange_mean=mean,
            validation=report,
        ),
    )


def solve(
    params: MarketParams,
    shape: Shape,
    *,
    skip_validation: bool = False,
) -> OptimalSchedule:
    """Optimal schedule under params.mode.

    With skip_validation the root search runs on unvalidated shapes;
    on such shapes the root need not be unique or optimal, which is
    exactly what the counterexample study demonstrates.
    """
    a, n, x0 = params.decay, params.steps, params.x0
    lo, hi = _root_bracket(x0)
    volume = params.mode is Resilience.VOLUME
    report = None
    if not skip_validation:
        report = (validate_model1 if volume else validate_model2)(shape, a, x0)
        if report.reason == "offset_not_finite":
            raise OutOfDomain(f"offset overflows at volume {report.witness}")
        if not report.ok:
            what = (f"h1 injectivity scan failed at volume {report.witness}" if volume
                    else f"h2 scan failed ({report.reason}) at offset {report.witness}")
            raise PreconditionFailed(what, report)

    if volume:
        lo, hi = _root_window(shape, x0, lo, hi, n * (1.0 - a))

        def gap(y: float) -> float:
            return volume_recovery_gap(shape, a, y) - (1.0 - a) * shape.offset(
                x0 - n * y * (1.0 - a)
            )
    else:
        def trade(y: float) -> float:
            return y - shape.volume(a * shape.offset(y))

        lo, hi = _root_window(shape, x0, lo, hi, n, trade)

        def gap(y: float) -> float:
            x = shape.offset(y)
            return spread_recovery_gap(shape, a, x) - shape.offset(
                x0 - n * (y - shape.volume(a * x))
            )

    xi0 = bracketed_root(gap, lo, hi)
    intermediate = xi0 * (1.0 - a) if volume else trade(xi0)
    return _build_schedule(params, shape, xi0, intermediate, abs(gap(xi0)), report)


def solve_block(params: MarketParams, q: float) -> OptimalSchedule:
    """Closed-form optimum for the block book (both models agree).

    xi0 = xiN = X0 / ((N-1)(1-a) + 2), intermediates (X0 - 2 xi0)/(N-1).
    """
    if not params.x0 > 0.0:
        raise InvalidParam("solver needs a positive total size")
    shape = BlockShape(q)
    a, n, x0 = params.decay, params.steps, params.x0
    xi0 = x0 / ((n - 1) * (1.0 - a) + 2.0)
    intermediate = (x0 - 2.0 * xi0) / (n - 1) if n > 1 else 0.0
    return _build_schedule(params, shape, xi0, intermediate, 0.0, None)


# ---------------------------------------------------------------------------
# square-root family closed form
# ---------------------------------------------------------------------------


def sqrt_shape_xi0(q: float, mu: float, x0: float, n_steps: int, a: float) -> float:
    """Closed-form xi0 under volume recovery for f = q / sqrt(1 + mu|x|).

    Root of b [N^2(1-a)^2 - (1+a+a^2)] y^2
          - [P + 2 b X0 N (1-a)] y + X0 (1 + b X0) = 0,
    with b = mu/(4q) and P = N+1-a(N-1), taken in the rationalized form
    2C / (-B + sqrt(B^2 - 4AC)) so the evaluation stays stable as the
    quadratic coefficient crosses zero (mu -> 0 reduces to the block
    formula exactly).
    """
    if not q > 0.0 or mu < 0.0 or not x0 > 0.0:
        raise InvalidParam("need q > 0, mu >= 0, x0 > 0")
    if not (0.0 <= a < 1.0):
        raise InvalidParam(f"decay factor must lie in [0,1), got {a}")
    n = float(whole_number(n_steps, 1, "steps"))
    if mu == 0.0:
        return x0 / ((n - 1.0) * (1.0 - a) + 2.0)
    b = mu / (4.0 * q)
    p = n + 1.0 - a * (n - 1.0)
    a2 = b * (n * n * (1.0 - a) ** 2 - (1.0 + a + a * a))
    b1 = -(p + 2.0 * b * x0 * n * (1.0 - a))
    c0 = x0 * (1.0 + b * x0)
    # discriminant in its manifestly positive form
    disc = p * p + 4.0 * b * x0 * (
        n * (1.0 - a * a) + (1.0 + a + a * a) * (1.0 + b * x0)
    )
    return 2.0 * c0 / (-b1 + math.sqrt(disc))


# ---------------------------------------------------------------------------
# continuous-trading limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousLimit:
    """N -> infinity schedule: block trades at 0 and T plus a constant
    absolutely continuous rate in between."""

    initial_block: float
    rate: float
    final_block: float
    root_residual: float


def continuous_limit(
    mode: Resilience, shape: Shape, x0: float, rho: float, horizon: float
) -> ContinuousLimit:
    """Limit schedule as the number of trades grows.

    Volume recovery: solve F^{-1}(X0 - rho T y) = F^{-1}(y) + y/f(F^{-1}(y));
    the rate is rho y* and the final block X0 - y*(1 + rho T).
    Spread recovery: with x* = F^{-1}(y*) solving
    F^{-1}(X0 - rho T x f(x)) = x (1 + f(x)/(f(x) + x f'(x))),
    the rate is rho x* f(x*).

    Under volume recovery the root is bracketed on its window, as in
    solve, with scale rho T. Under spread recovery it keeps the whole
    bracket, and on a finite depth bracketed_root's fallback scan finds
    the part where the gap is defined: x f(x) increases only where the
    premium is convex, which the gap checks at each point it takes. On a
    premium that is concave further out (the power law at alpha > 1) a
    window from inverting x f(x) would stop short of the concave part, so
    the gap would never see it and the limit would not be refused.
    """
    if not rho > 0.0 or not horizon > 0.0:
        raise InvalidParam("need rho > 0, horizon > 0")
    lo, hi = _root_bracket(x0)
    mode = Resilience(mode)
    rt = rho * horizon

    if mode is Resilience.VOLUME:
        lo, hi = _root_window(shape, x0, lo, hi, rt)

        def gap(y: float) -> float:
            x = shape.offset(y)
            return x + y / shape.density(x) - shape.offset(x0 - rt * y)

    else:

        def gap(y: float) -> float:
            x = shape.offset(y)
            # f / (f + x f') as 1 / r: r stays finite where f and f + x f' underflow
            r = shape.relative_curvature(x)
            if r <= 0.0:
                raise InvalidParam(
                    f"premium is not convex at offset {x}; no spread-recovery limit"
                )
            return x * (1.0 + 1.0 / r) - shape.offset(x0 - rt * x * shape.density(x))

    y_star = bracketed_root(gap, lo, hi)
    if mode is Resilience.VOLUME:
        rate = rho * y_star
        final = x0 - y_star * (1.0 + rt)
    else:
        x_star = shape.offset(y_star)
        rate = rho * x_star * shape.density(x_star)
        final = x0 - y_star - rate * horizon
    return ContinuousLimit(
        initial_block=y_star,
        rate=rate,
        final_block=final,
        root_residual=abs(gap(y_star)),
    )
