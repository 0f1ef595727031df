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
passes, which is why the solvers refuse shapes that fail it: on such
shapes the root equation can have several solutions and picking one
silently can cost real money (the counterexample shape demonstrates it).

The scalar equations are solved by Brent's method on (eps, X0 - eps)
with a geometric subdivision fallback; both endpoints have provably
opposite signs for valid shapes.

The block book admits closed forms for everything, including the
continuous-trading limit, and the square-root family admits a closed
form for xi0 under volume recovery; both are kept as independent
references for the root path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .costs import Strategy, lagrange_residual
from .dynamics import MarketParams, Resilience
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
        return {
            "root_residual": self.root_residual,
            "lagrange_residual": self.lagrange_residual,
            "lagrange_mean": self.lagrange_mean,
            "validation": self.validation.to_dict() if self.validation else None,
        }


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


def _build_schedule(params: MarketParams, shape: Shape, xi0: float,
                    intermediate: float, residual: float,
                    report: ValidationReport | None) -> OptimalSchedule:
    n = params.steps
    last = params.x0 - xi0 - (n - 1) * intermediate
    trades = [xi0] + [intermediate] * (n - 1) + [last]
    if min(trades) <= 0.0:
        raise PreconditionFailed(
            f"computed schedule is not strictly positive (min trade {min(trades)}); "
            "model assumptions do not hold at these parameters",
            report,
        )
    strat = Strategy(tuple(trades))
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


def solve_model1(
    params: MarketParams,
    shape: Shape,
    *,
    skip_validation: bool = False,
    coverage: float = 2.0,
) -> OptimalSchedule:
    """Optimal schedule under volume recovery."""
    p = replace(params, mode=Resilience.VOLUME)
    if not p.x0 > 0.0:
        raise InvalidParam("solver needs a positive total size")
    a, n, x0 = p.decay, p.steps, p.x0
    report = None
    if not skip_validation:
        report = validate_model1(shape, a, x0, coverage=coverage)
        if report.reason == "offset_not_finite":
            raise OutOfDomain(f"offset overflows at volume {report.witness}")
        if not report.ok:
            raise PreconditionFailed(
                f"h1 injectivity scan failed at volume {report.witness}", report
            )

    def gap(y: float) -> float:
        return volume_recovery_gap(shape, a, y) - (1.0 - a) * shape.offset(
            x0 - n * y * (1.0 - a)
        )

    eps = 1e-12 * x0
    xi0 = bracketed_root(gap, eps, x0 - eps)
    return _build_schedule(p, shape, xi0, xi0 * (1.0 - a), abs(gap(xi0)), report)


def solve_model2(
    params: MarketParams,
    shape: Shape,
    *,
    skip_validation: bool = False,
    coverage: float = 2.0,
) -> OptimalSchedule:
    """Optimal schedule under spread recovery.

    With skip_validation the root search runs on unvalidated shapes;
    on such shapes the root need not be unique or optimal, which is
    exactly what the counterexample study demonstrates.
    """
    p = replace(params, mode=Resilience.SPREAD)
    if not p.x0 > 0.0:
        raise InvalidParam("solver needs a positive total size")
    a, n, x0 = p.decay, p.steps, p.x0
    report = None
    if not skip_validation:
        report = validate_model2(shape, a, x0, coverage=coverage)
        if not report.ok:
            raise PreconditionFailed(
                f"h2 scan failed ({report.reason}) at offset {report.witness}", report
            )

    def gap(y: float) -> float:
        x = shape.offset(y)
        return spread_recovery_gap(shape, a, x) - shape.offset(
            x0 - n * (y - shape.volume(a * x))
        )

    eps = 1e-12 * x0
    xi0 = bracketed_root(gap, eps, x0 - eps)
    intermediate = xi0 - shape.volume(a * shape.offset(xi0))
    return _build_schedule(p, shape, xi0, intermediate, abs(gap(xi0)), report)


def solve(params: MarketParams, shape: Shape, **kwargs) -> OptimalSchedule:
    """Dispatch on params.mode."""
    if params.mode is Resilience.VOLUME:
        return solve_model1(params, shape, **kwargs)
    return solve_model2(params, shape, **kwargs)


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
    if int(n_steps) != n_steps or n_steps < 1:
        raise InvalidParam(f"steps must be an integer >= 1, got {n_steps}")
    n = float(n_steps)
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

    def to_dict(self) -> dict:
        return {
            "initial_block": self.initial_block,
            "rate": self.rate,
            "final_block": self.final_block,
            "root_residual": self.root_residual,
        }


def continuous_limit(
    mode: Resilience, shape: Shape, x0: float, rho: float, horizon: float
) -> ContinuousLimit:
    """Limit schedule as the number of trades grows.

    Volume recovery: solve F^{-1}(X0 - rho T y) = F^{-1}(y) + y/f(F^{-1}(y));
    the rate is rho y* and the final block X0 - y*(1 + rho T).
    Spread recovery: with x* = F^{-1}(y*) solving
    F^{-1}(X0 - rho T x f(x)) = x (1 + f(x)/(f(x) + x f'(x))),
    the rate is rho x* f(x*).
    """
    if not x0 > 0.0 or not rho > 0.0 or not horizon > 0.0:
        raise InvalidParam("need x0 > 0, rho > 0, horizon > 0")
    mode = Resilience(mode)
    rt = rho * horizon

    if mode is Resilience.VOLUME:

        def gap(y: float) -> float:
            x = shape.offset(y)
            return x + y / shape.density(x) - shape.offset(x0 - rt * y)

    else:

        def gap(y: float) -> float:
            x = shape.offset(y)
            f = shape.density(x)
            den = shape.premium_curvature(x)
            if den <= 0.0:
                raise InvalidParam(
                    f"premium is not convex at offset {x}; no spread-recovery limit"
                )
            return x * (1.0 + f / den) - shape.offset(x0 - rt * x * f)

    eps = 1e-12 * x0
    y_star = bracketed_root(gap, eps, x0 - eps)
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
