"""Order-book shape functions and their integral transforms.

A shape is a strictly positive density f of shares per unit price offset
from the unaffected best quote. Everything downstream needs four maps:

    density(x)   f(x), shares per unit price at offset x
    volume(x)    F(x) = int_0^x f(u) du, shares between the quote and x
    offset(y)    F^{-1}(y), the offset at which cumulative volume hits y
    premium(x)   int_0^x u f(u) du, cash paid above the quote to sweep to x

plus premium_by_volume(y) = premium(offset(y)), the sweep premium as a
function of executed volume. Its derivative is offset(y), which is what
makes it the natural cost potential for the execution problem. The
premium's second derivative f(x) + x f'(x), premium_curvature, decides
whether the spread-recovery continuous limit exists; each family gives
it in closed form, so it does not cancel where f and x f' nearly do.
The limit reads it as relative_curvature, (f + x f')/f, which keeps its
sign and stays finite where both underflow far from the quote.

Built-in families carry closed forms. The sell side is handled by the
antisymmetric extension F(x) = -F(-x) (densities are even in the offset),
so volume and premium work for signed arguments throughout. Tabulated
densities integrate their linear interpolant exactly, segment by segment.

The module also hosts the preflight validators for the two resilience
models: scans that check the injectivity of the characteristic maps and
the growth condition that makes the schedule characterization sound.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, OutOfDomain

_EXP_CAP = 700.0  # exp overflows doubles just above this
# terms of the power-law premium's series near the quote: at the
# crossover offset they leave about 2e-16 relative for |alpha| <= 50
_SERIES_TERMS = 20


def _quiet(array_map):
    """Run an array map on a float array with numpy's floating-point
    warnings off: the NaN and inf it returns are answers, not accidents."""

    @functools.wraps(array_map)
    def wrapper(self, x):
        with np.errstate(all="ignore"):
            return array_map(self, np.asarray(x, dtype=float))

    return wrapper


class Shape:
    """Interface for order-book densities. Subclasses fill in the maps
    on the nonnegative branch; signed arguments are handled here."""

    name = "shape"

    # positive-branch primitives ------------------------------------

    def _density(self, t: float) -> float:
        raise NotImplementedError

    def _volume(self, t: float) -> float:
        raise NotImplementedError

    def _offset(self, v: float) -> float:
        raise NotImplementedError

    def _premium(self, t: float) -> float:
        raise NotImplementedError

    def _premium_curvature(self, t: float) -> float:
        raise NotImplementedError

    # the same maps on float arrays, elementwise, with numpy ufuncs: NaN
    # where the scalar map raises OutOfDomain, inf where it overflows

    def _density_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _volume_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _offset_array(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _premium_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # signed API ------------------------------------------------------

    def density(self, x: float) -> float:
        return self._density(abs(x))

    def volume(self, x: float) -> float:
        """F(x); odd in x."""
        return math.copysign(self._volume(abs(x)), x) if x != 0.0 else 0.0

    def offset(self, y: float) -> float:
        """F^{-1}(y); odd in y."""
        return math.copysign(self._offset(abs(y)), y) if y != 0.0 else 0.0

    def premium(self, x: float) -> float:
        """int_0^x u f(u) du; even in x and nonnegative."""
        return self._premium(abs(x))

    def premium_by_volume(self, y: float) -> float:
        return self.premium(self.offset(y))

    def premium_curvature(self, x: float) -> float:
        """f(x) + x f'(x), the premium's second derivative; even in x."""
        return self._premium_curvature(abs(x))

    def relative_curvature(self, x: float) -> float:
        """(f(x) + x f'(x)) / f(x), the premium's curvature over the density.

        It has the curvature's sign, since f > 0, and is the reciprocal
        of the ratio f / (f + x f') the spread-recovery limit needs. A
        family whose f underflows far from the quote gives it in closed
        form, where it stays finite.
        """
        return self.premium_curvature(x) / self.density(x)

    # signed array API: density, volume, offset and premium elementwise

    @_quiet
    def density_array(self, x) -> np.ndarray:
        return self._density_array(np.abs(x))

    @_quiet
    def volume_array(self, x) -> np.ndarray:
        return np.where(x != 0.0, np.copysign(self._volume_array(np.abs(x)), x), 0.0)

    @_quiet
    def offset_array(self, y) -> np.ndarray:
        return np.where(y != 0.0, np.copysign(self._offset_array(np.abs(y)), y), 0.0)

    @_quiet
    def premium_array(self, x) -> np.ndarray:
        return self._premium_array(np.abs(x))

    # domain ------------------------------------------------------------

    def volume_bounds(self) -> tuple[float, float]:
        """Reachable cumulative-volume range (lo, hi)."""
        return (-math.inf, math.inf)

    @property
    def unbounded_volume(self) -> bool:
        """Whether F(x) -> +/-inf as x -> +/-inf on the covered domain."""
        lo, hi = self.volume_bounds()
        return math.isinf(lo) and math.isinf(hi)


@dataclass(frozen=True)
class BlockShape(Shape):
    """Constant density q: the flat book, where both resilience models
    coincide and every optimum is available in closed form."""

    q: float
    name = "block"

    def __post_init__(self):
        if not self.q > 0.0:
            raise InvalidParam(f"block depth must be positive, got {self.q}")

    def _density(self, t):
        return self.q

    def _volume(self, t):
        return self.q * t

    def _offset(self, v):
        return v / self.q

    def _premium(self, t):
        return 0.5 * self.q * t * t

    def _premium_curvature(self, t):
        return self.q

    def _density_array(self, t):
        return np.full_like(t, self.q)

    # the closed forms above are polynomial, so they already map arrays
    _volume_array = _volume
    _offset_array = _offset
    _premium_array = _premium


@dataclass(frozen=True)
class PowerLawShape(Shape):
    """f(x) = q / (|x|+1)^alpha.

    alpha < 0 gives a book that deepens away from the quote, alpha > 0 one
    that thins out. For alpha > 1 the cumulative volume saturates at
    q/(alpha-1), so offsets only exist for volumes below that bound; the
    optimality guarantees need alpha <= 1.
    """

    q: float
    alpha: float
    name = "power"

    def __post_init__(self):
        if not self.q > 0.0:
            raise InvalidParam(f"power-law depth must be positive, got {self.q}")
        # near the quote the closed premium subtracts two terms of about t
        # to leave q t^2/2 (5e-4 relative off at t = 1e-6), so below the
        # crossover it is the Taylor series
        #   q t^2 sum_k binom(-alpha, k) t^k / (k + 2)
        #   = q (t^2/2 - alpha t^3/3 + alpha (alpha+1) t^4/8 - ...),
        # whose terms shrink like (|alpha| t)^k; past the crossover the
        # closed form is within 1e-14 relative
        coeffs, binom = [], 1.0
        for k in range(_SERIES_TERMS):
            coeffs.append(binom / (k + 2))
            binom *= -(self.alpha + k) / (k + 1)
        object.__setattr__(self, "_series", tuple(reversed(coeffs)))
        object.__setattr__(self, "_crossover", 0.5 / max(5.0, abs(self.alpha)))
        # past it the closed form subtracts 1 from (1+t)^p, p = 2 - alpha
        # and 1 - alpha, which cancels where the power is near 1, and the
        # 1/p in front magnifies the loss as p nears 0 (alpha near 1 or 2:
        # 1.4e-12 relative at alpha = 0.99). Below |p log1p(t)| = 0.5, i.e.
        # t < expm1(0.5/|p|), the term is expm1(p log1p(t)) instead; above
        # it the power is exact to rounding, while expm1 would magnify
        # log1p's rounding by |p log1p(t)|. alpha = 0, 1 and 2 have their
        # own closed forms; the array form recomputes the offsets below
        # _near_edge
        below = (0.0, 0.0) if self.alpha in (0.0, 1.0, 2.0) else tuple(
            math.expm1(min(0.5 / abs(p), _EXP_CAP)) for p in (2.0 - self.alpha, 1.0 - self.alpha))
        object.__setattr__(self, "_expm1_below", below)
        object.__setattr__(self, "_near_edge", max(self._crossover, *below))

    # a float ** that overflows raises OverflowError; each map returns
    # inf there instead, the limit it overflows toward and what numpy's **
    # gives in the array forms

    def _density(self, t):
        try:
            return self.q * (t + 1.0) ** (-self.alpha)
        except OverflowError:
            return math.inf

    def _volume(self, t):
        a = self.alpha
        if a == 1.0:
            return self.q * math.log1p(t)
        if a == 0.0:
            return self.q * t
        try:
            return self.q / (1.0 - a) * ((t + 1.0) ** (1.0 - a) - 1.0)
        except OverflowError:
            return math.inf

    def _offset(self, v):
        a = self.alpha
        if a == 1.0:
            e = v / self.q
            return math.expm1(e) if e <= _EXP_CAP else math.inf
        if a == 0.0:
            return v / self.q
        base = 1.0 + (1.0 - a) * v / self.q
        if base <= 0.0:
            # volume beyond the saturation bound q/(alpha-1)
            raise OutOfDomain(
                f"volume {v} exceeds the book's total depth (alpha={a}, q={self.q})"
            )
        try:
            return base ** (1.0 / (1.0 - a)) - 1.0
        except OverflowError:
            return math.inf

    def _near_quote(self, t):
        """The premium's series below the crossover, by Horner; t a float
        or an array."""
        s = 0.0
        for c in self._series:
            s = s * t + c
        return self.q * t * t * s

    def _premium(self, t):
        a, q, u = self.alpha, self.q, t + 1.0
        if a == 0.0:
            return 0.5 * q * t * t
        if t < self._crossover:
            return self._near_quote(t)
        if a == 1.0:
            return q * (t - math.log1p(t))
        if a == 2.0:
            return q * (math.log1p(t) + 1.0 / u - 1.0)
        b, c = 2.0 - a, 1.0 - a
        tb, tc = self._expm1_below
        try:
            ub = math.expm1(b * math.log1p(t)) if t < tb else u ** b - 1.0
            uc = math.expm1(c * math.log1p(t)) if t < tc else u ** c - 1.0
        except OverflowError:
            return math.inf
        return q * (ub / b - uc / c)

    def _premium_curvature(self, t):
        # q (1 + (1-alpha) t) / (1+t)^(alpha+1)
        return self._density(t) * self.relative_curvature(t)

    def relative_curvature(self, x):
        t = abs(x)
        return (1.0 + (1.0 - self.alpha) * t) / (t + 1.0)

    def _density_array(self, t):
        return self.q * (t + 1.0) ** (-self.alpha)

    def _volume_array(self, t):
        a = self.alpha
        if a == 1.0:
            return self.q * np.log1p(t)
        if a == 0.0:
            return self.q * t
        return self.q / (1.0 - a) * ((t + 1.0) ** (1.0 - a) - 1.0)

    def _offset_array(self, v):
        a = self.alpha
        if a == 1.0:
            e = v / self.q
            return np.where(e <= _EXP_CAP, np.expm1(e), np.inf)
        if a == 0.0:
            return v / self.q
        base = 1.0 + (1.0 - a) * v / self.q
        # NaN beyond the saturation bound, where the scalar map raises
        return np.where(base > 0.0, base ** (1.0 / (1.0 - a)) - 1.0, np.nan)

    def _premium_array(self, t):
        a, q, u = self.alpha, self.q, t + 1.0
        if a == 0.0:
            return 0.5 * q * t * t
        if a == 1.0:
            p = q * (t - np.log1p(t))
        elif a == 2.0:
            p = q * (np.log1p(t) + 1.0 / u - 1.0)
        else:
            p = q * ((u ** (2.0 - a) - 1.0) / (2.0 - a) - (u ** (1.0 - a) - 1.0) / (1.0 - a))
        p, t = np.array(p), np.asarray(t)
        band = (t >= self._crossover) & (t < self._near_edge)
        if band.any():
            p[band] = self._expm1_terms(t[band])
        near = t < self._crossover
        if near.any():
            p[near] = self._near_quote(t[near])
        return p

    def _expm1_terms(self, t):
        """The closed premium on an array of offsets between the crossover
        and _near_edge, with each term as _premium takes it."""
        b, c = 2.0 - self.alpha, 1.0 - self.alpha
        tb, tc = self._expm1_below
        lt = np.log1p(t)
        ub = np.where(t < tb, np.expm1(b * lt), (t + 1.0) ** b - 1.0)
        uc = np.where(t < tc, np.expm1(c * lt), (t + 1.0) ** c - 1.0)
        return self.q * (ub / b - uc / c)

    def volume_bounds(self):
        if self.alpha > 1.0:
            cap = self.q / (self.alpha - 1.0)
            return (-cap, cap)
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class SqrtShape(Shape):
    """f(x) = q / sqrt(1 + mu |x|), the family whose model-1 optimum has a
    closed form (see solver.sqrt_shape_xi0). mu = 0 degenerates to Block."""

    q: float
    mu: float
    name = "sqrt"

    def __post_init__(self):
        if not self.q > 0.0:
            raise InvalidParam(f"sqrt-shape depth must be positive, got {self.q}")
        if self.mu < 0.0:
            raise InvalidParam(f"sqrt-shape curvature must be >= 0, got {self.mu}")

    def _density(self, t):
        return self.q / math.sqrt(1.0 + self.mu * t)

    def _volume(self, t):
        # 2q/mu (sqrt(1+mu t) - 1) rationalized; exact at mu = 0 and stable
        # for mu*t near zero
        return 2.0 * self.q * t / (1.0 + math.sqrt(1.0 + self.mu * t))

    def _offset(self, v):
        # exact inverse: F^{-1}(v) = v/q + mu v^2 / (4 q^2), any mu >= 0
        return v / self.q + self.mu * v * v / (4.0 * self.q * self.q)

    def _premium(self, t):
        # q/mu^2 [(2/3)(r^3-1) - 2(r-1)] with r = sqrt(1+mu t) rewritten in
        # w = r-1 = mu t/(1+r): the bracket is 2w^2(1+w/3), so the mu^2
        # cancels and the expression stays exact down to mu = 0
        r = math.sqrt(1.0 + self.mu * t)
        w = self.mu * t / (1.0 + r)
        return 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)

    def _premium_curvature(self, t):
        # q (1 + mu t/2) / (1 + mu t)^(3/2)
        return self._density(t) * (1.0 + 0.5 * self.mu * t) / (1.0 + self.mu * t)

    def _density_array(self, t):
        return self.q / np.sqrt(1.0 + self.mu * t)

    def _volume_array(self, t):
        return 2.0 * self.q * t / (1.0 + np.sqrt(1.0 + self.mu * t))

    _offset_array = _offset

    def _premium_array(self, t):
        r = np.sqrt(1.0 + self.mu * t)
        w = self.mu * t / (1.0 + r)
        return 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)


@dataclass(frozen=True)
class CounterexampleShape(Shape):
    """Piecewise-linear density built to defeat the spread-recovery
    characteristic map when the decay factor per step is 1/n.

    f = n+1 near the quote, falls with slope -n^2/(n-1) on [1/n, 1], and
    is 1 beyond. The map h2 then takes the value (n^2-(n+1))/(-n) < 0 at
    x = 1, so it cannot be one-to-one and the spread-recovery root
    equation admits suboptimal solutions.
    """

    n: int
    name = "piecewise-ce"

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise InvalidParam(f"counterexample index must be an integer >= 2, got {self.n}")

    @property
    def _s(self) -> float:
        n = self.n
        return n * n / (n - 1.0)

    def _density(self, t):
        n = self.n
        if t < 1.0 / n:
            return n + 1.0
        if t <= 1.0:
            return (n + 1.0) - self._s * (t - 1.0 / n)
        return 1.0

    def _volume(self, t):
        n = self.n
        if t <= 1.0 / n:
            return (n + 1.0) * t
        if t <= 1.0:
            w = t - 1.0 / n
            return (n + 1.0) / n + (n + 1.0) * w - 0.5 * self._s * w * w
        return 0.5 * (n + 3.0) + (t - 1.0)

    def _offset(self, v):
        n = self.n
        v_knee = (n + 1.0) / n
        v_one = 0.5 * (n + 3.0)
        if v <= v_knee:
            return v / (n + 1.0)
        if v <= v_one:
            d = v - v_knee
            # smaller root of s/2 w^2 - (n+1) w + d = 0, rationalized
            w = 2.0 * d / ((n + 1.0) + math.sqrt((n + 1.0) ** 2 - 2.0 * self._s * d))
            return 1.0 / n + w
        return 1.0 + (v - v_one)

    def _premium(self, t):
        n = self.n
        t_knee = 1.0 / n
        if t <= t_knee:
            return 0.5 * (n + 1.0) * t * t
        p_knee = 0.5 * (n + 1.0) / (n * n)
        # f(u) = c - s u on the ramp, with c = (n+1) + s/n
        c = (n + 1.0) + self._s / n
        if t <= 1.0:
            return (
                p_knee
                + 0.5 * c * (t * t - t_knee * t_knee)
                - self._s / 3.0 * (t ** 3 - t_knee ** 3)
            )
        p1 = (
            p_knee
            + 0.5 * c * (1.0 - t_knee * t_knee)
            - self._s / 3.0 * (1.0 - t_knee ** 3)
        )
        return p1 + 0.5 * (t * t - 1.0)

    def _premium_curvature(self, t):
        n = self.n
        if t < 1.0 / n:
            return n + 1.0
        if t <= 1.0:
            return (n + 1.0) - self._s * (2.0 * t - 1.0 / n)
        return 1.0

    # the array forms evaluate every piece and select per element, so a
    # piece may see arguments outside its own range (the root below goes
    # NaN past v_one); np.select keeps only the piece the scalar takes

    def _density_array(self, t):
        n = self.n
        return np.select(
            [t < 1.0 / n, t <= 1.0], [n + 1.0, (n + 1.0) - self._s * (t - 1.0 / n)], 1.0
        )

    def _volume_array(self, t):
        n = self.n
        w = t - 1.0 / n
        return np.select(
            [t <= 1.0 / n, t <= 1.0],
            [(n + 1.0) * t, (n + 1.0) / n + (n + 1.0) * w - 0.5 * self._s * w * w],
            0.5 * (n + 3.0) + (t - 1.0),
        )

    def _offset_array(self, v):
        n = self.n
        v_knee = (n + 1.0) / n
        v_one = 0.5 * (n + 3.0)
        d = v - v_knee
        w = 2.0 * d / ((n + 1.0) + np.sqrt((n + 1.0) ** 2 - 2.0 * self._s * d))
        return np.select([v <= v_knee, v <= v_one], [v / (n + 1.0), 1.0 / n + w], 1.0 + (v - v_one))

    def _premium_array(self, t):
        n = self.n
        t_knee = 1.0 / n
        p_knee = 0.5 * (n + 1.0) / (n * n)
        c = (n + 1.0) + self._s / n
        p1 = (
            p_knee
            + 0.5 * c * (1.0 - t_knee * t_knee)
            - self._s / 3.0 * (1.0 - t_knee ** 3)
        )
        return np.select(
            [t <= t_knee, t <= 1.0],
            [
                0.5 * (n + 1.0) * t * t,
                p_knee
                + 0.5 * c * (t * t - t_knee * t_knee)
                - self._s / 3.0 * (t ** 3 - t_knee ** 3),
            ],
            p1 + 0.5 * (t * t - 1.0),
        )


class TabulatedShape(Shape):
    """Density given by (offset, density) samples, linearly interpolated.

    The knot grid must be strictly increasing, contain 0 in its hull, and
    carry positive densities. Volume and premium are the exact integrals
    of the interpolant, so a constant table reproduces BlockShape to
    roundoff. Evaluation outside the covered offsets (or volume beyond
    the covered mass) raises OutOfDomain: a table never certifies the
    unbounded-volume assumption, and volume_bounds() says what it covers.
    """

    name = "tabulated"

    def __init__(self, offsets, densities):
        x = np.asarray(offsets, dtype=float)
        f = np.asarray(densities, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise InvalidParam("tabulated shape needs matching 1-d offset/density arrays, >= 2 points")
        if not np.all(np.diff(x) > 0.0):
            raise InvalidParam("tabulated offsets must be strictly increasing")
        if not np.all(f > 0.0):
            raise InvalidParam("tabulated densities must be strictly positive")
        if not (x[0] <= 0.0 <= x[-1]):
            raise InvalidParam("tabulated offsets must straddle 0")
        self.knots = x
        self.dens = f
        slopes = np.diff(f) / np.diff(x)
        self._seg_slope = slopes
        # exact integrals of the interpolant, cumulative from the left edge
        seg_vol = 0.5 * (f[:-1] + f[1:]) * np.diff(x)
        cum = np.concatenate(([0.0], np.cumsum(seg_vol)))
        self._cum_vol_raw = cum
        # premium integrand u*f(u): cubic per segment, integrate exactly
        seg_prem = np.empty(x.size - 1)
        for i in range(x.size - 1):
            seg_prem[i] = self._seg_premium_raw(i, x[i + 1])
        self._cum_prem_raw = np.concatenate(([0.0], np.cumsum(seg_prem)))
        self._vol0 = self._cum_at(0.0)
        self._prem0 = self._prem_at(0.0)

    # raw (from left edge) helpers --------------------------------------

    def _seg_index(self, x: float) -> int:
        if x < self.knots[0] or x > self.knots[-1]:
            raise OutOfDomain(
                f"offset {x} outside tabulated range [{self.knots[0]}, {self.knots[-1]}]"
            )
        i = int(np.searchsorted(self.knots, x, side="right")) - 1
        return min(max(i, 0), self.knots.size - 2)

    def _seg_premium_raw(self, i: int, x: float) -> float:
        x0 = self.knots[i]
        c, m = self.dens[i], self._seg_slope[i]
        w = x - x0
        # int_{x0}^{x} u (c + m (u - x0)) du
        return c * (x * x - x0 * x0) / 2.0 + m * (
            (x ** 3 - x0 ** 3) / 3.0 - x0 * (x * x - x0 * x0) / 2.0
        )

    def _cum_at(self, x: float) -> float:
        i = self._seg_index(x)
        w = x - self.knots[i]
        return self._cum_vol_raw[i] + self.dens[i] * w + 0.5 * self._seg_slope[i] * w * w

    def _prem_at(self, x: float) -> float:
        i = self._seg_index(x)
        return self._cum_prem_raw[i] + self._seg_premium_raw(i, x)

    # signed API overrides (tables are not symmetric, so no |x| folding)

    def density(self, x: float) -> float:
        i = self._seg_index(x)
        return float(self.dens[i] + self._seg_slope[i] * (x - self.knots[i]))

    def volume(self, x: float) -> float:
        return self._cum_at(x) - self._vol0

    def offset(self, y: float) -> float:
        lo, hi = self.volume_bounds()
        if y < lo or y > hi:
            raise OutOfDomain(f"volume {y} outside covered mass [{lo}, {hi}]")
        target = y + self._vol0
        i = int(np.searchsorted(self._cum_vol_raw, target, side="right")) - 1
        i = min(max(i, 0), self.knots.size - 2)
        dv = target - self._cum_vol_raw[i]
        c, m = self.dens[i], self._seg_slope[i]
        disc = c * c + 2.0 * m * dv
        w = 2.0 * dv / (c + math.sqrt(max(disc, 0.0)))
        return float(self.knots[i] + w)

    def premium(self, x: float) -> float:
        # signed cumulative of u f(u) is already the right thing for x < 0
        return self._prem_at(x) - self._prem0

    def premium_curvature(self, x: float) -> float:
        # c + m (x - x_i) + x m on the segment from knot x_i
        i = self._seg_index(x)
        return float(self.dens[i] + self._seg_slope[i] * (2.0 * x - self.knots[i]))

    # signed array API: NaN outside the covered offsets or mass, where the
    # scalar maps raise OutOfDomain

    def _segments(self, edges, x):
        """Index of the segment holding each x, for the knots or the
        cumulative volumes at them as edges."""
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, self.knots.size - 2)

    @staticmethod
    def _covered(x, lo, hi, value):
        return np.where((x >= lo) & (x <= hi), value, np.nan)

    @_quiet
    def density_array(self, x) -> np.ndarray:
        i = self._segments(self.knots, x)
        f = self.dens[i] + self._seg_slope[i] * (x - self.knots[i])
        return self._covered(x, self.knots[0], self.knots[-1], f)

    @_quiet
    def volume_array(self, x) -> np.ndarray:
        i = self._segments(self.knots, x)
        w = x - self.knots[i]
        cum = self._cum_vol_raw[i] + self.dens[i] * w + 0.5 * self._seg_slope[i] * w * w
        return self._covered(x, self.knots[0], self.knots[-1], cum - self._vol0)

    @_quiet
    def offset_array(self, y) -> np.ndarray:
        lo, hi = self.volume_bounds()
        target = y + self._vol0
        i = self._segments(self._cum_vol_raw, target)
        dv = target - self._cum_vol_raw[i]
        c, m = self.dens[i], self._seg_slope[i]
        disc = c * c + 2.0 * m * dv
        w = 2.0 * dv / (c + np.sqrt(np.maximum(disc, 0.0)))
        return self._covered(y, lo, hi, self.knots[i] + w)

    @_quiet
    def premium_array(self, x) -> np.ndarray:
        i = self._segments(self.knots, x)
        prem = self._cum_prem_raw[i] + self._seg_premium_raw(i, x)
        return self._covered(x, self.knots[0], self.knots[-1], prem - self._prem0)

    def volume_bounds(self):
        return (
            float(self._cum_vol_raw[0] - self._vol0),
            float(self._cum_vol_raw[-1] - self._vol0),
        )


def load_tabulated_csv(path) -> TabulatedShape:
    """Read a shape table from CSV with header ``offset,density``."""
    offsets, dens = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["offset", "density"]:
            raise InvalidParam(f"{path}: expected header 'offset,density'")
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                offsets.append(float(row[0]))
                dens.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise InvalidParam(f"{path}: bad row {row!r}") from exc
    return TabulatedShape(offsets, dens)


# ---------------------------------------------------------------------------
# characteristic maps and preflight validators
# ---------------------------------------------------------------------------


def volume_recovery_gap(shape: Shape, a: float, y: float) -> float:
    """h1(y) = F^{-1}(y) - a F^{-1}(a y), the per-step cost slope under
    volume recovery with decay factor a per step."""
    return shape.offset(y) - a * shape.offset(a * y)


def spread_recovery_gap(shape: Shape, a: float, x: float) -> float:
    """h2(x) = x (f(x) - a^2 f(ax)) / (f(x) - a f(ax)), the analogous map
    under spread recovery, in offset space."""
    fx = shape.density(x)
    fax = shape.density(a * x)
    den = fx - a * fax
    if den == 0.0:
        return math.copysign(math.inf, x * (fx - a * a * fax))
    return x * (fx - a * a * fax) / den


def injectivity_margin(shape: Shape, a: float, y: float) -> float:
    """l(y) = f(F^{-1}(a y)) - a^2 f(F^{-1}(y)).

    Positivity for all y is equivalent to h1 being strictly increasing,
    which is what makes the volume-recovery root equation well posed.
    """
    return shape.density(shape.offset(a * y)) - a * a * shape.density(shape.offset(y))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str | None = None
    witness: float | None = None
    scan_lo: float = 0.0
    scan_hi: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": self.witness,
            "scan_lo": self.scan_lo,
            "scan_hi": self.scan_hi,
            "detail": self.detail,
        }


def _volume_scan_grid(shape: Shape, x0: float, coverage: float, points: int):
    """Log-spaced volume grids per sign, clamped to the covered mass."""
    hi = coverage * x0
    lo_mag = max(1e-9 * x0, 1e-300)
    vlo, vhi = shape.volume_bounds()
    margin = 1.0 - 1e-12
    pos_hi = min(hi, vhi * margin)
    neg_hi = min(hi, -vlo * margin)
    pos = np.geomspace(lo_mag, pos_hi, points) if pos_hi > lo_mag else np.array([])
    neg = -np.geomspace(lo_mag, neg_hi, points) if neg_hi > lo_mag else np.array([])
    clamped = pos_hi < hi or neg_hi < hi
    return pos, neg, clamped


def validate_model1(
    shape: Shape, a: float, x0: float, coverage: float = 2.0, points: int = 512
) -> ValidationReport:
    """Scan the working volume range for failures of l(y) > 0.

    A nonpositive margin anywhere means h1 is not one-to-one there, and
    the volume-recovery solver must refuse the shape. Where the offset
    overflows, the margin says nothing about the shape: the reason is
    then "offset_not_finite", a numeric failure.
    """
    if not (0.0 <= a < 1.0):
        raise InvalidParam(f"decay factor must lie in [0,1), got {a}")
    if not x0 > 0.0:
        raise InvalidParam(f"working size must be positive, got {x0}")
    pos, neg, clamped = _volume_scan_grid(shape, x0, coverage, points)
    detail = "scan clamped to covered mass" if clamped else ""
    for grid in (pos, neg):
        for y in grid:
            if not injectivity_margin(shape, a, float(y)) > 0.0:
                finite = math.isfinite(shape.offset(float(y)))
                return ValidationReport(
                    ok=False,
                    reason="h1_not_injective" if finite else "offset_not_finite",
                    witness=float(y),
                    scan_lo=float(neg[-1]) if neg.size else 0.0,
                    scan_hi=float(pos[-1]) if pos.size else 0.0,
                    detail=detail,
                )
    return ValidationReport(
        ok=True,
        scan_lo=float(neg[-1]) if neg.size else 0.0,
        scan_hi=float(pos[-1]) if pos.size else 0.0,
        detail=detail,
    )


def _growth_proxy(shape: Shape, a: float, x: float, samples: int = 33) -> float:
    """x^2 * min f over [a x, x] (or [x, a x] on the sell side)."""
    lo, hi = (a * x, x) if x >= 0.0 else (x, a * x)
    ts = np.linspace(lo, hi, samples)
    return x * x * min(shape.density(float(t)) for t in ts)


def validate_model2(
    shape: Shape, a: float, x0: float, coverage: float = 2.0, points: int = 512
) -> ValidationReport:
    """Scan for failures of the spread-recovery assumptions.

    Checks, in offset space over the working range: the one-sided gap
    f(x) - a f(ax) stays positive, h2 has the sign of x and is strictly
    increasing along the grid, and the growth proxy x^2 inf f over [ax,x]
    keeps rising toward the scan edges (a necessary sample of the
    explosion condition, not a proof of it).
    """
    if not (0.0 <= a < 1.0):
        raise InvalidParam(f"decay factor must lie in [0,1), got {a}")
    if not x0 > 0.0:
        raise InvalidParam(f"working size must be positive, got {x0}")
    pos_v, neg_v, clamped = _volume_scan_grid(shape, x0, coverage, points)
    detail = "scan clamped to covered mass" if clamped else ""
    scan_lo = shape.offset(float(neg_v[-1])) if neg_v.size else 0.0
    scan_hi = shape.offset(float(pos_v[-1])) if pos_v.size else 0.0

    def fail(reason, witness):
        return ValidationReport(
            ok=False, reason=reason, witness=float(witness),
            scan_lo=scan_lo, scan_hi=scan_hi, detail=detail,
        )

    for vgrid in (pos_v, neg_v):
        prev_h2 = 0.0
        prev_x = 0.0
        for v in vgrid:
            x = shape.offset(float(v))
            if not shape.density(x) - a * shape.density(a * x) > 0.0:
                return fail("h2_not_injective", x)
            h2 = spread_recovery_gap(shape, a, x)
            if not math.isfinite(h2) or h2 * x < 0.0:
                return fail("h2_not_injective", x)
            # strict increase along the branch, away from the origin
            if abs(x) > abs(prev_x) and not (h2 > prev_h2 if x > 0.0 else h2 < prev_h2):
                return fail("h2_not_injective", x)
            prev_h2, prev_x = h2, x
        if vgrid.size >= 4:
            x_edge = shape.offset(float(vgrid[-1]))
            x_mid = shape.offset(float(vgrid[vgrid.size // 2]))
            if not _growth_proxy(shape, a, x_edge) > _growth_proxy(shape, a, x_mid):
                return fail("explosion_violated", x_edge)
    return ValidationReport(ok=True, scan_lo=scan_lo, scan_hi=scan_hi, detail=detail)
