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
sign of the premium's second derivative f(x) + x f'(x) decides whether
the spread-recovery continuous limit exists; the limit reads it as
relative_curvature, (f + x f')/f, which each family gives in closed
form, so it does not cancel where f and x f' nearly do, and which keeps
its sign and stays finite where both underflow far from the quote.

Every book is two one-sided branches, each a function of the distance
from the quote: an ask branch for x >= 0, which buys eat, and a bid
branch for x < 0, which sells eat. Shape's signed maps send each
argument to its branch, with volumes negated on the bid side, so they
work for signed arguments throughout. A mirrored book's bid branch is
its ask branch: its density is even and its volume odd in the offset.
The built-in families carry closed forms and are mirrored. The flat
block book is the power law at alpha = 0, not a family of its own.

The power law's maps are compositions of one transform, the Box-Cox
bc(t, c) = ((1 + t)^c - 1)/c, with bc(t, 0) = log1p(t): the volume is
q bc(t, 1 - alpha), the offset its inverse, and the premium
q (bc(t, 2 - alpha) - bc(t, 1 - alpha)) past a crossover near the quote,
below which it is a Taylor series. Private primitives carry each form of
bc, and c = 1 is t itself, so the flat book's maps stay exact. Its
premium stays q t^2/2, because bc(t, 2) - bc(t, 1) subtracts t from
t + t^2/2 and cancels.

premium_by_volume and its array form premium_by_volume_array are signed
maps of their own, over a branch primitive whose default is the
composition premium(offset(v)). The closed forms skip the offset: on the
power law (1 + t)^c = 1 + c v/q at t = F^{-1}(v) (the Box-Cox identity),
so the premium is one power of the volume, and on sqrt the integral of
the offset, a polynomial in v. The batched walk under volume recovery
prices every node through it (see costs.premium_steps).

The piecewise-linear books are one private ramp: a one-sided
piecewise-linear density on knots from the quote outward, whose volume
and premium are the exact integrals of its interpolant, summed from the
quote, so near it they stay exact relative to their size. The
counterexample is one ramp, mirrored like the closed forms. A table is
the ramp of its ask side, with the ramp of its bid side as its bid
branch, so its two sides may differ.

The module also hosts the preflight validators for the two resilience
models. They check the injectivity of the characteristic maps and the
growth condition that makes the schedule characterization sound, on
every distinct branch of the book once, a mirrored book's one branch or
a table's two, at distances from the quote. Under volume recovery a
lemma decides the power-law (so the block) and sqrt branches, from one
offset at the top of the working range (see validate_model1); the ramps,
and every branch under spread recovery, are scanned on a grid.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import sys
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParam, OutOfDomain

_EXP_CAP = 700.0  # exp overflows doubles just above this
# terms of the power-law premium's series near the quote: at the
# crossover offset they leave about 2e-16 relative for |alpha| <= 50
_SERIES_TERMS = 20
# the array premium drops a term of the series where it stays below this
# at the call's largest offset, so the dropped tail is under 2^-70: 2^-16
# of the last bit of the series' sum, which is above 1/4 there
_SERIES_DROP = 2.0 ** -70 / _SERIES_TERMS


def _quiet(array_map):
    """Run an array map on a float array with numpy's floating-point
    warnings off: the NaN and inf it returns are answers, not accidents.

    A 0-d argument (a float, a numpy scalar) runs as one element and
    comes back 0-d: on 0-d arrays numpy's ufuncs return scalars, which
    the maps could not then work in."""

    @functools.wraps(array_map)
    def wrapper(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            if x.ndim:
                return array_map(self, x)
            return array_map(self, x.reshape(1)).reshape(())

    return wrapper


def _sides(x, ask_map, bid_map):
    """An array map with each element on its own branch: ask_map at x
    where x >= 0 (and at NaN), bid_map at -x elsewhere. On a mirrored
    book the two are one method of one shape, called once on |x|: a batch
    of schedules that sell as well as buy mixes the signs. Otherwise index
    arrays with take and put cost about a quarter of boolean masks on
    2^14 elements."""
    if ask_map == bid_map:
        return ask_map(np.abs(x))
    neg = x < 0.0
    ineg = np.flatnonzero(neg)
    if ineg.size == 0:
        return ask_map(x)
    ipos = np.flatnonzero(~neg)
    out = np.empty(x.shape)
    out.put(ipos, ask_map(x.take(ipos)))
    out.put(ineg, bid_map(-x.take(ineg)))
    return out


# The power law's maps are compositions of the Box-Cox transform
#   bc(t, c) = ((1 + t)^c - 1)/c,   bc(t, 0) = log1p(t),
# and its inverse; these primitives carry every regime split. Where
# c log1p(t) is small the power is near 1, so (1 + t)^c - 1 cancels,
# and the 1/c in front magnifies the loss as c nears 0 (1.4e-12
# relative in the premium at alpha = 0.99). There bc is
# expm1(c log1p(t))/c instead; past |c log1p(t)| = 0.5 the power is
# exact to rounding, while expm1 would magnify log1p's rounding by
# |c log1p(t)|. c = 1, 0 and -1 have forms that cancel nowhere.

# the inverse takes its expm1 form where |log1p(z)| < 0.5, z = c v/q
_NEAR_LO, _NEAR_HI = math.expm1(-0.5), math.expm1(0.5)


def _expm1_edge(c):
    """The distance from the quote below which bc(t, c) takes its expm1
    form, expm1(0.5/|c|): inf where that overflows (|c| < 1/1420), as
    |c log1p(t)| < 0.5 at every finite t there. 0 where c is 1, 0 or -1,
    whose forms take no expm1."""
    if c in (1.0, 0.0, -1.0):
        return 0.0
    try:
        return math.expm1(0.5 / abs(c))
    except OverflowError:
        return math.inf


def _bc(t, c, below):
    """bc(t, c) at a distance t >= 0 from the quote (or inf, NaN); below is
    _expm1_edge(c). c = 1 is t itself, so the flat book stays exact; c = 0
    is log1p(t); c = -1 is t/(1 + t), and 1, its limit, at inf. Otherwise
    the expm1 form below the edge and the power past it, with inf where
    that overflows (c > 1), the limit it overflows toward and what numpy's
    ** gives in _bc_array."""
    if c == 1.0:
        return t
    if c == 0.0:
        return math.log1p(t)
    if c == -1.0:
        return 1.0 if t == math.inf else t / (t + 1.0)
    try:
        if t < below:
            return math.expm1(c * math.log1p(t)) / c
        return ((t + 1.0) ** c - 1.0) / c
    except OverflowError:
        return math.inf


def _bc_inv(v, q, c):
    """The distance t with q bc(t, c) = v, for v >= 0 (or inf, NaN).

    Past the depth -q/c of a c < 0 it raises OutOfDomain, and at c = -1
    also at NaN. c = 0 is
    expm1(v/q), inf past exp(700) (and at NaN); c = -1 is v/(q - v), which
    forming v/q first would leave 5e-11 relative off near the depth.
    Otherwise the expm1 form where |log1p(z)| < 0.5, z = c v/q, and the
    power elsewhere, with inf where either overflows: the expm1 form can,
    where |c| < 1/1420."""
    if c == 1.0:
        return v / q
    if c == 0.0:
        e = v / q
        return math.expm1(e) if e <= _EXP_CAP else math.inf
    if c == -1.0 and v < q:
        return v / (q - v)
    z = c * v / q
    # c v overflows only where c > 1 and v/q is within a factor c of the
    # float limit (for c < 0 the depth q/|c| is below that limit)
    if c > 1.0 and math.isinf(z):
        z = c * (v / q)
    try:
        if _NEAR_LO < z < _NEAR_HI:
            return math.expm1(math.log1p(z) / c)
        if z <= -1.0 or c == -1.0:
            raise OutOfDomain(f"volume {v} exceeds the book's total depth {-q / c}")
        return (1.0 + z) ** (1.0 / c) - 1.0
    except OverflowError:
        return math.inf


# the same on float arrays, each in one new array that it works in, each
# float in the order of the scalar forms: NaN where _bc_inv raises


def _bc_array(t, c, below):
    if c == 1.0:
        return t.copy()
    if c == 0.0:
        return np.log1p(t)
    if c == -1.0:
        u = t + 1.0
        np.divide(t, u, out=u)
        u[t == np.inf] = 1.0
        return u
    # the expm1 form below the edge; where every distance is below it
    # (decayed volumes), the power is not formed at all. Otherwise the
    # power runs on every distance and the expm1 form is put over the few
    # below the edge: cheaper than gathering the far ones
    near = np.flatnonzero(t < below)
    if near.size == t.size:
        u = np.log1p(t)
        u *= c
        np.expm1(u, out=u)
    else:
        u = t + 1.0
        u **= c
        u -= 1.0
        w = np.log1p(t.take(near))
        w *= c
        u.put(near, np.expm1(w, out=w))
    u /= c
    return u


def _bc_inv_array(v, q, c):
    if c == 1.0:
        return v / q
    if c == 0.0:
        x = v / q
        far = ~(x <= _EXP_CAP)  # and NaN, as the scalar form
        np.expm1(x, out=x)
        x[far] = np.inf
        return x
    if c == -1.0:
        x = q - v
        np.divide(v, x, out=x)
        x[~(v < q)] = np.nan
        return x
    z = c * v
    z /= q
    near = np.flatnonzero((z > _NEAR_LO) & (z < _NEAR_HI))
    if near.size == v.size:
        np.log1p(z, out=z)
        z /= c
        return np.expm1(z, out=z)
    if c > 1.0:  # as in _bc_inv: c (v/q) where c v overflowed
        over = np.flatnonzero(np.isinf(z))
        z.put(over, c * (v.take(over) / q))
    w = np.log1p(z.take(near))
    z += 1.0  # the base of the power
    # past the depth (c < 0) the base is <= 0: NaN there. Where c > 0 it is > 0
    beyond = z <= 0.0 if c < 0.0 else None
    z **= 1.0 / c
    z -= 1.0
    if beyond is not None:
        z[beyond] = np.nan
    w /= c
    z.put(near, np.expm1(w, out=w))
    return z


def _check_depth(q, name: str) -> None:
    """Refuse a family's depth scale q unless it is finite and positive."""
    if not 0.0 < q < math.inf:
        raise InvalidParam(f"{name} depth must be finite and positive, got {q}")


class Shape:
    """Interface for order-book densities: two one-sided branches.

    A branch maps the distance t >= 0 from the quote through the
    primitives below. Offsets and volumes x >= 0 (and NaN) are on the
    shape's own branch, the ask side that buys eat; x < 0 are on the
    branch _bid, the bid side that sells eat, at t = -x, with volumes and
    offsets negated. _bid is the shape itself, a mirrored book, unless a
    subclass sets another one-sided shape there. Subclasses fill in the primitives
    and, for finite depth, _depth; the signed maps are written here once.

    An array map may overwrite only arrays it allocated itself: never its
    argument, which may be the caller's array or a read-only view, and so
    it works in place in the arrays it made. Each returns a new array of
    its argument's shape, which the signed maps then work in.
    """

    name = "shape"
    _depth = math.inf  # the volume the branch covers
    # whether the branch meets the model-1 lemma, l(y) > 0 wherever its
    # offsets are finite (see validate_model1)
    _h1_lemma = False

    def __new__(cls, *args, **kwargs):
        shape = super().__new__(cls)
        # object.__setattr__: past a frozen dataclass, and without the
        # instance __dict__ that vars() would make, which slows every
        # attribute read of the maps
        object.__setattr__(shape, "_bid", shape)
        return shape

    # branch primitives ---------------------------------------------

    def _density(self, t: float) -> float:
        raise NotImplementedError

    def _volume(self, t: float) -> float:
        raise NotImplementedError

    def _offset(self, v: float) -> float:
        raise NotImplementedError

    def _premium(self, t: float) -> float:
        raise NotImplementedError

    def _relative_curvature(self, t: float) -> float:
        raise NotImplementedError

    def _premium_by_volume(self, v: float) -> float:
        """The premium at the offset where the volume v is eaten: the
        composition, unless the family has a closed form in v."""
        return self._premium(self._offset(v))

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

    def _premium_by_volume_array(self, v: np.ndarray) -> np.ndarray:
        return self._premium_array(self._offset_array(v))

    # signed API: each argument on its own branch ----------------------

    def density(self, x: float) -> float:
        return self._bid._density(-x) if x < 0.0 else self._density(x)

    def volume(self, x: float) -> float:
        """F(x); odd in x on a mirrored book."""
        if x < 0.0:
            return -self._bid._volume(-x)
        return self._volume(x) if x != 0.0 else 0.0

    def offset(self, y: float) -> float:
        """F^{-1}(y); odd in y on a mirrored book."""
        if y < 0.0:
            return -self._bid._offset(-y)
        return self._offset(y) if y != 0.0 else 0.0

    def premium(self, x: float) -> float:
        """int_0^x u f(u) du; nonnegative, and even in x on a mirrored book."""
        return self._bid._premium(-x) if x < 0.0 else self._premium(x)

    def premium_by_volume(self, y: float) -> float:
        """premium(offset(y)), the premium as a function of the volume
        eaten; even in y on a mirrored book."""
        return self._bid._premium_by_volume(-y) if y < 0.0 else self._premium_by_volume(y)

    def relative_curvature(self, x: float) -> float:
        """(f(x) + x f'(x)) / f(x), the premium's second derivative over
        the density.

        It has the curvature's sign, since f > 0, and is the reciprocal
        of the ratio f / (f + x f') the spread-recovery limit needs. Each
        family gives it in closed form, where it stays finite even as f
        underflows far from the quote.
        """
        return self._bid._relative_curvature(-x) if x < 0.0 else self._relative_curvature(x)

    # signed array API: density, volume, offset, premium and
    # premium_by_volume elementwise

    @_quiet
    def density_array(self, x) -> np.ndarray:
        return _sides(x, self._density_array, self._bid._density_array)

    # a branch's volume or offset is >= 0; the bid side's is negated in
    # place, where the argument is < 0, as the scalar maps do: +-0 stay
    # on the ask branch, whose map gives +0.0 there

    @_quiet
    def volume_array(self, x) -> np.ndarray:
        vol = _sides(x, self._volume_array, self._bid._volume_array)
        return np.copysign(vol, x, out=vol, where=x < 0.0)

    @_quiet
    def offset_array(self, y) -> np.ndarray:
        x = _sides(y, self._offset_array, self._bid._offset_array)
        return np.copysign(x, y, out=x, where=y < 0.0)

    @_quiet
    def premium_array(self, x) -> np.ndarray:
        return _sides(x, self._premium_array, self._bid._premium_array)

    @_quiet
    def premium_by_volume_array(self, y) -> np.ndarray:
        return _sides(y, self._premium_by_volume_array, self._bid._premium_by_volume_array)

    # domain ------------------------------------------------------------

    def volume_bounds(self) -> tuple[float, float]:
        """Reachable cumulative-volume range (lo, hi): each branch's depth."""
        return (-self._bid._depth, self._depth)


@dataclass(frozen=True)
class PowerLawShape(Shape):
    """f(x) = q / (|x|+1)^alpha.

    alpha < 0 gives a book that deepens away from the quote, alpha > 0 one
    that thins out, and alpha = 0 the flat book (BlockShape). For alpha > 1
    the cumulative volume saturates at q/(alpha-1), so offsets only exist
    for volumes below that bound. Under volume recovery the optimality
    guarantees hold at every alpha (see validate_model1); under spread
    recovery they need alpha <= 1.

    Each map is a composition of the Box-Cox transform bc (see _bc):
    the volume is q bc(t, 1 - alpha), the offset its inverse, and the
    premium q (bc(t, 2 - alpha) - bc(t, 1 - alpha)) past a crossover and
    its Taylor series below it. The flat book (alpha = 0) keeps its
    premium q t^2/2, where bc(t, 2) - bc(t, 1) = (t + t^2/2) - t cancels.

    With c = 1 - alpha and z = v/q, the offset t of a volume v has
    (1 + t)^c = 1 + c z, so bc(t, 2 - alpha) = bc(c z, (1 + c)/c)/c and
    premium_by_volume is q (bc(c z, (1 + c)/c)/c - z): one power of the
    volume, q (expm1(z) - z) at alpha = 1 and q (log1p(v/(q - v)) - z)
    at alpha = 2. Below the volume at the crossover it is the composition.
    """

    q: float
    alpha: float
    name = "power"
    _h1_lemma = True

    def __post_init__(self):
        _check_depth(self.q, self.name)
        if not math.isfinite(self.alpha):
            raise InvalidParam(f"power-law exponent must be finite, got {self.alpha}")
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
        # the array map runs only the first k terms of the series where
        # its largest offset is at most _series_reach[k - 1]: there each
        # later term c_j t^j is at most _SERIES_DROP. A negative integer
        # alpha has a polynomial premium, whose zero terms reach any offset
        reach, r = [math.inf], math.inf
        for j in range(_SERIES_TERMS - 1, 0, -1):
            if coeffs[j]:
                r = min(r, (_SERIES_DROP / abs(coeffs[j])) ** (1.0 / j))
            reach.append(r)
        object.__setattr__(self, "_series_reach", tuple(reversed(reach)))
        object.__setattr__(self, "_crossover", 0.5 / max(5.0, abs(self.alpha)))
        # the expm1 edges of the premium's two exponents, 2 - alpha and
        # 1 - alpha, the second the volume's
        below = (_expm1_edge(2.0 - self.alpha), _expm1_edge(1.0 - self.alpha))
        object.__setattr__(self, "_expm1_below", below)
        if self.alpha > 1.0:  # the volume saturates
            object.__setattr__(self, "_depth", self.q / (self.alpha - 1.0))
        # premium_by_volume: the volume at the crossover, below which it is
        # the composition, and past it, for c = 1 - alpha not 1, 0 or -1,
        # the exponent k = (1 + c)/c of bc(c v/q, k) and the band of c v/q
        # where that takes its expm1 form (see _premium_by_volume)
        c = 1.0 - self.alpha
        k = lo = hi = None
        if c not in (1.0, 0.0, -1.0):
            k = (1.0 + c) / c
            edge = 0.5 * max(1.0, 1.0 / abs(k))
            lo = math.expm1(-edge)
            hi = math.expm1(edge) if edge <= _EXP_CAP else math.inf
        object.__setattr__(self, "_by_volume", (self._volume(self._crossover), k, lo, hi))

    def _density(self, t):
        try:
            return self.q * (t + 1.0) ** (-self.alpha)
        except OverflowError:  # inf, as _bc and numpy's ** give
            return math.inf

    def _volume(self, t):
        return self.q * _bc(t, 1.0 - self.alpha, self._expm1_below[1])

    def _offset(self, v):
        return _bc_inv(v, self.q, 1.0 - self.alpha)

    def _near_quote(self, t):
        """The premium's series below the crossover, by Horner on all its
        terms (the array map's is _series_array)."""
        s = 0.0
        for c in self._series:
            s = s * t + c
        return self.q * t * t * s

    def _premium(self, t):
        a = self.alpha
        if a == 0.0:
            return 0.5 * self.q * t * t
        if t < self._crossover:
            return self._near_quote(t)
        tb, tc = self._expm1_below
        p = _bc(t, 2.0 - a, tb) - _bc(t, 1.0 - a, tc)
        if p != p and t == t:
            # both terms overflow (alpha < 0), or reach inf at t = inf
            # (alpha <= 1): inf - inf, where the integral diverges
            return math.inf
        return self.q * p

    def _relative_curvature(self, t):
        # f + t f' = q (1 + (1-alpha) t) / (1+t)^(alpha+1), over f
        return (1.0 + (1.0 - self.alpha) * t) / (t + 1.0)

    def _premium_by_volume(self, v):
        # with c = 1 - alpha and w = c v/q, (1 + t)^c = 1 + w at t = F^{-1}(v),
        # so bc(t, 1 + c) = bc(w, k)/c with k = (1 + c)/c, and the premium
        # is q (bc(w, k)/c - v/q): one power of the volume, or one log1p and
        # one expm1, and no offset. The power where |log1p(w)| and
        # |k log1p(w)| both reach 0.5, the expm1 form elsewhere: the power
        # rounds its base, which k magnifies (near alpha = 1), and where
        # k log1p(w) is small it cancels in its - 1 (near alpha = 2). Below
        # the crossover the two terms cancel, and it is the composition;
        # past the depth it raises as the offset does, inf where it overflows
        a, q = self.alpha, self.q
        if a == 0.0:  # the flat book's composition, q t^2/2 at t = v/q
            t = v / q
            return 0.5 * q * t * t
        vcross, k, lo, hi = self._by_volume
        if v < vcross:
            return self._premium(self._offset(v))
        z = v / q
        try:
            if a == 1.0:  # inf where the offset is, past exp(700), and at NaN
                p = math.expm1(z) - z if z <= _EXP_CAP else math.inf
            elif a == 2.0:  # log1p(t) - t/(1 + t) at t = v/(q - v), as the offset forms it
                if not v < q:
                    raise OutOfDomain(f"volume {v} exceeds the book's total depth {q}")
                p = math.log1p(v / (q - v)) - z
            else:
                c = 1.0 - a
                w = c * v / q  # as _bc_inv forms it
                if c > 1.0 and math.isinf(w):
                    w = c * z
                if w <= -1.0:
                    raise OutOfDomain(f"volume {v} exceeds the book's total depth {-q / c}")
                if lo < w < hi:
                    b = math.expm1(k * math.log1p(w))
                else:
                    b = (1.0 + w) ** k - 1.0
                p = b / (2.0 - a) - z  # k c = 2 - alpha
        except OverflowError:
            return math.inf
        if p != p and v == v:  # inf - inf, where v/q is inf
            return math.inf
        return q * p

    # the closed form already maps arrays, where numpy's ** gives inf
    _density_array = _density

    # the array maps compute in place, in the arrays they allocate, each
    # float in the order the expressions of the scalar maps take

    def _volume_array(self, t):
        vol = _bc_array(t, 1.0 - self.alpha, self._expm1_below[1])
        vol *= self.q
        return vol

    def _offset_array(self, v):
        return _bc_inv_array(v, self.q, 1.0 - self.alpha)

    def _premium_array(self, t):
        # each offset takes the value of the one formula _premium takes
        # there: the series below the crossover, the closed form past it
        # (and at NaN). A call whose offsets are all near the quote
        # (decayed pre-trade offsets) forms no power at all. Any other call
        # runs the closed form on every offset and puts the series over
        # its few near ones
        a, q = self.alpha, self.q
        if a == 0.0:
            p = (0.5 * q) * t
            p *= t
            return p
        near = np.flatnonzero(t < self._crossover)
        if near.size == t.size:
            return self._series_array(t)
        c = 1.0 - a
        tb, tc = self._expm1_below
        p = _bc_array(t, 2.0 - a, tb)
        pc = _bc_array(t, c, tc)
        # where c >= 0 both terms reach inf at t = inf, and where c > 1
        # they overflow at finite offsets too; the scalar map returns inf
        # there, where inf - inf would be NaN here
        over = None
        if c >= 0.0 and np.fmax.reduce(pc) == np.inf:
            over = pc == np.inf
        p -= pc
        if over is not None:
            p[over] = np.inf
        p *= q
        if near.size:
            p.put(near, self._series_array(t.take(near)))
        return p

    def _series_array(self, t):
        """_near_quote on an array of offsets below the crossover, by
        Horner on as many terms as its largest offset needs (see
        _series_reach). What it drops can move the last bit of the full
        series' value for at most about one offset in 2^16."""
        terms = bisect_left(self._series_reach, t.max(initial=0.0)) + 1
        coeffs = self._series[_SERIES_TERMS - terms:]
        # in place, one array for the sum: s * t + c, term by term
        s = np.full(t.shape, coeffs[0])
        for c in coeffs[1:]:
            s *= t
            s += c
        # q t t s, multiplied in that order
        qtt = self.q * t
        qtt *= t
        s *= qtt
        return s

    def _premium_by_volume_array(self, v):
        # _premium_by_volume's forms, each float in its order. A call whose
        # volumes are all below the crossover (decayed pre-trade volumes)
        # is the composition alone; any other runs the closed form on every
        # volume and puts the composition over its few near ones
        a, q = self.alpha, self.q
        if a == 0.0:
            t = v / q
            p = (0.5 * q) * t
            p *= t
            return p
        vcross, k, lo, hi = self._by_volume
        near = np.flatnonzero(v < vcross)
        if near.size == v.size:
            return self._premium_array(self._offset_array(v))
        z = v / q
        if a == 1.0:
            far = ~(z <= _EXP_CAP)
            p = np.expm1(z)
            p -= z
            p[far] = np.inf
        elif a == 2.0:
            p = q - v
            np.divide(v, p, out=p)
            np.log1p(p, out=p)
            p -= z
            p[~(v < q)] = np.nan
        else:
            c = 1.0 - a
            p = c * v
            p /= q
            if c > 1.0:
                over = np.flatnonzero(np.isinf(p))
                p.put(over, c * z.take(over))
            band = np.flatnonzero((p > lo) & (p < hi))
            if band.size == v.size:
                np.log1p(p, out=p)
                p *= k
                np.expm1(p, out=p)
            else:
                b = np.log1p(p.take(band))
                b *= k
                np.expm1(b, out=b)
                # past the depth (c < 0) the base is <= 0: NaN there
                beyond = p <= -1.0 if c < 0.0 else None
                p += 1.0
                p **= k
                p -= 1.0
                if beyond is not None:
                    p[beyond] = np.nan
                p.put(band, b)
            p /= 2.0 - a
            p -= z
            # inf - inf where v/q is inf (c > 0; where c < 0 it is past the depth)
            if c > 0.0 and np.fmax.reduce(z) == np.inf:
                p[z == np.inf] = np.inf
        p *= q
        if near.size:
            p.put(near, self._premium_array(self._offset_array(v.take(near))))
        return p


@dataclass(frozen=True)
class BlockShape(PowerLawShape):
    """Constant density q: the flat book, where both resilience models
    coincide and every optimum is available in closed form.

    It is the power law at alpha = 0, whose maps are the closed forms
    q, q t, v/q and q t^2/2 exactly, so it defines none of its own.
    """

    alpha: float = field(default=0.0, init=False, repr=False)
    name = "block"


@dataclass(frozen=True)
class SqrtShape(Shape):
    """f(x) = q / sqrt(1 + mu |x|), the family whose model-1 optimum has a
    closed form (see solver.sqrt_shape_xi0). mu = 0 degenerates to Block.

    Its offset is a polynomial in the volume, as sqrt(1 + mu t) =
    1 + mu v/(2q) at t = F^{-1}(v), so premium_by_volume, the offset's
    integral, is v^2 (1 + mu v/(6q))/(2q), with no square root."""

    q: float
    mu: float
    name = "sqrt"
    _h1_lemma = True

    def __post_init__(self):
        _check_depth(self.q, self.name)
        if not 0.0 <= self.mu < math.inf:
            raise InvalidParam(f"sqrt-shape curvature must be finite and >= 0, got {self.mu}")

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
        try:
            return 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)
        except OverflowError:  # as the power law's maps, and numpy's **
            return math.inf

    def _relative_curvature(self, t):
        # f + t f' = q (1 + mu t/2) / (1 + mu t)^(3/2), over f
        return (1.0 + 0.5 * self.mu * t) / (1.0 + self.mu * t)

    def _premium_by_volume(self, v):
        # the integral of F^{-1}(u) = u/q + mu u^2/(4 q^2) from 0 to v,
        # v^2 (1 + mu v/(6q))/(2q): no square root. At mu = 0 the bracket
        # is 1, and 1 + 0 inf would be NaN at v = inf
        z = v / self.q
        p = 0.5 * v * z
        return p * (1.0 + self.mu * z / 6.0) if self.mu else p

    def _density_array(self, t):
        return self.q / np.sqrt(1.0 + self.mu * t)

    def _volume_array(self, t):
        return 2.0 * self.q * t / (1.0 + np.sqrt(1.0 + self.mu * t))

    _offset_array = _offset

    def _premium_array(self, t):
        r = np.sqrt(1.0 + self.mu * t)
        w = self.mu * t / (1.0 + r)
        return 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)

    def _premium_by_volume_array(self, v):
        z = v / self.q
        p = 0.5 * v
        p *= z
        if self.mu:
            s = self.mu * z
            s /= 6.0
            s += 1.0
            p *= s
        return p


def _segment_volume(c, m, w):
    """int_0^w (c + m s) ds: the volume a segment holds up to w past its
    start knot, for density c there and slope m; floats or arrays."""
    return w * (c + 0.5 * m * w)


def _segment_premium(t0, c, m, w):
    """int_0^w (t0 + s)(c + m s) ds, the same segment's premium. The
    brackets are the density at w/2 and half the density at 2w/3, both
    positive, so the sum has no cancelling terms."""
    return w * (t0 * (c + 0.5 * m * w) + w * (0.5 * c + m * w / 3.0))


def _running_sums(terms):
    """0 and the partial sums of terms, each from a compensated total
    (Neumaier), so that a sum far from the quote is still exact to about
    one rounding."""
    sums, total, carry = [0.0], 0.0, 0.0
    for x in terms:
        s = total + x
        carry += (total - s) + x if abs(total) >= abs(x) else (x - s) + total
        total = s
        sums.append(total + carry)
    return sums


class _Ramp(Shape):
    """A one-sided piecewise-linear density on knots 0 = t_0 < ... < t_K.

    The density is linear between knots and right-continuous at each.
    Volume and premium are the exact integrals of the interpolant,
    accumulated outward from the quote, so near it they are the first
    segment's own integrals, exact relative to their size. A last knot
    at inf makes the last segment a flat tail; past a finite last knot
    the maps raise OutOfDomain (NaN in the array forms). A lone knot at 0
    covers the quote only. The maps are written once for floats, with
    bisect on tuples, and once for arrays, with np.searchsorted.
    """

    def __init__(self, knots, densities):
        self._build(knots, densities)

    def _build(self, knots, densities):
        t = np.asarray(knots, dtype=float)
        f = np.asarray(densities, dtype=float)
        # segment i runs from knot i to knot i+1 (a lone knot: from 0 to 0)
        slopes = np.diff(f) / np.diff(t) if t.size > 1 else np.zeros(1)
        segs = slopes.size
        start, c, end = t[:segs], f[:segs], float(t[-1])
        # the segments whose far knot is finite hold finite volume
        full = segs if math.isfinite(end) else segs - 1
        w = np.diff(t)[:full]
        vol = _running_sums(_segment_volume(c[:full], slopes[:full], w).tolist())
        prem = _running_sums(_segment_premium(start[:full], c[:full], slopes[:full], w).tolist())
        depth = vol[-1] if math.isfinite(end) else math.inf
        fields = dict(
            _end=end, _depth=depth,
            _t=tuple(start.tolist()), _c=tuple(c.tolist()), _m=tuple(slopes.tolist()),
            _v=tuple(vol[:segs]), _p=tuple(prem[:segs]),
            _ta=start, _ca=c, _ma=slopes, _va=np.array(vol[:segs]), _pa=np.array(prem[:segs]),
        )
        # object.__setattr__: the frozen dataclass subclasses build through
        # here too (see Shape.__new__ for why not vars())
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _locate(self, t):
        """The segment holding offset t >= 0, and t's distance into it."""
        if t > self._end:
            raise OutOfDomain(f"offset {t} from the quote is past the last knot at {self._end}")
        i = bisect_right(self._t, t) - 1
        return i, t - self._t[i]

    def _density(self, t):
        i, w = self._locate(t)
        return self._c[i] + self._m[i] * w

    def _volume(self, t):
        i, w = self._locate(t)
        return self._v[i] + _segment_volume(self._c[i], self._m[i], w)

    def _offset(self, v):
        if v > self._depth:
            raise OutOfDomain(f"volume {v} from the quote is past the covered {self._depth}")
        i = bisect_right(self._v, v) - 1
        d, c = v - self._v[i], self._c[i]
        # smaller root of m/2 w^2 + c w = d, rationalized
        return self._t[i] + 2.0 * d / (c + math.sqrt(max(c * c + 2.0 * self._m[i] * d, 0.0)))

    def _premium(self, t):
        i, w = self._locate(t)
        return self._p[i] + _segment_premium(self._t[i], self._c[i], self._m[i], w)

    def _relative_curvature(self, t):
        # f + t f' = c + m w + t m on the segment, over f = c + m w
        i, w = self._locate(t)
        c, m = self._c[i], self._m[i]
        return (c + m * (t + w)) / (c + m * w)

    def _locate_array(self, t):
        i = np.searchsorted(self._ta, t, side="right") - 1
        return i, t - self._ta[i]

    @staticmethod
    def _upto(arg, bound, value):
        """value, NaN where arg is past bound (where the scalar map raises)."""
        return value if bound == math.inf else np.where(arg <= bound, value, np.nan)

    def _density_array(self, t):
        i, w = self._locate_array(t)
        return self._upto(t, self._end, self._ca[i] + self._ma[i] * w)

    def _volume_array(self, t):
        i, w = self._locate_array(t)
        return self._upto(t, self._end, self._va[i] + _segment_volume(self._ca[i], self._ma[i], w))

    def _offset_array(self, v):
        i = np.searchsorted(self._va, v, side="right") - 1
        d, c = v - self._va[i], self._ca[i]
        w = 2.0 * d / (c + np.sqrt(np.maximum(c * c + 2.0 * self._ma[i] * d, 0.0)))
        return self._upto(v, self._depth, self._ta[i] + w)

    def _premium_array(self, t):
        i, w = self._locate_array(t)
        prem = self._pa[i] + _segment_premium(self._ta[i], self._ca[i], self._ma[i], w)
        return self._upto(t, self._end, prem)


@dataclass(frozen=True)
class CounterexampleShape(_Ramp):
    """Piecewise-linear density built to defeat the spread-recovery
    characteristic map when the decay factor per step is 1/n.

    f = n+1 near the quote, falls with slope -n^2/(n-1) on [1/n, 1], and
    is 1 beyond: the ramp on knots (0, 1/n, 1, inf). The map h2 then
    takes the value (n^2-(n+1))/(-n) < 0 at x = 1, so it cannot be
    one-to-one and the spread-recovery root equation admits suboptimal
    solutions. As at every ramp knot, f' at 1/n and 1 is the slope to
    the right.
    """

    n: int
    name = "piecewise-ce"

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Real) and self.n >= 2 and self.n % 1 == 0):
            raise InvalidParam(f"counterexample index must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        n = self.n
        self._build((0.0, 1.0 / n, 1.0, math.inf), (n + 1.0, n + 1.0, 1.0, 1.0))


class TabulatedShape(_Ramp):
    """Density given by (offset, density) samples, linearly interpolated.

    The knot grid must be finite and strictly increasing, contain 0 in
    its hull, and carry positive densities. Each side of the quote is a
    ramp measured outward from it, with the quote as a knot (at its
    interpolated density if the table has no knot there): the table is
    the ramp of its ask side, with the bid side's ramp as its bid branch.
    Volume and premium are the exact integrals of the interpolant, so a
    constant table reproduces BlockShape to roundoff. Evaluation outside
    the covered offsets (or volume beyond the covered mass) raises
    OutOfDomain: a table never certifies the unbounded-volume
    assumption, and volume_bounds() says what it covers.
    """

    name = "tabulated"

    def __init__(self, offsets, densities):
        x = np.asarray(offsets, dtype=float)
        f = np.asarray(densities, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise InvalidParam("tabulated shape needs matching 1-d offset/density arrays, >= 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise InvalidParam("tabulated offsets and densities must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise InvalidParam("tabulated offsets must be strictly increasing")
        if not np.all(f > 0.0):
            raise InvalidParam("tabulated densities must be strictly positive")
        if not (x[0] <= 0.0 <= x[-1]):
            raise InvalidParam("tabulated offsets must straddle 0")
        f0 = [float(np.interp(0.0, x, f))]
        self._build([0.0, *x[x > 0.0]], f0 + f[x > 0.0].tolist())
        self._bid = _Ramp([0.0, *-x[x < 0.0][::-1]], f0 + f[x < 0.0][::-1].tolist())
        self._bid.name = self.name  # a call on either side is a call on the table


def load_tabulated_csv(path) -> TabulatedShape:
    """Read a shape table from CSV with header ``offset,density``."""
    offsets, dens = [], []
    # utf-8-sig: a spreadsheet's export may start with a byte-order mark
    with open(path, newline="", encoding="utf-8-sig") as fh:
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

# the validators scan _SCAN_POINTS volumes a side, out to _SCAN_COVERAGE
# times the working size, and take the growth proxy's density minimum
# over _GROWTH_SAMPLES offsets
_SCAN_COVERAGE = 2.0
_SCAN_POINTS = 512
_GROWTH_SAMPLES = 33


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
        return asdict(self)


def _scan_range(branch: Shape, x0: float):
    """The ends (lo, top) of one branch's scan grid, out to _SCAN_COVERAGE
    x0 or its covered mass, and whether top was clamped to that mass.
    Where _SCAN_COVERAGE x0 overflows, top is the largest float: a range
    out to inf would be a grid of NaN."""
    hi = min(_SCAN_COVERAGE * x0, sys.float_info.max)
    lo = max(1e-9 * x0, 1e-300)
    top = min(hi, branch._depth * (1.0 - 1e-12))
    return lo, top, top < hi


def _scan_grid(branch: Shape, x0: float):
    """A log-spaced grid of positive volumes on one branch, from lo to top
    of _scan_range, and whether it was clamped. np.geomspace returns its
    ends exactly, so a grid ends at top; near the largest float its own
    power overflows at the last point, which it then sets to top."""
    lo, top, clamped = _scan_range(branch, x0)
    with np.errstate(over="ignore"):
        grid = np.geomspace(lo, top, _SCAN_POINTS).tolist() if top > lo else []
    return grid, clamped


def _scan(shape: Shape, a: float, x0: float, branch_failure, in_offsets: bool,
          proven=None) -> ValidationReport:
    """The validators' shared scan of each distinct branch of the book: the
    shape alone where it is its own bid branch, else the shape and _bid.

    branch_failure(branch, a, grid) checks one branch on its volume grid,
    in the branch's own coordinates (distances from the quote), and
    returns its first failure as (reason, witness) or None. Where given,
    proven(branch, a, top) says that a branch passes by proof up to its
    grid's last volume top; its grid is then not built. The report's scan
    ends are each grid's last volume, or with in_offsets its offset; on
    the bid branch they and the witness are negated.
    """
    if not (0.0 <= a < 1.0):
        raise InvalidParam(f"decay factor must lie in [0,1), got {a}")
    if not x0 > 0.0:
        raise InvalidParam(f"working size must be positive, got {x0}")
    branches = (shape,) if shape._bid is shape else (shape, shape._bid)
    ranges = [_scan_range(branch, x0) for branch in branches]
    ends = [0.0 if not top > lo else branch.offset(top) if in_offsets else top
            for branch, (lo, top, _) in zip(branches, ranges)]
    # an empty bid grid ends at 0.0, not at -0.0
    lo, top, _ = ranges[-1]
    scan_lo, scan_hi = (-ends[-1] if top > lo else 0.0), ends[0]
    notes = ["scan clamped to covered mass"] if any(r[2] for r in ranges) else []
    decided = 0
    for sign, branch, (_, top, _) in zip((1.0, -1.0), branches, ranges):
        if proven is not None and proven(branch, a, top):
            decided += 1
            continue
        failure = branch_failure(branch, a, _scan_grid(branch, x0)[0])
        if failure is not None:
            reason, witness = failure
            return ValidationReport(False, reason, sign * witness, scan_lo, scan_hi, "; ".join(notes))
    if decided == len(branches):
        notes.insert(0, "model 1 decided by the lemma, no scan")
    return ValidationReport(ok=True, scan_lo=scan_lo, scan_hi=scan_hi, detail="; ".join(notes))


def _h1_failure(branch: Shape, a: float, grid: list):
    """The first volume of the grid where l(y) > 0 fails, with its reason."""
    for y in grid:
        if not injectivity_margin(branch, a, y) > 0.0:
            finite = math.isfinite(branch.offset(y))
            return ("h1_not_injective" if finite else "offset_not_finite"), y
    return None


def _h1_proven(branch: Shape, a: float, top: float) -> bool:
    """Whether l(y) > 0 holds by the lemma on volumes up to top: the
    branch meets it, and its offset at top, the largest in the range, is
    finite."""
    return branch._h1_lemma and math.isfinite(branch.offset(top))


def validate_model1(shape: Shape, a: float, x0: float) -> ValidationReport:
    """Check l(y) > 0 over the working volume range.

    A nonpositive margin anywhere means h1 is not one-to-one there, and
    the volume-recovery solver must refuse the shape. Where the offset
    overflows, the margin says nothing about the shape: the reason is
    then "offset_not_finite", a numeric failure. Each distinct branch of
    the book is checked once.

    A branch that meets the lemma (power law at any alpha, block, sqrt)
    is decided without a scan. Write g = f o F^{-1}, the density as a
    function of the volume eaten; then l(y) > 0 if and only if
    g(ay) > a^2 g(y), which holds at a = 0, where g > 0. For 0 < a < 1:

    - for alpha >= 0, and on sqrt, f is nonincreasing outward, so g is
      nonincreasing, and g(ay) >= g(y) > a^2 g(y): the range stops below
      the depth, where g > 0;
    - for alpha < 0, g(v) = q (1 + c v/q)^p with c = 1 - alpha > 1 and
      p = -alpha/c in (0, 1). As (1 + c a y/q)/(1 + c y/q) >= a,
      g(ay)/g(y) >= a^p > a^2.

    So only the offset's finiteness is left to evaluate, and the offset
    rises with the volume: where it is finite at the range's top, it is
    finite on the whole range, and the branch passes. Elsewhere, on the
    ramps and where the top offset overflows, the margin is scanned on the
    grid as before, and an overflow is refused as "offset_not_finite" at
    the first grid volume where the margin fails.
    """
    return _scan(shape, a, x0, _h1_failure, in_offsets=False, proven=_h1_proven)


def _least_density(branch: Shape, a: float, x: float) -> float:
    """min f over [a x, x] on one branch, sampled."""
    return min(map(branch.density, np.linspace(a * x, x, _GROWTH_SAMPLES).tolist()))


def _not_injective(x: float, v: float):
    """A failure of h2 at offset x, volume v: where the offset overflowed
    the scan says nothing about the shape, and the volume is the witness
    of a numeric failure, as in _h1_failure."""
    return ("h2_not_injective", x) if math.isfinite(x) else ("offset_not_finite", v)


def _h2_failure(branch: Shape, a: float, grid: list):
    """The first offset on the grid where a spread-recovery check fails,
    with its reason; the growth proxy is checked last, at the grid's edge."""
    offset, density = branch.offset, branch.density
    prev_h2 = prev_x = 0.0
    for v in grid:
        x = offset(v)
        # f(x) and f(ax) once; h2 as spread_recovery_gap forms it
        fx, fax = density(x), density(a * x)
        den = fx - a * fax
        if not den > 0.0:
            return _not_injective(x, v)
        h2 = x * (fx - a * a * fax) / den
        # finite, of the offset's sign, and strictly increasing where the offset grew
        if not math.isfinite(h2) or h2 * x < 0.0 or (x > prev_x and not h2 > prev_h2):
            return _not_injective(x, v)
        prev_h2, prev_x = h2, x
    if len(grid) >= 4:
        x_edge, x_mid = offset(grid[-1]), offset(grid[len(grid) // 2])
        # the growth proxy x^2 min f over [ax, x] rises from the grid's
        # middle to its edge; compared as a ratio, since x^2 underflows to
        # 0 at offsets below about 1e-162 (and on a deep book at a tiny
        # size x_mid itself underflows to 0)
        grows = x_mid == 0.0 or (
            (x_edge / x_mid) ** 2 * _least_density(branch, a, x_edge) > _least_density(branch, a, x_mid))
        if not grows:
            return "explosion_violated", x_edge
    return None


def validate_model2(shape: Shape, a: float, x0: float) -> ValidationReport:
    """Scan for failures of the spread-recovery assumptions.

    Checks, in offset space over the working range of each distinct
    branch of the book: the one-sided gap f(x) - a f(ax) stays positive,
    h2 has the sign of x and is strictly increasing along the grid, and
    the growth proxy x^2 inf f over [ax,x] keeps rising toward the scan
    edge (a necessary sample of the explosion condition, not a proof of
    it).
    """
    return _scan(shape, a, x0, _h2_failure, in_offsets=True)
