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
block book is the power law at alpha = 0, not a family of its own, and
the power law's maps are compositions of one Box-Cox transform (see
PowerLawShape).

The scalar premium_by_volume is the composition itself. Its array form,
premium_by_volume_array, has one closed form per family, which skips the
offset: on the power law one power of the volume, on sqrt a polynomial
in it (see each class). The batched walk under volume recovery prices
every node through it (see costs.premium_steps).

The piecewise-linear books are one private ramp: a one-sided
piecewise-linear density on knots from the quote outward, whose volume
and premium are the exact integrals of its interpolant, summed from the
quote, so near it they stay exact relative to their size. The
counterexample is one ramp, mirrored like the closed forms. A table is
the ramp of its ask side, with the ramp of its bid side as its bid
branch, so its two sides may differ; where they are one ramp, the table
is mirrored too, and its validators and array maps take one branch.

The module also hosts the preflight validators for the two resilience
models. They check the injectivity of the characteristic maps and the
growth condition that makes the schedule characterization sound, on
every distinct branch of the book once, a mirrored book's one branch or
an asymmetric table's two, at distances from the quote. Under volume
recovery a lemma decides the power-law (so the block) and sqrt branches,
from one offset at the top of the working range (see validate_model1).
A ramp is decided exactly under both models: each condition is a
polynomial of low degree between the ramp's breaks, so its values at
the breaks decide it on the whole range, in O(K) for K knots and with no
grid to miss a failure between its points. A ramp the decision passes is
not scanned. One it refuses is still scanned, so that the refusal names the
scan's witness while the scan remains (ROADMAP item 18), and the
decision's own witness only where the grid missed the failure. The
closed-form branches under spread recovery are scanned on a grid.
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


def _inf_at_inf(t, p):
    """p, with inf where t is inf, where a map's formula forms inf/inf or
    inf - inf; one reduction finds any inf t, so finite t pay no more."""
    if np.fmax.reduce(t, axis=None, initial=0.0) == np.inf:
        p[t == np.inf] = np.inf
    return p


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


# The primitives of the power law's Box-Cox transform bc (see
# PowerLawShape) and its inverse carry every regime split. Where
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
        """premium(offset(v)): the composition, or a family's closed form."""
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
        eaten; even in y on a mirrored book. Past a finite depth it
        raises OutOfDomain, as the offset does."""
        return self.premium(self.offset(y))

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

    Each map is a composition of the Box-Cox transform
    bc(t, c) = ((1 + t)^c - 1)/c, bc(t, 0) = log1p(t) (see _bc): the
    volume is q bc(t, 1 - alpha), the offset its inverse, and the premium
    q (bc(t, 2 - alpha) - bc(t, 1 - alpha)) past a crossover and its
    Taylor series below it. bc(t, 1) is t itself, so the flat book
    (alpha = 0) stays exact, and it keeps its premium q t^2/2, where
    bc(t, 2) - bc(t, 1) = (t + t^2/2) - t cancels.

    premium_by_volume_array is one power of the volume past the volume at
    the crossover, and the composition below it, as the scalar
    premium_by_volume is everywhere (see _premium_by_volume_array).
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
        # _premium_by_volume_array: the volume at the crossover, below which
        # it is the composition, and past it, for c = 1 - alpha not 1, 0 or
        # -1, the exponent k = (1 + c)/c of bc(c v/q, k) and its expm1 band
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
        # f + t f' = q (1 + (1-alpha) t) / (1+t)^(alpha+1), over f; at inf,
        # where it forms inf/inf, its limit 1 - alpha
        if t == math.inf:
            return 1.0 - self.alpha
        return (1.0 + (1.0 - self.alpha) * t) / (t + 1.0)

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
        p -= pc
        # where c >= 0 both terms reach inf at t = inf, and where c > 1
        # they overflow at finite offsets too; the scalar map returns inf
        # there, where inf - inf is NaN here
        if c >= 0.0:
            _inf_at_inf(pc, p)
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
        # with c = 1 - alpha and w = c v/q, (1 + t)^c = 1 + w at t = F^{-1}(v),
        # so bc(t, 1 + c) = bc(w, k)/c with k = (1 + c)/c, and the premium
        # is q (bc(w, k)/c - v/q): one power of the volume, or one log1p and
        # one expm1, and no offset. The power where |log1p(w)| and
        # |k log1p(w)| both reach 0.5, the expm1 form elsewhere: the power
        # rounds its base, which k magnifies (near alpha = 1), and where
        # k log1p(w) is small it cancels in its - 1 (near alpha = 2). NaN
        # past the depth, as the offset, and inf where it overflows. Below
        # the crossover the two terms cancel, and it is the composition: a
        # call of decayed pre-trade volumes, all below it, is the
        # composition alone; any other puts it over its few near volumes
        a, q = self.alpha, self.q
        if a == 0.0:  # the flat book's composition, at its offset t = v/q
            return self._premium_array(v / q)
        vcross, k, lo, hi = self._by_volume
        near = np.flatnonzero(v < vcross)
        if near.size == v.size:
            return self._premium_array(self._offset_array(v))
        z = v / q
        if a == 1.0:  # inf where the offset is, past exp(700), and at NaN
            far = ~(z <= _EXP_CAP)
            p = np.expm1(z)
            p -= z
            p[far] = np.inf
        elif a == 2.0:  # log1p(t) - t/(1 + t) at t = v/(q - v), as the offset forms it
            p = q - v
            np.divide(v, p, out=p)
            np.log1p(p, out=p)
            p -= z
            p[~(v < q)] = np.nan
        else:
            c = 1.0 - a
            p = c * v  # w, as _bc_inv_array forms it
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
            if c > 0.0:
                _inf_at_inf(z, p)
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
    1 + mu v/(2q) at t = F^{-1}(v), so premium_by_volume_array takes the
    offset's integral, v^2 (1 + mu v/(6q))/(2q), with no square root. At
    t = inf, where the formulas form inf/inf or 0 inf, the maps take their
    limits. Where 2q t or mu t overflows at a finite t, the volume and
    premium are formed again from _far, and every other value keeps its
    bits."""

    q: float
    mu: float
    name = "sqrt"
    _h1_lemma = True

    def __post_init__(self):
        _check_depth(self.q, self.name)
        if not 0.0 <= self.mu < math.inf:
            raise InvalidParam(f"sqrt-shape curvature must be finite and >= 0, got {self.mu}")

    def _density(self, t):
        # the root is 1 at mu = 0, where 0 inf would make it NaN at t = inf
        return self.q / (math.sqrt(1.0 + self.mu * t) if self.mu else 1.0)

    def _far(self, t):
        """t/(1 + r), r = sqrt(1 + mu t), at a t where 2q t or mu t
        overflows: where mu t does, r is sqrt(mu) sqrt(t), as the 1 is far
        below its last bit. It is about sqrt(t/mu), so finite; inf at
        t = inf."""
        if t == math.inf:
            return t
        r = math.sqrt(1.0 + self.mu * t)
        if r == math.inf:
            r = math.sqrt(self.mu) * math.sqrt(t)
        return t / (1.0 + r)

    def _volume(self, t):
        # 2q/mu (sqrt(1+mu t) - 1) rationalized; exact at mu = 0 and stable
        # for mu*t near zero. Where it is not finite, or the root
        # overflowed (and v reads 0), see _far
        r = math.sqrt(1.0 + self.mu * t)
        v = 2.0 * self.q * t / (1.0 + r)
        return v if math.isfinite(v) and r < math.inf else 2.0 * self.q * self._far(t)

    def _offset(self, v):
        # exact inverse: F^{-1}(v) = v/q + mu v^2 / (4 q^2), any mu >= 0;
        # v/q alone at mu = 0, where 0 inf would be NaN at v = inf
        if not self.mu:
            return v / self.q
        return v / self.q + self.mu * v * v / (4.0 * self.q * self.q)

    def _premium(self, t):
        # q/mu^2 [(2/3)(r^3-1) - 2(r-1)] with r = sqrt(1+mu t) rewritten in
        # w = r-1 = mu t/(1+r): the bracket is 2w^2(1+w/3), so the mu^2
        # cancels and the expression stays exact down to mu = 0
        r = math.sqrt(1.0 + self.mu * t)
        w = self.mu * t / (1.0 + r)
        try:
            p = 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)
        except OverflowError:  # as the power law's maps, and numpy's **
            return math.inf
        if p == p or t != t:
            return p
        # w is inf/inf where mu t overflows, and at t = inf, where the
        # integral diverges; w = mu (t/(1 + r))
        s = self._far(t)
        return math.inf if t == math.inf else 2.0 * self.q * s * s * (1.0 + self.mu * s / 3.0)

    def _relative_curvature(self, t):
        # f + t f' = q (1 + mu t/2) / (1 + mu t)^(3/2), over f; at inf,
        # where it forms inf/inf (0 inf at mu = 0), its limit
        if t == math.inf:
            return 0.5 if self.mu else 1.0
        return (1.0 + 0.5 * self.mu * t) / (1.0 + self.mu * t)

    def _density_array(self, t):
        return self.q / (np.sqrt(1.0 + self.mu * t) if self.mu else np.ones(t.shape))

    def _far_array(self, t, r, p, form):
        """p, with form(_far(t)) put where p is not finite or the root r =
        sqrt(1 + mu t) overflowed: inf where t is inf, NaN where it is NaN.
        Only where 2q t or mu t overflows is there such an element (an
        inf premium elsewhere is its value), so one reduction over t
        decides whether to look, and finite arguments pay no more."""
        if np.fmax.reduce(t, axis=None, initial=0.0) * max(2.0 * self.q, self.mu) < np.inf:
            return p
        bad = np.flatnonzero(~np.isfinite(p) | (r == np.inf))
        t, r = t.take(bad), r.take(bad)
        over = r == np.inf
        r[over] = np.sqrt(self.mu) * np.sqrt(t[over])
        z = form(t / (1.0 + r))
        z[t == np.inf] = np.inf
        p.put(bad, z)
        return p

    def _volume_array(self, t):
        r = np.sqrt(1.0 + self.mu * t)
        v = 2.0 * self.q * t
        v /= 1.0 + r
        return self._far_array(t, r, v, lambda s: 2.0 * self.q * s)

    _offset_array = _offset

    def _premium_array(self, t):
        r = np.sqrt(1.0 + self.mu * t)
        w = self.mu * t / (1.0 + r)
        p = 2.0 * self.q * (t / (1.0 + r)) ** 2 * (1.0 + w / 3.0)
        return self._far_array(t, r, p, lambda s: 2.0 * self.q * s * s * (1.0 + self.mu * s / 3.0))

    def _premium_by_volume_array(self, v):
        # the integral of F^{-1}(u) = u/q + mu u^2/(4 q^2) from 0 to v,
        # v^2 (1 + mu v/(6q))/(2q): no square root. At mu = 0 the bracket
        # is 1, and 1 + 0 inf would be NaN at v = inf
        z = v / self.q
        p = 0.5 * v
        p *= z
        if self.mu:
            p *= 1.0 + self.mu * z / 6.0
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


def _breaks(lo, hi, *points):
    """lo, hi and the points between them, sorted, each once. np.unique
    would do it, but its first call imports numpy.ma, which raised the
    peak memory of a pass of the solve-small benchmark by 1.3 MB (Python
    3.11, numpy 2.4)."""
    p = np.sort(np.concatenate(([lo, hi], *points)))
    p = p[(p >= lo) & (p <= hi)]
    return p[np.diff(p, prepend=-np.inf) > 0.0]


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
        # f + t f' = c + m w + t m on the segment, over f = c + m w; 1 on a
        # flat segment, also on a flat tail at t = inf, where m (t + w) is 0 inf
        i, w = self._locate(t)
        c, m = self._c[i], self._m[i]
        return (c + m * (t + w)) / (c + m * w) if m else 1.0

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

    # the validators' exact decisions on a range (see validate_model1 and
    # validate_model2): between breaks each condition is a polynomial that
    # is affine or keeps its slope's sign, so its values at the breaks and
    # the range's ends decide it. Each returns (True, None) where it holds,
    # (False, w) where it fails beyond roundoff, first at w, and
    # (None, None) where a value that decides is within roundoff of 0

    def _density_and_scale(self, t):
        """f at offsets t inside the cover, and the scale of its roundoff,
        f + |m| t: c + m w loses at most a few ulps of that."""
        i, w = self._locate_array(t)
        m = self._ma[i]
        f = self._ca[i] + m * w
        return f, f + np.abs(m) * t

    def _squared_density_by_volume(self, y):
        """g(y)^2 = f(F^{-1}(y))^2 at volumes y inside the cover, and its
        roundoff scale. On a segment of density c + m w, f^2 = c^2 +
        2 m (F - V_i): g^2 is affine in the volume, with no offset to find."""
        i = np.searchsorted(self._va, y, side="right") - 1
        c, m, v = self._ca[i], self._ma[i], self._va[i]
        return c * c + 2.0 * m * (y - v), c * c + 2.0 * np.abs(m) * (y + v)

    def _h1_decision(self, a, lo, top):
        """Decide l(y) > 0 on the volumes [lo, top]. l has the sign of
        phi(y) = g(ay)^2 - a^4 g(y)^2, which is affine between the knot
        volumes V_k and V_k/a; the witness is the first of those, or of
        the ends, where phi < 0. At a = 0, l = f(0) > 0."""
        if a == 0.0:
            return True, None
        v = self._va[1:]
        y = _breaks(lo, top, v, v / a)
        ga, sa = self._squared_density_by_volume(a * y)
        g, s = self._squared_density_by_volume(y)
        a4 = a ** 4
        phi, tol = ga - a4 * g, _ROUNDOFF * (sa + a4 * s)
        fails = np.flatnonzero(phi < -tol)
        if fails.size:
            return False, float(y[fails[0]])
        return (True, None) if np.all(phi > tol) else (None, None)

    def _h2_decision(self, a, x_lo, x_hi):
        """Decide, on the offsets [x_lo, x_hi], that D = f(x) - a f(ax) > 0
        and that h2 = x N/D, N = f(x) - a^2 f(ax), strictly increases.

        Between the breaks t_k and t_k/a, f(x) and f(ax) are affine, so D
        and N are: D > 0 at a piece's ends keeps it positive on the piece,
        and N - D = (1 - a) a f(ax) >= 0 then gives h2 x >= 0. h2' is
        Q/D^2, Q = N D + x W, where W = N' D - N D' is constant on the
        piece; Q' = 2 N' D keeps one sign where D > 0 (Q's vertex is D's
        root), so Q's values at the piece's ends, one-sided at each break,
        decide it. The witness is the first break or end where D < 0, or
        the first offset where Q turns negative. At a = 0, h2 = x."""
        if a == 0.0:
            return True, None
        t = self._ta[1:]
        x = _breaks(x_lo, x_hi, t, t / a)
        f, sf = self._density_and_scale(x)
        fa, sfa = self._density_and_scale(a * x)
        d, n, sd = f - a * fa, f - a * a * fa, sf + a * sfa
        # each piece's slopes of f(x) and f(ax), at its middle
        mid = 0.5 * (x[:-1] + x[1:])
        m, ma = self._ma[self._locate_array(mid)[0]], self._ma[self._locate_array(a * mid)[0]]
        dd, dn = m - a * a * ma, m - a ** 3 * ma
        w = dn * d[:-1] - n[:-1] * dd
        q0, q1 = n[:-1] * d[:-1] + x[:-1] * w, n[1:] * d[1:] + x[1:] * w
        sw = 2.0 * (np.abs(m) + np.abs(ma)) * sd[:-1]
        tol0, tol1 = _ROUNDOFF * (sd[:-1] ** 2 + x[:-1] * sw), _ROUNDOFF * (sd[1:] ** 2 + x[1:] * sw)
        tol = _ROUNDOFF * sd
        # Q decides only a piece where D is positive at both ends
        positive = d > tol
        pieces = positive[:-1] & positive[1:]
        d_fails = np.flatnonzero(d < -tol)
        q_fails = np.flatnonzero(pieces & ((q0 < -tol0) | (q1 < -tol1)))
        witnesses = [float(x[d_fails[0]])] if d_fails.size else []
        if q_fails.size:
            k = q_fails[0]
            s = 0.0
            if q0[k] > 0.0 and dn[k] < 0.0:
                # Q falls through 0 inside the piece: Q = Q0 + N' s (2 D0 + D' s)
                r = q0[k] / -dn[k]
                s = r / (d[k] + math.sqrt(max(d[k] * d[k] + dd[k] * r, 0.0)))
            witnesses.append(min(float(x[k] + s), float(x[k + 1])))
        if witnesses:
            return False, min(witnesses)
        ok = positive.all() and (q0 > tol0).all() and (q1 > tol1).all()
        return (True, None) if ok else (None, None)


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
    the ramp of its ask side, with the bid side's ramp as its bid branch,
    or mirrored, its own bid branch, where the two ramps are equal.
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
        ask = [0.0, *x[x > 0.0]], f0 + f[x > 0.0].tolist()
        bid = [0.0, *-x[x < 0.0][::-1]], f0 + f[x < 0.0][::-1].tolist()
        self._build(*ask)
        if bid != ask:  # else mirrored: the bid branch is the table itself
            self._bid = _Ramp(*bid)
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
# a ramp's decision takes a value within this fraction of its roundoff
# scale for roundoff, and leaves the branch to the scan
_ROUNDOFF = 2.0 ** -40


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


def _grid_middle(lo: float, top: float) -> float:
    """The middle volume of the grid from lo to top, _scan_grid's
    [_SCAN_POINTS // 2], without the grid: np.geomspace forms each point
    as 10 ** (log10(lo) + k step), with step its linspace's, and so does
    this, with the same ufuncs."""
    ends = np.log10(np.array([lo, top]))
    step = (ends[1] - ends[0]) / (_SCAN_POINTS - 1)
    return float(np.power(10.0, np.array([_SCAN_POINTS // 2 * step + ends[0]]))[0])


def _scan(shape: Shape, a: float, x0: float, branch_failure, in_offsets: bool,
          decide=None) -> ValidationReport:
    """The validators' shared scan of each distinct branch of the book: the
    shape alone where it is its own bid branch, else the shape and _bid.

    branch_failure(branch, a, grid) checks one branch on its volume grid,
    in the branch's own coordinates (distances from the quote), and
    returns its first failure as (reason, witness) or None. Where given,
    decide(branch, a, lo, top) decides a branch on its whole range, lo to
    top of _scan_range, and returns (how, failure), or None where it
    leaves the branch to the scan. Where it passes every branch it decides
    (failure None), those are not scanned, and their grids are not built.
    Where it refuses one, every branch is scanned in turn, so that a
    refusal the scan finds keeps its witness; only where the scan finds
    none is the book refused at the first decided failure. The report's
    scan ends are each grid's last volume, or with in_offsets its offset;
    on the bid branch they and the witness are negated.
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
    signs = (1.0, -1.0)
    decisions = [decide(branch, a, lo, top) if decide is not None else None
                 for branch, (lo, top, _) in zip(branches, ranges)]
    refusals = [(sign, d) for sign, d in zip(signs, decisions) if d is not None and d[1] is not None]
    for sign, branch, decision in zip(signs, branches, decisions):
        if decision is not None and not refusals:
            continue
        failure = branch_failure(branch, a, _scan_grid(branch, x0)[0])
        if failure is not None:
            if refusals:
                notes.insert(0, f"{refusals[0][1][0]}: refused, witness from the scan")
            return ValidationReport(False, failure[0], sign * failure[1], scan_lo, scan_hi, "; ".join(notes))
    if refusals:
        sign, (how, (reason, witness)) = refusals[0]
        notes.insert(0, f"{how}: refused where the scan found no failure")
        return ValidationReport(False, reason, sign * witness, scan_lo, scan_hi, "; ".join(notes))
    if all(d is not None for d in decisions):
        notes.insert(0, f"{decisions[0][0]}, no scan")
    return ValidationReport(ok=True, scan_lo=scan_lo, scan_hi=scan_hi, detail="; ".join(notes))


def _h1_failure(branch: Shape, a: float, grid: list):
    """The first volume of the grid where l(y) > 0 fails, with its reason.
    At a = 0, l(y) = f(0) > 0 wherever f(F^{-1}(y)) is finite, so there the
    offsets' overflow is checked on its own."""
    if a == 0.0:
        return next((("offset_not_finite", y) for y in grid if not math.isfinite(branch.offset(y))), None)
    for y in grid:
        if not injectivity_margin(branch, a, y) > 0.0:
            finite = math.isfinite(branch.offset(y))
            return ("h1_not_injective" if finite else "offset_not_finite"), y
    return None


def _h1_decided(branch: Shape, a: float, lo: float, top: float):
    """How l(y) > 0 is decided on a branch without its scan (see _scan):
    by the lemma, which passes, or exactly on a ramp. Either needs the
    offset at top, the largest in the range, to be finite."""
    if not math.isfinite(branch.offset(top)):
        return None
    if branch._h1_lemma:
        return "model 1 decided by the lemma", None
    if isinstance(branch, _Ramp):
        ok, witness = branch._h1_decision(a, lo, top)
        if ok is not None:
            return "model 1 decided on the ramp's breaks", None if ok else ("h1_not_injective", witness)
    return None


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
    finite on the whole range, and the branch passes.

    A ramp (a table's side, the counterexample) is decided exactly: g^2
    is affine in the volume between the knot volumes V_k, so
    g(ay)^2 - a^4 g(y)^2 is affine between V_k and V_k/a, and its values
    there and at the range's ends decide l > 0 on the whole range (see
    _Ramp._h1_decision). A ramp it passes is not scanned. One it refuses
    is still scanned, so that a refusal keeps the scan's witness (until
    the scan goes, ROADMAP item 18); only where the grid misses the
    failure is the first failing break the witness. Where a decided
    value is within roundoff of 0, the scan decides.

    Elsewhere, where the top offset overflows, the margin is scanned on
    the grid as before, and an overflow is refused as "offset_not_finite"
    at the first grid volume where the margin fails, or at a = 0, where
    the margin is f(0), where the offset overflows.
    """
    return _scan(shape, a, x0, _h1_failure, in_offsets=False, decide=_h1_decided)


def _least_density(branch: Shape, a: float, x: float) -> float:
    """min f over [a x, x] on one branch, sampled."""
    return min(map(branch.density, np.linspace(a * x, x, _GROWTH_SAMPLES).tolist()))


def _not_injective(x: float, v: float):
    """A failure of h2 at offset x, volume v: where the offset overflowed
    the scan says nothing about the shape, and the volume is the witness
    of a numeric failure, as in _h1_failure."""
    return ("h2_not_injective", x) if math.isfinite(x) else ("offset_not_finite", v)


def _growth_failure(branch: Shape, a: float, v_mid: float, v_edge: float):
    """The growth proxy's failure at the grid's edge, or None: x^2 min f
    over [ax, x] rises from the grid's middle volume to its edge. It is
    compared as a ratio, since x^2 underflows to 0 at offsets below about
    1e-162 (and on a deep book at a tiny size x_mid itself underflows to
    0)."""
    x_edge, x_mid = branch.offset(v_edge), branch.offset(v_mid)
    grows = x_mid == 0.0 or (
        (x_edge / x_mid) ** 2 * _least_density(branch, a, x_edge) > _least_density(branch, a, x_mid))
    return None if grows else ("explosion_violated", x_edge)


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
        return _growth_failure(branch, a, grid[len(grid) // 2], grid[-1])
    return None


def _h2_decided(branch: Shape, a: float, lo: float, top: float):
    """How the h2 checks are decided on a ramp without its scan (see
    _scan), where its offset at top is finite; then the growth proxy at
    the grid's middle volume and edge, as the scan checks it."""
    if not isinstance(branch, _Ramp):
        return None
    how = "model 2 decided on the ramp's breaks"
    if not top > lo:  # the scan's grid is empty
        return how, None
    x_hi = branch.offset(top)
    if not math.isfinite(x_hi):
        return None
    ok, witness = branch._h2_decision(a, branch.offset(lo), x_hi)
    if ok is None:
        return None
    if not ok:
        return how, ("h2_not_injective", witness)
    return how, _growth_failure(branch, a, _grid_middle(lo, top), top)


def validate_model2(shape: Shape, a: float, x0: float) -> ValidationReport:
    """Check the spread-recovery assumptions over the working range.

    Checks, in offset space over the working range of each distinct
    branch of the book: the one-sided gap f(x) - a f(ax) stays positive,
    h2 has the sign of x and is strictly increasing, and the growth proxy
    x^2 inf f over [ax,x] rises from the middle of the scan's grid to its
    edge (a necessary sample of the explosion condition, not a proof of
    it).

    A ramp is decided exactly: between the breaks t_k and t_k/a both
    f(x) and f(ax) are affine, so the gap's values at the breaks and the
    range's ends decide its sign, and h2' has the sign of a quadratic
    that is monotone on each piece where the gap is positive, so its
    one-sided values at the same points decide the rise (see
    _Ramp._h2_decision). The growth proxy is then taken at the grid's
    two volumes without the grid. As under validate_model1, a ramp it
    passes is not scanned; one it refuses is scanned, and keeps the
    scan's witness where the scan finds one (until ROADMAP item 18), or
    else the first failing break or turning offset; a decided value
    within roundoff of 0 leaves it to the scan. Every other branch is
    checked on the grid, where h2 must rise from one point to the next.
    """
    return _scan(shape, a, x0, _h2_failure, in_offsets=True, decide=_h2_decided)
