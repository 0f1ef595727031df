"""Shape primitives against independent oracles.

Every closed-form antiderivative (volume, premium) is checked against
scipy.integrate.quad on the raw density, so the library's formulas never
certify themselves. Round trips and symmetry laws run under hypothesis.
"""

import decimal
import io
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lobexec import (
    BlockShape,
    CounterexampleShape,
    InvalidParam,
    OutOfDomain,
    PowerLawShape,
    SqrtShape,
    TabulatedShape,
    injectivity_margin,
    load_tabulated_csv,
    spread_recovery_gap,
    validate_model1,
    validate_model2,
    volume_recovery_gap,
)
from lobexec.shapes import Shape, _bc, _bc_array, _bc_inv, _bc_inv_array, _expm1_edge

Q = 5000.0

FAMILIES = [
    BlockShape(Q),
    PowerLawShape(Q, 0.0),
    PowerLawShape(Q, 1.0),
    PowerLawShape(Q, 2.0),
    PowerLawShape(Q, 0.5),
    PowerLawShape(Q, -1.0),
    PowerLawShape(Q, -2.0),
    PowerLawShape(Q, 1.5),
    SqrtShape(Q, 1.0),
    SqrtShape(Q, 5.0),
    CounterexampleShape(2),
    CounterexampleShape(5),
]


def _ids(shapes):
    return [s.name for s in shapes]


@pytest.mark.parametrize("shape", FAMILIES, ids=_ids(FAMILIES))
@pytest.mark.parametrize("x", [0.3, 1.0, 7.5, 40.0])
def test_volume_matches_quadrature(shape, x):
    want, err = quad(shape.density, 0.0, x, limit=200)
    got = shape.volume(x)
    assert abs(got - want) <= 1e-9 * abs(want) + 10 * err


@pytest.mark.parametrize("shape", FAMILIES, ids=_ids(FAMILIES))
@pytest.mark.parametrize("x", [0.3, 1.0, 7.5, 40.0])
def test_premium_matches_quadrature(shape, x):
    want, err = quad(lambda t: t * shape.density(t), 0.0, x, limit=200)
    got = shape.premium(x)
    assert abs(got - want) <= 1e-9 * abs(want) + 10 * err


@pytest.mark.parametrize("shape", FAMILIES, ids=_ids(FAMILIES))
def test_premium_by_volume_derivative_is_offset(shape):
    # d/dy premium(offset(y)) = offset(y); central difference at a few volumes
    for y in (10.0, 500.0, 2400.0):
        h = 1e-4 * y
        fd = (shape.premium_by_volume(y + h) - shape.premium_by_volume(y - h)) / (2 * h)
        assert abs(fd - shape.offset(y)) <= 1e-6 * max(1.0, abs(shape.offset(y)))


@pytest.mark.parametrize("shape", FAMILIES, ids=_ids(FAMILIES))
@given(x=st.floats(min_value=-45.0, max_value=45.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_offset_volume_round_trip(shape, x):
    y = shape.volume(x)
    back = shape.offset(y)
    assert abs(back - x) <= 1e-10 * max(1.0, abs(x))


@pytest.mark.parametrize("shape", FAMILIES, ids=_ids(FAMILIES))
@given(x=st.floats(min_value=0.0, max_value=45.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_signed_extension(shape, x):
    assert shape.volume(-x) == pytest.approx(-shape.volume(x), abs=1e-300)
    assert shape.premium(-x) == pytest.approx(shape.premium(x))
    assert shape.density(-x) == shape.density(x)


def test_block_values():
    b = BlockShape(Q)
    assert b.volume(2.0) == 2 * Q
    assert b.offset(2 * Q) == 2.0
    assert b.premium(2.0) == pytest.approx(2.0 * Q)  # q * x^2 / 2
    assert b.premium_by_volume(100.0) == pytest.approx(100.0**2 / (2 * Q))
    assert b.volume_bounds() == (-math.inf, math.inf)
    # the power law at alpha = 0, with a block book's own name, repr and equality
    assert isinstance(b, PowerLawShape) and b.alpha == 0.0 and b.name == "block"
    assert repr(b) == "BlockShape(q=5000.0)"
    assert b == BlockShape(Q) and hash(b) == hash(BlockShape(Q))
    assert b != PowerLawShape(Q, 0.0) and b != BlockShape(2 * Q)
    with pytest.raises(InvalidParam, match="block depth"):
        BlockShape(0.0)


NOT_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("q", NOT_FINITE, ids=repr)
@pytest.mark.parametrize("family", [
    lambda q: BlockShape(q), lambda q: PowerLawShape(q, 0.5), lambda q: SqrtShape(q, 1.0),
], ids=["block", "power", "sqrt"])
def test_a_depth_that_is_not_finite_is_refused(family, q):
    with pytest.raises(InvalidParam, match="depth must be finite and positive"):
        family(q)


@pytest.mark.parametrize("alpha", NOT_FINITE, ids=repr)
def test_a_power_exponent_that_is_not_finite_is_refused(alpha):
    with pytest.raises(InvalidParam, match="exponent must be finite"):
        PowerLawShape(Q, alpha)


@pytest.mark.parametrize("mu", NOT_FINITE + [-1.0], ids=repr)
def test_a_sqrt_curvature_that_is_not_finite_and_nonnegative_is_refused(mu):
    # NaN passes a test of mu < 0
    with pytest.raises(InvalidParam, match="curvature must be finite and >= 0"):
        SqrtShape(Q, mu)


FLAT_OFFSETS = [0.0, 1e-300, 1e-12, 0.3, 2.5, 1e3, 1e12, 1e300]


@pytest.mark.parametrize("q", [1e-3, 1.0, Q, 7.3e9])
def test_the_block_maps_are_the_flat_closed_forms_bit_for_bit(q):
    """density q, volume q x, offset v/q and premium q x^2 / 2, on the
    scalar and the array maps, at offsets of both signs out to 1e300
    (where the premium overflows); the volume and the offset of -0.0
    are +0.0."""
    b = BlockShape(q)
    xs = FLAT_OFFSETS + [-x for x in FLAT_OFFSETS]
    want = {
        "density": [q for x in xs],
        "volume": [q * x if x != 0.0 else 0.0 for x in xs],
        "offset": [x / q if x != 0.0 else 0.0 for x in xs],
        "premium": [0.5 * q * x * x for x in xs],
    }
    for name, values in want.items():
        scalar = [getattr(b, name)(x) for x in xs]
        array = getattr(b, name + "_array")(np.array(xs)).tolist()
        want_hex = [float.hex(v) for v in values]
        assert [float.hex(v) for v in scalar] == want_hex, name
        assert [float.hex(v) for v in array] == want_hex, name


def test_power_law_special_cases():
    # alpha = 1: volume = q * log(1+x), offset = exp(y/q) - 1
    p1 = PowerLawShape(Q, 1.0)
    assert p1.volume(3.0) == pytest.approx(Q * math.log(4.0), rel=1e-15)
    assert p1.offset(Q * math.log(4.0)) == pytest.approx(3.0, rel=1e-14)
    # alpha = 0 degenerates to the block
    p0 = PowerLawShape(Q, 0.0)
    assert p0.volume(7.0) == 7.0 * Q
    # alpha = 2: premium = q * (log(1+z) + 1/(1+z) - 1)
    p2 = PowerLawShape(Q, 2.0)
    z = 4.0
    assert p2.premium(z) == pytest.approx(Q * (math.log(1 + z) + 1 / (1 + z) - 1), rel=1e-14)


def test_power_law_saturation():
    # alpha > 1: total one-sided depth is q/(alpha-1); beyond that is an error
    p = PowerLawShape(Q, 2.0)
    lo, hi = p.volume_bounds()
    assert hi == pytest.approx(Q)
    assert lo == -hi
    with pytest.raises(OutOfDomain):
        p.offset(Q * 1.0000001)
    # exact up to the last volume below the bound, where 1 - v/q is 22 % off
    below = float(np.nextafter(Q, 0.0))
    assert p.offset(below) == p.offset_array([below])[0] == below / (Q - below)
    # the exp guard for alpha=1 saturates to +inf instead of overflowing
    p1 = PowerLawShape(Q, 1.0)
    assert p1.offset(Q * 1e4) == math.inf


def test_power_law_rejects_bad_params():
    with pytest.raises(InvalidParam):
        PowerLawShape(0.0, 1.0)
    with pytest.raises(InvalidParam):
        PowerLawShape(-1.0, 1.0)


@pytest.mark.parametrize("q,mu", [(0.0, 1.0), (-1.0, 1.0), (Q, -0.5)], ids=repr)
def test_sqrt_shape_rejects_bad_params(q, mu):
    with pytest.raises(InvalidParam):
        SqrtShape(q, mu)


def test_sqrt_shape_offset_closed_form():
    # offset(y) = y/q + mu*y^2/(4 q^2), exact for every mu >= 0
    for mu in (0.0, 0.5, 2.0, 10.0):
        s = SqrtShape(Q, mu)
        for y in (1.0, 300.0, 9000.0):
            assert s.offset(y) == pytest.approx(y / Q + mu * y * y / (4 * Q * Q), rel=1e-14)
            assert s.volume(s.offset(y)) == pytest.approx(y, rel=1e-12)


def test_counterexample_geometry():
    # density: (n+1) near the origin, linear ramp down to 1 at offset 1, flat beyond
    for n in (2, 3, 7):
        c = CounterexampleShape(n)
        assert c.density(0.0) == n + 1
        assert c.density(1.0) == pytest.approx(1.0)
        assert c.density(2.5) == 1.0
        assert c.volume(1.0 / n) == pytest.approx((n + 1) / n)
        assert c.volume(1.0) == pytest.approx((n + 3) / 2)
        # ramp is continuous at the knee
        eps = 1e-9
        assert c.density(1 / n + eps) == pytest.approx(c.density(1 / n - eps), abs=1e-6)


def test_counterexample_rejects_bad_n():
    with pytest.raises(InvalidParam):
        CounterexampleShape(1)
    with pytest.raises(InvalidParam):
        CounterexampleShape(0)
    for n in (2.5, "3", None):
        with pytest.raises(InvalidParam):
            CounterexampleShape(n)
    assert type(CounterexampleShape(3.0).n) is int


def test_spread_gap_counterexample_negative_at_one():
    # the non-injectivity witness: with a=1/2 and n=2 the map dips to -1/2 at x=1
    c = CounterexampleShape(2)
    assert spread_recovery_gap(c, 0.5, 1.0) == -0.5
    # yet near the origin the map rises with slope 1+a > 0
    x = 1e-7
    slope = spread_recovery_gap(c, 0.5, x) / x
    assert slope == pytest.approx(1.5, rel=1e-5)


def test_volume_gap_block():
    # block: h1(y) = y/q - a^2 y/q, linear
    b = BlockShape(Q)
    a = 0.3
    for y in (10.0, 1234.5):
        assert volume_recovery_gap(b, a, y) == pytest.approx(y * (1 - a * a) / Q, rel=1e-14)
    assert injectivity_margin(b, a, 500.0) == pytest.approx(Q * (1 - a * a), rel=1e-14)


@pytest.mark.parametrize(
    "shape",
    [BlockShape(Q), PowerLawShape(Q, 1.0), PowerLawShape(Q, -2.0), SqrtShape(Q, 2.0)],
    ids=_ids([BlockShape(Q), PowerLawShape(Q, 1.0), PowerLawShape(Q, -2.0), SqrtShape(Q, 2.0)]),
)
def test_validators_accept_regular_families(shape):
    r1 = validate_model1(shape, math.exp(-2.0), 1e5)
    r2 = validate_model2(shape, math.exp(-2.0), 1e5)
    assert r1.ok, r1
    assert r2.ok, r2


def test_validator_rejects_counterexample_model2():
    rep = validate_model2(CounterexampleShape(2), 0.5, 3.0)
    assert not rep.ok
    assert rep.reason in ("h2_not_injective", "explosion_violated")
    assert rep.witness is not None and math.isfinite(rep.witness)
    d = rep.to_dict()
    assert d["ok"] is False and d["reason"] == rep.reason


def test_validator_rejects_step_density_model1():
    """A deep band far from the origin with a shallow band near it makes the
    one-sided refill map non-injective: f(F^-1(a y)) can sample the shallow
    region while a^2 f(F^-1(y)) samples the deep one."""
    sh = TabulatedShape(
        offsets=(-25.0, -21.0, -20.0, 20.0, 21.0, 25.0),
        densities=(2000.0, 2000.0, 100.0, 100.0, 2000.0, 2000.0),
    )
    # margin really is negative somewhere: check one hand-picked volume
    a = 0.5
    ys = np.linspace(100.0, sh.volume(24.0), 400)
    margins = [injectivity_margin(sh, a, float(y)) for y in ys]
    assert min(margins) < 0.0
    rep = validate_model1(sh, a, 2500.0)
    assert not rep.ok
    assert rep.reason == "h1_not_injective"


def test_validator_model1_names_an_overflowing_offset():
    # offset = expm1(y/q) overflows past y = 709 q: that is a numeric
    # failure, not a non-injective h1
    rep = validate_model1(PowerLawShape(Q, 1.0), math.exp(-2.0), 1e15)
    assert not rep.ok
    assert rep.reason == "offset_not_finite"
    assert rep.witness > 709 * Q


def test_tabulated_matches_block():
    t = TabulatedShape(offsets=(-30.0, 30.0), densities=(Q, Q))
    b = BlockShape(Q)
    for x in (-20.0, -1.0, 0.0, 2.5, 29.0):
        assert t.volume(x) == pytest.approx(b.volume(x), rel=1e-14)
        assert t.premium(x) == pytest.approx(b.premium(x), rel=1e-13)
    for y in (-1000.0, 0.0, 321.0, 5 * Q):
        assert t.offset(y) == pytest.approx(b.offset(y), rel=1e-13)


def test_tabulated_quadrature_oracle():
    t = TabulatedShape(
        offsets=(-10.0, -2.0, 0.0, 1.0, 4.0, 12.0),
        densities=(700.0, 300.0, 450.0, 520.0, 100.0, 80.0),
    )
    for x in (-8.0, -1.0, 0.7, 3.0, 11.0):
        vol, verr = quad(t.density, 0.0, x, limit=300)
        prem, perr = quad(lambda u: u * t.density(u), 0.0, x, limit=300)
        assert t.volume(x) == pytest.approx(vol, abs=1e-8 + 10 * abs(verr))
        assert t.premium(x) == pytest.approx(prem, abs=1e-8 + 10 * abs(perr))
        assert t.offset(t.volume(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_tabulated_covered_mass_is_enforced():
    t = TabulatedShape(offsets=(-1.0, 1.0), densities=(10.0, 10.0))
    lo, hi = t.volume_bounds()
    assert (lo, hi) == (-10.0, 10.0)
    with pytest.raises(OutOfDomain):
        t.offset(10.5)
    with pytest.raises(OutOfDomain):
        t.volume(1.5)


def test_tabulated_validation_errors():
    with pytest.raises(InvalidParam):
        TabulatedShape(offsets=(0.0, 1.0), densities=(1.0, -1.0))
    with pytest.raises(InvalidParam):
        TabulatedShape(offsets=(1.0, 0.5), densities=(1.0, 1.0))
    with pytest.raises(InvalidParam):
        TabulatedShape(offsets=(1.0, 2.0), densities=(1.0, 1.0))  # 0 not in hull
    with pytest.raises(InvalidParam):
        TabulatedShape(offsets=(0.0,), densities=(1.0,))
    # an inf density gave maps that were NaN everywhere, and an inf offset
    # was taken with RuntimeWarnings
    for offsets, densities in (((-1.0, 0.0, 1.0), (5.0, math.inf, 5.0)),
                               ((-1.0, 0.0, math.inf), (5.0, 5.0, 5.0)),
                               ((-math.inf, 0.0, 1.0), (5.0, 5.0, 5.0))):
        with pytest.raises(InvalidParam):
            TabulatedShape(offsets, densities)


def test_load_tabulated_csv(tmp_path):
    p = tmp_path / "shape.csv"
    p.write_text("offset,density\n-5,100\n0,120\n5,90\n")
    t = load_tabulated_csv(p)
    assert t.density(0.0) == 120.0
    assert t.volume(5.0) == pytest.approx((120 + 90) / 2 * 5)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,f\n0,1\n1,1\n")
    with pytest.raises(InvalidParam):
        load_tabulated_csv(bad)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_load_tabulated_csv_reads_a_spreadsheet_export(tmp_path, newline):
    # a UTF-8 byte-order mark before the header, as spreadsheets write it
    text = newline.join(["offset,density", "-5,100", "0,120", "5,90", ""])
    for bom in ("", "\ufeff"):
        p = tmp_path / "shape.csv"
        p.write_bytes((bom + text).encode("utf-8"))
        t = load_tabulated_csv(p)
        assert t.density(0.0) == 120.0 and t.density(-5.0) == 100.0


def test_load_tabulated_csv_skips_blank_rows_and_refuses_a_bad_one(tmp_path):
    p = tmp_path / "shape.csv"
    p.write_text("offset,density\n-5,100\n\n ,\n0,120\n5,90\n")
    assert load_tabulated_csv(p).density(0.0) == 120.0
    for row in ("0,abc", "1"):
        p.write_text(f"offset,density\n-5,100\n{row}\n5,90\n")
        with pytest.raises(InvalidParam, match="bad row"):
            load_tabulated_csv(p)


@pytest.mark.parametrize("validate", [validate_model1, validate_model2])
@pytest.mark.parametrize("a,x0", [(1.0, 1e5), (-0.1, 1e5), (math.nan, 1e5), (0.5, 0.0),
                                  (0.5, -1.0), (0.5, math.nan)], ids=repr)
def test_validators_refuse_a_decay_or_size_out_of_range(validate, a, x0):
    with pytest.raises(InvalidParam):
        validate(BlockShape(Q), a, x0)


def test_model2_validator_accepts_the_block_book_at_a_tiny_size():
    # x^2 underflows to 0 at the scan's offsets near 4e-204; the growth
    # proxy is compared as a ratio, so the block book is not refused
    rep = validate_model2(BlockShape(Q), math.exp(-2.0), 1e-200)
    assert rep.ok, rep


def test_validation_report_scan_covers_requested_range():
    rep = validate_model1(BlockShape(Q), 0.5, 1000.0)
    assert rep.ok
    assert rep.scan_hi >= 2 * 1000.0 * 0.999  # the scan covers twice the working size


# ---------------------------------------------------------------------------
# the piecewise-linear books near the quote and against their old forms
# ---------------------------------------------------------------------------


def _exact_table_integrals(offsets, densities, x):
    """Volume and premium of the table's linear interpolant from 0 to x,
    in exact rational arithmetic, segment by segment."""
    k = [Fraction(float(v)) for v in offsets]
    f = [Fraction(float(v)) for v in densities]
    x = Fraction(x)
    lo_x, hi_x = min(x, Fraction(0)), max(x, Fraction(0))
    vol = prem = Fraction(0)
    for i in range(len(k) - 1):
        lo, hi = max(k[i], lo_x), min(k[i + 1], hi_x)
        if lo >= hi:
            continue
        m = (f[i + 1] - f[i]) / (k[i + 1] - k[i])
        c = f[i] - m * k[i]  # f(u) = c + m u on the segment
        vol += c * (hi - lo) + m * (hi * hi - lo * lo) / 2
        prem += c * (hi * hi - lo * lo) / 2 + m * (hi ** 3 - lo ** 3) / 3
    sign = 1 if x >= 0 else -1
    return sign * vol, sign * prem


def _wiggly_table(knots):
    offsets = np.concatenate(([-1.0], np.linspace(0.0, 200.0, knots)))
    return offsets, Q / np.sqrt(1.0 + np.abs(offsets)) * (1.0 + 0.3 * np.sin(7.0 * offsets))


NEAR_QUOTE_TABLES = [
    (np.arange(-200.0, 201.0), Q / np.sqrt(1.0 + np.abs(np.arange(-200.0, 201.0)))),
    # no knot at the quote: the ramps start from the interpolated density
    (np.array([-3.0, -1.5, 0.7, 2.5]), np.array([900.0, 450.0, 520.0, 100.0])),
    # 4000 segments a side: a plain running sum drifts to 1.7e-15 far out
    _wiggly_table(4001),
]


@pytest.mark.parametrize("table", NEAR_QUOTE_TABLES, ids=["401", "no-knot-at-0", "4001"])
@pytest.mark.parametrize("x", [1e-9, 1e-7, 1e-3, 0.37, 1.0, 2.5, 55.5, 199.9, 200.0])
def test_table_integrals_are_exact_near_the_quote_and_far(table, x):
    # the integrals were cumulatives from the table's left edge minus
    # their value at 0: at x = 1e-7 the premium read 100 % off and the
    # volume 3.9e-9; they are now summed outward from the quote
    offsets, dens = table
    sh = TabulatedShape(offsets, dens)
    for signed in (x, -x):
        if not offsets[0] <= signed <= offsets[-1]:
            continue
        vol, prem = _exact_table_integrals(offsets, dens, signed)
        for got, want in ((sh.volume(signed), vol), (sh.premium(signed), prem),
                          (sh.volume_array([signed])[0], vol), (sh.premium_array([signed])[0], prem)):
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-15) * abs(want), (signed, got)


# The counterexample's maps before it became a ramp, kept verbatim as
# the reference (its array forms were the same expressions under
# np.select). The ramp must match them to rounding, with one exception
# at the knee x = 1, where f' jumps: the premium's curvature f + x f'
# there took the ramp's slope and now takes the tail's, since every ramp
# knot is right-continuous.


@dataclass(frozen=True)
class _ClosedFormCounterexample(Shape):
    n: int
    name = "closed-form-ce"

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

    def premium_curvature(self, x):
        """f(x) + x f'(x), even in x."""
        n, t = self.n, abs(x)
        if t < 1.0 / n:
            return n + 1.0
        if t <= 1.0:
            return (n + 1.0) - self._s * (2.0 * t - 1.0 / n)
        return 1.0


def _curvature(shape, x):
    """The premium's curvature f + x f' as relative_curvature forms it."""
    return shape.relative_curvature(x) * shape.density(x)


def _knee_offsets(n):
    knees = [1.0 / n, 1.0]
    near = [float(np.nextafter(k, d)) for k in knees for d in (0.0, 2.0)]
    return [s * x for s in (1.0, -1.0) for x in [0.0, 1e-9] + knees + near + [7.0, 1e6]]


@pytest.mark.parametrize("n", [2, 3, 5, 50])
def test_counterexample_ramp_matches_its_closed_forms(n):
    ramp, ref = CounterexampleShape(n), _ClosedFormCounterexample(n)
    xs = _knee_offsets(n) + np.random.default_rng(n).uniform(-3.0, 3.0, 400).tolist()
    ys = [ref.volume(x) for x in xs]
    # density, volume and premium round relative to the depth at the quote
    scale = {"density": n + 1.0, "volume": n + 1.0, "premium": n + 1.0,
             "premium_curvature": n + 1.0, "offset": 1.0}
    for name, args in (("density", xs), ("volume", xs), ("premium", xs),
                       ("premium_curvature", xs), ("offset", ys)):
        for forms in ("scalar", "array"):
            if forms == "array" and name == "premium_curvature":
                continue
            want = np.array([getattr(ref, name)(v) for v in args])
            if name == "premium_curvature":
                got = np.array([_curvature(ramp, v) for v in args])
            else:
                got = (np.array([getattr(ramp, name)(v) for v in args]) if forms == "scalar"
                       else getattr(ramp, name + "_array")(args))
            if name == "premium_curvature":
                knee = np.abs(args) == 1.0
                got, want = got[~knee], want[~knee]
            gap = np.abs(got - want)
            assert np.all(gap <= 1e-15 * np.maximum(np.abs(want), scale[name])), (
                name, forms, np.asarray(args)[np.argmax(gap)])


@pytest.mark.parametrize("n", [2, 3, 5, 50])
def test_counterexample_curvature_at_the_knee_is_the_tails(n):
    # f' jumps from -n^2/(n-1) to 0 at x = 1; the closed form took the
    # ramp's side, (n+1) - n(2n-1)/(n-1) < 0, and the ramp takes the tail's
    ramp, ref = CounterexampleShape(n), _ClosedFormCounterexample(n)
    for x in (1.0, -1.0):
        assert _curvature(ramp, x) == 1.0
        assert ref.premium_curvature(x) == pytest.approx((n + 1) - n * (2 * n - 1) / (n - 1))
        left = float(np.nextafter(x, 0.0))
        assert _curvature(ramp, left) == pytest.approx(ref.premium_curvature(left), rel=1e-14)


# ---------------------------------------------------------------------------
# array maps against the scalar ones
# ---------------------------------------------------------------------------


def _table_401():
    offsets = np.arange(-200.0, 201.0)
    return TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))


ARRAY_FAMILIES = (
    [BlockShape(Q)]
    + [PowerLawShape(Q, al) for al in (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0)]
    + [SqrtShape(Q, 0.0), SqrtShape(Q, 1.0), CounterexampleShape(3), _table_401()]
)
ARRAY_IDS = [f"{s.name}{s.alpha if s.name == 'power' else getattr(s, 'mu', '')}" for s in ARRAY_FAMILIES]

# the closed forms are written in 1 + |x|, so they round relative to their
# size at unit offset: q for density, volume and premium, 1 for offset
MAP_SCALE = {"density": Q, "volume": Q, "premium": Q, "offset": 1.0}
# +-0 and the counterexample knees at 1/n and 1, in offset and in volume
SPECIAL_OFFSETS = [0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, 1.0, -1.0]
SPECIAL_VOLUMES = [0.0, -0.0, 4.0 / 3.0, -4.0 / 3.0, 3.0, -3.0]


def _scalar_or_nan(fn, v):
    try:
        return fn(float(v))
    except OutOfDomain:
        return math.nan


def assert_array_map_matches_scalar(shape, name, args):
    args = np.asarray(args, dtype=float)
    want = np.array([_scalar_or_nan(getattr(shape, name), v) for v in args])
    got = getattr(shape, name + "_array")(args)
    assert got.shape == args.shape
    # NaN exactly where the scalar map raises OutOfDomain, inf where it overflows
    assert np.array_equal(np.isnan(got), np.isnan(want)), (name, args[np.isnan(got) != np.isnan(want)])
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)]), name
    fin = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), fin), name
    gap = np.abs(got[fin] - want[fin])
    assert np.all(gap <= 1e-15 * np.maximum(np.abs(want[fin]), MAP_SCALE[name])), (
        name, args[fin][np.argmax(gap)])
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero])), name


@pytest.mark.parametrize("shape", ARRAY_FAMILIES, ids=ARRAY_IDS)
@given(xs=st.lists(st.floats(min_value=-1e4, max_value=1e4), max_size=40),
       ys=st.lists(st.floats(min_value=-1e7, max_value=1e7), max_size=40))
@settings(max_examples=40, deadline=None)
def test_array_maps_match_scalar_maps(shape, xs, ys):
    for name in ("density", "volume", "premium"):
        assert_array_map_matches_scalar(shape, name, SPECIAL_OFFSETS + xs)
    assert_array_map_matches_scalar(shape, "offset", SPECIAL_VOLUMES + ys)


def test_array_maps_out_of_domain():
    # the alpha > 1 saturation and the table's edges are NaN in the array maps
    for al in (1.5, 2.0):
        cap = Q / (al - 1.0)
        sh = PowerLawShape(Q, al)
        assert np.isnan(sh.offset_array([cap, -cap, 2.0 * cap])).all()
        assert_array_map_matches_scalar(sh, "offset", [cap * (1 - 1e-12), cap, -3.0 * cap])
    table = _table_401()
    lo, hi = table.volume_bounds()
    edges = [-200.0, 200.0, np.nextafter(200.0, 300.0), -201.0, 1e6]
    for name in ("density", "volume", "premium"):
        assert_array_map_matches_scalar(table, name, edges)
        assert np.isnan(getattr(table, name + "_array")(edges[2:])).all()
    assert_array_map_matches_scalar(table, "offset", [lo, hi, np.nextafter(hi, 2 * hi), 2 * lo])
    assert np.isnan(table.offset_array([np.nextafter(hi, 2 * hi), 2 * lo])).all()


def test_power_law_overflow_is_inf():
    # a float ** that overflows gives inf, as numpy's ** does in the array
    # maps, and at alpha = 1 the offset is inf past exp(700), short of overflow
    for al, name, arg in ((0.99, "offset", 1e15), (-2.0, "density", 1e200),
                          (-2.0, "volume", 1e200), (-2.0, "premium", 1e100),
                          (1.0, "offset", 705.0 * Q)):
        sh = PowerLawShape(Q, al)
        assert getattr(sh, name)(arg) == math.inf
        assert getattr(sh, name + "_array")([arg])[0] == math.inf



def test_a_premium_that_overflows_is_inf_in_both_maps():
    # far enough out both powers of the power law's closed premium
    # overflow (alpha < 0), where the array map formed inf - inf; and the
    # flat sqrt book's square overflowed with OverflowError
    for al in (-2.0, -1.0, -0.5):
        sh = PowerLawShape(Q, al)
        for t in (1e300, 1e250):
            assert sh.premium(t) == math.inf
            assert np.array_equal(sh.premium_array([t, -t, 1.0, np.inf, np.nan])[:3],
                                  [math.inf, math.inf, sh.premium(1.0)])
            assert np.isnan(sh.premium_array([np.inf, np.nan])).all()
    flat = SqrtShape(Q, 0.0)
    assert flat.premium(1e300) == math.inf == flat.premium_array(1e300)


# an uneven table: its bid branch is a ramp of its own, so an argument with
# no negative element goes to the ask branch's map as it is
UNEVEN_TABLE = TabulatedShape([-3.0, -1.0, 2.0, 5.0], [1.0, 4.0, 2.0, 7.0])
ARRAY_MAPS = ("density", "volume", "offset", "premium")


def _read_only(values):
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _distances(shape):
    """Read-only arrays of distances from the quote (offsets or volumes)
    that reach each branch of each array map: all near the quote, the
    power law's band and far regimes mixed, past a finite depth, NaN and
    inf, and a zero-strided view."""
    grid = 10.0 ** np.linspace(-12.0, 12.0, 97)
    args = [grid, grid[grid < 1e-3], [0.0, np.nan, np.inf, 1e300]]
    if isinstance(shape, PowerLawShape):
        # the premium's crossover, the expm1 edges of its terms, and the
        # volumes at them, about where the offset changes its form
        edges = [shape._crossover, *shape._expm1_below, *map(shape.volume, shape._expm1_below)]
        args.append([v * f for v in edges for f in (0.5, 1.0, 1.5)])
    if math.isfinite(shape._depth):
        args.append([0.5 * shape._depth, shape._depth, 2.0 * shape._depth])
    return [_read_only(a) for a in args] + [np.broadcast_to(0.25, (5,))]


@pytest.mark.parametrize("shape", ARRAY_FAMILIES + [UNEVEN_TABLE], ids=ARRAY_IDS + ["uneven"])
def test_an_array_map_never_writes_into_its_argument(shape):
    # the maps work in place, in arrays they allocate: each takes a
    # read-only argument, gives what it gives on a writable copy, and
    # returns an array that shares no memory with it. The signed maps are
    # called on both signs (on the uneven table an all-nonnegative
    # argument reaches the ask map as it is); the branch maps directly
    for dist in _distances(shape):
        for args in (dist, _read_only(-dist), _read_only(np.concatenate([dist, -dist]))):
            for name in ARRAY_MAPS:
                got = getattr(shape, name + "_array")(args)
                assert not np.shares_memory(got, args), name
                want = getattr(shape, name + "_array")(np.array(args))
                assert got.tobytes() == want.tobytes(), name
        for branch in {id(shape): shape, id(shape._bid): shape._bid}.values():
            for name in ARRAY_MAPS:
                with np.errstate(all="ignore"):
                    got = getattr(branch, f"_{name}_array")(dist)
                    want = getattr(branch, f"_{name}_array")(np.array(dist))
                assert not np.shares_memory(got, dist), name
                assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("shape", ARRAY_FAMILIES, ids=ARRAY_IDS)
@pytest.mark.parametrize("name", ARRAY_MAPS)
def test_a_0d_argument_maps_to_a_0d_array(shape, name):
    # a float, a numpy scalar or a 0-d array gives a 0-d array, the
    # element the map gives on one, so the maps can work in their result:
    # at +-0, on the bid side, and past the domain (the saturation, the
    # table's edge) or into overflow
    array_map = getattr(shape, name + "_array")
    for v in (0.0, -0.0, -1.5, 1e300, -1e300):
        one = array_map(np.array([v]))
        assert_array_map_matches_scalar(shape, name, [v])
        for arg in (v, np.float64(v), np.array(v)):
            got = array_map(arg)
            assert type(got) is np.ndarray and got.shape == (), (name, v, type(arg))
            assert got.tobytes() == one.tobytes(), (name, v, type(arg))


# ---------------------------------------------------------------------------
# the power-law premium near the quote
# ---------------------------------------------------------------------------


def _premium_by_quadrature(alpha, t):
    """int_0^t u q (1+u)^-alpha du by 20-point Gauss-Legendre: the integrand
    is analytic well past [0, t] for t <= 1 (its one singularity is at
    u = -1), so this is exact to roundoff."""
    x, w = np.polynomial.legendre.leggauss(20)
    u = 0.5 * t * (x + 1.0)
    return 0.5 * t * float(np.dot(w, u * Q * (1.0 + u) ** -alpha))


@pytest.mark.parametrize("alpha", [-2.0, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6, 1e-8])
def test_power_premium_near_the_quote(alpha, t):
    # the closed form subtracts two terms of about t: at t = 1e-6 it was
    # 5e-4 relative off, and at 1e-8 it read 0 or 1.85x the premium
    sh = PowerLawShape(Q, alpha)
    want = _premium_by_quadrature(alpha, t)
    assert abs(sh.premium(t) - want) <= 1e-14 * want
    assert sh.premium(-t) == sh.premium(t)
    assert np.all(np.abs(sh.premium_array([t, -t]) - want) <= 1e-14 * want)


@pytest.mark.parametrize("alpha", [0.99, 1.01, 1.99, 2.01])
@pytest.mark.parametrize("t", [0.11, 0.3, 1.0])
def test_power_premium_near_alpha_one_and_two(alpha, t):
    # (1+t)^p - 1 with p = 1 - alpha or 2 - alpha near 0 cancels, and the
    # 1/p in front magnifies the loss: alpha = 0.99 read 1.4e-12 relative
    # off at t = 0.11 before the closed form used expm1(p log1p(t))
    sh = PowerLawShape(Q, alpha)
    want = _premium_by_quadrature(alpha, t)
    assert abs(sh.premium(t) - want) <= 1e-14 * want
    assert abs(sh.premium_array([t])[0] - want) <= 1e-14 * want


def _volume_by_quadrature(alpha, t):
    """int_0^t q (1+u)^-alpha du by 20-point Gauss-Legendre, exact to
    roundoff for t <= 1 like the premium's."""
    x, w = np.polynomial.legendre.leggauss(20)
    u = 0.5 * t * (x + 1.0)
    return 0.5 * t * float(np.dot(w, Q * (1.0 + u) ** -alpha))


@pytest.mark.parametrize("alpha", [-2.0, 0.5, 1.5, 0.99, 1.01, 1.0 - 1e-6])
@pytest.mark.parametrize("t", [1e-8, 1e-4, 0.11, 0.3, 1.0])
def test_power_volume_and_offset_near_the_quote_and_alpha_one(alpha, t):
    # (1+t)^c - 1 and base^(1/c) - 1 cancel where c log1p(t) is small,
    # with c = 1 - alpha: they were 7.6e-14 relative off at alpha = 0.99,
    # 7.1e-10 at alpha = 1 - 1e-6, and 3.6e-9 and 6.1e-9 at t = 1e-8 for
    # alpha = 0.5, before both took the premium's expm1 forms
    sh = PowerLawShape(Q, alpha)
    vol = _volume_by_quadrature(alpha, t)
    assert abs(sh.volume(t) - vol) <= 1e-14 * vol
    assert abs(sh.volume_array([t])[0] - vol) <= 1e-14 * vol
    assert abs(sh.offset(vol) - t) <= 1e-14 * t
    assert abs(sh.offset_array([vol])[0] - t) <= 1e-14 * t


@pytest.mark.parametrize("t", [1e-9, 1e-6, 0.11])
def test_power_volume_and_offset_at_alpha_two_are_exact(t):
    # (1+t)^-1 - 1 and base^-1 - 1 cancel near the quote: 8.4e-8 relative
    # off at t = 1e-9 before they became q t/(1+t) and v/(q-v)
    sh = PowerLawShape(Q, 2.0)
    vol = Fraction(Q) * Fraction(t) / (1 + Fraction(t))
    for got in (sh.volume(t), sh.volume_array([t])[0], -sh.volume(-t)):
        assert abs(Fraction(float(got)) - vol) <= Fraction(1e-15) * vol
    v = float(vol)
    off = Fraction(v) / (Fraction(Q) - Fraction(v))
    for got in (sh.offset(v), sh.offset_array([v])[0], -sh.offset(-v)):
        assert abs(Fraction(float(got)) - off) <= Fraction(1e-15) * off


# the Box-Cox primitives that carry the power law's maps, at the edges of
# their forms, against 50 digits
BC_EXPONENTS = [-49.0, -2.0, -1.0, -0.5, 1e-9, -1e-9, 0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 51.0]
_DIGITS = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _bc_reference(t, c):
    """((1 + t)^c - 1)/c, or log1p(t) at c = 0, at the float t."""
    with decimal.localcontext(_DIGITS):
        log = (1 + Decimal(t)).ln()
        return log if c == 0.0 else ((Decimal(c) * log).exp() - 1) / Decimal(c)


def _bc_inv_reference(v, q, c):
    """The t with q bc(t, c) = v, at the floats v and q."""
    with decimal.localcontext(_DIGITS):
        z = Decimal(v) / Decimal(q)
        if c == 0.0:
            return z.exp() - 1
        return ((1 + Decimal(c) * z).ln() / Decimal(c)).exp() - 1


def _agrees(got, want, rel):
    """got is within rel of want relative, or inf where want is past the
    largest double."""
    got = float(got)
    with decimal.localcontext(_DIGITS):
        if abs(want) > Decimal(sys.float_info.max):
            return got == math.copysign(math.inf, want)
        return abs(Decimal(got) - want) <= Decimal(rel) * abs(want)


@pytest.mark.parametrize("c", BC_EXPONENTS, ids=repr)
def test_box_cox_matches_50_digits_at_the_edge_of_its_expm1_form(c):
    # distances from 1e-15 to 1e6, and the last float of the expm1 form
    # with its neighbours; where the edge expm1(0.5/|c|) overflows
    # (|c| = 1e-9) the form runs to the largest double, and inf is past it
    below = _expm1_edge(c)
    ts = (10.0 ** np.arange(-15.0, 6.25, 0.25)).tolist()
    if below:
        edge = min(below, sys.float_info.max)
        ts += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    for t in ts:
        want = _bc_reference(t, c)
        with np.errstate(all="ignore"):  # as the array maps run them
            array = _bc_array(np.array([t]), c, below)[0]
        for got in (_bc(t, c, below), array):
            assert _agrees(got, want, 1e-14), (t, got, want)


@pytest.mark.parametrize("c", [c for c in BC_EXPONENTS if c not in (0.0, 1.0)], ids=repr)
def test_the_box_cox_inverse_matches_50_digits_at_the_edge_of_its_expm1_form(c):
    # the inverse takes its expm1 form where |log1p(z)| < 0.5, z = c v/q:
    # about the volume at z = expm1(0.5) where c > 0 and expm1(-0.5)
    # where c < 0. At |c| = 1e-9 the offset there overflows, to inf
    v0 = Q * math.expm1(math.copysign(0.5, c)) / c
    for v in (math.nextafter(v0, 0.0), v0, math.nextafter(v0, math.inf)):
        want = _bc_inv_reference(v, Q, c)
        with np.errstate(all="ignore"):
            array = _bc_inv_array(np.array([v]), Q, c)[0]
        for got in (_bc_inv(v, Q, c), array):
            assert _agrees(got, want, 1e-14), (v, got, want)


@pytest.mark.parametrize("q", [Q, 1e4 / 3.0], ids=repr)
def test_the_alpha_two_offset_is_exact_up_to_its_depth(q):
    # v/(q - v) rounds once, since q - v is exact; formed as z/(1 - z)
    # from z = v/q it is 2^k times z's rounding off at v = q (1 - 2^-k),
    # where v/q rounds (q = 1e4/3)
    sh = PowerLawShape(q, 2.0)
    for k in range(1, 41):
        v = q * (1.0 - 2.0 ** -k)
        with decimal.localcontext(_DIGITS):
            want = Decimal(v) / (Decimal(q) - Decimal(v))
        for got in (sh.offset(v), sh.offset_array([v])[0], -sh.offset(-v)):
            assert _agrees(got, want, 1e-15), (k, got, want)


def test_the_power_offset_overflows_to_inf_within_its_expm1_form():
    # within 1/1420 of alpha = 1 the offset's expm1 form, where
    # |log1p(z)| < 0.5, reaches past exp(709.8): here log1p(z)/c = 720
    for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
        sh = PowerLawShape(Q, alpha)
        c = 1.0 - alpha
        v = Q * math.expm1(720.0 * c) / c
        assert sh.offset(v) == math.inf == sh.offset_array([v])[0] == -sh.offset(-v)


def test_a_power_offset_whose_c_v_overflows_is_finite():
    # alpha = -50 holds 9.8e307 shares within t = 1e6 of the quote, where
    # c v = 51 v overflows: z = c v/q is c (v/q) there, not inf/q
    sh = PowerLawShape(Q, -50.0)
    v = sh.volume(1e6)
    assert v == 9.804421581127655e307
    for got in (sh.offset(v), sh.offset_array([v])[0], -sh.offset(-v), -sh.offset_array([-v])[0]):
        assert abs(got - 1e6) <= 1e-14 * 1e6



def test_the_power_maps_take_their_limits_at_inf():
    # bc(t, -1) = t/(1 + t) is 1 at inf, not inf/inf: alpha = 2's volume is
    # its depth q there, its premium inf and alpha = 3's premium q/2, where
    # the alpha = 3 depth is also q/2
    for alpha, volume, premium in ((2.0, Q, math.inf), (3.0, 0.5 * Q, 0.5 * Q)):
        sh = PowerLawShape(Q, alpha)
        for x in (math.inf, -math.inf):
            assert sh.volume(x) == math.copysign(volume, x) == sh.volume_array([x])[0]
            assert sh.premium(x) == premium == sh.premium_array([x])[0]

@pytest.mark.parametrize("alpha", [-2.0, 0.5, 1.0, 1.5, 2.0, 20.0])
def test_power_premium_is_continuous_across_the_crossover(alpha):
    sh = PowerLawShape(Q, alpha)
    # the crossover sits at 0.1 for |alpha| <= 5 and shrinks like 1/alpha
    edge = 0.5 / max(5.0, abs(alpha))
    for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        want = _premium_by_quadrature(alpha, float(t))
        assert abs(sh.premium(float(t)) - want) <= 2e-14 * want, t
        assert abs(sh.premium_array([t])[0] - want) <= 2e-14 * want, t


PREMIUM_ALPHAS = [-50.0, -7.0, -2.0, -1.0, 0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 50.0]


def _near_edge(sh):
    """The offset past which both of the closed premium's terms take
    their power forms, or the crossover if that is further."""
    return max(sh._crossover, *sh._expm1_below)


def _premium_regimes(sh, rng):
    """Offsets all near the quote (below the crossover), all in the band
    of expm1 terms (up to the last expm1 edge), all far, and the three mixed."""
    cross, edge = sh._crossover, _near_edge(sh)
    near = np.concatenate([cross * rng.uniform(0.0, 1.0, 300),
                           cross * 10.0 ** rng.uniform(-15.0, 0.0, 300),
                           [0.0, np.nextafter(cross, 0.0)]])
    # the series on as few terms as possible: every offset at most the reach
    near_few = [sh._series_reach[k] * rng.uniform(0.5, 1.0, 50)
                for k in range(len(sh._series_reach)) if sh._series_reach[k] < cross]
    band = (cross + (edge - cross) * rng.uniform(0.0, 1.0, 300)) if edge > cross else np.empty(0)
    far = np.concatenate([edge * 10.0 ** rng.uniform(0.0, 6.0, 300), [edge]])
    mixed = rng.permutation(np.concatenate([near[::10], band[::10], far[::10], [np.nan, np.inf]]))
    return [near, *near_few, band, far, mixed]


def _closed_terms(alpha, t):
    """q (1+t)^(2-alpha) / |2-alpha| + q (1+t)^(1-alpha) / |1-alpha|, the
    size of the closed premium's two terms, which it rounds relative to
    (q at alpha = 1 and 2, whose closed forms take no such terms). At
    alpha = -50 and t = 0.19 they are 7x the premium they leave."""
    if alpha in (1.0, 2.0):
        return np.full(np.shape(t), Q)
    u = 1.0 + np.abs(t)
    with np.errstate(over="ignore"):
        return Q * (u ** (2.0 - alpha) / abs(2.0 - alpha) + u ** (1.0 - alpha) / abs(1.0 - alpha))


@pytest.mark.parametrize("alpha", PREMIUM_ALPHAS)
def test_the_power_premium_array_takes_the_scalar_formula_in_each_regime(alpha):
    # the array map evaluates each regime's formula on its own offsets and
    # the series on only the terms its largest offset needs: near the
    # quote it is the scalar map bit for bit, and everywhere within the
    # other array maps' tolerance, 1e-15 of the value or of q, or past the
    # crossover of the closed form's terms
    sh = PowerLawShape(Q, alpha)
    rng = np.random.default_rng(abs(int(1000 * alpha)))
    for t in _premium_regimes(sh, rng):
        for args in (t, -t):
            want = np.array([sh.premium(float(v)) for v in args])
            got = sh.premium_array(args)
            assert got.shape == args.shape
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
            fin = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), fin)
            scale = np.maximum(np.abs(want), Q)
            far = np.abs(args) >= sh._crossover
            scale[far] = np.maximum(scale[far], _closed_terms(alpha, args[far]))
            assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15 * scale[fin]), alpha
        near = t[t < sh._crossover]
        want = np.array([sh.premium(float(v)) for v in near])
        assert [v.hex() for v in sh.premium_array(t)[t < sh._crossover]] == [v.hex() for v in want]
        assert [v.hex() for v in sh.premium_array(-near)] == [v.hex() for v in want]
    # 0-d, as the lattice passes the flat book's first pre-trade offset
    edge = _near_edge(sh)
    for v in (0.0, 0.5 * sh._crossover, 0.5 * (sh._crossover + edge), 2.0 * edge):
        got, want = sh.premium_array(np.float64(v)), sh.premium(v)
        assert np.ndim(got) == 0
        assert abs(float(got) - want) <= 1e-15 * max(want, MAP_SCALE["premium"]), v
        if v < sh._crossover:
            assert float(got).hex() == want.hex()


# ---------------------------------------------------------------------------
# premium curvature f + x f'
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", FAMILIES + [_table_401()], ids=_ids(FAMILIES) + ["tabulated"])
@pytest.mark.parametrize("x", [0.3, 0.7, 7.5, 40.5])
def test_premium_curvature_is_the_derivative_of_x_f(shape, x):
    # central difference of x f(x), away from the counterexample's knees
    # and inside one segment of the table
    h = 1e-6 * x
    fd = ((x + h) * shape.density(x + h) - (x - h) * shape.density(x - h)) / (2 * h)
    assert abs(_curvature(shape, x) - fd) <= 1e-6 * shape.density(x)
    if not isinstance(shape, TabulatedShape):
        assert _curvature(shape, -x) == _curvature(shape, x)


@pytest.mark.parametrize("shape", FAMILIES + [_table_401()], ids=_ids(FAMILIES) + ["tabulated"])
@pytest.mark.parametrize("x", [0.3, 0.7, 7.5, 40.5])
def test_relative_curvature_is_the_curvature_over_the_density(shape, x):
    want = _closed_curvature(shape, x) / shape.density(x)
    assert shape.relative_curvature(x) == pytest.approx(want, rel=1e-15)


def _closed_curvature(shape, x):
    """f + x f' in closed form, at x > 0: q (1 + (1-alpha) x)/(1+x)^(alpha+1)
    on the power law, q (1 + mu x/2)/(1 + mu x)^(3/2) on the sqrt book,
    and c + m (x + w) on a ramp segment of density c + m w."""
    if isinstance(shape, PowerLawShape):
        return shape.q * (1.0 + (1.0 - shape.alpha) * x) / (1.0 + x) ** (shape.alpha + 1.0)
    if isinstance(shape, SqrtShape):
        return shape.q * (1.0 + 0.5 * shape.mu * x) / (1.0 + shape.mu * x) ** 1.5
    i, w = shape._locate(x)
    return shape._c[i] + shape._m[i] * (x + w)


def test_power_relative_curvature_stays_finite_far_from_the_quote():
    # at alpha = 1 it is 1/(1+x), which stays normal where f + x f' =
    # q/(1+x)^2 has underflowed to 0; alpha = 1.5 turns negative past x = 2
    x = 5.2e173
    assert _curvature(PowerLawShape(Q, 1.0), x) == 0.0
    assert PowerLawShape(Q, 1.0).relative_curvature(x) == pytest.approx(1.0 / (1.0 + x), rel=1e-15)
    sh = PowerLawShape(Q, 1.5)
    assert sh.relative_curvature(1.9) > 0.0 > sh.relative_curvature(2.1)
    assert sh.relative_curvature(-2.1) == sh.relative_curvature(2.1)


def test_power_premium_curvature_far_from_the_quote():
    # f + x f' = q/(1+x)^2 at alpha = 1; formed as f + x f' it cancelled to
    # 0 at x = 6.4e24, and alpha = 1.5 turns concave past x = 2
    x = 6.4e24
    assert _curvature(PowerLawShape(Q, 1.0), x) == pytest.approx(Q / (1 + x) ** 2, rel=1e-15)
    sh = PowerLawShape(Q, 1.5)
    assert _curvature(sh, 1.9) > 0.0 > _curvature(sh, 2.1)


# ---------------------------------------------------------------------------
# the branch model: one signed path for every book
# ---------------------------------------------------------------------------

SIGNED_MAPS = ("density", "volume", "offset", "premium", "premium_by_volume",
               "relative_curvature", "density_array",
               "volume_array", "offset_array", "premium_array", "volume_bounds")


def test_no_family_overrides_a_signed_map():
    # each book fills in its branch primitives; Shape's signed maps send
    # each argument to its branch
    import lobexec.shapes as shapes

    families = [cls for cls in vars(shapes).values()
                if isinstance(cls, type) and issubclass(cls, Shape) and cls is not Shape]
    assert {BlockShape, PowerLawShape, SqrtShape, CounterexampleShape, TabulatedShape} <= set(families)
    for cls in families:
        assert not set(SIGNED_MAPS) & set(vars(cls)), cls


def test_the_bid_branch_is_the_book_itself_unless_a_table_sets_its_own():
    for shape in (BlockShape(Q), PowerLawShape(Q, 1.5), SqrtShape(Q, 1.0), CounterexampleShape(3)):
        assert shape._bid is shape
    table = TabulatedShape([-3.0, -1.0, 2.0, 5.0], [1.0, 4.0, 2.0, 7.0])
    assert table._bid is not table and table._bid._bid is table._bid
    # the bid branch at t is the table at -t, with its volume negated
    for t in (0.5, 1.0, 2.5):
        assert table.density(-t) == table._bid._density(t)
        assert table.volume(-t) == -table._bid._volume(t)
    assert table.volume_bounds() == (-table._bid._depth, table._depth)


def _counterexample_table(n):
    """A table whose two sides are CounterexampleShape(n)'s ramp up to
    offset 1: n+1 on [0, 1/n], then down to 1 at 1."""
    return TabulatedShape([-1.0, -1.0 / n, 0.0, 1.0 / n, 1.0], [1.0, n + 1.0, n + 1.0, n + 1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 50])
def test_a_table_of_the_counterexample_ramp_maps_as_it_bit_for_bit(n):
    # the mirrored book and the table take the same signed path to ramps
    # with the same segments, so inside the table's cover they agree exactly
    ramp, table = CounterexampleShape(n), _counterexample_table(n)
    depth = table.volume_bounds()[1]
    assert table.volume_bounds() == (-depth, depth)
    rng = np.random.default_rng(n)
    inner = [0.0, -0.0, 1e-9, 1.0 / n, 0.5, float(np.nextafter(1.0, 0.0))]
    xs = [s * x for s in (1.0, -1.0) for x in inner] + rng.uniform(-1.0, 1.0, 200).tolist()
    vs = [s * v for s in (1.0, -1.0) for v in (0.0, 1e-9, (n + 1.0) / n, float(np.nextafter(depth, 0.0)))]
    vs += rng.uniform(-depth, depth, 200).tolist()
    assert all(-1.0 < x < 1.0 for x in xs) and all(abs(v) < depth for v in vs)
    for name, args in (("density", xs), ("volume", xs), ("premium", xs),
                       ("relative_curvature", xs), ("offset", vs), ("premium_by_volume", vs)):
        assert [getattr(table, name)(a).hex() for a in args] == [getattr(ramp, name)(a).hex() for a in args], name
    for name, args in (("density", xs), ("volume", xs), ("premium", xs), ("offset", vs)):
        got, want = getattr(table, name + "_array")(args), getattr(ramp, name + "_array")(args)
        assert got.tobytes() == want.tobytes(), name
