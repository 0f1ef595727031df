"""Shape primitives against independent oracles.

Every closed-form antiderivative (volume, premium) is checked against
scipy.integrate.quad on the raw density, so the library's formulas never
certify themselves. Round trips and symmetry laws run under hypothesis.
"""

import io
import math

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
    assert b.unbounded_volume


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
    assert not p.unbounded_volume
    with pytest.raises(OutOfDomain):
        p.offset(Q * 1.0000001)
    # the exp guard for alpha=1 saturates to +inf instead of overflowing
    p1 = PowerLawShape(Q, 1.0)
    assert p1.offset(Q * 1e4) == math.inf


def test_power_law_rejects_bad_params():
    with pytest.raises(InvalidParam):
        PowerLawShape(0.0, 1.0)
    with pytest.raises(InvalidParam):
        PowerLawShape(-1.0, 1.0)


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
    assert not t.unbounded_volume
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


def test_validation_report_scan_covers_requested_range():
    rep = validate_model1(BlockShape(Q), 0.5, 1000.0)
    assert rep.ok
    assert rep.scan_hi >= 2 * 1000.0 * 0.999  # coverage factor 2 by default


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
ARRAY_IDS = [f"{s.name}{getattr(s, 'alpha', getattr(s, 'mu', ''))}" for s in ARRAY_FAMILIES]

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


# ---------------------------------------------------------------------------
# the power-law premium near the quote
# ---------------------------------------------------------------------------


def _premium_by_quadrature(alpha, t):
    """int_0^t u q (1+u)^-alpha du by 20-point Gauss-Legendre: the integrand
    is analytic well past [0, t] for t <= 0.1, so this is exact to roundoff."""
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


@pytest.mark.parametrize("alpha", [-2.0, 0.5, 1.0, 1.5, 2.0, 20.0])
def test_power_premium_is_continuous_across_the_crossover(alpha):
    sh = PowerLawShape(Q, alpha)
    # the crossover sits at 0.1 for |alpha| <= 5 and shrinks like 1/alpha
    edge = 0.5 / max(5.0, abs(alpha))
    for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        want = _premium_by_quadrature(alpha, float(t))
        assert abs(sh.premium(float(t)) - want) <= 2e-14 * want, t
        assert abs(sh.premium_array([t])[0] - want) <= 2e-14 * want, t


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
    assert abs(shape.premium_curvature(x) - fd) <= 1e-6 * shape.density(x)
    if not isinstance(shape, TabulatedShape):
        assert shape.premium_curvature(-x) == shape.premium_curvature(x)


def test_power_premium_curvature_far_from_the_quote():
    # f + x f' = q/(1+x)^2 at alpha = 1; formed as f + x f' it cancelled to
    # 0 at x = 6.4e24, and alpha = 1.5 turns concave past x = 2
    x = 6.4e24
    assert PowerLawShape(Q, 1.0).premium_curvature(x) == pytest.approx(Q / (1 + x) ** 2, rel=1e-15)
    sh = PowerLawShape(Q, 1.5)
    assert sh.premium_curvature(1.9) > 0.0 > sh.premium_curvature(2.1)
