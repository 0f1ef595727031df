"""The validator scans: each distinct branch of a book is scanned once,
and the verdicts on the benchmark's books are pinned.

A mirrored book is its own bid branch, so its scan covers one branch. The
tests here check that the signed maps on its bid side repeat the ask
side bit for bit, mirrored, and that a mirrored book given an equal copy
of itself as its bid branch, which forces the second scan, gets the same
report. The pins on the tables' scan ends are the only pins on a bid
branch's own end.
"""

import copy
import functools
import math

import numpy as np
import pytest

from lobexec import (
    BlockShape,
    CounterexampleShape,
    MarketParams,
    OutOfDomain,
    PowerLawShape,
    SqrtShape,
    TabulatedShape,
    injectivity_margin,
    shapes,
    solve,
    spread_recovery_gap,
    validate_model1,
    validate_model2,
)

Q, X0, RHO = 5000.0, 1e5, 20.0


def _table_401():
    """The benchmark's table: 5000/sqrt(1+|x|) on 401 knots of [-200, 200]."""
    offsets = np.arange(-200.0, 201.0)
    return TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))


def _decay(steps):
    return math.exp(-RHO / steps)


MIRRORED = [
    BlockShape(Q),
    PowerLawShape(Q, -2.0),
    PowerLawShape(Q, -1.0),
    PowerLawShape(Q, 0.0),
    PowerLawShape(Q, 0.5),
    PowerLawShape(Q, 1.0),
    PowerLawShape(Q, 1.5),
    PowerLawShape(Q, 2.0),
    SqrtShape(Q, 1.0),
    CounterexampleShape(3),
]
MIRRORED_IDS = [f"{s.name}{s.alpha if s.name == 'power' else ''}" for s in MIRRORED]


def _scan_size(shape):
    # the counterexample's knees sit at volumes 4/3 and 3 for n = 3
    return 14.5 if isinstance(shape, CounterexampleShape) else X0


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("steps", [3, 10, 100, 10_000])
@pytest.mark.parametrize("shape", MIRRORED, ids=MIRRORED_IDS)
def test_the_bid_branch_mirrors_the_ask_branch_bit_for_bit(shape, steps):
    a = 1.0 / 3.0 if isinstance(shape, CounterexampleShape) else _decay(steps)
    pos, _ = shapes._scan_grid(shape, _scan_size(shape))
    bid_grid, _ = shapes._scan_grid(shape._bid, _scan_size(shape))
    neg = [-v for v in bid_grid]
    assert len(pos) == len(neg) > 0
    assert _hex(neg) == _hex([-v for v in pos])
    # model 1: the injectivity margin at -y is the margin at y
    ask = [injectivity_margin(shape, a, y) for y in pos]
    bid = [injectivity_margin(shape, a, y) for y in neg]
    assert _hex(bid) == _hex(ask)
    # model 2: the offset is negated, f(x) - a f(ax) is the same, h2 negated
    for v in pos:
        x, x_bid = shape.offset(v), shape.offset(-v)
        assert x_bid.hex() == (-x).hex()
        gap = shape.density(x) - a * shape.density(a * x)
        assert (shape.density(x_bid) - a * shape.density(a * x_bid)).hex() == gap.hex()
        assert spread_recovery_gap(shape, a, x_bid).hex() == (-spread_recovery_gap(shape, a, x)).hex()


@pytest.mark.parametrize("steps", [3, 10, 100, 10_000])
@pytest.mark.parametrize("shape", MIRRORED, ids=MIRRORED_IDS)
def test_a_forced_bid_branch_scan_gives_the_same_report(shape, steps):
    a = 1.0 / 3.0 if isinstance(shape, CounterexampleShape) else _decay(steps)
    x0 = _scan_size(shape)
    skipped = [validate(shape, a, x0) for validate in (validate_model1, validate_model2)]
    # the same book with an equal copy of itself as its bid branch
    twin = copy.copy(shape)
    object.__setattr__(twin, "_bid", copy.copy(shape))
    forced = [validate(twin, a, x0) for validate in (validate_model1, validate_model2)]
    assert forced == skipped


# the ask side is flat; the bid side is the counterexample's ramp for
# n = 2 (3 on [0, 1/2], down to 1 at 1), then a steep rise to 100 at 2
LOPSIDED = TabulatedShape([-100.0, -2.0, -1.0, -0.5, 0.0, 100.0], [100.0, 100.0, 1.0, 3.0, 3.0, 3.0])
# the density rises outward, from 1 at |x| <= 1 to 100 past 1.1: where
# x passes 1, f(x) - a f(ax) stays positive, but h2 falls back
RISING = TabulatedShape([-10.0, -1.1, -1.0, 1.0, 1.1, 10.0], [100.0, 100.0, 1.0, 1.0, 100.0, 100.0])


def test_a_table_unsound_on_the_bid_side_only_is_refused():
    ask = TabulatedShape([-100.0, 0.0, 100.0], [3.0, 3.0, 3.0])
    lopsided = LOPSIDED
    for validate in (validate_model1, validate_model2):
        assert validate(ask, 0.5, 100.0).ok
        rep = validate(lopsided, 0.5, 100.0)
        assert not rep.ok and rep.witness < 0.0
    _assert_verdict(validate_model1(lopsided, 0.5, 100.0),
                    (False, "h1_not_injective", -3.2905676092995906, -200.0, 200.0))
    # the bid branch's scan ends at offset -3.47, the ask branch's at 66.7
    _assert_verdict(validate_model2(lopsided, 0.5, 100.0),
                    (False, "h2_not_injective", -0.8813500971910233,
                     -3.4699999999999998, 66.66666666666667))


def test_an_h2_that_stops_increasing_is_refused():
    a, rising = math.exp(-2.0), RISING
    rep = validate_model2(rising, a, 5.0)
    _assert_verdict(rep, (False, "h2_not_injective", 1.0080568921027735))
    x = rep.witness
    assert rising.density(x) - a * rising.density(a * x) > 0.0
    assert 0.0 < spread_recovery_gap(rising, a, x) < spread_recovery_gap(rising, a, 1.0)


# (ok, reason, witness) of validate_model1 and validate_model2 at x0 = 1e5,
# rho = 20, T = 1, on the books of the benchmark's solve cases, and on
# the table (scan_lo, scan_hi): each side clamped to its covered mass
PASS = (True, None, None)
TABLE_PASS = (PASS + (-131972.62313554963, 131972.62313554963),
              PASS + (-199.99999999962589, 199.99999999962589))
SOLVE_VERDICTS = {
    ("block", 10): (PASS, PASS),
    ("block", 100): (PASS, PASS),
    ("block", 10_000): (PASS, PASS),
    ("power-2", 10): (PASS, PASS),
    ("power-2", 100): (PASS, PASS),
    ("power-2", 10_000): (PASS, PASS),
    ("power-1", 10): (PASS, PASS),
    ("power-1", 100): (PASS, PASS),
    ("power-1", 10_000): (PASS, PASS),
    ("power0.5", 10): (PASS, PASS),
    ("power0.5", 100): (PASS, PASS),
    ("power0.5", 10_000): (PASS, PASS),
    ("power1", 10): (PASS, PASS),
    # false refusals of model 2 on power alpha = 1: f(x) - a f(ax) cancels
    # to 0 at offsets near 1e16. ROADMAP item 2 (divided-difference gaps)
    # flips these to passes on purpose; update the pins with it
    ("power1", 19): (PASS, (False, "h2_not_injective", 4.557852497317713e16)),
    ("power1", 100): (PASS, (False, "h2_not_injective", 9440758515173822.0)),
    ("power1", 10_000): (PASS, (False, "h2_not_injective", 122341291011150.69)),
    ("sqrt", 10): (PASS, PASS),
    ("sqrt", 100): (PASS, PASS),
    ("sqrt", 10_000): (PASS, PASS),
    ("tabulated", 10): TABLE_PASS,
    ("tabulated", 100): TABLE_PASS,
}
SOLVE_BOOKS = {
    "block": BlockShape(Q),
    "power-2": PowerLawShape(Q, -2.0),
    "power-1": PowerLawShape(Q, -1.0),
    "power0.5": PowerLawShape(Q, 0.5),
    "power1": PowerLawShape(Q, 1.0),
    "sqrt": SqrtShape(Q, 1.0),
    "tabulated": _table_401(),
}


def _assert_verdict(rep, want):
    """want is (ok, reason, witness), or with (scan_lo, scan_hi) after it."""
    ok, reason, witness, *scan = want
    assert (rep.ok, rep.reason) == (ok, reason)
    if witness is None:
        assert rep.witness is None
    else:
        assert rep.witness == pytest.approx(witness, rel=1e-12)
    if scan:
        assert [rep.scan_lo, rep.scan_hi] == pytest.approx(scan, rel=1e-12)


@pytest.mark.parametrize("book,steps", sorted(SOLVE_VERDICTS), ids=lambda v: str(v))
def test_validator_verdicts_on_the_solve_books_are_pinned(book, steps):
    want1, want2 = SOLVE_VERDICTS[(book, steps)]
    a = _decay(steps)
    _assert_verdict(validate_model1(SOLVE_BOOKS[book], a, X0), want1)
    _assert_verdict(validate_model2(SOLVE_BOOKS[book], a, X0), want2)


# the counterexample at a = 1/n: model 1 passes, model 2 is refused on the ramp
COUNTEREXAMPLE_VERDICTS = {
    (2, 14.5): (False, "h2_not_injective", 0.8764037210048616),
    (2, 3.0): (False, "h2_not_injective", 0.9044914375461456),
    (3, 14.5): (False, "h2_not_injective", 1.0165483312137007),
    (3, 3.0): (False, "h2_not_injective", 0.9485130860951425),
    (5, 14.5): (False, "h2_not_injective", 1.0450291699335947),
}


@pytest.mark.parametrize("n,x0", sorted(COUNTEREXAMPLE_VERDICTS))
def test_validator_verdicts_on_the_counterexample_are_pinned(n, x0):
    shape, a = CounterexampleShape(n), 1.0 / n
    _assert_verdict(validate_model1(shape, a, x0), PASS)
    _assert_verdict(validate_model2(shape, a, x0), COUNTEREXAMPLE_VERDICTS[(n, x0)])


def test_a_book_thinning_faster_than_x_squared_fails_the_growth_proxy():
    # alpha = 3: x^2 f(x) -> 0, and at x0 = 1e12 the scan, clamped to the
    # depth q/2, sees the proxy fall from the grid's middle to its edge
    rep = validate_model2(PowerLawShape(Q, 3.0), math.exp(-50.0), 1e12)
    assert (rep.ok, rep.reason, rep.witness.hex()) == (False, "explosion_violated", "0x1.e850328461832p+19")
    assert rep.witness == 1000065.5786597787 == rep.scan_hi == -rep.scan_lo


# validate_model2's branch check and _least_density verbatim: the reference
# for a rewrite of _h2_failure. On the same scalar maps a rewrite must give
# the same reports bit for bit. The array maps differ from the scalar maps
# in the last bit (numpy's SIMD expm1, log1p and power against libm's), and
# on them a refusal that roundoff makes can move its witness


def _least_density(branch, a, x):
    """min f over [a x, x] on one branch, sampled."""
    return min(map(branch.density, np.linspace(a * x, x, shapes._GROWTH_SAMPLES).tolist()))


def _h2_failure_point_by_point(branch, a, grid):
    offset, density = branch.offset, branch.density
    prev_h2 = prev_x = 0.0
    for v in grid:
        x = offset(v)
        # f(x) and f(ax) once; h2 as spread_recovery_gap forms it
        fx, fax = density(x), density(a * x)
        den = fx - a * fax
        if not den > 0.0:
            return "h2_not_injective", x
        h2 = x * (fx - a * a * fax) / den
        # finite, of the offset's sign, and strictly increasing where the offset grew
        if not math.isfinite(h2) or h2 * x < 0.0 or (x > prev_x and not h2 > prev_h2):
            return "h2_not_injective", x
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


def _h2_failure_reference(branch, a, grid):
    """The point-by-point loop, with a witness that is not finite read as
    the offset's overflow: "offset_not_finite" at the first volume of the
    grid whose offset is not finite, where the loop stopped."""
    failure = _h2_failure_point_by_point(branch, a, grid)
    if failure is not None and not math.isfinite(failure[1]):
        return "offset_not_finite", next(v for v in grid if not math.isfinite(branch.offset(v)))
    return failure


def _report_key(rep):
    witness = None if rep.witness is None else rep.witness.hex()
    return rep.ok, rep.reason, witness, rep.scan_lo.hex(), rep.scan_hi.hex(), rep.detail


REFERENCE_BOOKS = (
    [BlockShape(Q)]
    + [PowerLawShape(Q, alpha) for alpha in (-50.0, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0)]
    + [SqrtShape(Q, mu) for mu in (0.0, 1.0, 50.0)]
    + [CounterexampleShape(n) for n in (2, 3, 7)]
    + [_table_401(), LOPSIDED]
)
REFERENCE_DECAYS = [0.0, math.exp(-2.0), math.exp(-0.2), 1.0 - 1e-9, math.exp(-50.0)]
REFERENCE_SIZES = [1e-200, 1e-6, 1e5, 1e12, 1e15]


RAMP_M1 = "model 1 decided on the ramp's breaks"
RAMP_M2 = "model 2 decided on the ramp's breaks"


def _decided_detail(how, want):
    """The detail of a ramp that its decision settles, given the scan's
    report on it: the decision's note, then the scan's own notes. A
    refusal is still scanned, and keeps the scan's witness."""
    note = f"{how}, no scan" if want.ok else f"{how}: refused, witness from the scan"
    return "; ".join([note] + [want.detail] * bool(want.detail))


def _ramp_battery(shape, validate, reference, how):
    """Each report of validate on a battery book against the scan's: the
    same verdict, witness and scan ends bit for bit; on a ramp the detail
    says how it was decided, or is the scan's where a value that decides
    is within roundoff of 0. Returns the (a, x0) the scan decided, and
    {(a, x0): witness} of the scan's false passes, which the decision
    refuses at its own witness."""
    ramp, in_offsets = isinstance(shape, shapes._Ramp), validate is validate_model2
    deferred, false_passes = [], {}
    for a in REFERENCE_DECAYS:
        for x0 in REFERENCE_SIZES:
            got = validate(shape, a, x0)
            want = shapes._scan(shape, a, x0, reference, in_offsets=in_offsets)
            if ramp and want.ok and not got.ok:
                assert got.detail.startswith(f"{how}: refused where the scan found no failure"), (a, x0)
                assert _report_key(got)[3:5] == _report_key(want)[3:5], (a, x0)
                false_passes[(a, x0)] = got.witness
                continue
            assert _report_key(got)[:5] == _report_key(want)[:5], (a, x0)
            if ramp and got.detail != want.detail:
                assert got.detail == _decided_detail(how, want), (a, x0)
            elif ramp:
                deferred.append((a, x0))
            else:
                assert got.detail == want.detail, (a, x0)
    return deferred, false_passes


@pytest.mark.parametrize("shape", REFERENCE_BOOKS,
                         ids=lambda s: f"{s.name}{getattr(s, 'alpha', getattr(s, 'mu', getattr(s, 'n', '')))}")
def test_validate_model2_gives_the_point_by_point_reports(shape):
    deferred, false_passes = _ramp_battery(shape, validate_model2, _h2_failure_reference, RAMP_M2)
    assert false_passes == {}
    # only at a = 1 - 1e-9, where f(x) - a f(ax) is 1e-9 of f, does the
    # decision leave a ramp to the scan
    assert {a for a, _ in deferred} <= {1.0 - 1e-9}


def test_the_reference_battery_meets_every_verdict():
    verdicts = {validate_model2(shape, a, x0).reason for shape in REFERENCE_BOOKS
                for a in REFERENCE_DECAYS for x0 in REFERENCE_SIZES}
    assert verdicts == {None, "h2_not_injective", "explosion_violated", "offset_not_finite"}
    # the known false refusal (power alpha = 1 at N = 100, rho = 20) stays
    rep = validate_model2(PowerLawShape(Q, 1.0), math.exp(-0.2), 1e5)
    assert (rep.ok, rep.reason) == (False, "h2_not_injective")
    assert math.exp(-0.2) == _decay(100)


# validate_model1's branch check as it scanned every book, verbatim: the
# reference for the books it now decides by the lemma. On the ramps, and
# wherever the offset at the top of the range overflows, the scan still
# runs, and there it must give the same reports bit for bit. On the
# proven books the only reports that may differ are its refusals at
# "h1_not_injective", which the lemma shows roundoff made: those pass


def _h1_failure_point_by_point(branch, a, grid):
    for y in grid:
        if not injectivity_margin(branch, a, y) > 0.0:
            finite = math.isfinite(branch.offset(y))
            return ("h1_not_injective" if finite else "offset_not_finite"), y
    return None


LEMMA = "model 1 decided by the lemma, no scan"
LEMMA_ALPHAS = [-500.0, -50.0, -2.0, -1.0, -0.5, -1e-9, 0.0, 1e-9, 0.25, 0.5, 0.99, 1.0 - 1e-9,
                1.0, 1.0 + 1e-9, 1.01, 1.0385, 1.039, 1.04, 1.1, 1.5, 2.0, 3.0, 50.0]
LEMMA_BOOKS = ([BlockShape(Q)] + [PowerLawShape(Q, alpha) for alpha in LEMMA_ALPHAS]
               + [SqrtShape(Q, mu) for mu in (0.0, 1.0, 50.0, 1e6)])
LEMMA_DECAYS = [0.0, math.exp(-745.0), math.exp(-50.0), math.exp(-20.0), math.exp(-2.0),
                math.exp(-0.2), math.exp(-0.002), 1.0 - 1e-9, math.nextafter(1.0, 0.0)]
LEMMA_SIZES = [1e-300, 1e-200, 1e-6, 1.0, 1e5, 1e12, 1e15, 1e100, 1e157, 1e300]


@functools.cache
def _lemma_battery(shape):
    """(a, x0, validate_model1's report, the point-by-point scan's report)."""
    return [(a, x0, validate_model1(shape, a, x0),
             shapes._scan(shape, a, x0, _h1_failure_point_by_point, in_offsets=False))
            for a in LEMMA_DECAYS for x0 in LEMMA_SIZES]


def _book_id(shape):
    return f"{shape.name}{getattr(shape, 'alpha', getattr(shape, 'mu', ''))}"


@pytest.mark.parametrize("shape", LEMMA_BOOKS, ids=_book_id)
def test_validate_model1_gives_the_point_by_point_reports_but_roundoff_refusals(shape):
    for a, x0, got, want in _lemma_battery(shape):
        if want.reason == "h1_not_injective":
            # a refusal the lemma rules out: it passes on the same range
            assert got.ok and got.reason is None and got.witness is None, (a, x0)
            assert [got.scan_lo.hex(), got.scan_hi.hex()] == [want.scan_lo.hex(), want.scan_hi.hex()]
        elif want.ok and not got.ok:
            # at a = 0 the margin is f(0) at every volume, so the loop
            # passed where the offset overflows; the scan now refuses the
            # overflow at its first volume, as at every a > 0
            assert a == 0.0 and got.reason == "offset_not_finite", (a, x0)
            assert got.witness == _first_overflow(shape, x0), (a, x0)
            assert _report_key(got)[3:] == _report_key(want)[3:], (a, x0)
        else:
            assert _report_key(got)[:5] == _report_key(want)[:5], (a, x0)
        # the lemma decides where the offset at the range's top is finite
        _, top, _ = shapes._scan_range(shape, x0)
        if math.isfinite(shape.offset(top)):
            assert got.detail == "; ".join([LEMMA] + [want.detail] * bool(want.detail)), (a, x0)
        else:
            assert got.detail == want.detail, (a, x0)


def test_the_lemma_battery_meets_roundoff_refusals_and_overflows():
    reasons = {(want.reason, got.reason) for shape in LEMMA_BOOKS
               for _, _, got, want in _lemma_battery(shape)}
    assert reasons == {(None, None), ("h1_not_injective", None), (None, "offset_not_finite"),
                       ("offset_not_finite", "offset_not_finite")}


def _first_overflow(shape, x0):
    """The first volume of the scan's grid whose offset is not finite."""
    return next(y for y in shapes._scan_grid(shape, x0)[0] if not math.isfinite(shape.offset(y)))


def test_model_1_at_a_zero_refuses_an_overflowing_offset():
    # rho = 1e5 at N = 10 makes the decay exp(-1e4) = 0. The margin is
    # then f(0) at every volume, and the scan passed the book, although
    # every offset of its range overflows; solve then found no root
    # (NoRootInBracket) instead of naming the overflow
    params = MarketParams(x0=1e300, horizon=1.0, steps=10, rho=1e5)
    shape = PowerLawShape(Q, 0.5)
    assert params.decay == 0.0
    rep = validate_model1(shape, 0.0, 1e300)
    assert (rep.ok, rep.reason, rep.witness) == (False, "offset_not_finite", _first_overflow(shape, 1e300))
    with pytest.raises(OutOfDomain, match="offset overflows at volume"):
        solve(params, shape)


@pytest.mark.parametrize("shape", [BlockShape(Q), PowerLawShape(Q, -2.0), PowerLawShape(Q, 0.5),
                                   PowerLawShape(Q, 1.5), SqrtShape(Q, 1.0)], ids=_book_id)
def test_a_proven_book_is_decided_without_a_scan(shape, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(shapes, "injectivity_margin", no_scan)
    monkeypatch.setattr(shapes.np, "geomspace", no_scan)
    rep = validate_model1(shape, _decay(10), X0)
    assert rep.ok and rep.detail.startswith(LEMMA)
    # the range is clamped to the covered mass where the volume saturates
    assert rep.detail.endswith("scan clamped to covered mass") == (shape.volume_bounds()[1] < math.inf)


def test_ramps_and_overflowed_offsets_are_still_scanned():
    # a ramp its decision refuses is still scanned, and keeps the scan's
    # witness: the counterexample under model 2 (one it passes is not
    # scanned: see test_a_passing_ramp_is_decided_without_a_scan). Power
    # alpha = 1 at x0 = 1e15 overflows its offset before the range's
    # top, so the lemma leaves it to the scan, which keeps its verdict
    rep = validate_model1(CounterexampleShape(3), 1.0 / 3.0, 14.5)
    assert rep.ok and rep.detail == f"{RAMP_M1}, no scan"
    rep = validate_model2(CounterexampleShape(3), 1.0 / 3.0, 14.5)
    assert (rep.ok, rep.reason, rep.witness, rep.detail) == (
        False, "h2_not_injective", 1.0165483312137007, f"{RAMP_M2}: refused, witness from the scan")
    rep = validate_model1(PowerLawShape(Q, 1.0), _decay(10), 1e15)
    assert (rep.ok, rep.reason, rep.detail) == (False, "offset_not_finite", "")


def test_a_roundoff_refusal_of_model_1_now_solves():
    # at rho = 1e-15 the decay is 1 - 2^-53, and the scan refused power
    # alpha = -2 at volume 54.13917595685789, where f(F^-1(ay)) and
    # a^2 f(F^-1(y)) round to the same float. The trades carry the small
    # rho's own error (ROADMAP item 2), so only the verdict is pinned
    params = MarketParams(x0=X0, horizon=1.0, steps=10, rho=1e-15)
    assert params.decay == math.nextafter(1.0, 0.0)
    shape = PowerLawShape(Q, -2.0)
    want = shapes._scan(shape, params.decay, X0, _h1_failure_point_by_point, in_offsets=False)
    assert (want.reason, want.witness) == ("h1_not_injective", 54.13917595685789)
    report = solve(params, shape).diagnostics.validation
    assert report.ok and report.detail == LEMMA


# the ramps (the counterexample and the tables) are decided exactly, on
# their breaks: a decision that passes replaces the scan, one that
# refuses leaves the witness to the scan, and only where the scan finds
# no failure is the book refused at the decision's own witness

RAMPS = [shape for shape in REFERENCE_BOOKS if isinstance(shape, shapes._Ramp)]


@pytest.mark.parametrize("shape", RAMPS, ids=lambda s: f"{s.name}{getattr(s, 'n', '')}")
def test_validate_model1_on_a_ramp_gives_the_point_by_point_reports(shape):
    deferred, false_passes = _ramp_battery(shape, validate_model1, _h1_failure_point_by_point, RAMP_M1)
    assert deferred == []
    # the lopsided table's bid side at x0 = 1e5 (its range clamped to the
    # side's mass): the margin is negative on volumes near -18.5, which
    # fall between the scan's grid points
    want = {(math.exp(-2.0), 1e5): -18.472640247326623} if shape is LOPSIDED else {}
    assert false_passes == want
    for (a, _), witness in false_passes.items():
        assert injectivity_margin(shape, a, witness) < 0.0


# the 401-knot table's scan ends under each model, as the scan gave them:
# each side is clamped to its covered mass, in volumes (model 1) or in
# offsets (model 2)
TABLE_SCAN_ENDS = (["-0x1.01c24fc2e7db5p+17", "0x1.01c24fc2e7db5p+17"],
                   ["-0x1.8ffffffffcc95p+7", "0x1.8ffffffffcc95p+7"])


@pytest.mark.parametrize("steps", [10, 100])
def test_a_passing_ramp_is_decided_without_a_scan(steps, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    for owner, name in ((shapes, "injectivity_margin"), (shapes, "_h1_failure"),
                        (shapes, "_h2_failure"), (shapes.np, "geomspace")):
        monkeypatch.setattr(owner, name, no_scan)
    table = _table_401()
    for validate, how, ends in zip((validate_model1, validate_model2), (RAMP_M1, RAMP_M2), TABLE_SCAN_ENDS):
        rep = validate(table, _decay(steps), X0)
        assert rep.ok and rep.detail == f"{how}, no scan; scan clamped to covered mass"
        assert [rep.scan_lo.hex(), rep.scan_hi.hex()] == ends
    rep = validate_model1(CounterexampleShape(3), 1.0 / 3.0, 14.5)
    assert rep.ok and rep.detail == f"{RAMP_M1}, no scan"


PINNED_RAMP_REFUSALS = (
    [(CounterexampleShape(n), 1.0 / n, x0, validate_model2) for n, x0 in sorted(COUNTEREXAMPLE_VERDICTS)]
    + [(LOPSIDED, 0.5, 100.0, validate_model1), (LOPSIDED, 0.5, 100.0, validate_model2),
       (RISING, math.exp(-2.0), 5.0, validate_model2)]
)


@pytest.mark.parametrize("shape,a,x0,validate", PINNED_RAMP_REFUSALS,
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_a_refused_ramp_keeps_the_scans_witness_bit_for_bit(shape, a, x0, validate):
    model1 = validate is validate_model1
    reference = _h1_failure_point_by_point if model1 else _h2_failure_reference
    got, want = validate(shape, a, x0), shapes._scan(shape, a, x0, reference, in_offsets=not model1)
    assert not want.ok and _report_key(got)[:5] == _report_key(want)[:5]
    assert got.detail == f"{RAMP_M1 if model1 else RAMP_M2}: refused, witness from the scan"


def test_the_counterexample_study_keeps_its_witness():
    # scripts/counterexample_study.py refuses the n = 2 book at x0 = 14.5
    rep = validate_model2(CounterexampleShape(2), 0.5, 14.5)
    assert rep.witness.hex() == (0.8764037210048616).hex()


def test_the_grid_middle_is_the_grids_middle_point():
    # the growth proxy of a decided ramp is taken at this volume, which
    # must be the scan grid's own middle point, bit for bit
    rng = np.random.default_rng(2)
    for _ in range(2000):
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        top = min(lo * 10.0 ** rng.uniform(1e-12, 40.0), 1.7e308)
        with np.errstate(over="ignore"):
            grid = np.geomspace(lo, top, shapes._SCAN_POINTS)
        assert shapes._grid_middle(lo, top) == grid[shapes._SCAN_POINTS // 2], (lo, top)


def _recipe_tables(count=3000, seed=0):
    """(table, a, x0) drawn by ROADMAP item 12's recipe: 3 to 39 knots
    on (-50, 50), straddling the quote; densities uniform on (0.1, 10),
    or decaying or rising in |x| on a scale in (1, 20) with a noise
    factor in (0.5, 2); a = exp(-u), u in (0, 5); and x0 at 5-45 % of
    the thinner side's mass."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(3, 40))
        while True:
            x = np.sort(rng.uniform(-50.0, 50.0, k))
            if x[0] < 0.0 < x[-1]:
                break
        kind = int(rng.integers(3))
        noise = rng.uniform(0.5, 2.0, k)
        scale = rng.uniform(1.0, 20.0)
        if kind == 0:
            f = rng.uniform(0.1, 10.0, k)
        elif kind == 1:
            f = noise * 10.0 / (1.0 + np.abs(x) / scale)
        else:
            f = noise * (1.0 + np.abs(x) / scale)
        table = TabulatedShape(x, f)
        a = math.exp(-rng.uniform(0.0, 5.0))
        lo, hi = table.volume_bounds()
        out.append((table, a, rng.uniform(0.05, 0.45) * min(-lo, hi)))
    return out


@functools.cache
def _recipe():
    return _recipe_tables()


# every table of the recipe's 3000 (seed 0, as the recipe names it) that
# the 512-point scan passes and the exact decision refuses, by its index
# in _recipe(). No verdict flips the other way: no table the scan refused
# passes. Model 2's are h2 dips (and 3 gaps f(x) - a f(ax) that turn
# negative) between the scan's grid points, which are 4.3 % apart in
# volume at the top of the range
SCAN_FALSE_PASSES_M1 = (
    47, 247, 260, 433, 591, 790, 855, 919, 1033, 1169, 1354, 1490, 1592, 1861, 2120, 2183, 2349,
    2437, 2471, 2529, 2596, 2736, 2801,
)
SCAN_FALSE_PASSES_M2 = (
    0, 3, 16, 19, 22, 27, 44, 48, 51, 56, 82, 89, 97, 112, 117, 121, 122, 124, 133, 139, 153,
    160, 161, 169, 170, 180, 182, 186, 190, 204, 206, 222, 231, 233, 253, 254, 265, 272, 297,
    300, 304, 305, 321, 323, 334, 339, 344, 353, 354, 364, 369, 373, 380, 393, 394, 397, 398,
    402, 403, 416, 421, 422, 442, 445, 446, 448, 454, 461, 462, 470, 473, 487, 492, 497, 506,
    508, 511, 515, 516, 517, 524, 526, 527, 529, 533, 539, 544, 563, 565, 571, 576, 586, 588,
    589, 593, 602, 611, 612, 613, 619, 626, 630, 641, 649, 656, 657, 671, 674, 677, 699, 715,
    719, 720, 721, 723, 725, 728, 732, 751, 752, 785, 813, 821, 836, 845, 852, 853, 859, 861,
    868, 873, 880, 885, 891, 923, 929, 931, 932, 946, 950, 969, 971, 972, 977, 980, 981, 995,
    998, 1004, 1011, 1016, 1027, 1046, 1064, 1068, 1078, 1084, 1089, 1102, 1104, 1112, 1113,
    1114, 1115, 1117, 1122, 1127, 1133, 1135, 1141, 1147, 1154, 1167, 1172, 1177, 1181, 1187,
    1192, 1194, 1199, 1205, 1225, 1243, 1254, 1262, 1263, 1285, 1289, 1292, 1300, 1303, 1307,
    1328, 1330, 1331, 1332, 1337, 1347, 1353, 1355, 1367, 1373, 1374, 1379, 1389, 1390, 1392,
    1396, 1397, 1409, 1414, 1417, 1430, 1431, 1433, 1459, 1460, 1464, 1473, 1479, 1481, 1482,
    1484, 1494, 1497, 1521, 1527, 1536, 1541, 1546, 1549, 1553, 1558, 1560, 1571, 1575, 1593,
    1598, 1602, 1604, 1608, 1616, 1621, 1623, 1628, 1633, 1635, 1642, 1643, 1648, 1650, 1662,
    1664, 1670, 1672, 1675, 1684, 1694, 1696, 1703, 1704, 1713, 1718, 1731, 1736, 1738, 1744,
    1745, 1746, 1753, 1754, 1760, 1761, 1786, 1787, 1795, 1808, 1811, 1812, 1815, 1822, 1827,
    1832, 1837, 1841, 1842, 1856, 1886, 1900, 1901, 1913, 1927, 1933, 1936, 1948, 1953, 1954,
    1965, 1973, 1975, 1979, 1983, 1984, 1989, 1992, 1999, 2013, 2022, 2024, 2030, 2032, 2035,
    2038, 2042, 2061, 2063, 2064, 2070, 2073, 2086, 2091, 2097, 2101, 2109, 2113, 2115, 2117,
    2124, 2133, 2138, 2140, 2144, 2163, 2164, 2166, 2172, 2198, 2200, 2205, 2209, 2230, 2243,
    2251, 2252, 2256, 2257, 2267, 2283, 2290, 2297, 2314, 2317, 2319, 2325, 2326, 2327, 2331,
    2333, 2336, 2341, 2344, 2348, 2350, 2351, 2354, 2358, 2364, 2366, 2368, 2371, 2381, 2400,
    2406, 2424, 2425, 2431, 2441, 2442, 2447, 2468, 2487, 2491, 2499, 2503, 2508, 2510, 2518,
    2522, 2526, 2527, 2535, 2537, 2542, 2544, 2559, 2560, 2565, 2570, 2572, 2583, 2587, 2588,
    2593, 2603, 2608, 2631, 2633, 2634, 2642, 2643, 2649, 2650, 2658, 2660, 2661, 2670, 2681,
    2682, 2702, 2707, 2713, 2732, 2744, 2749, 2752, 2753, 2758, 2764, 2777, 2791, 2792, 2809,
    2815, 2818, 2819, 2822, 2823, 2829, 2849, 2855, 2857, 2874, 2891, 2917, 2921, 2928, 2929,
    2930, 2940, 2945, 2955, 2968, 2978, 2980, 2991,
)


def test_the_scans_false_passes_of_model_1_on_random_tables_are_refused():
    for i in SCAN_FALSE_PASSES_M1:
        table, a, x0 = _recipe()[i]
        rep = validate_model1(table, a, x0)
        assert (rep.ok, rep.reason) == (False, "h1_not_injective"), i
        assert rep.detail.startswith(f"{RAMP_M1}: refused where the scan found no failure"), i
        # the witness on its own: the margin is negative there
        assert injectivity_margin(table, a, rep.witness) < 0.0, i
        assert shapes._scan(table, a, x0, _h1_failure_point_by_point, in_offsets=False).ok, i


def _h2_fails_at(table, a, w, end):
    """Whether the scalar maps show model 2 failing at the witness w, on
    the range out to the offset end on w's side: the gap f(w) - a f(aw)
    is not positive there, or h2 falls from w to an offset past it."""
    if not table.density(w) - a * table.density(a * w) > 0.0:
        return True
    s = math.copysign(1.0, w)
    h2 = s * spread_recovery_gap(table, a, w)
    return any(s * spread_recovery_gap(table, a, w + s * (end - abs(w)) * 2.0 ** -k) < h2
               for k in range(53))


def test_the_scans_false_passes_of_model_2_on_random_tables_are_refused():
    for i in SCAN_FALSE_PASSES_M2:
        table, a, x0 = _recipe()[i]
        rep = validate_model2(table, a, x0)
        assert (rep.ok, rep.reason) == (False, "h2_not_injective"), i
        assert rep.detail.startswith(f"{RAMP_M2}: refused where the scan found no failure"), i
        end = rep.scan_hi if rep.witness > 0.0 else -rep.scan_lo
        assert _h2_fails_at(table, a, rep.witness, end), i
