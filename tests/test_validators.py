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


def test_a_table_unsound_on_the_bid_side_only_is_refused():
    # the ask side is flat; the bid side is the counterexample's ramp for
    # n = 2 (3 on [0, 1/2], down to 1 at 1), then a steep rise to 100 at 2
    ask = TabulatedShape([-100.0, 0.0, 100.0], [3.0, 3.0, 3.0])
    lopsided = TabulatedShape([-100.0, -2.0, -1.0, -0.5, 0.0, 100.0],
                              [100.0, 100.0, 1.0, 3.0, 3.0, 3.0])
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
    # the density rises outward, from 1 at |x| <= 1 to 100 past 1.1: where
    # x passes 1, f(x) - a f(ax) stays positive, but h2 falls back
    a = math.exp(-2.0)
    rising = TabulatedShape([-10.0, -1.1, -1.0, 1.0, 1.1, 10.0],
                            [100.0, 100.0, 1.0, 1.0, 100.0, 100.0])
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
    + [_table_401(), TabulatedShape([-100.0, -2.0, -1.0, -0.5, 0.0, 100.0],
                                    [100.0, 100.0, 1.0, 3.0, 3.0, 3.0])]
)
REFERENCE_DECAYS = [0.0, math.exp(-2.0), math.exp(-0.2), 1.0 - 1e-9, math.exp(-50.0)]
REFERENCE_SIZES = [1e-200, 1e-6, 1e5, 1e12, 1e15]


@pytest.mark.parametrize("shape", REFERENCE_BOOKS,
                         ids=lambda s: f"{s.name}{getattr(s, 'alpha', getattr(s, 'mu', getattr(s, 'n', '')))}")
def test_validate_model2_gives_the_point_by_point_reports(shape):
    for a in REFERENCE_DECAYS:
        for x0 in REFERENCE_SIZES:
            got = _report_key(validate_model2(shape, a, x0))
            want = _report_key(shapes._scan(shape, a, x0, _h2_failure_reference, in_offsets=True))
            assert got == want, (a, x0)


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
    assert reasons == {(None, None), ("h1_not_injective", None),
                       ("offset_not_finite", "offset_not_finite")}


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
    # no ramp meets the lemma, and power alpha = 1 at x0 = 1e15 overflows
    # its offset before the range's top: both keep the scan's verdict
    rep = validate_model1(CounterexampleShape(3), 1.0 / 3.0, 14.5)
    assert rep.ok and rep.detail == ""
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
