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
import math

import numpy as np
import pytest

from lobexec import (
    BlockShape,
    CounterexampleShape,
    PowerLawShape,
    SqrtShape,
    TabulatedShape,
    injectivity_margin,
    shapes,
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
