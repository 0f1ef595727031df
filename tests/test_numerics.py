"""Brent's method in lobexec.numerics against scipy.optimize.brentq.

The port must take the same steps as scipy's brentq.c, so every root, and
every point evaluated on the way, is compared for equality, not within a
tolerance. scipy is imported here only as the reference.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import lobexec
import lobexec.numerics as numerics
from lobexec.numerics import _brent
from lobexec import (
    BlockShape,
    CounterexampleShape,
    MarketParams,
    NoRootInBracket,
    OutOfDomain,
    PowerLawShape,
    Resilience,
    SqrtShape,
    TabulatedShape,
    continuous_limit,
    solve,
)

Q = 5000.0
X0 = 100_000.0
RTOL = 4 * np.finfo(float).eps


def scipy_root(f, lo, hi, xtol):
    """brentq's root and the points it evaluated after the two ends."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return brentq(g, lo, hi, xtol=xtol, rtol=RTOL), xs[2:]


def port_root(f, lo, hi, xtol):
    xs = []

    def g(x):
        xs.append(x)
        return float(f(x))

    return _brent(g, lo, hi, float(f(lo)), float(f(hi)), xtol), xs


@pytest.fixture
def brackets(monkeypatch):
    """Every (function, lo, hi, xtol) that bracketed_root hands to Brent."""
    calls = []

    def spy(value, lo, hi, flo, fhi, xtol):
        calls.append((value, lo, hi, xtol))
        return _brent(value, lo, hi, flo, fhi, xtol)

    monkeypatch.setattr(numerics, "_brent", spy)
    return calls


def _table():
    offsets = np.arange(-200.0, 201.0)
    return TabulatedShape(offsets, Q / np.sqrt(1.0 + np.abs(offsets)))


@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_solver_gaps_match_scipy(mode, brackets):
    families = [BlockShape(Q), SqrtShape(Q, 1.0), _table()]
    families += [PowerLawShape(Q, al) for al in (-2.0, -1.0, 0.0, 0.5, 1.0)]
    for shape in families:
        for steps in (1, 10, 100):
            p = MarketParams(x0=X0, horizon=1.0, steps=steps, rho=20.0, mode=mode)
            solve(p, shape, skip_validation=True)
        if not isinstance(shape, TabulatedShape):
            continuous_limit(mode, shape, X0, 20.0, 1.0)
    p = MarketParams(x0=3.0, horizon=1.0, steps=10, rho=6.9, mode=mode)
    solve(p, CounterexampleShape(2), skip_validation=True)
    # the table's bracket is its window, which stops short of x0 where the
    # rest would pass the bid side's mass
    assert any(hi - lo < 0.5 * X0 for _, lo, hi, _ in brackets if hi > 1e3)
    for value, lo, hi, xtol in brackets:
        assert port_root(value, lo, hi, xtol) == scipy_root(value, lo, hi, xtol)


@pytest.mark.parametrize("root", [0.5, 2.0])
def test_exact_zero_at_an_endpoint(root):
    def f(x):
        return x - root

    assert numerics.bracketed_root(f, 0.5, 2.0) == root
    assert brentq(f, 0.5, 2.0, xtol=2e-13, rtol=RTOL) == root


def test_an_exact_zero_on_the_scan_grid_is_returned():
    # (x - g)^2 touches 0 at g without a sign change: the full bracket's
    # endpoints agree in sign, and the fallback scan lands on g exactly
    lo, hi = 0.5, 4.0
    g = float(np.geomspace(lo, hi, numerics._SUBDIVISIONS)[20])
    assert numerics.bracketed_root(lambda x: (x - g) ** 2, lo, hi) == g


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x**3 - 2.0, 0.5, 4.0),
        (lambda x: math.tanh(x - 1.7) + 1e-3 * x, 0.25, 4.0),
        # the secant step lands on the root exactly
        (lambda x: x - 1.25, 0.5, 2.0),
        # a step: no interpolation is ever accepted, every step bisects
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.25, 4.0),
        # subnormal values: slopes underflow to 0 and the inverse quadratic
        # step divides by zero, where C gets inf and bisects
        (lambda x: 2.0**-1040 * (x - 1.3) ** 3, 0.25, 4.0),
    ],
    ids=["cubic", "tanh", "zero-iterate", "step", "zero-denominator"],
)
def test_iterates_match_scipy(f, lo, hi):
    xtol = 1e-13 * hi
    assert port_root(f, lo, hi, xtol) == scipy_root(f, lo, hi, xtol)


def test_no_convergence_raises_no_root():
    # a ninefold root at 0 converges linearly, too slowly for 100 steps
    def f(x):
        return x**9

    seen = []
    with pytest.raises(RuntimeError):
        brentq(lambda x: seen.append(x) or f(x), -1.0, 4.0, xtol=1e-300, rtol=RTOL)
    xs = []
    with pytest.raises(NoRootInBracket):
        _brent(lambda x: xs.append(x) or f(x), -1.0, 4.0, f(-1.0), f(4.0), 1e-300)
    assert xs == seen[2:]
    assert len(xs) == 100


def test_nan_inside_the_bracket_raises_no_root():
    def f(x):
        if 0.9 < x < 1.1:
            raise OutOfDomain("hole")
        return x - 1.0

    with pytest.raises(NoRootInBracket):
        numerics.bracketed_root(f, 0.5, 2.0)


@pytest.mark.parametrize("f, hi", [
    (lambda x: 1e-200 * (x - 1.0), 2.0),
    # the ends agree in sign: the fallback scan finds the change
    (lambda x: 1e-200 * (x - 1.0) * (x - 4.0), 5.0),
], ids=["bracket", "scan"])
def test_a_sign_change_between_tiny_values_is_found(f, hi):
    # the product of two values near 1e-200 underflows to -0.0, so the
    # ends are compared by their signs
    assert numerics.bracketed_root(f, 0.5, hi) == pytest.approx(1.0, rel=1e-12)


def _fresh_python(code, **kw):
    """Run code in a fresh interpreter that imports this checkout's lobexec."""
    src = str(Path(lobexec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, **kw)


def test_import_leaves_scipy_unloaded():
    # neither importing nor the descent referee loads scipy
    code = (
        "import sys, lobexec, lobexec.cli; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(loaded()); "
        "p = lobexec.MarketParams(x0=1e5, horizon=1.0, steps=3, rho=20.0); "
        "lobexec.minimize_cost(p, lobexec.PowerLawShape(5000.0, 0.5), starts=2); "
        "print(loaded())"
    )
    out = _fresh_python(code, check=True).stdout
    assert out.split() == ["[]", "[]"]


def test_oracle_check_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from lobexec.cli import main; "
        "sys.exit(main(['oracle-check', '--n', '4']))"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "oracle agrees with the solver" in proc.stdout
