"""Small numerical helpers: bracketed root finding with a fallback scan."""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NoRootInBracket, OutOfDomain

_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100
_SUBDIVISIONS = 64  # points of the fallback scan's geometric grid


def _brent(value, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float) -> float:
    """Root of value between xpre and xcur by Brent's method (Brent 1973).

    fpre and fcur are the end values, nonzero and of opposite signs. The
    steps, their order and the stopping test are those of scipy's
    brentq.c, so the iterates and the root agree with
    scipy.optimize.brentq(value, xpre, xcur, xtol=xtol, rtol=4 eps) bit
    for bit. Where C divides by zero it gets inf or NaN, a step that
    fails the acceptance test; a ZeroDivisionError bisects likewise. A
    NaN value (scipy: ValueError) and 100 steps without convergence
    (scipy: RuntimeError) raise NoRootInBracket.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic step
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
        if math.isnan(fcur):
            raise NoRootInBracket(f"root function is NaN at {xcur}")
    raise NoRootInBracket(f"Brent's method did not converge in {_MAXITER} steps (last {xcur})")


def bracketed_root(fn, lo: float, hi: float) -> float:
    """Root of fn on (lo, hi), 0 < lo < hi.

    Where the end values are finite and of opposite signs, solves on the
    full bracket by Brent's method. Only where they agree in sign, or
    one is not finite, does it scan a geometric subdivision of the
    interval for the first sign change and solve inside it. The solver
    brackets each gap where it is defined (see solver._root_window), so
    on valid shapes the scan is reached only where the gap has no root;
    the spread-recovery continuous limit on a finite depth still takes
    it. Nonfinite evaluations break a candidate bracket rather than
    aborting the scan, and an OutOfDomain raised by fn counts as NaN.
    Raises NoRootInBracket if no sign change exists on the grid, or if
    Brent's method meets a NaN or does not converge inside the bracket.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def value(x: float) -> float:
        try:
            return float(fn(x))
        except OutOfDomain:
            return math.nan

    xtol = 1e-13 * hi
    flo, fhi = value(lo), value(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # signs compared, not the product, which underflows to -0.0 for
    # values near 1e-200
    if math.isfinite(flo) and math.isfinite(fhi) and (flo < 0.0) != (fhi < 0.0):
        return _brent(value, lo, hi, flo, fhi, xtol)
    grid = np.geomspace(lo, hi, _SUBDIVISIONS)
    fprev, xprev = flo, lo
    for x in grid[1:]:
        fx = value(float(x))
        if fx == 0.0:
            return float(x)
        if math.isfinite(fprev) and math.isfinite(fx) and (fprev < 0.0) != (fx < 0.0):
            return _brent(value, xprev, float(x), fprev, fx, xtol)
        fprev, xprev = fx, float(x)
    raise NoRootInBracket(
        f"no sign change on ({lo}, {hi}) across {_SUBDIVISIONS} geometric points"
    )
