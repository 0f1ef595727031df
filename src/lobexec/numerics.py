"""Small numerical helpers: bracketed root finding with a fallback scan."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .errors import NoRootInBracket, OutOfDomain


def bracketed_root(fn, lo: float, hi: float, subdivisions: int = 64) -> float:
    """Root of fn on (lo, hi), 0 < lo < hi.

    Tries the full bracket first; if the endpoint signs agree, scans a
    geometric subdivision of the interval for the first sign change and
    solves inside it. Nonfinite evaluations break a candidate bracket
    rather than aborting the scan, and an OutOfDomain raised by fn counts
    as NaN: shapes with finite covered mass have no value at some probe
    points. Raises NoRootInBracket if no sign change exists on the grid.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def value(x: float) -> float:
        try:
            return fn(x)
        except OutOfDomain:
            return math.nan

    xtol = 1e-13 * hi
    flo, fhi = value(lo), value(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0.0:
        return brentq(value, lo, hi, xtol=xtol, rtol=4 * np.finfo(float).eps)
    grid = np.geomspace(lo, hi, subdivisions)
    fprev, xprev = flo, lo
    for x in grid[1:]:
        fx = value(float(x))
        if fx == 0.0:
            return float(x)
        if math.isfinite(fprev) and math.isfinite(fx) and fprev * fx < 0.0:
            return brentq(value, xprev, float(x), xtol=xtol, rtol=4 * np.finfo(float).eps)
        fprev, xprev = fx, float(x)
    raise NoRootInBracket(
        f"no sign change on ({lo}, {hi}) across {subdivisions} geometric points"
    )
