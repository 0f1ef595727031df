#!/usr/bin/env python3
"""Show why the spread-recovery solver insists on its injectivity scan.

The ramp density (deep near the quote, thinning to depth 1 past offset 1)
makes the spread-recovery characteristic map dip negative: it starts at 0
with slope 1 + a and reaches -1/2 at offset 1 when a = 1/2. A root of the
schedule equation then certifies a critical point, not an optimum. With
ten intervals and 14.5 total shares, two hand-built schedules that differ
only by moving one share between the first and last trade produce costs
20.08 vs 12.17, so cost is not even monotone near these roots.

    python scripts/counterexample_study.py
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lobexec import (  # noqa: E402
    CounterexampleShape,
    MarketParams,
    Resilience,
    impact_cost,
    minimize_cost,
    solve,
    spread_recovery_gap,
    validate_model2,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2, help="ramp steepness index (>= 2)")
    ap.add_argument("--starts", type=int, default=8)
    args = ap.parse_args(argv)

    sh = CounterexampleShape(args.n)
    a = 1.0 / args.n
    steps = 10
    x0 = steps + 4.5
    rho = steps * math.log(args.n)
    p = MarketParams(x0=x0, horizon=1.0, steps=steps, rho=rho,
                     mode=Resilience.SPREAD)

    print(f"ramp index n={args.n}, decay per interval a={a}")
    print("characteristic map h(x) along the ramp:")
    for x in (0.01, 0.25, 0.5, 0.875, 1.0, 1.5, 2.0):
        print(f"  h({x:5.3f}) = {spread_recovery_gap(sh, a, x):9.4f}")

    rep = validate_model2(sh, a, x0)
    print(f"validator: ok={rep.ok} reason={rep.reason} witness={rep.witness}")

    big = [3.5] + [1.0] * (steps - 1) + [2.0]
    small = [2.5] + [1.0] * (steps - 1) + [3.0]
    c_big = impact_cost(p, sh, big)
    c_small = impact_cost(p, sh, small)
    print(f"cost of (3.5, 1 x {steps-1}, 2.0) = {c_big:.6f}")
    print(f"cost of (2.5, 1 x {steps-1}, 3.0) = {c_small:.6f}")
    print(f"moving one share from last to first trade costs +{c_big - c_small:.6f}")

    forced = solve(p, sh, skip_validation=True)
    c_forced = impact_cost(p, sh, forced.trades)
    print(f"forced root schedule: xi0 = {forced.xi0:.6f}, cost = {c_forced:.6f}")

    oracle = minimize_cost(p, sh, starts=args.starts, max_iter=3000)
    print(f"descent referee: cost = {oracle.best_cost:.6f}, "
          f"trades = {np.round(oracle.best_strategy.trades, 4)}")
    if oracle.best_cost < c_forced - 1e-9:
        print("the root the scan found is NOT the optimum; refusal is the only safe answer")
    else:
        print("this root happens to match the descent minimum; the refusal still stands,")
        print("because nothing guarantees the scan picks this root for other parameters")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
