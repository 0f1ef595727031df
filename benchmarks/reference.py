"""Output checks written apart from lobexec.

Everything here is derived from the model, not from the package: the
closed-form depth F, its inverse and the sweep premium of each book
shape, the book replay under both resilience models, the impact cost,
and the properties an optimal buy schedule must have. The checks never
call lobexec, so a fault shared by the package's solver and its cost
code cannot make a wrong schedule pass.

Each check raises CheckFailed with a message naming the property that
does not hold.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from pathlib import Path

# tolerances; the certification ones are the pinned values of acceptance
# criterion 3, the identity one that of criterion 4, the closed-form ones
# those of criteria 1 and 7
SUM_RTOL = 1e-9
IDENTITY_RTOL = 1e-9
BLOCK_TRADE_RTOL = 1e-9
SQRT_XI0_RTOL = 1e-8
SLOPE_RTOL = 1e-6
MOVE = 1e-5  # size of a test move, as a share of x0 (at most half the smaller trade)
DESCENT_TRADE_RTOL = 1e-5
DESCENT_COST_RTOL = 1e-7
REPLAY_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output does not have a property the optimal schedule must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# book shapes: density f, depth F(x) = int_0^x f, inverse depth, and the
# premium P(x) = int_0^x u f(u) du, for offsets x >= 0 (buys only)
# ---------------------------------------------------------------------------


class RefBlock:
    def __init__(self, q: float):
        self.q = q

    def depth(self, x):
        return self.q * x

    def inverse_depth(self, y):
        return y / self.q

    def premium(self, x):
        return 0.5 * self.q * x * x


class RefPower:
    """f(x) = q (1 + x)^(-alpha)."""

    def __init__(self, q: float, alpha: float):
        self.q, self.alpha = q, float(alpha)

    def depth(self, x):
        q, al = self.q, self.alpha
        if al == 1.0:
            return q * math.log1p(x)
        return q * math.expm1((1.0 - al) * math.log1p(x)) / (1.0 - al)

    def inverse_depth(self, y):
        q, al = self.q, self.alpha
        if al == 1.0:
            return math.expm1(y / q)
        return math.expm1(math.log1p((1.0 - al) * y / q) / (1.0 - al))

    def premium(self, x):
        # q int_1^{1+x} (w - 1) w^(-alpha) dw
        q, al = self.q, self.alpha
        if al == 0.0:
            return 0.5 * q * x * x
        if al == 1.0:
            return q * (x - math.log1p(x))
        if al == 2.0:
            return q * (math.log1p(x) - x / (1.0 + x))
        lg = math.log1p(x)
        return q * (
            math.expm1((2.0 - al) * lg) / (2.0 - al)
            - math.expm1((1.0 - al) * lg) / (1.0 - al)
        )


class RefSqrt:
    """f(x) = q / sqrt(1 + mu x)."""

    def __init__(self, q: float, mu: float):
        self.q, self.mu = q, mu

    def depth(self, x):
        # 2q/mu (sqrt(1 + mu x) - 1)
        return 2.0 * self.q * x / (math.sqrt(1.0 + self.mu * x) + 1.0)

    def inverse_depth(self, y):
        # y = 2q/mu (r - 1) with r = sqrt(1 + mu x), so x = y/q + mu y^2/(4 q^2)
        return y / self.q + self.mu * y * y / (4.0 * self.q ** 2)

    def premium(self, x):
        # q int_0^x u (1 + mu u)^(-1/2) du = q [2 r^3/3 - 2 r + 4/3] / mu^2,
        # r = sqrt(1 + mu x); in s = r - 1 the bracket is 2 s^2 (1 + s/3)
        r = math.sqrt(1.0 + self.mu * x)
        s_over_mu = x / (r + 1.0)
        return 2.0 * self.q * s_over_mu * s_over_mu * (1.0 + self.mu * s_over_mu / 3.0)


class RefTable:
    """Linear interpolation between (offset, density) knots, x >= 0."""

    def __init__(self, offsets, densities):
        pts = [(float(x), float(f)) for x, f in zip(offsets, densities) if x >= 0.0]
        self.x = [p[0] for p in pts]
        self.f = [p[1] for p in pts]
        if self.x[0] != 0.0:
            raise ValueError("table must have a knot at offset 0")
        self.cum_depth = [0.0]
        self.cum_premium = [0.0]
        for k in range(len(self.x) - 1):
            w = self.x[k + 1] - self.x[k]
            self.cum_depth.append(self.cum_depth[-1] + self._seg_depth(k, w))
            self.cum_premium.append(self.cum_premium[-1] + self._seg_premium(k, w))

    def _slope(self, k):
        return (self.f[k + 1] - self.f[k]) / (self.x[k + 1] - self.x[k])

    def _seg_depth(self, k, w):
        return self.f[k] * w + 0.5 * self._slope(k) * w * w

    def _seg_premium(self, k, w):
        # int_0^w (x_k + s)(f_k + m s) ds
        xk, c, m = self.x[k], self.f[k], self._slope(k)
        return xk * c * w + 0.5 * (xk * m + c) * w * w + m * w ** 3 / 3.0

    def _segment(self, x):
        if not 0.0 <= x <= self.x[-1]:
            raise CheckFailed(f"offset {x} is outside the table")
        return min(bisect.bisect_right(self.x, x) - 1, len(self.x) - 2)

    def depth(self, x):
        k = self._segment(x)
        return self.cum_depth[k] + self._seg_depth(k, x - self.x[k])

    def inverse_depth(self, y):
        if not 0.0 <= y <= self.cum_depth[-1]:
            raise CheckFailed(f"volume {y} is beyond the table's depth")
        k = min(bisect.bisect_right(self.cum_depth, y) - 1, len(self.x) - 2)
        dv = y - self.cum_depth[k]
        c, m = self.f[k], self._slope(k)
        return self.x[k] + 2.0 * dv / (c + math.sqrt(max(c * c + 2.0 * m * dv, 0.0)))

    def premium(self, x):
        k = self._segment(x)
        return self.cum_premium[k] + self._seg_premium(k, x - self.x[k])


# ---------------------------------------------------------------------------
# the book: replay and cost
# ---------------------------------------------------------------------------


class Market:
    """Buy x0 over steps+1 trades on [0, horizon], resilience rate rho;
    model 1 is volume recovery, model 2 spread recovery."""

    def __init__(self, x0: float, horizon: float, steps: int, rho: float, model: int):
        self.x0, self.horizon, self.steps, self.rho = x0, horizon, steps, rho
        self.model = model
        tau = horizon / steps
        self.a = math.exp(-rho * tau)
        self.one_minus_a = -math.expm1(-rho * tau)


def replay(market: Market, shape, trades):
    """[(E_pre, D_pre, E_post, D_post)] per trade; E is the eaten volume,
    D the ask offset. Model 1 decays E, model 2 decays D."""
    a = market.a
    e_pre = d_pre = 0.0
    out = []
    for x in trades:
        e_post = e_pre + x
        d_post = shape.inverse_depth(e_post)
        out.append((e_pre, d_pre, e_post, d_post))
        if market.model == 1:
            e_pre = a * e_post
            d_pre = shape.inverse_depth(e_pre)
        else:
            d_pre = a * d_post
            e_pre = shape.depth(d_pre)
    return out


def cost(market: Market, shape, trades) -> float:
    """Impact cost: the premium paid by each trade, summed."""
    return math.fsum(
        shape.premium(d_post) - shape.premium(d_pre)
        for _, d_pre, _, d_post in replay(market, shape, trades)
    )


# ---------------------------------------------------------------------------
# schedule checks
# ---------------------------------------------------------------------------


def check_feasible(market: Market, trades) -> None:
    """The schedule has steps+1 positive trades summing to x0."""
    _require(len(trades) == market.steps + 1,
             f"{len(trades)} trades, expected {market.steps + 1}")
    _require(all(x > 0.0 for x in trades), f"a trade is not positive: min {min(trades)}")
    total = math.fsum(trades)
    _require(abs(total - market.x0) <= SUM_RTOL * market.x0,
             f"trades sum to {total!r}, expected {market.x0!r}")


def check_constant_state(market: Market, shape, trades) -> None:
    """Model 1: every interior post-trade volume equals the first trade.
    Model 2: every interior post-trade offset equals F^-1(first trade)."""
    traj = replay(market, shape, trades)
    xi0 = trades[0]
    if market.model == 1:
        want, got = xi0, [p[2] for p in traj[:-1]]
    else:
        want, got = shape.inverse_depth(xi0), [p[3] for p in traj[:-1]]
    worst = max(abs(g - want) for g in got) / want
    _require(worst <= IDENTITY_RTOL,
             f"model {market.model} interior state drifts by {worst:.3e} relative")


def check_block(market: Market, trades) -> None:
    """Block book: first and last trade X0/((N-1)(1-a)+2), the rest equal."""
    n, x0 = market.steps, market.x0
    xi = x0 / ((n - 1) * market.one_minus_a + 2.0)
    mid = (x0 - 2.0 * xi) / (n - 1) if n > 1 else 0.0
    want = [xi] + [mid] * (n - 1) + [xi]
    worst = max(abs(g - w) for g, w in zip(trades, want)) / x0
    _require(worst <= BLOCK_TRADE_RTOL, f"block schedule off by {worst:.3e} x0")


def sqrt_xi0(q: float, mu: float, market: Market) -> float:
    """Model-1 first trade for f = q/sqrt(1+mu x).

    With b = mu/(4q), F^-1(y) = (y + b y^2)/q, and the characterization
    F^-1(X0 - N c xi) = (F^-1(xi) - a F^-1(a xi))/c, c = 1 - a, is the
    quadratic A xi^2 + B xi + C = 0 with
    A = b (N^2 c^2 - (1 + a + a^2)), B = -(N c + 1 + a + 2 b X0 N c),
    C = X0 (1 + b X0); xi is its smallest positive root.
    """
    a, c, n, x0 = market.a, market.one_minus_a, market.steps, market.x0
    b = mu / (4.0 * q)
    qa = b * (n * n * c * c - (1.0 + a + a * a))
    qb = -(n * c + 1.0 + a + 2.0 * b * x0 * n * c)
    qc = x0 * (1.0 + b * x0)
    return 2.0 * qc / (-qb + math.sqrt(qb * qb - 4.0 * qa * qc))


def check_sqrt_xi0(market: Market, q: float, mu: float, trades) -> None:
    want = sqrt_xi0(q, mu, market)
    gap = abs(trades[0] - want) / want
    _require(gap <= SQRT_XI0_RTOL, f"sqrt-book first trade off by {gap:.3e} relative")


def move_pairs(steps: int):
    """Trade pairs between which the optimality check moves volume."""
    if steps <= 10:
        pairs = [(i, i + 1) for i in range(steps)]
    else:
        m = steps // 2
        pairs = [(0, 1), (m, m + 1), (steps - 1, steps)]
    return pairs + [(0, steps)]


def check_first_order(market: Market, shape, trades) -> None:
    """Moving a little volume between two trades does not lower the cost.

    For each tested pair the central slope of the cost along the move is
    compared with the marginal price of the schedule, the final
    post-trade offset: at an optimum every trade's marginal cost equals
    it, so the slope vanishes to first order.
    """
    price = replay(market, shape, trades)[-1][3]
    for i, j in move_pairs(market.steps):
        delta = min(MOVE * market.x0, 0.5 * min(trades[i], trades[j]))
        up, down = list(trades), list(trades)
        up[i] -= delta
        up[j] += delta
        down[i] += delta
        down[j] -= delta
        slope = (cost(market, shape, up) - cost(market, shape, down)) / (2.0 * delta)
        _require(abs(slope) <= SLOPE_RTOL * price,
                 f"moving volume from trade {i} to {j} changes the cost at rate "
                 f"{slope:.3e}, marginal price {price:.3e}")


def check_schedule(market: Market, shape, trades, *, block=False, sqrt=None) -> None:
    """Every check that applies to an optimal schedule; sqrt is (q, mu)
    for the square-root book, whose model-1 first trade has a closed form."""
    trades = [float(x) for x in trades]
    check_feasible(market, trades)
    check_constant_state(market, shape, trades)
    if block:
        check_block(market, trades)
    if sqrt is not None and market.model == 1:
        check_sqrt_xi0(market, sqrt[0], sqrt[1], trades)
    check_first_order(market, shape, trades)


def check_certificate(market: Market, shape, solved, descent) -> None:
    """Criterion 3 for descent: per-trade gap 1e-5 x0, cost gap 1e-7."""
    gap = max(abs(a - b) for a, b in zip(solved, descent)) / market.x0
    _require(gap <= DESCENT_TRADE_RTOL, f"descent lands {gap:.3e} x0 from the schedule")
    c_solved, c_descent = cost(market, shape, solved), cost(market, shape, descent)
    rel = abs(c_descent - c_solved) / abs(c_solved)
    _require(rel <= DESCENT_COST_RTOL, f"descent cost differs by {rel:.3e} relative")


def check_lattice(solved, lattice, resolution: float) -> None:
    """Criterion 3 for the lattice: the schedule is within one cell of its minimum."""
    gap = max(abs(a - b) for a, b in zip(solved, lattice))
    _require(gap <= resolution, f"lattice minimum {gap:.3e} from the schedule, cell {resolution}")


# ---------------------------------------------------------------------------
# command-line outputs
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    _require(path.is_file(), f"{path.name} was not written")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_schedule_files(out_dir: Path):
    """Trades from schedule.csv, checked against schedule.json."""
    rows = _read_csv(out_dir / "schedule.csv")
    trades = [float(r["trade"]) for r in rows]
    _require([int(r["n"]) for r in rows] == list(range(len(rows))), "schedule.csv rows out of order")
    js = out_dir / "schedule.json"
    _require(js.is_file(), "schedule.json was not written")
    payload = json.loads(js.read_text())
    _require(payload["trades"] == trades, "schedule.json and schedule.csv disagree")
    return trades


def check_schedule_files(out_dir: Path, market: Market, shape, **kw) -> None:
    check_schedule(market, shape, read_schedule_files(out_dir), **kw)


def check_replay_files(traj_path: Path, report_path: Path, market: Market, shape, trades) -> None:
    """The trajectory matches the replay here; the report's cost matches the cost here."""
    rows = _read_csv(traj_path)
    want = replay(market, shape, trades)
    _require(len(rows) == len(want), f"trajectory has {len(rows)} rows, expected {len(want)}")
    for row, (e_pre, d_pre, e_post, d_post) in zip(rows, want):
        got = (float(row["E_pre"]), float(row["D_pre"]), float(row["E_post"]), float(row["D_post"]))
        for g, w in zip(got, (e_pre, d_pre, e_post, d_post)):
            _require(abs(g - w) <= REPLAY_RTOL * max(abs(w), 1.0),
                     f"trajectory row {row['n']}: {g!r} against {w!r}")
    _require(report_path.is_file(), f"{report_path.name} was not written")
    report = json.loads(report_path.read_text())
    want_cost = cost(market, shape, trades)
    for key in ("total", "impact_term"):
        gap = abs(report[key] - want_cost) / abs(want_cost)
        _require(gap <= REPLAY_RTOL, f"report {key} {report[key]!r} against {want_cost!r}")
    _require(len(report["per_trade"]) == len(trades), "report per_trade has the wrong length")
    gap = abs(math.fsum(report["per_trade"]) - want_cost) / abs(want_cost)
    _require(gap <= REPLAY_RTOL, "report per_trade does not sum to the cost")


def check_sweep_file(path: Path, q: float, alphas, models, make_market) -> None:
    """Every (alpha, model) row is solved; its schedule, rebuilt from the
    first, intermediate and last trade, is optimal and costs what the row says."""
    rows = _read_csv(path)
    want_keys = [(float(al), int(m)) for al in alphas for m in models]
    _require([(float(r["alpha"]), int(r["model"])) for r in rows] == want_keys,
             "sweep.csv does not list every (alpha, model) pair in order")
    for r in rows:
        _require(r["status"] == "ok", f"sweep row alpha={r['alpha']} model={r['model']}: {r['status']}")
        market = make_market(int(r["model"]))
        n = market.steps
        trades = [float(r["xi0"])] + [float(r["xi1"])] * (n - 1) + [float(r["xiN"])]
        shape = RefPower(q, float(r["alpha"]))
        check_schedule(market, shape, trades, block=float(r["alpha"]) == 0.0)
        want_cost = cost(market, shape, trades)
        gap = abs(float(r["cost"]) - want_cost) / abs(want_cost)
        _require(gap <= REPLAY_RTOL, f"sweep row alpha={r['alpha']}: cost off by {gap:.3e}")


def check_oracle_output(stdout: str, x0: float) -> None:
    """oracle-check prints its gaps; they meet the criterion-3 tolerances."""
    _require("oracle agrees with the solver" in stdout, "oracle-check did not report agreement")
    line = next((ln for ln in stdout.splitlines() if ln.startswith("worst per-trade gap")), None)
    _require(line is not None, "oracle-check printed no gaps")
    parts = dict(p.strip().split(" = ") for p in line.split(","))
    trade_gap = float(parts["worst per-trade gap"])
    cost_gap = float(parts["relative cost gap"])
    _require(trade_gap <= DESCENT_TRADE_RTOL * x0, f"oracle per-trade gap {trade_gap}")
    _require(cost_gap <= DESCENT_COST_RTOL, f"oracle cost gap {cost_gap}")
