"""Command-line front end.

Each subcommand takes only the flags it reads. The book is --shape --q
--alpha --mu --n-param --csv-path, the market --x0 --t --n --rho --model.
solve takes the book, the market, --a0 --config --out-dir; replay the
book, the market, --a0 --config --schedule --trajectory --report;
oracle-check the book, the market, --seed --config --starts --force;
sweep --q --x0 --t --n --rho --config --out-dir --alphas --models; and
ow-compare the same with --lambdas for --alphas --models. An abbreviated
flag, or one the command does not take, is a usage error. Parameters
resolve as flags > JSON config file > built-in defaults, where the
defaults are the baseline of the exponent sweep (x0=100000, q=5000,
rho=20, T=1, N=10). A config file may carry keys that a command does not
read, so that one file serves every command. Console output rounds to 6
significant digits; files carry full precision.

Exit codes: 0 fine, 1 usage, 2 precondition or parameter rejection,
3 numerical failure, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import costs, dynamics, oracle, ow, shapes, solver
from .dynamics import MarketParams
from .errors import (
    BudgetExceeded,
    InvalidParam,
    NoRootInBracket,
    OutOfDomain,
    PreconditionFailed,
)

DEFAULTS = {
    "shape": {"kind": "block", "q": 5000.0, "alpha": 0.0, "mu": 1.0, "n": 2, "csv_path": None},
    "x0": 100000.0,
    "t": 1.0,
    "n": 10,
    "rho": 20.0,
    "model": 1,
    "a0": 0.0,
    "seed": 0,
}

_PER_TRADE_RTOL = 1e-5   # vs x0
_COST_RTOL = 1e-7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Each parameter that commands share, declared once: its config key, which
# is also its dest ("shape.q" is cfg["shape"]["q"]; None for a flag that
# is not one), and its add_argument keywords.
_PARAMS = {
    "--config": (None, {"help": "JSON config file"}),
    "--shape": ("shape.kind", {"choices": ["block", "power", "sqrt", "piecewise-ce", "tabulated"]}),
    "--q": ("shape.q", {"type": float, "help": "depth scale"}),
    "--alpha": ("shape.alpha", {"type": float, "help": "power-law exponent"}),
    "--mu": ("shape.mu", {"type": float, "help": "sqrt-shape curvature"}),
    "--n-param": ("shape.n", {"type": int, "help": "counterexample index"}),
    "--csv-path": ("shape.csv_path", {"help": "tabulated shape CSV"}),
    "--x0": ("x0", {"type": float, "help": "total shares to buy"}),
    "--t": ("t", {"type": float, "help": "trading horizon"}),
    "--n": ("n", {"type": int, "help": "number of steps (N+1 trades)"}),
    "--rho": ("rho", {"type": float, "help": "resilience rate"}),
    "--model": ("model", {"type": int, "choices": [1, 2], "help": "1 volume, 2 spread recovery"}),
    "--a0": ("a0", {"type": float, "help": "unaffected best ask"}),
    "--seed": ("seed", {"type": int, "help": "RNG seed for the oracle"}),
    "--out-dir": (None, {"type": Path, "default": ".", "help": "output directory"}),
}
_BOOK = ("--shape", "--q", "--alpha", "--mu", "--n-param", "--csv-path")
_MARKET = ("--x0", "--t", "--n", "--rho", "--model")
# sweep and ow-compare set the shape and the model themselves
_DEPTH_AND_MARKET = ("--q", "--x0", "--t", "--n", "--rho", "--config", "--out-dir")


def _read_json(path, what: str):
    """The JSON value in a file; a file that is not JSON is refused."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidParam(f"{what} {path} is not JSON: {exc}") from None


def _merge_config(cfg: dict, update, what: str) -> None:
    """Merge a config object onto cfg, key by key; anything but an object
    of known keys, with an object at "shape", is refused."""
    if not isinstance(update, dict) or not isinstance(update.get("shape", {}), dict):
        raise InvalidParam(f"{what} must be a JSON object, with an object at \"shape\"")
    for key, val in update.items():
        if key not in cfg:
            raise InvalidParam(f"unknown config key {key!r}")
        if key != "shape":
            cfg[key] = val
    for key, val in update.get("shape", {}).items():
        if key not in cfg["shape"]:
            raise InvalidParam(f"unknown shape config key {key!r}")
        cfg["shape"][key] = val


def _resolve_config(args, embedded=None) -> dict:
    """DEFAULTS, then an embedded config, the --config file and the flags,
    each merged onto what came before."""
    cfg = json.loads(json.dumps(DEFAULTS))
    if embedded is not None:
        _merge_config(cfg, embedded, "the schedule's config")
    if args.config:
        _merge_config(cfg, _read_json(args.config, "config file"), f"config file {args.config}")
    flags = vars(args)
    for key, _ in _PARAMS.values():
        if key in flags and flags[key] is not None:
            section, _, name = key.rpartition(".")
            (cfg[section] if section else cfg)[name] = flags[key]
    return cfg


def _number(cfg: dict, key: str) -> float:
    """cfg[key] as a float; a config value that is not a number is refused."""
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise InvalidParam(f"{key} must be a number, got {cfg[key]!r}") from None


def make_shape(shape_cfg: dict) -> shapes.Shape:
    """The shape a config's "shape" entry names, merged onto DEFAULTS."""
    kind = shape_cfg["kind"]
    q = _number(shape_cfg, "q")
    if kind == "block":
        return shapes.BlockShape(q)
    if kind == "power":
        shape = shapes.PowerLawShape(q, _number(shape_cfg, "alpha"))
        if shape.alpha > 1.0:
            print(
                f"warning: alpha = {shape.alpha} > 1, book volume saturates at "
                f"{q / (shape.alpha - 1.0):.6g}; optimality guarantees need alpha <= 1",
                file=sys.stderr,
            )
        return shape
    if kind == "sqrt":
        return shapes.SqrtShape(q, _number(shape_cfg, "mu"))
    if kind == "piecewise-ce":
        return shapes.CounterexampleShape(shape_cfg["n"])
    if kind == "tabulated":
        path = shape_cfg["csv_path"]
        if not (isinstance(path, str) and path):
            raise InvalidParam(f"tabulated shape needs csv_path, a path, got {path!r}")
        return shapes.load_tabulated_csv(path)
    raise InvalidParam(f"unknown shape kind {kind!r}")


def make_params(cfg: dict) -> MarketParams:
    """The market a config merged onto DEFAULTS describes; MarketParams
    refuses a step count or model that is not one."""
    return MarketParams(
        x0=_number(cfg, "x0"),
        horizon=_number(cfg, "t"),
        steps=cfg["n"],
        rho=_number(cfg, "rho"),
        mode=cfg["model"],
    )


def _write_schedule(out_dir: Path, sched: solver.OptimalSchedule, cfg: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "schedule.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "trade"])
        for n, x in enumerate(sched.trades):
            writer.writerow([n, f"{x:.17g}"])
    payload = sched.to_dict()
    payload["config"] = cfg
    with open(out_dir / "schedule.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def _cost_report(params: MarketParams, shape: shapes.Shape, trades, a0: float) -> costs.CostReport:
    """costs.cost_report, where the total cost is finite. A premium that
    overflows leaves the cost inf or NaN, which no schedule file or report
    may carry, and where one node's difference is inf and another's -inf
    math.fsum raises ValueError: each is a numerical failure."""
    try:
        report = costs.cost_report(params, shape, trades, a0=a0)
    except ValueError as exc:
        raise OverflowError(f"the schedule's cost is not finite: {exc}") from None
    if not math.isfinite(report.total):
        raise OverflowError(f"the schedule's cost is {report.total}, not finite")
    return report


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    shape = make_shape(cfg["shape"])
    params = make_params(cfg)
    sched = solver.solve(params, shape)
    report = _cost_report(params, shape, sched.strategy, _number(cfg, "a0"))
    _write_schedule(args.out_dir, sched, cfg)
    print(f"model {int(sched.model)} schedule over {params.steps + 1} trades")
    print(f"xi0   = {sched.xi0:.6g}")
    print(f"xi1   = {sched.trades[1]:.6g}")
    print(f"xiN   = {sched.trades[-1]:.6g}")
    print(f"cost  = {report.total:.6g}")
    print(f"lagrange residual = {sched.diagnostics.lagrange_residual:.6g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    alphas, models = args.alphas, args.models
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / "sweep.csv"
    q = _number(cfg["shape"], "q")
    solved = {}
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "model", "xi0", "xi1", "xiN", "cost", "status"])
        for alpha in alphas:
            shape = shapes.PowerLawShape(q, alpha)
            for model in models:
                params = make_params({**cfg, "model": model})
                try:
                    sched = solver.solve(params, shape)
                    # a cost that is not finite, or whose fsum overflows
                    # (OverflowError), is a numerical failure, as in _cost_report
                    cost = costs.impact_cost(params, shape, sched.strategy)
                    if not math.isfinite(cost):
                        raise OverflowError(f"the cost is {cost}")
                except (PreconditionFailed, NoRootInBracket, OutOfDomain, OverflowError) as exc:
                    refused = isinstance(exc, PreconditionFailed)
                    what = "precondition failed" if refused else "numeric failure"
                    print(f"alpha={alpha} model={model}: {what}: {exc}", file=sys.stderr)
                    writer.writerow([alpha, model, "", "", "", "", "precondition" if refused else "numeric"])
                    continue
                solved[alpha, model] = sched.trades
                values = (sched.xi0, sched.trades[1], sched.trades[-1], cost)
                writer.writerow([alpha, model] + [f"{v:.17g}" for v in values] + ["ok"])
    print(f"wrote {out_path}")
    # how the schedule tilts: first vs last trade, and which model trades
    # its intermediates harder
    for alpha in alphas:
        if (alpha, 1) not in solved or (alpha, 2) not in solved:
            continue
        m1, m2 = solved[alpha, 1], solved[alpha, 2]
        tol = 1e-9 * m1[0]
        if m1[0] > m1[-1] + tol:
            tilt = "front-loaded"
        elif m1[0] < m1[-1] - tol:
            tilt = "back-loaded"
        else:
            tilt = "symmetric"
        inter = ">" if m1[1] > m2[1] + tol else ("<" if m1[1] < m2[1] - tol else "=")
        print(f"alpha={alpha:+.1f}: {tilt}; intermediate volume-rec {inter} spread-rec")
    return 0


def cmd_replay(args) -> int:
    payload = _read_json(args.schedule, "schedule file")
    trades = payload.get("trades") if isinstance(payload, dict) else None
    if not (isinstance(trades, list) and all(type(x) in (int, float) for x in trades)):
        raise InvalidParam(f"schedule file {args.schedule} must hold a JSON object "
                           "with a list of numbers at \"trades\"")
    cfg = _resolve_config(args, payload.get("config", {}))
    shape = make_shape(cfg["shape"])
    params = make_params(cfg)
    report = _cost_report(params, shape, trades, _number(cfg, "a0"))
    print(f"replayed {len(trades)} trades under model {int(params.mode)}")
    print(f"cost  = {report.total:.6g}")
    print(f"impact = {report.impact_term:.6g}")
    if args.trajectory:
        traj = dynamics.replay(params, shape, trades)
        dynamics.trajectory_to_csv(traj, args.trajectory)
        print(f"wrote {args.trajectory}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.report}")
    return 0


def cmd_oracle_check(args) -> int:
    cfg = _resolve_config(args)
    shape = make_shape(cfg["shape"])
    params = make_params(cfg)
    sched = solver.solve(params, shape, skip_validation=args.force)
    result = oracle.minimize_cost(params, shape, starts=args.starts, seed=cfg["seed"])
    solver_cost = costs.impact_cost(params, shape, sched.strategy)
    per_trade_gap = max(
        abs(a - b) for a, b in zip(sched.trades, result.best_strategy.trades)
    )
    cost_gap = result.best_cost - solver_cost
    rel = abs(cost_gap) / max(1.0, abs(solver_cost))
    print(f"solver cost = {solver_cost:.6g}, oracle cost = {result.best_cost:.6g}")
    print(f"worst per-trade gap = {per_trade_gap:.6g}, relative cost gap = {rel:.6g}")
    if result.off_book:
        print(f"note: {result.off_book} of {result.starts} oracle starts lie off the book "
              "(their first cost is not finite) and were dropped", file=sys.stderr)
    if not result.converged:
        print("warning: not every oracle start converged", file=sys.stderr)
    if rel <= _COST_RTOL and per_trade_gap <= _PER_TRADE_RTOL * max(1.0, params.x0):
        print("oracle agrees with the solver")
        return 0
    if args.force and cost_gap < 0.0:
        print(
            f"oracle beats the root-equation schedule by {-cost_gap:.6g}; "
            "the root equation is not sufficient for optimality here"
        )
        return 0
    print("verification mismatch", file=sys.stderr)
    return 4


def cmd_ow_compare(args) -> int:
    cfg = _resolve_config(args)
    lambdas = args.lambdas
    q = _number(cfg["shape"], "q")
    params = make_params(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    reference = solver.solve_block(params, q)
    columns, worst_coeff, worst_trade = {}, 0.0, 0.0
    for i, lam in enumerate(lambdas):
        # an overflow shows as a gap that is not finite, refused below
        with np.errstate(all="ignore"):
            back = ow.backward_coeffs(q, lam, params)
            closed = ow.closed_coeffs(q, lam, params)
            coeff_gap = max(
                float(np.max(abs(getattr(back, name) - getattr(closed, name))))
                / max(1.0, float(np.max(abs(getattr(closed, name)))))
                for name in ("alpha", "beta", "gamma", "delta", "epsilon", "phi")
            )
            strat = ow.forward_strategy(back, params, params.x0)
            trade_gap = (float(np.max(abs(np.subtract(strat.trades, reference.trades))))
                         / max(1.0, params.x0))
        if not (math.isfinite(coeff_gap) and math.isfinite(trade_gap)):
            raise OverflowError(f"permanent slope {lam}: a coefficient or trade is not finite")
        worst_coeff = max(worst_coeff, coeff_gap)
        worst_trade = max(worst_trade, trade_gap)
        columns[lam] = strat.trades
        ow.coeffs_to_csv(back, args.out_dir / f"ow_coeffs_lambda{i}.csv")
    out_path = args.out_dir / "ow_compare.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "block_closed"] + [f"lambda_{lam:g}" for lam in lambdas])
        for n in range(params.steps + 1):
            writer.writerow([n, f"{reference.trades[n]:.17g}"]
                            + [f"{columns[lam][n]:.17g}" for lam in lambdas])
    print(f"wrote {out_path}")
    print(f"worst coefficient gap (backward vs closed) = {worst_coeff:.6g}")
    print(f"worst trade gap vs block closed form       = {worst_trade:.6g}")
    if worst_coeff > 1e-10 or worst_trade > 1e-9:
        print("verification mismatch", file=sys.stderr)
        return 4
    print("recursive scheme agrees with the closed forms for every lambda")
    return 0


def _float_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _model_list(text: str) -> list[int]:
    models = _float_list(text)
    if not set(models) <= {1, 2}:
        raise argparse.ArgumentTypeError(f"expected comma-separated models 1 and 2, got {text!r}")
    return [int(m) for m in models]


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: "sweep --alpha 1" would be read as --alphas
    parser = _Parser(prog="lobexec", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            key, kwargs = _PARAMS[flag]
            p.add_argument(flag, **kwargs, **({"dest": key} if key else {}))
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "optimal schedule for the configured shape/model",
            _BOOK + _MARKET + ("--a0", "--config", "--out-dir"))

    p = command("sweep", cmd_sweep, "power-law exponent sweep, both models", _DEPTH_AND_MARKET)
    p.add_argument("--alphas", type=_float_list, default="-2,-1,-0.5,0,0.5,1",
                   help="comma-separated exponents")
    p.add_argument("--models", type=_model_list, default="1,2", help="comma-separated models")

    p = command("replay", cmd_replay, "replay a stored schedule and report its cost",
                _BOOK + _MARKET + ("--a0", "--config"))
    p.add_argument("--schedule", required=True, help="schedule.json from solve")
    p.add_argument("--trajectory", help="write node states to this CSV")
    p.add_argument("--report", help="write the cost report to this JSON")

    p = command("oracle-check", cmd_oracle_check, "certify the solver against the descent oracle",
                _BOOK + _MARKET + ("--seed", "--config"))
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--force", action="store_true", help="skip the validator preflight")

    p = command("ow-compare", cmd_ow_compare, "recursive block scheme vs closed forms",
                _DEPTH_AND_MARKET)
    p.add_argument("--lambdas", type=_float_list, default="0,5e-5,1.5e-4",
                   help="comma-separated permanent slopes")

    return parser


# the flags that take a comma-separated list of numbers
_LIST_FLAGS = ("--alphas", "--models", "--lambdas")


def _attach_negative_lists(argv) -> list[str]:
    """Pass "--alphas -2,-1" on as "--alphas=-2,-1", and so for every list
    flag: argparse takes a value that starts with "-" and is not a single
    number (-1e-4 and -1,-2 are not) for a flag."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_negative_lists(argv))
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(
                f"  reason: {exc.report.reason}, witness: {exc.report.witness:.6g}",
                file=sys.stderr,
            )
        return 2
    except InvalidParam as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2
    except (OutOfDomain, NoRootInBracket, BudgetExceeded, OverflowError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file named on the command line that cannot be read or written
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
