"""One workload process: set up, say "ready", then run the timed loop.

Started by run.py with src on PYTHONPATH. After ``import lobexec`` and
building the workload's inputs it prints ``ready <import ms>`` and waits
for one line on stdin: ``go`` runs the workload, anything else exits, so
the same program serves as a set-up probe. The result is one JSON line
on stdout.

The loop is closed, with one caller: each operation starts when the
previous one and its check have finished. It runs whole passes over the
case list, in an order drawn from the seed afresh for every pass, until
the time is up. Checks run outside the timed region; each case's output
is checked in full the first time and must repeat exactly afterwards.
Untraced runs scale every operation's time by the processor's speed,
read from a gauge around and inside it (gauge.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

t_import = perf_counter()
import lobexec  # noqa: E402  (timed: the set-up includes this import)
import_ms = 1e3 * (perf_counter() - t_import)

import gauge  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

IN_PROCESS = {
    "solve-small": (wl.solve_small_cases, wl.solve_op, wl.solve_check),
    "solve-large": (wl.solve_large_cases, wl.solve_op, wl.solve_check),
    "certify": (wl.certify_cases, wl.certify_op, wl.certify_check),
}


def tail(latencies_ms):
    """The highest of p90, p99 and p99.9 with at least ten samples above it."""
    xs = sorted(latencies_ms)
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            best = {"percentile": p, "ms": xs[int(p / 100.0 * len(xs))], "samples": len(xs)}
    return best


class Tally:
    """Operation counts, latencies and check failures of one run.

    Each operation's wall time is kept with its start and end, so that
    the result can scale it by the gauge readings around it (gauge.py);
    the end-to-end figures come from the scaled times, and the raw ones
    are reported beside them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.ops = []        # (start, end, seconds, succeeded) per operation
        self.check_errors = []
        self.passes = 0

    def record(self, label, t0, t1, dt, error):
        self.attempted += 1
        self.ops.append((t0, t1, dt, error is None))
        if error is not None:
            self.failed += 1
            key = f"{label}: {error}"
            self.failures[key] = self.failures.get(key, 0) + 1

    def check(self, label, fn, *args):
        try:
            fn(*args)
        except ref.CheckFailed as exc:
            self.check_errors.append(f"{label}: {exc}")

    def result(self, speed=None):
        """The run's figures; with a gauge, the times are scaled by it."""
        done = self.attempted - self.failed
        factors = [speed.factor(t0, t1) if speed else 1.0 for t0, t1, _, _ in self.ops]

        def figures(scaled):
            times = [dt * f if scaled else dt for (_, _, dt, _), f in zip(self.ops, factors)]
            ok = [1e3 * t for t, (_, _, _, good) in zip(times, self.ops) if good]
            busy = sum(times)
            return {
                "ops_per_s": done / busy if busy else 0.0,
                "latency_p50_ms": statistics.median(ok) if ok else 0.0,
                "tail": tail(ok),
            }

        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "passes": self.passes,
            "samples": done,
            "gauge_readings": len(speed.readings) if speed else 0,
            **figures(scaled=True),
            "raw": figures(scaled=False),
            "check_errors": self.check_errors[:20],
            "correct": not self.check_errors,
        }


def passes(seed, n_cases, seconds, order=None):
    """Yield one case order per pass until `seconds` have gone by.

    Another pass starts only if half a pass more still fits, so runs end
    near their length on average whatever the pass takes.
    """
    rng = random.Random(seed)
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        if order is None:
            idx = list(range(n_cases))
            rng.shuffle(idx)
        else:
            idx = order(rng)
        yield idx
        now = perf_counter()
        if now - start + 0.5 * (now - t_pass) >= seconds:
            return


def run_in_process(cases, op, check, seed, seconds, tracer):
    """Run the workload; with a tracer, unscaled and with no gauge, so that
    the layer times hold no readings."""
    tally = Tally()
    first = {}
    speed = None if tracer else gauge.Gauge(gauge.read_inprocess, gauge.INPROCESS_NOMINAL_S)

    def reading_time():
        return speed.spent if speed else 0.0

    with gauge.Sampler(speed) if speed else contextlib.nullcontext():
        for order in passes(seed, len(cases), seconds):
            for k in order:
                case = cases[k]
                error = None
                spent = reading_time()
                t0 = perf_counter()
                try:
                    out = tracer.op_call(k, op, case) if tracer else op(case)
                except Exception as exc:  # a refused or failed operation is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {str(exc)[:80]}"
                t1 = perf_counter()
                # the gauge readings made inside the operation are not its time
                tally.record(case.label, t0, t1, t1 - t0 - (reading_time() - spent), error)
                if error is not None:
                    continue
                if k not in first:
                    first[k] = out
                    tally.check(case.label, check, case, out)
                elif out != first[k]:
                    tally.check_errors.append(f"{case.label}: output differs from the first run")
            tally.passes += 1
    return tally, speed


def run_cli(work, commands, seed, seconds, traced):
    """Untraced: each command in a fresh interpreter. Traced: each through
    cli.main in this process, after import, timed per subcommand."""
    env = dict(os.environ)
    tally = Tally()
    speed = None if traced else gauge.Gauge(lambda: gauge.read_spawn(env), gauge.SPAWN_NOMINAL_S)
    if speed:
        speed.read()
    peak_kb = 0
    per_command = {}

    def shuffled(rng):
        return wl.cli_order(commands, rng)

    for order in passes(seed, len(commands), seconds, shuffled):
        for k in order:
            cmd = commands[k]
            wl.cli_prepare(work, cmd)
            t0 = perf_counter()
            if traced:
                code, stdout = wl.cli_run_inprocess(cmd)
            else:
                code, stdout, rss_kb = wl.cli_run_child(cmd, env, work / f"{cmd.name}.log")
                peak_kb = max(peak_kb, rss_kb)
            t1 = perf_counter()
            dt = t1 - t0
            tally.record(cmd.name, t0, t1, dt, None if code == 0 else f"exit code {code}")
            if code == 0:
                per_command.setdefault(cmd.label, []).append(dt)
                tally.check(cmd.name, wl.cli_check, work, cmd, stdout)
            if speed and speed.since_last() >= gauge.SPAWN_GAUGE_EVERY_S:
                speed.read()
        tally.passes += 1
    if speed:
        speed.read()
    return tally, speed, peak_kb, per_command


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--results", required=True)
    args = ap.parse_args()

    if args.workload == "cli":
        work = Path(args.results) / f"cli-{os.getpid()}"
        inputs = wl.cli_commands(work)
    else:
        build, op, check = IN_PROCESS[args.workload]
        inputs = build()
    print(f"ready {import_ms:.6f}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    try:
        if args.workload == "cli":
            tally, speed, peak_kb, per_command = run_cli(work, inputs, args.seed, args.seconds,
                                                  bool(args.trace))
        elif args.trace:
            # first half: the layers; second half: the shape primitives
            layer_tracer = Tracer().install()
            try:
                tally, speed = run_in_process(inputs, op, check, args.seed, args.seconds / 2,
                                              layer_tracer)
            finally:
                layer_tracer.remove()
            prim_tracer = Tracer().install(primitives=True)
            try:
                tally_p, _ = run_in_process(inputs, op, check, args.seed + 1, args.seconds / 2,
                                            prim_tracer)
            finally:
                prim_tracer.remove()
        else:
            tally, speed = run_in_process(inputs, op, check, args.seed, args.seconds, None)
    except Exception:
        traceback.print_exc()
        return 1
    if args.workload != "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = tally.result(speed)
    out["peak_rss_mb"] = peak_kb / 1024.0
    if args.trace:
        # a layer the workload never calls reads 0
        if args.workload == "cli":
            layer_tracer, prim_tracer, tally_p = Tracer(), Tracer(), tally
        out["layers"] = layer_tracer.metrics(tally.attempted, tally.passes)
        out["layers"].update(prim_tracer.primitive_metrics(tally_p.attempted))
        for label in ("solve", "replay", "sweep", "oracle-check"):
            times = per_command.get(label) if args.workload == "cli" else None
            out["layers"][f"cli.command_ms.{label}"] = (
                1e3 * statistics.median(times) if times else 0.0, "ms")
        if args.workload == "cli":
            out["command_samples"] = {k: len(v) for k, v in per_command.items()}
        else:
            spans = Path(args.results) / f"spans-{args.workload}-seed{args.seed}.csv"
            layer_tracer.write_spans(spans)
            out["spans_file"] = str(spans)
            second = tally_p.result()
            out["primitive_phase"] = second
            out["attempted"] += second["attempted"]
            out["failed"] += second["failed"]
            out["correct"] = out["correct"] and second["correct"]
            out["check_errors"] += second["check_errors"]
            for msg, count in second["failures"].items():
                out["failures"][msg] = out["failures"].get(msg, 0) + count
    if args.workload == "cli":
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
