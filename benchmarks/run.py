"""Benchmark of lobexec: one workload per run, end to end or per layer.

    python3 benchmarks/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ../src relative to this
file. Workloads: solve-small, solve-large, certify, cli (see README.md).

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics (setup_s, ops_per_s, latency_p50_ms, peak_rss_mb);
with --trace 1 it carries the per-layer metrics instead. The full record
of a run, with sample counts, tails and any failures, is written to
benchmarks/results/.

The set-up time is measured from outside: the workload process, and four
probes that stop once set up (two before the run, two after it), are
spawned as fresh interpreters, and each is timed until it reports that
``import lobexec`` has finished and its inputs are built. Each is
followed by a reading of the spawn gauge (gauge.py); the median of the
five times, scaled by the median of the five readings, is reported. The
operation times behind ops_per_s
and latency_p50_ms are scaled by gauge readings in the same way; the raw
figures are in the run record.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("solve-small", "solve-large", "certify", "cli")
SETUP_PROBES = 4        # plus the workload process itself
IMPORTTIME_PROBES = 3   # traced runs only
LIMIT_S = 170           # every run ends within this, or is killed
# numpy's BLAS pool held to one thread, in the workers and the cli children
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def spawn(args, env, stderr=None, importtime=False):
    """Start a worker; return (process, seconds to ready, import ms it reports)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "worker.py")] + args
    t0 = perf_counter()
    # a session of its own, so that killing it also ends the cli children
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=stderr, env=env, cwd=ROOT, bufsize=0,
                            start_new_session=True)
    line = proc.stdout.readline().decode()
    ready = perf_counter() - t0
    if not line.startswith("ready "):
        kill(proc)
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready, float(line.split()[1])


def kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def finish(proc, command, timeout):
    """Send the worker its command; return its stdout once it has exited."""
    try:
        return proc.communicate(command, timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        kill(proc)
        raise


def stop(proc):
    finish(proc, b"exit\n", 30)


def scipy_import_ms(text: str) -> float:
    """Time spent importing scipy packages from outside scipy, from -X importtime.

    Each line is ``import time: self | cumulative | <2 spaces per level>name``
    and children are listed before their parent, so reading backwards the
    parent of a line at level L is the latest line seen at level L-1.
    """
    total_us = 0
    parent_at = {}
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name_col = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        name = name_col.strip()
        level = (len(name_col) - len(name_col.lstrip()) - 1) // 2
        parent_at[level] = name
        parent = parent_at.get(level - 1, "")
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += int(cum)
    return total_us / 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "lobexec" / "__init__.py").is_file():
        print(f"error: no lobexec source under {src}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    # the build: byte-compile once, untimed, as an install would
    if not compileall.compile_dir(str(src), quiet=1) or not compileall.compile_dir(
            str(HERE), quiet=1, maxlevels=0):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--results", str(RESULTS)]
    t_start = perf_counter()
    setup, readings, imports, scipy_ms = [], [], [], []

    def note_setup(ready, import_ms):
        # each probe is followed by a reading of the spawn gauge
        setup.append(ready)
        readings.append(gauge.read_spawn(env))
        imports.append(import_ms)

    def probe(count):
        for _ in range(count):
            proc, ready, import_ms = spawn(worker_args, env)
            stop(proc)
            note_setup(ready, import_ms)

    # half the probes before the run and half after it, so that the median
    # spans the run rather than a few seconds of it
    probe(SETUP_PROBES // 2)
    worker, ready, import_ms = spawn(worker_args, env)
    try:
        note_setup(ready, import_ms)
        out = finish(worker, b"go\n", max(10.0, LIMIT_S - (perf_counter() - t_start)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    except BaseException:
        kill(worker)
        raise
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    if args.trace:
        log = RESULTS / f"importtime-{os.getpid()}.txt"
        for _ in range(IMPORTTIME_PROBES):
            with open(log, "w+b") as fh:
                proc, _, _ = spawn(worker_args, env, stderr=fh, importtime=True)
                stop(proc)
                fh.seek(0)
                scipy_ms.append(scipy_import_ms(fh.read().decode(errors="replace")))
        log.unlink()
    lines = out.decode().strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: the workload process exited with {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    for msg in res["check_errors"]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg, count in res["failures"].items():
        print(f"failed x{count}: {msg}", file=sys.stderr)

    # one reading is as noisy as one probe, so the medians are divided
    setup_s = statistics.median(setup) * gauge.SPAWN_NOMINAL_S / statistics.median(readings)
    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
        metrics["cli.import_scipy_ms"] = (statistics.median(scipy_ms), "ms")
        metrics["trace.latency_p50_ms"] = (res["latency_p50_ms"], "ms")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (res["ops_per_s"], "1/s"),
            "latency_p50_ms": (res["latency_p50_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    final = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(res, setup_s=setup_s, setup_s_raw=setup, spawn_gauge_s=readings,
                  import_ms=imports, scipy_import_ms=scipy_ms,
                  args=vars(args), metrics=final["metrics"])
    record.pop("layers", None)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
