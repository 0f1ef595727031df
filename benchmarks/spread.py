"""Run-to-run spread of the end-to-end metrics.

    python3 benchmarks/spread.py --workload certify --seeds 1-10 [--seconds 20]

Runs run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and
third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json, and the same for the
unscaled timings (see gauge.py). The runs are appended
to benchmarks/results/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    (HERE / "results").mkdir(exist_ok=True)
    log = HERE / "results" / f"spread-{args.workload}.jsonl"
    runs = []
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        res["raw"] = dict(record["raw"], setup_s=statistics.median(record["setup_s_raw"]))
        runs.append(res)
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "wall_s": wall, **res}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.5g}" for k, v in res["metrics"].items())
            + f"; {res['failed']}/{res['attempted']} failed, correct {res['correct']}"
            + f", {wall:.1f} s wall", flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        line = (f"{m['name']:>16}: median {med:.5g} {m['unit']}, "
                f"IQR/median {(q3 - q1) / med:.4f} (bound {m['bound']})")
        if m["name"] in runs[0]["raw"]:
            raw = [r["raw"][m["name"]] for r in runs]
            r1, _, r3 = statistics.quantiles(raw, n=4)
            line += f"; unscaled median {statistics.median(raw):.5g}, IQR/median {(r3 - r1) / statistics.median(raw):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
