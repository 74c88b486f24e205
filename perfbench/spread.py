"""Run workloads on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads desk paper-deep --seeds 1-10

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
and prints for every end-to-end metric the median, the quartiles and the
distance between them as a share of the median, beside the metric's bound
from BENCHMARK.json. ``--trace-check`` also makes a traced run on the first
seed and compares its artifact hashes with the untraced run on that seed.
Writes the values to ``perfbench/results/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list[int]:
    """``1-10`` or ``3,5,8``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} reported incorrect output")
    return result, wall


def artifacts(workload: str, seed: int, trace: int) -> dict:
    record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return record["artifacts"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    steady = True
    for workload in args.workloads:
        seeds = seed_list(args.seeds)
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            result, wall = run_once(workload, seed, seconds, 0)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        print(f"{workload}: run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = quartile_spread(series)
            bound = bounds.get(name, float("nan"))
            flag = "" if name == "setup_s" or spread < bound / 3 else "  above a third of the bound"
            steady = steady and (name == "setup_s" or spread <= bound)
            print(f"  {name:20s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}{flag}")
        (BENCH / "results" / f"spread-{workload}.json").write_text(
            json.dumps({"seeds": seeds, "seconds": seconds, "values": values, "walls": walls}, indent=2) + "\n"
        )
        if args.trace_check:
            run_once(workload, seeds[0], seconds, 1)
            same = artifacts(workload, seeds[0], 0) == artifacts(workload, seeds[0], 1)
            steady = steady and same
            print(f"  traced artifacts {'match' if same else 'DIFFER from'} the untraced run on seed {seeds[0]}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
