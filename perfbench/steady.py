"""Steadiness report: repeat each workload with different seeds and print the
median and interquartile spread of every metric, plus machine information.

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --workloads cli-sweep --runs 5 --seed 100

Each run is a fresh `perfbench/run.py` process, one at a time.  The spread
of a metric is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  The bounds of BENCHMARK.json are
printed beside the spreads of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_info() -> dict:
    import mpmath
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__, "git_sha": sha}


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(json.dumps(machine_info()))
    worst = 0.0
    for workload in args.workloads:
        rows = {}
        units = {}
        for k in range(args.runs):
            seed = args.seed + k
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr[-2000:]}")
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{n}={m['value']:.6g}"
                             for n, m in res["metrics"].items()
                             ), flush=True)
            for name, m in res["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {args.seconds} s each")
        print(f"  {'metric':<44} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, values in rows.items():
            s = spread(values)
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, s / bound)
            print(f"  {name:<44} {statistics.median(values):>12.6g} "
                  f"{s:>8.4f} {'' if bound is None else bound:>6} "
                  f"{units[name]}")
        print()
    print(f"largest spread / bound (end-to-end): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
