"""Run one qgamma benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see perfbench/README.md).
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {"series-numeric": "series_numeric",
             "mirror-exact": "mirror_exact",
             "cli-sweep": "cli_sweep"}
SETUP_PROBES = 7         # before the timed phase, and as many after it
# Set-up probes read and write compiled bytecode here, inside the checkout,
# whatever PYTHONDONTWRITEBYTECODE says, so that set-up time means the same
# on every machine: imports from cached bytecode, as in an installed copy.
PYCACHE = HERE.parent / ".bench_build" / "pycache"


def _use_checkout():
    """Import qgamma from the checkout's src/, or exit without a result."""
    if not (SRC / "qgamma" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'qgamma'}; run the benchmark "
                 "from the root of a qgamma checkout")
    sys.path.insert(0, str(SRC))
    import qgamma
    if Path(qgamma.__file__).resolve().parent != (SRC / "qgamma").resolve():
        sys.exit(f"error: qgamma was imported from {qgamma.__file__}, "
                 f"not from {SRC}")


# Standard-library modules that neither qgamma nor the benchmark imports.
# Importing them from cached bytecode is work of the kind a package import
# does, and its speed factor scales the import part of each set-up probe.
IMPORT_KERNEL = ("xml.dom.minidom", "unittest", "tarfile", "configparser",
                 "optparse", "pickletools", "doctest", "logging.handlers")
IMPORT_REFERENCE_S = 0.03


def _setup_probe(workload, seed):
    """Child process: import the package, the CLI and the workload, build
    the inputs, and print the time that took in reference-speed seconds.

    The import part is scaled by the speed factor of IMPORT_KERNEL, the
    input part by the best of nine samples of the arithmetic kernels
    (harness.KERNELS).  Both are measured in this process right after
    set-up: a fresh process can run at another speed than the one that
    starts it, and arithmetic kernels slow down more than imports do when
    the machine is busy.
    """
    t0 = time.perf_counter()
    _use_checkout()
    import qgamma.cli  # noqa: F401
    module = importlib.import_module(WORKLOADS[workload])
    t1 = time.perf_counter()
    module.prepare(seed)
    t2 = time.perf_counter()
    for name in IMPORT_KERNEL:
        importlib.import_module(name)
    imports = IMPORT_REFERENCE_S / (time.perf_counter() - t2)
    from harness import KERNELS, speed_sample
    compute = max(speed_sample(KERNELS)[1] for _ in range(9))
    print((t1 - t0) * imports + (t2 - t1) * compute)


def _setup_probes(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes, in reference-speed
    seconds.  One more process runs first and is not counted: it fills the
    bytecode cache if it is empty."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, env=env)
        times.append(float(out.stdout.split()[-1]))
    return times[1:]


def _report(lines, name, value, unit, note=""):
    lines.append(f"  {name:<40} {value:>14.6g} {unit:<7} {note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    _use_checkout()
    module = importlib.import_module(WORKLOADS[args.workload])
    # a traced run reports no set-up time
    setup_times = [] if args.trace else _setup_probes(args.workload, args.seed)
    import qgamma.cli  # noqa: F401  (imported by set-up, as in the probes)

    import resource

    import mpmath

    import harness
    from tracer import Tracer

    passes = module.prepare(args.seed)
    tracer = Tracer() if args.trace else None
    res = harness.run(passes, args.seconds, module.KERNELS, tracer,
                      getattr(module, "MIN_OPS", 0))
    dps_end = mpmath.mp.dps

    per_pass = sum(res.per_pass.values())
    lines = [f"workload {args.workload}, seed {args.seed}: "
             f"{res.attempted // per_pass} passes of {per_pass} "
             f"operations, {res.attempted} operations, one client, "
             f"closed loop"]
    if args.trace:
        metrics = _per_layer(res, tracer, lines)
    else:
        # The lower quartile leaves out probes slowed by other work on the
        # machine without resting on a single fastest probe; probing before
        # and after the timed phase spreads the probes over the run.
        setup_times += _setup_probes(args.workload, args.seed)
        setup_s = statistics.quantiles(setup_times, n=4)[0]
        e2e = harness.end_to_end(res)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(res.times)
        metrics = {
            "setup_s": (setup_s, "s",
                        f"lower quartile of {len(setup_times)} fresh "
                        "processes"),
            "wall_s": (e2e["wall_s"], "s", "one pass, sum of kind medians"),
            "op_p50_s": (e2e["op_p50_s"], "s", f"{n} samples"),
            "op_p95_s": (e2e["op_p95_s"], "s",
                         f"{n} samples, {e2e['beyond_p95']} beyond"),
            "digits_margin_min": (e2e["digits_margin_min"], "digits",
                                  f"over {len(res.margins)} numeric checks"),
            "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
        }
        for name, (value, unit, note) in metrics.items():
            _report(lines, name, value, unit, note)
        _report(lines, "fail_frac", res.failed / res.attempted, "1",
                f"{res.failed} of {res.attempted} failed")
        _report(lines, "raw_wall_s", e2e["raw_wall_s"], "s",
                "wall_s before speed scaling")
        _report(lines, "speed_factor", e2e["speed_factor"], "1",
                "median; times above are scaled by it")
        metrics = {k: (v, u) for k, (v, u, _) in metrics.items()}
        for kind, (count, med) in sorted(e2e["kinds"].items()):
            lines.append(f"  op {kind:<20} {count:4d} x median {med:.4g} s")

    for defect, count in sorted(res.known.items()):
        lines.append(f"  known defect: {defect}: {count} failed operations")
    for kind, failures in res.unexpected[:20]:
        lines.append(f"  FAILED {kind}: {'; '.join(failures)[:300]}")
    if dps_end != 15:
        lines.append(f"  FAILED mpmath.mp.dps is {dps_end} after the run, "
                     "not 15")
    correct = not res.unexpected and dps_end == 15
    lines.append(f"  correct: {correct} (mpmath.mp.dps = {dps_end} at the "
                 "end of the run)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def _per_layer(res, tracer, lines):
    """Per-layer metrics of the traced ops, plus the tracing overhead."""
    n = res.passes / 2          # passes' worth of traced, and of untraced, ops
    compared = list(zip(res.times, res.traced))[res.warmup_ops:]
    wall = sum(t for t, traced in compared if traced) / n
    plain = sum(t for t, traced in compared if not traced) / n
    metrics = tracer.metrics(n)
    spans = (tracer.self_total() - tracer.self_s["bench.check"]) / n
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.overhead_s"] = (wall - plain, "s")
    metrics["trace.self_sum_s"] = (spans, "s")
    lines.append(f"  an untraced warm-up pass, then {res.passes} passes with "
                 f"every other op of each kind traced; per pass, the traced "
                 f"ops took {wall:.4g} s, the untraced ones {plain:.4g} s, "
                 f"and the self times of all spans but bench.check sum to "
                 f"{spans:.4g} s")
    layers = {}
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  layer {layer:<12} self {s:10.4f} s per pass "
                     f"({100 * s / wall:5.1f}% of traced wall)")
    for name, (value, unit) in metrics.items():
        if value:
            _report(lines, name, value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
