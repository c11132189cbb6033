"""Run one benchmark workload and print its metrics; the last line is one JSON object.

    python3 bench/run.py --workload solve-builtins --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, each in a fresh process

Run from the root of a checkout: the program is imported from ``src/`` and
the metric names and units come from ``BENCHMARK.json``.  With ``--trace 0``
the workload repeats its timed operations until ``--seconds`` have passed
and reports the end-to-end metrics.  With ``--trace 1`` it runs the
operations once untraced and once traced and reports the per-layer metrics;
the spans go to ``bench-out/trace-<workload>-seed<seed>.npz``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench-out"
WORKLOAD_NAMES = ("solve-builtins", "solve-wide", "check-cap", "solve-cli")
SETUP_PROBES = 2  # set-ups in fresh processes; setup_s is the median of 1 + these
MAX_FAILURE_LINES = 20
BLAS_THREADS = "1"  # iteration counts depend on the BLAS thread count


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="print the set-up time and exit"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def self_command(args, *extra):
    return [sys.executable, __file__, "--seed", str(args.seed), *extra]


def setup_probe(args):
    """Set-up time of the same workload and seed in a fresh process."""
    cmd = self_command(args, "--workload", args.workload, "--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(workloads, ops, args, setup_main):
    """Repeat the operations for ``--seconds``; task_s sums each one's fastest time.

    On a shared machine other tenants slow single repetitions by up to 2x
    for seconds at a time; an operation's fastest repetition is the one
    such load disturbed least.
    """
    setups = [setup_main] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    workloads.calibrate(ops)
    fastest = [float("inf")] * len(ops)
    totals, failures = [], []
    references = {}
    start = time.perf_counter()
    while True:
        label = f"rep {len(totals)}"
        times, iterations, rep_failures = workloads.run_rep(ops, references, label)
        fastest = [min(a, b) for a, b in zip(fastest, times)]
        totals.append(sum(times))
        failures += rep_failures
        if time.perf_counter() - start >= args.seconds:
            break
    values = {
        "task_s": sum(fastest),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    alias = workloads.TASK_ALIAS[args.workload]
    print(
        f"# {alias} per repetition: {', '.join(f'{t:.4f}' for t in totals)} s; "
        f"median {statistics.median(totals):.4f} s; "
        f"sum of fastest (task_s) {sum(fastest):.4f} s"
    )
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"# iterations per repetition: {json.dumps(iterations)}")
    return values, len(totals) * len(ops), failures


def per_layer(workloads, ops, args, tracer):
    from spans import installed_wrappers, layer_metrics

    workloads.calibrate(ops)
    references = {}
    untraced, iterations, failures = workloads.run_rep(ops, references, "untraced")
    with tracer.installed():
        traced, _, traced_failures = workloads.run_rep(ops, references, "traced")
    failures += traced_failures
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers left installed: {installed_wrappers()}")
    untraced, traced = sum(untraced), sum(traced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    layers = layer_metrics(tracer)
    values = dict(layers)
    for tag in workloads.ITERATION_TAGS:
        values[f"dynamics.iters_to_tol.{tag}"] = iterations.get(tag, 0)
    total_iters = sum(iterations.values())
    values["dynamics.us_per_iter"] = 1e6 * untraced / total_iters if total_iters else 0.0
    values["dynamics.field_evals"] = layers["dynamics.field.calls"]
    tested = layers["diagnostics.sample_cap.tested"]
    accepted = layers["diagnostics.sample_cap.accepted"]
    values["diagnostics.sample_cap.accept_ratio"] = accepted / tested if tested else 0.0
    values["tracing.overhead_s"] = traced - untraced
    print(f"# untraced {untraced:.4f} s, traced {traced:.4f} s, {len(tracer.starts)} spans")
    for name in sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".calls")}):
        print(
            f"# span {name}: calls={layers[name + '.calls']} "
            f"self_s={layers[name + '.self_s']:.6f} s={layers[name + '.s']:.6f}"
        )
    return values, 2 * len(ops), failures


def run_all(args):
    """Run every workload in a fresh process; prints a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = self_command(
            args, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)
        )
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    benchmark = ROOT / "BENCHMARK.json"
    if not (src / "mflow" / "__init__.py").is_file() or not benchmark.is_file():
        print(f"error: no src/mflow or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
        start = time.perf_counter()
        import workloads  # imports numpy and mflow: part of the set-up time
        from spans import Tracer

        tracer = Tracer() if args.trace else None
        if tracer:
            with tracer.installed():
                ops = workloads.setup(args.workload, args.seed, workdir)
        else:
            ops = workloads.setup(args.workload, args.seed, workdir)
        setup_main = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if not Path(workloads.mflow.__file__).is_relative_to(src):
            raise RuntimeError(f"mflow was imported from {workloads.mflow.__file__}")

        print(f"# env {json.dumps(environment())}")
        declared = json.loads(benchmark.read_text())
        if tracer:
            values, attempted, failures = per_layer(workloads, ops, args, tracer)
            metrics = declared["per_layer"]
        else:
            values, attempted, failures = end_to_end(workloads, ops, args, setup_main)
            metrics = declared["end_to_end"]

    for failure in failures[:MAX_FAILURE_LINES]:
        print(f"# FAILED {failure}")
    print(f"# fail_share {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
