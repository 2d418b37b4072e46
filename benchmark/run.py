"""Benchmark of the acausal-mbqc verification CLI.

    python3 benchmark/run.py --workload verify-dense --seed 1 --seconds 35 --trace 0

One run is one fresh process and a closed loop with a single caller: each
operation of the workload runs to its verdict before the next one starts.
Set-up generates the workload's graph files from ``--seed``; the operations
then run in-process through ``acausal_mbqc.cli.main`` and every output is
checked (see ``workloads.py``).  Passes over the operation list repeat until
``--seconds`` is spent and the medians are reported.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced passes alternate with passes under the span wrappers
of ``tracing.py``, and the last line reports the per-layer metrics instead.
The lines before it give the run metadata, every metric with its unit
(``fail_frac`` included), and any failed check.  ``--smoke`` keeps only the
smallest operation of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracing
import workloads

# One BLAS thread, set before anything loads numpy (only functions below do,
# and the set-up child processes inherit it): multithreaded eigvalsh on a
# shared two-core machine adds run-to-run spread without serving one caller.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PER_PASS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here: the package source is missing or shadowed."""


def import_package():
    """Import acausal_mbqc from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "acausal_mbqc", "cli.py")):
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import acausal_mbqc
    import acausal_mbqc.cli

    origin = os.path.realpath(os.path.dirname(acausal_mbqc.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "acausal_mbqc")):
        raise BenchError(f"acausal_mbqc imported from {origin}, not from {SRC}")
    return acausal_mbqc


# ---------------------------------------------------------------------------
# set-up


def time_setups(workload: str, seed: int, parent: str) -> list[float]:
    """Set-up time of SETUP_PER_PASS fresh processes that each import the package
    and write the workload's inputs: from spawning the interpreter until the
    child reads the system-wide monotonic clock with its inputs on disk.

    The child reports that clock reading itself, because timing the parent's
    wait would add the child's shutdown and the wait's polling granularity
    (up to 50 ms when a timeout is set)."""
    times = []
    for _ in range(SETUP_PER_PASS):
        target = tempfile.mkdtemp(prefix="setup-", dir=parent)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", target,
               "--workload", workload, "--seed", str(seed)]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout) - start)
    return times


# ---------------------------------------------------------------------------
# one operation, one pass


def run_op(pkg, op: workloads.Op, manifest: dict):
    """Run one operation; returns (exit code or None if it raised, stdout, stderr, wall, cpu)."""
    path = manifest["graphs"][op.graph]["path"]
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.library:
                inst = pkg.game.game_instance(pkg.graphstate.load_graph(path))
                value = pkg.game.girls_first_p0(
                    inst, shots=op.params["shots"], seed=op.params["seed"]
                )
                out.write(json.dumps(value))
                code = 0
            else:
                code = pkg.cli.main([*op.argv, "--graph", path])
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def check_output(op: workloads.Op, code, out: str, err: str) -> str | None:
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {err.strip()[-400:]}"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"output is not JSON: {out[:200]!r}"
    return op.check(op, doc)


def run_pass(pkg, ops, manifest, tracer=None):
    """One pass over the operations; returns ([wall s per op], cpu s, [(op name, problem)])."""
    walls, cpu = [], 0.0
    failures = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        runs = [run_op(pkg, op, manifest) for _ in range(2 if op.repeat else 1)]
        walls.append(sum(r[3] for r in runs))
        cpu += sum(r[4] for r in runs)
        problem = check_output(op, *runs[0][:3])
        if problem is None and op.repeat and runs[1][:2] != runs[0][:2]:
            problem = "repeated run did not give byte-identical output"
        if problem is not None:
            failures.append((op.name, problem))
    return walls, cpu, failures


# ---------------------------------------------------------------------------
# metadata


def _commit() -> str:
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(args, ops) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "operations": [op.describe() | {"repeat": op.repeat} for op in ops],
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the workload's smallest operation")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def untraced_metrics(pkg, args, ops, manifest, rundir, failures):
    """End-to-end metrics: passes until the budget is spent, medians reported.

    Set-up is sampled before every pass rather than once, so that its median
    spans the same machine load as the passes.
    """
    setup_times, op_walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        setup_times += time_setups(args.workload, args.seed, rundir)
        walls, cpu, failed = run_pass(pkg, ops, manifest)
        op_walls.append(walls)
        cpus.append(cpu)
        failures += failed
        # stop when another round of the mean length would overrun the budget
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(op_walls) > args.seconds:
            break
    walls = [sum(w) for w in op_walls]
    print(f"setups {len(setup_times)}: setup_s {[round(t, 4) for t in setup_times]}")
    print(f"passes {len(walls)}: wall_s {[round(w, 4) for w in walls]}")
    per_op = {op.name: [round(w[i], 4) for w in op_walls] for i, op in enumerate(ops)}
    print("op_wall_s " + json.dumps(per_op))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, len(ops) * len(walls)


def traced_metrics(pkg, args, ops, manifest, rundir, failures):
    """Per-layer metrics from the first traced pass.

    Untraced and traced passes alternate until the budget is spent, so that
    the tracing overhead (traced minus untraced pass, median over pairs) is
    taken under the same machine load.
    """
    first, clamped, overheads = None, 0, []
    start = time.perf_counter()
    while True:
        walls, _, failed = run_pass(pkg, ops, manifest)
        failures += failed
        tracer = tracing.Tracer()
        clamped0 = pkg.procmat.clamped_probability_count()
        with tracer.installed(pkg):
            if first is None:
                workloads.write_inputs(args.workload, args.seed,
                                       tempfile.mkdtemp(prefix="traced-", dir=rundir))
            traced_walls, _, failed = run_pass(pkg, ops, manifest, tracer)
        failures += failed
        overheads.append(sum(traced_walls) - sum(walls))
        if first is None:
            first = tracer
            clamped = pkg.procmat.clamped_probability_count() - clamped0
        if time.perf_counter() - start + sum(walls) + sum(traced_walls) > args.seconds:
            break
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    first.write(spans_path)
    print(f"pairs {len(overheads)}: overhead_s {[round(o, 4) for o in overheads]}")
    print(f"spans {len(first.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    stats = tracing.span_stats(first.spans)
    print("span_stats " + json.dumps(stats, sort_keys=True))
    metrics = tracing.layer_metrics(stats, first.counters, clamped)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, 2 * len(ops) * len(overheads)


def measure(args) -> dict:
    pkg = import_package()
    os.makedirs(WORK, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    failures = []
    try:
        manifest = workloads.write_inputs(args.workload, args.seed, rundir)
        ops = workloads.operations(args.workload, manifest)
        if args.smoke:
            ops = [min(ops, key=lambda op: op.n_comp + op.n_out)]
        print("meta " + json.dumps(run_metadata(args, ops), sort_keys=True), flush=True)
        measure_fn = traced_metrics if args.trace else untraced_metrics
        metrics, attempted = measure_fn(pkg, args, ops, manifest, rundir, failures)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for name, problem in failures:
        print(f"FAIL {name}: {problem}")
    fail_frac = len(failures) / attempted
    for name, (value, unit) in [*metrics.items(), ("fail_frac", (fail_frac, "ratio"))]:
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            import_package()
            workloads.write_inputs(args.workload, args.seed, args.setup_only)
            print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            return 0
        result = measure(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
