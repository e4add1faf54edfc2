"""oacnet benchmark: closed-loop workloads, one JSON result line per run.

Run from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run and writes its spans to
`.bench_work/trace-<workload>-seed<seed>.json`. `--workload all` runs every
workload in its own process and prints one combined line. The library is
imported from `src/` next to this directory; without it the run exits 2.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("desk_train", "paper_train", "paper_eval")

# name -> unit, for each mode; BENCHMARK.json lists the same names.
END_TO_END = {
    "pairs_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_METRICS = {
    "pipeline.provider_calls": "count",
    "geometry.border_displacement_calls": "count",
    "correlation.oac_multiplies": "count",
    "correlation.useful_multiply_ratio": "ratio",
}
TRACE_METRICS = {
    "trace.untraced_pairs_per_s": "1/s",
    "trace.traced_pairs_per_s": "1/s",
    "trace.overhead_pct": "%",
}
# Fixed before numpy loads. On a shared 2-core machine two BLAS threads were
# no faster than one on any workload and spread step times far more, because
# one stalled thread holds up the other.
BLAS_THREADS = 1
# fresh-interpreter imports per run; setup_s counts their median
IMPORT_REPEATS = 5
# share of the run spent untraced before the wrappers go in (trace mode)
UNTRACED_SHARE = 1 / 3


def per_layer_units():
    import tracing

    units = {m: "ms" for m in (*tracing.INCLUSIVE_MS, *tracing.SELF_MS,
                               *tracing.SETUP_INCLUSIVE_MS)}
    units.update(COUNT_METRICS)
    units.update(TRACE_METRICS)
    return units


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def run_record(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def import_seconds():
    """Median time a fresh interpreter takes to import the library."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import oacnet.cli; print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run(name, seed, seconds, trace):
    """One run of one workload; returns (result dict, run record)."""
    import tracing
    import workloads

    record = run_record(seed)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    tracer = tracing.Tracer() if trace else None
    try:
        if tracer is not None:
            tracing.install(tracer)
        setup_s = []
        for _ in range(workloads.SETUP_REPEATS):
            workload = None  # drop the previous set-up before building the next
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            workload = workloads.build(name, seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.restore()

        if not trace:
            import_s = import_seconds()
            loop = workloads.Loop(workload).run(seconds)
            metrics = {
                "pairs_per_s": loop.pairs_per_s,
                "step_ms_p50": percentile(loop.step_ms, 50),
                "step_ms_p90": percentile(loop.step_ms, 90),
                "setup_s": import_s + statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            attempted, failed = loop.attempted, loop.failed
            print(f"{name}: {len(loop.step_ms)} timed steps of {workload.pairs_per_step} "
                  f"pair(s) in {loop.elapsed:.2f} s; setup {len(setup_s)}x "
                  f"(import {import_s:.3f} s, median of {IMPORT_REPEATS})")
        else:
            untraced = workloads.Loop(workload).run(seconds * UNTRACED_SHARE)
            tracing.install(tracer)
            try:
                traced = workloads.Loop(workload).run(seconds * (1 - UNTRACED_SHARE), tracer)
            finally:
                tracer.restore()
            metrics = tracing.summarize(tracer.spans, workload.pairs_per_step)
            issued = statistics.median(workload.issued_per_pair)
            metrics["correlation.oac_multiplies"] = issued
            metrics["correlation.useful_multiply_ratio"] = workload.useful_per_pair / issued
            metrics["trace.untraced_pairs_per_s"] = untraced.pairs_per_s
            metrics["trace.traced_pairs_per_s"] = traced.pairs_per_s
            metrics["trace.overhead_pct"] = (
                100.0 * (1.0 - traced.pairs_per_s / untraced.pairs_per_s)
                if untraced.pairs_per_s > 0 else 0.0)
            units = per_layer_units()
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            os.makedirs(WORK, exist_ok=True)
            trace_path = os.path.join(WORK, f"trace-{name}-seed{seed}.json")
            with open(trace_path, "w") as f:
                json.dump({"record": record, "workload": name,
                           "fields": ["name", "start", "end", "parent", "step"],
                           "spans": tracer.spans}, f)
            print(f"{name}: {len(traced.step_ms)} traced steps, {len(tracer.spans)} spans "
                  f"written to {os.path.relpath(trace_path, ROOT)}")
        checks = workload.run_checks()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    for check, ok in checks.items():
        print(f"check {check}: {'pass' if ok else 'FAIL'}")
    correct = failed == 0 and attempted > failed and all(checks.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return result, record


def run_all(args):
    """Each workload in a fresh process (so set-up and peak RSS are its own)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oacnet", "__init__.py")):
        print(f"error: oacnet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import oacnet

    if not os.path.abspath(oacnet.__file__).startswith(SRC + os.sep):
        print(f"error: imported oacnet from {oacnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print("record: " + json.dumps(record))
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
