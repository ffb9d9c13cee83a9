#!/usr/bin/env python3
"""Benchmark for the xtf pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # all four workloads, one process each

A workload run builds its inputs from the seed (set-up, repeated
SETUP_REPEATS times), then runs its operation in a closed loop for about
S seconds, checks the outputs, writes bench/results/<workload>-s<N>-t<T>.json
and prints one JSON object as its last line. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced units
(one set-up plus one operation each) and reports the per-layer metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("twin_arm", "score_filter", "long_context_train", "theory_lab")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def closed_loop(seconds: float, unit):
    """Call `unit()` back to back; each call returns the time it measured.
    A new call starts only while the time left exceeds half the median call
    so far, so a run overshoots `seconds` by at most about half a call.
    Always makes at least one call."""
    start = time.perf_counter()
    measured, calls = [], []
    while True:
        t = time.perf_counter()
        measured.append(unit())
        calls.append(time.perf_counter() - t)
        if time.perf_counter() - start + 0.5 * median(calls) >= seconds:
            return measured


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "commit": None,
    }
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = _blas_threads()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            facts["commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return facts


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_workload(args) -> int:
    # One BLAS thread unless the caller chose otherwise: at these shapes a
    # second OpenBLAS thread is no faster, spins a whole core, and on a
    # shared 2-core machine now and then stalls a call several-fold.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    t_import = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        from xtf import model, numerics
        import oracles
        import speed
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program or the benchmark: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if Path(model.__file__).resolve().parent != SRC / "xtf":
        print(f"bench: imported xtf from {model.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    scratch = RESULTS / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    failures: list[str] = []  # check failures: the run is not correct
    op_errors: list[str] = []  # operations that raised: counted in `failed`
    outputs = []  # the first output only; later ones are compared and dropped
    done = failed = 0

    def timed_op():
        """One operation; returns (seconds, output), output None if it raised."""
        nonlocal failed
        t = time.perf_counter()
        try:
            out = wl.op()
        except Exception as exc:  # an operation that raises is a failed operation
            failed += 1
            op_errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t, None
        return time.perf_counter() - t, out

    def keep(out) -> None:
        nonlocal done
        if out is None:
            return
        done += 1
        if not outputs:
            outputs.append(out)
        elif not wl.same(outputs[0], out):
            failures.append(f"operation {done} did not reproduce the first one bitwise")

    def timed_setup() -> float:
        t = time.perf_counter()
        digests.append(wl.setup())
        return time.perf_counter() - t

    def record_op() -> float:
        elapsed, out = timed_op()
        keep(out)
        calibrations.append(speed.calibrate())
        return elapsed

    def pair() -> float:
        """One untraced unit (set-up plus operation), then one traced unit."""
        setup_s = timed_setup()
        op_s, out = timed_op()
        keep(out)
        untraced = setup_s + op_s
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.span("bench.setup"):
                setup_s = timed_setup()
            with tr.span("bench.op"):
                op_s, out = timed_op()
        finally:
            tr.uninstall()
        keep(out)
        units_traced.append(tr)
        overheads.append(setup_s + op_s - untraced)
        return untraced + setup_s + op_s

    digests: list[str] = []
    setup_times: list[float] = []
    op_times: list[float] = []
    calibrations: list[float] = []
    wall: dict[str, float] = {}
    try:
        if args.trace:
            units_traced: list = []
            overheads: list[float] = []
            closed_loop(args.seconds, pair)
            metrics = tracing.median_metrics([tracing.derive(tr.spans) for tr in units_traced])
            metrics["trace.overhead_s"] = median(overheads)
            metrics.update(tracing.op_microbench(numerics, model))
            with open(RESULTS / f"{args.workload}-s{args.seed}-spans.jsonl", "w", encoding="utf-8") as fh:
                for i, tr in enumerate(units_traced):
                    tr.write(fh, i)
        else:
            setup_times = [timed_setup() for _ in range(SETUP_REPEATS)]
            calibrations.append(speed.calibrate())
            op_times = closed_loop(args.seconds, record_op)
            metrics = {}
        if len(set(digests)) != 1:
            failures.append("set-up is not reproducible: inputs differ between set-ups")
        if outputs:
            try:
                wl.check_first(outputs[0])
            except oracles.CheckFailure as exc:
                failures.append(str(exc))
            if not args.trace:
                work = wl.work(outputs[0]) * done  # every operation does the same work
                ref_times = speed.at_reference_speed(op_times, calibrations)
                metrics = {
                    "setup_s": import_s + median(setup_times),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "op_ref_s": median(ref_times),
                    "work_per_ref_s": work / sum(ref_times),
                }
                wall = {wl.op_alias: median(op_times), wl.work_alias: work / sum(op_times)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        failures.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    attempted = done + failed
    correct = not failures and bool(outputs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall": wall,
        "work_unit": wl.work_unit,
        "samples": {"import_s": import_s, "setup_s": setup_times, "op_s": op_times, "calibration_s": calibrations},
        "failures": failures,
        "op_errors": op_errors,
        "machine": machine_facts(),
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    for msg in failures:
        print(f"CHECK FAILED [{args.workload}]: {msg}", file=sys.stderr)
    for msg in op_errors:
        print(f"OPERATION FAILED [{args.workload}]: {msg}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted} operations, {failed} failed, correct={correct}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    for name, value in wall.items():
        print(f"  {name} = {value:.6g} (wall clock; work unit: {wl.work_unit})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            try:
                summary[name] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = 1
    print(json.dumps({"workloads": summary, "correct": status == 0 and len(summary) == len(WORKLOAD_NAMES)}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xtf" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'xtf'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
