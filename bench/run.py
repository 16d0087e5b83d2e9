"""leafwise benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a leafwise checkout; the package is imported from
./src.  With --trace 0 the named workload runs closed-loop (one client) for
S seconds and the end-to-end metrics are reported, every time scaled to a
nominal host speed that a reference task measures beside the ops (see
reference.py); the raw times are on the details line.  With --trace 1 the
traced per-module run is made instead: pairs of one untraced and one traced
op on the same inputs, one pair of each other op kind (the other workload
and the CLI sweep), then pairs of the named workload until S seconds have
passed.  It reports per-layer metrics per op of each kind, and the tracing
overhead.  The last line of stdout is the result object; the line before it
holds machine metadata and run details.  Every op is checked against its
reference; failures are counted, never fatal.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = min(2, os.cpu_count() or 1)
# must be set before numpy loads; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from sympy.core.cache import clear_cache  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from tracing import Tracer, traced_metrics  # noqa: E402
from workloads import TRACED, WORKLOADS, traced_op  # noqa: E402

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120.0


def load_leafwise():
    """Import leafwise from ROOT/src, never from anywhere else."""
    pkg = ROOT / "src" / "leafwise"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no leafwise sources at {pkg}; run from a leafwise checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import leafwise

    if Path(leafwise.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: leafwise was imported from {leafwise.__file__}, not {pkg}")
    return leafwise


def run_op(op) -> tuple[float, bool]:
    t0 = time.perf_counter()
    try:
        ok = bool(op())
    except Exception:  # a failed op is counted, the run goes on
        traceback.print_exc()
        ok = False
    return time.perf_counter() - t0, ok


def setup_seconds(name: str, seed: int, reference: Reference):
    """Times from interpreter start to a set-up workload, each sample in a
    fresh interpreter right after one run of the reference task.  Returns
    the set-up times and the reference times."""
    samples, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(reference())
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - t0)
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"bench: set-up of {name} failed (exit {child.returncode})")
    return samples, references


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float):
    reference = Reference()
    setup_s, references = setup_seconds(name, seed, reference)
    workload = WORKLOADS[name](ROOT, seed)
    workload.setup()
    durations, failed = [], 0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        references.append(reference())
        dt, ok = run_op(functools.partial(workload.op, workload.draw()))
        durations.append(dt)
        failed += not ok
    # every time scaled to a host where the reference task takes NOMINAL_S
    scale = NOMINAL_S / statistics.median(references)
    p50 = statistics.median(durations) * scale
    metrics = {
        "op_p50_s": p50,
        "throughput_ops_per_s": len(durations) / (sum(durations) * scale),
        "points_per_s": workload.points_per_op / p50,
        "setup_s": statistics.median(setup_s) * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"op_samples": len(durations), "op_s": durations, "setup_s": setup_s,
               "reference_s": references, "speed_scale": scale}
    return metrics, len(durations), failed, details


def traced_pairs(workload, tracer: Tracer, seconds: float) -> int:
    """Pairs of one untraced and one traced op on the same inputs: at least
    one pair, more while fewer than `seconds` have passed.  sympy's cache is
    cleared before each op, so the second of a pair does not reuse the
    first's expressions.  Returns the number of failed ops."""
    failed = 0
    start = time.perf_counter()
    while not tracer.calls["op.traced"] or time.perf_counter() - start < seconds:
        inputs = workload.draw()
        clear_cache()
        dt, ok = run_op(functools.partial(workload.op, inputs))
        clear_cache()
        dt_traced, ok_traced = run_op(functools.partial(traced_op, workload, inputs,
                                                        tracer))
        tracer.record("op.untraced", dt)
        tracer.record("op.traced", dt_traced)
        failed += (not ok) + (not ok_traced)
    return failed


def measure_traced(name: str, seed: int, seconds: float):
    """One pair of each op kind the named workload is not, then pairs of the
    named workload until `seconds` have passed."""
    kinds = {cls.name: cls(ROOT, seed) for cls in TRACED}
    for workload in kinds.values():
        workload.setup()
    tracers = {kind: Tracer() for kind in kinds}
    start = time.perf_counter()
    failed = sum(traced_pairs(workload, tracers[kind], 0.0)
                 for kind, workload in kinds.items() if kind != name)
    failed += traced_pairs(kinds[name], tracers[name],
                           seconds - (time.perf_counter() - start))
    pairs = {kind: tracer.calls["op.traced"] for kind, tracer in tracers.items()}
    metrics = traced_metrics({kind: tracer.summary() for kind, tracer in tracers.items()})
    return metrics, 2 * sum(pairs.values()), failed, {"op_pairs": pairs}


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_metadata() -> dict:
    import numpy
    import scipy
    import sympy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_leafwise()
    if args.setup_probe:
        WORKLOADS[args.workload](ROOT, args.seed).setup()
        print("ready", flush=True)
        return 0

    measure_run = measure_traced if args.trace else measure
    metrics, attempted, failed, details = measure_run(args.workload, args.seed,
                                                      args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "failed_op_ratio": failed / attempted,
                      "machine": machine_metadata(), **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
