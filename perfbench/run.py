"""Benchmark of quditgates: one workload per run, closed loop, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

The package is imported from ``src`` of the checkout; without it the run
exits with code 2 before measuring anything.  BLAS runs single-threaded,
which also keeps the simplex pivot sequence, and so ``hull.lp.pivots``,
identical from run to run.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of twenty fresh interpreters that each
  import quditgates and generate the workload's inputs from the seed,
  half of them before the reps and half after;
- ``run_s``: median wall time of one rep, the fixed unit of work of the
  workload; reps repeat until ``--seconds`` have passed and every input
  set has run once;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs each rep twice, first with the span tracer of
``spans.py`` and then untraced, for ``--seconds`` (at least one pair), and
reports the per-layer metrics plus ``trace.overhead_s``, the median over
pairs of traced minus untraced time.

The ``lru_cache``s of the package's modules are emptied before every rep,
outside its time, so every rep does the same work from cold caches.

Every task is checked against references held in ``workloads.py``; the
failure fraction is ``failed / attempted``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details, including every span of a traced run, go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import functools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 20

SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))")


def import_package():
    """Import quditgates from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "quditgates" / "__init__.py").is_file():
        sys.stderr.write(f"no quditgates package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import quditgates
    if Path(quditgates.__file__).resolve().parent != SRC / "quditgates":
        sys.stderr.write(f"imported quditgates from {quditgates.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return quditgates


def setup_seconds(workload: str, seed: int, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing the package and making inputs.

    No timeout: with one, ``subprocess`` polls the child every 50 ms, which
    rounds the wall time to that step."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH),
                        workload, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def clear_caches(package) -> None:
    """Empty every ``lru_cache`` of the six modules."""
    for short in tracing.MODULES:
        for obj in vars(getattr(package, short)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def timed(run, reset) -> float:
    """Wall time of ``run()``, after ``reset()`` outside the timed part."""
    reset()
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def measure(rep, inputs, seconds, min_reps, tally, reset, tracer=None) -> list:
    """Run reps, cycling through ``inputs``, until ``seconds`` have passed and
    at least ``min_reps`` are done; returns the wall time of each rep.

    With a ``tracer`` every rep runs twice, traced and then untraced, and
    the result holds (traced, untraced) pairs of times."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_reps or time.perf_counter() < deadline:
        args = (inputs[len(times) % len(inputs)], tally)
        if tracer is None:
            times.append(timed(lambda: rep(*args), reset))
        else:
            times.append((timed(lambda: tracer.rep(rep, *args), reset),
                          timed(lambda: rep(*args), reset)))
    return times


def blas_runtime() -> dict:
    """Vendor string and thread count reported by the loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is None or config is None:
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def environment(args) -> dict:
    import numpy as np
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_runtime(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "cliff_lp_p5", "facet_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = import_package()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    rep = workloads.WORKLOADS[args.workload][1]
    tally = workloads.Tally()
    record = {"env": environment(args)}
    reset = functools.partial(clear_caches, package)

    if args.trace:
        tracer = tracing.Tracer(package)
        pairs = measure(rep, inputs, args.seconds, 1, tally, reset, tracer)
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
        units = {**tracing.METRICS, "trace.overhead_s": "s"}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layers.items()}
        record.update(traced_untraced_rep_s=pairs, spans=tracer.dump())
    else:
        half = SETUP_SAMPLES // 2
        setup = setup_seconds(args.workload, args.seed, half)
        times = measure(rep, inputs, args.seconds, len(inputs), tally, reset)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += setup_seconds(args.workload, args.seed, SETUP_SAMPLES - half)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record.update(setup_s=setup, rep_s=times)

    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    for problem in tally.problems:
        sys.stderr.write(problem.rstrip() + "\n")
    print("# env " + json.dumps(record["env"]))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} tasks)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
