"""One fresh benchmark process: set-up, timed rounds, checks.

Run by run.py, never by hand. It times the set-up phase (the fresh import
of ddesim, then the workload's untimed warm-up cell), runs whole rounds of
the workload until its share of the run's seconds is used, takes its peak
memory, then checks every round's output. Its last stdout line is a JSON
summary.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

MAPBENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(MAPBENCH), "src")
# the module whose fresh import is a workload's set-up; ddesim otherwise
SETUP_IMPORT = {"detuning-map": "ddesim.cli"}


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    wall0, cpu0 = time.perf_counter(), time.process_time()
    __import__(SETUP_IMPORT.get(args.workload, "ddesim"))
    import_wall = time.perf_counter() - wall0
    import_cpu = time.process_time() - cpu0

    import ddesim

    if not os.path.abspath(ddesim.__file__).startswith(SRC + os.sep):
        print(f"ddesim imported from {ddesim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    workload.warm_up()
    setup_wall = import_wall + time.perf_counter() - wall1
    setup_cpu = import_cpu + time.process_time() - cpu1

    if tracer:
        tracing.instrument(tracer)
    rounds, outputs = [], []
    start = time.perf_counter()
    while len(rounds) < workload.cycle or time.perf_counter() - start + statistics.median(
            s for _, s in rounds) <= args.share:
        t = time.perf_counter()
        cells, output = workload.run_round(len(rounds))
        rounds.append((cells, time.perf_counter() - t))
        outputs.append(output)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    cycle = outputs[:workload.cycle]
    failures = workload.check(cycle)
    failures += [f"round {k} output differs from round {k % workload.cycle}"
                 for k, out in enumerate(outputs) if out != cycle[k % workload.cycle]]
    summary = {
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "import_s": import_wall,
        "rounds": rounds,
        "failed": sum(workload.failed(out) for out in outputs),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "failures": failures,
        "inputs": workload.inputs(),
        "record": workload.record(cycle),
        "environment": _environment(),
    }
    if tracer:
        with open(os.path.join(args.workdir, f"spans-{os.getpid()}.json"), "w") as fh:
            json.dump(tracer.spans, fh)
        summary["layers"] = tracing.layer_samples(tracer.spans, workload.workers)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
