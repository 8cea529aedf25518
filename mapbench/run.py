"""Map benchmark of ddesim: one workload, timed or traced.

    python3 mapbench/run.py --workload detuning-map --seed 1 --seconds 30 --trace 0

Run from the repository root. The run starts three fresh Python processes
one after another, each with BLAS pinned to one thread. Each takes its
set-up time, runs whole rounds of the workload for a third of the seconds,
and checks its outputs. The last stdout line is one JSON object:
    {"correct", "attempted", "failed", "metrics"}
With --trace 0 the metrics are the end-to-end ones (setup_s, cells_per_s,
peak_rss_mb). With --trace 1 they are the per-layer ones, taken from spans
around each layer's public calls. The lines before it are records: the
inputs, the environment, and each process's raw figures.

This file imports nothing beyond the standard library, so its own process
adds no BLAS threads and little memory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P95_MIN_CELLS = 200


def _benchmark() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_child(args, workdir: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--share", repr(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--workdir", workdir]
    env = dict(os.environ, **PINNED, PYTHONPATH=os.path.join(ROOT, "src"))
    # its own session, so that a timeout also stops its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _per_layer(children: list[dict], per_layer: list[dict]) -> dict[str, dict]:
    samples: dict[str, list[float]] = {}
    for child in children:
        for key, values in child["layers"].items():
            samples.setdefault(key, []).extend(values)
    samples["import.ddesim_s"] = [c["import_s"] for c in children]
    cells = sorted(samples.pop("cell_ms", []))
    values = {k: statistics.median(v) for k, v in samples.items()}
    if cells:
        values["cell.p50_ms"] = statistics.median(cells)
    if len(cells) >= P95_MIN_CELLS:
        values["cell.p95_ms"] = statistics.quantiles(cells, n=20)[-1]
    # 0 marks a layer call the workload does not make (or a p95 over too few cells)
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in per_layer}


def main() -> int:
    benchmark = _benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ddesim", "__init__.py")):
        print(f"no ddesim sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".mapbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        children = [_run_child(args, workdir, deadline) for _ in range(PROCESSES)]
        if args.trace:
            spans = []
            for name in sorted(os.listdir(workdir)):
                if name.startswith("spans-"):
                    with open(os.path.join(workdir, name)) as fh:
                        spans.extend(json.load(fh))
            with open(os.path.join(ROOT, ".mapbench_work",
                                   f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
                json.dump(spans, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = children[0]
    print("record inputs " + json.dumps(first["inputs"]))
    print("record environment " + json.dumps(first["environment"]))
    print("record output " + json.dumps(first["record"]))
    for k, child in enumerate(children):
        raw = {key: child[key] for key in ("setup_wall_s", "setup_cpu_s", "import_s",
                                           "rounds", "peak_rss_mb")}
        print(f"record process{k} " + json.dumps(raw))

    failures = [f for c in children for f in c["failures"]]
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    rounds = [r for c in children for r in c["rounds"]]
    attempted = sum(cells for cells, _ in rounds)
    failed = sum(c["failed"] for c in children)
    cells_per_s = statistics.median(cells / seconds for cells, seconds in rounds)
    if args.trace:
        print("record traced cells_per_s " + json.dumps(cells_per_s))
        metrics = _per_layer(children, benchmark["per_layer"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(c["setup_wall_s"] for c in children),
                        "unit": "s"},
            "cells_per_s": {"value": cells_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in children), "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
