"""Print the sha256 of every reference output of `python -m ddesim`, one run per line.

Usage: python3 tools/output_hashes.py [--root CHECKOUT]

Runs each reference command of the "same outputs" contract from the
sources under CHECKOUT/src (default: the checkout this script lives in),
in a fresh temporary directory, with OPENBLAS_NUM_THREADS=1 (2 for
cut-21-threads2, which must hash as cut-21) and PYTHONPATH=src, and prints
`name exit_code sha256` per run: the sha256 of the CSV for a data command,
of the standard output for `validate`. Two checkouts give the same outputs
when they print the same lines. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

CUT = ("concurrence-map", "--set", "axis1=delta0", "--set", "axis1_min=-0.05",
       "--set", "axis1_max=0.05", "--set", "axis1_points=21")
# a 6 x 6 concurrence map over the drives, where the settings after it flag cells
DRIVES_6 = ("concurrence-map", "--set", "axis1=eta0", "--set", "axis1_min=0",
            "--set", "axis1_max=0.1", "--set", "axis1_points=6",
            "--set", "axis2=eta1", "--set", "axis2_min=0",
            "--set", "axis2_max=0.1", "--set", "axis2_points=6")
# ILL_CONDITIONED of tests/test_observables.py: emitter 1 is dark, the LU near-degenerate
ILL_CONDITIONED = ("--set", "delta0=-0.0918", "--set", "delta1=0.00725", "--set", "delta_a=0.2596",
                   "--set", "g0=0.0966", "--set", "g1=0.0", "--set", "eta0=0.0186",
                   "--set", "eta1=0.0", "--set", "eta_a=0.2828", "--set", "gamma_r0=6.68e-9",
                   "--set", "gamma_r1=3.15e-9", "--set", "gamma_d1=2.34e-9", "--set", "n_max=3")
# name, arguments after `python -m ddesim`; every data command writes out.csv
RUNS = (
    ("cut-21", CUT),
    ("cut-21-threads2", CUT),
    ("cut-21-nmax3", (*CUT, "--set", "n_max=3")),
    ("cut-21-nmax5", (*CUT, "--set", "n_max=5")),
    ("concurrence-map", ("concurrence-map",)),
    # the eta0 = eta1 = 0 cell: DarkEmitterError after its concurrence
    ("drives-6-dark", (*DRIVES_6, "--set", "g1=0")),
    # the six eta1 = 0 cells: DegenerateSteadyStateError
    ("drives-6-degenerate", (*DRIVES_6, "--set", "g1=0", "--set", "gamma_r1=0")),
    # cell 0 (eta1 = 1e-6): FaintEmitterError; cells 1-3: g2(0) = 0.5
    ("cut-faint", ("concurrence-map", *ILL_CONDITIONED, "--set", "axis1=eta1",
                   "--set", "axis1_min=1e-6", "--set", "axis1_max=1e-2",
                   "--set", "axis1_points=4")),
    # FaintEmitterError: exit 2, no CSV
    ("g2-faint", ("g2", *ILL_CONDITIONED, "--set", "eta1=1e-6")),
    ("steady", ("steady",)),
    ("g2", ("g2",)),
    ("g2-delta0.02", ("g2", "--set", "delta0=0.02", "--set", "delta1=-0.02")),
    ("populations", ("populations",)),
    ("timescale-map-11", ("timescale-map", "--set", "axis1=eta0", "--set", "axis1_min=0",
                          "--set", "axis1_max=0.1", "--set", "axis1_points=11",
                          "--set", "axis2=eta1", "--set", "axis2_min=0",
                          "--set", "axis2_max=0.1", "--set", "axis2_points=11")),
    ("validate", ("validate",)),
)
# map workers: two keep the runs small, and a map's CSV does not depend on the count
WORKERS = "2"
# OPENBLAS_NUM_THREADS of the runs that do not take 1
THREADS = {"cut-21-threads2": "2"}


def run(root: str, name: str, args: tuple[str, ...]) -> tuple[int, str]:
    """Exit code of one command and the sha256 of its CSV, or of its stdout for validate."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS.get(name, "1"),
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    with tempfile.TemporaryDirectory(prefix=f"ddesim-{name}-") as work:
        argv = [sys.executable, "-m", "ddesim", *args]
        if args[0] != "validate":
            argv += ["--out", "out.csv"]
        if args[0].endswith("-map"):
            argv += ["--workers", WORKERS]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        data = proc.stdout
        if args[0] != "validate":
            try:
                with open(os.path.join(work, "out.csv"), "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:  # a failed run: its exit code tells
                data = b""
    return proc.returncode, hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose src/ is run (default: this one)")
    root = parser.parse_args(argv).root
    if not os.path.isfile(os.path.join(root, "src", "ddesim", "__init__.py")):
        print(f"no ddesim sources under {root}/src", file=sys.stderr)
        return 1
    for name, args in RUNS:
        code, digest = run(root, name, args)
        print(name, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
