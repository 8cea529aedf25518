"""The three workloads: inputs made from the seed, one timed round, the checks.

A run attempts whole rounds. Rounds repeat in a cycle of `cycle` distinct
rounds of equal work (one for a map), and a run completes at least one
cycle. Each workload object offers:

    workers         processes that evaluate cells
    cycle           distinct rounds in the cycle
    warm_up()       the untimed warm-up cell that completes set-up (or nothing)
    run_round(k)    timed round k; returns (cells attempted, output)
    failed(output)  failed cells of one round
    check(outputs)  failure messages for the outputs of one cycle
    record(outputs) what the run prints about them besides metrics

Imported only after the set-up phase has imported ddesim.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os

import numpy as np

import ddesim
from ddesim import FullModelParams, GridSpec
from ddesim.observables import DEFAULT_N_SAMPLES

import checks
import tracing

# no workload uses more processes than `nproc`, the CPUs this process may use
WORKERS = min(2, len(os.sched_getaffinity(0)))
ORACLE_CELLS = 3


def _cell_span(tracer, n_max):
    return tracer.span(tracing.CELL, tag=n_max) if tracer else contextlib.nullcontext()


# ddesim's functions are looked up on the package at each call, so that
# the traced run's wrappers see them
def _steady_pipeline(p: FullModelParams) -> tuple[float, float]:
    h, jumps, layout = ddesim.build_full_model(p)
    liou = ddesim.build_liouvillian(h, jumps, layout)
    rho = ddesim.steady_state(liou)
    return (ddesim.concurrence(ddesim.partial_trace(rho, (0, 1))).value,
            ddesim.g2_zero(liou, rho))


class DetuningMap:
    """`ddesim concurrence-map` over (delta0, delta1), through cli.main with a pool.

    The seed draws the common coupling g0 = g1 and drive eta0 = eta1 from
    [0.045, 0.055], and the oracle cells. The grid has an even number of
    points, so no row sits at delta0 = 0: there the drive reaches only the
    symmetric state, the anti-diagonal is a dip, and the row's maximum lies
    at the grid's edge or one step off, depending on the grid.
    """

    workers = WORKERS
    cycle = 1
    AXIS = (-0.05, 0.05, 8)

    def __init__(self, seed: int, workdir: str, tracer=None):
        rng = np.random.default_rng(seed)
        self.g, self.eta = (float(x) for x in rng.uniform(0.045, 0.055, 2))
        n = self.AXIS[2]
        self.oracle = sorted(int(k) for k in rng.choice(n * n, ORACLE_CELLS, replace=False))
        self.csv = os.path.join(workdir, "concurrence_map.csv")
        lo, hi, _ = self.AXIS
        sets = {"g0": self.g, "g1": self.g, "eta0": self.eta, "eta1": self.eta}
        for k, axis in ((1, "delta0"), (2, "delta1")):
            sets.update({f"axis{k}": axis, f"axis{k}_min": lo, f"axis{k}_max": hi,
                         f"axis{k}_points": n})
        self.argv = ["concurrence-map", "--workers", str(self.workers), "--out", self.csv]
        for key, value in sets.items():
            self.argv += ["--set", f"{key}={value}"]

    def inputs(self) -> dict:
        return {"grid": {"delta0": self.AXIS, "delta1": self.AXIS}, "g0=g1": self.g,
                "eta0=eta1": self.eta, "oracle_cells": self.oracle, "workers": self.workers}

    def warm_up(self):
        pass

    def run_round(self, k):
        code = ddesim.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"concurrence-map exited with {code}")
        with open(self.csv, "rb") as fh:
            data = fh.read()
        return self.AXIS[2] ** 2, data

    def _table(self, data: bytes):
        lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        failed = sum(1 for r in rows if r[4])
        n = self.AXIS[2]
        conc = np.array([float(r[2]) if r[2] else np.nan for r in rows]).reshape(n, n)
        g2 = np.array([float(r[3]) if r[3] else np.nan for r in rows]).reshape(n, n)
        return failed, conc, g2

    def failed(self, data: bytes) -> int:
        return self._table(data)[0]

    def check(self, outputs) -> list[str]:
        failed, conc, g2 = self._table(outputs[0])
        axis = np.linspace(*self.AXIS)
        out = checks.detuning_map(axis, conc, g2, failed)
        n = self.AXIS[2]
        for k in self.oracle:
            p = FullModelParams(delta0=float(axis[k // n]), delta1=float(axis[k % n]),
                                g0=self.g, g1=self.g, eta0=self.eta, eta1=self.eta)
            out += checks.steady_observables(p, conc.flat[k], g2.flat[k])
        return out

    def record(self, outputs) -> dict:
        return {"csv_sha256": hashlib.sha256(outputs[0]).hexdigest()}


class DriveTimescaleMap:
    """run_sweep over (eta0, eta1) with the timescale observable, one process.

    The seed draws each axis's ends, lower in [0.02, 0.025] and upper in
    [0.095, 0.1], and the oracle cells. The cost of g2_trace varies up to
    2.5-fold across the drive plane with the number of eigenmodes it keeps,
    so the grid spans nearly the same box on every seed. Drives of 0.01 or
    less reach overdamped or dark corners that fail by design, so the box
    starts at 0.02.
    """

    workers = 1
    cycle = 1
    POINTS = 4

    def __init__(self, seed: int, workdir: str, tracer=None):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.02, 0.025, 2)
        hi = rng.uniform(0.095, 0.1, 2)
        self.spec = GridSpec(axis1=("eta0", float(lo[0]), float(hi[0]), self.POINTS),
                             axis2=("eta1", float(lo[1]), float(hi[1]), self.POINTS),
                             observables=("timescale",))
        self.oracle = sorted(int(k) for k in rng.choice(self.POINTS ** 2, ORACLE_CELLS,
                                                        replace=False))

    def inputs(self) -> dict:
        return {"axis1": self.spec.axis1, "axis2": self.spec.axis2,
                "oracle_cells": self.oracle, "workers": self.workers}

    def warm_up(self):
        p = self.spec.cells()[0]
        h, jumps, layout = ddesim.build_full_model(p)
        liou = ddesim.build_liouvillian(h, jumps, layout)
        trace = ddesim.g2_trace(liou, ddesim.steady_state(liou), ddesim.default_tau_max(p),
                                DEFAULT_N_SAMPLES)
        ddesim.extract_timescale(trace, p.gamma_a_abs)

    def run_round(self, k):
        result = ddesim.run_sweep(self.spec, workers=self.workers)
        return len(result.rows), tuple((r.period_native, r.error) for r in result.rows)

    def failed(self, rows) -> int:
        return sum(1 for _, error in rows if error is not None)

    def check(self, outputs) -> list[str]:
        rows = outputs[0]
        out = [f"cell {k}: {error}" for k, (_, error) in enumerate(rows) if error]
        cells = self.spec.cells()
        for k in self.oracle:
            period = rows[k][0]
            if period is None:
                continue
            taus = np.linspace(0.0, ddesim.default_tau_max(cells[k]), DEFAULT_N_SAMPLES)
            out += [f"cell {k}: {m}" for m in checks.timescale(cells[k], taus, period)]
        return out

    def record(self, outputs) -> dict:
        return {"periods_native": [p for p, _ in outputs[0]]}


class TruncationLadder:
    """Steady-state pipeline at n_max = 2..5 on three points of the delta1 = -delta0 ridge.

    Round k climbs the ladder at point k mod 3, so a cycle is three rounds.
    The points have boson drive eta_a = 0, 0.15 and 0.3; the seed draws each
    point's delta0 from [0.005, 0.035]. Off the ridge, where C = 0, g2(0)
    can converge non-monotonically in n_max, so the points stay on it.
    """

    workers = 1
    RUNGS = (2, 3, 4, 5)
    ETA_A = (0.0, 0.15, 0.3)
    cycle = len(ETA_A)

    def __init__(self, seed: int, workdir: str, tracer=None):
        rng = np.random.default_rng(seed)
        self.points = [FullModelParams(delta0=float(d), delta1=-float(d), eta_a=ea)
                       for d, ea in zip(rng.uniform(0.005, 0.035, len(self.ETA_A)), self.ETA_A)]
        self.tracer = tracer

    def inputs(self) -> dict:
        return {"rungs": self.RUNGS, "points": [
            {"delta0": p.delta0, "delta1": p.delta1, "eta_a": p.eta_a} for p in self.points]}

    def warm_up(self):
        _steady_pipeline(self.points[0])

    def run_round(self, k):
        p = self.points[k % self.cycle]
        out = []
        for n_max in self.RUNGS:
            with _cell_span(self.tracer, n_max):
                out.append(_steady_pipeline(dataclasses.replace(p, n_max=n_max)))
        return len(out), tuple(out)

    def failed(self, values) -> int:
        return 0  # a failing cell raises and ends the run

    def check(self, outputs) -> list[str]:
        out = []
        for p, values in zip(self.points, outputs):
            conc = [c for c, _ in values]
            g2 = [g for _, g in values]
            for n_max, c, g in zip(self.RUNGS, conc, g2):
                out += checks.steady_observables(dataclasses.replace(p, n_max=n_max), c, g)
            if p.eta_a != 0.0:
                out += checks.truncation_ladder(list(self.RUNGS), conc, g2)
        return out

    def record(self, outputs) -> dict:
        return {"concurrence_g2": outputs}


WORKLOADS = {
    "detuning-map": DetuningMap,
    "drive-timescale-map": DriveTimescaleMap,
    "truncation-ladder": TruncationLadder,
}
