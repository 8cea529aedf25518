"""Parameter-grid harness: 1-D and 2-D sweeps of steady-state observables.

Each grid cell evaluates its generator from the parameter-affine table of
its (n_max, relaxation_operator), built once per process
(full_model_liouvillian), solves for its steady state, and evaluates the
requested observables. Cells where the solve or the correlation analysis
raises a NumericalError are flagged with the error message and excluded
from summary statistics, never given fabricated values; any other
exception propagates. A process pool receives the cells in contiguous
chunks, about four per worker, but still evaluates each cell on its own;
results are collected in grid order, so output is identical for any worker
count. Before a pool starts, the parent builds every per-process table a
cell reads (the affine generator table of the spec's n_max and
relaxation_operator, which no axis can change, and the per-layout index
and observable operators), so that forked workers inherit them instead of
each rebuilding them on its first cell. truncation_check repeats the
steady-state observables of one cell at the next boson truncation.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .liouvillian import NumericalError, steady_state
from .models import _FLOAT_FIELDS, FullModelParams, _affine_generator, full_model_liouvillian
from .observables import (
    DEFAULT_N_SAMPLES,
    _emission_operators,
    concurrence,
    default_tau_max,
    extract_timescale,
    g2_trace,
    g2_zero,
)
from .operators import partial_trace, qubit_pair_boson_layout

OBSERVABLE_NAMES = ("concurrence", "g2_zero", "timescale")

MIN_VALID_CELLS = 9


@dataclass(frozen=True)
class GridSpec:
    """Sweep definition: one or two linear parameter axes over a base model.

    Each axis is (field name, min, max, n_points) with inclusive linear
    spacing; the field must be a float parameter of FullModelParams, and
    the base model must be valid at both ends of each axis. observables
    selects what to evaluate per cell.
    """

    axis1: tuple[str, float, float, int]
    axis2: tuple[str, float, float, int] | None = None
    base: FullModelParams = FullModelParams()
    observables: tuple[str, ...] = ("concurrence",)

    def __post_init__(self):
        for name, lo, hi, n in self.axes:
            if name not in _FLOAT_FIELDS:
                raise ValueError(
                    f"unknown sweep parameter {name!r}; choose from {_FLOAT_FIELDS}")
            if n < 2:
                raise ValueError(f"axis over {name!r} needs n_points >= 2, got {n}")
            if not lo < hi:
                raise ValueError(f"axis over {name!r} needs min < max, got [{lo}, {hi}]")
            for end in (lo, hi):  # FullModelParams rejects an out-of-range end
                dataclasses.replace(self.base, **{name: float(end)})
        if self.axis2 is not None and self.axis2[0] == self.axis1[0]:
            raise ValueError(f"both axes sweep {self.axis1[0]!r}")
        if not self.observables:
            raise ValueError("at least one observable is required")
        for obs in self.observables:
            if obs not in OBSERVABLE_NAMES:
                raise ValueError(f"unknown observable {obs!r}; choose from {OBSERVABLE_NAMES}")

    @property
    def axes(self) -> tuple[tuple[str, float, float, int], ...]:
        return (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)

    def axis_values(self, which: int) -> np.ndarray:
        """Points of axis 0 (axis1) or axis 1 (axis2); any other index raises ValueError."""
        if not 0 <= which < len(self.axes):
            raise ValueError(f"grid has no axis {which}; it has {len(self.axes)}")
        _, lo, hi, n = self.axes[which]
        return np.linspace(lo, hi, n)

    def cells(self) -> list[FullModelParams]:
        """Cell parameter sets in row-major (axis1 outer, axis2 inner) order."""
        names = [axis[0] for axis in self.axes]
        values = [self.axis_values(k).tolist() for k in range(len(names))]
        return [dataclasses.replace(self.base, **dict(zip(names, point)))
                for point in itertools.product(*values)]


@dataclass(frozen=True)
class CellResult:
    """Observables at one grid point; error is set instead when a step failed."""

    axis_values: tuple[float, ...]
    concurrence: float | None = None
    g2_zero: float | None = None
    period_native: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepResult:
    """All cell results in grid order plus run metadata.

    rows are deterministic for a given spec; cell_seconds carries per-cell
    wall-clock and is the only non-reproducible part.
    """

    spec: GridSpec
    rows: tuple[CellResult, ...]
    cell_seconds: tuple[float, ...]

    def valid_rows(self) -> list[CellResult]:
        return [r for r in self.rows if r.ok]


def _evaluate_cell(args: tuple[FullModelParams, tuple[str, ...], tuple[float, ...]]):
    params, observables, axis_values = args
    t0 = time.perf_counter()
    conc = g2z = period = error = None
    try:
        liou = full_model_liouvillian(params)
        rho_ss = steady_state(liou)
        if "concurrence" in observables:
            conc = concurrence(partial_trace(rho_ss, (0, 1))).value
        if "g2_zero" in observables:
            g2z = g2_zero(liou, rho_ss)
        if "timescale" in observables:
            trace = g2_trace(liou, rho_ss, default_tau_max(params), DEFAULT_N_SAMPLES)
            period = extract_timescale(trace, params.gamma_a_abs).period_native
    except NumericalError as exc:  # flagged, never fabricated
        error = f"{type(exc).__name__}: {exc}"
    cell = CellResult(axis_values=axis_values, concurrence=conc, g2_zero=g2z,
                      period_native=period, error=error)
    return cell, time.perf_counter() - t0


def _build_cell_tables(base: FullModelParams) -> None:
    """Build the cached tables every cell with this base reads.

    n_max and relaxation_operator are not sweepable, so all cells share the
    affine generator table (whose build also caches the layout's Hermitian
    index) and the layout's emission-operator table of g2(0) and g2(tau).
    """
    _affine_generator(base.n_max, base.relaxation_operator)
    _emission_operators(qubit_pair_boson_layout(base.n_max))


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid cell, serially or across processes.

    A pool hands out contiguous chunks of len(cells) // (4 workers) cells,
    at least one, and starts no more processes than there are chunks.
    Before it starts, the parent builds the cached tables the cells read.
    On Linux the workers are forked, so they inherit those tables
    copy-on-write rather than each building them on its first cell; other
    platforms keep their default start method. A serial sweep builds the
    tables on its first cell. Collection order is the grid order for any
    worker count, so results do not depend on scheduling.
    """
    jobs = [(p, spec.observables, tuple(getattr(p, axis[0]) for axis in spec.axes))
            for p in spec.cells()]

    if workers <= 1:
        outcomes = [_evaluate_cell(j) for j in jobs]
    else:
        chunksize = max(1, len(jobs) // (4 * workers))
        chunks = -(-len(jobs) // chunksize)
        _build_cell_tables(spec.base)
        context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
        with ProcessPoolExecutor(max_workers=min(workers, chunks), mp_context=context) as pool:
            outcomes = list(pool.map(_evaluate_cell, jobs, chunksize=chunksize))

    rows = tuple(cell for cell, _ in outcomes)
    seconds = tuple(sec for _, sec in outcomes)
    return SweepResult(spec=spec, rows=rows, cell_seconds=seconds)


def correlation_stats(result: SweepResult) -> float:
    """Pearson correlation between g2(0) and concurrence over valid cells."""
    pairs = [(r.g2_zero, r.concurrence) for r in result.valid_rows()
             if r.g2_zero is not None and r.concurrence is not None]
    if len(pairs) < MIN_VALID_CELLS:
        raise ValueError(
            f"insufficient valid cells: {len(pairs)} < {MIN_VALID_CELLS} carry "
            "both g2_zero and concurrence")
    g2 = np.array([p[0] for p in pairs])
    conc = np.array([p[1] for p in pairs])
    if np.std(g2) == 0 or np.std(conc) == 0:
        raise ValueError("correlation undefined: an observable column has zero variance")
    return float(np.corrcoef(g2, conc)[0, 1])


def truncation_check(params: FullModelParams) -> float:
    """Boson-truncation convergence probe.

    Recomputes steady-state concurrence and zero-delay g2 at params.n_max
    and params.n_max + 1 and returns the largest absolute change. Every
    point takes the same path; a decoupled boson (g0 = g1 = 0 with no
    boson drive) gives a change at roundoff level.
    """
    def observables_at(nm: int) -> tuple[float, float]:
        liou = full_model_liouvillian(dataclasses.replace(params, n_max=nm))
        rho = steady_state(liou)
        return concurrence(partial_trace(rho, (0, 1))).value, g2_zero(liou, rho)

    c_lo, g_lo = observables_at(params.n_max)
    c_hi, g_hi = observables_at(params.n_max + 1)
    return max(abs(c_hi - c_lo), abs(g_hi - g_lo))
