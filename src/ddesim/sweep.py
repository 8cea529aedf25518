"""Parameter-grid harness: 1-D and 2-D sweeps of steady-state observables.

Each grid cell independently builds the full model, solves for its steady
state, and evaluates the requested observables. Cells where the solve or
the correlation analysis fails numerically (observables.NUMERICAL_ERRORS)
are flagged with the error message and excluded from summary statistics,
never given fabricated values; any other exception propagates. Results
are collected in grid order, so output is identical for any worker count.
truncation_check repeats the steady-state observables of one cell at the
next boson truncation.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .liouvillian import build_liouvillian, steady_state
from .models import FullModelParams, build_full_model
from .observables import (
    DEFAULT_N_SAMPLES,
    NUMERICAL_ERRORS,
    concurrence,
    default_tau_max,
    extract_timescale,
    g2_trace,
    g2_zero,
)
from .operators import partial_trace

OBSERVABLE_NAMES = ("concurrence", "g2_zero", "timescale")

_SWEEPABLE = tuple(
    f.name for f in dataclasses.fields(FullModelParams)
    if f.type == "float" or isinstance(f.default, float))

MIN_VALID_CELLS = 9


@dataclass(frozen=True)
class GridSpec:
    """Sweep definition: one or two linear parameter axes over a base model.

    Each axis is (field name, min, max, n_points) with inclusive linear
    spacing; the field must be a float parameter of FullModelParams.
    observables selects what to evaluate per cell.
    """

    axis1: tuple[str, float, float, int]
    axis2: tuple[str, float, float, int] | None = None
    base: FullModelParams = FullModelParams()
    observables: tuple[str, ...] = ("concurrence",)

    def __post_init__(self):
        axes = (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)
        for name, lo, hi, n in axes:
            if name not in _SWEEPABLE:
                raise ValueError(
                    f"unknown sweep parameter {name!r}; choose from {_SWEEPABLE}")
            if n < 2:
                raise ValueError(f"axis over {name!r} needs n_points >= 2, got {n}")
            if not lo < hi:
                raise ValueError(f"axis over {name!r} needs min < max, got [{lo}, {hi}]")
        if self.axis2 is not None and self.axis2[0] == self.axis1[0]:
            raise ValueError(f"both axes sweep {self.axis1[0]!r}")
        if not self.observables:
            raise ValueError("at least one observable is required")
        for obs in self.observables:
            if obs not in OBSERVABLE_NAMES:
                raise ValueError(f"unknown observable {obs!r}; choose from {OBSERVABLE_NAMES}")

    def axis_values(self, which: int) -> np.ndarray:
        axis = self.axis1 if which == 0 else self.axis2
        if axis is None:
            raise ValueError("grid has no second axis")
        return np.linspace(axis[1], axis[2], axis[3])

    def cells(self) -> list[FullModelParams]:
        """Cell parameter sets in row-major (axis1 outer, axis2 inner) order."""
        out = []
        for v1 in self.axis_values(0):
            if self.axis2 is None:
                out.append(dataclasses.replace(self.base, **{self.axis1[0]: float(v1)}))
            else:
                for v2 in self.axis_values(1):
                    out.append(dataclasses.replace(
                        self.base,
                        **{self.axis1[0]: float(v1), self.axis2[0]: float(v2)}))
        return out


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
    n_max: int
    cell_seconds: tuple[float, ...]

    def valid_rows(self) -> list[CellResult]:
        return [r for r in self.rows if r.ok]


def _evaluate_cell(args: tuple[FullModelParams, tuple[str, ...], tuple[float, ...]]):
    params, observables, axis_values = args
    t0 = time.perf_counter()
    conc = g2z = period = error = None
    try:
        h, jumps, layout = build_full_model(params)
        liou = build_liouvillian(h, jumps, layout)
        rho_ss = steady_state(liou)
        if "concurrence" in observables:
            conc = concurrence(partial_trace(rho_ss, (0, 1))).value
        if "g2_zero" in observables:
            g2z = g2_zero(liou, rho_ss)
        if "timescale" in observables:
            trace = g2_trace(liou, rho_ss, default_tau_max(params), DEFAULT_N_SAMPLES)
            period = extract_timescale(trace, params.gamma_a_abs).period_native
    except NUMERICAL_ERRORS as exc:  # flagged, never fabricated
        error = f"{type(exc).__name__}: {exc}"
    cell = CellResult(axis_values=axis_values, concurrence=conc, g2_zero=g2z,
                      period_native=period, error=error)
    return cell, time.perf_counter() - t0


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid cell, serially or across processes.

    Collection order is the grid order for any worker count, so results do
    not depend on scheduling.
    """
    cells = spec.cells()
    if spec.axis2 is None:
        axis_vals = [(float(v),) for v in spec.axis_values(0)]
    else:
        axis_vals = [(float(v1), float(v2))
                     for v1 in spec.axis_values(0) for v2 in spec.axis_values(1)]
    jobs = [(p, spec.observables, av) for p, av in zip(cells, axis_vals)]

    if workers <= 1:
        outcomes = [_evaluate_cell(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_cell, jobs))

    rows = tuple(cell for cell, _ in outcomes)
    seconds = tuple(sec for _, sec in outcomes)
    return SweepResult(spec=spec, rows=rows, n_max=spec.base.n_max, cell_seconds=seconds)


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


def truncation_check(params: FullModelParams, n_max: int | None = None) -> float:
    """Boson-truncation convergence probe.

    Recomputes steady-state concurrence and zero-delay g2 at n_max and
    n_max + 1 and returns the largest absolute change. A decoupled boson
    (g0 = g1 = 0 with no boson drive) cannot influence the qubit
    observables, so the change is identically zero there.
    """
    if n_max is None:
        n_max = params.n_max
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if params.g0 == 0.0 and params.g1 == 0.0 and params.eta_a == 0.0:
        return 0.0

    def observables_at(nm: int) -> tuple[float, float]:
        liou = build_liouvillian(*build_full_model(dataclasses.replace(params, n_max=nm)))
        rho = steady_state(liou)
        return concurrence(partial_trace(rho, (0, 1))).value, g2_zero(liou, rho)

    c_lo, g_lo = observables_at(n_max)
    c_hi, g_hi = observables_at(n_max + 1)
    return max(abs(c_hi - c_lo), abs(g_hi - g_lo))
