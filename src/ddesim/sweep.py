"""Parameter-grid harness: 1-D and 2-D sweeps of steady-state observables.

Each grid cell evaluates its generator from the parameter-affine table of
its (n_max, relaxation_operator), built once per process
(full_model_liouvillian), solves for its steady state, and evaluates the
requested observables on the SteadyState without checking it again. Cells
are evaluated in batches (_observe): each cell's generator and LU run one
by one, and the residuals and state checks, the reduced states, their
concurrences and g2(0) run once per batch on stacked arrays, through the
same code as steady_state, partial_trace, concurrence and g2_zero, which
are batches of one. That chain also serves validate and truncation_check,
which runs one cell's concurrence and g2(0) at its boson truncation and
the next. Cells where the solve or the correlation analysis raises a
NumericalError are flagged with the error message and excluded from
summary statistics, never given fabricated values; any other exception
propagates. A parallel sweep forks one process per worker, at most one per
cell, and gives worker w of n the strided share cells[w::n]; each worker
evaluates its share in batches and sends all its (cell, seconds) pairs
back as one message, and the parent
puts them back in grid order, so output is identical for any worker count.
Before the workers start, the parent builds every per-process table a cell
reads (the affine generator table of the spec's n_max and
relaxation_operator, which no axis can change, and the per-layout index and
observable operators), so that forked workers inherit them instead of each
rebuilding them on its first cell. Each worker sets the OpenBLAS copies
that numpy and scipy bundle to one thread before its first cell
(pin_blas_threads), so that n workers use n cores, not n times the
default thread count, on any start method and whatever the caller's
threading; the caller's process keeps its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import itertools
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .liouvillian import NumericalError, _band_of, _bordered_kernel, _steady_states
from .models import _FLOAT_FIELDS, FullModelParams, full_model_liouvillian
from .observables import (
    DEFAULT_N_SAMPLES,
    _emission_operators,
    _g2_zeros,
    _pair_concurrences,
    default_tau_max,
    extract_timescale,
    g2_trace,
)
from .operators import _is_integer, qubit_pair_boson_layout

OBSERVABLE_NAMES = ("concurrence", "g2_zero", "timescale")

MIN_VALID_CELLS = 9
# cells observed together (_evaluate_cells). At n_max 2 a cell took 0.27 to
# 0.29 ms in batches of 32, 0.29 to 0.30 in 16, 0.72 alone, and no less in
# 64; a batch holds each cell's generator and state, about 20 kB at n_max 2
# and 80 kB at n_max 5, so a serial map does not hold every cell at once
_BATCH_CELLS = 32


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
            if not _is_integer(n) or n < 2:
                raise ValueError(f"axis over {name!r} needs an integer n_points >= 2, got {n!r}")
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


def _observe(params: list[FullModelParams], observables) -> tuple[list, list, np.ndarray]:
    """Values, NumericalError (or None) and seconds of each cell of a batch, in order.

    The params share n_max and relaxation_operator, so their generators share
    one table. A cell's values are [C, g2(0), FFT period], None where not
    requested or not reached: a NumericalError flags only its own cell,
    which keeps the values computed before it. Per cell run the generator,
    its LU (_bordered_kernel) and the timescale's g2_trace; once for the
    batch run the residuals and state checks (_steady_states), the reduced
    states and their concurrences, and g2(0). A cell's seconds are its own
    work plus an equal share of the batch's.
    """
    n = len(params)
    values, errors, seconds = [[None] * 3 for _ in params], [None] * n, np.zeros(n)
    ls, kernels = [], {}
    for k, p in enumerate(params):
        start = time.perf_counter()
        ls.append(full_model_liouvillian(p))
        try:
            kernels[k] = _bordered_kernel(ls[k])
        except NumericalError as exc:  # flagged, never fabricated
            errors[k] = exc
        seconds[k] += time.perf_counter() - start

    start = time.perf_counter()
    states = {}
    if kernels:
        c, rconds = zip(*kernels.values())
        for k, state in zip(kernels, _steady_states([ls[k] for k in kernels], np.stack(c),
                                                    rconds)):
            if isinstance(state, NumericalError):
                errors[k] = state
            else:
                states[k] = state
    if states:
        matrices = np.stack([state.matrix for state in states.values()])
        if "concurrence" in observables:
            for k, value in zip(states, _pair_concurrences(matrices, ls[0].layout.dims)):
                values[k][0] = float(value)
        if "g2_zero" in observables:
            for k, value in zip(states, _g2_zeros(list(states.values()), matrices)):
                if isinstance(value, NumericalError):
                    errors[k] = value
                else:
                    values[k][1] = value
    seconds += (time.perf_counter() - start) / n

    if "timescale" in observables:
        for k, state in states.items():
            if errors[k] is None:
                start = time.perf_counter()
                try:
                    trace = g2_trace(ls[k], state, default_tau_max(params[k]), DEFAULT_N_SAMPLES)
                    values[k][2] = extract_timescale(trace, params[k].gamma_a_abs).period_native
                except NumericalError as exc:
                    errors[k] = exc
                seconds[k] += time.perf_counter() - start
    return values, errors, seconds


def _evaluate_cells(jobs: list) -> list[tuple[CellResult, float]]:
    """The (cell, seconds) of each job of one spec, in order, observed _BATCH_CELLS at a time."""
    out = []
    for first in range(0, len(jobs), _BATCH_CELLS):
        batch = jobs[first:first + _BATCH_CELLS]
        values, errors, seconds = _observe([p for p, _, _ in batch], batch[0][1])
        out += [(CellResult(axis_values, *v, error=e and f"{type(e).__name__}: {e}"), float(s))
                for (_, _, axis_values), v, e, s in zip(batch, values, errors, seconds)]
    return out


def _observe_or_raise(params: list[FullModelParams], observables) -> list[list]:
    """The values of _observe, raising the first NumericalError of a cell instead."""
    values, errors, _ = _observe(params, observables)
    for error in errors:
        if error is not None:
            raise error
    return values


def _evaluate_cell(args: tuple[FullModelParams, tuple[str, ...], tuple[float, ...]]):
    """The (cell, seconds) of one job: a batch of one."""
    return _evaluate_cells([args])[0]


def _build_cell_tables(base: FullModelParams) -> None:
    """Build the cached tables every cell with this base reads.

    n_max and relaxation_operator are not sweepable, so all cells share the
    affine generator table, built by the base's full_model_liouvillian
    (which also caches the layout's Hermitian index, and leaves up to eight
    of the table's scatter structures in build_liouvillian's cache, 0.13 MB
    at n_max 2), and the layout's emission-operator table of g2(0) and
    g2(tau). Cells whose generator has the nonzero pattern of the base's
    also share its steady-state band plan.
    """
    _emission_operators(qubit_pair_boson_layout(base.n_max))
    _band_of(full_model_liouvillian(base))


class WorkerTraceback(Exception):
    """The formatted traceback of an exception that a sweep worker raised.

    run_sweep re-raises the worker's exception from one of these, so the
    report shows where in the worker it was raised.
    """


# the suffix of the thread setter and getter that the OpenBLAS bundled in
# <package>.libs, beside each package's directory, exports, and their types
_BUNDLED_BLAS = {"numpy": "64_", "scipy": ""}
_SET_THREADS, _GET_THREADS = ctypes.CFUNCTYPE(None, ctypes.c_int), ctypes.CFUNCTYPE(ctypes.c_int)


def pin_blas_threads() -> dict:
    """Set the bundled OpenBLAS of numpy and of scipy to one thread, where loaded.

    Each library is reached with ctypes only if this process has already
    loaded it (RTLD_NOLOAD), as importing this package does, and set
    through its own exported setter. Returns the thread count each reports
    afterwards, None for one not found or without the functions, which
    keeps its threading, and whether both read 1. A thread count can move
    the last printed digit of an output, and n processes at the default
    count oversubscribe the cores.
    """
    threads = dict.fromkeys(_BUNDLED_BLAS)
    for package, suffix in _BUNDLED_BLAS.items():
        for path in glob.glob(sys.modules[package].__path__[0] + ".libs/libscipy_openblas*"):
            with contextlib.suppress(OSError, AttributeError):
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                _SET_THREADS((f"scipy_openblas_set_num_threads{suffix}", lib))(1)
                threads[package] = _GET_THREADS((f"scipy_openblas_get_num_threads{suffix}", lib))()
    return {"threads": threads, "pinned": all(n == 1 for n in threads.values())}


def _run_share(sender, jobs) -> None:
    """Worker body: evaluate jobs in order and send their (cell, seconds) pairs as one message.

    Any exception, interrupts included, is sent in place of the list with
    its formatted traceback, and the parent re-raises it. An exception that
    does not survive a pickle round trip (a class whose constructor cannot
    be called with its args, say) would fail in the parent's receive and
    lose the traceback; a RuntimeError naming its class and message is sent
    in its place. _evaluate_cells is looked up at call time, so a
    replacement of it in the parent also runs here. The worker first pins
    its BLAS to one thread.
    """
    pin_blas_threads()
    try:
        message = _evaluate_cells(jobs)
    except BaseException as exc:
        message = exc, traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            name = f"{type(exc).__module__}.{type(exc).__qualname__}"
            message = RuntimeError(f"{name}: {exc}"), message[1]
    sender.send(message)


def _fan_out(jobs: list, workers: int) -> list:
    """Evaluate jobs across min(workers, len(jobs)) processes, returning them in grid order.

    Worker w of n receives jobs[w::n] as a Process argument, inherited
    rather than pickled where the processes are forked, and answers on its
    own one-way Pipe. A worker that exits without answering raises a
    RuntimeError naming its exit code. On any error the workers still alive
    are terminated; every worker is joined before this returns or raises.
    """
    n = min(workers, len(jobs))
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    outcomes = [None] * len(jobs)
    started = []
    try:
        for w in range(n):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_run_share, args=(sender, jobs[w::n]))
            process.start()
            started.append((process, receiver))
            # the worker now holds the only write end, so its exit ends our read
            sender.close()
        for w, (process, receiver) in enumerate(started):
            try:
                share = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"sweep worker {w} exited with code {process.exitcode} "
                                   "before sending its cells") from None
            if isinstance(share, tuple):
                exc, text = share
                raise exc from WorkerTraceback(text)
            outcomes[w::n] = share
    except BaseException:
        for process, _ in started:
            process.terminate()
        raise
    finally:
        for process, receiver in started:
            process.join()
            receiver.close()
    return outcomes


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid cell, in this process or across forked processes.

    workers must be a positive integer. With one, the cells run here and the
    first builds the cached tables. With more, the parent builds those
    tables and _fan_out evaluates the cells in min(workers, cells)
    processes; on Linux they are forked and inherit the tables copy-on-write
    instead of each building them on its first cell, and other platforms
    keep their default start method. Rows come back in grid order for any
    worker count. A NumericalError flags its cell; any other exception, in a
    worker too, propagates with its class, or as a RuntimeError naming it
    where a worker cannot pickle it back.
    """
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    jobs = [(p, spec.observables, tuple(getattr(p, axis[0]) for axis in spec.axes))
            for p in spec.cells()]

    if workers == 1:
        outcomes = _evaluate_cells(jobs)
    else:
        _build_cell_tables(spec.base)
        outcomes = _fan_out(jobs, workers)

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
    and params.n_max + 1, each by a cell's chain, and returns the largest
    absolute change. A decoupled boson (g0 = g1 = 0 with no boson drive)
    gives a change at roundoff level.
    """
    lo, hi = (_observe_or_raise([dataclasses.replace(params, n_max=nm)],
                                ("concurrence", "g2_zero"))[0][:2]
              for nm in (params.n_max, params.n_max + 1))
    return max(abs(b - a) for a, b in zip(lo, hi))
