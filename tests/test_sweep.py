"""Tests for the parameter-grid sweep harness and its summary statistics."""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from ddesim import (
    DarkEmitterError,
    FullModelParams,
    GridSpec,
    NumericalError,
    SweepResult,
    build_full_model,
    build_liouvillian,
    concurrence,
    correlation_stats,
    full_model_liouvillian,
    g2_zero,
    partial_trace,
    run_sweep,
    steady_state,
)
import ddesim
import ddesim.cli
import ddesim.liouvillian
import ddesim.models
import ddesim.observables
import ddesim.sweep
from ddesim.liouvillian import Liouvillian, _band_of, _bordered_kernel, _steady_states
from ddesim.sweep import CellResult, _evaluate_cell

# where workers are forked they inherit the test's monkeypatches
FORKED = sys.platform == "linux"


def small_grid_spec(observables=("concurrence",)):
    return GridSpec(
        axis1=("delta0", -0.02, 0.02, 3),
        axis2=("delta1", -0.02, 0.02, 3),
        base=FullModelParams(),
        observables=observables,
    )


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(axis1=("coupling", 0.0, 1.0, 5))
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 0.0, 1.0, 1))
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 1.0, 0.0, 5))
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 0.0, 1.0, 3), axis2=("delta0", 0.0, 1.0, 3))
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 0.0, 1.0, 3), observables=())
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 0.0, 1.0, 3), observables=("fidelity",))
    # the base model must be valid at both ends of every axis
    with pytest.raises(ValueError, match="gamma_r0"):
        GridSpec(axis1=("gamma_r0", -1e-3, 1e-3, 3))
    with pytest.raises(ValueError, match="gamma_a_abs"):
        GridSpec(axis1=("delta0", 0.0, 1.0, 3), axis2=("gamma_a_abs", 0.0, 1e12, 3))


def test_grid_cells_row_major_order():
    spec = GridSpec(axis1=("delta0", 0.0, 1.0, 2), axis2=("delta1", 0.0, 1.0, 3))
    v1, v2 = spec.axis_values(0), spec.axis_values(1)
    assert np.allclose(v1, [0.0, 1.0])
    assert np.allclose(v2, [0.0, 0.5, 1.0])
    cells = spec.cells()
    assert len(cells) == 6
    for i in range(2):
        for j in range(3):
            cell = cells[i * 3 + j]
            assert cell.delta0 == v1[i]
            assert cell.delta1 == v2[j]
    with pytest.raises(ValueError):
        GridSpec(axis1=("delta0", 0.0, 1.0, 2)).axis_values(1)


def test_axis_values_rejects_an_index_that_names_no_axis():
    spec = GridSpec(axis1=("delta0", 0.0, 1.0, 2), axis2=("delta1", 0.0, 1.0, 3))
    for which in (2, 7, -1):
        with pytest.raises(ValueError, match=f"grid has no axis {which}"):
            spec.axis_values(which)


def test_failed_cells_are_flagged_not_fabricated():
    # gamma_r0 = 0 with no other qubit-0 dissipation leaves a driven
    # undamped sector and no unique steady state; the next point is fine
    spec = GridSpec(
        axis1=("gamma_r0", 0.0, 1e-3, 2),
        base=FullModelParams(g0=0.0, gamma_d0=0.0),
        observables=("concurrence",),
    )
    result = run_sweep(spec)
    assert len(result.rows) == 2
    bad, good = result.rows
    assert not bad.ok
    assert "DegenerateSteadyStateError" in bad.error
    assert bad.concurrence is None
    assert good.ok
    assert good.concurrence is not None
    assert result.valid_rows() == [good]


def test_only_numerical_failures_become_error_cells(monkeypatch):
    spec = GridSpec(axis1=("delta0", -0.01, 0.01, 2), observables=("concurrence",))

    # each cell's LU is the first step of its steady state
    def failing_with(exc):
        def bordered_kernel(liou):
            raise exc
        return bordered_kernel

    monkeypatch.setattr("ddesim.sweep._bordered_kernel", failing_with(NumericalError("drift")))
    for workers in (1, 2) if FORKED else (1,):
        rows = run_sweep(spec, workers=workers).rows
        assert [r.error for r in rows] == ["NumericalError: drift"] * 2
    monkeypatch.setattr("ddesim.sweep._bordered_kernel",
                        failing_with(DarkEmitterError("both emitters dark")))
    rows = run_sweep(spec).rows
    assert [r.error for r in rows] == ["DarkEmitterError: both emitters dark"] * 2
    for bug in (TypeError("bug"), ValueError("bug")):
        monkeypatch.setattr("ddesim.sweep._bordered_kernel", failing_with(bug))
        for workers in (1, 2) if FORKED else (1,):
            with pytest.raises(type(bug), match="bug"):
                run_sweep(spec, workers=workers)


def test_near_dark_emitter_is_flagged_or_resolved():
    # qubit 1 is decoupled, so rho is a product state and g2(0) is exactly
    # 0.5 while both emitters are bright. On eta1 = k * 1e-9, k = 1..30,
    # <n_1> runs from 8.1e-15 to 7.2e-12. k = 1 is dark (below DARK_TOL) and
    # carries the single-emitter value <n_1> / (<n_0> + <n_1>) ~ 1.6e-14; the
    # rest lie under WEIGHT_FLOOR, where the roundoff of rho leaves g2(0)
    # off by up to 2e-3 and the post-jump states fail the positivity check
    base = FullModelParams(g1=0.0, gamma_r1=1e-2, gamma_d1=0.0)
    observables = ("concurrence", "g2_zero")
    rows = run_sweep(GridSpec(axis1=("eta1", 1e-9, 3e-8, 30), base=base,
                              observables=observables)).rows
    assert {1e-9, 3e-9, 1e-8, 3e-8} <= {round(r.axis_values[0], 18) for r in rows}
    dark, *near_dark = rows
    assert dark.ok and dark.g2_zero < 1e-12
    for row in near_dark:
        if row.ok:
            assert abs(row.g2_zero - 0.5) <= 1e-6, row
        else:
            assert issubclass(getattr(ddesim, row.error.split(":")[0]), NumericalError), row
    resolved = run_sweep(GridSpec(axis1=("eta1", 1e-6, 2e-6, 2), base=base,
                                  observables=observables)).rows
    assert all(r.ok and abs(r.g2_zero - 0.5) <= 1e-6 for r in resolved), resolved


def test_cell_never_builds_the_complex_superoperator(monkeypatch):
    # every cell path reads the real generator; the complex superoperator
    # is a derived view for oracles only
    def forbidden(self):
        raise AssertionError("cell path read Liouvillian.superop")

    monkeypatch.setattr(Liouvillian, "superop", property(forbidden))
    cell, _ = _evaluate_cell((FullModelParams(), ("concurrence", "g2_zero", "timescale"), ()))
    assert cell.ok
    assert None not in (cell.concurrence, cell.g2_zero, cell.period_native)


def test_cell_checks_its_steady_state_once(monkeypatch):
    # steady_state checks the residual; the observables take its result as
    # solved and do not check it again
    def forbidden(*args):
        raise AssertionError("residual recomputed")

    monkeypatch.setattr(ddesim.observables, "steady_state_residual", forbidden)
    cell, _ = _evaluate_cell((FullModelParams(), ("concurrence", "g2_zero", "timescale"), ()))
    assert cell.ok


def test_failed_cell_keeps_the_values_before_the_failure():
    # undriven: the concurrence is 0, and g2(0) has no bright emitter
    cell, _ = _evaluate_cell((FullModelParams(eta0=0.0, eta1=0.0), ("concurrence", "g2_zero"), ()))
    assert (cell.concurrence, cell.g2_zero) == (0.0, None)
    assert cell.error.startswith("DarkEmitterError")


def test_cell_builds_no_model(monkeypatch):
    # a cell evaluates the cached parameter-affine generator; the table is
    # built once per (n_max, relaxation_operator), here before the patch
    params = FullModelParams()
    full_model_liouvillian(params)

    def forbidden(*args, **kwargs):
        raise AssertionError("cell path built the model")

    for module in (ddesim.models, ddesim.liouvillian, ddesim.sweep):
        for name in ("build_full_model", "build_liouvillian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    cell, _ = _evaluate_cell((params, ("concurrence", "g2_zero", "timescale"), ()))
    assert cell.ok
    assert None not in (cell.concurrence, cell.g2_zero, cell.period_native)


def test_sweep_rows_independent_of_worker_count():
    # 9 and 25 cells at 2 workers are strided shares of unequal length; at
    # 64 workers each cell has a process of its own
    for points in (3, 5):
        spec = GridSpec(axis1=("delta0", -0.02, 0.02, points),
                        axis2=("delta1", -0.02, 0.02, points),
                        observables=("concurrence", "g2_zero"))
        serial = run_sweep(spec, workers=1)
        assert len(serial.rows) == len(serial.cell_seconds) == points ** 2
        assert all(r.ok for r in serial.rows)
        for workers in (2, 3, 64):
            parallel = run_sweep(spec, workers=workers)
            assert parallel.rows == serial.rows, (points, workers)
            assert len(parallel.cell_seconds) == points ** 2


def single_cell_row(p):
    """(C, g2(0), error) of one cell by the public single-cell chain."""
    values, error = [], None
    try:
        rho = steady_state(full_model_liouvillian(p))
        values.append(concurrence(partial_trace(rho, (0, 1))).value)
        values.append(g2_zero(rho.liouvillian, rho))
    except NumericalError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return (*values, None, None)[:2] + (error,)


def test_batch_rows_are_bitwise_the_single_cell_chain_across_band_plans():
    # delta0 = 0 and eta1 = 0 each change the generator's nonzero pattern,
    # so one batch of the nine cells holds four band plans
    spec = GridSpec(axis1=("delta0", -0.02, 0.02, 3), axis2=("eta1", 0.0, 0.1, 3),
                    observables=("concurrence", "g2_zero"))
    cells = spec.cells()
    assert len({id(_band_of(full_model_liouvillian(p))) for p in cells}) == 4
    rows = run_sweep(spec).rows
    assert all(row.ok for row in rows)
    assert [(r.concurrence, r.g2_zero, r.error) for r in rows] == [
        single_cell_row(p) for p in cells]


# the six eta1 = 0 cells of a qubit 1 without decay or coupling have no
# unique steady state; a drive of 1e-6 leaves the faint emitter of
# test_faint_emitter_under_the_resolved_floor_is_flagged below its floor
FLAGGED_GRIDS = {
    "degenerate": (GridSpec(axis1=("eta0", 0.0, 0.1, 3), axis2=("eta1", 0.0, 0.1, 3),
                            base=FullModelParams(g1=0.0, gamma_r1=0.0),
                            observables=("concurrence", "g2_zero")),
                   ["DegenerateSteadyStateError"] + [None] * 2),
    "faint": (GridSpec(axis1=("eta1", 0.0, 1e-6, 2), base=FullModelParams(
        delta0=-0.0918, delta1=0.00725, delta_a=0.2596, g0=0.0966, g1=0.0, eta0=0.0186,
        eta_a=0.2828, gamma_r0=6.68e-9, gamma_r1=3.15e-9, gamma_d1=2.34e-9, n_max=3),
        observables=("concurrence", "g2_zero")), [None, "FaintEmitterError"]),
}


@pytest.mark.parametrize("name", FLAGGED_GRIDS)
def test_a_failing_cell_flags_only_itself_in_any_share(name):
    # each cell's row is the single-cell chain's: the failing cell has its
    # class and message and keeps its concurrence, and its neighbours,
    # evaluated in the same batch, their bits; at 1, 2 and 3 workers
    spec, flags = FLAGGED_GRIDS[name]
    cells = spec.cells()
    want = [single_cell_row(p) for p in cells]
    errors = [None if e is None else e.split(":")[0] for _, _, e in want]
    assert errors == flags * (len(cells) // len(flags))
    for workers in (1, 2, 3) if FORKED else (1,):
        rows = run_sweep(spec, workers=workers).rows
        assert [(r.concurrence, r.g2_zero, r.error) for r in rows] == want, workers


def test_each_cell_of_a_batch_takes_its_own_resolved_floor():
    # the faint emitter's floor is eps / rcond of its own solve, 3.6e-6; the
    # well-conditioned cell before it in the batch has a far lower one
    faint = FLAGGED_GRIDS["faint"][0].cells()[1]
    params = [FullModelParams(n_max=faint.n_max), faint]
    values, errors, _ = ddesim.sweep._observe(params, ("concurrence", "g2_zero"))
    rows = [(*v[:2], e and f"{type(e).__name__}: {e}") for v, e in zip(values, errors)]
    assert rows == [single_cell_row(p) for p in params]
    assert rows[1][2].startswith("FaintEmitterError")


def test_cell_seconds_include_an_equal_share_of_the_batch(monkeypatch):
    # the batch's stacked passes, here slowed to 0.2 s, are split evenly
    # over its four cells
    stacked = ddesim.sweep._pair_concurrences

    def slow(*args):
        time.sleep(0.2)
        return stacked(*args)

    monkeypatch.setattr(ddesim.sweep, "_pair_concurrences", slow)
    seconds = run_sweep(GridSpec(axis1=("delta0", -0.01, 0.01, 4))).cell_seconds
    assert all(0.05 <= s < 0.1 for s in seconds), seconds


def test_steady_state_is_bitwise_its_batch_entry():
    # steady_state is the batch's chain with a stack of one
    ls = [full_model_liouvillian(p) for p in GridSpec(
        axis1=("delta0", -0.02, 0.02, 3), axis2=("eta1", 0.0, 0.1, 3)).cells()]
    c, rconds = zip(*(_bordered_kernel(l) for l in ls))
    batch = _steady_states(ls, np.stack(c), rconds)
    for l, entry in zip(ls, batch):
        alone = steady_state(l)
        assert entry.liouvillian is alone.liouvillian is l
        assert np.array_equal(entry.matrix, alone.matrix)
        assert (entry.rcond, entry.residual) == (alone.rcond, alone.residual)


def test_sweep_rejects_a_worker_count_that_is_not_a_positive_integer():
    spec = GridSpec(axis1=("delta0", -0.02, 0.02, 2))
    for workers in (0, -2, True, 2.5, "2", None):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            run_sweep(spec, workers=workers)
    assert len(run_sweep(spec, workers=np.int64(1)).rows) == 2


def test_grid_spec_rejects_a_point_count_that_is_not_an_integer():
    for n in (3.0, 2.5, "3", True, None):
        with pytest.raises(ValueError, match="integer n_points"):
            GridSpec(axis1=("delta0", 0.0, 1.0, n))
    assert len(GridSpec(axis1=("delta0", 0.0, 1.0, np.int64(3))).cells()) == 3


forked = pytest.mark.skipif(not FORKED, reason="needs forked workers")


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cell_index(job):
    """Grid index of a job of the axis delta0 = 0, 0.01, 0.02, ..."""
    return round(job[0].delta0 * 100)


def _index_grid(cells):
    return GridSpec(axis1=("delta0", 0.0, 0.01 * (cells - 1), cells))


@forked
@pytest.mark.parametrize("cells, workers", [(3, 64), (2, 64), (64, 2), (25, 2), (7, 3)])
def test_fan_out_starts_one_process_per_worker_and_strides_the_cells(
        monkeypatch, cells, workers):
    # each cell reports the process that evaluated it, and whether the
    # generator table was already cached there; the cache is cleared first,
    # so only the parent's build before the fork can have filled it
    def report(jobs):
        cached = ddesim.models._affine_generator.cache_info().currsize > 0
        return [((_cell_index(job), os.getpid(), cached), 0.0) for job in jobs]

    monkeypatch.setattr(ddesim.sweep, "_evaluate_cells", report)
    methods, started = [], []
    real_get_context = multiprocessing.get_context
    fork_context = real_get_context("fork")

    class CountingProcess(fork_context.Process):
        def start(self):
            started.append(self)
            super().start()

    def recording_get_context(method=None):
        methods.append(method)
        return real_get_context(method)

    monkeypatch.setattr(fork_context, "Process", CountingProcess)
    monkeypatch.setattr(ddesim.sweep.multiprocessing, "get_context", recording_get_context)
    ddesim.models._affine_generator.cache_clear()
    with deadline(60):
        rows = run_sweep(_index_grid(cells), workers=workers).rows
    assert [index for index, _, _ in rows] == list(range(cells))
    pids = [pid for _, pid, _ in rows]
    n = min(workers, cells)
    assert len(started) == len(set(pids)) == n and os.getpid() not in pids
    assert pids == [pids[k % n] for k in range(cells)]  # worker w evaluates cells[w::n]
    assert all(cached for _, _, cached in rows)
    assert methods == ["fork"]
    assert multiprocessing.active_children() == []


@forked
@pytest.mark.parametrize("bug", [KeyError("bug"), ZeroDivisionError("bug"),
                                 KeyboardInterrupt()])
def test_fan_out_raises_a_worker_exception_with_its_class(monkeypatch, bug):
    # the failing cell is in the second worker's share; the first finishes
    def evaluate(jobs):
        for job in jobs:
            if _cell_index(job) == 3:
                raise bug
        return [(_cell_index(job), 0.0) for job in jobs]

    monkeypatch.setattr(ddesim.sweep, "_evaluate_cells", evaluate)
    with deadline(60), pytest.raises(type(bug)) as raised:
        run_sweep(_index_grid(6), workers=2)
    # the worker's own traceback is kept as the cause
    assert isinstance(raised.value.__cause__, ddesim.sweep.WorkerTraceback)
    assert "in evaluate" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


class Odd(Exception):
    """An exception whose class cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@forked
def test_fan_out_reports_an_exception_that_cannot_be_sent_back(monkeypatch):
    # unpickling Odd calls Odd("1/2") and fails; sent as it is, it would
    # end in that TypeError in the parent, without the worker's traceback,
    # so the worker sends a RuntimeError that names the class and message
    def solve(liouvillian):
        raise Odd(1, 2)

    monkeypatch.setattr(ddesim.sweep, "_bordered_kernel", solve)
    with deadline(60), pytest.raises(RuntimeError, match=rf"^{Odd.__module__}\.Odd: 1/2$") as raised:
        run_sweep(small_grid_spec(), workers=2)
    assert isinstance(raised.value.__cause__, ddesim.sweep.WorkerTraceback)
    assert "in solve" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


@forked
def test_fan_out_raises_when_a_worker_dies_and_stops_the_others(monkeypatch):
    # worker 0 of 2 dies on its second cell while worker 1 is still on its
    # first; run_sweep must raise at once, not wait for worker 1, and leave
    # no process behind
    def evaluate(jobs):
        for job in jobs:
            if _cell_index(job) == 2:
                os._exit(7)
            if _cell_index(job) == 1:
                time.sleep(120)
        return [(_cell_index(job), 0.0) for job in jobs]

    monkeypatch.setattr(ddesim.sweep, "_evaluate_cells", evaluate)
    with deadline(60), pytest.raises(RuntimeError, match="worker 0 exited with code 7"):
        run_sweep(_index_grid(6), workers=2)
    assert multiprocessing.active_children() == []


def _cache_misses() -> dict[str, int]:
    """Misses of every functools.lru_cache in ddesim's modules, by qualified name."""
    misses = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "ddesim" or module_name.startswith("ddesim."):
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and obj.__module__ == module_name:
                    misses[f"{module_name}.{name}"] = obj.cache_info().misses
    return misses


def test_parent_build_leaves_cells_no_cache_miss():
    # every table a cell reads is built before a pool starts; a cache left
    # out of that build would be rebuilt by each worker on its first cell
    params = FullModelParams(n_max=3)
    ddesim.sweep._build_cell_tables(params)
    before = _cache_misses()
    assert before, "no caches found"
    cell, _ = _evaluate_cell((params, ("concurrence", "g2_zero", "timescale"), ()))
    assert cell.ok
    assert _cache_misses() == before


def test_parent_build_includes_the_band_plan_of_a_banded_solve():
    # from n_max 4 the steady state reads a band plan cached per nonzero
    # pattern; cells with the base's pattern find it built
    params = FullModelParams(n_max=5, eta_a=0.1)
    ddesim.sweep._build_cell_tables(params)
    before = _cache_misses()
    assert before["ddesim.liouvillian._band_plan"] >= 1
    cell, _ = _evaluate_cell((dataclasses.replace(params, eta0=0.06),
                              ("concurrence", "g2_zero"), ()))
    assert cell.ok
    assert _cache_misses() == before


def test_cli_default_workers_are_the_usable_cpus(monkeypatch, tmp_path):
    seen = []

    def recording_sweep(spec, workers=1):
        seen.append(workers)
        return SweepResult(spec=spec, rows=(), cell_seconds=())

    monkeypatch.setattr(ddesim.cli, "run_sweep", recording_sweep)
    monkeypatch.setattr(ddesim.cli.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert ddesim.cli.main(["concurrence-map", "--out", str(tmp_path / "m.csv")]) == 0
    monkeypatch.delattr(ddesim.cli.os, "sched_getaffinity")
    monkeypatch.setattr(ddesim.cli.os, "cpu_count", lambda: 7)
    assert ddesim.cli.main(["concurrence-map", "--out", str(tmp_path / "m.csv")]) == 0
    assert ddesim.cli.main(["concurrence-map", "--workers", "2",
                            "--out", str(tmp_path / "m.csv")]) == 0
    assert seen == [3, 7, 2]


def test_sweep_concurrence_map_exchange_symmetric():
    spec = small_grid_spec()
    conc = np.array([r.concurrence for r in run_sweep(spec).rows]).reshape(3, 3)
    swapped = GridSpec(
        axis1=("delta1", -0.02, 0.02, 3),
        axis2=("delta0", -0.02, 0.02, 3),
        base=spec.base.swapped_qubits(),
        observables=("concurrence",),
    )
    conc_sw = np.array([r.concurrence for r in run_sweep(swapped).rows]).reshape(3, 3)
    assert np.max(np.abs(conc_sw - conc.T)) < 1e-8


def test_sweep_timescale_observable():
    spec = GridSpec(
        axis1=("eta1", 0.028, 0.032, 2),
        base=FullModelParams(eta0=0.03),
        observables=("timescale",),
    )
    result = run_sweep(spec)
    for row in result.rows:
        assert row.ok
        assert row.period_native is not None and row.period_native > 0
        assert row.concurrence is None and row.g2_zero is None


def fabricated_result(pairs, n_flagged=0):
    spec = GridSpec(axis1=("delta0", -1.0, 1.0, 2),
                    observables=("concurrence", "g2_zero"))
    rows = [CellResult(axis_values=(float(i),), concurrence=c, g2_zero=g)
            for i, (g, c) in enumerate(pairs)]
    rows += [CellResult(axis_values=(9.0 + i,), error="NumericalError: synthetic")
             for i in range(n_flagged)]
    return SweepResult(spec=spec, rows=tuple(rows), cell_seconds=tuple(0.0 for _ in rows))


def test_correlation_stats_anticorrelated_grid():
    x = np.linspace(0.0, 1.0, 12)
    result = fabricated_result(list(zip(x, 1.0 - x)), n_flagged=3)
    assert correlation_stats(result) == pytest.approx(-1.0)


def test_correlation_stats_requires_enough_cells():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="insufficient"):
        correlation_stats(fabricated_result(list(zip(x, 1.0 - x))))


def test_correlation_stats_rejects_zero_variance():
    x = np.linspace(0.0, 1.0, 12)
    with pytest.raises(ValueError, match="variance"):
        correlation_stats(fabricated_result([(g, 0.5) for g in x]))


@pytest.mark.parametrize("n_max", [2, 5], ids=["dense", "banded"])
def test_steady_state_cells_never_build_the_dense_generator(monkeypatch, n_max):
    # the solve, its residual and the band plan read the stored entries;
    # only propagation and the oracles need the dense d^2 x d^2 view
    def forbidden(self):
        raise AssertionError("dense generator built")

    monkeypatch.setattr(Liouvillian, "generator", property(forbidden))
    p = FullModelParams(n_max=n_max)
    cell, _ = _evaluate_cell((p, ("concurrence", "g2_zero"), ()))
    assert cell.ok and None not in (cell.concurrence, cell.g2_zero)
    assert steady_state(build_liouvillian(*build_full_model(p))).residual < 1e-10
