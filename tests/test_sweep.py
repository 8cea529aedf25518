"""Tests for the parameter-grid sweep harness and its summary statistics."""

import dataclasses
import sys

import numpy as np
import pytest

from ddesim import (
    DarkEmitterError,
    FullModelParams,
    GridSpec,
    NumericalError,
    SweepResult,
    correlation_stats,
    full_model_liouvillian,
    run_sweep,
)
import ddesim
import ddesim.cli
import ddesim.liouvillian
import ddesim.models
import ddesim.observables
import ddesim.sweep
from ddesim.liouvillian import Liouvillian
from ddesim.sweep import CellResult, _evaluate_cell


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

    def failing_with(exc):
        def steady_state(liou):
            raise exc
        return steady_state

    monkeypatch.setattr("ddesim.sweep.steady_state", failing_with(NumericalError("drift")))
    rows = run_sweep(spec).rows
    assert [r.error for r in rows] == ["NumericalError: drift"] * 2
    monkeypatch.setattr("ddesim.sweep.steady_state",
                        failing_with(DarkEmitterError("both emitters dark")))
    rows = run_sweep(spec).rows
    assert [r.error for r in rows] == ["DarkEmitterError: both emitters dark"] * 2
    for bug in (TypeError("bug"), ValueError("bug")):
        monkeypatch.setattr("ddesim.sweep.steady_state", failing_with(bug))
        with pytest.raises(type(bug), match="bug"):
            run_sweep(spec)


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
    # 25 cells at 2 workers are chunks of 3, the last one short
    for points in (3, 5):
        spec = GridSpec(axis1=("delta0", -0.02, 0.02, points),
                        axis2=("delta1", -0.02, 0.02, points),
                        observables=("concurrence", "g2_zero"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == points ** 2
        assert len(serial.cell_seconds) == points ** 2
        assert all(r.ok for r in serial.rows)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, starts no process.

    It also records whether the affine generator table of the default model
    was already cached when the pool was made, that is, before any worker
    could have started.
    """

    created = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers = max_workers
        self.mp_context = mp_context
        self.chunksize = None
        misses = ddesim.models._affine_generator.cache_info().misses
        ddesim.models._affine_generator(FullModelParams().n_max,
                                        FullModelParams().relaxation_operator)
        self.table_was_cached = ddesim.models._affine_generator.cache_info().misses == misses
        RecordingPool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        self.chunksize = chunksize
        return map(fn, jobs)


@pytest.mark.parametrize("cells, workers, processes, chunksize", [
    (3, 64, 3, 1),     # no more processes than chunks
    (64, 2, 2, 8),     # four chunks per worker
    (25, 2, 2, 3),
    (2, 64, 2, 1),
])
def test_pool_processes_capped_at_chunks(monkeypatch, cells, workers, processes, chunksize):
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(ddesim.sweep, "ProcessPoolExecutor", RecordingPool)
    # start cold, so that only the parent-side build can fill the table
    ddesim.models._affine_generator.cache_clear()
    spec = GridSpec(axis1=("delta0", -0.02, 0.02, cells))
    rows = run_sweep(spec, workers=workers).rows
    assert len(rows) == cells
    [pool] = RecordingPool.created
    assert (pool.max_workers, pool.chunksize) == (processes, chunksize)
    assert pool.table_was_cached
    # forked workers inherit the parent's tables; elsewhere the default stays
    if sys.platform == "linux":
        assert pool.mp_context.get_start_method() == "fork"
    else:
        assert pool.mp_context is None


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
