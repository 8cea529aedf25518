"""Each check passes on the program's output and rejects it perturbed past its tolerance.

    PYTHONPATH=src python3 -m pytest -q mapbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

import numpy as np
import pytest

import checks
from ddesim import (
    FullModelParams,
    GridSpec,
    build_full_model,
    build_liouvillian,
    concurrence,
    default_tau_max,
    extract_timescale,
    g2_trace,
    g2_zero,
    partial_trace,
    run_sweep,
    steady_state,
)

AXIS = np.linspace(-0.05, 0.05, 8)  # even, as in the workload: no delta0 = 0 row


def _fails(failures, fragment):
    return any(fragment in m for m in failures)


@pytest.fixture(scope="module")
def detuning():
    spec = GridSpec(("delta0", AXIS[0], AXIS[-1], AXIS.size),
                    ("delta1", AXIS[0], AXIS[-1], AXIS.size),
                    observables=("concurrence", "g2_zero"))
    rows = run_sweep(spec).rows
    conc = np.array([r.concurrence for r in rows]).reshape(AXIS.size, AXIS.size)
    g2 = np.array([r.g2_zero for r in rows]).reshape(AXIS.size, AXIS.size)
    return conc, g2


def _steady(p):
    h, jumps, layout = build_full_model(p)
    liou = build_liouvillian(h, jumps, layout)
    rho = steady_state(liou)
    return liou, rho, concurrence(partial_trace(rho, (0, 1))).value, g2_zero(liou, rho)


def test_detuning_map_passes(detuning):
    assert checks.detuning_map(AXIS, *detuning, failed=0) == []


def test_detuning_map_rejects_failed_cells(detuning):
    assert _fails(checks.detuning_map(AXIS, *detuning, failed=1), "failed cells")


def test_detuning_map_rejects_concurrence_above_one(detuning):
    conc, g2 = (m.copy() for m in detuning)
    conc[0, 0] = conc[0, 0] + 1.0 + 1e-6
    assert _fails(checks.detuning_map(AXIS, conc, g2, 0), "outside [0, 1]")


@pytest.mark.parametrize("which", [0, 1])
def test_detuning_map_rejects_asymmetry(detuning, which):
    maps = [m.copy() for m in detuning]
    maps[which][1, 2] += 2 * checks.SYMMETRY_TOL
    assert _fails(checks.detuning_map(AXIS, *maps, 0), "exchange symmetry")


def test_detuning_map_rejects_off_ridge_maximum(detuning):
    conc, g2 = (m.copy() for m in detuning)
    i, far = 1, 4  # delta0 = -0.036; delta1 = +0.007 is two steps off the ridge
    conc[i, far] = conc[far, i] = min(1.0, conc[i].max() + 1e-3)
    assert _fails(checks.detuning_map(AXIS, conc, g2, 0), "steps from delta1 = -delta0")


def test_detuning_map_rejects_weak_anticorrelation(detuning):
    conc, _ = detuning
    assert _fails(checks.detuning_map(AXIS, conc, conc.copy(), 0), "Pearson")


def test_detuning_map_rejects_entangled_bunched_cell(detuning):
    conc, g2 = (m.copy() for m in detuning)
    i, j = np.unravel_index(np.argmax(conc), conc.shape)
    assert conc[i, j] > checks.ENTANGLED_C
    g2[i, j] = g2[j, i] = checks.BRIGHT_G2
    assert _fails(checks.detuning_map(AXIS, conc, g2, 0), "with g2(0) >=")


def test_steady_observables_against_reference():
    p = FullModelParams(eta_a=0.15, n_max=3)
    _, _, c, g = _steady(p)
    assert checks.steady_observables(p, c, g) == []
    assert _fails(checks.steady_observables(p, c + 2 * checks.ORACLE_TOL, g),
                  "concurrence")
    assert _fails(checks.steady_observables(p, c, g - 2 * checks.ORACLE_TOL),
                  "g2(0)")


def test_timescale_against_reference():
    p = FullModelParams(eta0=0.05, eta1=0.08)
    liou, rho, _, _ = _steady(p)
    trace = g2_trace(liou, rho, default_tau_max(p))
    period = extract_timescale(trace, p.gamma_a_abs).period_native
    tau_max = trace.taus[-1]
    assert checks.timescale(p, trace.taus, period) == []
    shifted = 1.0 / (1.0 / period + 1.5 / tau_max)
    assert _fails(checks.timescale(p, trace.taus, shifted), "bins from the nearest dominant")


def test_truncation_ladder():
    rungs = [2, 3, 4]
    values = [_steady(FullModelParams(eta_a=0.3, n_max=n))[2:] for n in rungs]
    conc = [c for c, _ in values]
    g2 = [g for _, g in values]
    assert checks.truncation_ladder(rungs, conc, g2) == []
    grown = [conc[0], conc[1], conc[2] + 2 * abs(conc[1] - conc[0])]
    assert _fails(checks.truncation_ladder(rungs, grown, g2), "truncation change grows")
    assert _fails(checks.truncation_ladder(rungs, [1.0 + 1e-9, *conc[1:]], g2),
                  "outside [0, 1]")

