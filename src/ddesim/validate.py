"""Fast self-contained invariant battery behind the `validate` subcommand.

Every check is seeded and runs in at most a few seconds; together they
exercise the operator algebra, the master-equation assembly, steady-state
contracts, the concurrence oracles, the closed-form population formulas,
and the correlation pipeline, whose g2(0) and g2(tau) samples are held to
post-jump states propagated one delay at a time. The model checks run on
the generator every command uses, full_model_liouvillian's
parameter-affine table; the steady-state check holds that table, summed
from the build_liouvillian of thirteen fixed models, to the direct assembly
build_liouvillian(*build_full_model(p)) at random points, which checks that
the generator is affine in the parameters, and holds the banded, refined
steady-state solve at n_max 5 to bordered_oracle, a dense LU of the same
generator. Each check reports ok/FAIL; any failure makes the battery fail
as a whole.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from .liouvillian import (
    RCOND_TOL,
    DegenerateSteadyStateError,
    JumpTerm,
    _block_length,
    _hermitian_vec,
    build_liouvillian,
    evolve,
    steady_state,
    unvec,
    vec,
)
from .models import (
    FullModelParams,
    adiabatic_eliminate,
    analytic_populations,
    build_effective_model,
    build_full_model,
    closed_form_inputs,
    dicke_basis_vectors,
    dicke_hamiltonian,
    dicke_populations,
    dicke_transform,
    full_model_liouvillian,
    ground_state,
    rabi_frequency,
)
from .observables import concurrence, g2_trace, default_tau_max, post_jump_state
from .operators import (
    QUBIT_NUMBER,
    TWO_QUBIT_LAYOUT,
    DensityMatrix,
    embed,
    partial_trace,
    qubit_pair_boson_layout,
)
from .sweep import _observe

SEED = 20240817


def _random_density(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _check_partial_trace(rng):
    layout = qubit_pair_boson_layout(2)
    rho = DensityMatrix(layout, _random_density(rng, layout.total_dim))
    reduced = partial_trace(rho, (0, 1)).matrix
    # quadruple-loop contraction as the independent oracle
    t = rho.matrix.reshape(2, 2, 3, 2, 2, 3)
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    oracle[2 * i + j, 2 * k + m] = sum(t[i, j, b, k, m, b] for b in range(3))
    err = np.abs(reduced - oracle).max()
    assert err < 1e-13, f"partial trace deviates from loop oracle by {err:.3e}"


def _check_lindblad_action(rng):
    for _ in range(5):
        h = _random_density(rng, 4) * 4
        h = (h + h.conj().T) / 2
        lop = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = _random_density(rng, 4)
        liou = build_liouvillian(h, (JumpTerm(0.3, lop),), TWO_QUBIT_LAYOUT)
        got = unvec(liou.superop @ vec(rho))
        ld = lop.conj().T @ lop
        want = -1j * (h @ rho - rho @ h) + 0.3 * (
            lop @ rho @ lop.conj().T - 0.5 * (ld @ rho + rho @ ld))
        err = np.abs(got - want).max()
        assert err < 1e-12, f"superoperator action deviates from direct form by {err:.3e}"


def _check_steady_state(rng):
    for _ in range(5):
        p = FullModelParams(
            delta0=rng.uniform(-0.1, 0.1), delta1=rng.uniform(-0.1, 0.1),
            g0=rng.uniform(0.01, 0.1), g1=rng.uniform(0.01, 0.1),
            eta0=rng.uniform(0.01, 0.1), eta1=rng.uniform(0.01, 0.1),
            # nonzero, so that every column of the table is compared
            delta_a=rng.uniform(-0.5, 0.5), eta_a=rng.uniform(0.01, 0.1))
        liou = full_model_liouvillian(p)
        reference = build_liouvillian(*build_full_model(p)).generator
        err = np.abs(liou.generator - reference).max()
        scale = np.abs(reference).max()
        assert err <= 1e-14 * scale, (
            f"table generator deviates from the direct assembly by {err:.3e} "
            f"(largest entry {scale:.3e})")
        rho = steady_state(liou)
        assert rho.residual < 1e-10, f"steady-state residual {rho.residual:.3e}"
        mineig = np.linalg.eigvalsh(rho.matrix).min()
        assert mineig > -1e-9, f"steady-state min eigenvalue {mineig:.3e}"
    # one fixed point with boson drive at n_max 5: the banded, refined solve
    # against the dense bordered oracle; it draws no rng values, so later
    # checks see the same stream
    liou = full_model_liouvillian(FullModelParams(n_max=5, eta_a=0.3))
    oracle = unvec(_hermitian_vec(bordered_oracle(liou)[0]))
    err = np.abs(steady_state(liou).matrix - oracle).max()
    assert err < 1e-12, f"banded steady state deviates from the dense solve by {err:.3e}"


def bordered_oracle(l) -> tuple[np.ndarray, float]:
    """Oracle for steady_state: the trace-one kernel coordinates of L_H and the rcond of their LU.

    A dense LU (scipy.linalg.lapack's dgetrf, dgecon, dgetrs) of
    Liouvillian.generator with the row of coordinate 0 replaced by the
    whole trace row, in the natural coordinate order: no band, no
    reordering and no refinement, so it checks all three. Raises
    DegenerateSteadyStateError where the rcond is below RCOND_TOL.
    """
    a = l.generator
    a[0] = np.arange(a.shape[1]) < l.dim  # the trace row
    lu, piv, info = scipy.linalg.lapack.dgetrf(a)
    rcond = scipy.linalg.lapack.dgecon(lu, np.abs(a).sum(axis=0).max())[0] if info == 0 else 0.0
    if rcond < RCOND_TOL:
        raise DegenerateSteadyStateError(f"dense bordered oracle: rcond {rcond:.3e}")
    c = scipy.linalg.lapack.dgetrs(lu, piv, np.eye(a.shape[0], 1))[0][:, 0]
    return c / c[:l.dim].sum(), float(rcond)


def integrator_states(l, rho0: DensityMatrix, times) -> list[np.ndarray]:
    """Oracle for evolve: adaptive RK45 integration of the vectorized master equation.

    Starts from rho0 at t = 0 and returns one matrix per sample time. It is
    independent of the Taylor step operator; agreement is bounded by the
    integrator tolerances (rtol 1e-9, atol 1e-12), not by double precision.
    """
    from scipy.integrate import solve_ivp  # deferred: costly import, oracle only

    times = np.asarray(times, dtype=float)
    sop = l.superop
    sol = solve_ivp(lambda t, y: sop @ y, (0.0, float(times[-1])), vec(rho0.matrix),
                    method="RK45", t_eval=times, rtol=1e-9, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"RK45 integration failed: {sol.message}")
    return [unvec(sol.y[:, k]) for k in range(times.size)]


def _check_propagation_agreement(rng):
    liou = full_model_liouvillian(FullModelParams())
    times = np.linspace(0.0, 200.0, 21)
    res = evolve(liou, ground_state(liou.layout), times)
    oracle = integrator_states(liou, ground_state(liou.layout), times)
    err = max(np.abs(a.matrix - b).max() for a, b in zip(res.states, oracle))
    assert err < 1e-6, f"evolve and integrator propagation differ by {err:.3e}"
    assert res.max_trace_drift <= 1e-9, f"trace drift {res.max_trace_drift:.3e}"


def _check_concurrence_oracles(rng):
    a_ket = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    werner_base = np.outer(a_ket, a_ket.conj())
    for p in (0.2, 0.5, 0.9):
        rho = DensityMatrix(
            TWO_QUBIT_LAYOUT, p * werner_base + (1 - p) * np.eye(4) / 4)
        want = max(0.0, (3 * p - 1) / 2)
        got = concurrence(rho).value
        assert abs(got - want) < 1e-9, f"Werner p={p}: {got} vs {want}"
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    for _ in range(20):
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket /= np.linalg.norm(ket)
        # C(|psi>) = |<psi|sy x sy|psi*>|; sy x sy is real symmetric, so the
        # bilinear (not sesquilinear) form psi^T (sy x sy) psi gives it up to
        # global conjugation, which abs() removes.
        want = abs(ket @ syy @ ket)
        got = concurrence(DensityMatrix.pure(TWO_QUBIT_LAYOUT, ket)).value
        assert abs(got - want) < 1e-9, f"pure-state concurrence {got} vs {want}"


def _check_population_formulas(rng):
    for _ in range(5):
        delta, eta = rng.uniform(0.005, 0.05, size=2)
        t = rng.uniform(0, 500, size=7)
        pops = analytic_populations(delta, eta, t)
        total = sum(pops)
        assert np.abs(total - 1).max() < 1e-12, "closed-form populations do not sum to 1"
    p = FullModelParams(delta0=0.02, delta1=-0.02, eta0=0.02, eta1=0.02,
                        g0=0.02, g1=0.02, gamma_r0=0, gamma_r1=0,
                        gamma_d0=0, gamma_d1=0)
    e = adiabatic_eliminate(p)
    e = dataclasses.replace(e, gamma00=0.0, gamma11=0.0, gamma01=0.0)
    h, jumps, layout = build_effective_model(e)
    liou = build_liouvillian(h, jumps, layout)
    times = np.linspace(0.0, 2 * np.pi / rabi_frequency(p), 50)
    res = evolve(liou, ground_state(layout), times)
    delta, eta = closed_form_inputs(p)
    want = np.stack(analytic_populations(delta, eta, times))
    got = np.stack([dicke_populations(s) for s in res.states], axis=1)
    err = np.abs(got - want).max()
    assert err < 1e-6, f"dissipationless evolution deviates from closed form by {err:.3e}"


def _check_dicke_consistency(rng):
    for _ in range(5):
        p = FullModelParams(
            delta0=rng.uniform(-0.05, 0.05), delta1=rng.uniform(-0.05, 0.05),
            delta_a=rng.uniform(-0.5, 0.5), eta0=rng.uniform(0, 0.1),
            eta1=rng.uniform(0, 0.1), g0=rng.uniform(0.01, 0.1),
            g1=rng.uniform(0.01, 0.1))
        e = adiabatic_eliminate(p)
        d = dicke_transform(e)
        h, _, _ = build_effective_model(e)
        u = dicke_basis_vectors()
        err = np.abs(dicke_hamiltonian(d) - u.conj().T @ h @ u).max()
        assert err < 1e-12, f"Dicke-basis reconstruction deviates by {err:.3e}"
        assert abs(d.gamma_S + d.gamma_A - (e.gamma00 + e.gamma11)) < 1e-12
        delta_plus = 0.5 * (e.dtilde0 + e.dtilde1)
        relations = (
            (d.delta_E, 2 * delta_plus),
            (d.delta_S, delta_plus - e.gtilde),
            (d.delta_A, delta_plus + e.gtilde),
            (d.delta_minus, 0.5 * (e.dtilde0 - e.dtilde1)),
        )
        err = max(abs(got - want) for got, want in relations)
        assert err < 1e-12, f"Dicke-basis levels deviate from the analytic relations by {err:.3e}"


def _check_correlations(rng):
    # oracles that share neither g2_trace's zero-delay set-up nor its
    # propagator: the conditional states of post_jump_state, each moved to
    # a delay by its own exponential of the complex superoperator
    p = FullModelParams()
    liou = full_model_liouvillian(p)
    rho_ss = steady_state(liou)
    trace = g2_trace(liou, rho_ss, default_tau_max(p), 1024)
    number_sum = sum(embed(QUBIT_NUMBER, j, liou.layout) for j in (0, 1))
    states = [post_jump_state(rho_ss, i)[0] for i in trace.bright_emitters]
    want = sum(s.expect(number_sum) for s in states) / (
        len(states) * rho_ss.expect(number_sum))
    assert abs(trace.g2_zero - want) <= 1e-12 * abs(want), (
        f"g2(0) {trace.g2_zero} vs {want} from the post-jump states")
    b = _block_length(trace.raw.size)
    for k in (1, b - 1, b, b + 1, trace.raw.size - 1):  # both sides of the block edge
        prop = scipy.linalg.expm(liou.superop * trace.taus[k])
        want = sum(np.trace(number_sum @ unvec(prop @ vec(s.matrix))).real for s in states)
        assert abs(trace.raw[k] - want) <= 1e-10 * abs(want), (
            f"g2 sample {k}: {trace.raw[k]} vs {want} by direct propagation")
    state, weight = post_jump_state(rho_ss, 0)
    want = rho_ss.expect(np.kron(np.diag([0.0, 1.0]), np.eye(liou.layout.total_dim // 2))).real
    assert abs(weight - want) < 1e-12, "post-jump weight differs from <n_0>"


def _check_exchange_symmetry(rng):
    # unequal couplings, so the swap changes the model; the concurrence
    # (0.862) and g2(0) are both far from 0 here
    p = FullModelParams(g1=0.048)
    values = [tuple(_observe(q, ("concurrence", "g2_zero"))) for q in (p, p.swapped_qubits())]
    for name, before, after in zip(("concurrence", "g2(0)"), *values):
        err = abs(before - after)
        assert err < 1e-8, f"{name} changes by {err:.3e} under qubit exchange"


CHECKS = (
    ("partial-trace oracle", _check_partial_trace),
    ("master-equation action", _check_lindblad_action),
    ("steady-state contract", _check_steady_state),
    ("propagation agreement", _check_propagation_agreement),
    ("concurrence oracles", _check_concurrence_oracles),
    ("closed-form populations", _check_population_formulas),
    ("collective-basis consistency", _check_dicke_consistency),
    ("correlation pipeline", _check_correlations),
    ("qubit-exchange symmetry", _check_exchange_symmetry),
)


def run_validation(emit=print) -> int:
    """Run every check; returns the number of failures (0 means all pass)."""
    failures = 0
    rng = np.random.default_rng(SEED)
    for name, check in CHECKS:
        try:
            check(rng)
        except Exception as exc:
            failures += 1
            emit(f"FAIL - {name}: {exc}")
        else:
            emit(f"ok - {name}")
    emit(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
