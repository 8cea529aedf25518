"""Tests for the vectorized Lindblad generator, propagation, and steady states."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ddesim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    FullModelParams,
    JumpTerm,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SpaceLayout,
    apply_liouvillian,
    build_full_model,
    build_liouvillian,
    concurrence,
    default_tau_max,
    evolve,
    g2_trace,
    g2_zero,
    partial_trace,
    steady_state,
    truncation_check,
)
from ddesim import liouvillian as liouvillian_module
from ddesim.liouvillian import (
    Liouvillian,
    NumericalError,
    correlation_samples,
    steady_state_residual,
    unvec,
    vec,
)
from ddesim.operators import QUBIT_NUMBER, SIGMA_Z
from ddesim.validate import integrator_states


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def lindblad_rhs(h, jumps, rho):
    """Reference right-hand side computed without vectorization."""
    out = -1j * (h @ rho - rho @ h)
    for rate, op in jumps:
        ad = op.conj().T
        out += rate * (op @ rho @ ad - 0.5 * (ad @ op @ rho + rho @ ad @ op))
    return out


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.array_equal(unvec(vec(m)), m)
    # column stacking: first d entries are the first column
    assert np.array_equal(vec(m)[:5], m[:, 0])
    with pytest.raises(ValueError):
        unvec(np.zeros(7))


def test_vec_kron_identity():
    # vec(A X B) = (B^T kron A) vec(X) fixes the stacking convention
    rng = np.random.default_rng(29)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x))


def test_jump_term_validation():
    with pytest.raises(ValueError):
        JumpTerm(-1.0, SIGMA_MINUS)
    with pytest.raises(ValueError):
        JumpTerm(1.0, np.zeros((2, 3)))
    term = JumpTerm(0.5, SIGMA_MINUS)
    assert not term.operator.flags.writeable


def test_build_liouvillian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        build_liouvillian(SIGMA_PLUS, [])
    with pytest.raises(ValueError):
        build_liouvillian(np.eye(4), [], SpaceLayout((2,)))


def test_build_liouvillian_rejects_non_finite_generator():
    with pytest.raises(ValueError, match="non-finite"):
        build_liouvillian(np.zeros((2, 2)), [JumpTerm(np.nan, SIGMA_MINUS)])


def kron_assembly(h, jumps):
    """Reference superoperator built term by term from Kronecker products."""
    eye = np.eye(h.shape[0], dtype=complex)
    sop = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, op in jumps:
        opdop = op.conj().T @ op
        sop = sop + rate * (np.kron(op.conj(), op)
                            - 0.5 * np.kron(eye, opdop)
                            - 0.5 * np.kron(opdop.T, eye))
    return sop


def random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def full_model(n_max):
    h, jumps, _ = build_full_model(FullModelParams(n_max=n_max))
    return h, [(j.rate, j.operator) for j in jumps]


ASSEMBLY_CASES = {
    "random-dim4": lambda rng: (random_hermitian(rng, 4),
                                [(0.7, random_operator(rng, 4)),
                                 (0.3, random_operator(rng, 4))]),
    "no-jumps": lambda rng: (random_hermitian(rng, 4), []),
    "zero-rate-jump": lambda rng: (random_hermitian(rng, 4),
                                   [(0.7, random_operator(rng, 4)),
                                    (0.0, random_operator(rng, 4)),
                                    (0.3, random_operator(rng, 4))]),
    "full-model-nmax2": lambda rng: full_model(2),
    "full-model-nmax4": lambda rng: full_model(4),
}


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_apply_liouvillian_matches_direct_lindblad(case):
    rng = np.random.default_rng(31)
    h, ops = ASSEMBLY_CASES[case](rng)
    liou = build_liouvillian(h, [JumpTerm(r, op) for r, op in ops])
    want = kron_assembly(h, ops)
    assert np.max(np.abs(liou.superop - want)) <= 1e-14 * np.max(np.abs(want))
    for _ in range(5):
        rho = random_density(rng, h.shape[0])
        got = apply_liouvillian(liou, rho)
        assert np.allclose(got, lindblad_rhs(h, ops, rho), atol=1e-12)
    # L is complex-linear: a matrix that is not Hermitian is evaluated too
    x = random_operator(rng, h.shape[0])
    assert np.allclose(apply_liouvillian(liou, x), lindblad_rhs(h, ops, x), atol=1e-12)


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_build_liouvillian_rejects_mis_shaped_jump(rate):
    # a channel's shape is checked whatever its rate, so a dead channel of
    # the wrong dimension is an error, not a silently skipped term
    with pytest.raises(ValueError, match="does not match dim 2"):
        build_liouvillian(np.zeros((2, 2)), [JumpTerm(1.0, SIGMA_MINUS),
                                             JumpTerm(rate, np.eye(3))])


def test_amplitude_damping_analytic_decay():
    gamma = 0.8
    layout = SpaceLayout((2,))
    liou = build_liouvillian(np.zeros((2, 2)), [JumpTerm(gamma, SIGMA_MINUS)], layout)
    ket = np.array([1.0, 1.0]) / np.sqrt(2)
    rho0 = DensityMatrix.pure(layout, ket)
    times = np.linspace(0.0, 5.0, 11)
    res = evolve(liou, rho0, times)
    pops = np.array([s.matrix[1, 1].real for s in res.states])
    cohs = np.array([s.matrix[0, 1] for s in res.states])
    assert np.allclose(pops, 0.5 * np.exp(-gamma * times), atol=1e-7)
    assert np.allclose(cohs, 0.5 * np.exp(-gamma * times / 2), atol=1e-7)
    assert res.max_trace_drift < 1e-9


def test_evolve_matches_integrator_on_full_model():
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    rho0 = DensityMatrix.pure(liou.layout, np.eye(liou.dim)[0])
    times = np.linspace(0.0, 50.0, 6)
    res = evolve(liou, rho0, times)
    diff = max(np.max(np.abs(a.matrix - b))
               for a, b in zip(res.states, integrator_states(liou, rho0, times)))
    assert diff < 1e-6


def test_evolve_exact_at_exceptional_point():
    # a driven damped qubit at Omega = gamma/4 sits on a Liouvillian
    # exceptional point (the Bloch-equation eigenvalues
    # -3 gamma/4 +- sqrt(gamma^2/16 - Omega^2) coalesce), where a numerical
    # eigenbasis has condition ~1e8; the step operator must still reproduce
    # a per-sample matrix exponential to double precision
    gamma = 1.0
    layout = SpaceLayout((2,))
    h = 0.5 * (gamma / 4) * (SIGMA_PLUS + SIGMA_MINUS)
    liou = build_liouvillian(h, [JumpTerm(gamma, SIGMA_MINUS)], layout)
    rho0 = DensityMatrix.pure(layout, np.array([1.0, 0.0]))
    for times in (np.linspace(0.0, 20.0, 41), np.linspace(2.5, 20.0, 36)):
        res = evolve(liou, rho0, times)
        for t, state in zip(times, res.states):
            want = unvec(scipy.linalg.expm(liou.superop * t) @ vec(rho0.matrix))
            assert np.max(np.abs(state.matrix - want)) < 1e-12


def test_evolve_time_grid_validation():
    layout = SpaceLayout((2,))
    liou = build_liouvillian(np.zeros((2, 2)), [JumpTerm(1.0, SIGMA_MINUS)], layout)
    rho0 = DensityMatrix.pure(layout, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evolve(liou, rho0, [])
    with pytest.raises(ValueError):
        evolve(liou, rho0, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(liou, rho0, [-1.0, 1.0])
    with pytest.raises(ValueError, match="uniformly spaced"):
        evolve(liou, rho0, [0.0, 1.0, 3.0])


@pytest.mark.parametrize("leak", [1e-8, 1e-10])
def test_evolve_rejects_trace_drift(leak):
    # L_H - leak * I scales every coordinate, so the trace decays as
    # exp(-leak t): at t = 1 the drift is about leak, against the 1e-9 bound
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    leaky = Liouvillian(liou.layout, liou.generator - leak * np.eye(liou.dim ** 2))
    rho0 = DensityMatrix.pure(liou.layout, np.eye(liou.dim)[0])
    times = np.linspace(0.0, 1.0, 11)
    if leak > 1e-9:
        with pytest.raises(NumericalError, match="trace drift"):
            evolve(leaky, rho0, times)
    else:
        assert evolve(leaky, rho0, times).max_trace_drift == pytest.approx(leak, rel=1e-3)


def test_resonance_fluorescence_steady_state():
    # driven damped qubit: rho_ee = eta^2 / (delta^2 + gamma^2/4 + 2 eta^2)
    rng = np.random.default_rng(37)
    layout = SpaceLayout((2,))
    for _ in range(5):
        delta = rng.uniform(-1.0, 1.0)
        eta = rng.uniform(0.1, 1.0)
        gamma = rng.uniform(0.2, 2.0)
        h = delta * QUBIT_NUMBER - eta * (SIGMA_PLUS + SIGMA_MINUS)
        liou = build_liouvillian(h, [JumpTerm(gamma, SIGMA_MINUS)], layout)
        rho = steady_state(liou)
        want = eta**2 / (delta**2 + gamma**2 / 4 + 2 * eta**2)
        assert rho.matrix[1, 1].real == pytest.approx(want, abs=1e-10)
        assert steady_state_residual(liou, rho) < 1e-10


def test_steady_state_positivity_and_trace():
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    rho = steady_state(liou)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-9
    assert steady_state_residual(liou, rho) < 1e-10


def test_steady_state_residual_check_fails_on_nan():
    # row 0 of the generator is replaced by the trace border before the
    # solve, so a NaN there leaves the solve clean and reaches only the
    # residual, which must reject it rather than compare False and pass
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    generator = liou.generator.copy()
    generator[0, 7] = np.nan
    with pytest.raises(NumericalError, match="residual nan"):
        steady_state(Liouvillian(liou.layout, generator))


def test_steady_state_residual_check_fails_on_nan_in_off_diagonal_row():
    # a NaN in the row of an off-diagonal pair coordinate must fail the
    # check too, also where it reaches only that pair's entries of L(rho)
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    d = liou.dim
    generator = liou.generator.copy()
    generator[d + 3, 7] = np.nan
    broken = Liouvillian(liou.layout, generator)
    with pytest.raises(NumericalError, match="residual nan"):
        steady_state(broken)
    # a finite state: only that pair's entries of L(rho) are NaN
    rho = steady_state(liou)
    assert np.isnan(steady_state_residual(broken, rho))


def test_degenerate_kernel_is_rejected():
    # a driven qubit with no dissipation has no unique fixed point
    h = -0.05 * (SIGMA_PLUS + SIGMA_MINUS)
    liou = build_liouvillian(h, [], SpaceLayout((2,)))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(liou)


def random_model_params(rng):
    return FullModelParams(
        delta0=rng.uniform(-0.05, 0.05), delta1=rng.uniform(-0.05, 0.05),
        g0=rng.uniform(0.02, 0.08), g1=rng.uniform(0.02, 0.08),
        eta0=rng.uniform(0.02, 0.08), eta1=rng.uniform(0.02, 0.08),
        eta_a=rng.uniform(0.0, 0.05),
        gamma_r0=10 ** rng.uniform(-8, -3), gamma_r1=10 ** rng.uniform(-8, -3),
        gamma_d0=10 ** rng.uniform(-8, -3), gamma_d1=10 ** rng.uniform(-8, -3))


def test_steady_state_matches_kernel_eigenvector():
    # the eigen route survives as an oracle: the kernel eigenvector of L,
    # normalized to unit trace, is the bordered-solve steady state
    rng = np.random.default_rng(41)
    for _ in range(5):
        liou = build_liouvillian(*build_full_model(random_model_params(rng)))
        rho = steady_state(liou)
        vals, vecs = scipy.linalg.eig(liou.superop)
        kernel = unvec(vecs[:, np.argmin(np.abs(vals))])
        kernel = kernel / np.trace(kernel)
        assert np.max(np.abs(rho.matrix - kernel)) < 1e-9


def test_near_degenerate_kernel_threshold():
    # qubit 0 decoupled from the boson relaxes only through gamma_r0, and
    # the reciprocal condition number of the bordered matrix is about 0.12x
    # the second-smallest |eigenvalue|: 1e-20 at 0, 6.1e-14 at 1e-12,
    # 6.1e-12 at 1e-10 (below RCOND_TOL = 1e-11), 6.1e-11 at 1e-9 and
    # 6.1e-5 at 1e-3
    base = FullModelParams(g0=0.0, gamma_d0=0.0)
    for gamma_r0 in (0.0, 1e-12, 1e-10):
        liou = build_liouvillian(*build_full_model(dataclasses.replace(base, gamma_r0=gamma_r0)))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liou)
    for gamma_r0 in (1e-9, 1e-3):
        liou = build_liouvillian(*build_full_model(dataclasses.replace(base, gamma_r0=gamma_r0)))
        assert steady_state_residual(liou, steady_state(liou)) < 1e-10


def test_steady_state_factors_one_real_matrix(monkeypatch):
    # one real LU of the bordered d^2 x d^2 generator, and no complex one
    factored = []

    def recording(name, real):
        def factor(a, *args, **kwargs):
            factored.append((name, a.shape, a.dtype))
            return real(a, *args, **kwargs)
        return factor

    monkeypatch.setattr(liouvillian_module, "dgetrf", recording("dgetrf", liouvillian_module.dgetrf))
    monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", recording("zgetrf", scipy.linalg.lapack.zgetrf))
    monkeypatch.setattr(scipy.linalg, "lu_factor", recording("lu_factor", scipy.linalg.lu_factor))
    monkeypatch.setattr(np.linalg, "solve", recording("solve", np.linalg.solve))
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    steady_state(liou)
    n = liou.dim ** 2
    assert factored == [("dgetrf", (n, n), np.dtype(np.float64))]


def test_steady_state_makes_one_eigendecomposition(monkeypatch):
    # the positivity check of the DensityMatrix construction is the only one,
    # and a negative eigenvalue there is still a NumericalError
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(a, *args, shift=0.0, **kwargs):
        calls.append(a.shape)
        return real_eigvalsh(a, *args, **kwargs) - shift

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    steady_state(liou)
    assert calls == [(liou.dim, liou.dim)]
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a, shift=1e-6))
    with pytest.raises(NumericalError, match="negative eigenvalue -1.0"):
        steady_state(liou)


def test_no_path_computes_an_eigendecomposition(monkeypatch):
    calls = []
    real_eig = scipy.linalg.eig

    def counting_eig(*args, **kwargs):
        calls.append(1)
        return real_eig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counting_eig)
    p = FullModelParams()
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    concurrence(partial_trace(rho, (0, 1)))
    g2_zero(liou, rho)
    g2_trace(liou, rho, default_tau_max(p), n_samples=256)
    evolve(liou, rho, np.linspace(0.0, 10.0, 5))
    assert calls == []


def test_g2_trace_makes_one_matrix_exponential(monkeypatch):
    # the giant step is squared from the baby step, not exponentiated again
    shapes = []
    real_expm = scipy.linalg.expm

    def counting_expm(a, *args, **kwargs):
        shapes.append((a.shape, a.dtype))
        return real_expm(a, *args, **kwargs)

    p = FullModelParams()
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    g2_trace(liou, rho, default_tau_max(p))
    assert shapes == [(liou.superop.shape, np.dtype(float))]


@pytest.mark.parametrize("n, dt", [(256, 0.1), (300, 0.1), (1024, 0.03)])
def test_correlation_samples_match_per_sample_expm(n, dt):
    # sigma_z after the exceptional-point qubit of
    # test_evolve_exact_at_exceptional_point starts from |+><+|, a pairing
    # g2 never propagates; n = 300 leaves the last giant step partly unused
    gamma = 1.0
    h = 0.5 * (gamma / 4) * (SIGMA_PLUS + SIGMA_MINUS)
    liou = build_liouvillian(h, [JumpTerm(gamma, SIGMA_MINUS)], SpaceLayout((2,)))
    x0 = np.full((2, 2), 0.5)
    got = correlation_samples(liou, SIGMA_Z, x0, dt, n)
    want = np.array([np.trace(SIGMA_Z @ unvec(scipy.linalg.expm(liou.superop * (k * dt))
                                                @ vec(x0))).real for k in range(n)])
    assert got.shape == (n,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_truncation_check_decoupled_boson():
    # with g = eta_a = 0 the boson empties completely; occupancy ~ 0
    params = FullModelParams(g0=0.0, g1=0.0)
    assert truncation_check(params) < 1e-12


def test_truncation_check_default_model():
    assert truncation_check(FullModelParams()) < 1e-6
