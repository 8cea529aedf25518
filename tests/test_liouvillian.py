"""Tests for the vectorized Lindblad generator, propagation, and steady states."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgecon

from ddesim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    FullModelParams,
    JumpTerm,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SpaceLayout,
    SteadyState,
    build_full_model,
    build_liouvillian,
    concurrence,
    default_tau_max,
    embed,
    evolve,
    full_model_liouvillian,
    g2_trace,
    g2_zero,
    ground_state,
    partial_trace,
    steady_state,
    truncation_check,
)
from ddesim import liouvillian as liouvillian_module
from ddesim.liouvillian import (
    TAYLOR_THETA,
    Liouvillian,
    NumericalError,
    _scaled_exponential,
    correlation_samples,
    steady_state_residual,
    unvec,
    vec,
)
from ddesim.models import _LINEAR_FIELDS, _affine_generator
from ddesim.operators import QUBIT_NUMBER, SIGMA_Z
from ddesim.validate import bordered_oracle, integrator_states


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
    # only the entries the scatter writes are checked; every other entry is
    # an exact 0, so the verdict is that of a check of the whole generator
    with pytest.raises(ValueError, match="non-finite"):
        build_liouvillian(np.zeros((2, 2)), [JumpTerm(np.nan, SIGMA_MINUS)])
    # finite terms whose sum overflows: L_H[2, 3], the coupling of
    # Re rho_01 to Im rho_01, is h_00 - h_11 = 1.6e308 from h and 0.8e308
    # from the channel, each written finite and their sum past 1.8e308
    h = np.diag([0.8e308, -0.8e308])
    rotation = JumpTerm(0.8e308, np.diag([1.0, 1j]))
    for terms in ((h, []), (np.zeros((2, 2)), [rotation])):
        assert np.isfinite(build_liouvillian(*terms).generator).all()
    with pytest.raises(ValueError, match="non-finite"):
        build_liouvillian(h, [rotation])
    # a NaN in a live operator is a NaN entry; in a rate-0 one it is never read
    broken = SIGMA_MINUS.astype(complex)
    broken[1, 1] = np.nan
    decay = JumpTerm(1.0, SIGMA_MINUS)
    with pytest.raises(ValueError, match="non-finite"):
        build_liouvillian(np.zeros((2, 2)), [decay, JumpTerm(0.5, broken)])
    liou = build_liouvillian(np.zeros((2, 2)), [decay, JumpTerm(0.0, broken)])
    assert np.array_equal(liou.generator, build_liouvillian(np.zeros((2, 2)), [decay]).generator)


def from_dense(layout, generator):
    """The Liouvillian that stores the nonzero entries of a dense L_H (NaN counts as nonzero)."""
    row_col = np.array(np.nonzero(generator))
    return Liouvillian(layout, row_col, generator[tuple(row_col)])


def test_liouvillian_compares_and_hashes_by_identity():
    # a field-wise == of the stored arrays has no single truth value; two
    # evaluations of one model are distinct objects, each its own dict key
    p = FullModelParams()
    a, b = full_model_liouvillian(p), full_model_liouvillian(p)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_dense_generator_is_the_stored_entries_rebuilt_on_access():
    # the dense L_H scatters the stored entries, sorted by row, then column,
    # into zeros; it is rebuilt on each access, and nothing keeps it
    liou = full_model_liouvillian(FullModelParams(n_max=3, eta_a=0.0))
    assert np.any(liou.values == 0.0)  # the table stores the boson drive's zeros
    g = liou.generator
    assert g is not liou.generator and np.array_equal(g, liou.generator)
    assert "generator" not in vars(liou)
    row, col = liou.row_col
    assert np.all(np.diff(row * liou.dim ** 2 + col) > 0)
    assert np.array_equal(np.nonzero(g), liou.row_col[:, liou.values != 0.0])
    assert np.array_equal(g[row, col], liou.values)


def direct_generator(h, jumps):
    """Reference L_H: the scatter of build_liouvillian without a cached structure.

    The index arithmetic over the nonzeros of K and of each live operator
    redone on every call, the W weights and one bincount over all d^4
    entries; the weights are the same expressions in the same order as
    build_liouvillian's, so its generator must be bitwise this one.
    """
    d = h.shape[0]
    k = -1j * np.asarray(h, dtype=complex)
    live = [j for j in jumps if j.rate != 0.0]
    for j in live:
        k -= 0.5 * j.rate * (j.operator.conj().T @ j.operator)
    rates = np.array([j.rate for j in live])
    ops = np.array([j.operator for j in live], dtype=complex).reshape(-1, d, d)
    chan, x, u = np.nonzero(ops)
    op_vals = ops[chan, x, u]
    a, b = np.nonzero(chan[:, None] == chan[None, :])
    kx, ku = np.nonzero(k)
    offsets = np.arange(d) * d
    p = np.concatenate(((kx[:, None] + offsets).ravel(), x[a] + x[b] * d))
    q = np.concatenate(((ku[:, None] + offsets).ravel(), u[a] + u[b] * d))
    vals = np.concatenate((np.repeat(2.0 * k[kx, ku], d),
                           rates[chan[a]] * op_vals[a] * op_vals[b].conj()))
    n = d * d
    col, coef = liouvillian_module._basis_map(d)
    index = col.take(p, axis=1)[:, None] * n + col.take(q, axis=1)[None]
    weights = (coef.take(p, axis=1).conj()[:, None] * (coef.take(q, axis=1) * vals)[None]).real
    return np.bincount(index.ravel(), weights.ravel(), minlength=n * n).reshape(n, n)


def reset_jump_model():
    """The n_max 5 model with |0><n_max| on the boson, far outside the model's band."""
    p = FullModelParams(n_max=5)
    h, jumps, layout = build_full_model(p)
    reset = np.zeros((p.n_max + 1, p.n_max + 1))
    reset[0, p.n_max] = 1.0
    return h, (*jumps, JumpTerm(0.1, embed(reset, 2, layout))), layout


def test_generator_is_bitwise_the_direct_scatter_and_reuses_its_structure():
    # the table's 13 models go through the same cache and take 11
    # structures from it (delta_a = 1 keeps the pattern of L_0's model, and
    # the two dephasing channels have one pattern); two points with one
    # nonzero pattern share one, and each generator is bitwise the uncached
    # scatter's
    cache = liouvillian_module._scatter_structure
    cache.cache_clear()
    _affine_generator.cache_clear()
    _affine_generator(3, "lower")
    assert cache.cache_info()[:2] == (2, 11)  # hits, misses
    for delta0 in (0.01, 0.02):
        h, jumps, layout = build_full_model(FullModelParams(n_max=3, delta0=delta0))
        assert np.array_equal(build_liouvillian(h, jumps, layout).generator,
                              direct_generator(h, jumps))
    assert cache.cache_info()[:2] == (3, 12)
    h, jumps, layout = reset_jump_model()
    assert np.array_equal(build_liouvillian(h, jumps, layout).generator,
                          direct_generator(h, jumps))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("relaxation_operator", ["lower", "raise"])
def test_table_columns_are_bitwise_differences_of_direct_scatters(n_max, relaxation_operator):
    # L_0 is the uncached scatter of the model with every linear parameter
    # 0, and G_k that of the model with p_k = 1 minus L_0, bit for bit; the
    # table stores every position where one of them is nonzero
    base = FullModelParams(n_max=n_max, relaxation_operator=relaxation_operator,
                           **dict.fromkeys(_LINEAR_FIELDS, 0.0))
    l_0 = direct_generator(*build_full_model(base)[:2])
    row_col, coef = _affine_generator(n_max, relaxation_operator)
    for k, name in enumerate(("L_0", *_LINEAR_FIELDS)):
        want = l_0
        if k:
            want = direct_generator(*build_full_model(
                dataclasses.replace(base, **{name: 1.0}))[:2]) - l_0
        column = np.zeros_like(want)
        column[tuple(row_col)] = coef[:, k]
        assert np.array_equal(column, want), name


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
        got = unvec(liou.superop @ vec(rho))
        assert np.allclose(got, lindblad_rhs(h, ops, rho), atol=1e-12)
    # L is complex-linear: a matrix that is not Hermitian is evaluated too
    x = random_operator(rng, h.shape[0])
    assert np.allclose(unvec(liou.superop @ vec(x)), lindblad_rhs(h, ops, x), atol=1e-12)


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


@pytest.mark.parametrize("times", [[0.0, np.inf], [0.0, 1e300], [np.inf], [np.nan], [1e300],
                                   [0.0, 1e77], [1e77]])
def test_evolve_rejects_non_finite_or_overflowing_times(times):
    # infinite and NaN times, and steps whose L_H t[0] or L_H dt is too
    # large for the exponential's fourth power to stay finite
    # (||L_H||_1 = 4.46 here), are named input errors
    liou = full_model_liouvillian(FullModelParams())
    with pytest.raises(ValueError, match="^times must"):
        evolve(liou, ground_state(liou.layout), times)


def test_evolve_flags_a_step_too_long_to_square():
    # at t = 1e40 the step takes 133 squarings, whose rounding errors grow
    # to inf and NaN; the NaN trace drift is a numerical failure, not a state
    liou = full_model_liouvillian(FullModelParams())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="trace drift nan"):
            evolve(liou, ground_state(liou.layout), [0.0, 1e40])


@pytest.mark.parametrize("leak", [1e-8, 1e-10])
def test_evolve_rejects_trace_drift(leak):
    # L_H - leak * I scales every coordinate, so the trace decays as
    # exp(-leak t): at t = 1 the drift is about leak, against the 1e-9 bound
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    leaky = from_dense(liou.layout, liou.generator - leak * np.eye(liou.dim ** 2))
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
        steady_state(from_dense(liou.layout, generator))


def test_steady_state_residual_check_fails_on_nan_in_off_diagonal_row():
    # a NaN in the row of an off-diagonal pair coordinate must fail the
    # check too, also where it reaches only that pair's entries of L(rho)
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    d = liou.dim
    generator = liou.generator.copy()
    generator[d + 3, 7] = np.nan
    broken = from_dense(liou.layout, generator)
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
    # the second-smallest |eigenvalue|. Dense at n_max 2: 1e-20 at 0,
    # 6.1e-14 at 1e-12, 6.1e-12 at 1e-10 (below RCOND_TOL = 1e-11),
    # 6.1e-11 at 1e-9 and 6.1e-5 at 1e-3. Banded at n_max 4 and 5: 3.8e-12
    # and 3.0e-12 at 1e-10, 3.8e-11 and 3.0e-11 at 1e-9
    for n_max in (2, 4, 5):
        base = FullModelParams(g0=0.0, gamma_d0=0.0, n_max=n_max)
        for gamma_r0 in (0.0, 1e-12, 1e-10):
            p = dataclasses.replace(base, gamma_r0=gamma_r0)
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(build_liouvillian(*build_full_model(p)))
        for gamma_r0 in (1e-9, 1e-3):
            p = dataclasses.replace(base, gamma_r0=gamma_r0)
            liou = build_liouvillian(*build_full_model(p))
            assert steady_state_residual(liou, steady_state(liou)) < 1e-10


def recording(factored, name, real):
    def factor(a, *args, **kwargs):
        factored.append((name, np.shape(a), np.asarray(a).dtype))
        return real(a, *args, **kwargs)
    return factor


def test_steady_state_factors_one_real_matrix(monkeypatch):
    # one real banded LU of the bordered d^2 x d^2 generator at the map
    # cells' n_max 2 (kl 46, ku 80 in the boson-number order), no dense or
    # complex one, and two solves with it: the solution and its refinement;
    # the dense oracle of the same generator makes the dense LU, and the
    # two agree
    factored = []
    for name in ("dgbtrf", "dgbtrs"):
        monkeypatch.setattr(liouvillian_module, name,
                            recording(factored, name, getattr(liouvillian_module, name)))
    for module, name in ((scipy.linalg.lapack, "dgetrf"), (scipy.linalg.lapack, "zgetrf"),
                         (scipy.linalg, "lu_factor"), (np.linalg, "solve")):
        monkeypatch.setattr(module, name, recording(factored, name, getattr(module, name)))
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    rho = steady_state(liou)
    n = liou.dim ** 2
    assert [f[0] for f in factored] == ["dgbtrf", "dgbtrs", "dgbtrs"]
    assert factored[0][1:] == ((2 * 46 + 80 + 1, n), np.dtype(np.float64))
    factored.clear()
    oracle = bordered_oracle(liou)[0]
    assert factored == [("dgetrf", (n, n), np.dtype(np.float64))]
    assert np.abs(rho.matrix - unvec(liouvillian_module._hermitian_vec(oracle))).max() < 1e-12


def test_steady_state_factors_one_banded_matrix_at_n_max_5(monkeypatch):
    # kl = 94 subdiagonals and ku = 176 superdiagonals in the boson-number
    # order: one dgbtrf of the (2 kl + ku + 1) x d^2 band storage
    factored = []
    monkeypatch.setattr(liouvillian_module, "dgbtrf",
                        recording(factored, "dgbtrf", liouvillian_module.dgbtrf))
    liou = build_liouvillian(*build_full_model(FullModelParams(n_max=5)))
    steady_state(liou)
    assert factored == [("dgbtrf", (2 * 94 + 176 + 1, liou.dim ** 2), np.dtype(np.float64))]


def test_banded_solve_rejects_a_nan_generator():
    # a NaN inside the band reaches the banded LU; one in the row of
    # coordinate 0, which the trace border replaces, reaches the residual
    liou = build_liouvillian(*build_full_model(FullModelParams(n_max=5)))
    d = liou.dim
    for row, col in ((d + 3, 7), (0, 7)):
        generator = liou.generator.copy()
        generator[row, col] = np.nan
        broken = from_dense(liou.layout, generator)
        with pytest.raises(NumericalError):
            steady_state(broken)


def test_band_keeps_a_jump_across_the_whole_boson_ladder():
    # |0><n_max| on the boson couples the populations of levels n_max and 0,
    # far outside the band of the model; the measured band must hold every
    # nonzero entry of the generator and, in the row of coordinate 0, the
    # ones of every diagonal coordinate inside it, and the solve agree with
    # the dense oracle's
    h, jumps, layout = reset_jump_model()
    liou = build_liouvillian(h, jumps, layout)
    g = liou.generator
    band = liouvillian_module._band_of(liou)
    order = liouvillian_module._coordinate_order(layout.dims)
    rank = np.argsort(order)[:liou.dim]
    assert np.array_equal(band.traced, np.flatnonzero(rank <= band.ku))
    ldab = 2 * band.kl + band.ku + 1
    storage = np.zeros(ldab * g.shape[0])
    storage[band.dst] = np.append(liou.values, 1.0)[band.src]
    permuted = g[np.ix_(order, order)]
    permuted[0] = 0.0
    permuted[0, rank[band.traced]] = 1.0
    rows, cols = np.nonzero(permuted)
    assert np.array_equal(storage[cols * ldab + band.kl + band.ku + rows - cols],
                          permuted[rows, cols])
    assert np.count_nonzero(storage) == rows.size
    dense = bordered_oracle(liou)[0]
    assert np.abs(liouvillian_module._bordered_kernel(liou)[0] - dense).max() < 1e-12
    rho = steady_state(liou)
    assert np.abs(rho.matrix - unvec(liouvillian_module._hermitian_vec(dense))).max() < 1e-12


@pytest.mark.parametrize("n_max", range(1, 9))
def test_trace_border_covers_the_boson_vacuum(n_max):
    # the border in the row of coordinate 0 normalizes the steady state
    # where it carries weight on the traced populations, so the full model
    # never moves it: every population of the boson vacuum, which the lossy
    # boson keeps populated, is among them
    for eta_a in (0.0, 0.3):
        liou = full_model_liouvillian(FullModelParams(n_max=n_max, eta_a=eta_a))
        vacuum = np.flatnonzero(np.arange(liou.dim) % (n_max + 1) == 0)
        assert np.isin(vacuum, liouvillian_module._band_of(liou).traced).all()


def pumped_ladder(levels, *, down=0.0, pumps=None):
    # a ladder pumped up by |k+1><k| (for k in pumps, default every step)
    # at rate 1 and decaying back at rate down; the default steady state
    # is the top level, the last coordinate in the coordinate order
    up = np.eye(levels, k=-1, dtype=complex)
    if pumps is not None:
        up[np.arange(1, levels), np.arange(levels - 1)] = np.isin(np.arange(levels - 1), pumps)
    jumps = [JumpTerm(1.0, up)] + ([JumpTerm(down, up.T)] if down else [])
    return build_liouvillian(np.zeros((levels, levels)), jumps)


@pytest.mark.parametrize("levels, down", [(2, 0.0), (3, 0.0), (6, 0.0), (6, 1e-4)])
def test_trace_border_moves_to_a_steady_state_outside_its_band(levels, down):
    # a qubit pumped by sigma+ alone (levels 2) and longer pumped ladders
    # leave no weight, or below 1e-19, on the populations in the band of
    # coordinate 0, so that border is singular or below RCOND_TOL; the
    # border moves to the top level, and the state and the verdict are the
    # dense oracle's
    liou = pumped_ladder(levels, down=down)
    assert liouvillian_module._factor(liou, 0)[2] < liouvillian_module.RCOND_TOL
    oracle, oracle_rcond = bordered_oracle(liou)
    rho = steady_state(liou)
    assert min(rho.rcond, oracle_rcond) >= liouvillian_module.RCOND_TOL
    assert rho.matrix[-1, -1].real == pytest.approx(1.0 - down, rel=1e-3)
    coords = liouvillian_module._hermitian_coords(vec(rho.matrix))
    assert np.abs(coords - oracle).max() < 1e-12
    assert rho.residual < 1e-15


def test_moved_trace_border_still_rejects_a_degenerate_kernel():
    # two pumped pairs, 0 -> 1 and 2 -> 3, keep any mixture of |1> and |3>:
    # the moved border is singular too, as is the oracle's
    liou = pumped_ladder(4, pumps=(0, 2))
    with pytest.raises(DegenerateSteadyStateError):
        bordered_oracle(liou)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(liou)


def test_banded_solve_takes_its_norm_from_the_gathered_entries(monkeypatch):
    # the 1-norm dgbcon needs is summed per column from the entries gathered
    # into the band and the ones of the trace border, with no dlangb pass
    # over the band storage; it is dlangb's norm up to the summation order
    calls, norms = [], []
    real_dlangb = scipy.linalg.lapack.dlangb
    monkeypatch.setattr(scipy.linalg.lapack, "dlangb", recording(calls, "dlangb", real_dlangb))
    monkeypatch.setattr(liouvillian_module, "dlangb", recording(calls, "dlangb", real_dlangb),
                        raising=False)
    real_dgbtrf, real_dgbcon = liouvillian_module.dgbtrf, liouvillian_module.dgbcon

    def dgbtrf(ab, kl, ku, **kwargs):
        norms.append(real_dlangb("1", kl, kl + ku, ab))
        return real_dgbtrf(ab, kl, ku, **kwargs)

    def dgbcon(kl, ku, lu, piv, anorm):
        norms.append(anorm)
        return real_dgbcon(kl, ku, lu, piv, anorm)

    monkeypatch.setattr(liouvillian_module, "dgbtrf", dgbtrf)
    monkeypatch.setattr(liouvillian_module, "dgbcon", dgbcon)
    for model in (build_full_model(FullModelParams(n_max=5, eta_a=0.3)), reset_jump_model()):
        norms.clear()
        steady_state(build_liouvillian(*model))
        want, got = norms
        assert got == pytest.approx(want, rel=8 * np.finfo(float).eps)
    assert calls == []


# "dense" is n_max 2, the size of every map cell, whose band (kl 49, ku 80
# at d^2 = 144) spans nearly the whole matrix; "banded" is n_max 5
@pytest.mark.parametrize("n_max", [2, 5], ids=["dense", "banded"])
def test_steady_state_carries_the_rcond_and_residual_of_its_solve(n_max):
    # the bordered matrix rebuilt densely in the coordinate order of the
    # banded solve (the trace border holds the diagonal coordinates inside
    # the band), and judged by dgecon; the refined coordinates are the
    # dense oracle's
    liou = full_model_liouvillian(FullModelParams(n_max=n_max, eta_a=0.1))
    rho = steady_state(liou)
    assert isinstance(rho, SteadyState) and rho.liouvillian is liou
    g, d = liou.generator, liou.dim
    band = liouvillian_module._band_of(liou)
    order = liouvillian_module._coordinate_order(liou.layout.dims)
    rank = np.argsort(order)[:d]
    a = g[np.ix_(order, order)]
    a[0] = 0.0
    a[0, rank[rank <= band.ku]] = 1.0
    anorm = np.abs(a).sum(axis=0).max()
    lu, _ = scipy.linalg.lu_factor(a)
    assert rho.rcond == pytest.approx(dgecon(lu, anorm)[0], rel=1e-10)
    # the residual of the solved coordinates; read from the matrix instead,
    # it differs by the roundoff of the round trip
    c, _ = liouvillian_module._bordered_kernel(liou)
    assert rho.residual == liouvillian_module._residual(liou, c) < 1e-10
    bound = 8 * np.finfo(float).eps * np.abs(g).sum(axis=1).max()
    assert abs(rho.residual - steady_state_residual(liou, rho)) <= bound
    assert np.abs(c - bordered_oracle(liou)[0]).max() < 1e-12


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


def alpha_3(a):
    """max(||B^3||_1^(1/3), ||B^4||_1^(1/4)) of the shifted B = a - tr(a) I / n."""
    b = a - np.trace(a) / a.shape[0] * np.eye(a.shape[0])
    b2 = b @ b
    return max(np.linalg.norm(b2 @ b, 1) ** (1 / 3), np.linalg.norm(b2 @ b2, 1) ** 0.25)


def test_propagation_needs_no_scipy_exponential(monkeypatch):
    # every propagation path squares the Taylor exponential of its scaled
    # argument, which lies within TAYLOR_THETA[28] after the fewest
    # squarings that bring it there; scipy.linalg.expm is left to the
    # oracles
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called on a propagation path")

    real = liouvillian_module._scaled_exponential
    calls = []

    def recording(a):
        e, s = real(a)
        calls.append((a, s))
        return e, s

    p = FullModelParams()
    liou = full_model_liouvillian(p)
    rho = steady_state(liou)
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    monkeypatch.setattr(liouvillian_module, "_scaled_exponential", recording)
    g2_trace(liou, rho, default_tau_max(p))
    correlation_samples(liou, embed(QUBIT_NUMBER, 0, liou.layout), rho.matrix, 2.0, 100)
    evolve(liou, rho, np.linspace(0.0, 1e4, 3))
    assert [s for _, s in calls] == [0, 1, 0, 12]
    for a, s in calls:
        assert a.shape == liou.generator.shape
        assert alpha_3(np.ldexp(a, -s)) <= TAYLOR_THETA[28]
        assert s == 0 or alpha_3(np.ldexp(a, 1 - s)) > TAYLOR_THETA[28]


def test_only_validate_calls_scipy_expm():
    # the oracles of validate and of the tests stay independent of the
    # production exponential only while no other module of the package
    # uses scipy's
    users = set()
    for path in Path(liouvillian_module.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "expm"
                    or isinstance(node, ast.alias) and node.name == "expm"):
                users.add(path.name)
    assert users == {"validate.py"}


def g2_step(**overrides):
    """L_H dt of the default 4096-sample g2 grid."""
    p = FullModelParams(**overrides)
    return full_model_liouvillian(p).generator * (default_tau_max(p) / 4095)


# the default g2 step has alpha_3 = 2.54, so its multiples take the
# degrees 16, 20, 24 and 28 unscaled
EXPONENTIAL_CASES = {
    "zero": lambda: np.zeros((16, 16)),
    "exceptional-point": lambda: exceptional_point_qubit().generator * 5.0,
    **{f"default-g2-step-x{c}": lambda c=c: g2_step() * c for c in (0.25, 0.5, 0.8, 1)},
    "nmax3-eta_a-step": lambda: g2_step(n_max=3, eta_a=0.3),
    "evolve-1e4": lambda: full_model_liouvillian(FullModelParams()).generator * 1e4,
}


EXPONENTIAL_RTOL = 64


def exponential_error(a):
    """||E^(2^s) - expm(a)||_1 / ||expm(a)||_1 for (E, s) = _scaled_exponential(a), and s."""
    e, s = _scaled_exponential(a)
    for _ in range(s):
        e = e @ e
    want = scipy.linalg.expm(a)
    return np.linalg.norm(e - want, 1) / np.linalg.norm(want, 1), s


@pytest.mark.parametrize("case", EXPONENTIAL_CASES)
def test_scaled_exponential_matches_scipy_expm(case):
    # both exponentials are backward stable at their scaled arguments, and
    # each of the s squarings can double a relative error, so the bound is
    # EXPONENTIAL_RTOL 2^s eps. The largest difference measured was 23 2^s
    # eps here (default g2 step, s = 0) and 35 2^s eps over 120 hypothesis
    # arguments (test_properties), and it is scipy's: against a float128
    # Taylor reference ours is within 1.7e-16 at the default g2 step and
    # scipy's within 5.1e-15; at t = 1e4 (s = 13) 4.6e-13 and 4.3e-13
    err, s = exponential_error(EXPONENTIAL_CASES[case]())
    assert err <= EXPONENTIAL_RTOL * 2.0 ** s * np.finfo(float).eps


def exceptional_point_qubit():
    # the qubit of test_evolve_exact_at_exceptional_point; ||L_H||_1 = 2.18
    gamma = 1.0
    h = 0.5 * (gamma / 4) * (SIGMA_PLUS + SIGMA_MINUS)
    return build_liouvillian(h, [JumpTerm(gamma, SIGMA_MINUS)], SpaceLayout((2,)))


CORRELATION_GRIDS = [(1, 0.1, False), (3, 0.1, False), (256, 0.1, False), (300, 0.1, False),
                     (1024, 0.03, False), (100, 3.0, False), (257, 7.0, True),
                     (100, 10.0, True)]


@pytest.mark.parametrize("n, dt, scaled", CORRELATION_GRIDS,
                         ids=[f"{n}-{dt}" for n, dt, _ in CORRELATION_GRIDS])
def test_correlation_samples_match_per_sample_expm(n, dt, scaled):
    # sigma_z after the exceptional-point qubit starts from |+><+|, a
    # pairing g2 never propagates. n = 300, 100 and 257 are no multiple of
    # the block length, so the last giant step is partly unused; n = 1 and
    # 3 fit in one baby block; scaled steps exceed TAYLOR_THETA[28] and are
    # squared from a scaled exponential (s = 1 and s = 2)
    liou = exceptional_point_qubit()
    assert (alpha_3(liou.generator * dt) > TAYLOR_THETA[28]) == scaled
    x0 = np.full((2, 2), 0.5)
    got = correlation_samples(liou, SIGMA_Z, x0, dt, n)
    want = np.array([np.trace(SIGMA_Z @ unvec(scipy.linalg.expm(liou.superop * (k * dt))
                                                @ vec(x0))).real for k in range(n)])
    assert got.shape == (n,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, dt", [
    (0, 0.1), (-4, 0.1), (2.5, 0.1), (4.0, 0.1), (True, 0.1),
    (16, 0.0), (16, -0.1), (16, np.nan), (16, np.inf), (16, -np.inf), (16, 1e308)])
def test_correlation_samples_reject_bad_inputs(n, dt):
    # n must be a positive integer and dt finite and positive, with L_H dt
    # finite; none of these may fall through to a wrong answer or a
    # different exception
    x0 = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="^(n|dt) must be"):
        correlation_samples(exceptional_point_qubit(), SIGMA_Z, x0, dt, n)


def test_states_compare_and_hash_by_identity():
    liou = full_model_liouvillian(FullModelParams())
    first, second = steady_state(liou), steady_state(liou)
    bare = DensityMatrix(first.layout, first.matrix)
    assert first == first and first != second and bare != first
    assert len({first, second, bare}) == 3


def test_truncation_check_decoupled_boson():
    # with g = eta_a = 0 the boson empties completely; occupancy ~ 0
    params = FullModelParams(g0=0.0, g1=0.0)
    assert truncation_check(params) < 1e-12


def test_truncation_check_default_model():
    assert truncation_check(FullModelParams()) < 1e-6
