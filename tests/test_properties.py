"""Property tests over random model parameters: the invariants every path must keep."""

import dataclasses

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ddesim import (
    DarkEmitterError,
    DensityMatrix,
    FullModelParams,
    apply_liouvillian,
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
    post_jump_state,
    steady_state,
)
from ddesim.liouvillian import _hermitian_coords, _hermitian_vec, unvec, vec
from ddesim.observables import _emission_setup
from ddesim.operators import QUBIT_NUMBER
from test_liouvillian import kron_assembly

PROPERTY_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                             database=None)

# relaxation and dephasing rates of at least 1e-4 keep every mode decaying:
# over the corners of this box the slowest decay rate is 3.3e-4, so t = 1e6
# is settled to double precision with a wide margin
params_strategy = st.builds(
    FullModelParams,
    delta0=st.floats(-0.05, 0.05), delta1=st.floats(-0.05, 0.05),
    g0=st.floats(0.02, 0.08), g1=st.floats(0.02, 0.08),
    eta0=st.floats(0.02, 0.08), eta1=st.floats(0.02, 0.08),
    eta_a=st.floats(0.0, 0.05),
    gamma_r0=st.floats(1e-4, 1e-2), gamma_r1=st.floats(1e-4, 1e-2),
    gamma_d0=st.floats(1e-4, 1e-2), gamma_d1=st.floats(1e-4, 1e-2))
seeds = st.integers(0, 2**32 - 1)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def solved(p):
    liou = build_liouvillian(*build_full_model(p))
    return liou, steady_state(liou)


@PROPERTY_SETTINGS
@given(params_strategy, seeds)
def test_evolve_preserves_trace_and_hermiticity(p, seed):
    rng = np.random.default_rng(seed)
    liou = build_liouvillian(*build_full_model(p))
    d = liou.dim
    # the generator annihilates the trace row and maps Hermitian to Hermitian
    trace_row = vec(np.eye(d))
    assert np.abs(trace_row @ liou.superop).max() < 1e-14
    rho = random_density(rng, d)
    out = apply_liouvillian(liou, rho)
    assert np.abs(out - out.conj().T).max() < 1e-14
    # the drift is measured before the renormalization evolve applies, and
    # the stepped state matches the unsymmetrized one-shot propagator
    rho0 = DensityMatrix(liou.layout, rho)
    res = evolve(liou, rho0, np.linspace(0.0, 500.0, 11))
    assert res.max_trace_drift < 1e-9
    direct = unvec(scipy.linalg.expm(liou.superop * 500.0) @ vec(rho))
    assert np.abs(direct - direct.conj().T).max() < 1e-12
    assert np.abs(res.states[-1].matrix - direct).max() < 1e-12


@PROPERTY_SETTINGS
@given(params_strategy)
def test_evolve_settles_to_steady_state(p):
    liou, rho_ss = solved(p)
    late = evolve(liou, ground_state(liou.layout), [0.0, 1e6]).states[-1]
    assert np.abs(late.matrix - rho_ss.matrix).max() < 1e-10


@PROPERTY_SETTINGS
@given(params_strategy)
def test_g2_trace_invariant_under_qubit_exchange(p):
    traces = []
    for q in (p, p.swapped_qubits()):
        liou, rho_ss = solved(q)
        traces.append(g2_trace(liou, rho_ss, default_tau_max(q), n_samples=256))
    assert np.abs(traces[0].normalized - traces[1].normalized).max() < 1e-9


def post_jump_g2_zero(rho):
    """g2(0) = sum_i Tr[N rho_i] / (|bright| Tr[N rho]) from post-jump states, with the split."""
    number_sum = sum(embed(QUBIT_NUMBER, j, rho.layout) for j in (0, 1))
    bright, dark, raw = [], [], 0.0
    for i in (0, 1):
        try:
            state, _ = post_jump_state(rho, i)
        except DarkEmitterError:
            dark.append(i)
            continue
        bright.append(i)
        raw += state.expect(number_sum)
    return raw / (len(bright) * rho.expect(number_sum)), tuple(bright), tuple(dark)


def assert_g2_zero_matches_post_jump_states(p):
    liou, rho_ss = solved(p)
    want, bright, dark = post_jump_g2_zero(rho_ss)
    assert _emission_setup(liou, rho_ss)[:2] == (bright, dark)
    assert abs(g2_zero(liou, rho_ss) - want) <= 1e-12 * abs(want)


@PROPERTY_SETTINGS
@given(params_strategy)
def test_g2_zero_matches_post_jump_states(p):
    assert_g2_zero_matches_post_jump_states(p)


def test_g2_zero_matches_post_jump_states_with_a_dark_emitter():
    # qubit 1 undriven and uncoupled: it relaxes to the ground state
    p = FullModelParams(eta1=0.0, g1=0.0)
    assert _emission_setup(*solved(p))[:2] == ((0,), (1,))
    assert_g2_zero_matches_post_jump_states(p)


@PROPERTY_SETTINGS
@given(params_strategy, seeds)
def test_concurrence_bounded_and_local_unitary_invariant(p, seed):
    rng = np.random.default_rng(seed)
    _, rho_ss = solved(p)
    rho2q = partial_trace(rho_ss, (0, 1))
    c = concurrence(rho2q).value
    assert 0.0 <= c <= 1.0
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = DensityMatrix(rho2q.layout, u @ rho2q.matrix @ u.conj().T)
    assert abs(concurrence(rotated).value - c) < 1e-9


def hermitian_basis(d):
    """Dense W: columns vec(E_ii), vec(E_ij + E_ji)/sqrt(2), vec(i (E_ij - E_ji))/sqrt(2), i < j."""
    w = np.zeros((d * d, d * d), dtype=complex)
    col = 0
    for i in range(d):
        w[i * (d + 1), col] = 1.0
        col += 1
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for phase in (1.0, 1j):
        for i, j in pairs:
            w[i + j * d, col] = phase / np.sqrt(2)
            w[j + i * d, col] = np.conj(phase) / np.sqrt(2)
            col += 1
    return w


@PROPERTY_SETTINGS
@given(params_strategy, seeds)
def test_hermitian_basis_generator_and_coordinates(p, seed):
    rng = np.random.default_rng(seed)
    h, jumps, layout = build_full_model(p)
    liou = build_liouvillian(h, jumps, layout)
    d = liou.dim
    sop = kron_assembly(h, [(j.rate, j.operator) for j in jumps])
    scale = np.abs(sop).max()
    w = hermitian_basis(d)
    assert np.allclose(w.conj().T @ w, np.eye(d * d), rtol=0.0, atol=1e-15)
    # W+ L W of the Kronecker reference is real up to roundoff, and its real
    # part is the stored generator
    full = w.conj().T @ sop @ w
    assert np.abs(full.imag).max() < 1e-14 * scale
    generator = liou.generator
    assert not generator.flags.writeable
    assert np.abs(generator - full.real).max() < 1e-14 * scale
    # the generator acts on coordinates as L acts on matrices
    a, b = random_hermitian(rng, d), random_hermitian(rng, d)
    ca, cb = _hermitian_coords(vec(a)), _hermitian_coords(vec(b))
    assert np.abs(generator @ ca - _hermitian_coords(vec(apply_liouvillian(liou, a)))).max() < 1e-14
    # coordinates round-trip Hermitian matrices and preserve Tr(AB)
    assert np.abs(unvec(_hermitian_vec(ca)) - a).max() < 1e-14
    assert abs(ca @ cb - np.trace(a @ b).real) < 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)


@PROPERTY_SETTINGS
@given(params_strategy, st.floats(-0.05, 0.05), st.integers(1, 4),
       st.sampled_from(("lower", "raise")))
def test_affine_generator_matches_direct_assembly(p, delta_a, n_max, relaxation_operator):
    p = dataclasses.replace(p, delta_a=delta_a, n_max=n_max,
                            relaxation_operator=relaxation_operator)
    direct = build_liouvillian(*build_full_model(p))
    liou = full_model_liouvillian(p)
    assert liou.layout == direct.layout
    scale = np.abs(direct.generator).max()
    assert np.abs(liou.generator - direct.generator).max() <= 1e-14 * scale
