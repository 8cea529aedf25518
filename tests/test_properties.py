"""Property tests over random model parameters: the invariants every path must keep."""

import dataclasses

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddesim import (
    DarkEmitterError,
    DensityMatrix,
    FullModelParams,
    SpaceLayout,
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
    qubit_pair_boson_layout,
    post_jump_state,
    steady_state,
)
from ddesim.liouvillian import (
    DegenerateSteadyStateError,
    _band_of,
    _band_plan,
    _Identity,
    _hermitian_coords,
    _hermitian_vec,
    _coordinate_order,
    _residuals,
    unvec,
    vec,
)
from ddesim.observables import _emission_operators, _emission_setup
from ddesim.operators import QUBIT_NUMBER, SIGMA_MINUS, SIGMA_PLUS
from ddesim.validate import bordered_oracle
from test_liouvillian import (EXPONENTIAL_RTOL, direct_generator, exponential_error,
                             kron_assembly, reset_jump_model)

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
    out = unvec(liou.superop @ vec(rho))
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
def test_scaled_exponential_matches_scipy_expm_on_random_models(p):
    # the default g2 step and evolve's step at t = 1e4, within the bound of
    # test_scaled_exponential_matches_scipy_expm
    generator = full_model_liouvillian(p).generator
    for t in (default_tau_max(p) / 4095, 1e4):
        err, s = exponential_error(generator * t)
        assert err <= EXPONENTIAL_RTOL * 2.0 ** s * np.finfo(float).eps


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
@given(params_strategy)
@example(FullModelParams(eta1=0.0, g1=0.0))
def test_g2_zero_is_the_closed_form_of_the_qubit_populations(p):
    # g2_zero's stated definition: <n0 n1> / (2 <n0> <n1>) with both
    # emitters bright, <n0 n1> / (<n_i> <N>) with only emitter i bright
    liou, rho_ss = solved(p)
    bright = _emission_setup(liou, rho_ss)[0]
    _, p_ge, p_eg, p_ee = np.diag(partial_trace(rho_ss, (0, 1)).matrix).real
    n = (p_eg + p_ee, p_ge + p_ee)
    want = p_ee / (2 * n[0] * n[1]) if len(bright) == 2 else p_ee / (n[bright[0]] * sum(n))
    assert abs(g2_zero(liou, rho_ss) - want) <= 1e-13 * abs(want)
    # the one cached coincidence operator is each emitter's sigma_i+ N sigma_i-
    for layout in (SpaceLayout((2, 2)), *(qubit_pair_boson_layout(m) for m in (1, 2, 3))):
        number_sum = sum(embed(QUBIT_NUMBER, j, layout) for j in (0, 1))
        coincidence = _emission_operators(layout)[2]
        for i in (0, 1):
            jump = embed(SIGMA_PLUS, i, layout) @ number_sum @ embed(SIGMA_MINUS, i, layout)
            assert np.array_equal(jump, coincidence)


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
    assert np.abs(generator - full.real).max() < 1e-14 * scale
    # the generator acts on coordinates as L acts on matrices
    a, b = random_hermitian(rng, d), random_hermitian(rng, d)
    ca, cb = _hermitian_coords(vec(a)), _hermitian_coords(vec(b))
    assert np.abs(generator @ ca - _hermitian_coords(liou.superop @ vec(a))).max() < 1e-14
    # coordinates round-trip Hermitian matrices and preserve Tr(AB)
    assert np.abs(unvec(_hermitian_vec(ca)) - a).max() < 1e-14
    assert abs(ca @ cb - np.trace(a @ b).real) < 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)


@PROPERTY_SETTINGS
@given(params_strategy, st.lists(st.booleans(), min_size=4, max_size=4), st.integers(1, 3))
def test_cached_assembly_is_bitwise_the_direct_scatter(p, dropped, n_max):
    # a rate drawn as 0 drops its channel, which changes the nonzero
    # patterns the cached structure is keyed on
    rates = ("gamma_r0", "gamma_r1", "gamma_d0", "gamma_d1")
    p = dataclasses.replace(p, n_max=n_max,
                            **{name: 0.0 for name, drop in zip(rates, dropped) if drop})
    h, jumps, layout = build_full_model(p)
    assert np.array_equal(build_liouvillian(h, jumps, layout).generator,
                          direct_generator(h, jumps))


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


@PROPERTY_SETTINGS
@given(params_strategy, seeds)
def test_residual_matches_complex_expansion_bit_for_bit(p, seed):
    # the residual is read from the real coordinates; it must equal the
    # max-entry norm of the expanded complex matrix exactly, both at the
    # steady state and at coordinates far from it, with L_H c the same
    # product over the stored entries
    rng = np.random.default_rng(seed)
    liou, rho_ss = solved(p)
    row, col = liou.row_col
    for c in (_hermitian_coords(vec(rho_ss.matrix)),
              _hermitian_coords(vec(random_hermitian(rng, liou.dim)))):
        r = np.bincount(row, liou.values * c[col], minlength=liou.dim ** 2)
        expanded = float(np.max(np.abs(_hermitian_vec(r))))
        assert _residuals([liou], c[None])[0] == expanded


def bordered_solves(liou):
    """steady_state's matrix and the dense oracle's for one generator, or the error of each."""
    out = []
    for solve in (lambda: steady_state(liou).matrix,
                  lambda: unvec(_hermitian_vec(bordered_oracle(liou)[0]))):
        try:
            out.append(solve())
        except DegenerateSteadyStateError as exc:
            out.append(exc)
    return out


@PROPERTY_SETTINGS
@given(params_strategy)
@example(FullModelParams(g0=0.0, gamma_d0=0.0, gamma_r0=0.0))
def test_banded_and_dense_bordered_solves_agree(p):
    # at every n_max from 1 to 6 and with either relaxation operator, the
    # refined banded LU of the boson-number-ordered generator, whose trace
    # border holds only the populations inside the band, and the dense
    # oracle's LU with the whole trace row reach the same state and the
    # same degeneracy verdict (the verdicts next to RCOND_TOL are
    # test_near_degenerate_kernel_threshold's)
    for n_max in range(1, 7):
        for relaxation_operator in ("lower", "raise"):
            banded, dense = bordered_solves(full_model_liouvillian(dataclasses.replace(
                p, n_max=n_max, relaxation_operator=relaxation_operator)))
            assert isinstance(banded, np.ndarray) == isinstance(dense, np.ndarray)
            if isinstance(dense, np.ndarray):
                assert np.abs(banded - dense).max() < 1e-12


def dense_pattern_band(liou):
    """Reference band of the dense generator, keyed on its nonzero pattern np.packbits(L_H != 0).

    kl, ku, and the entries of the bordered band with their positions in
    the band storage: those outside the row of coordinate 0 in ascending
    flat order, then the border's ones at the diagonal coordinates inside
    the band.
    """
    g = liou.generator
    n = g.shape[0]
    rank = np.argsort(_coordinate_order(liou.layout.dims))
    src = np.flatnonzero(np.unpackbits(np.packbits(g != 0), count=g.size))
    row, col = rank[src // n], rank[src % n]
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    live = row != 0
    ldab = 2 * kl + ku + 1
    dst = col * ldab + kl + ku + row - col
    border = rank[:liou.dim][rank[:liou.dim] <= ku]
    return (kl, ku, np.append(g.reshape(-1)[src[live]], np.ones(border.size)),
            np.append(dst[live], border * ldab + kl + ku - border))


def assert_plan_is_the_dense_pattern_plan(liou):
    kl, ku, entries, dst = dense_pattern_band(liou)
    band = _band_of(liou)
    assert (band.kl, band.ku) == (kl, ku)
    assert np.array_equal(band.order, _coordinate_order(liou.layout.dims))
    assert np.array_equal(np.append(liou.values, 1.0)[band.src], entries)
    assert np.array_equal(band.dst, dst)
    return kl


@PROPERTY_SETTINGS
@given(params_strategy, st.integers(1, 6))
def test_band_plan_of_the_stored_entries_is_the_dense_pattern_plan(p, n_max):
    # the plan is keyed on the stored entries and the mask of the nonzero
    # ones; its band, gather order and gathered entries are those the dense
    # nonzero pattern gives, so the banded factor is bitwise the same
    p = dataclasses.replace(p, n_max=n_max)
    assert_plan_is_the_dense_pattern_plan(full_model_liouvillian(p))
    assert_plan_is_the_dense_pattern_plan(build_liouvillian(*build_full_model(p)))


def test_band_plan_skips_stored_zeros_and_keeps_far_entries():
    # at eta_a = 0 the table stores the boson drive's entries as zeros; the
    # plan of the nonzero values keeps kl 94, all stored positions give 98
    liou = full_model_liouvillian(FullModelParams(n_max=5, eta_a=0.0))
    assert assert_plan_is_the_dense_pattern_plan(liou) == 94
    every = np.packbits(np.ones(liou.values.size, dtype=bool)).tobytes()
    assert _band_plan(liou.layout.dims, _Identity(liou.row_col), every).kl == 98
    # the reset jump couples boson levels n_max and 0, far outside the band
    assert_plan_is_the_dense_pattern_plan(build_liouvillian(*reset_jump_model()))
