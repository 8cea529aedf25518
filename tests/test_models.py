"""Tests for the full and effective models and the collective-basis forms."""

import dataclasses

import numpy as np
import pytest

from ddesim import (
    DensityMatrix,
    EffectiveParams,
    FullModelParams,
    SpaceLayout,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    adiabatic_eliminate,
    analytic_populations,
    apply_liouvillian,
    build_effective_model,
    build_full_model,
    build_liouvillian,
    closed_form_inputs,
    dicke_basis_vectors,
    dicke_hamiltonian,
    dicke_populations,
    dicke_transform,
    embed,
    evolve,
    full_model_liouvillian,
    ground_state,
    partial_trace,
    rabi_frequency,
    steady_state,
)
from ddesim.liouvillian import _hermitian_index
from ddesim.models import (
    _LINEAR_FIELDS,
    PARAM_LIMIT,
    _affine_generator,
    _full_model_operators,
    boson_number,
)
from ddesim.observables import _emission_operators


def effective_no_dissipation(p):
    e = adiabatic_eliminate(p)
    return dataclasses.replace(e, gamma00=0.0, gamma11=0.0, gamma01=0.0)


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def test_params_validation():
    with pytest.raises(ValueError):
        FullModelParams(gamma_r0=-1e-9)
    with pytest.raises(ValueError):
        FullModelParams(gamma_a_abs=-1.0)
    with pytest.raises(ValueError, match="gamma_a_abs must be positive"):
        FullModelParams(gamma_a_abs=0.0)
    with pytest.raises(ValueError):
        FullModelParams(delta0=np.inf)
    # only real numbers enter; float32 is compared in float64, where 1e150 stays finite
    for bad in (0.01j, np.complex128(0.01), np.float32("inf"), np.float32("nan")):
        with pytest.raises(ValueError, match="delta0"):
            FullModelParams(delta0=bad)
    with pytest.raises(ValueError, match="gamma_r0 must be a real number"):
        FullModelParams(gamma_r0=1e-3j)
    # no product of two parameters may overflow
    for name in ("gamma_d0", "delta0", "gamma_a_abs"):
        with pytest.raises(ValueError, match=f"{name} must be finite with magnitude at most 1e"):
            FullModelParams(**{name: 1.0001e150})
    with pytest.raises(ValueError, match="delta1"):
        FullModelParams(delta1=-1e308)
    assert FullModelParams(gamma_d0=1e150, delta0=-1e150).gamma_d0 == 1e150
    for n_max in (0, 2.5):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            FullModelParams(n_max=n_max)
    with pytest.raises(ValueError):
        FullModelParams(relaxation_operator="flip")


@pytest.mark.parametrize("n_max", [1, 5])
@pytest.mark.parametrize("relaxation_operator", ["lower", "raise"])
def test_generator_finite_at_parameter_limit(n_max, relaxation_operator):
    # every linear field at +-PARAM_LIMIT (rates positive) stays finite:
    # a table row's absolute sum is at most n_max + 5
    rates = ("gamma_r0", "gamma_r1", "gamma_d0", "gamma_d1")
    for sign in (1.0, -1.0):
        p = FullModelParams(n_max=n_max, relaxation_operator=relaxation_operator, **{
            name: PARAM_LIMIT if name in rates else sign * PARAM_LIMIT
            for name in _LINEAR_FIELDS})
        assert np.all(np.isfinite(full_model_liouvillian(p).generator))


def test_swapped_qubits_exchanges_labels():
    p = FullModelParams(delta0=0.02, delta1=-0.03, g0=0.04, g1=0.05,
                        eta0=0.01, eta1=0.06, gamma_r0=1e-8, gamma_r1=2e-8,
                        gamma_d0=3e-8, gamma_d1=4e-8)
    q = p.swapped_qubits()
    assert (q.delta0, q.delta1) == (p.delta1, p.delta0)
    assert (q.g0, q.g1) == (p.g1, p.g0)
    assert (q.eta0, q.eta1) == (p.eta1, p.eta0)
    assert (q.gamma_r0, q.gamma_r1) == (p.gamma_r1, p.gamma_r0)
    assert (q.gamma_d0, q.gamma_d1) == (p.gamma_d1, p.gamma_d0)
    assert q.delta_a == p.delta_a


def test_full_hamiltonian_matrix_elements():
    # distinct values for every knob catch index transpositions
    p = FullModelParams(delta0=0.11, delta1=0.07, delta_a=0.29,
                        g0=0.013, g1=0.017, eta0=0.019, eta1=0.023,
                        eta_a=0.031, n_max=1)
    h, jumps, layout = build_full_model(p)
    assert layout.dims == (2, 2, 2)
    # basis index: |q0 q1 n> -> 4 q0 + 2 q1 + n
    gg0, gg1, ge0, eg0, ee1 = 0, 1, 2, 4, 7
    assert h[eg0, gg1] == pytest.approx(-p.g0)
    assert h[ge0, gg1] == pytest.approx(-p.g1)
    assert h[eg0, gg0] == pytest.approx(-p.eta0)
    assert h[ge0, gg0] == pytest.approx(-p.eta1)
    assert h[gg1, gg0] == pytest.approx(-p.eta_a)
    assert h[ee1, ee1] == pytest.approx(p.delta0 + p.delta1 + p.delta_a)
    assert h[gg0, gg0] == 0.0
    assert np.allclose(h, h.conj().T)


def test_full_model_jump_structure():
    p = FullModelParams(n_max=1)
    _, jumps, layout = build_full_model(p)
    assert len(jumps) == 5
    assert jumps[0].rate == 1.0
    # boson decay first, then per-qubit relaxation and dephasing
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    assert np.allclose(jumps[0].operator, embed(a, 2, layout))
    assert jumps[1].rate == p.gamma_r0
    assert np.allclose(jumps[1].operator, embed(SIGMA_MINUS, 0, layout))
    assert jumps[2].rate == p.gamma_d0
    assert np.allclose(jumps[2].operator, embed(SIGMA_Z, 0, layout))
    assert jumps[3].rate == p.gamma_r1
    assert np.allclose(jumps[3].operator, embed(SIGMA_MINUS, 1, layout))
    assert jumps[4].rate == p.gamma_d1
    assert np.allclose(jumps[4].operator, embed(SIGMA_Z, 1, layout))


def test_raising_relaxation_variant():
    p = FullModelParams(n_max=1, relaxation_operator="raise")
    _, jumps, layout = build_full_model(p)
    assert np.allclose(jumps[1].operator, embed(SIGMA_PLUS, 0, layout))
    assert np.allclose(jumps[3].operator, embed(SIGMA_PLUS, 1, layout))


def test_adiabatic_elimination_resonant_boson():
    # delta_a = 0: Z = 1/4, rates gain 4 g^2, coherent parameters untouched
    p = FullModelParams(delta0=0.02, delta1=-0.015, g0=0.03, g1=0.04,
                        eta0=0.01, eta1=0.02, gamma_r0=1e-6, gamma_r1=2e-6)
    e = adiabatic_eliminate(p)
    assert e.z == pytest.approx(0.25)
    assert e.dtilde0 == pytest.approx(p.delta0)
    assert e.dtilde1 == pytest.approx(p.delta1)
    assert e.etatilde0 == pytest.approx(p.eta0)
    assert e.etatilde1 == pytest.approx(p.eta1)
    assert e.gtilde == 0.0
    assert e.gamma00 == pytest.approx(p.gamma_r0 + 4 * p.g0**2)
    assert e.gamma11 == pytest.approx(p.gamma_r1 + 4 * p.g1**2)
    assert e.gamma01 == pytest.approx(4 * p.g0 * p.g1)


def test_adiabatic_elimination_detuned_boson():
    p = FullModelParams(delta0=0.02, delta1=-0.015, delta_a=0.3, g0=0.03,
                        g1=0.04, eta0=0.01, eta1=0.02, eta_a=0.05)
    e = adiabatic_eliminate(p)
    z = 0.25 + 0.3**2
    assert e.z == pytest.approx(z)
    assert e.dtilde0 == pytest.approx(p.delta0 - p.g0**2 * p.delta_a / z)
    assert e.dtilde1 == pytest.approx(p.delta1 - p.g1**2 * p.delta_a / z)
    assert e.etatilde0 == pytest.approx(p.eta0 + p.g0 * p.delta_a * p.eta_a / z)
    assert e.etatilde1 == pytest.approx(p.eta1 + p.g1 * p.delta_a * p.eta_a / z)
    assert e.gtilde == pytest.approx(p.g0 * p.g1 * p.delta_a / z)
    assert e.gamma00 == pytest.approx(p.gamma_r0 + p.g0**2 / z)
    assert e.gamma01 == pytest.approx(p.g0 * p.g1 / z)


def test_weak_coupling_advisory_warns():
    with pytest.warns(UserWarning, match="weak-coupling|untrustworthy"):
        adiabatic_eliminate(FullModelParams(g0=0.25))
    with pytest.warns(UserWarning):
        adiabatic_eliminate(FullModelParams(eta1=0.5))


def test_effective_rate_matrix_must_be_psd():
    with pytest.raises(ValueError):
        EffectiveParams(dtilde0=0.0, dtilde1=0.0, etatilde0=0.0, etatilde1=0.0,
                        gtilde=0.0, gamma00=0.0, gamma11=0.0, gamma01=0.1,
                        z=0.25)


def test_effective_rate_matrix_tolerance_scales_with_rates():
    # with gamma_r = 0 the rate matrix is exactly singular, and at couplings
    # near 140 eigvalsh reads -2.7e-12 from roundoff alone
    p = FullModelParams(g0=143.50724237877682, g1=131.5853554121532,
                        delta_a=-0.9945229996597038, gamma_r0=0.0, gamma_r1=0.0)
    with pytest.warns(UserWarning, match="untrustworthy"):
        e = adiabatic_eliminate(p)
    assert np.linalg.eigvalsh(e.rate_matrix).min() < -1e-12
    _, jumps, _ = build_effective_model(e)
    assert all(j.rate > 0 for j in jumps)
    # a rate matrix of the same scale that is truly indefinite still fails
    with pytest.raises(ValueError, match="negative eigenvalue"):
        dataclasses.replace(e, gamma01=e.gamma01 * (1 + 1e-6))


def test_effective_dissipator_matches_rate_matrix_form():
    # channel decomposition must equal sum_ij gamma_ij (s_i rho s_j+ - ...)
    rng = np.random.default_rng(41)
    e = EffectiveParams(dtilde0=0.02, dtilde1=-0.01, etatilde0=0.03,
                        etatilde1=0.05, gtilde=0.01, gamma00=0.5,
                        gamma11=0.3, gamma01=0.2, z=0.25)
    h, jumps, layout = build_effective_model(e)
    liou = build_liouvillian(h, jumps, layout)
    sp = [embed(SIGMA_PLUS, i, layout) for i in (0, 1)]
    sm = [embed(SIGMA_MINUS, i, layout) for i in (0, 1)]
    gm = e.rate_matrix
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho)
        want = -1j * (h @ rho - rho @ h)
        for i in range(2):
            for j in range(2):
                lhs = sm[i] @ rho @ sp[j]
                anti = sp[j] @ sm[i] @ rho + rho @ sp[j] @ sm[i]
                want = want + gm[i, j] * (lhs - 0.5 * anti)
        assert np.allclose(apply_liouvillian(liou, rho), want, atol=1e-12)


def test_effective_model_drops_zero_rate_channels():
    e = EffectiveParams(dtilde0=0.0, dtilde1=0.0, etatilde0=0.01,
                        etatilde1=0.01, gtilde=0.0, gamma00=0.0,
                        gamma11=0.0, gamma01=0.0, z=0.25)
    _, jumps, _ = build_effective_model(e)
    assert jumps == ()


def test_dicke_basis_is_unitary():
    u = dicke_basis_vectors()
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-15)
    s = np.sqrt(0.5)
    assert np.allclose(u[:, 0], [0, 0, 0, 1])        # |E> = |ee>
    assert np.allclose(u[:, 1], [0, s, s, 0])        # |S>
    assert np.allclose(u[:, 2], [0, -s, s, 0])       # |A>
    assert np.allclose(u[:, 3], [1, 0, 0, 0])        # |G> = |gg>


def test_dicke_transform_reads_off_basis_change():
    p = FullModelParams(delta0=0.03, delta1=-0.01, delta_a=0.2, g0=0.04,
                        g1=0.04, eta0=0.05, eta1=0.05)
    e = adiabatic_eliminate(p)
    d = dicke_transform(e)
    h_qb, _, _ = build_effective_model(e)
    u = dicke_basis_vectors()
    assert np.allclose(dicke_hamiltonian(d), u.conj().T @ h_qb @ u, atol=1e-12)
    delta_plus = 0.5 * (e.dtilde0 + e.dtilde1)
    assert d.delta_E == pytest.approx(2 * delta_plus)
    assert d.delta_S == pytest.approx(delta_plus - e.gtilde)
    assert d.delta_A == pytest.approx(delta_plus + e.gtilde)
    assert d.delta_minus == pytest.approx(0.5 * (e.dtilde0 - e.dtilde1))
    assert d.gamma_S + d.gamma_A == pytest.approx(e.gamma00 + e.gamma11)
    assert d.gamma_S - d.gamma_A == pytest.approx(2 * e.gamma01)
    assert len(d.diagnostics) == 2


def test_dicke_transform_symmetric_point():
    # equal drives: the antisymmetric state decouples from the drive
    p = FullModelParams(delta0=0.02, delta1=0.02, eta0=0.04, eta1=0.04)
    d = dicke_transform(adiabatic_eliminate(p))
    assert d.eta_minus == pytest.approx(0.0, abs=1e-15)
    assert d.eta_plus == pytest.approx(2 * 0.04 / np.sqrt(2))
    assert d.delta_minus == pytest.approx(0.0, abs=1e-15)


def test_analytic_populations_initial_point_and_normalization():
    rho_e, rho_s, rho_a, rho_g = analytic_populations(0.004, 0.03, 0.0)
    assert (rho_e, rho_s, rho_a) == (0.0, 0.0, 0.0)
    assert rho_g == pytest.approx(1.0)
    t = np.linspace(0.0, 400.0, 101)
    pops = analytic_populations(0.004, 0.03, t)
    assert np.allclose(np.sum(pops, axis=0), 1.0, atol=1e-12)
    assert all(np.all(c >= -1e-15) for c in pops)


def test_analytic_populations_quarter_cycle_values():
    delta, eta = 0.006, 0.025
    omega2 = delta**2 + eta**2
    t = 0.5 * np.pi / np.sqrt(omega2)
    rho_e, rho_s, rho_a, rho_g = analytic_populations(delta, eta, t)
    assert rho_e == pytest.approx(eta**4 / omega2**2, abs=1e-12)
    assert rho_s == pytest.approx(0.0, abs=1e-12)
    assert rho_a == pytest.approx(2 * delta**2 * eta**2 / omega2**2, abs=1e-12)
    assert rho_g == pytest.approx(delta**4 / omega2**2, abs=1e-12)


def test_analytic_populations_requires_frequency():
    with pytest.raises(ValueError):
        analytic_populations(0.0, 0.0, 1.0)


def test_closed_form_inputs_mapping():
    p = FullModelParams(delta0=0.02, delta1=-0.02, eta0=0.03, eta1=0.03)
    delta, eta = closed_form_inputs(p)
    assert delta == pytest.approx(0.01)  # quarter of the detuning difference
    assert eta == pytest.approx(0.03)
    with pytest.raises(ValueError):
        closed_form_inputs(FullModelParams(eta0=0.03, eta1=0.04))


def test_closed_forms_solve_dissipationless_effective_dynamics():
    # the strongest oracle: formulas vs direct unitary evolution from |gg>
    for p in (FullModelParams(delta0=0.02, delta1=-0.02, eta0=0.02, eta1=0.02),
              FullModelParams(delta0=0.01, delta1=-0.01, eta0=0.05, eta1=0.05),
              FullModelParams(delta0=0.0, delta1=0.0, eta0=0.03, eta1=0.03)):
        e = effective_no_dissipation(p)
        h, jumps, layout = build_effective_model(e)
        liou = build_liouvillian(h, jumps, layout)
        delta, eta = closed_form_inputs(p)
        omega = np.hypot(delta, eta)
        times = np.linspace(0.0, 2 * np.pi / omega, 40)
        res = evolve(liou, ground_state(layout), times)
        numeric = np.array([dicke_populations(s) for s in res.states])
        analytic = np.column_stack(analytic_populations(delta, eta, times))
        assert np.max(np.abs(numeric - analytic)) < 1e-8


def test_rabi_frequency_matches_closed_form_inputs():
    p = FullModelParams()
    delta, eta = closed_form_inputs(p)
    assert rabi_frequency(p) == pytest.approx(np.hypot(delta, eta))
    # unequal drives fall back to the RMS estimate
    q = FullModelParams(eta0=0.03, eta1=0.04)
    assert rabi_frequency(q) == pytest.approx(np.hypot(0.005, np.sqrt((0.03**2 + 0.04**2) / 2)))


def test_full_and_effective_steady_states_agree():
    # weak-coupling invariant: reduced steady states within 0.05 trace distance
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = FullModelParams(
            delta0=rng.uniform(-0.05, 0.05), delta1=rng.uniform(-0.05, 0.05),
            g0=rng.uniform(0.01, 0.08), g1=rng.uniform(0.01, 0.08),
            eta0=rng.uniform(0.01, 0.08), eta1=rng.uniform(0.01, 0.08))
        rho_full = steady_state(build_liouvillian(*build_full_model(p)))
        reduced = partial_trace(rho_full, (0, 1))
        rho_eff = steady_state(build_liouvillian(*build_effective_model(adiabatic_eliminate(p))))
        assert trace_distance(reduced.matrix, rho_eff.matrix) < 0.05


def test_dicke_populations_on_pure_states():
    u = dicke_basis_vectors()
    layout_qb = SpaceLayout((2, 2))
    for k, want in enumerate(np.eye(4)):
        rho = DensityMatrix.pure(layout_qb, u[:, k])
        assert np.allclose(dicke_populations(rho), want, atol=1e-14)


def test_dicke_populations_partial_traces_boson():
    p = FullModelParams(n_max=1)
    _, _, layout = build_full_model(p)
    u = dicke_basis_vectors()
    ket = np.kron(u[:, 2], [1.0, 0.0])  # |A> (x) vacuum
    rho = DensityMatrix.pure(layout, ket)
    assert np.allclose(dicke_populations(rho), [0, 0, 1, 0], atol=1e-14)
    with pytest.raises(ValueError):
        dicke_populations(DensityMatrix.pure(SpaceLayout((4,)), np.eye(4)[0]))


def test_ground_state_and_boson_number():
    _, _, layout = build_full_model(FullModelParams(n_max=2))
    rho = ground_state(layout)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    n_op = boson_number(layout)
    assert rho.expect(n_op) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        boson_number(SpaceLayout((2, 2)))


def test_cached_tables_are_read_only():
    # cached arrays are shared by every later call in the process
    p = FullModelParams(n_max=3, relaxation_operator="raise")
    liou = full_model_liouvillian(p)
    layout, a, qubits = _full_model_operators(p.n_max)
    lowers, functionals, number_sum = _emission_operators(layout)
    cached = [liou.generator, *_affine_generator(p.n_max, p.relaxation_operator),
              a, *qubits[0], *qubits[1], *_hermitian_index(layout.total_dim),
              *lowers, *functionals[0], *functionals[1], number_sum]
    assert not any(arr.flags.writeable for arr in cached)
    index, coef = _affine_generator(p.n_max, p.relaxation_operator)
    assert coef.shape == (index.size, 13)
    assert np.all(np.diff(index) > 0)
