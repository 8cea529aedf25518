"""Tests for concurrence, post-emission states, g2(tau), and timescale extraction."""

import numpy as np
import pytest
import scipy.linalg

from ddesim import (
    CorrelationTrace,
    DarkEmitterError,
    DensityMatrix,
    FlatSpectrumError,
    FullModelParams,
    NumericalError,
    SpaceLayout,
    build_full_model,
    build_liouvillian,
    concurrence,
    default_tau_max,
    dicke_basis_vectors,
    embed,
    extract_timescale,
    g2_trace,
    g2_zero,
    ground_state,
    post_jump_state,
    steady_state,
)
from ddesim.liouvillian import unvec, vec
from ddesim.models import adiabatic_eliminate, rabi_frequency
from ddesim.operators import QUBIT_NUMBER

SYY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
QB = SpaceLayout((2, 2))


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, layout):
    d = layout.total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(layout, rho / np.trace(rho))


def bell_state():
    return DensityMatrix.pure(QB, np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))


def test_concurrence_reference_states():
    u = dicke_basis_vectors()
    assert concurrence(DensityMatrix.pure(QB, u[:, 2])).value == pytest.approx(1.0, abs=1e-12)
    assert concurrence(DensityMatrix.pure(QB, u[:, 3])).value == 0.0
    assert concurrence(bell_state()).value == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(QB, np.eye(4) / 4)
    assert concurrence(mixed).value == 0.0


def test_concurrence_werner_closed_form():
    # p |Phi+><Phi+| + (1-p) I/4 has concurrence max(0, (3p - 1)/2)
    phi = bell_state().matrix
    for p in (0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = DensityMatrix(QB, p * phi + (1 - p) * np.eye(4) / 4)
        want = max(0.0, (3 * p - 1) / 2)
        assert concurrence(rho).value == pytest.approx(want, abs=1e-12)


def test_concurrence_random_pure_states():
    # for pure states C = |<psi| sy x sy |psi*>| and only one lambda survives
    rng = np.random.default_rng(47)
    for _ in range(100):
        ket = random_ket(rng, 4)
        want = abs(ket @ SYY @ ket)
        res = concurrence(DensityMatrix.pure(QB, ket))
        assert res.value == pytest.approx(want, abs=1e-9)
        assert res.lambdas[0] == pytest.approx(want, abs=1e-9)
        assert max(res.lambdas[1:]) < 1e-9


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(53)
    rho = random_density(rng, QB)
    base = concurrence(rho).value
    for _ in range(5):
        q0, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(q0, q1)
        rotated = DensityMatrix(QB, u @ rho.matrix @ u.conj().T)
        assert concurrence(rotated).value == pytest.approx(base, abs=1e-10)


def test_concurrence_lambda_ordering_and_sqrt_variant():
    rng = np.random.default_rng(59)
    rho = random_density(rng, QB)
    std = concurrence(rho)
    assert sorted(std.lambdas, reverse=True) == list(std.lambdas)
    lam = std.lambdas
    assert std.value == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def test_concurrence_rejects_non_qubit_pairs():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(SpaceLayout((4,)), np.eye(4) / 4))
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(SpaceLayout((2, 2, 2)), np.eye(8) / 8))


def test_post_jump_state_antisymmetric():
    u = dicke_basis_vectors()
    for layout, ket in ((QB, u[:, 2]),
                        (SpaceLayout((2, 2, 2)), np.kron(u[:, 2], [1.0, 0.0]))):
        rho = DensityMatrix.pure(layout, ket)
        for emitter in (0, 1):
            state, weight = post_jump_state(rho, emitter)
            assert weight == pytest.approx(0.5, abs=1e-14)
            assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-14)


def test_post_jump_state_dark_ground():
    with pytest.raises(DarkEmitterError):
        post_jump_state(ground_state(QB), 0)


def test_post_jump_state_rejects_an_emitter_that_names_no_qubit():
    excited = DensityMatrix.pure(SpaceLayout((2, 3)), np.eye(6)[3])
    state, weight = post_jump_state(excited, 0)  # a (2, n) layout has emitter 0
    assert weight == pytest.approx(1.0, abs=1e-14)
    assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-14)
    single = DensityMatrix.pure(SpaceLayout((2,)), [0.0, 1.0])
    for rho, emitter in ((single, 1), (excited, 1), (single, -1), (excited, 2)):
        with pytest.raises(ValueError, match="names no qubit"):
            post_jump_state(rho, emitter)


def test_post_jump_weight_is_excited_population():
    rng = np.random.default_rng(61)
    layout = SpaceLayout((2, 2, 3))
    for _ in range(20):
        rho = random_density(rng, layout)
        for emitter in (0, 1):
            _, weight = post_jump_state(rho, emitter)
            want = rho.expect(embed(QUBIT_NUMBER, emitter, layout))
            assert weight == pytest.approx(want, abs=1e-12)


def antisymmetric_trap_model():
    # equal couplings, no drive, no intrinsic decay: |A, 0> is an exact
    # fixed point (collective emission cancels) but each emitter is bright
    p = FullModelParams(delta0=0.0, delta1=0.0, eta0=0.0, eta1=0.0,
                        gamma_r0=0.0, gamma_r1=0.0, gamma_d0=0.0, gamma_d1=0.0)
    liou = build_liouvillian(*build_full_model(p))
    u = dicke_basis_vectors()
    nb = p.n_max + 1
    vac = np.zeros(nb)
    vac[0] = 1.0
    rho = DensityMatrix.pure(liou.layout, np.kron(u[:, 2], vac))
    return liou, rho


def test_antisymmetric_state_has_zero_g2():
    liou, rho = antisymmetric_trap_model()
    assert g2_zero(liou, rho) == pytest.approx(0.0, abs=1e-14)


def test_g2_zero_matches_trace_sample():
    p = FullModelParams()
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    trace = g2_trace(liou, rho, default_tau_max(p))
    assert trace.g2_zero == g2_zero(liou, rho)
    assert trace.raw[0] == pytest.approx(trace.g2_zero * trace.asymptote)
    assert trace.bright_emitters == (0, 1)
    assert trace.dark_emitters == ()
    assert np.abs(trace.normalized[-205:] - 1.0).max() <= 0.05


@pytest.mark.parametrize("overrides", [{}, {"delta0": 0.013, "eta0": 0.07}],
                         ids=["default", "asymmetric"])
def test_g2_trace_matches_per_sample_expm(overrides):
    # independent propagation: each delay gets its own exponential of the
    # complex superoperator, applied to each bright emitter's post-jump state
    p = FullModelParams(**overrides)
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    trace = g2_trace(liou, rho, default_tau_max(p))
    n = trace.raw.size
    b = 1 << (n.bit_length() // 2)
    number_sum = sum(embed(QUBIT_NUMBER, j, liou.layout) for j in (0, 1))
    initial = [post_jump_state(rho, i)[0].matrix for i in trace.bright_emitters]
    for k in (1, b - 1, b, b + 1, 1000, n - 1):
        prop = scipy.linalg.expm(liou.superop * trace.taus[k])
        want = sum(np.trace(number_sum @ unvec(prop @ vec(m))).real for m in initial)
        assert abs(trace.raw[k] - want) <= 1e-10 * abs(want), k


def test_g2_builds_no_density_matrix(monkeypatch):
    # the zero-delay statistics are functionals of rho and the propagated
    # post-jump sum is a plain matrix: no state is built or validated
    p = FullModelParams()
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    built = []
    post_init = DensityMatrix.__post_init__

    def counting_post_init(self):
        built.append(self.layout)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    g2_zero(liou, rho)
    g2_trace(liou, rho, default_tau_max(p), 256)
    assert built == []


def test_g2_trace_records_dark_emitter():
    # undriven uncoupled second qubit relaxes dark; statistics use qubit 0
    p = FullModelParams(eta1=0.0, g1=0.0)
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    trace = g2_trace(liou, rho, 2000.0)
    assert trace.bright_emitters == (0,)
    assert trace.dark_emitters == (1,)
    assert np.abs(trace.normalized[-20:] - 1.0).max() <= 0.05


def test_g2_trace_rejects_undriven_model():
    p = FullModelParams(eta0=0.0, eta1=0.0)
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    with pytest.raises(DarkEmitterError):
        g2_trace(liou, rho, 1000.0)


def test_g2_trace_rejects_non_steady_input():
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    with pytest.raises(ValueError, match="steady"):
        g2_trace(liou, ground_state(liou.layout), 1000.0)


def test_g2_trace_grid_validation():
    liou = build_liouvillian(*build_full_model(FullModelParams()))
    rho = steady_state(liou)
    with pytest.raises(ValueError):
        g2_trace(liou, rho, -5.0)
    with pytest.raises(ValueError):
        g2_trace(liou, rho, np.inf)
    with pytest.raises(ValueError):
        g2_trace(liou, rho, 1000.0, n_samples=1000)
    with pytest.raises(ValueError):
        g2_trace(liou, rho, 1000.0, n_samples=128)


def test_g2_trace_unconverged_tail_raises():
    p = FullModelParams()
    liou = build_liouvillian(*build_full_model(p))
    rho = steady_state(liou)
    with pytest.raises(NumericalError, match="tail"):
        g2_trace(liou, rho, 50.0)


def test_default_tau_max_regimes():
    p = FullModelParams()
    e = adiabatic_eliminate(p)
    assert default_tau_max(p) == pytest.approx(50.0 / min(e.gamma00, e.gamma11))
    # fast relaxation leaves the oscillation window in charge
    q = FullModelParams(gamma_r0=1.0, gamma_r1=1.0)
    assert default_tau_max(q) == pytest.approx(20.0 * np.pi / rabi_frequency(q))


def test_default_tau_max_eliminates_once():
    # outside weak coupling the elimination warns; one window, one warning
    p = FullModelParams(g0=0.3)
    with pytest.warns(UserWarning, match="untrustworthy") as record:
        default_tau_max(p)
    assert len(record) == 1


def synthetic_trace(tau_max, n, freq=0.02, depth=0.8, decay=1500.0):
    taus = np.linspace(0.0, tau_max, n)
    normalized = 1.0 - depth * np.cos(2 * np.pi * freq * taus) * np.exp(-taus / decay)
    return CorrelationTrace(
        taus=taus, raw=2.0 * normalized, normalized=normalized, asymptote=2.0,
        g2_zero=float(normalized[0]), bright_emitters=(0, 1), dark_emitters=())


def test_extract_timescale_recovers_known_tone():
    trace = synthetic_trace(2000.0, 4096)
    res = extract_timescale(trace, 50e12)
    bin_width = 1.0 / 2000.0
    assert abs(res.peak_frequency - 0.02) < bin_width
    assert res.period_native == pytest.approx(1.0 / res.peak_frequency)
    assert res.period_seconds == pytest.approx(res.period_native / 50e12)
    assert res.flatness >= 3.0


def test_extract_timescale_stable_under_window_doubling():
    res1 = extract_timescale(synthetic_trace(2000.0, 4096), 50e12)
    res2 = extract_timescale(synthetic_trace(4000.0, 8192), 50e12)
    assert abs(res1.peak_frequency - res2.peak_frequency) < 1.0 / 2000.0


def test_extract_timescale_flat_trace_raises():
    taus = np.linspace(0.0, 2000.0, 4096)
    flat = CorrelationTrace(
        taus=taus, raw=np.full(4096, 2.0), normalized=np.ones(4096),
        asymptote=2.0, g2_zero=1.0, bright_emitters=(0, 1), dark_emitters=())
    with pytest.raises(FlatSpectrumError):
        extract_timescale(flat, 50e12)


def test_extract_timescale_monotone_relaxation_raises():
    taus = np.linspace(0.0, 2000.0, 4096)
    normalized = 1.0 - np.exp(-taus / 300.0)
    trace = CorrelationTrace(
        taus=taus, raw=2.0 * normalized, normalized=normalized, asymptote=2.0,
        g2_zero=0.0, bright_emitters=(0, 1), dark_emitters=())
    with pytest.raises(FlatSpectrumError):
        extract_timescale(trace, 50e12)


def test_extract_timescale_requires_positive_rate():
    with pytest.raises(ValueError):
        extract_timescale(synthetic_trace(2000.0, 4096), 0.0)


def test_correlation_trace_arrays_read_only():
    trace = synthetic_trace(2000.0, 4096)
    for arr in (trace.taus, trace.raw, trace.normalized):
        with pytest.raises(ValueError):
            arr[0] = 5.0
