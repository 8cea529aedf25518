"""Model builders: full qubit-qubit-boson system, adiabatically eliminated
two-qubit dynamics, the collective (Dicke) basis form, and the closed-form
population oracle for the symmetric driving case.

Every float parameter of the full model except gamma_a_abs enters its
generator linearly, L_H(p) = L_0 + sum_k p_k G_k. full_model_liouvillian
evaluates that sum from a table built once per (n_max,
relaxation_operator), so a parameter map pays only for the sum; the
embedded operators of build_full_model are cached per n_max.

All energies and rates are in units of the boson decay rate (fixed to 1).
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .liouvillian import JumpTerm, Liouvillian, _generator_scatter
from .operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    TWO_QUBIT_LAYOUT,
    DensityMatrix,
    SpaceLayout,
    boson_destroy,
    embed,
    partial_trace,
    qubit_pair_boson_layout,
)

WEAK_COUPLING_LIMIT = 0.2
# largest magnitude of a numeric parameter: the product of any two stays
# finite, so no parameter choice can overflow the assembled generator
PARAM_LIMIT = 1e150


@dataclass(frozen=True)
class FullModelParams:
    """All physical knobs of the driven two-qubit + lossy-boson model.

    Detunings (delta*), drives (eta*), couplings (g*) and rates (gamma_r*,
    gamma_d*) are dimensionless ratios of the boson decay rate; gamma_a_abs
    is that decay rate in Hz, must be positive, and only enters
    absolute-time conversion. Every field but relaxation_operator must be
    a real number (numbers.Real, never complex), finite with magnitude at
    most 1e150, and n_max an integer; the model builders rely on this one
    check.
    relaxation_operator selects the qubit relaxation jump: "lower" is the
    physical choice, "raise" reproduces a raising-operator variant for
    comparison.
    """

    delta0: float = 0.01
    delta1: float = -0.01
    delta_a: float = 0.0
    g0: float = 0.05
    g1: float = 0.05
    eta0: float = 0.05
    eta1: float = 0.05
    eta_a: float = 0.0
    gamma_r0: float = 5e-8
    gamma_r1: float = 5e-8
    gamma_d0: float = 1e-7
    gamma_d1: float = 1e-7
    gamma_a_abs: float = 50e12
    n_max: int = 2
    relaxation_operator: str = "lower"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.name == "relaxation_operator":
                continue
            v = getattr(self, f.name)
            # int and float first: they skip the slower numbers.Real check
            if not isinstance(v, (int, float, numbers.Real)):
                raise ValueError(f"{f.name} must be a real number, got {v!r}")
            # compared in float64: a float32 comparison rounds the limit up to inf
            if not abs(float(v)) <= PARAM_LIMIT:
                raise ValueError(
                    f"{f.name} must be finite with magnitude at most {PARAM_LIMIT:.0e}, got {v}")
        for name in ("gamma_r0", "gamma_r1", "gamma_d0", "gamma_d1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.gamma_a_abs > 0:
            raise ValueError(f"gamma_a_abs must be positive, got {self.gamma_a_abs}")
        if not isinstance(self.n_max, numbers.Integral) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")
        if self.relaxation_operator not in ("lower", "raise"):
            raise ValueError(
                f"relaxation_operator must be 'lower' or 'raise', got {self.relaxation_operator!r}")

    @property
    def weak_coupling_advisory(self) -> bool:
        """True when couplings or drives leave the weak-coupling regime."""
        return max(abs(self.g0), abs(self.g1), abs(self.eta0), abs(self.eta1)) > WEAK_COUPLING_LIMIT

    def swapped_qubits(self) -> "FullModelParams":
        """Parameters with the two qubit labels exchanged."""
        return dataclasses.replace(
            self,
            delta0=self.delta1, delta1=self.delta0,
            g0=self.g1, g1=self.g0,
            eta0=self.eta1, eta1=self.eta0,
            gamma_r0=self.gamma_r1, gamma_r1=self.gamma_r0,
            gamma_d0=self.gamma_d1, gamma_d1=self.gamma_d0,
        )


# the float parameters; all but the absolute rate gamma_a_abs enter the
# generator linearly
_FLOAT_FIELDS = tuple(
    f.name for f in dataclasses.fields(FullModelParams)
    if f.type == "float" or isinstance(f.default, float))
_LINEAR_FIELDS = tuple(name for name in _FLOAT_FIELDS if name != "gamma_a_abs")


@functools.lru_cache(maxsize=8)
def _full_model_operators(n_max: int):
    """Layout, boson a, and (sigma+, sigma-, sigma_z) of each qubit, embedded; read-only."""
    layout = qubit_pair_boson_layout(n_max)
    a = embed(boson_destroy(n_max), 2, layout)
    qubits = tuple(tuple(embed(op, i, layout) for op in (SIGMA_PLUS, SIGMA_MINUS, SIGMA_Z))
                   for i in (0, 1))
    for op in (a, *qubits[0], *qubits[1]):
        op.flags.writeable = False
    return layout, a, qubits


def build_full_model(p: FullModelParams) -> tuple[np.ndarray, tuple[JumpTerm, ...], SpaceLayout]:
    """Hamiltonian, jump terms and layout of the full model.

    H = sum_i [delta_i sigma_i+ sigma_i- - eta_i (sigma_i+ + sigma_i-)
               - g_i (sigma_i+ a + sigma_i- a+)]
        + delta_a a+ a - eta_a (a + a+)

    on the qubit0 (x) qubit1 (x) boson space, with jumps: boson decay at
    rate 1, qubit relaxation at gamma_r_i, qubit dephasing (sigma_z) at
    gamma_d_i.
    """
    layout, a, qubits = _full_model_operators(p.n_max)
    ad = a.conj().T

    h = p.delta_a * (ad @ a) - p.eta_a * (a + ad)
    jumps = [JumpTerm(1.0, a)]
    for (delta, eta, g, gamma_r, gamma_d), (sp, sm, sz) in zip((
            (p.delta0, p.eta0, p.g0, p.gamma_r0, p.gamma_d0),
            (p.delta1, p.eta1, p.g1, p.gamma_r1, p.gamma_d1)), qubits):
        h = h + delta * (sp @ sm) - eta * (sp + sm) - g * (sp @ a + sm @ ad)
        jumps.append(JumpTerm(gamma_r, sm if p.relaxation_operator == "lower" else sp))
        jumps.append(JumpTerm(gamma_d, sz))
    return h, tuple(jumps), layout


@functools.lru_cache(maxsize=8)
def _affine_generator(n_max: int, relaxation_operator: str) -> tuple[np.ndarray, np.ndarray]:
    """Table of L_H(p) = L_0 + sum_k p_k G_k: flat indices and coefficients, read-only.

    index holds the sorted flat positions in L_H that some term makes
    nonzero. At those positions, coef[:, 0] is L_0, the model with every
    linear parameter 0 (boson decay only), and coef[:, 1 + k] is
    G_k = L(p_k = 1) - L_0 for the k-th of _LINEAR_FIELDS. Each model's
    generator is summed from build_liouvillian's own scatter.
    """
    base = FullModelParams(n_max=n_max, relaxation_operator=relaxation_operator,
                           **dict.fromkeys(_LINEAR_FIELDS, 0.0))
    scatters = [_generator_scatter(*build_full_model(q)[:2])
                for q in (base, *(dataclasses.replace(base, **{name: 1.0})
                                  for name in _LINEAR_FIELDS))]
    index = np.unique(np.concatenate([i for i, _ in scatters]))
    coef = np.stack([np.bincount(np.searchsorted(index, i), w, minlength=index.size)
                     for i, w in scatters], axis=1)
    coef[:, 1:] -= coef[:, :1]
    # positions whose terms cancel exactly in every model stay zero
    live = np.any(coef != 0.0, axis=1)
    index, coef = index[live], coef[live]
    index.flags.writeable = coef.flags.writeable = False
    return index, coef


def full_model_liouvillian(p: FullModelParams) -> Liouvillian:
    """Generator of the full model: build_liouvillian(*build_full_model(p)) up to roundoff.

    Evaluates L_H(p) = L_0 + sum_k p_k G_k from the table cached per
    (n_max, relaxation_operator): one (nnz x 13) matrix-vector product
    scattered into the zero matrix, where nnz is the number of entries some
    term makes nonzero. The generator is read-only.
    """
    index, coef = _affine_generator(p.n_max, p.relaxation_operator)
    values = coef @ np.array([1.0, *(getattr(p, name) for name in _LINEAR_FIELDS)])
    layout = qubit_pair_boson_layout(p.n_max)
    n = layout.total_dim ** 2
    generator = np.zeros(n * n)
    generator[index] = values
    generator = generator.reshape(n, n)
    generator.flags.writeable = False
    return Liouvillian(layout, generator)


def _psd_floor(rates: np.ndarray) -> float:
    """Most negative eigenvalue roundoff may give a PSD rate matrix: -1e-12 of its largest |entry|."""
    return -1e-12 * float(np.abs(rates).max())


@dataclass(frozen=True)
class EffectiveParams:
    """Adiabatically eliminated two-qubit parameters.

    The 2x2 dissipator rate matrix [[gamma00, gamma01], [gamma01, gamma11]]
    must be positive semidefinite for a valid Lindblad form, within 1e-12 of
    its largest |entry| (eigvalsh roundoff scales with the matrix).
    """

    dtilde0: float
    dtilde1: float
    etatilde0: float
    etatilde1: float
    gtilde: float
    gamma00: float
    gamma11: float
    gamma01: float
    z: float

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError(f"z must be positive, got {self.z}")
        w = np.linalg.eigvalsh(self.rate_matrix)
        floor = _psd_floor(self.rate_matrix)
        if w.min() < floor:
            raise ValueError(
                f"dissipator rate matrix has negative eigenvalue {w.min():.3e} below {floor:.1e}")

    @property
    def rate_matrix(self) -> np.ndarray:
        return np.array([[self.gamma00, self.gamma01],
                         [self.gamma01, self.gamma11]], dtype=float)


def adiabatic_eliminate(p: FullModelParams) -> EffectiveParams:
    """Eliminate the fast boson mode, leaving effective two-qubit parameters.

    With the boson decay rate 1 and Z = 1/4 + delta_a^2:

        dtilde_i   = delta_i - g_i^2 delta_a / Z
        etatilde_i = eta_i + g_i delta_a eta_a / Z
        gtilde     = g0 g1 delta_a / Z
        gamma_ii   = gamma_r_i + g_i^2 / Z
        gamma_01   = g0 g1 / Z

    Dephasing is not part of the eliminated dissipator and is dropped here;
    it is retained only in the full model.
    """
    if p.weak_coupling_advisory:
        warnings.warn(
            "couplings or drives exceed 0.2 of the boson decay rate; the "
            "adiabatically eliminated model is untrustworthy here",
            stacklevel=2)
    z = 0.25 + p.delta_a ** 2
    return EffectiveParams(
        dtilde0=p.delta0 - p.g0 ** 2 * p.delta_a / z,
        dtilde1=p.delta1 - p.g1 ** 2 * p.delta_a / z,
        etatilde0=p.eta0 + p.g0 * p.delta_a * p.eta_a / z,
        etatilde1=p.eta1 + p.g1 * p.delta_a * p.eta_a / z,
        gtilde=p.g0 * p.g1 * p.delta_a / z,
        gamma00=p.gamma_r0 + p.g0 ** 2 / z,
        gamma11=p.gamma_r1 + p.g1 ** 2 / z,
        gamma01=p.g0 * p.g1 / z,
        z=z,
    )


def build_effective_model(e: EffectiveParams) -> tuple[np.ndarray, tuple[JumpTerm, ...], SpaceLayout]:
    """4x4 effective Hamiltonian and collective dissipator.

    H_qb = sum_i [dtilde_i sigma_i+ sigma_i- - etatilde_i (sigma_i+ + sigma_i-)]
           - gtilde (sigma_0+ sigma_1- + sigma_1+ sigma_0-)

    The collective dissipator sum_ij gamma_ij (sigma_i- rho sigma_j+ - ...)
    is realized by eigendecomposing the symmetric 2x2 rate matrix into
    independent jump channels c_k = sum_i v_ik sigma_i- at rate w_k, which
    is exactly equivalent and yields nonnegative rates when the matrix is
    positive semidefinite.
    """
    layout = TWO_QUBIT_LAYOUT
    sp = [embed(SIGMA_PLUS, i, layout) for i in (0, 1)]
    sm = [embed(SIGMA_MINUS, i, layout) for i in (0, 1)]

    h = (e.dtilde0 * sp[0] @ sm[0] + e.dtilde1 * sp[1] @ sm[1]
         - e.etatilde0 * (sp[0] + sm[0]) - e.etatilde1 * (sp[1] + sm[1])
         - e.gtilde * (sp[0] @ sm[1] + sp[1] @ sm[0]))

    w, v = np.linalg.eigh(e.rate_matrix)  # PSD within _psd_floor: EffectiveParams checks it
    jumps = []
    for k in range(2):
        rate = float(w[k])
        if rate <= 0.0:
            continue
        jumps.append(JumpTerm(rate, v[0, k] * sm[0] + v[1, k] * sm[1]))
    return h, tuple(jumps), layout


def dicke_basis_vectors() -> np.ndarray:
    """Unitary whose columns are |E>, |S>, |A>, |G> in the computational basis.

    |E> = |ee>, |S> = (|eg> + |ge>)/sqrt(2), |A> = (|eg> - |ge>)/sqrt(2),
    |G> = |gg>, with computational indices |gg>=0, |ge>=1, |eg>=2, |ee>=3.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[3, 0] = 1.0                       # |E>
    u[2, 1] = u[1, 1] = 1 / np.sqrt(2)  # |S>
    u[2, 2] = 1 / np.sqrt(2)            # |A>
    u[1, 2] = -1 / np.sqrt(2)
    u[0, 3] = 1.0                       # |G>
    return u


@dataclass(frozen=True)
class DickeParams:
    """Collective-basis parameters of the effective model.

    delta_E/S/A are the derived Dicke-level energies, delta_minus the S-A
    mixing, eta_plus/eta_minus = (etatilde0 +/- etatilde1)/sqrt(2) the
    (anti)symmetric drives, gamma_S/gamma_A the super-/sub-radiant rates.
    diagnostics lists derivation-vs-literature labeling discrepancies.
    """

    delta_E: float
    delta_S: float
    delta_A: float
    delta_minus: float
    eta_plus: float
    eta_minus: float
    gamma_S: float
    gamma_A: float
    diagnostics: tuple[str, ...] = ()


def dicke_hamiltonian(d: DickeParams) -> np.ndarray:
    """4x4 Hamiltonian in the (E, S, A, G) ordered Dicke basis.

    Uses the derived coupling pattern: eta_plus drives |S><G| and |S><E|,
    eta_minus drives |A><G| and (with opposite sign) |A><E|.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = d.delta_E
    h[1, 1] = d.delta_S
    h[2, 2] = d.delta_A
    h[1, 2] = h[2, 1] = d.delta_minus
    h[1, 3] = h[3, 1] = -d.eta_plus   # S <-> G
    h[0, 1] = h[1, 0] = -d.eta_plus   # E <-> S
    h[2, 3] = h[3, 2] = -d.eta_minus  # A <-> G
    h[0, 2] = h[2, 0] = +d.eta_minus  # E <-> A
    return h


def dicke_transform(e: EffectiveParams) -> DickeParams:
    """Collective-basis form of the effective model by explicit basis change.

    The parameters are read off U+ H_qb U rather than transcribed from the
    literature form; labeling disagreements with that form are reported in
    the diagnostics and never silently corrected.
    validate's collective-basis check holds them to the analytic relations.
    """
    h_qb, _, _ = build_effective_model(e)
    u = dicke_basis_vectors()
    hd = u.conj().T @ h_qb @ u
    gamma_sum = 0.5 * (e.gamma00 + e.gamma11)
    return DickeParams(
        delta_E=float(hd[0, 0].real),
        delta_S=float(hd[1, 1].real),
        delta_A=float(hd[2, 2].real),
        delta_minus=float(hd[1, 2].real),
        eta_plus=(e.etatilde0 + e.etatilde1) / np.sqrt(2),
        eta_minus=(e.etatilde0 - e.etatilde1) / np.sqrt(2),
        gamma_S=gamma_sum + e.gamma01,
        gamma_A=gamma_sum - e.gamma01,
        diagnostics=(
            "derived drive pattern: -eta_plus couples |S> to |G> and |E>, "
            "-eta_minus couples |A> to |G> (+eta_minus to |E>); the commonly "
            "printed form assigns eta_minus to |S> and eta_plus to |A>",
            "derived level shifts: delta_S = Delta_plus - gtilde and "
            "delta_A = Delta_plus + gtilde; the commonly printed form swaps "
            "the +/- assignment",
        ),
    )


def analytic_populations(delta: float, eta: float, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Dicke populations (rho_E, rho_S, rho_A, rho_G) from |gg>.

    Pure formula evaluator with Omega = sqrt(delta^2 + eta^2):

        rho_E = (delta^2 + eta^2 cos(2 t Omega) - Omega^2)^2 / (4 Omega^4)
        rho_S = eta^2 sin^2(2 t Omega) / (2 Omega^2)
        rho_A = 2 delta^2 eta^2 sin^4(t Omega) / Omega^4
        rho_G = (delta^2 + eta^2 cos(2 t Omega) + Omega^2)^2 / (4 Omega^4)

    These solve the dissipationless effective dynamics for anti-symmetric
    detunings D0 = -D1 and equal drives eta when called with
    delta = (D0 - D1)/4; see closed_form_inputs for the general mapping.
    The four outputs sum to 1 for any (delta, eta) != (0, 0).

    t may be a scalar or array; outputs broadcast accordingly.
    """
    omega_sq = delta ** 2 + eta ** 2
    if omega_sq == 0.0:
        raise ValueError("delta and eta cannot both be zero (no oscillation frequency)")
    omega = np.sqrt(omega_sq)
    t = np.asarray(t, dtype=float)
    c2 = np.cos(2 * t * omega)
    s = np.sin(t * omega)
    rho_e = (delta ** 2 + eta ** 2 * c2 - omega_sq) ** 2 / (4 * omega_sq ** 2)
    rho_s = eta ** 2 * np.sin(2 * t * omega) ** 2 / (2 * omega_sq)
    rho_a = 2 * delta ** 2 * eta ** 2 * s ** 4 / omega_sq ** 2
    rho_g = (delta ** 2 + eta ** 2 * c2 + omega_sq) ** 2 / (4 * omega_sq ** 2)
    return rho_e, rho_s, rho_a, rho_g


def closed_form_inputs(p: FullModelParams) -> tuple[float, float]:
    """(delta, eta) arguments of analytic_populations for physical parameters.

    The closed forms describe equal effective drives. The detuning argument
    is a quarter of the effective detuning difference: the S-A mixing is
    (dtilde0 - dtilde1)/2 and the formulas' delta is half of that again,
    which is what makes them solve the Schrodinger equation of the
    effective Hamiltonian (checked against direct numerical evolution).
    """
    e = adiabatic_eliminate(p)
    if abs(e.etatilde0 - e.etatilde1) > 1e-12:
        raise ValueError(
            "closed-form populations require equal effective drives; got "
            f"etatilde0={e.etatilde0}, etatilde1={e.etatilde1}")
    delta = (e.dtilde0 - e.dtilde1) / 4.0
    eta = e.etatilde0
    return delta, eta


def rabi_frequency(p: FullModelParams) -> float:
    """Effective oscillation parameter Omega = sqrt(delta^2 + eta^2).

    Populations oscillate at angular frequency 2*Omega, so one full
    population cycle lasts pi/Omega. For unequal drives (no closed form)
    the RMS drive is used as the estimate.
    """
    return _rabi_frequency(adiabatic_eliminate(p))


def _rabi_frequency(e: EffectiveParams) -> float:
    """rabi_frequency from already eliminated parameters."""
    delta = (e.dtilde0 - e.dtilde1) / 4.0
    eta_est = np.sqrt(0.5 * (e.etatilde0 ** 2 + e.etatilde1 ** 2))
    return float(np.hypot(delta, eta_est))


def dicke_populations(rho: DensityMatrix) -> tuple[float, float, float, float]:
    """(rho_E, rho_S, rho_A, rho_G) of a two-qubit or qubit-pair-boson state."""
    if rho.layout.dims == (2, 2):
        r = rho
    elif rho.layout.dims[:2] == (2, 2):
        r = partial_trace(rho, (0, 1))
    else:
        raise ValueError(f"state layout {rho.layout.dims} has no leading qubit pair")
    u = dicke_basis_vectors()
    pops = tuple(float((u[:, k].conj() @ r.matrix @ u[:, k]).real) for k in range(4))
    return pops


def ground_state(layout: SpaceLayout) -> DensityMatrix:
    """|gg...0> density matrix on the given layout."""
    ket = np.zeros(layout.total_dim, dtype=complex)
    ket[0] = 1.0
    return DensityMatrix.pure(layout, ket)


def boson_number(layout: SpaceLayout) -> np.ndarray:
    """Boson number operator a+ a embedded in a qubit-pair-boson layout."""
    if len(layout.dims) != 3:
        raise ValueError(f"layout {layout.dims} has no boson subsystem")
    a = boson_destroy(layout.dims[2] - 1)
    return embed(a.conj().T @ a, 2, layout)
