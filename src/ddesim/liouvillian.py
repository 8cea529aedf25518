"""Lindblad generators: construction, propagation, steady states.

The generator rho_dot = -i[H, rho] + sum_k gamma_k (L_k rho L_k+ - {L_k+ L_k, rho}/2)
is stored as one real matrix. The orthonormal Hermitian basis
{E_ii, (E_ij + E_ji)/sqrt(2), i (E_ij - E_ji)/sqrt(2) : i < j} is the
unitary W on column-stacked vectorized matrices, vec(A X B) =
(B^T kron A) vec(X), with at most two nonzeros per column. L maps Hermitian
matrices to Hermitian matrices, so L_H = W+ L W is a real d^2 x d^2 matrix.
A Hermitian rho has the real coordinates c = W+ vec(rho); its trace is the
sum of the diagonal coordinates and Tr(N rho) = c_N . c_rho.

L_H is assembled from the nonzero entries of the effective non-Hermitian
Hamiltonian K = -i H - (1/2) sum_k gamma_k L_k+ L_k and of the jump
operators, never from the complex superoperator: each entry
B[x, u] conj(A[y, v]) of a term X -> B X A+ lands on at most four entries of
L_H, and all of them are summed into a dense array by one scatter. That
scatter, taken before its sum, is also what models.full_model_liouvillian
tabulates once per model structure, so that a parameter map evaluates each
cell's L_H as one linear combination. The steady state is one real LU solve
of L_H with the trace condition substituted for its first row.

Propagation works on the coordinates. On a uniform time grid the real step
operator expm(L_H dt) is formed once by scaling and squaring and the
coordinates are stepped by matrix-vector products. Unlike an
eigendecomposition of L, whose eigenbasis becomes ill-conditioned near
exceptional points, the scaling and squaring does not depend on that
conditioning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .operators import (
    EIG_TOL,
    DensityMatrix,
    NegativeEigenvalueError,
    SpaceLayout,
    is_hermitian,
)

# residual and drift tolerances, about 100x the double-precision noise
# floor at total_dim <= 16
RESIDUAL_TOL = 1e-10
# reciprocal condition number of the bordered steady-state matrix below which
# the kernel counts as degenerate; it tracks the second-smallest |eigenvalue|
# (about 0.12x) and sits between healthy cells (>= 2e-8) and decoupled
# sectors (~1e-20)
RCOND_TOL = 1e-11
TRACE_DRIFT_TOL = 1e-9
# largest deviation of a time step from the mean step, relative to it, that
# still counts as a uniform grid (np.linspace rounds at about 1e-13)
UNIFORM_GRID_RTOL = 1e-9

# name of the propagation path, recorded in CLI outputs
PROPAGATION_METHOD = "expm"


class NumericalError(RuntimeError):
    """A numerical tolerance contract was violated.

    The one class of failure that parameter choices can cause: a sweep flags
    the cell with it, the CLI exits with code 2. Any other exception is a
    programming error and propagates.
    """


class DegenerateSteadyStateError(NumericalError):
    """The Liouvillian kernel is (numerically) degenerate: no unique steady state."""


@dataclass(frozen=True)
class JumpTerm:
    """One dissipation channel: collapse operator with a nonnegative rate."""

    rate: float
    operator: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"jump rate must be nonnegative, got {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"jump operator must be square, got shape {op.shape}")
        op = op.copy()
        op.flags.writeable = False
        object.__setattr__(self, "operator", op)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class Liouvillian:
    """Lindblad generator on a labeled space, stored as the real matrix L_H = W+ L W.

    generator acts on the real coordinates of the Hermitian basis (module
    docstring) and is read-only; every solver and propagation path reads it.
    Immutable after construction; safe to share across sweep workers.
    """

    layout: SpaceLayout
    generator: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def superop(self) -> np.ndarray:
        """Complex superoperator W L_H W+ on column-stacked vec(rho).

        Rebuilt from the generator on every access, for oracles and callers
        that want the vectorized form; no solver or propagation path reads it.
        """
        return _hermitian_vec(_hermitian_vec(self.generator).conj().T).conj().T


def build_liouvillian(h: np.ndarray, jumps: list[JumpTerm] | tuple[JumpTerm, ...],
                      layout: SpaceLayout | None = None) -> Liouvillian:
    """Assemble the real generator L_H for Hamiltonian h and jump terms.

    The superoperator is the sum of the terms X -> B X A+ with entries
    S[x + y d, u + v d] = B[x, u] conj(A[y, v]): K X + X K+ with
    K = -i h - (1/2) sum_j rate_j L_j+ L_j, and rate_j L_j X L_j+ for each
    channel with nonzero rate. Only the nonzero entries of K and of the L_j
    are visited. On Hermitian X the real part of W+ (X K+) W equals that of
    W+ (K X) W, so K enters once, doubled. Each entry S[p, q] adds
    Re(conj(W[p, a]) S[p, q] W[q, b]) to L_H[a, b] for the at most two basis
    columns a of position p and b of position q, and one bincount sums all
    of them. The result is read-only.

    Parameters
    ----------
    h : ndarray
        Hamiltonian, Hermitian within 1e-10.
    jumps : sequence of JumpTerm
        Dissipation channels; operator dims must match h.
    layout : SpaceLayout, optional
        Subsystem structure of the space h acts on. Defaults to a single
        subsystem of matching dimension.

    Raises
    ------
    ValueError
        If h is not square or not Hermitian, the layout or a jump operator
        (whatever its rate) does not match its dimension, or the generator
        has a non-finite entry.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if not is_hermitian(h, 1e-10):
        raise ValueError("Hamiltonian is not Hermitian within 1e-10")
    d = h.shape[0]
    if layout is None:
        layout = SpaceLayout((d,))
    if layout.total_dim != d:
        raise ValueError(f"layout dimension {layout.total_dim} does not match Hamiltonian dim {d}")

    for j in jumps:
        if j.operator.shape != (d, d):
            raise ValueError(f"jump operator shape {j.operator.shape} does not match dim {d}")
    n = d * d
    index, weights = _generator_scatter(h, jumps)
    generator = np.bincount(index, weights, minlength=n * n).reshape(n, n)
    if not np.all(np.isfinite(generator)):
        raise ValueError("generator has non-finite entries")

    generator.flags.writeable = False
    return Liouvillian(layout, generator)


def _generator_scatter(h: np.ndarray, jumps) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the d^2 x d^2 generator L_H and the real weights summed there.

    The scatter of build_liouvillian, before its bincount: L_H is
    np.bincount(index, weights) reshaped. h and the jump operators must
    already be validated as d x d.
    """
    d = h.shape[0]
    k = -1j * h
    live = []
    for j in jumps:
        if j.rate != 0.0:
            live.append(j)
            k -= 0.5 * j.rate * (j.operator.conj().T @ j.operator)

    # channel entries: every pair of nonzeros of one operator
    rates = np.array([j.rate for j in live])
    ops = np.array([j.operator for j in live], dtype=complex).reshape(-1, d, d)
    chan, x, u = np.nonzero(ops)
    op_vals = ops[chan, x, u]
    a, b = np.nonzero(chan[:, None] == chan[None, :])
    # K entries: K[x, u] at every y = v
    kx, ku = np.nonzero(k)
    offsets = np.arange(d) * d
    p = np.concatenate(((kx[:, None] + offsets).ravel(), x[a] + x[b] * d))
    q = np.concatenate(((ku[:, None] + offsets).ravel(), u[a] + u[b] * d))
    vals = np.concatenate((np.repeat(2.0 * k[kx, ku], d),
                           rates[chan[a]] * op_vals[a] * op_vals[b].conj()))

    n = d * d
    col, coef = _basis_map(d)
    index = col.take(p, axis=1)[:, None] * n + col.take(q, axis=1)[None]
    weights = (coef.take(p, axis=1).conj()[:, None] * (coef.take(q, axis=1) * vals)[None]).real
    return index.ravel(), weights.ravel()


def apply_liouvillian(l: Liouvillian, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Evaluate d(rho)/dt for a state; Hermitian and traceless up to roundoff.

    L is complex-linear, so a matrix that is not Hermitian is evaluated as
    its Hermitian part plus i times the Hermitian part of -i rho.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (l.dim, l.dim):
        raise ValueError(f"state shape {m.shape} does not match Liouvillian dim {l.dim}")
    v = vec(m)
    out = _hermitian_vec(l.generator @ _hermitian_coords(np.stack((v, -1j * v), axis=1)))
    return unvec(out[:, 0] + 1j * out[:, 1])


_SQRT_HALF = np.sqrt(0.5)


@functools.lru_cache(maxsize=16)
def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked positions of rho[i, i], of rho[i, j] (i < j) and of rho[j, i], read-only."""
    i, j = np.triu_indices(d, 1)
    out = np.arange(d) * (d + 1), i + j * d, j + i * d
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _basis_map(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter tables of W for build_liouvillian, each of shape (2, d^2), read-only.

    Column p holds the at most two basis columns a with W[p, a] != 0 and
    the values W[p, a]; a diagonal position has one, and its second slot
    has coefficient 0.
    """
    diag, upper, lower = _hermitian_index(d)
    pair = np.arange(upper.size)
    col = np.zeros((2, d * d), dtype=np.intp)
    col[0, diag] = np.arange(d)
    col[0, upper] = col[0, lower] = d + pair
    col[1, upper] = col[1, lower] = d + upper.size + pair
    coef = np.zeros((2, d * d), dtype=complex)
    coef[0, diag] = 1.0
    coef[0, upper] = coef[0, lower] = _SQRT_HALF
    coef[1, upper] = 1j * _SQRT_HALF
    coef[1, lower] = -1j * _SQRT_HALF
    col.flags.writeable = coef.flags.writeable = False
    return col, coef


def _hermitian_coords(v: np.ndarray) -> np.ndarray:
    """Real coordinates Re(W+ v) of column-stacked matrices along axis 0.

    For a Hermitian matrix these are its diagonal, then sqrt(2) Re and
    sqrt(2) Im of its upper triangle; other matrices map to their Hermitian
    part.
    """
    diag, upper, lower = _hermitian_index(int(round(np.sqrt(v.shape[0]))))
    s = _SQRT_HALF
    return np.concatenate((v[diag].real, s * (v[upper] + v[lower]).real,
                           s * (v[upper] - v[lower]).imag))


def _hermitian_vec(c: np.ndarray) -> np.ndarray:
    """Column-stacked matrices W c for coordinates c along axis 0.

    Real c gives Hermitian matrices; W is linear, so complex c is accepted.
    """
    d = int(round(np.sqrt(c.shape[0])))
    diag, upper, lower = _hermitian_index(d)
    sym, anti = _SQRT_HALF * c[d:d + upper.size], _SQRT_HALF * c[d + upper.size:]
    v = np.empty(c.shape, dtype=complex)
    v[diag] = c[:d]
    v[upper] = sym + 1j * anti
    v[lower] = sym - 1j * anti
    return v


@dataclass(frozen=True)
class EvolveResult:
    """Sampled Lindblad trajectory."""

    times: np.ndarray = field(repr=False)
    states: tuple[DensityMatrix, ...] = field(repr=False)
    max_trace_drift: float = 0.0


def _uniform_times(times) -> tuple[np.ndarray, float]:
    """Validated sample times and their common step (0.0 for one sample)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if t[0] < 0:
        raise ValueError("times must be nonnegative")
    if t.size == 1:
        return t, 0.0
    steps = np.diff(t)
    if not np.all(steps > 0):
        raise ValueError("times must be strictly increasing")
    dt = (t[-1] - t[0]) / (t.size - 1)
    if np.max(np.abs(steps - dt)) > UNIFORM_GRID_RTOL * dt:
        raise ValueError("times must be uniformly spaced")
    return t, dt


def evolve(l: Liouvillian, rho0: DensityMatrix, times) -> EvolveResult:
    """Propagate rho0 along a uniform grid of sample times.

    Works on the real coordinates c of the Hermitian basis (module
    docstring): the first sample is expm(L_H t[0]) c(rho0), each later one
    the real step operator expm(L_H dt) applied to the previous sample. The
    trace drift, the sum of the diagonal coordinates minus 1, is measured
    before each sampled state is trace-renormalized and is reported in the
    result.

    Raises
    ------
    ValueError
        If times is empty, negative, not strictly increasing or not
        uniformly spaced.
    NumericalError
        If the trace drifts by more than 1e-9.
    """
    if rho0.layout.total_dim != l.dim:
        raise ValueError("initial state dimension does not match Liouvillian")
    t, dt = _uniform_times(times)

    cols = np.empty((l.dim * l.dim, t.size))
    cols[:, 0] = scipy.linalg.expm(l.generator * t[0]) @ _hermitian_coords(vec(rho0.matrix))
    if t.size > 1:
        step = scipy.linalg.expm(l.generator * dt)
        for k in range(1, t.size):
            cols[:, k] = step @ cols[:, k - 1]
    drift = float(np.max(np.abs(cols[:l.dim].sum(axis=0) - 1.0)))
    if drift > TRACE_DRIFT_TOL:
        raise NumericalError(f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL:.0e}")

    mats = _hermitian_vec(cols)
    states = tuple(
        DensityMatrix.from_matrix(rho0.layout, unvec(mats[:, k]), normalize=True)
        for k in range(t.size))
    return EvolveResult(times=t, states=states, max_trace_drift=drift)


def steady_state(l: Liouvillian) -> DensityMatrix:
    """Unique fixed point of the generator.

    One real LU solve of L_H with its first row replaced by the trace
    condition Tr(rho) = 1, which is the sum of the diagonal coordinates;
    the solution is trace-normalized and is Hermitian by construction. The
    reciprocal condition number of the same LU factor decides whether the
    kernel is unique. The one eigendecomposition is the positivity check of
    the DensityMatrix construction.

    Raises
    ------
    DegenerateSteadyStateError
        If the bordered matrix is singular or its reciprocal condition
        number is below 1e-11 (decoupled sectors).
    NumericalError
        If the residual is not below 1e-10 or the state has an eigenvalue
        below -1e-9.
    """
    d = l.dim
    a = np.array(l.generator, order="F")
    a[0] = 0.0
    a[0, :d] = 1.0
    anorm = np.linalg.norm(a, 1)
    lu, piv, info = dgetrf(a, overwrite_a=True)
    rcond = dgecon(lu, anorm)[0] if info == 0 else 0.0
    if rcond < RCOND_TOL:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel is degenerate (reciprocal condition {rcond:.3e} of "
            f"the trace-bordered generator is below {RCOND_TOL:.0e}); no unique "
            "steady state. This signals a decoupled-sector parameter choice.")
    b = np.zeros(d * d)
    b[0] = 1.0
    c = dgetrs(lu, piv, b)[0]
    c = c / c[:d].sum()
    res = _residual(l, c)
    if not res < RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")
    try:
        return DensityMatrix(l.layout, unvec(_hermitian_vec(c)))
    except NegativeEigenvalueError as exc:
        raise NumericalError(f"steady state has negative eigenvalue {exc.min_eig:.3e} "
                             f"below -{EIG_TOL:.0e}") from None


def _residual(l: Liouvillian, c: np.ndarray) -> float:
    """Max-entry norm of the complex matrix L(rho) for the coordinates c of rho."""
    return float(np.max(np.abs(_hermitian_vec(l.generator @ c))))


def steady_state_residual(l: Liouvillian, rho: DensityMatrix) -> float:
    """Max-entry norm of L(rho); < 1e-10 for accepted steady states."""
    return _residual(l, _hermitian_coords(vec(rho.matrix)))
