"""Lindblad generators: construction, propagation, steady states.

The generator rho_dot = -i[H, rho] + sum_k gamma_k (L_k rho L_k+ - {L_k+ L_k, rho}/2)
is materialized as a dense superoperator acting on column-stacked vectorized
density matrices, vec(A X B) = (B^T kron A) vec(X). With the effective
non-Hermitian Hamiltonian K = -i H - (1/2) sum_k gamma_k L_k+ L_k it reads
1 kron K + conj(K) kron 1 + sum_k gamma_k conj(L_k) kron L_k, and it is
assembled without forming a Kronecker product: (A kron B)[a d + b, c d + e]
= A[a, c] B[b, e] makes the jump sum one matrix product and the K terms
adds on diagonal blocks. The steady state is one LU solve of the
superoperator with the trace condition substituted for its first row.

Propagation has one path, in real coordinates. The orthonormal Hermitian
basis {E_ii, (E_ij + E_ji)/sqrt(2), i (E_ij - E_ji)/sqrt(2) : i < j} is the
unitary W with at most two nonzeros per column. L maps Hermitian matrices to
Hermitian matrices, so L_H = W+ L W is a real d^2 x d^2 matrix; it is read
off the superoperator by index arithmetic, never by a product with W. A
Hermitian rho has the real coordinates c = W+ vec(rho); its trace is the sum
of the diagonal coordinates and Tr(N rho) = c_N . c_rho. On a uniform time
grid the real step operator expm(L_H dt) is formed once by scaling and
squaring and the coordinates are stepped by matrix-vector products. Unlike
an eigendecomposition of L, whose eigenbasis becomes ill-conditioned near
exceptional points, the scaling and squaring does not depend on that
conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .operators import (
    DensityMatrix,
    SpaceLayout,
    hermitize,
    is_hermitian,
)

# residual and drift tolerances, about 100x the double-precision noise
# floor at total_dim <= 16
RESIDUAL_TOL = 1e-10
# reciprocal condition number of the bordered steady-state matrix below which
# the kernel counts as degenerate; it tracks the second-smallest |eigenvalue|
# (about 0.13x) and sits between healthy cells (>= 2e-8) and decoupled
# sectors (~1e-19)
RCOND_TOL = 1e-11
TRACE_DRIFT_TOL = 1e-9
STEADY_EIG_TOL = 1e-9
EVOLVED_EIG_TOL = 1e-8
# largest deviation of a time step from the mean step, relative to it, that
# still counts as a uniform grid (np.linspace rounds at about 1e-13)
UNIFORM_GRID_RTOL = 1e-9

# name of the propagation path, recorded in CLI outputs
PROPAGATION_METHOD = "expm"


class NumericalError(RuntimeError):
    """A numerical tolerance contract was violated."""


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
    """Dense Lindblad superoperator on a labeled space.

    Immutable after construction; safe to share across sweep workers.
    """

    layout: SpaceLayout
    superop: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.layout.total_dim


def build_liouvillian(h: np.ndarray, jumps: list[JumpTerm] | tuple[JumpTerm, ...],
                      layout: SpaceLayout | None = None) -> Liouvillian:
    """Assemble the dense superoperator for Hamiltonian h and jump terms.

    It is 1 kron K + conj(K) kron 1 + sum_j rate_j conj(L_j) kron L_j with
    K = -i h - (1/2) sum_j rate_j L_j+ L_j. Entry [a, b, c, e] of A kron B,
    read as a (d, d, d, d) array, is A[a, c] B[b, e]. So the jump sum is one
    (d^2 x m) (m x d^2) product over the (a c), (b e) index pairs of the m
    channels with nonzero rate, copied into (a b), (c e) order, and K and
    conj(K) are added on the diagonal blocks a = c and b = e. The result is
    read-only.

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
        (whatever its rate) does not match its dimension, or the
        superoperator has a non-finite entry.
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

    live = []
    for j in jumps:
        if j.operator.shape != (d, d):
            raise ValueError(f"jump operator shape {j.operator.shape} does not match dim {d}")
        if j.rate != 0.0:
            live.append(j)

    # jump-sum factors indexed by (a c) and (b e)
    left = np.empty((d * d, len(live)), dtype=complex)
    right = np.empty((len(live), d * d), dtype=complex)
    k = -1j * h
    for n, j in enumerate(live):
        left[:, n] = j.rate * j.operator.conj().ravel()
        right[n] = j.operator.ravel()
        k -= 0.5 * j.rate * (j.operator.conj().T @ j.operator)
    sop = np.empty((d * d, d * d), dtype=complex)
    blocks = sop.reshape(d, d, d, d)
    blocks[...] = (left @ right).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    diag = np.arange(d)
    blocks[diag, :, diag, :] += k
    blocks[:, diag, :, diag] += k.conj()
    if not np.all(np.isfinite(sop)):
        raise ValueError("superoperator has non-finite entries")

    sop.flags.writeable = False
    return Liouvillian(layout, sop)


def apply_liouvillian(l: Liouvillian, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Evaluate d(rho)/dt for a state; Hermitian and traceless up to roundoff."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (l.dim, l.dim):
        raise ValueError(f"state shape {m.shape} does not match Liouvillian dim {l.dim}")
    return unvec(l.superop @ vec(m))


_SQRT_HALF = np.sqrt(0.5)


def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked positions of rho[i, i], of rho[i, j] (i < j) and of rho[j, i]."""
    i, j = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), i + j * d, j + i * d


def _hermitian_generator(l: Liouvillian) -> np.ndarray:
    """Real generator L_H = W+ L W in the Hermitian basis [diagonal | symmetric | antisymmetric].

    The superoperator is permuted once into [diagonal | upper | transpose
    partner] blocks; the symmetric and antisymmetric combinations of the
    last two are then block adds on the real and imaginary parts. What is
    dropped is the imaginary part of W+ L W, which vanishes up to roundoff.
    """
    d = l.dim
    diag, upper, lower = _hermitian_index(d)
    order = np.concatenate((diag, upper, lower))
    x = l.superop.take(order, axis=0).take(order, axis=1)
    re, im = x.real, x.imag
    dg, up, lo = slice(0, d), slice(d, d + upper.size), slice(d + upper.size, d * d)
    s = _SQRT_HALF
    # real and imaginary parts of the rows of W+ L
    rows_re = np.concatenate((re[dg], s * (re[up] + re[lo]), s * (im[up] - im[lo])))
    rows_im = np.concatenate((im[dg], s * (im[up] + im[lo]), s * (re[lo] - re[up])))
    out = np.empty((d * d, d * d))
    out[:, dg] = rows_re[:, dg]
    out[:, up] = s * (rows_re[:, up] + rows_re[:, lo])
    out[:, lo] = s * (rows_im[:, lo] - rows_im[:, up])
    return out


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
    """Column-stacked Hermitian matrices W c with real coordinates c along axis 0."""
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

    generator = _hermitian_generator(l)
    cols = np.empty((l.dim * l.dim, t.size))
    cols[:, 0] = scipy.linalg.expm(generator * t[0]) @ _hermitian_coords(vec(rho0.matrix))
    if t.size > 1:
        step = scipy.linalg.expm(generator * dt)
        for k in range(1, t.size):
            cols[:, k] = step @ cols[:, k - 1]
    drift = float(np.max(np.abs(cols[:l.dim].sum(axis=0) - 1.0)))
    if drift > TRACE_DRIFT_TOL:
        raise NumericalError(f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL:.0e}")

    mats = _hermitian_vec(cols)
    states = tuple(
        DensityMatrix.from_matrix(rho0.layout, unvec(mats[:, k]), normalize=True,
                                  eig_tol=EVOLVED_EIG_TOL)
        for k in range(t.size))
    return EvolveResult(times=t, states=states, max_trace_drift=drift)


def _trace_row(d: int) -> np.ndarray:
    row = np.zeros(d * d, dtype=complex)
    row[::d + 1] = 1.0  # diagonal positions of column-stacked vec
    return row


def steady_state(l: Liouvillian) -> DensityMatrix:
    """Unique fixed point of the generator.

    One LU solve of the superoperator with its first row replaced by the
    trace condition Tr(rho) = 1; the solution is hermitized and
    trace-normalized. The reciprocal condition number of the same LU factor
    decides whether the kernel is unique.

    Raises
    ------
    DegenerateSteadyStateError
        If the bordered matrix is singular or its reciprocal condition
        number is below 1e-11 (decoupled sectors).
    NumericalError
        If the residual stays above 1e-10 or the state has an eigenvalue
        below -1e-9.
    """
    d = l.dim
    a = np.array(l.superop, order="F")
    a[0, :] = _trace_row(d)
    anorm = np.linalg.norm(a, 1)
    lu, piv, info = zgetrf(a, overwrite_a=True)
    rcond = zgecon(lu, anorm)[0] if info == 0 else 0.0
    if rcond < RCOND_TOL:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel is degenerate (reciprocal condition {rcond:.3e} of "
            f"the trace-bordered generator is below {RCOND_TOL:.0e}); no unique "
            "steady state. This signals a decoupled-sector parameter choice.")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    m = hermitize(unvec(zgetrs(lu, piv, b)[0]))
    m = m / np.trace(m).real
    res = float(np.max(np.abs(l.superop @ vec(m))))
    if res >= RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")
    min_eig = float(np.linalg.eigvalsh(m).min())
    if min_eig < -STEADY_EIG_TOL:
        raise NumericalError(
            f"steady state has negative eigenvalue {min_eig:.3e} below -{STEADY_EIG_TOL:.0e}")
    return DensityMatrix(l.layout, m, STEADY_EIG_TOL)


def steady_state_residual(l: Liouvillian, rho: DensityMatrix) -> float:
    """Max-entry norm of L(rho); < 1e-10 for accepted steady states."""
    return float(np.max(np.abs(l.superop @ vec(rho.matrix))))
