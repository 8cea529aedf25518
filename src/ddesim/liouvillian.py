"""Lindblad generators: construction, propagation, steady states.

The generator rho_dot = -i[H, rho] + sum_k gamma_k (L_k rho L_k+ - {L_k+ L_k, rho}/2)
is one real matrix. The orthonormal Hermitian basis
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
L_H, and one bincount sums them per written entry (build_liouvillian, which
caches the structure of that scatter per nonzero pattern). It is the one
assembly engine: models.full_model_liouvillian tabulates its generators
once per model structure, so that a parameter map evaluates each cell's
L_H as one linear combination. A Liouvillian stores only the written
entries, their rows and columns and their values (7.7 k of 332 k at
n_max 5); the steady-state solve reads them, and propagation scatters
them, times its time step, into the dense matrix it exponentiates.

The steady state is one real banded LU solve of L_H with the trace
condition substituted for the row of coordinate 0 (rho[0, 0]). Sorted by
the key (n_i + n_j, q_i + q_j, n_i - n_j) of their entry (i, j), where n is
the boson level and q the qubit excitations, the coordinates make L_H a
band matrix: each term of the model moves n_i + n_j by at most 2. The full
model has kl = 94-98 subdiagonals and ku = 176 superdiagonals at n_max 5,
out of n = 576; the band grows linearly in n_max, n quadratically. Every
generator, whatever its size, is gathered into band storage and factored
with dgbtrf (about 2 n kl (kl + ku) flops); at n_max 2, where the band
spans most of the n = 144 matrix, that is still cheaper than the dense
dgetrf. The row of coordinate 0, the first in that order, holds only the
in-band part of the trace row (the populations of the lowest boson
levels): the kernel direction is the same, and the full trace normalizes
the solution afterwards. A steady state without weight there (a qubit
pumped by sigma+ alone) leaves that matrix singular, and the border moves
to the row of its largest population, which one step of inverse
iteration with the singular factor finds. One step of iterative
refinement with the same factor takes the solution to the rounding of the
stored generator, which the LU alone misses by up to eps / rcond on
ill-conditioned cells. The
SteadyState it returns keeps l, its rcond and the residual of the refined
solution. The residuals and DensityMatrix checks of a map's batch of
steady states run on stacked arrays (_steady_states), and steady_state
is its stack of one.

Propagation works on the coordinates and lives only here, and every path
takes its exponential from _scaled_exponential: a truncated Taylor series
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)) of L_H t shifted
by its mean diagonal and scaled by 2^-s, with s the fewest squarings that
bring its alpha_3 within TAYLOR_THETA[28], and the degree (16 to 28) the
lowest that reaches it. It costs 6 to 9 matrix products and no solve;
the s squarings are left to the caller. evolve squares it s times into
its first sample's exponential and into its step P = e^(L_H dt).
correlation_samples continues the same chain of squarings: P, then P^2,
..., P^b, each doubling a block of baby steps, and the last is its giant
step (b about 2 sqrt(n)). Unlike an eigendecomposition of L, whose
eigenbasis becomes ill-conditioned near exceptional points, the scaling
and squaring does not depend on that conditioning. scipy.linalg.expm
stays with the oracles (validate and the tests), so they check this
exponential rather than share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
# the package first: with a scipy.linalg submodule as the first import,
# `import ddesim` took about 2 ms longer
import scipy.linalg
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs, dlange

from .operators import (
    EIG_TOL,
    DensityMatrix,
    NegativeEigenvalueError,
    SpaceLayout,
    _is_integer,
    _state_errors,
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
# theta_m of the degree-m truncated Taylor series: the largest alpha_p of a
# scaled argument at which it gives the exponential with a backward error
# of at most 2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011),
# Table 3.1), for the degrees a polynomial in B^4 with cubic coefficients
# has (_scaled_exponential)
TAYLOR_THETA = {16: 0.781, 20: 1.44, 24: 2.22, 28: 3.08}
# 1 / k! for k = 0, ..., 28
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(29)])
_TAYLOR.flags.writeable = False
# largest ||L_H t||_1 whose shifted fourth power is finite: the shift at
# most doubles the 1-norm, and ||B^4||_1 <= ||B||_1^4
MAX_EXPONENT_NORM = float(np.finfo(float).max) ** 0.25 / 2

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


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Lindblad generator on a labeled space: the stored entries of the real L_H = W+ L W.

    row_col holds the rows and columns of the stored entries in the
    d^2 x d^2 L_H as a (2, nnz) array, sorted by row, then column, and
    values the entries (exact zeros among them); all others are exact 0.
    Read-only arrays; immutable, safe to share across sweep workers,
    compared by identity.
    """

    layout: SpaceLayout
    row_col: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def generator(self) -> np.ndarray:
        """The dense d^2 x d^2 L_H, scattered from the stored entries on every access."""
        return _dense(self)

    @property
    def superop(self) -> np.ndarray:
        """Complex superoperator W L_H W+ on column-stacked vec(rho), rebuilt on every access.

        For oracles: d(rho)/dt is unvec(superop @ vec(rho)); no solver or propagation reads it.
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
    of them per written entry of L_H. Its structure is cached per pattern
    (_scatter_structure), and the Liouvillian stores the written entries,
    sums of 0 included; all others are exact zeros, so only they are
    checked finite.

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
        has a non-finite entry: from a NaN rate or a NaN in a live
        operator, say, or from finite terms whose sum at one entry
        overflows. An operator of rate 0 is never read.
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

    k = -1j * h
    live = []
    for j in jumps:
        if j.operator.shape != (d, d):
            raise ValueError(f"jump operator shape {j.operator.shape} does not match dim {d}")
        if j.rate != 0.0:
            live.append(j)
            k -= 0.5 * j.rate * (j.operator.conj().T @ j.operator)
    rates = np.array([j.rate for j in live])
    ops = np.array([j.operator for j in live], dtype=complex).reshape(-1, d, d)
    k_entries, first, second, channel, (p, q), bins, row_col = _scatter_structure(
        d, (k != 0).tobytes(), (ops != 0).tobytes())

    ops = ops.reshape(-1)
    vals = np.concatenate((np.repeat(2.0 * k.reshape(-1)[k_entries], d),
                           rates[channel] * ops[first] * ops[second].conj()))
    coef = _basis_map(d)[1]
    weights = (coef.take(p, axis=1).conj()[:, None] * (coef.take(q, axis=1) * vals)[None]).real
    values = np.bincount(bins, weights.reshape(-1), minlength=row_col.shape[1])
    if not np.all(np.isfinite(values)):
        raise ValueError("generator has non-finite entries")
    values.flags.writeable = False
    return Liouvillian(layout, row_col, values)


# build_liouvillian's structures; the 8 of the full model at n_max 2 to 5,
# with and without a boson drive, hold 1.3 MB
@functools.lru_cache(maxsize=8)
def _scatter_structure(d: int, k_pattern: bytes, op_pattern: bytes) -> tuple[np.ndarray, ...]:
    """Gathers, positions and bins of the scatter of L_H, as read-only arrays.

    The tuple is (k_entries, first, second, channel, positions, bins,
    row_col). k_pattern is (K != 0).tobytes() of K and op_pattern
    that of the live jump operators stacked as a (channels, d, d) array,
    both in C order. K X + X K+ contributes 2 K[x, u] to
    S[x + y d, u + v d] at every y = v (build_liouvillian), so k_entries
    holds the flat positions of the nonzeros of K, whose values are
    repeated over the d values of y. Each channel contributes
    rate L[x, u] conj(L[y, v]) for every pair of nonzeros of its operator:
    first and second hold their flat positions in the stack and channel
    the index of its rate. positions holds the (p, q) of each of these m
    entries S[p, q], which adds Re(conj(W[p, a]) S[p, q] W[q, b]) to
    L_H[a, b] for the at most two basis columns a of p and b of q; row_col
    holds the rows and columns in L_H that the 4 m products write, sorted
    as in Liouvillian, and bins the index into row_col of each. The others
    are int16 or int32 (_narrow); row_col stays intp, as indexing takes it.
    """
    n = d * d
    k_entries = np.flatnonzero(np.frombuffer(k_pattern, dtype=bool))
    entries = np.flatnonzero(np.frombuffer(op_pattern, dtype=bool))
    chan, x, u = np.unravel_index(entries, (len(op_pattern) // n, d, d))
    # channel entries: every pair of nonzeros of one operator
    a, b = np.nonzero(chan[:, None] == chan[None, :])
    # K entries: K[x, u] at every y = v
    kx, ku = np.divmod(k_entries, d)
    offsets = np.arange(d) * d
    p = np.concatenate(((kx[:, None] + offsets).ravel(), x[a] + x[b] * d))
    q = np.concatenate(((ku[:, None] + offsets).ravel(), u[a] + u[b] * d))
    col = _basis_map(d)[0]
    index = col.take(p, axis=1)[:, None] * n + col.take(q, axis=1)[None]
    written, bins = np.unique(index, return_inverse=True)
    structure = (*(_narrow(i) for i in (k_entries, entries[a], entries[b], chan[a],
                                        np.stack((p, q)), bins.reshape(-1))),
                 np.array(np.divmod(written, n)))
    for array in structure:
        array.flags.writeable = False
    return structure


def _narrow(index: np.ndarray) -> np.ndarray:
    """index as int16 or int32, whichever is the narrowest that holds its values."""
    top = int(index.max(initial=0))
    return index.astype(np.int16 if top < 2 ** 15 else np.int32 if top < 2 ** 31 else np.intp)


def _dense(l: Liouvillian, scale: float = 1.0) -> np.ndarray:
    """The dense d^2 x d^2 matrix L_H scale, scattered from the stored entries of l."""
    a = np.zeros((l.dim ** 2,) * 2)
    a[tuple(l.row_col)] = l.values * scale
    return a


def _norm_1(l: Liouvillian) -> float:
    """||L_H||_1, the largest column sum of |entries|, from the stored entries of l."""
    return float(np.max(np.bincount(l.row_col[1], np.abs(l.values), minlength=l.dim ** 2)))


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
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
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
    docstring): the first sample is e^(L_H t[0]) c(rho0), each later one
    the real step operator P = e^(L_H dt) applied to the previous sample.
    Each of the two exponentials is _scaled_exponential's e^(L_H t / 2^s)
    squared s times. The trace drift, the sum of the diagonal coordinates
    minus 1, is measured before each sampled state is trace-renormalized
    and is reported in the result.

    Raises
    ------
    ValueError
        If times is empty, not finite, negative, not strictly increasing
        or not uniformly spaced, or ||L_H t[0]||_1 or ||L_H dt||_1 exceeds
        MAX_EXPONENT_NORM.
    NumericalError
        If the trace drifts by more than 1e-9, or to NaN.
    """
    if rho0.layout.total_dim != l.dim:
        raise ValueError("initial state dimension does not match Liouvillian")
    t, dt = _uniform_times(times)
    if not _norm_1(l) * max(t[0], dt) <= MAX_EXPONENT_NORM:
        raise ValueError(f"times must keep ||L_H t[0]||_1 and ||L_H dt||_1 at most "
                         f"{MAX_EXPONENT_NORM:.3e}, got t[0] = {t[0]!r}, dt = {dt!r}")

    first = _exponential(_dense(l, t[0])) @ _hermitian_coords(vec(rho0.matrix))
    step = _exponential(_dense(l, dt)) if t.size > 1 else None
    cols = _powers(step, first, t.size)
    drift = float(np.max(np.abs(cols[:l.dim].sum(axis=0) - 1.0)))
    if not drift <= TRACE_DRIFT_TOL:
        raise NumericalError(f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL:.0e}")

    states = tuple(DensityMatrix(rho0.layout, m / np.trace(m).real)
                   for m in map(unvec, _hermitian_vec(cols).T))
    return EvolveResult(times=t, states=states, max_trace_drift=drift)


def _powers(step: np.ndarray | None, c: np.ndarray, n: int) -> np.ndarray:
    """The columns c, step c, ..., step^(n-1) c; step is unused when n is 1."""
    out = np.empty((c.size, n))
    out[:, 0] = c
    for k in range(1, n):
        out[:, k] = step @ out[:, k - 1]
    return out


def _scaled_exponential(a: np.ndarray) -> tuple[np.ndarray, int]:
    """E = e^(a / 2^s) and the number s of squarings that take it to e^a.

    a is L_H t with ||a||_1 <= MAX_EXPONENT_NORM. It is shifted to
    B = a - mu I, mu = tr(a) / n, and B^2, B^3 and B^4 give
    alpha_3 = max(||B^3||_1^(1/3), ||B^4||_1^(1/4)) (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)). Each squaring can double
    a relative error, and the trace drift of a long step grows as 2^s, so
    s is the fewest squarings that TAYLOR_THETA allows,
    alpha_3 / 2^s <= TAYLOR_THETA[28], and m the lowest degree in the
    table with alpha_3 / 2^s <= TAYLOR_THETA[m]. The powers are scaled by
    exact powers of two, and the degree-m Taylor polynomial of B / 2^s is
    evaluated by Paterson-Stockmeyer as a polynomial in (B / 2^s)^4 with
    cubic coefficients: m / 4 - 1 products, m / 4 + 2 with the powers (6
    at m = 16, 9 at m = 28), and no solve. The factor e^(mu / 2^s) cannot
    underflow: 0 is an eigenvalue of every L_H, so -mu is one of B, and
    |mu| <= rho(B) <= alpha_3 gives |mu / 2^s| <= TAYLOR_THETA[28].
    Everything is written into one (6, n, n) workspace, of which E is a
    view.
    """
    n = a.shape[0]
    mu = float(np.trace(a)) / n
    work = np.empty((6, n, n))
    flat = work.reshape(6, -1)
    b, b2, b3, b4 = work[:4]
    np.copyto(b, a)
    flat[0, ::n + 1] -= mu
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    np.matmul(b2, b2, out=b4)
    # ||X||_1 is the infinity norm of the Fortran-ordered transpose
    alpha = max(dlange("I", b3.T) ** (1 / 3), dlange("I", b4.T) ** 0.25)
    s = 0
    while alpha > math.ldexp(TAYLOR_THETA[28], s):
        s += 1
    m = min(m for m, theta in TAYLOR_THETA.items() if alpha <= math.ldexp(theta, s))
    if s:
        for k in range(4):
            np.ldexp(work[k], -(k + 1) * s, out=work[k])
    # sum_k B^k / k! = C_0 + B^4 (C_1 + ... + B^4 (C_(q-1) + B^4 / m!)),
    # q = m / 4, C_j = sum_{i < 4} B^i / (4 j + i)!; the bracket alternates
    # between slots 4 and 5 of the workspace, and one in-place dgemv adds
    # the B, B^2 and B^3 terms of C_j to it (three daxpy calls in its place
    # ran 100x slower at two OpenBLAS threads, alternating with the products)
    q = m // 4
    slot = 4
    np.multiply(b4, _TAYLOR[m], out=work[slot])
    for j in reversed(range(q)):
        if j < q - 1:
            np.matmul(b4, work[slot], out=work[slot ^ 1])
            slot ^= 1
        scipy.linalg.blas.dgemv(1.0, flat[:3].T, _TAYLOR[4 * j + 1:4 * j + 4], beta=1.0,
                                y=flat[slot], overwrite_y=True)
        flat[slot, ::n + 1] += _TAYLOR[4 * j]
    work[slot] *= math.exp(math.ldexp(mu, -s))
    return work[slot], s


def _exponential(a: np.ndarray) -> np.ndarray:
    """e^a for a = L_H t: _scaled_exponential squared s times."""
    e, s = _scaled_exponential(a)
    for _ in range(s):
        e = e @ e
    return e


def _block_length(n: int) -> int:
    """Baby-block length b of correlation_samples for n samples, 128 at n = 4096."""
    return 1 << (n.bit_length() // 2 + 1)


def correlation_samples(l: Liouvillian, observable: np.ndarray, x0: np.ndarray,
                        dt: float, n: int) -> np.ndarray:
    """Tr[A e^(L k dt)(x0)] for k = 0, ..., n - 1, as a real array.

    A (observable) and x0 are Hermitian d x d matrices; x0 need not be a
    state. With the real step operator P = e^(L_H dt) and the coordinates
    c_A and c_0 of A and x0, sample k = j b + i is ((Q^T)^j c_A) . B[:, i]
    for the baby block B = [P^i c_0 : i < b] and the giant step Q = P^b, so
    all samples are one (n / b x d^2) (d^2 x b) matrix product.
    b = 2^(floor(bitlen(n) / 2) + 1), about 2 sqrt(n), is 128 at n = 4096,
    which ran 2% faster than 64 and 6% faster than 256 on the default
    model. One chain of squarings makes P, B and Q: it starts from
    _scaled_exponential's e^(L_H dt / 2^s), s squarings give P, and each
    further square P^m first doubles the block, B[:, m:2m] = P^m B[:, :m],
    in one matrix product; the last is Q. A call costs the 6 to 9 products
    of the exponential, s + log2(b) squarings, log2(b) block products and
    ceil(n / b) - 1 matrix-vector products (9, 7, 7 and 31 at the default
    g2 grid, where alpha_3 = 2.54 of the step gives s = 0 at degree 28).

    Raises
    ------
    ValueError
        If n is not a positive integer, or dt not positive with
        ||L_H dt||_1 at most MAX_EXPONENT_NORM.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (dt > 0 and _norm_1(l) * dt <= MAX_EXPONENT_NORM):
        raise ValueError(f"dt must be positive with ||L_H dt||_1 at most "
                         f"{MAX_EXPONENT_NORM:.3e}, got {dt!r}")
    b = _block_length(int(n))
    power, s = _scaled_exponential(_dense(l, dt))
    baby = np.empty((power.shape[0], b), order="F")
    baby[:, 0] = _hermitian_coords(vec(x0))
    for k in range(-s, b.bit_length() - 1):  # power is P^(2^k)
        if k >= 0:
            baby[:, 1 << k:2 << k] = power @ baby[:, :1 << k]
        power = power @ power
    giant = _powers(power.T, _hermitian_coords(vec(observable)), -(-n // b))
    return (giant.T @ baby).reshape(-1)[:n]


@dataclass(frozen=True, eq=False)
class SteadyState(DensityMatrix):
    """A DensityMatrix that steady_state checked as the fixed point of liouvillian.

    rcond is the reciprocal condition number of the factored bordered
    matrix, residual the max-entry norm of L(rho), below 1e-10.
    """

    liouvillian: Liouvillian = field(repr=False)
    rcond: float
    residual: float


def steady_state(l: Liouvillian) -> SteadyState:
    """Unique fixed point of the generator, with the rcond and residual of its solve.

    One real banded LU of L_H bordered by the trace condition, the sum of
    the diagonal coordinates inside the band, in place of the row of
    coordinate 0 (or of the largest population, where the steady state has
    no weight in that band), and one step of iterative refinement with the
    same factor (_bordered_kernel). The solution is trace-normalized and is
    Hermitian by construction. The reciprocal condition number from the
    LU factor decides whether the kernel is unique, and the residual is
    that of the refined coordinates. _steady_states checks it as a stack of
    one, with the one eigendecomposition of the DensityMatrix checks.

    Raises
    ------
    DegenerateSteadyStateError
        If the bordered matrix is singular or its reciprocal condition
        number is below 1e-11: decoupled sectors.
    NumericalError
        If the residual is not below 1e-10 or the state has an eigenvalue
        below -1e-9.
    """
    c, rcond = _bordered_kernel(l)
    state, = _steady_states([l], c[None], [rcond])
    if isinstance(state, NumericalError):
        raise state
    return state


def _steady_states(ls: list[Liouvillian], c: np.ndarray, rconds: list[float]
                   ) -> list[SteadyState | NumericalError]:
    """The SteadyState of each generator, or the NumericalError that rejects it.

    Row k of c and rconds[k] are the coordinates and rcond that
    _bordered_kernel gave for ls[k]. The generators share one layout, and
    every check runs once for the stack: the residuals (_residuals), then
    the DensityMatrix checks of the state matrices (one eigvalsh,
    operators._state_errors), which the states keep as views. A residual
    not below RESIDUAL_TOL and a negative eigenvalue are that state's
    NumericalError; a state that fails the trace or Hermiticity check
    raises its ValueError, as DensityMatrix does.
    """
    residuals = _residuals(ls, c)
    d = ls[0].dim
    # column k of W c is vec(rho_k), column-stacked: entry (i, j, k) of its
    # (d, d, k) view is rho_k[j, i]
    matrices = np.ascontiguousarray(_hermitian_vec(c.T).reshape(d, d, -1).transpose(2, 1, 0))
    matrices.flags.writeable = False
    states = []
    for l, rcond, res, m, error in zip(ls, rconds, residuals, matrices, _state_errors(matrices)):
        if not res < RESIDUAL_TOL:
            states.append(NumericalError(
                f"steady-state residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}"))
        elif isinstance(error, NegativeEigenvalueError):
            states.append(NumericalError(f"steady state has negative eigenvalue "
                                         f"{error.min_eig:.3e} below -{EIG_TOL:.0e}"))
        elif error is not None:
            raise error
        else:
            states.append(SteadyState._checked(l.layout, m, liouvillian=l, rcond=rcond,
                                               residual=float(res)))
    return states


class _Band(NamedTuple):
    """The band of one nonzero pattern of L_H and its gather plan (see _band_plan)."""

    kl: int
    ku: int
    order: np.ndarray
    rank: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    col: np.ndarray
    traced: np.ndarray


def _coordinate_order(dims: tuple[int, ...]) -> np.ndarray:
    """The real coordinates sorted by (n_i + n_j, q_i + q_j, n_i - n_j).

    A coordinate belongs to the entry (i, j), i <= j, of rho; n is the
    index of the last subsystem (the boson) and q the sum of the others
    (the qubit excitations). The sort is stable, so coordinate 0, whose key
    is all zeros, comes first.
    """
    d = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(d), dims))
    n, q = digits[-1], digits[:-1].sum(axis=0)
    i, j = np.triu_indices(d, 1)
    i, j = np.concatenate((np.arange(d), i, i)), np.concatenate((np.arange(d), j, j))
    return np.lexsort((n[i] - n[j], q[i] + q[j], n[i] + n[j]))


class _Identity:
    """Wraps obj as a cache key compared and hashed by identity; the cache keeps obj alive."""

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


@functools.lru_cache(maxsize=8)
def _band_plan(dims: tuple[int, ...], row_col: _Identity, nonzero: bytes,
               border: int = 0) -> _Band:
    """The band of a generator in the coordinate order, and the plan that gathers it.

    row_col wraps that of an L_H on a layout of dimensions dims, and
    nonzero is np.packbits(values != 0) of its stored values. In the order
    of _coordinate_order, the nonzero entries lie within kl subdiagonals
    and ku superdiagonals. The plan gathers the bordered band, whose row of
    the diagonal coordinate border holds the trace border: src indexes the
    values with a 1 appended, the nonzero entries off that row and then the
    appended 1 once per diagonal coordinate in traced, those within the
    band of that row. dst holds their positions in the Fortran-ordered band
    storage of dgbtrf and col their columns.
    """
    order = _coordinate_order(dims)
    rank = np.argsort(order)
    rows, cols = row_col.obj
    live = np.flatnonzero(np.unpackbits(np.frombuffer(nonzero, np.uint8), count=rows.size))
    row, col = rank[rows[live]], rank[cols[live]]
    kl = int(np.max(row - col, initial=0))
    ku = int(np.max(col - row, initial=0))
    ldab = 2 * kl + ku + 1
    at = rank[border]
    keep = np.flatnonzero(row != at)
    traced = np.flatnonzero(np.isin(rank[:math.prod(dims)] - at, range(-kl, ku + 1)))
    src = np.concatenate((live[keep], np.full(traced.size, rows.size)))
    row = np.concatenate((row[keep], np.full_like(traced, at)))
    col = np.concatenate((col[keep], rank[traced]))
    plan = _Band(kl, ku, order, rank, src, col * ldab + kl + ku + row - col, _narrow(col), traced)
    for a in plan[2:]:
        a.flags.writeable = False
    return plan


def _band_of(l: Liouvillian, border: int = 0) -> _Band:
    """The band plan steady_state gathers the generator of l with, trace border in row border.

    Plans are cached per row_col array by identity (one per scatter
    structure and per table), per nonzero (or NaN) values and per border:
    a stored 0, as where the table's eta_a is 0, would widen the band if it
    counted (kl 98 for 94 at n_max 5).
    """
    return _band_plan(l.layout.dims, _Identity(l.row_col),
                      np.packbits(l.values != 0).tobytes(), border)


def _factor(l: Liouvillian, border: int) -> tuple[_Band, Callable, float]:
    """Band LU of L_H bordered in the row of border: plan, solve and rcond.

    solve(b) is x with A x = b, both in the natural coordinate order. The
    1-norm for the rcond estimate is summed per column from the gathered
    entries, the border's ones included. An exactly singular factor has
    rcond 0, and its zero pivots are raised to eps times that norm, so
    that solve is an inverse iteration step.
    """
    band = _band_of(l, border)
    kl, ku, n = band.kl, band.ku, l.dim ** 2
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    entries = np.append(l.values, 1.0)[band.src]
    ab.reshape(-1, order="F")[band.dst] = entries
    norm = float(np.max(np.bincount(band.col, np.abs(entries), minlength=n)))
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    lu[kl + ku][lu[kl + ku] == 0] = np.finfo(float).eps * norm

    def solve(b: np.ndarray) -> np.ndarray:
        return dgbtrs(lu, kl, ku, b[band.order], piv)[0][band.rank]
    return band, solve, float(dgbcon(kl, ku, lu, piv, norm)[0]) if info == 0 else 0.0


def _bordered_kernel(l: Liouvillian) -> tuple[np.ndarray, float]:
    """Coordinates of the trace-one kernel vector of L_H, and the rcond of its bordered LU.

    The trace border takes the row of a diagonal coordinate, which the
    other rows of L_H determine, and holds the in-band part of the trace
    row: the same kernel direction wherever the steady state has weight on
    those populations, and the full trace normalizes the solution. The
    row of coordinate 0 comes first. Where that border leaves the matrix
    singular or below RCOND_TOL, its kernel is the steady state (when that
    is unique), so one step of inverse iteration with the same factor
    estimates it, and the border moves to the row of its largest
    population; if that factor fails too, the kernel is degenerate. One
    step of fixed-precision iterative refinement with the factor follows
    the solve: the bordered residual, whose L_H x is one bincount over the
    stored entries and whose border entry is 1 minus the traced sum, and
    one dgbtrs for the correction. The LU alone can leave errors of about
    eps / rcond in x; one step makes the solve backward stable entry by
    entry (Skeel, Math. Comp. 35, 817 (1980)).

    Raises
    ------
    DegenerateSteadyStateError
        If both bordered matrices are singular or their reciprocal
        condition numbers are below RCOND_TOL.
    """
    border, n = 0, l.dim ** 2
    band, solve, rcond = _factor(l, border)
    if rcond < RCOND_TOL:
        border = int(np.argmax(np.abs(solve(np.eye(1, n)[0])[:l.dim])))
        band, solve, rcond = _factor(l, border)
    if rcond < RCOND_TOL:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel is degenerate (reciprocal condition {rcond:.3e} of "
            f"the trace-bordered generator is below {RCOND_TOL:.0e}); no unique "
            "steady state. This signals a decoupled-sector parameter choice.")
    x = solve(np.eye(1, n, border)[0])
    r = -np.bincount(l.row_col[0], l.values * x[l.row_col[1]], minlength=n)
    r[border] = 1.0 - x[band.traced].sum()
    x += solve(r)
    return x / x[:l.dim].sum(), rcond


def _residuals(ls: list[Liouvillian], c: np.ndarray) -> np.ndarray:
    """Max-entry norm of the complex matrix L_k(rho_k) for each generator of ls and the row c[k].

    c holds the coordinates of each rho as a row. r = L_H c is one bincount
    over the rows of the stored entries per generator: one bincount over
    the whole stack, each generator's rows offset, allocates three
    temporaries of k times the entries and ran slower from 16 generators
    at n_max 2. A diagonal entry of L(rho) is r_i, and both entries of the
    pair (i, j), i < j, are sqrt(1/2) (r_sym +- i r_anti), so one modulus
    per pair gives, bit for bit, what _hermitian_vec would (np.hypot of the
    parts differs in the last bit). A NaN in a stored entry, or in an
    entry of c that one multiplies, makes that norm NaN.
    """
    k, n = c.shape
    r = np.empty((k, n))
    for rk, l, ck in zip(r, ls, c):
        row, col = l.row_col
        rk[:] = np.bincount(row, l.values * ck[col], minlength=n)
    d = ls[0].dim
    pairs = np.empty((k, (n - d) // 2), dtype=complex)
    pairs.real = _SQRT_HALF * r[:, d:d + pairs.shape[1]]
    pairs.imag = _SQRT_HALF * r[:, d + pairs.shape[1]:]
    return np.maximum(np.abs(pairs).max(axis=1, initial=0.0), np.abs(r[:, :d]).max(axis=1))


def steady_state_residual(l: Liouvillian, rho: DensityMatrix) -> float:
    """Max-entry norm of L(rho); < 1e-10 for accepted steady states."""
    return float(_residuals([l], _hermitian_coords(vec(rho.matrix))[None])[0])
