"""Dense operator algebra on small composite Hilbert spaces.

Conventions used throughout the package:

* qubit basis ordering {|g> = index 0, |e> = index 1}
* composite ordering qubit0 (x) qubit1 (x) boson
* sigma+ and sigma- are the matrix units |e><g| and |g><e|, so that
  sigma+ sigma- is the excited-state projector used as the qubit
  number operator
* all matrices are dense complex128 numpy arrays

Everything here is a pure function over immutable values; instances are
safe to share across worker processes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Pauli / ladder operators in the {|g>, |e>} basis.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)     # |e><e| - |g><g|
QUBIT_NUMBER = SIGMA_PLUS @ SIGMA_MINUS                          # |e><e|

# Construction tolerances for DensityMatrix (about 100x the double-precision
# noise floor at the dimensions used here).
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIG_TOL = 1e-9


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dagger)/2 of a square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hermitize expects a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    """Check Hermiticity within an explicit entrywise tolerance."""
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def _is_integer(x) -> bool:
    """True for an int or numpy integer, False for a bool (an Integral too)."""
    # int first: it skips the slower numbers.Integral check
    return isinstance(x, (int, numbers.Integral)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem dimensions of a composite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(not _is_integer(d) or d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be positive integers, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def qubit_pair_boson_layout(n_max: int) -> SpaceLayout:
    """Layout [2, 2, n_max + 1] for two qubits and a truncated boson mode."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return SpaceLayout((2, 2, n_max + 1))


TWO_QUBIT_LAYOUT = SpaceLayout((2, 2))


class NegativeEigenvalueError(ValueError):
    """A matrix offered as a density matrix has an eigenvalue below -1e-9."""

    def __init__(self, min_eig: float):
        super().__init__(f"negative eigenvalue {min_eig} below -{EIG_TOL}")
        self.min_eig = min_eig


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one Hermitian positive operator on a labeled composite space.

    Construction validates trace (1e-10), Hermiticity (1e-10) and numerical
    positivity (min eigenvalue >= -1e-9, else NegativeEigenvalueError).
    States compare and hash by identity, not by their matrix.
    """

    layout: SpaceLayout
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dimension {d}")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
        mh = m.conj().T
        if np.max(np.abs(m - mh)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + mh))[0])
        if min_eig < -EIG_TOL:
            raise NegativeEigenvalueError(min_eig)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, layout: SpaceLayout, ket: np.ndarray) -> "DensityMatrix":
        """Density matrix |psi><psi| of a normalized state vector."""
        v = np.asarray(ket, dtype=complex).reshape(-1)
        if v.shape[0] != layout.total_dim:
            raise ValueError("state vector length does not match layout")
        v = v / np.linalg.norm(v)
        return cls(layout, np.outer(v, v.conj()))

    def expect(self, op: np.ndarray) -> float:
        """Real part of Tr[op rho]."""
        return float(np.trace(np.asarray(op) @ self.matrix).real)


def embed(op: np.ndarray, site: int, layout: SpaceLayout) -> np.ndarray:
    """Tensor a single-subsystem operator with identities on all other sites.

    Subsystem order is preserved: embed(a, 1, [2,2,3]) acts as I (x) a (x) I.
    With pre and post the dimensions before and after the site, the result
    read as a (pre, d, post, pre, d, post) array is op on the entries whose
    pre and post indices agree between rows and columns, and zero elsewhere.
    """
    op = np.asarray(op, dtype=complex)
    if site < 0 or site >= layout.n_subsystems:
        raise ValueError(f"site {site} out of range for layout {layout.dims}")
    d = layout.dims[site]
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match subsystem dim {d}")
    pre = int(np.prod(layout.dims[:site]))
    post = int(np.prod(layout.dims[site + 1:]))
    out = np.zeros((pre, d, post, pre, d, post), dtype=complex)
    i, k = np.arange(pre)[:, None], np.arange(post)
    out[i, :, k, i, :, k] = op
    return out.reshape(pre * d * post, pre * d * post)


def boson_destroy(n_max: int) -> np.ndarray:
    """Truncated annihilation operator, <n-1|a|n> = sqrt(n), on n_max+1 levels."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1 (a single level has no dynamics)")
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int] | set[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, preserving their relative order.

    Parameters
    ----------
    rho : DensityMatrix
        State on the full composite space.
    keep : collection of subsystem indices
        Nonempty set of integer indices into rho.layout.dims.
    """
    # checked before the set, where False would merge into 0
    if not all(_is_integer(k) for k in keep):
        raise ValueError(f"keep indices must be integers, got {keep}")
    keep_list = sorted(int(k) for k in set(keep))
    n = rho.layout.n_subsystems
    if not keep_list:
        raise ValueError("keep must be nonempty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise ValueError(f"keep indices {keep_list} out of range for {n} subsystems")
    dims = rho.layout.dims
    # axis k is subsystem k's row index and axis n + k its column index; a
    # traced subsystem's column repeats its row axis, so einsum contracts it
    cols = [n + k if k in keep_list else k for k in range(n)]
    reduced = np.einsum(rho.matrix.reshape(dims + dims), [*range(n), *cols],
                        keep_list + [n + k for k in keep_list])
    kept_dims = tuple(dims[k] for k in keep_list)
    d_red = math.prod(kept_dims)
    return DensityMatrix(SpaceLayout(kept_dims), hermitize(reduced.reshape(d_red, d_red)))
