"""Reference model for the benchmark's checks, written apart from ddesim.

It rebuilds the qubit-qubit-boson generator from its own operators, in
row-stacked vectorization (ddesim stacks columns), finds the steady state
with its own bordered solve (trace row in the last row, ddesim uses the
first), takes Wootters concurrence from the eigenvalues of rho @ rho_tilde
as in the textbook, and propagates g2(tau) by stepping with one matrix
exponential. Only numpy and scipy are imported, never ddesim.

Model, in units of the boson decay rate, qubit basis {|g> = 0, |e> = 1},
order qubit0 (x) qubit1 (x) boson:

    H = sum_i [delta_i n_i - eta_i (s_i+ + s_i-) - g_i (s_i+ a + s_i- a+)]
        + delta_a a+ a - eta_a (a + a+)

with jumps a at rate 1, s_i- (or s_i+ for relaxation_operator = "raise") at
gamma_r_i and sigma_z,i at gamma_d_i. params is any object with those
names, and n_max, as attributes (ddesim's FullModelParams is one).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

STEADY_RESIDUAL_TOL = 1e-10

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_Z = np.diag([-1.0, 1.0]).astype(complex)
_SY = np.array([[0.0, -1j], [1j, 0.0]])


def model_operators(n_max: int) -> dict[str, np.ndarray]:
    """Lowering, number and sigma_z operators of both qubits and the boson lowering."""
    nb = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, nb)), k=1).astype(complex)
    i2, ib = np.eye(2), np.eye(nb)
    ops = {
        "s0": np.kron(np.kron(_LOWER, i2), ib),
        "s1": np.kron(np.kron(i2, _LOWER), ib),
        "z0": np.kron(np.kron(_Z, i2), ib),
        "z1": np.kron(np.kron(i2, _Z), ib),
        "a": np.kron(np.eye(4), a),
    }
    for i in (0, 1):
        s = ops[f"s{i}"]
        ops[f"n{i}"] = s.conj().T @ s
    return ops


def generator(params) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Row-stacked Lindblad superoperator and the operators it was built from."""
    ops = model_operators(params.n_max)
    a = ops["a"]
    ad = a.conj().T
    h = params.delta_a * ad @ a - params.eta_a * (a + ad)
    jumps = [(1.0, a)]
    for i in (0, 1):
        s = ops[f"s{i}"]
        sd = s.conj().T
        h = h + (getattr(params, f"delta{i}") * ops[f"n{i}"]
                 - getattr(params, f"eta{i}") * (sd + s)
                 - getattr(params, f"g{i}") * (sd @ a + s @ ad))
        relax = s if params.relaxation_operator == "lower" else sd
        jumps.append((getattr(params, f"gamma_r{i}"), relax))
        jumps.append((getattr(params, f"gamma_d{i}"), ops[f"z{i}"]))
    d = h.shape[0]
    eye = np.eye(d)
    # row stacking: vec(A X B) = (A kron B^T) vec(X)
    sop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in jumps:
        ldl = op.conj().T @ op
        sop += rate * (np.kron(op, op.conj())
                       - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T))
    return sop, ops


def steady_state(sop: np.ndarray) -> np.ndarray:
    """Trace-one kernel vector of sop, as a density matrix.

    Raises ArithmeticError if the residual misses 1e-10.
    """
    d = int(round(np.sqrt(sop.shape[0])))
    bordered = sop.copy()
    bordered[-1, :] = 0.0
    bordered[-1, ::d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[-1] = 1.0
    rho = scipy.linalg.solve(bordered, rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    residual = float(np.abs(sop @ rho.reshape(-1)).max())
    if residual > STEADY_RESIDUAL_TOL:
        raise ArithmeticError(f"reference steady-state residual {residual:.3e}")
    return rho


def qubit_state(rho: np.ndarray) -> np.ndarray:
    """Two-qubit reduced state, boson traced out."""
    nb = rho.shape[0] // 4
    return np.einsum("ikjk->ij", rho.reshape(4, nb, 4, nb))


def wootters(rho2: np.ndarray) -> float:
    """Concurrence max(0, l1 - l2 - l3 - l4), l = sqrt(eig(rho rho_tilde)) descending."""
    yy = np.kron(_SY, _SY)
    tilde = yy @ rho2.conj() @ yy
    eig = np.linalg.eigvals(rho2 @ tilde).real
    lam = np.sort(np.sqrt(np.clip(eig, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def g2_zero(rho: np.ndarray, ops: dict[str, np.ndarray]) -> float:
    """Emitter-summed zero-delay correlation.

    After an emission from qubit i only the other qubit can still be
    excited, so sum_ij Tr[n_j s_i- rho s_i+] / <n_i> = <n0 n1>(1/<n0> + 1/<n1>),
    normalized by 2 (<n0> + <n1>).
    """
    n0 = np.trace(ops["n0"] @ rho).real
    n1 = np.trace(ops["n1"] @ rho).real
    n01 = np.trace(ops["n0"] @ ops["n1"] @ rho).real
    return float(n01 * (1.0 / n0 + 1.0 / n1) / (2.0 * (n0 + n1)))


def g2_trace(sop: np.ndarray, rho: np.ndarray, ops: dict[str, np.ndarray],
             taus: np.ndarray) -> np.ndarray:
    """Normalized g2(tau) on a uniform grid, by stepping with expm(L dtau).

    Each qubit's post-emission state s_i- rho s_i+ / <n_i> is propagated;
    the trace is sum_ij <n_j>(tau) over both, divided by its long-delay
    value 2 <n0 + n1>.
    """
    number = ops["n0"] + ops["n1"]
    state = sum(ops[f"s{i}"] @ rho @ ops[f"s{i}"].conj().T
                / np.trace(ops[f"n{i}"] @ rho).real for i in (0, 1))
    step = scipy.linalg.expm(sop * (taus[1] - taus[0]))
    # Tr[N X] for row-stacked X is the dot of vec(X) with vec(N^T)
    readout = number.T.reshape(-1)
    v = state.reshape(-1)
    raw = np.empty(taus.size)
    for k in range(taus.size):
        raw[k] = (readout @ v).real
        v = step @ v
    return raw / (2.0 * np.trace(number @ rho).real)


def spectral_peaks(taus: np.ndarray, g2: np.ndarray,
                   pad: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (cycles per unit time) and magnitudes of the peaks of g2 - 1.

    The Hann-windowed trace is zero-padded pad-fold for a frequency grid
    finer than the native bin 1/tau_max, and the first three native bins,
    which hold the window's DC main lobe, are skipped. Without a window the
    leakage of the slow envelope can outweigh the oscillation peak. Peaks
    are the local maxima of the magnitude, largest first.
    """
    y = (g2 - 1.0) * np.hanning(g2.size)
    n = y.size * pad
    mags = np.abs(np.fft.rfft(y, n=n))
    freqs = np.fft.rfftfreq(n, d=taus[1] - taus[0])
    k = np.arange(3 * pad, mags.size - 1)
    k = k[(mags[k] > mags[k - 1]) & (mags[k] >= mags[k + 1])]
    k = k[np.argsort(mags[k])[::-1]]
    return freqs[k], mags[k]
