"""Entanglement and photon-correlation diagnostics.

Wootters concurrence of two-qubit states, quantum-jump photon correlations
g2(tau) built from post-emission conditional states and sampled on a
uniform delay grid by liouvillian.correlation_samples (all propagation
lives in liouvillian), and FFT extraction of the anti-bunching timescale.
g2(0), defined in g2_zero, is a ratio of vdots of the steady state with
cached operators; post_jump_state, which builds the conditional states, is
its reference. One function, _emission_records, reads the bright/dark
split, the weights and g2(0)'s terms of a stack of states: g2_zero and
g2_trace call it with a stack of one, sweep._observe with a batch's
states. g2_zero and g2_trace take l's SteadyState as solved, its rcond
raising the faint-emitter floor; another state is checked first.
Times are in units of the inverse boson decay rate; absolute seconds enter
only through the configured rate in Hz.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .liouvillian import (Liouvillian, NumericalError, SteadyState, correlation_samples,
                          steady_state_residual)
from .models import _rabi_frequency, adiabatic_eliminate
from .operators import (SIGMA_MINUS, DensityMatrix, _is_integer, _partial_traces,
                        _state_errors, embed)

DARK_TOL = 1e-14
# smallest weight <n_i> of a bright emitter whose post-jump statistics are
# resolved: a solved rho carries roundoff of about 2e-16 (eps / rcond where
# larger), so Tr[N rho_i] is off by that over <n_i>, 2e-7 at this floor
WEIGHT_FLOOR = 1e-9
TAIL_FRACTION = 0.05
TAIL_TOL = 0.05
NEGATIVE_TOL = 1e-9
FLATNESS_MIN = 3.0
DEFAULT_N_SAMPLES = 4096
MIN_N_SAMPLES = 256


class DarkEmitterError(NumericalError):
    """The requested emitter carries no excitation to emit."""


class FaintEmitterError(NumericalError):
    """An emitter is bright but too faint for its post-jump statistics to be resolved."""


class FlatSpectrumError(NumericalError):
    """The correlation spectrum has no oscillation peak (overdamped regime)."""


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence and the four sorted spectral values behind it."""

    value: float
    lambdas: tuple[float, float, float, float]


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence(rho2q: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    Computes the spin-flipped state rho_tilde = (sy x sy) rho* (sy x sy),
    takes the square roots of the eigenvalues of rho @ rho_tilde sorted
    descending, and returns max(0, l1 - l2 - l3 - l4) clamped to [0, 1].
    """
    if rho2q.layout.dims != (2, 2):
        raise ValueError(f"concurrence needs a [2, 2] state, got layout {rho2q.layout.dims}")
    values, lam = _concurrences(rho2q.matrix[None])
    return ConcurrenceResult(value=float(values[0]), lambdas=tuple(float(x) for x in lam[0]))


def _concurrences(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and the four sorted spectral values of each matrix of the (k, 4, 4) stack rho."""
    # The lambdas are sqrt(eig(rho @ rho_tilde)) with
    # rho_tilde = (sy x sy) rho* (sy x sy). Computing eig of that
    # non-Hermitian product loses ~sqrt(eps) on the near-zero eigenvalues of
    # low-rank states; instead use B = sqrt(rho) (sy x sy) sqrt(rho)*, whose
    # singular values equal those square roots exactly (rho rho_tilde is
    # similar to B B-dagger) and come out at machine precision.
    w, u = np.linalg.eigh(rho)
    sqrt_rho = (u * np.sqrt(np.clip(w, 0.0, None))[:, None]) @ u.conj().swapaxes(1, 2)
    b = sqrt_rho @ _SY_SY @ sqrt_rho.conj()
    lam = np.sort(np.linalg.svd(b, compute_uv=False), axis=1)[:, ::-1]
    return np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0), lam


def _pair_concurrences(states: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """concurrence(partial_trace(rho, (0, 1))).value of each state matrix of the (k, d, d) stack.

    The reduced states get the DensityMatrix checks as one stack, and the
    first that fails raises its ValueError.
    """
    reduced = _partial_traces(states, dims, [0, 1])
    for error in _state_errors(reduced):
        if error is not None:
            raise error
    return _concurrences(reduced)[0]


@functools.lru_cache(maxsize=8)
def _emission_operators(layout):
    """The emission-statistics operators embedded in layout, read-only.

    (lowers, numbers, coincidence, number_sum): sigma_i- and n_i of each
    qubit i, n_0 n_1 = sigma_i+ N sigma_i- (either i) and N = n_0 + n_1.
    """
    lowers = tuple(embed(SIGMA_MINUS, i, layout) for i in (0, 1))
    numbers = tuple(sm.conj().T @ sm for sm in lowers)
    coincidence = numbers[0] @ numbers[1]
    number_sum = numbers[0] + numbers[1]
    for op in (*lowers, *numbers, coincidence, number_sum):
        op.flags.writeable = False
    return lowers, numbers, coincidence, number_sum


def post_jump_state(rho: DensityMatrix, emitter: int) -> tuple[DensityMatrix, float]:
    """Conditional state after a photon emission from the given qubit.

    Returns (sigma_i- rho sigma_i+ / weight, weight) with
    weight = Tr[sigma_i- rho sigma_i+] = <n_i>. An emitter other than 0 or 1,
    or one whose subsystem is not a qubit, raises ValueError. A weight below
    1e-14 means the emitter is dark and raises DarkEmitterError.
    """
    dims = rho.layout.dims
    if emitter not in (0, 1) or dims[emitter:emitter + 1] != (2,):
        raise ValueError(f"emitter {emitter} names no qubit of layout {dims}")
    sm = embed(SIGMA_MINUS, emitter, rho.layout)
    unnorm = sm @ rho.matrix @ sm.conj().T
    weight = float(np.trace(unnorm).real)
    if weight < DARK_TOL:
        raise DarkEmitterError(f"emitter {emitter} dark: weight {weight:.3e} < {DARK_TOL}")
    return DensityMatrix(rho.layout, unnorm / weight), weight


@dataclass(frozen=True)
class CorrelationTrace:
    """Two-emitter photon correlation versus delay.

    raw[k] = sum_ij Tr[n_j rho_i(tau_k)] over bright emitters i and both
    number operators j; normalized = raw / asymptote with
    asymptote = sum_ij Tr[n_j rho_ss], so normalized -> 1 at long delay.
    g2_zero is the normalized value at tau = 0, g2(0) as g2_zero defines it.
    """

    taus: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    asymptote: float
    g2_zero: float
    bright_emitters: tuple[int, ...]
    dark_emitters: tuple[int, ...]

    def __post_init__(self):
        for name in ("taus", "raw", "normalized"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _emission_setup(l: Liouvillian, rho_ss: DensityMatrix):
    """The emission record of rho_ss (_emission_records), raising its error.

    A state that is not l's SteadyState is checked against l first.
    """
    if not (isinstance(rho_ss, SteadyState) and rho_ss.liouvillian is l):
        residual = steady_state_residual(l, rho_ss)
        if not residual <= 1e-8:
            raise ValueError(f"rho_ss is not a steady state of l (residual {residual:.3e})")
    record, = _emission_records([rho_ss], rho_ss.matrix[None])
    if isinstance(record, NumericalError):
        raise record
    return record


def _emission_records(states: list[DensityMatrix], matrices: np.ndarray
                      ) -> list[tuple | NumericalError]:
    """The emission record of each state, or the NumericalError that rejects it.

    matrices stacks the states' matrices. A record is (bright, dark,
    weights, asymptote, raw_zero): the bright and dark emitters, the bright
    weights w_i = <n_i>, the asymptote |bright| <N> and the raw zero-delay
    value, the sum of <n_0 n_1> / w_i over bright i. The means are one
    np.vdot each with the Hermitian operators of the emission table. w_i
    below DARK_TOL is dark; a bright w_i below the resolved floor,
    WEIGHT_FLOOR or a SteadyState's larger eps / rcond, is a
    FaintEmitterError, two dark ones a DarkEmitterError.
    """
    _, numbers, coincidence, number_sum = _emission_operators(states[0].layout)
    operators = (coincidence, *numbers, number_sum)
    records = []
    for state, rho in zip(states, matrices):
        joint, *single, total = [float(np.vdot(op, rho).real) for op in operators]
        floor = WEIGHT_FLOOR
        if isinstance(state, SteadyState):
            floor = max(WEIGHT_FLOOR, np.finfo(float).eps / state.rcond)
        bright, dark, weights, raw_zero = [], [], [], 0
        for i, weight in enumerate(single):
            if weight < DARK_TOL:
                dark.append(i)
            elif weight < floor:
                records.append(FaintEmitterError(
                    f"emitter {i} weight {weight:.3e} is below the resolved floor {floor:.3g}"))
                break
            else:
                bright.append(i)
                weights.append(weight)
                raw_zero += joint / weight
        else:  # no faint emitter
            if not bright:
                records.append(DarkEmitterError("both emitters dark: no emission statistics exist"))
            else:
                records.append((tuple(bright), tuple(dark), tuple(weights), len(bright) * total,
                                raw_zero))
    return records


def g2_zero(l: Liouvillian, rho_ss: DensityMatrix) -> float:
    """Zero-delay correlation g2(0), computed without propagation.

    The equal-weight average of Tr[N rho_i] over the bright post-jump states
    rho_i (post_jump_state), divided by <N>. With both emitters bright it is
    <n_0 n_1> / (2 <n_0> <n_1>), half the cross-correlation; with only i
    bright, <n_0 n_1> / (<n_i> <N>). It is not the summed-intensity HBT
    value 2 <n_0 n_1> / <N>^2, which is g2(0) times 4 <n_0> <n_1> / <N>^2.
    """
    _, _, _, asymptote, raw_zero = _emission_setup(l, rho_ss)
    return raw_zero / asymptote


def g2_trace(l: Liouvillian, rho_ss: DensityMatrix, tau_max: float,
             n_samples: int = DEFAULT_N_SAMPLES) -> CorrelationTrace:
    """Photon correlation g2 over a uniform delay grid [0, tau_max].

    Propagates the normalized post-emission states of each bright emitter
    under l and records sum_ij Tr[n_j rho_i(tau)]. L is linear, so this is
    one correlation_samples call (liouvillian) for the number sum N and the
    summed post-jump states, with one matrix exponential. The zero delay
    sample is always computed directly (no propagation), so it agrees
    exactly with g2_zero.

    tau_max should be long enough for the tail to settle; default_tau_max
    provides the standard window for a parameter set. n_samples must be a
    power of two >= 256 (the grid feeds an FFT downstream).
    """
    if isinstance(tau_max, (bool, np.bool_)) or not 0 < tau_max < np.inf:
        raise ValueError(f"tau_max must be positive and finite, got {tau_max}")
    if not _is_integer(n_samples) or n_samples < MIN_N_SAMPLES or n_samples & (n_samples - 1):
        raise ValueError(f"n_samples must be a power of two >= {MIN_N_SAMPLES}, got {n_samples}")

    bright, dark, weights, asymptote, raw_zero = _emission_setup(l, rho_ss)
    taus = np.linspace(0.0, tau_max, n_samples)
    dt = tau_max / (n_samples - 1)

    lowers, _, _, number_sum = _emission_operators(rho_ss.layout)
    post_jump_sum = sum(lowers[i] @ rho_ss.matrix @ lowers[i].conj().T / weight
                        for i, weight in zip(bright, weights))
    raw = correlation_samples(l, number_sum, post_jump_sum, dt, n_samples)
    raw[0] = raw_zero
    normalized = raw / asymptote

    if normalized.min() < -NEGATIVE_TOL:
        raise NumericalError(
            f"normalized correlation dips to {normalized.min():.3e}, below -{NEGATIVE_TOL}")
    tail = normalized[-max(1, int(n_samples * TAIL_FRACTION)):]
    tail_err = np.abs(tail - 1.0).max()
    if tail_err > TAIL_TOL:
        raise NumericalError(
            f"correlation tail not converged: max |normalized - 1| = {tail_err:.3e} "
            f"over the last {TAIL_FRACTION:.0%} of the grid (tau_max too short "
            "or relaxation too slow)")

    return CorrelationTrace(
        taus=taus, raw=raw, normalized=normalized, asymptote=asymptote,
        g2_zero=float(normalized[0]), bright_emitters=bright, dark_emitters=dark)


def default_tau_max(params) -> float:
    """Standard correlation window for a parameter set.

    Ten oscillation periods 2*pi/Omega_est, but at least 50 relaxation
    times of the slower of the two effective qubit decay rates so that the
    tail has settled. Parameters with neither timescale raise NumericalError.
    """
    e = adiabatic_eliminate(params)
    omega = _rabi_frequency(e)
    gamma_slow = min(e.gamma00, e.gamma11)
    osc = 10.0 * 2.0 * np.pi / omega if omega > 0 else 0.0
    relax = 50.0 / gamma_slow if gamma_slow > 0 else 0.0
    window = max(osc, relax)
    if window <= 0:
        raise NumericalError("parameters define no oscillation or relaxation timescale")
    return window


@dataclass(frozen=True)
class TimescaleResult:
    """Dominant oscillation of a correlation trace.

    peak_frequency is in cycles per native time unit (gamma_a units),
    period_native its inverse, period_seconds the conversion through the
    absolute decay rate. spectrum holds the (frequency, magnitude) samples
    used, flatness the peak-to-median magnitude ratio.
    """

    peak_frequency: float
    period_native: float
    period_seconds: float
    spectrum: tuple[np.ndarray, np.ndarray]
    flatness: float


@functools.lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    """np.hanning(n), read-only."""
    w = np.hanning(n)
    w.flags.writeable = False
    return w


def extract_timescale(trace: CorrelationTrace, gamma_a_abs: float) -> TimescaleResult:
    """Anti-bunching timescale from the FFT of a correlation trace.

    Subtracts the long-delay limit from the normalized trace, applies a
    Hann window, and picks the magnitude-maximal non-DC bin, refined by
    quadratic interpolation over its three-bin neighborhood. A spectrum
    whose peak is under 3 times the median magnitude has no usable
    oscillation and raises FlatSpectrumError.
    """
    if isinstance(gamma_a_abs, (bool, np.bool_)) or not 0 < gamma_a_abs < np.inf:
        raise ValueError(f"gamma_a_abs must be positive and finite, got {gamma_a_abs}")
    y = trace.normalized - 1.0
    n = y.size
    dtau = trace.taus[1] - trace.taus[0]
    mags = np.abs(np.fft.rfft(y * _hann(n)))
    freqs = np.fft.rfftfreq(n, d=dtau)

    # exclude the full DC main lobe: a Hann window spreads the trace's mean
    # and slow envelope over bins 0..2, and picking those would just return
    # a fraction of the (arbitrary) window length
    first = 3
    k = first + int(np.argmax(mags[first:]))
    peak = mags[k]
    if k == first and mags[first - 1] > peak:
        raise FlatSpectrumError(
            "no oscillation: spectrum is a monotone low-frequency shoulder")
    median = float(np.median(mags[first:]))
    flatness = peak / median if median > 0 else (np.inf if peak > 0 else 0.0)
    if not flatness >= FLATNESS_MIN:
        raise FlatSpectrumError(
            f"no oscillation: peak/median magnitude {flatness:.2f} < {FLATNESS_MIN}")

    # three-point quadratic refinement of the peak bin
    p = 0.0
    if k + 1 < mags.size:
        a, b, c = mags[k - 1], mags[k], mags[k + 1]
        denom = a - 2 * b + c
        if denom != 0:
            p = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
    peak_frequency = (k + p) * freqs[1]
    period_native = 1.0 / peak_frequency
    return TimescaleResult(
        peak_frequency=float(peak_frequency),
        period_native=float(period_native),
        period_seconds=float(period_native / gamma_a_abs),
        spectrum=(freqs, mags),
        flatness=float(flatness),
    )
