"""Checks on the program's outputs: method properties and the reference model.

Each function returns a list of failure messages; an empty list passes.
They run after a workload's timed phase and are not timed.
"""

from __future__ import annotations

import numpy as np

import reference

# The CSV keeps 12 significant digits; the reference agreed to 4e-12.
# 1e-9 leaves room for the square root the textbook Wootters route takes
# of near-zero eigenvalues of rho @ rho_tilde.
ORACLE_TOL = 1e-9
SYMMETRY_TOL = 1e-10   # measured 2e-13; the CSV rounding is 5e-13
# A Hann-windowed peak sampled on native bins reads down to 0.85 of its
# height (1.42 dB scalloping loss), so a method that picks the largest
# native bin can pick any peak within that ratio of the largest.
SCALLOPING_RATIO = 0.85
PEARSON_MAX = -0.5     # measured -0.93 to -0.97
BRIGHT_G2 = 0.2        # no cell may be near-maximally entangled and bunched
ENTANGLED_C = 0.9


def detuning_map(axis: np.ndarray, conc: np.ndarray, g2: np.ndarray,
                 failed: int) -> list[str]:
    """Properties of a square (delta0, delta1) map on one symmetric axis.

    conc[i, j] and g2[i, j] belong to delta0 = axis[i], delta1 = axis[j].
    """
    out = []
    if failed:
        out.append(f"{failed} failed cells")
    if not (np.isfinite(conc).all() and np.isfinite(g2).all()):
        return out + ["non-finite concurrence or g2(0)"]
    if conc.min() < 0 or conc.max() > 1:
        out.append(f"concurrence outside [0, 1]: {conc.min()}, {conc.max()}")
    for name, m in (("concurrence", conc), ("g2(0)", g2)):
        asym = float(np.abs(m - m.T).max())
        if asym > SYMMETRY_TOL:
            out.append(f"{name} breaks qubit-exchange symmetry by {asym:.3e}")
    step = axis[1] - axis[0]
    for i, d0 in enumerate(axis):
        off = abs(axis[int(np.argmax(conc[i]))] + d0)
        if off > step * (1 + 1e-9):
            out.append(f"row delta0={d0:.6g}: concurrence maximum {off / step:.2f} "
                       "steps from delta1 = -delta0")
    r = float(np.corrcoef(g2.ravel(), conc.ravel())[0, 1])
    if not r <= PEARSON_MAX:
        out.append(f"Pearson(g2(0), C) = {r:.3f} above {PEARSON_MAX}")
    both = (conc > ENTANGLED_C) & (g2 >= BRIGHT_G2)
    if both.any():
        out.append(f"{int(both.sum())} cells have C > {ENTANGLED_C} with g2(0) >= {BRIGHT_G2}")
    return out


def steady_observables(params, conc: float, g2: float) -> list[str]:
    """Concurrence and g2(0) against the reference model at one parameter point."""
    sop, ops = reference.generator(params)
    rho = reference.steady_state(sop)
    ref_c = reference.wootters(reference.qubit_state(rho))
    ref_g = reference.g2_zero(rho, ops)
    out = []
    for name, got, want in (("concurrence", conc, ref_c), ("g2(0)", g2, ref_g)):
        if not abs(got - want) <= ORACLE_TOL:
            out.append(f"{name} {got!r} differs from reference {want!r} "
                       f"at n_max={params.n_max}")
    return out


def timescale(params, taus: np.ndarray, period: float) -> list[str]:
    """The program's period against the spectral peaks of the reference g2(tau).

    The program's frequency must lie within one native bin, 1/tau_max, of a
    reference peak at least SCALLOPING_RATIO as high as the largest peak.
    """
    sop, ops = reference.generator(params)
    rho = reference.steady_state(sop)
    freqs, mags = reference.spectral_peaks(taus, reference.g2_trace(sop, rho, ops, taus))
    dominant = freqs[mags >= SCALLOPING_RATIO * mags[0]]
    bins = float(np.min(np.abs(1.0 / period - dominant))) * taus[-1]
    if not bins <= 1.0:
        return [f"period {period!r} is {bins:.2f} bins from the nearest dominant "
                f"reference peak (largest at period {float(1.0 / freqs[0])!r})"]
    return []


def truncation_ladder(rungs: list[int], conc: list[float], g2: list[float]) -> list[str]:
    """Concurrence in [0, 1] on every rung; the change between rungs must shrink.

    Call it on boson-driven points, where truncation matters.
    """
    out = [f"concurrence {c!r} outside [0, 1] at n_max={n}"
           for n, c in zip(rungs, conc) if not 0.0 <= c <= 1.0]
    change = [max(abs(conc[k + 1] - conc[k]), abs(g2[k + 1] - g2[k]))
              for k in range(len(rungs) - 1)]
    for k in range(len(change) - 1):
        if not change[k + 1] < change[k]:
            out.append(f"truncation change grows from {change[k]:.3e} "
                       f"(n_max {rungs[k]}->{rungs[k + 1]}) to {change[k + 1]:.3e}")
    return out
