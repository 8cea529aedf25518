"""Command-line interface: batch figure-reproduction runs emitting CSV + JSON.

Subcommands: populations (driven population dynamics vs the closed form),
steady (one steady state in full detail), concurrence-map and timescale-map
(parameter-grid sweeps), g2 (one correlation trace), validate (invariant
battery). Every data command writes a CSV plus a <out>.meta.json sidecar;
CSV bytes are reproducible for identical configuration. main first sets the
OpenBLAS copies that the numpy and scipy wheels bundle to one thread
(sweep.pin_blas_threads), whatever OPENBLAS_NUM_THREADS says, since a
thread count can move the last printed digit, and leaves them there;
meta.json records what the pin found. Map workers pin themselves too.

Exit codes: 0 success, 1 configuration, usage or I/O error, 2 numerical
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .liouvillian import PROPAGATION_METHOD, NumericalError, evolve, steady_state
from .models import (
    boson_number,
    closed_form_inputs,
    analytic_populations,
    dicke_populations,
    full_model_liouvillian,
    ground_state,
    rabi_frequency,
)
from .observables import DEFAULT_N_SAMPLES, concurrence, default_tau_max, g2_trace
from .operators import QUBIT_NUMBER, embed, partial_trace
from .sweep import GridSpec, pin_blas_threads, run_sweep
from .validate import run_validation

_MAP_DEFAULT_AXES = {
    "concurrence-map": (("delta0", -0.05, 0.05, 41), ("delta1", -0.05, 0.05, 41)),
    "timescale-map": (("eta0", 0.0, 0.1, 41), ("eta1", 0.0, 0.1, 41)),
}
_AXIS_KEYS = tuple(f"axis{k}{suffix}" for k in (1, 2)
                   for suffix in ("", "_min", "_max", "_points"))
# the run keys each command reads, besides out: meta.json `settings` lists
# only these (map cells take their delay grid from each cell's parameters,
# never from tau_max and n_samples)
_SETTINGS_READ = {
    "populations": ("t_max", "n_times"),
    "steady": (),
    "g2": ("tau_max", "n_samples"),
    "concurrence-map": (*_AXIS_KEYS, "workers"),
    "timescale-map": (*_AXIS_KEYS, "workers", "pi_units"),
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_meta(csv_path: str, command: str, cfg: RunConfig, wall_clock: float,
                extra: dict) -> None:
    meta = {
        "command": command,
        "version": __version__,
        "params": dataclasses.asdict(cfg.params),
        "n_max": cfg.params.n_max,
        "settings": {k: getattr(cfg, k) for k in (*_SETTINGS_READ[command], "out")},
        "wall_clock_seconds": wall_clock,
        "csv": csv_path,
    }
    meta.update(extra)
    with open(csv_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _provenance(command: str, cfg: RunConfig) -> list[str]:
    p = cfg.params
    fields = ", ".join(
        f"{f.name}={_fmt(getattr(p, f.name))}" for f in dataclasses.fields(p))
    return [f"ddesim {command} (version {__version__})", fields]


def cmd_populations(cfg: RunConfig):
    p = cfg.params
    t_max = cfg.t_max
    if t_max is None:
        omega = rabi_frequency(p)
        if omega <= 0:
            raise ConfigError("t_max is required when parameters define no oscillation")
        t_max = 2 * np.pi / omega  # two full population periods
    times = np.linspace(0.0, t_max, cfg.n_times)

    liou = full_model_liouvillian(p)
    res = evolve(liou, ground_state(liou.layout), times)
    numeric = np.array([dicke_populations(s) for s in res.states])

    comments = _provenance("populations", cfg)
    try:
        delta, eta = closed_form_inputs(p)
        analytic = np.stack(analytic_populations(delta, eta, times), axis=1)
    except ValueError as exc:
        analytic = np.full((times.size, 4), np.nan)
        comments.append(f"closed form unavailable: {exc}")
    comments.append(f"propagation method: {PROPAGATION_METHOD}")

    header = ["t_native", "t_seconds",
              "rho_e", "rho_s", "rho_a", "rho_g",
              "rho_e_analytic", "rho_s_analytic", "rho_a_analytic", "rho_g_analytic"]
    rows = [[t, t / p.gamma_a_abs, *num, *ana]
            for t, num, ana in zip(times, numeric, analytic)]
    return comments, header, rows, {"propagation_method": PROPAGATION_METHOD}


def cmd_steady(cfg: RunConfig):
    liou = full_model_liouvillian(cfg.params)
    rho_ss = steady_state(liou)
    layout = liou.layout
    rho2q = partial_trace(rho_ss, (0, 1))
    conc = concurrence(rho2q).value
    pops = dicke_populations(rho_ss)

    rows = [("concurrence", conc),
            ("rho_e", pops[0]), ("rho_s", pops[1]),
            ("rho_a", pops[2]), ("rho_g", pops[3]),
            ("n_qubit0", rho_ss.expect(embed(QUBIT_NUMBER, 0, layout)).real),
            ("n_qubit1", rho_ss.expect(embed(QUBIT_NUMBER, 1, layout)).real),
            ("n_boson", rho_ss.expect(boson_number(layout)).real),
            ("purity", float(np.trace(rho_ss.matrix @ rho_ss.matrix).real))]
    for name, matrix in (("rho2q", rho2q.matrix), ("rho_ss", rho_ss.matrix)):
        for (i, j), value in np.ndenumerate(matrix):
            rows += [(f"{name}_{i}_{j}_re", value.real), (f"{name}_{i}_{j}_im", value.imag)]

    comments = _provenance("steady", cfg)
    return comments, ["quantity", "value"], rows, {"concurrence": conc}


def cmd_g2(cfg: RunConfig):
    p = cfg.params
    liou = full_model_liouvillian(p)
    rho_ss = steady_state(liou)
    tau_max = cfg.tau_max if cfg.tau_max is not None else default_tau_max(p)
    trace = g2_trace(liou, rho_ss, tau_max, cfg.n_samples)

    comments = _provenance("g2", cfg)
    comments.append(
        f"g2_zero={_fmt(trace.g2_zero)}, asymptote={_fmt(trace.asymptote)}, "
        f"bright_emitters={list(trace.bright_emitters)}, method={PROPAGATION_METHOD}")
    header = ["tau_native", "tau_seconds", "raw", "normalized"]
    rows = [[t, t / p.gamma_a_abs, r, n]
            for t, r, n in zip(trace.taus, trace.raw, trace.normalized)]
    extra = {"g2_zero": trace.g2_zero, "asymptote": trace.asymptote,
             "tau_max": tau_max, "method": PROPAGATION_METHOD,
             "bright_emitters": list(trace.bright_emitters),
             "dark_emitters": list(trace.dark_emitters)}
    return comments, header, rows, extra


def _grid_spec(cfg: RunConfig, command: str, observables: tuple[str, ...]) -> GridSpec:
    default1, default2 = _MAP_DEFAULT_AXES[command]
    axis1 = cfg.axis_override(1) or default1
    axis2 = cfg.axis_override(2)
    if axis2 is None and cfg.axis_override(1) is None:
        axis2 = default2  # untouched config keeps the full 2-D default map
    try:
        return GridSpec(axis1=axis1, axis2=axis2, base=cfg.params, observables=observables)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_map(cfg: RunConfig, command: str, observables: tuple[str, ...]):
    """Sweep a map grid: the result, the shared comment lines and the shared meta keys.

    Without a configured worker count the sweep uses one process per CPU
    this process may run on.
    """
    spec = _grid_spec(cfg, command, observables)
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=cfg.workers or _available_cpus())
    sweep_seconds = time.perf_counter() - t0
    comments = _provenance(command, cfg)
    comments.append(f"axis1={spec.axis1}, axis2={spec.axis2}")
    failed = sum(0 if r.ok else 1 for r in result.rows)
    extra = {"axis1": list(spec.axis1), "axis2": list(spec.axis2) if spec.axis2 else None,
             "cells": len(result.rows), "failed_cells": failed,
             "timing": _timing(sweep_seconds, result.cell_seconds)}
    return result, comments, extra


def _timing(sweep_seconds: float, cell_seconds) -> dict:
    """The sweep's wall seconds and the distribution of its cells' seconds.

    A cell's seconds are its own work (its generator, its LU, its g2(tau)
    trace) plus an equal share of its batch's stacked passes (the
    residuals and state checks, the reduced states, the concurrences and
    g2(0)). The sum of cell seconds against the wall seconds (times the
    workers) shows the cost of starting and collecting the workers; a map
    without cells reports zeros.
    """
    cells = np.asarray(cell_seconds, dtype=float)
    p50, p95, top = np.percentile(cells, (50, 95, 100)) if cells.size else (0.0, 0.0, 0.0)
    return {"sweep_seconds": sweep_seconds, "cell_seconds_sum": float(cells.sum()),
            "cell_seconds_p50": float(p50), "cell_seconds_p95": float(p95),
            "cell_seconds_max": float(top)}


def _map_rows(result, values) -> list[list]:
    """One CSV row per cell: both axis values, values(cell), the error.

    A 1-D map's second axis value is None, and the error's commas and
    newlines are replaced, keeping one record per row.
    """
    return [[*(*cell.axis_values, None)[:2], *values(cell),
             (cell.error or "").replace(",", ";").replace("\n", " ")] for cell in result.rows]


def cmd_concurrence_map(cfg: RunConfig):
    result, comments, extra = _run_map(cfg, "concurrence-map", ("concurrence", "g2_zero"))
    header = ["axis1_value", "axis2_value", "concurrence", "g2_zero", "error"]
    rows = _map_rows(result, lambda cell: (cell.concurrence, cell.g2_zero))
    return comments, header, rows, extra


def cmd_timescale_map(cfg: RunConfig):
    result, comments, extra = _run_map(cfg, "timescale-map", ("timescale",))
    gamma_a_abs = cfg.params.gamma_a_abs
    unit_scale = np.pi if cfg.pi_units else 1.0
    unit_name = "T = 1/(pi*gamma_a)" if cfg.pi_units else "T = 1/gamma_a"
    comments.append(f"period_display unit: {unit_name}")
    extra.update(display_unit=unit_name, n_samples=DEFAULT_N_SAMPLES,
                 tau_max="default_tau_max of each cell")

    def periods(cell):
        if cell.period_native is None:
            return (None, None, None)
        return (cell.period_native, cell.period_native / gamma_a_abs,
                cell.period_native * unit_scale)

    header = ["axis1_value", "axis2_value", "period_native", "period_seconds",
              "period_display", "error"]
    return comments, header, _map_rows(result, periods), extra


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddesim",
        description="Steady states, entanglement, and photon correlations of "
                    "two driven qubits coupled through a lossy bosonic mode.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("populations", "population dynamics vs the closed-form oracle"),
            ("steady", "steady state, Dicke populations, concurrence"),
            ("concurrence-map", "parameter-grid map of concurrence and g2(0)"),
            ("g2", "photon correlation trace g2(tau)"),
            ("timescale-map", "parameter-grid map of the anti-bunching timescale"),
            ("validate", "run the invariant battery")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="key = value config file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
        cmd.add_argument("--out", help="output CSV path (default <command>.csv)")
        cmd.add_argument("--workers", type=int,
                         help="worker processes for map commands, at most one per cell "
                              "(default: one per usable CPU; 1 runs in this process)")
        cmd.add_argument("--pi-units", action="store_true",
                         help="format map legend in T = 1/(pi*gamma_a) units")
    return parser


_HANDLERS = {
    "populations": cmd_populations,
    "steady": cmd_steady,
    "g2": cmd_g2,
    "concurrence-map": cmd_concurrence_map,
    "timescale-map": cmd_timescale_map,
}


def main(argv=None) -> int:
    blas = pin_blas_threads()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means numerical here
        if exc.code == 2:
            return 1
        raise
    # flags go after --set, so they win; not --out: the parser reads '#' as a comment
    flags = [f"workers={args.workers}"] if args.workers is not None else []
    if args.pi_units:
        flags.append("pi_units=true")
    try:
        cfg = parse_config(args.config, (*args.set, *flags))
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        failures = run_validation()
        if failures:
            print(f"validation failed: {failures} check(s)", file=sys.stderr)
            return 3
        return 0

    out = cfg.out or args.command.replace("-", "_") + ".csv"
    t0 = time.perf_counter()
    try:
        payload = _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2

    comments, header, rows, extra = payload
    try:
        _write_csv(out, comments, header, rows)
        _write_meta(out, args.command, cfg, time.perf_counter() - t0, {**extra, "blas": blas})
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out} and {out}.meta.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
