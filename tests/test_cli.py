"""End-to-end tests for the command-line interface and config parsing."""

import ctypes
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddesim
import ddesim.cli
import ddesim.observables
import ddesim.sweep
from ddesim import __version__
from ddesim.cli import main
from ddesim.config import _KEY_TYPES, ConfigError, parse_config
from ddesim.models import _LINEAR_FIELDS, _affine_generator
from ddesim.validate import CHECKS, SEED, run_validation


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                comments.append(line[2:])
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, cast=float):
    k = header.index(name)
    return [cast(r[k]) for r in rows]


def test_parse_config_defaults():
    cfg = parse_config()
    assert cfg.params.g0 == 0.05
    assert cfg.params.g1 == 0.05
    assert cfg.params.delta_a == 0.0
    assert cfg.params.eta_a == 0.0
    assert cfg.params.gamma_a_abs == 50e12
    assert cfg.n_times == 200
    assert cfg.n_samples == 4096
    assert cfg.pi_units is False
    assert cfg.t_max is None
    assert cfg.out is None


def test_config_key_table_is_derived_from_the_dataclasses():
    # the key table is read off FullModelParams and RunConfig; it must keep
    # every key with its parse type and default
    assert _KEY_TYPES == {
        "delta0": (float, 0.01), "delta1": (float, -0.01), "delta_a": (float, 0.0),
        "g0": (float, 0.05), "g1": (float, 0.05),
        "eta0": (float, 0.05), "eta1": (float, 0.05), "eta_a": (float, 0.0),
        "gamma_r0": (float, 5e-8), "gamma_r1": (float, 5e-8),
        "gamma_d0": (float, 1e-7), "gamma_d1": (float, 1e-7),
        "gamma_a_abs": (float, 50e12), "n_max": (int, 2),
        "relaxation_operator": (str, "lower"),
        "t_max": (float, None), "n_times": (int, 200),
        "tau_max": (float, None), "n_samples": (int, 4096),
        "axis1": (str, None), "axis1_min": (float, None),
        "axis1_max": (float, None), "axis1_points": (int, None),
        "axis2": (str, None), "axis2_min": (float, None),
        "axis2_max": (float, None), "axis2_points": (int, None),
        "workers": (int, None), "pi_units": (bool, False), "out": (str, None),
    }
    assert all(type(default) in (typ, type(None))
               for typ, default in _KEY_TYPES.values())


def test_parse_config_file_and_set_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "g0 = 0.02\n"
        "\n"
        "ETA0 = 0.03  # keys are case-insensitive\n"
        "pi_units = true\n"
        "n_times = 50\n")
    cfg = parse_config(str(path))
    assert cfg.params.g0 == 0.02
    assert cfg.params.eta0 == 0.03
    assert cfg.pi_units is True
    assert cfg.n_times == 50
    # command-line assignments win over the file
    cfg2 = parse_config(str(path), ("g0=0.07", "n_times = 60"))
    assert cfg2.params.g0 == 0.07
    assert cfg2.n_times == 60


def test_parse_config_unknown_key_names_key_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("g0 = 0.02\nzeta = 1.0\n")
    with pytest.raises(ConfigError, match=r"unknown key 'zeta' on line 2"):
        parse_config(str(path))


def test_parse_config_malformed_value_names_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ng0 = fast\n")
    with pytest.raises(ConfigError, match=r"invalid value for key 'g0' on line 2"):
        parse_config(str(path))


def test_parse_config_malformed_set_argument():
    with pytest.raises(ConfigError, match=r"expected 'key = value'"):
        parse_config(None, ("g0",))
    with pytest.raises(ConfigError, match=r"unknown key 'speed'"):
        parse_config(None, ("speed=3",))


def test_parse_config_validates_run_settings():
    with pytest.raises(ConfigError):
        parse_config(None, ("n_samples=1000",))
    with pytest.raises(ConfigError):
        parse_config(None, ("n_times=1",))
    with pytest.raises(ConfigError):
        parse_config(None, ("t_max=-5",))
    with pytest.raises(ConfigError):
        parse_config(None, ("workers=0",))


def test_populations_csv(tmp_path, capsys):
    out = tmp_path / "pops.csv"
    code = main(["populations", "--set", "t_max=50", "--set", "n_times=5",
                 "--out", str(out)])
    assert code == 0
    assert f"wrote {out} and {out}.meta.json" in capsys.readouterr().out
    comments, header, rows = read_csv(out)
    assert header == ["t_native", "t_seconds", "rho_e", "rho_s", "rho_a", "rho_g",
                      "rho_e_analytic", "rho_s_analytic", "rho_a_analytic",
                      "rho_g_analytic"]
    assert len(rows) == 5
    t_nat = column(header, rows, "t_native")
    t_sec = column(header, rows, "t_seconds")
    assert np.allclose(t_sec, np.array(t_nat) / 50e12)
    analytic = np.array([[float(r[k]) for k in range(6, 10)] for r in rows])
    assert np.allclose(analytic.sum(axis=1), 1.0, atol=1e-12)
    numeric = np.array([[float(r[k]) for k in range(2, 6)] for r in rows])
    assert np.allclose(numeric.sum(axis=1), 1.0, atol=1e-9)
    # both start in the ground state; dissipation separates them later
    assert np.allclose(numeric[0], [0, 0, 0, 1], atol=1e-12)
    assert np.allclose(analytic[0], [0, 0, 0, 1], atol=1e-12)
    assert "propagation method: expm" in comments


def test_populations_without_closed_form(tmp_path):
    out = tmp_path / "pops.csv"
    code = main(["populations", "--set", "eta0=0.03", "--set", "eta1=0.04",
                 "--set", "t_max=50", "--set", "n_times=5", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert any("closed form unavailable" in c for c in comments)
    assert all(r[header.index("rho_g_analytic")] == "nan" for r in rows)


def test_csv_byte_reproducibility(tmp_path):
    args = ["populations", "--set", "t_max=80", "--set", "n_times=7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_steady_csv(tmp_path):
    out = tmp_path / "steady.csv"
    assert main(["steady", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["quantity", "value"]
    table = {r[0]: float(r[1]) for r in rows}
    assert table["concurrence"] > 0.9
    assert abs(table["rho_e"] + table["rho_s"] + table["rho_a"] + table["rho_g"] - 1) < 1e-9
    assert 0.0 <= table["purity"] <= 1.0 + 1e-12
    assert table["n_boson"] >= 0.0
    assert "rho2q_0_0_re" in table
    assert "rho_ss_11_11_re" in table
    meta = json.loads((tmp_path / "steady.csv.meta.json").read_text())
    assert meta["command"] == "steady"
    assert meta["version"] == __version__
    assert meta["params"]["g0"] == 0.05
    assert meta["n_max"] == 2
    assert meta["csv"] == str(out)
    assert meta["concurrence"] == pytest.approx(table["concurrence"], abs=1e-9)
    assert "wall_clock_seconds" in meta


def test_python_dash_m_runs_the_cli(tmp_path):
    # python -m ddesim is the console script: same command, same exit codes
    src = str(Path(ddesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ddesim", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    out = tmp_path / "steady.csv"
    done = run("steady", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.is_file()
    done = run("steady", "--set", "bogus=1", "--out", str(tmp_path / "x.csv"))
    assert done.returncode == 1
    assert "config error: unknown key 'bogus'" in done.stderr


def test_g2_csv_antibunched_and_recovering(tmp_path):
    out = tmp_path / "g2.csv"
    code = main(["g2", "--set", "delta0=0.02", "--set", "delta1=-0.02",
                 "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["tau_native", "tau_seconds", "raw", "normalized"]
    normalized = column(header, rows, "normalized")
    assert normalized[0] < 0.2
    assert abs(normalized[-1] - 1.0) <= 0.05
    tau_nat = column(header, rows, "tau_native")
    tau_sec = column(header, rows, "tau_seconds")
    assert np.allclose(tau_sec, np.array(tau_nat) / 50e12)
    assert any(c.startswith("g2_zero=") for c in comments)
    meta = json.loads((out.parent / "g2.csv.meta.json").read_text())
    assert meta["bright_emitters"] == [0, 1]
    assert meta["method"] == "expm"


def test_concurrence_map_one_dimensional(tmp_path):
    out = tmp_path / "cmap.csv"
    code = main(["concurrence-map", "--out", str(out),
                 "--set", "axis1=delta0", "--set", "axis1_min=-0.02",
                 "--set", "axis1_max=0.02", "--set", "axis1_points=3"])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["axis1_value", "axis2_value", "concurrence", "g2_zero", "error"]
    assert len(rows) == 3
    assert [r[header.index("axis2_value")] for r in rows] == ["", "", ""]
    assert [r[header.index("error")] for r in rows] == ["", "", ""]
    conc = column(header, rows, "concurrence")
    assert all(0.0 <= c <= 1.0 for c in conc)
    assert np.allclose(column(header, rows, "axis1_value"), [-0.02, 0.0, 0.02])


def test_concurrence_map_partial_axis_is_config_error(tmp_path, capsys):
    code = main(["concurrence-map", "--out", str(tmp_path / "x.csv"),
                 "--set", "axis1=delta0", "--set", "axis1_min=-0.02"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_timescale_map_pi_units(tmp_path):
    base = ["timescale-map", "--set", "eta0=0.03", "--set", "axis1=eta1",
            "--set", "axis1_min=0.028", "--set", "axis1_max=0.032",
            "--set", "axis1_points=2"]
    plain, scaled = tmp_path / "ts.csv", tmp_path / "ts_pi.csv"
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(scaled), "--pi-units"]) == 0
    c1, h1, r1 = read_csv(plain)
    c2, h2, r2 = read_csv(scaled)
    assert any("period_display unit: T = 1/gamma_a" in c for c in c1)
    assert any("period_display unit: T = 1/(pi*gamma_a)" in c for c in c2)
    native1 = column(h1, r1, "period_native")
    native2 = column(h2, r2, "period_native")
    assert np.allclose(native1, native2)
    assert np.allclose(column(h1, r1, "period_display"), native1)
    assert np.allclose(column(h2, r2, "period_display"), np.array(native2) * np.pi)
    assert np.allclose(column(h1, r1, "period_seconds"), np.array(native1) / 50e12)


def test_timescale_map_meta_lists_the_grid_its_cells_used(tmp_path):
    # every cell uses default_tau_max(cell) and 4096 samples, so the
    # configured grid changes no byte and must not be recorded as used
    base = ["timescale-map", "--workers", "1", "--set", "axis1=eta0",
            "--set", "axis1_min=0.03", "--set", "axis1_max=0.05", "--set", "axis1_points=3"]
    plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(configured),
                        "--set", "n_samples=256", "--set", "tau_max=100"]) == 0
    assert plain.read_bytes() == configured.read_bytes()
    meta = json.loads((tmp_path / "configured.csv.meta.json").read_text())
    assert "n_samples" not in meta["settings"] and "tau_max" not in meta["settings"]
    assert meta["n_samples"] == 4096
    assert "default_tau_max" in meta["tau_max"]

    def leaves(node):
        if isinstance(node, dict):
            return [v for child in node.values() for v in leaves(child)]
        if isinstance(node, list):
            return [v for child in node for v in leaves(child)]
        return [node]

    assert not {256, 100} & {v for v in leaves(meta) if isinstance(v, (int, float))}


# a value for every run key but out; a command's CSV must not depend on the
# keys it does not read, and its meta.json settings lists only those it reads
RUN_KEY_VALUES = {"t_max": "5", "n_times": "3", "tau_max": "1000", "n_samples": "256",
                  "axis1": "eta0", "axis1_min": "0.03", "axis1_max": "0.05",
                  "axis1_points": "2", "workers": "1", "pi_units": "true"}
AXIS_KEYS = {f"axis{k}{suffix}" for k in (1, 2) for suffix in ("", "_min", "_max", "_points")}
KEYS_READ = {
    "populations": {"t_max", "n_times"},
    "steady": set(),
    "g2": {"tau_max", "n_samples"},
    "concurrence-map": AXIS_KEYS | {"workers"},
    "timescale-map": AXIS_KEYS | {"workers", "pi_units"},
}


@pytest.mark.parametrize("command", list(KEYS_READ))
def test_meta_settings_list_only_the_keys_the_command_reads(tmp_path, command):
    read = KEYS_READ[command]

    def run(name, keys):
        out = tmp_path / f"{name}.csv"
        sets = [arg for k in keys & RUN_KEY_VALUES.keys()
                for arg in ("--set", f"{k}={RUN_KEY_VALUES[k]}")]
        assert main([command, "--out", str(out), *sets]) == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.meta.json").read_text())

    csv_read, meta_read = run("read", read)
    csv_all, meta_all = run("all", set(RUN_KEY_VALUES))
    assert csv_all == csv_read
    assert set(meta_all["settings"]) == read | {"out"}
    assert meta_all["settings"] == {**meta_read["settings"], "out": str(tmp_path / "all.csv")}


def test_degenerate_parameters_exit_numerical(tmp_path, capsys):
    code = main(["steady", "--out", str(tmp_path / "x.csv"),
                 "--set", "g0=0", "--set", "gamma_r0=0", "--set", "gamma_d0=0"])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_bad_set_value_exits_config_error(tmp_path, capsys):
    code = main(["steady", "--out", str(tmp_path / "x.csv"), "--set", "g0=abc"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--bogus"], ["--workers", "abc"], ["--workers", "0"]],
                         ids=["unknown-flag", "non-integer-workers", "zero-workers"])
def test_usage_errors_exit_config_error(tmp_path, capsys, flags):
    # exit code 2 is reserved for numerical failure, so argparse's usage
    # errors must not leak through
    out = tmp_path / "x.csv"
    assert main(["steady", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_overrides_set(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["concurrence-map", "--out", str(out), "--set", "workers=0",
                 "--workers", "1", "--set", "axis1=delta0", "--set", "axis1_min=-0.02",
                 "--set", "axis1_max=0.02", "--set", "axis1_points=2"]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["settings"]["workers"] == 1


SET_THREADS = ctypes.CFUNCTYPE(None, ctypes.c_int)
GET_THREADS = ctypes.CFUNCTYPE(ctypes.c_int)


def bundled_blas():
    """The thread (setter, getter) of each OpenBLAS in numpy.libs and scipy.libs loaded here."""
    found = {}
    for package, suffix in ddesim.sweep._BUNDLED_BLAS.items():
        libs = Path(sys.modules[package].__file__).parent.parent / f"{package}.libs"
        for path in libs.glob("libscipy_openblas*") if libs.is_dir() else ():
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            found[package] = (
                SET_THREADS((f"scipy_openblas_set_num_threads{suffix}", lib)),
                GET_THREADS((f"scipy_openblas_get_num_threads{suffix}", lib)))
    return found


def test_forked_map_workers_run_one_blas_thread(monkeypatch, tmp_path):
    # main sets both bundled OpenBLAS copies to one thread before it forks
    # the map workers, so each worker reads one thread, whatever the parent
    # had; each cell reports what its worker's libraries read
    blas = bundled_blas()
    if len(blas) < 2:
        pytest.skip(f"no bundled OpenBLAS of numpy and scipy: {sorted(blas)}")
    before = [get_threads() for _, get_threads in blas.values()]
    for set_threads, _ in blas.values():
        set_threads(2)
    monkeypatch.setattr(ddesim.sweep, "_observe", lambda params, observables: (
        [[get_threads() for _, get_threads in blas.values()] for _ in params],
        [None] * len(params), np.zeros(len(params))))
    out = tmp_path / "m.csv"
    try:
        assert main(["concurrence-map", "--out", str(out), "--workers", "2",
                     "--set", "axis1=delta0", "--set", "axis1_min=-0.02",
                     "--set", "axis1_max=0.02", "--set", "axis1_points=2"]) == 0
    finally:
        for (set_threads, _), threads in zip(blas.values(), before):
            set_threads(threads)
    _, header, rows = read_csv(out)
    assert column(header, rows, "concurrence") == column(header, rows, "g2_zero") == [1.0, 1.0]
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["blas"] == {"threads": {"numpy": 1, "scipy": 1}, "pinned": True}


def test_run_sweep_workers_pin_their_blas_and_leave_the_caller_alone(monkeypatch):
    # without main, the forked workers of run_sweep pin themselves to one
    # thread, and the calling process keeps the two it had
    blas = bundled_blas()
    if len(blas) < 2:
        pytest.skip(f"no bundled OpenBLAS of numpy and scipy: {sorted(blas)}")
    before = [get_threads() for _, get_threads in blas.values()]
    for set_threads, _ in blas.values():
        set_threads(2)
    monkeypatch.setattr(ddesim.sweep, "_observe", lambda params, observables: (
        [[get_threads() for _, get_threads in blas.values()] for _ in params],
        [None] * len(params), np.zeros(len(params))))
    spec = ddesim.sweep.GridSpec(axis1=("delta0", -0.02, 0.02, 2))
    try:
        rows = ddesim.sweep.run_sweep(spec, workers=2).rows
        caller = [get_threads() for _, get_threads in blas.values()]
    finally:
        for (set_threads, _), threads in zip(blas.values(), before):
            set_threads(threads)
    assert [(row.concurrence, row.g2_zero) for row in rows] == [(1, 1), (1, 1)]
    assert caller == [2, 2]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: ddesim" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["g2", "--set", "gamma_a_abs=0"],
    ["timescale-map", "--set", "gamma_a_abs=0", "--set", "axis1=eta1",
     "--set", "axis1_min=0.028", "--set", "axis1_max=0.032", "--set", "axis1_points=2"],
    ["concurrence-map", "--set", "axis1=gamma_r0", "--set", "axis1_min=-1e-3",
     "--set", "axis1_max=1e-3", "--set", "axis1_points=3"],
    ["steady", "--set", "gamma_d0=1e308"],
    ["concurrence-map", "--set", "axis1=gamma_d0", "--set", "axis1_min=0",
     "--set", "axis1_max=1e200", "--set", "axis1_points=2"],
], ids=["g2-zero-rate", "timescale-map-zero-rate", "negative-rate-axis",
        "overflowing-rate", "overflowing-rate-axis"])
def test_out_of_range_parameters_exit_config_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_validate_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr("ddesim.cli.run_validation", lambda: 0)
    assert main(["validate"]) == 0
    monkeypatch.setattr("ddesim.cli.run_validation", lambda: 2)
    assert main(["validate"]) == 3
    assert "validation failed: 2 check(s)" in capsys.readouterr().err


@pytest.mark.parametrize("check", [c for _, c in CHECKS],
                         ids=[name.replace(" ", "-") for name, _ in CHECKS])
def test_validate_check_passes(check):
    check(np.random.default_rng(SEED))


def scale_table_column(monkeypatch, name):
    """Make full_model_liouvillian read a table whose column for name is 0.1% off."""
    column = ("L_0", *_LINEAR_FIELDS).index(name)

    def perturbed(n_max, relaxation_operator):
        row_col, coef = _affine_generator(n_max, relaxation_operator)
        coef = coef.copy()
        coef[:, column] *= 1.001
        return row_col, coef

    monkeypatch.setattr("ddesim.models._affine_generator", perturbed)


def test_validation_covers_the_table_generator(monkeypatch):
    # the table every command evaluates is what the battery checks
    scale_table_column(monkeypatch, "eta0")
    assert run_validation(emit=lambda line: None) >= 1


@pytest.mark.parametrize("name", ["L_0", *_LINEAR_FIELDS])
def test_steady_state_check_compares_every_table_column(monkeypatch, name):
    scale_table_column(monkeypatch, name)
    with pytest.raises(AssertionError, match="direct assembly"):
        dict(CHECKS)["steady-state contract"](np.random.default_rng(SEED))


def test_steady_state_check_compares_the_banded_solve_with_the_dense_one(monkeypatch):
    # a 1e-11 ripple on the refined banded solution stays below the
    # residual bound but not below the check's 1e-12 agreement with the
    # dense oracle (a ripple on each dgbtrs would be refined away)
    original = ddesim.liouvillian._bordered_kernel

    def rippled(l):
        c, rcond = original(l)
        return c * (1 + 1e-11 * np.sin(np.arange(c.size))), rcond

    monkeypatch.setattr("ddesim.liouvillian._bordered_kernel", rippled)
    with pytest.raises(AssertionError, match="dense solve"):
        dict(CHECKS)["steady-state contract"](np.random.default_rng(SEED))


@pytest.mark.parametrize("distortion", [
    lambda raw: raw * 1.001,
    lambda raw: raw * (1 + 0.02 * np.sin(np.arange(raw.size))),
], ids=["scaled", "rippled"])
def test_validation_fails_on_distorted_correlation_samples(monkeypatch, distortion):
    original = ddesim.observables.correlation_samples
    monkeypatch.setattr("ddesim.observables.correlation_samples",
                        lambda *args: distortion(original(*args)))
    lines = []
    assert run_validation(emit=lines.append) >= 1
    assert any(line.startswith("FAIL - correlation pipeline") for line in lines)


def test_exchange_check_fails_on_an_asymmetric_table(monkeypatch):
    # with eta0's column 0.1% off the model is no longer symmetric under
    # the qubit swap; concurrence then moves by about 1e-2, g2(0) by 4e-3
    scale_table_column(monkeypatch, "eta0")
    with pytest.raises(AssertionError, match="under qubit exchange"):
        dict(CHECKS)["qubit-exchange symmetry"](np.random.default_rng(SEED))


def test_map_meta_records_timing(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["concurrence-map", "--out", str(out), "--workers", "1",
                 "--set", "axis1=delta0", "--set", "axis1_min=-0.02",
                 "--set", "axis1_max=0.02", "--set", "axis1_points=5"]) == 0
    timing = json.loads((tmp_path / "m.csv.meta.json").read_text())["timing"]
    assert set(timing) == {"sweep_seconds", "cell_seconds_sum", "cell_seconds_p50",
                           "cell_seconds_p95", "cell_seconds_max"}
    assert all(np.isfinite(v) and v >= 0 for v in timing.values())
    assert timing["cell_seconds_p50"] <= timing["cell_seconds_p95"] <= timing["cell_seconds_max"]
    assert timing["cell_seconds_max"] <= timing["cell_seconds_sum"] <= timing["sweep_seconds"]


def test_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["steady"]) == 0
    assert (tmp_path / "steady.csv").exists()
    assert (tmp_path / "steady.csv.meta.json").exists()
    assert "wrote steady.csv and steady.csv.meta.json" in capsys.readouterr().out


def test_benchmark_layer_functions_resolve():
    # the benchmark's tracer wraps these names from outside the package
    path = Path(__file__).resolve().parents[1] / "mapbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("mapbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in (*tracing.LAYER_FUNCTIONS, ("sweep", "_evaluate_cell")):
        assert callable(getattr(importlib.import_module(f"ddesim.{module}"), name, None)), (
            f"ddesim.{module}.{name}")
