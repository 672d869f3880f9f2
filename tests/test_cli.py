"""End-to-end checks of the command-line front end.

Most tests drive main() in-process so the session kernel cache is shared.
Two subprocess tests prove the front end works on its own: one runs the
installed ``choqlab`` console script and skips when that script is not on
PATH (a source checkout run with PYTHONPATH=src has none); the other runs
``python -m choqlab`` and always runs.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import choqlab
from choqlab import Field, rescale_mass, s2_closed_form, write_field
from choqlab.cli import main

G_PRESET = "70*|t|^2 + |t|^{8/3}"


def base_argv(command, out_dir, rho, m=32, extra=()):
    argv = [
        command,
        "--N", "3", "--alpha", "2.0", "--b", "0",
        "--rho", repr(float(rho)),
        "--G", G_PRESET,
        "--m", str(m), "--L", "24",
        "--out", str(out_dir),
    ]
    argv.extend(extra)
    return argv


def store_gaussian(tmp_path, grid, sigma=1.5, rho=0.5):
    vals = np.exp(-grid.radius_sq() / (2.0 * sigma**2))
    u = rescale_mass(Field(grid, vals), rho)
    path = tmp_path / "field.chqf"
    write_field(str(path), u)
    return path, u


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(base_argv("constants", out, 0.05))
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("constants.json")

    payload = json.loads((out / "constants.json").read_text())
    assert set(payload) == {
        "N", "alpha", "b", "rho", "a_alpha", "c_alpha", "s1", "s2", "s3",
        "profile_resolved", "c0", "c1", "c2", "rho0", "t0", "hmax", "R0",
        "R1", "provenance"}
    # the S1/S3 trial profile is too narrow for m = 32; the artifact says so
    assert payload["profile_resolved"] is False
    assert payload["s2"] == s2_closed_form(3, 2.0)
    assert payload["provenance"]["s2"] == "exact-formula"
    assert payload["rho0"] > 0.05
    assert 0.0 < payload["R0"] < payload["R1"]

    cfg = json.loads((out / "config.json").read_text())
    assert cfg["nonlinearity"] == [[70.0, 2.0], [1.0, 8.0 / 3.0]]
    assert cfg["grid"] == {"m": 32, "L": 24.0}


def test_config_file_and_flags_echo_the_same_config(tmp_path, capsys):
    """Integral numbers in a config file are stored as their key's kind,
    so a file and the same flags write the same config.json."""
    assert main(base_argv("constants", tmp_path / "flags", 0.05)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"N": 3, "alpha": 2, "b": 0, "rho": 0.05},
        "nonlinearity": G_PRESET, "grid": {"m": 32, "L": 24}}))
    assert main(["constants", "--config", str(cfg_path),
                 "--out", str(tmp_path / "file")]) == 0
    capsys.readouterr()

    echoes = []
    for name in ("flags", "file"):
        text = (tmp_path / name / "config.json").read_text()
        echoes.append(text.replace(json.dumps(str(tmp_path / name)), ""))
    assert echoes[0] == echoes[1]


def test_threshold_refuses_mass_above_rho0(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(base_argv("threshold", out, 1.0))
    err = capsys.readouterr().err
    assert rc == 1
    assert "no positive window" in err
    assert not (out / "threshold.json").exists()


def test_threshold_writes_barrier_curve(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(base_argv("threshold", out, 0.05))
    assert rc == 0
    capsys.readouterr()

    payload = json.loads((out / "threshold.json").read_text())
    assert 0.0 < payload["R0"] < payload["R1"]
    assert payload["profile_resolved"] is False  # m = 32

    lines = (out / "h_curve.csv").read_text().splitlines()
    assert lines[0] == "t,h"
    assert len(lines) == 401
    t, h = (float(tok) for tok in lines[1].split(","))
    assert t > 0.0 and np.isfinite(h)

    for bad in (0, -1):
        bad_dir = tmp_path / f"bad{bad}"
        bad_dir.mkdir()
        rc = main(config_argv(bad_dir, "threshold",
                              {"threshold": {"n_samples": bad}}))
        assert rc == 1
        assert (f"config key threshold.n_samples must be positive, got {bad}"
                in capsys.readouterr().err)
        assert not (bad_dir / "out").exists()


def test_solve_is_deterministic_across_processes_worth_of_state(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"max_iters": 400}}))
    extra = ("--config", str(cfg_path), "--seed", "5", "--starts", "2")

    rcs, reports, blobs = [], [], []
    for name in ("a", "b"):
        out = tmp_path / name
        rcs.append(main(base_argv("solve", out, 0.05, extra=extra)))
        payload = json.loads((out / "report.json").read_text())
        reports.append((payload["report"], payload["residuals"]))
        blobs.append((out / "u_star.chqf").read_bytes())
    capsys.readouterr()

    # m = 32 has no coarser grid: no start spends iterations on one, and
    # there is no m/2 energy
    report = reports[0][0]
    assert [s["coarse_iterations"] for s in report["starts"]] == [[], []]
    assert report["half_grid_energy"] is None
    assert report["half_grid_gap"] is None

    assert rcs[0] == rcs[1]
    assert rcs[0] in (0, 2)
    assert reports[0] == reports[1]
    assert blobs[0] == blobs[1]


def test_solve_preset_end_to_end(tmp_path, capsys, preset, preset_report):
    """The reference run through the CLI: exit 0, certified checks all
    pass, the stored minimizer matches the library run bit for bit, and
    verify recomputes the report residuals from the artifact."""
    params, _, _ = preset
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"fiber": {"tau_min": 0.5, "tau_max": 2.0, "n_tau": 25}})
    )
    rc = main(
        base_argv("solve", out, params.rho, m=64,
                  extra=("--config", str(cfg_path), "--fiber"))
    )
    capsys.readouterr()
    assert rc == 0

    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["converged"] is True
    assert payload["report"]["profile_resolved"] is True  # m = 64
    assert payload["report"]["outside_theory"] is False
    assert all(payload["report"]["certified_checks"].values())
    assert [s["label"] for s in payload["report"]["starts"]] == [
        "lorentzian", "gaussian-narrow", "gaussian-wide", "noise-3", "noise-4",
    ]
    assert {s["stop_reason"] for s in payload["report"]["starts"]} == {"converged"}
    # a converged start tries no step at its last iteration
    assert [s["trials"] for s in payload["report"]["starts"]] == [
        s.trials for s in preset_report.starts]
    assert all(s["trials"] >= s["iterations"] - 1
               for s in payload["report"]["starts"])
    assert all(set(s) == {"label", "converged", "iterations", "trials",
                          "energy", "grad_residual", "stop_reason",
                          "coarse_iterations"}
               for s in payload["report"]["starts"])
    # one coarser grid, m = 32, where each start spent iterations
    assert all(len(s["coarse_iterations"]) == 1 and s["coarse_iterations"][0] > 0
               for s in payload["report"]["starts"])
    half = payload["report"]["half_grid_energy"]
    assert (payload["report"]["half_grid_gap"]
            == half - payload["residuals"]["energy_total"])

    from choqlab import read_field

    stored = read_field(str(out / "u_star.chqf"))
    assert np.array_equal(stored.values, preset_report.u_star.values)

    fiber_lines = (out / "fiber.csv").read_text().splitlines()
    assert fiber_lines[3] == "tau,phi,kinetic,interaction,d_lower"
    assert len(fiber_lines) == 4 + 25

    rc = main(
        base_argv("verify", out, params.rho, m=64,
                  extra=(str(out / "u_star.chqf"),))
    )
    verify_out = capsys.readouterr().out
    assert rc == 0
    got = json.loads(verify_out)["residuals"]
    want = payload["residuals"]
    assert set(got) == set(want)
    # one code path certifies both, so the numbers agree exactly
    assert got == want


def test_solve_overflow_is_a_clear_error(tmp_path, capsys, monkeypatch):
    """Every start overflows at this mass, so there is no field to certify:
    exit 1 with a message naming the term, not a traceback."""
    monkeypatch.setenv("CHOQLAB_THREADS", "1")  # errstate is per thread
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"r_cap": 1.0}}))
    argv = base_argv("solve", tmp_path / "out", 1e60,
                     extra=("--config", str(cfg_path), "--starts", "2"))
    argv[argv.index("--G") + 1] = "1e150*|t|^3"
    with np.errstate(over="ignore"):
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "term 1e+150*|t|^3 overflowed" in err


def test_outside_theory_exit_names_its_reasons(tmp_path, capsys):
    """|t|^3 sits above the b = 0 mass-critical power, so G2 fails: exit 2,
    and the message says which condition put the run outside the theory."""
    argv = base_argv("solve", tmp_path / "out", 0.05)
    argv[argv.index("--G") + 1] = "|t|^3"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "outside the certified regime: G2: smallest exponent 3" in err
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["report"]["outside_theory"] is True


def test_bad_thread_count_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHOQLAB_THREADS", "abc")
    rc = main(base_argv("solve", tmp_path / "out", 0.05))
    err = capsys.readouterr().err
    assert rc == 1
    assert "CHOQLAB_THREADS must be a positive integer, got 'abc'" in err


def config_argv(tmp_path, command, changes):
    """argv that takes every parameter from a config file, with changes
    merged over a valid preset config."""
    cfg = {"problem": {"N": 3, "alpha": 2.0, "b": 0, "rho": 0.05},
           "nonlinearity": G_PRESET, "grid": {"m": 32, "L": 24.0},
           "output_dir": str(tmp_path / "out")}
    for key, value in changes.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return [command, "--config", str(cfg_path)]


@pytest.mark.parametrize("changes, named", [
    ({"nonlinearity": 5}, "config key nonlinearity must be a string or a list"),
    ({"nonlinearity": [{"coef": 1}]},
     'config key nonlinearity[0] must be a [coef, exponent] pair, '
     'got {"coef": 1}'),
    ({"nonlinearity": [[1, "x"]]},
     'config key nonlinearity[0] must be of type float, got "x"'),
    ({"grid": {"L": None}}, "config key grid.L must be of type float, got null"),
    ({"solver": {"n_starts": None}},
     "config key solver.n_starts must be of type int, got null"),
    ({"problem": {"N": 3.7}}, "config key problem.N must be of type int, got 3.7"),
    ({"solver": {"allow_outside_theory": "no"}},
     'config key solver.allow_outside_theory must be of type bool, got "no"'),
    ({"output_dir": 5}, "config key output_dir must be of type str, got 5"),
    ({"solver": {"r_cap": 0.0}}, "r_cap must be positive and finite, got 0.0"),
    ({"solver": {"r_cap": -0.5}}, "r_cap must be positive and finite, got -0.5"),
    ({"solver": {"r_cap": math.nan}}, "r_cap must be positive and finite, got nan"),
    ({"solver": {"r_cap": math.inf}}, "r_cap must be positive and finite, got inf"),
    ({"solver": {"seed": -1}}, "seed must be non-negative, got -1"),
    ({"grid": {"L": 10 ** 400}}, "config key grid.L is too large for a float"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, changes, named):
    rc = main(config_argv(tmp_path, "solve", changes))
    err = capsys.readouterr().err
    assert rc == 1
    assert named in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command, changes, key", [
    ("threshold", {"threshold": {"n_samples": 2_000_000_000}},
     "threshold.n_samples"),
    ("solve", {"fiber": {"enabled": True, "n_tau": 2_000_000_000}},
     "fiber.n_tau"),
])
def test_sample_counts_are_capped(tmp_path, capsys, command, changes, key):
    """2e9 samples would take 16 GB per array: the run exits 1 naming the
    key before it allocates any, instead of a MemoryError traceback."""
    rc = main(config_argv(tmp_path, command, changes))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config key {key} must be at most 1000000, got 2000000000" in err
    assert not (tmp_path / "out").exists()


def test_bad_fiber_block_fails_before_the_solve(tmp_path, capsys):
    argv = config_argv(tmp_path, "solve", {"fiber": {"n_tau": "x"}})
    rc = main(argv + ["--fiber"])
    err = capsys.readouterr().err
    assert rc == 1
    assert 'config key fiber.n_tau must be of type int, got "x"' in err
    assert not (tmp_path / "out" / "report.json").exists()

    argv = config_argv(tmp_path, "solve", {"fiber": {"tau_min": 2.0,
                                                     "tau_max": 0.5}})
    rc = main(argv + ["--fiber"])
    assert rc == 1
    assert "0 < tau_min < tau_max" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_zero_denominator_in_nonlinearity(tmp_path, capsys):
    argv = base_argv("constants", tmp_path / "out", 0.1)
    argv[argv.index("--G") + 1] = "|t|^{8/0}"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "zero denominator in '8/0'" in err


def test_overflowing_envelope_constant(tmp_path, capsys):
    argv = base_argv("constants", tmp_path / "out", 0.05)
    argv[argv.index("--G") + 1] = "1e308*|t|^3"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "overflows the barrier coefficients C1, C2" in err
    assert "C0 = " in err


@pytest.mark.parametrize("L", ["1e-150", "1e-100"])
def test_tiny_box_names_its_trial_profile(tmp_path, capsys, L):
    """The kernel builds on these boxes, but the Sobolev trial profile's
    powers overflow: the run exits 1 naming L and delta, and numpy warns
    nothing on the way."""
    argv = base_argv("constants", tmp_path / "out", 0.06)
    argv[argv.index("--L") + 1] = L
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"box of L = {L}" in err and "delta = " in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag, value", [
    ("--L", "1e-300"), ("--L", "1e150"), ("--L", "1e300"),
    ("--rho", "1e300"), ("--rho", "1e-300"),
])
def test_float_range_errors_name_their_input(tmp_path, capsys, flag, value):
    argv = base_argv("constants", tmp_path / "out", 0.06)
    argv[argv.index(flag) + 1] = value
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{flag[2:]} = " in err


def test_verify_reports_generic_residuals(tmp_path, capsys, grid32):
    field_path, _ = store_gaussian(tmp_path, grid32)
    out = tmp_path / "out"
    rc = main(base_argv("verify", out, 0.5, extra=(str(field_path),)))
    printed = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(printed)
    # a generic profile fails the certification bound by a wide margin
    assert payload["residuals"]["pohozaev"] > 1e-3
    assert payload["residuals"]["mass"] == pytest.approx(0.5, rel=1e-12)
    assert (out / "verify.json").exists()


def test_fiber_command(tmp_path, capsys, grid32):
    field_path, _ = store_gaussian(tmp_path, grid32)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"fiber": {"tau_min": 0.5, "tau_max": 2.0, "n_tau": 15}})
    )
    rc = main(
        base_argv("fiber", out, 0.5,
                  extra=("--config", str(cfg_path), str(field_path)))
    )
    printed = capsys.readouterr().out
    assert rc == 0
    assert "maxima detected:" in printed

    lines = (out / "fiber.csv").read_text().splitlines()
    assert lines[3] == "tau,phi,kinetic,interaction,d_lower"
    assert len(lines) == 4 + 15


def test_fiber_refuses_an_overflowing_tau(tmp_path, capsys, grid32):
    """tau_max = 1e200 overflows tau^2: the command names the tau, warns
    nothing and writes no fiber.csv of inf and nan rows."""
    field_path, _ = store_gaussian(tmp_path, grid32)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fiber": {"tau_max": 1e200}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(base_argv("fiber", out, 0.5,
                            extra=("--config", str(cfg_path), str(field_path))))
    err = capsys.readouterr().err
    assert rc == 1
    assert "choqlab: dilation curve is not finite at tau = " in err
    assert not (out / "fiber.csv").exists()


def test_non_finite_field_is_an_io_error(tmp_path, capsys, grid32):
    """A NaN sample is a fault of the file, not a term overflow."""
    field_path, u = store_gaussian(tmp_path, grid32)
    u.values[3, 4, 5] = math.nan
    write_field(str(field_path), u)
    rc = main(base_argv("verify", tmp_path / "out", 0.5,
                        extra=(str(field_path),)))
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{field_path}: non-finite samples" in err


def test_grid_mismatch_is_a_usage_error(tmp_path, capsys, grid32):
    field_path, _ = store_gaussian(tmp_path, grid32)
    out = tmp_path / "out"
    rc = main(base_argv("verify", out, 0.5, m=64, extra=(str(field_path),)))
    err = capsys.readouterr().err
    assert rc == 1
    assert "grid mismatch" in err


def test_unparseable_nonlinearity(tmp_path, capsys):
    out = tmp_path / "out"
    argv = base_argv("constants", out, 0.1)
    argv[argv.index("--G") + 1] = "t^2"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot parse" in err


def test_missing_required_parameters(capsys):
    rc = main(["constants"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "missing required parameters: N, alpha, b, rho, G" in err


def test_unknown_config_key(tmp_path, capsys):
    out = tmp_path / "out"
    for bad in ({"probelm": {"N": 3}}, {"solver": {"bogus": 1}}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        rc = main(
            base_argv("constants", out, 0.1,
                      extra=("--config", str(cfg_path)))
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown config key" in err


def test_invalid_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = main(
        base_argv("constants", tmp_path / "out", 0.1,
                  extra=("--config", str(cfg_path)))
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "config" in err


ENTRY_ARGV = ["constants", "--N", "3", "--alpha", "2.0", "--b", "1",
              "--rho", "1.0", "--G", "0", "--m", "32", "--L", "24"]


def check_entry_point_run(proc, out):
    """A clean run writes nothing to stderr, though its S1/S3 trial profile
    is unresolved at m = 32: the verdict is a field of constants.json."""
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    payload = json.loads((out / "constants.json").read_text())
    assert payload["profile_resolved"] is False
    assert payload["rho0"] is None  # no mass threshold when C0 = 0
    assert payload["provenance"]["rho0"].startswith("unconstrained")


@pytest.mark.skipif(shutil.which("choqlab") is None,
                    reason="choqlab console script is not installed on PATH")
def test_installed_entry_point(tmp_path):
    exe = shutil.which("choqlab")
    assert exe is not None, "console script not on PATH"
    out = tmp_path / "out"
    proc = subprocess.run(
        [exe, *ENTRY_ARGV, "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    check_entry_point_run(proc, out)


# SciPy subpackages no choqlab process loads: scipy.signal alone would use
# most of the benchmark's peak-memory bound, and the rest (scipy.linalg and
# scipy.sparse come with the first three) add about 0.3 s to each start-up.
UNLOADED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
            "scipy.sparse", "scipy.linalg", "scipy.signal")

GUARD_SCRIPT = """
import contextlib, io, json, sys
import choqlab.cli
runs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    print(json.dumps([choqlab.cli.main(argv) for argv in runs]),
          file=sys.__stdout__)
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


def test_cli_import_leaves_scipy_signal_out(tmp_path):
    """A fresh process imports the front end and runs constants, threshold,
    solve --fiber, verify and fiber at m = 32, and none of UNLOADED is
    loaded at the end: running the commands catches an import that only
    moved from the module's top into a command."""
    src_root = str(Path(choqlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    field = str(out / "u_star.chqf")
    runs = [base_argv("constants", out, 0.05),
            base_argv("threshold", out, 0.05),
            base_argv("solve", out, 0.05, extra=("--starts", "2", "--fiber")),
            base_argv("verify", out, 0.05, extra=(field,)),
            base_argv("fiber", out, 0.05, extra=(field,))]
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, json.dumps(runs),
         json.dumps(UNLOADED)],
        capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    rcs, loaded = map(json.loads, proc.stdout.splitlines())
    assert rcs[:2] + rcs[3:] == [0, 0, 0, 0] and rcs[2] in (0, 2)
    assert loaded == []


def test_module_entry_point(tmp_path):
    # the directory that holds the imported package, e.g. src/
    src_root = str(Path(choqlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "choqlab", *ENTRY_ARGV, "--out", str(out)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    check_entry_point_run(proc, out)
