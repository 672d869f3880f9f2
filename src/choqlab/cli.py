"""Command-line front end: constants, threshold, solve, fiber, verify.

One command per process.  Every artifact has a single canonical format
(JSON for reports, CSV for curves, CHQF1 for fields) and is written
atomically.  Timestamps and host info live in a separate "meta" block so
scientific content diffs stay clean; everything outside "meta" is
deterministic for a fixed config.

Exit codes: 0 success, 1 usage or config error, 2 non-convergence or a
failed certified-regime check, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, fields

import numpy as np
import scipy

from .energy import Certificate, Evaluation
from .fiber import FiberCurve, default_taus, fiber_curve, unimodality_report
from .grid import MAX_SAMPLES, Field, Grid, read_field, write_atomic, write_field
from .problem import ProblemParams, make_nonlinearity, parse_nonlinearity
from .riesz import build_kernel
from .thresholds import build_bundle, h_value
from .minimize import SolveOptions, solve


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------

def default_config() -> dict:
    """Full config tree; a type marks a value that must be supplied."""
    return {
        "problem": {"N": int, "alpha": float, "b": int, "rho": float},
        "nonlinearity": None,   # "nu1*|t|^p1 + ..." or [[coef, exponent], ...]
        "grid": {"m": 64, "L": 24.0},
        "solver": {**asdict(SolveOptions()), "allow_outside_theory": False},
        "fiber": {"enabled": False, "tau_min": 0.01, "tau_max": 10.0,
                  "n_tau": 200},
        "threshold": {"n_samples": 400},
        "output_dir": "choqlab_out",
    }


def _merge_section(base: dict, incoming: dict, path: str) -> None:
    for key, value in incoming.items():
        if key not in base:
            raise UsageError(f"unknown config key {path}{key}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {path}{key} must be a table")
            _merge_section(base[key], value, f"{path}{key}.")
        else:
            base[key] = value


def load_config(args: argparse.Namespace) -> dict:
    cfg = default_config()
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config root must be a JSON object")
        _merge_section(cfg, file_cfg, "")

    # a flag's dest is its config path; other dests name no config key
    for path, value in vars(args).items():
        *sections, key = path.split(".")
        table = cfg
        for section in sections:
            table = table[section]
        if value is not None and key in table:
            table[key] = value

    missing = [k for k, v in cfg["problem"].items() if isinstance(v, type)]
    if cfg["nonlinearity"] is None:
        missing.append("G")
    if missing:
        raise UsageError(
            "missing required parameters: " + ", ".join(missing)
            + " (set via flags or --config)"
        )
    _check_kinds(cfg, default_config())
    return cfg


def _check(value, key: str, kind: type):
    """value coerced to kind, if it has that kind: a JSON number for float,
    an integral one for int."""
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = type(value) is int or (
            type(value) is float and (kind is float or value.is_integer()))
    if not ok:
        raise UsageError(f"config key {key} must be of type {kind.__name__}, "
                         f"got {json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise UsageError(f"config key {key} is too large for a float") from None


def _check_kinds(cfg: dict, defaults: dict, path: str = "") -> None:
    """Coerce every value to its default's kind; G and r_cap are checked
    where read."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            _check_kinds(cfg[key], default, f"{path}{key}.")
        elif default is not None:
            kind = default if isinstance(default, type) else type(default)
            cfg[key] = _check(cfg[key], path + key, kind)


def _power_pair(item, key: str) -> list:
    if not (isinstance(item, list) and len(item) == 2):
        raise UsageError(f"config key {key} must be a [coef, exponent] pair, "
                         f"got {json.dumps(item)}")
    return [_check(v, key, float) for v in item]


def build_problem(cfg: dict):
    params = ProblemParams(**cfg["problem"])
    spec = cfg["nonlinearity"]
    if isinstance(spec, str):
        nl = parse_nonlinearity(params, spec)
    elif isinstance(spec, list):
        nl = make_nonlinearity(params, [
            _power_pair(item, f"nonlinearity[{i}]")
            for i, item in enumerate(spec)])
    else:
        raise UsageError("config key nonlinearity must be a string or a list "
                         f"of [coef, exponent] pairs, got {json.dumps(spec)}")
    # normalized echo so identical configs serialize identically
    cfg["nonlinearity"] = [[t.coef, t.exponent] for t in nl.terms]
    return params, nl


def build_problem_on_grid(cfg: dict):
    """(params, nl, kernel) with the kernel on the config's grid."""
    params, nl = build_problem(cfg)
    grid = Grid(dim=params.N, **cfg["grid"])
    return params, nl, build_kernel(grid, params.alpha)


def _sample_count(key: str, n: int) -> int:
    """n, the count at config key, refused outside 1..MAX_SAMPLES."""
    if not 1 <= n <= MAX_SAMPLES:
        bound = "positive" if n < 1 else f"at most {MAX_SAMPLES}"
        raise UsageError(f"config key {key} must be {bound}, got {n}")
    return n


def fiber_taus(cfg: dict) -> np.ndarray:
    fc = cfg["fiber"]
    return default_taus(fc["tau_min"], fc["tau_max"],
                        _sample_count("fiber.n_tau", fc["n_tau"]))


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------

def _clean(obj):
    """Make a structure JSON-safe: numpy scalars to floats, inf/nan to None."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_clean(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    write_atomic(path, text.encode())


def _meta() -> dict:
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def echo_config(cfg: dict, out_dir: str) -> None:
    write_json(os.path.join(out_dir, "config.json"), cfg)


def bundle_payload(bundle) -> dict:
    payload = asdict(bundle)
    payload["R0"], payload["R1"] = payload.pop("r0"), payload.pop("r1")
    return payload


def certificate_block(cert: Certificate) -> dict:
    """The residuals block of solve reports and verify: the certificate's
    fields, the energy terms prefixed energy_."""
    block = asdict(cert)
    for key, value in block.pop("energy").items():
        block[f"energy_{key}"] = value
    block["lambda"] = block.pop("lambda_")
    return block


def residual_block(params, nl, kernel, u: Field) -> dict:
    """Recompute the residuals block from a stored field."""
    return certificate_block(Evaluation(params, nl, kernel, u).certificate())


def fiber_csv_text(curve: FiberCurve) -> str:
    diag = unimodality_report(curve)
    lines = [
        f"# phi_slope_at_tau1 = {curve.phi_at_1_slope!r}",
        f"# n_maxima = {diag.n_maxima}",
        f"# conclusive = {str(diag.conclusive).lower()}",
        "tau,phi,kinetic,interaction,d_lower",
    ]
    d_lower = curve.d_lower
    for i, tau in enumerate(curve.taus):
        dl = float(d_lower[i]) if d_lower is not None else math.nan
        lines.append(
            f"{float(tau)!r},{float(curve.values[i])!r},"
            f"{float(curve.kinetic[i])!r},{float(curve.interaction[i])!r},"
            f"{dl!r}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_constants(cfg: dict, args: argparse.Namespace) -> int:
    params, nl, kernel = build_problem_on_grid(cfg)
    bundle = build_bundle(params, nl, kernel.grid, kernel)
    out_dir = cfg["output_dir"]
    write_json(os.path.join(out_dir, "constants.json"), bundle_payload(bundle))
    echo_config(cfg, out_dir)
    print(os.path.join(out_dir, "constants.json"))
    return 0


def cmd_threshold(cfg: dict, args: argparse.Namespace) -> int:
    n = _sample_count("threshold.n_samples", cfg["threshold"]["n_samples"])
    params, nl, kernel = build_problem_on_grid(cfg)
    bundle = build_bundle(params, nl, kernel.grid, kernel)
    if params.rho >= bundle.rho0:
        print(
            f"no positive window: rho = {params.rho} is not below "
            f"rho0 = {bundle.rho0}",
            file=sys.stderr,
        )
        return 1

    out_dir = cfg["output_dir"]
    payload = bundle_payload(bundle)
    write_json(os.path.join(out_dir, "threshold.json"), payload)

    if bundle.r0 is not None:
        ts = np.geomspace(bundle.r0 / 10.0, bundle.r1 * 10.0, n)
    else:
        ts = np.geomspace(1e-2, 1e2, n)  # barrier is the constant 1/2 here
    rows = ["t,h"]
    for t in ts:
        hv = h_value(params.rho, float(t), bundle.c1, bundle.c2, params)
        rows.append(f"{float(t)!r},{hv!r}")
    write_atomic(os.path.join(out_dir, "h_curve.csv"),
                 ("\n".join(rows) + "\n").encode())
    echo_config(cfg, out_dir)
    print(os.path.join(out_dir, "threshold.json"))
    return 0


def cmd_solve(cfg: dict, args: argparse.Namespace) -> int:
    params, nl, kernel = build_problem_on_grid(cfg)
    # before the descent, which a bad fiber block would waste
    taus = fiber_taus(cfg) if cfg["fiber"]["enabled"] else None
    sv = cfg["solver"]
    if sv["r_cap"] is not None:
        sv["r_cap"] = _check(sv["r_cap"], "solver.r_cap", float)
    opts = SolveOptions(**{f.name: sv[f.name] for f in fields(SolveOptions)})
    bundle = build_bundle(params, nl, kernel.grid, kernel)
    report = solve(params, nl, kernel.grid, kernel, bundle, opts)

    out_dir = cfg["output_dir"]
    write_field(os.path.join(out_dir, "u_star.chqf"), report.u_star)

    residuals = certificate_block(report.certificate)
    checks = {
        "converged": report.converged,
        "multiplier_positive": residuals["lambda"] > 0.0,
        "mass_matches": abs(residuals["mass"] - params.rho)
        <= 1e-8 * params.rho,
        "inside_ball": residuals["grad_norm"] <= report.r_cap,
        "pohozaev_small": residuals["pohozaev"] < 1e-3,
        "nehari_pohozaev_small": residuals["nehari_pohozaev"] < 1e-3,
    }
    half = report.half_grid_energy  # published, read by no check
    payload = {
        "report": {
            "converged": report.converged,
            "iterations": report.iterations,
            "outside_theory": report.outside_theory,
            "r_cap": report.r_cap,
            "boundary_margin": report.boundary_margin,
            "m_estimate": report.m_estimate,
            "profile_resolved": bundle.profile_resolved,
            "half_grid_energy": half,
            "half_grid_gap": None if half is None
            else half - residuals["energy_total"],
            "certified_checks": checks,
            "starts": [asdict(s) for s in report.starts],
        },
        "residuals": residuals,
        "config": cfg,
        "meta": _meta(),
    }
    write_json(os.path.join(out_dir, "report.json"), payload)

    if taus is not None:
        curve = fiber_curve(params, nl, kernel, report.u_star, taus)
        write_atomic(os.path.join(out_dir, "fiber.csv"),
                     fiber_csv_text(curve).encode())
    echo_config(cfg, out_dir)
    print(os.path.join(out_dir, "report.json"))

    if not report.converged:
        print("solve did not converge", file=sys.stderr)
        return 2
    if report.outside_theory:
        if sv["allow_outside_theory"]:
            return 0
        print(
            "run is outside the certified regime: "
            + "; ".join(report.outside_reasons)
            + " (set solver.allow_outside_theory to accept it)",
            file=sys.stderr,
        )
        return 2
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print("certified checks failed: " + ", ".join(failed),
              file=sys.stderr)
        return 2
    return 0


def _load_matching_field(cfg: dict, path: str):
    """(params, nl, kernel, field) for a stored field on the config's grid."""
    params, nl, kernel = build_problem_on_grid(cfg)
    field = read_field(path)
    if field.grid != kernel.grid:
        raise UsageError(f"grid mismatch: field is {field.grid}, "
                         f"config wants {kernel.grid}")
    return params, nl, kernel, field


def cmd_fiber(cfg: dict, args: argparse.Namespace) -> int:
    params, nl, kernel, field = _load_matching_field(cfg, args.field)
    curve = fiber_curve(params, nl, kernel, field, fiber_taus(cfg))
    out_dir = cfg["output_dir"]
    write_atomic(os.path.join(out_dir, "fiber.csv"),
                 fiber_csv_text(curve).encode())
    echo_config(cfg, out_dir)
    diag = unimodality_report(curve)
    print(os.path.join(out_dir, "fiber.csv"))
    print(f"maxima detected: {diag.n_maxima}; {diag.detail}")
    return 0


def cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    params, nl, kernel, field = _load_matching_field(cfg, args.field)
    payload = {
        "residuals": residual_block(params, nl, kernel, field),
        "field": os.path.basename(args.field),
        "grid": asdict(field.grid),
    }
    out_dir = cfg["output_dir"]
    write_json(os.path.join(out_dir, "verify.json"), payload)
    print(json.dumps(_clean(payload), indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """Each flag but --config stores into the config path named by its dest."""
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--N", dest="problem.N", type=int)
    p.add_argument("--alpha", dest="problem.alpha", type=float)
    p.add_argument("--b", dest="problem.b", type=int, choices=(0, 1))
    p.add_argument("--rho", dest="problem.rho", type=float)
    p.add_argument("--G", dest="nonlinearity", metavar="SPEC",
                   help='nonlinearity, e.g. "0.5*|t|^2.2 + |t|^3" ("0" for none)')
    p.add_argument("--m", dest="grid.m", type=int, help="grid points per axis")
    p.add_argument("--L", dest="grid.L", type=float, help="box edge length")
    p.add_argument("--seed", dest="solver.seed", type=int)
    p.add_argument("--starts", dest="solver.n_starts", type=int,
                   help="number of descent starts")
    p.add_argument("--out", dest="output_dir", metavar="DIR",
                   help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="choqlab",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, desc in (
        ("constants", cmd_constants,
         "write the full constant/threshold bundle as JSON"),
        ("threshold", cmd_threshold,
         "write threshold JSON plus a barrier-curve CSV"),
        ("solve", cmd_solve, "run the local minimization and write artifacts"),
        ("fiber", cmd_fiber, "sample the dilation curve of a stored field"),
        ("verify", cmd_verify, "recompute residuals for a stored field"),
    ):
        p = sub.add_parser(name, help=desc)
        p.set_defaults(handler=handler)
        _add_shared_flags(p)
        if name == "solve":
            p.add_argument("--fiber", dest="fiber.enabled",
                           action="store_const", const=True,
                           help="also write fiber.csv for the minimizer")
        if name in ("fiber", "verify"):
            p.add_argument("field", help="CHQF1 field file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(load_config(args), args)
    except UsageError as exc:
        print(f"choqlab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"choqlab: i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"choqlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
