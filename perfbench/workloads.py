"""The three benchmark workloads: set-up, one operation, and its output check.

Every call into choqlab goes through a module attribute looked up at call
time (`ch.cli.main`, `ch.riesz.build_kernel`, ...), so the traced run sees
it.  `op(i)` is the timed part; `check(i, result)` runs untimed and returns
the problems it found (an empty list means the output is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

PRESET_G = "70*|t|^2 + |t|^{8/3}"
PRESET_FLAGS = ["--N", "3", "--alpha", "2", "--b", "0", "--rho", "0.06",
                "--G", PRESET_G, "--m", "64", "--L", "24"]
# The README's --config example, fiber block included.
README_CONFIG = {
    "problem": {"N": 3, "alpha": 2.0, "b": 0, "rho": 0.06},
    "nonlinearity": PRESET_G,
    "grid": {"m": 64, "L": 24.0},
    "solver": {"max_iters": 8000, "n_starts": 5, "seed": 0,
               "allow_outside_theory": False},
    "fiber": {"enabled": True, "tau_min": 0.5, "tau_max": 2.0, "n_tau": 25},
    "threshold": {"n_samples": 400},
    "output_dir": "run1",
}
CERTIFIED_CHECKS = ("converged", "multiplier_positive", "mass_matches",
                    "inside_ball", "pohozaev_small", "nehari_pohozaev_small")


def bump_field(ch, grid, rng, mass: float):
    """Sum of 2-4 Gaussian bumps near the origin, scaled to the given mass.

    Centres lie within 1 of the origin and widths in [0.9, 1.2], so on the
    L = 24 box every dilate with tau in [0.5, 2] stays away from the faces
    and inside the resolved band.
    """
    values = np.zeros(grid.shape)
    for _ in range(int(rng.integers(2, 5))):
        direction = rng.standard_normal(3)
        centre = direction / np.linalg.norm(direction) * rng.uniform(0.0, 1.0)
        sigma = rng.uniform(0.9, 1.2)
        values += rng.uniform(0.5, 1.0) * np.exp(
            -grid.radius_sq(centre) / (2.0 * sigma * sigma))
    return ch.grid.rescale_mass(ch.grid.Field(grid, values), mass)


def drop_kernel_cache(ch) -> None:
    """Empty build_kernel's cache so the next build is cold."""
    riesz = ch.riesz
    if hasattr(riesz.build_kernel, "cache_clear"):
        riesz.build_kernel.cache_clear()
    cache = getattr(riesz, "_cache", None)
    if cache is not None:
        cache.clear()


def _quiet_main(ch, argv) -> int:
    """cli.main with its stdout (the artifact path) kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ch.cli.main(argv)


class Workload:
    name = ""
    ops_per_round = 1          # a run stops only at a round boundary
    traced_ops = (0,)          # operations the traced run repeats

    def __init__(self, ch, seed: int, workdir: str):
        self.ch, self.seed, self.workdir = ch, seed, workdir

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError


class PresetSolve(Workload):
    """`choqlab solve` at the README preset, one fresh output dir per op."""

    name = "preset-solve"

    def __init__(self, ch, seed, workdir):
        super().__init__(ch, seed, workdir)
        self.grid = ch.grid.Grid(3, 64, 24.0)
        ch.riesz.build_kernel(self.grid, 2.0)      # cold build, kept warm
        self.argv = ["solve", *PRESET_FLAGS, "--seed", str(seed)]

    def op(self, i):
        out = tempfile.mkdtemp(prefix=f"solve{i}-", dir=self.workdir)
        return out, _quiet_main(self.ch, self.argv + ["--out", out])

    def check(self, i, result):
        out, rc = result
        try:
            problems = [] if rc == 0 else [f"exit code {rc}"]
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)["report"]
            checks = report["certified_checks"]
            problems += [f"certified check {k} not true" for k in CERTIFIED_CHECKS
                         if checks.get(k) is not True]
            energies = [s["energy"] for s in report["starts"]]
            if any(e is None or not math.isfinite(e) for e in energies):
                problems.append("a start has a non-finite energy")
            else:
                best = min(energies)
                spread = max(abs(e - best) for e in energies)
                if spread > 1e-9 * abs(best):
                    problems.append(f"start energies differ by {spread:.3e}")
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)


class FiberM128(Workload):
    """`choqlab fiber` at m=128, b=1 on a seeded 16 MiB CHQF1 field."""

    name = "fiber-m128"

    def __init__(self, ch, seed, workdir):
        super().__init__(ch, seed, workdir)
        self.grid = ch.grid.Grid(3, 128, 24.0)
        ch.riesz.build_kernel(self.grid, 2.0)
        rng = np.random.default_rng((seed, 128))
        self.field_path = os.path.join(workdir, "u.chqf")
        ch.grid.write_field(self.field_path, bump_field(ch, self.grid, rng, 0.06))
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(README_CONFIG, fh)
        self.argv = ["fiber", "--config", self.config_path,
                     "--b", "1", "--m", "128"]
        self._reference = None

    def op(self, i):
        out = tempfile.mkdtemp(prefix=f"fiber{i}-", dir=self.workdir)
        rc = _quiet_main(self.ch, self.argv + ["--out", out, self.field_path])
        return out, rc

    def reference(self):
        """energy() of the stored field, and a check that all taus resolve.

        Resolution is monotone in tau for these fields, so the two ends of
        [0.5, 2] stand for the whole range; the kinetic law is then checked
        on every sample.
        """
        if self._reference is None:
            ch = self.ch
            u = ch.grid.read_field(self.field_path)
            params = ch.problem.ProblemParams(N=3, alpha=2.0, b=1, rho=0.06)
            nl = ch.problem.parse_nonlinearity(params, PRESET_G)
            kernel = ch.riesz.build_kernel(u.grid, 2.0)
            eb = ch.energy.energy(params, nl, kernel, u)
            ends_resolved = all(
                ch.fiber.sample_resolved(ch.energy.dilate(u, tau, check=False))
                for tau in (0.5, 2.0))
            self._reference = (eb, ends_resolved)
        return self._reference

    def check(self, i, result):
        out, rc = result
        try:
            if rc != 0:
                return [f"exit code {rc}"]
            with open(os.path.join(out, "fiber.csv"), encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines()
                         if ln and not ln.startswith("#")]
            rows = np.array([[float(x) for x in ln.split(",")]
                             for ln in lines[1:]])
            eb, ends_resolved = self.reference()
            problems = [] if ends_resolved else ["input field not resolved"]
            if len(rows) != README_CONFIG["fiber"]["n_tau"]:
                problems.append(f"{len(rows)} fiber samples")
            if not np.isfinite(rows).all():
                problems.append("non-finite fiber values")
            at_one = rows[rows[:, 0] == 1.0]
            if len(at_one) != 1 or tuple(at_one[0, 1:]) != (
                    eb.total, eb.kinetic, eb.interaction, eb.d_lower):
                problems.append("tau=1 row differs from energy() of the field")
            else:
                taus, kinetic = rows[:, 0], rows[:, 2]
                dev = np.max(np.abs(kinetic / (taus ** 2 * at_one[0, 2]) - 1.0))
                if not dev < 1e-4:
                    problems.append(f"kinetic tau^2 deviation {dev:.3e}")
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)


class ParamSweep(Workload):
    """Criterion-8 sweep points at m=32 on one start thread.

    A round is ops_per_round points with alpha stratified over [1, 2] (one
    seeded draw per stratum) and b balanced between 0 and 1 in a seeded
    order, so every round covers the range the same way and its mean cost
    varies little across seeds.  A round outlasts the run length, so every
    run measures exactly one.
    """

    name = "param-sweep"
    ops_per_round = 14
    traced_ops = tuple(range(0, ops_per_round, 2))   # every other stratum

    def __init__(self, ch, seed, workdir):
        super().__init__(ch, seed, workdir)
        os.environ["CHOQLAB_THREADS"] = "1"   # the single-thread baseline
        rng = np.random.default_rng((seed, 32))
        k = self.ops_per_round
        alphas = 1.0 + (np.arange(k) + rng.uniform(size=k)) / k
        bs = rng.permutation(np.arange(k) % 2)
        self.points = [(float(a), int(b)) for a, b in zip(alphas, bs)]
        self.grid = ch.grid.Grid(3, 32, 24.0)

    def op(self, i):
        ch, grid = self.ch, self.grid
        alpha, b = self.points[i % self.ops_per_round]
        drop_kernel_cache(ch)              # every point builds cold
        kernel = ch.riesz.build_kernel(grid, alpha)
        unit = ch.problem.ProblemParams(N=3, alpha=alpha, b=b, rho=1.0)
        rho0 = ch.thresholds.build_bundle(
            unit, ch.problem.parse_nonlinearity(unit, PRESET_G), grid, kernel).rho0
        params = ch.problem.ProblemParams(N=3, alpha=alpha, b=b, rho=0.5 * rho0)
        nl = ch.problem.parse_nonlinearity(params, PRESET_G)
        bundle = ch.thresholds.build_bundle(params, nl, grid, kernel)
        opts = ch.minimize.SolveOptions(seed=self.seed)
        rho = params.rho
        return [ch.minimize.m_estimate(params, nl, grid, kernel, bundle, a, opts)
                for a in (rho, 0.8 * rho, rho / math.sqrt(2.0))]

    def check(self, i, result):
        m_rho, m_08, m_half = result
        if not all(math.isfinite(v) for v in result):
            return ["non-finite energy"]
        problems = []
        if not m_rho < m_08:
            problems.append(f"not monotone: m(rho)={m_rho!r} >= m(0.8 rho)={m_08!r}")
        if not m_rho <= 2.0 * m_half + 1e-4 * abs(m_rho):
            problems.append(f"not subadditive: m(rho)={m_rho!r}, "
                            f"m(rho/sqrt2)={m_half!r}")
        return problems


WORKLOADS = {w.name: w for w in (PresetSolve, FiberM128, ParamSweep)}
