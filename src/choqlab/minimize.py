"""Local minimization on the mass sphere inside a gradient-norm ball.

The iteration is projected gradient descent: step against the tangential
part of the energy gradient and rescale back to the mass sphere.  The
gradient ball is a constraint of the line search: a trial outside it is
rejected like one that fails the test below, before its energy is read,
so it costs no convolution.  Only a start is brought inside the ball, by
the mass-preserving dilation (which scales the gradient norm exactly).
Each line search starts from a Barzilai-Borwein step (the BB2 quotient
<s, y>/<y, P y> of the last iterate and projected-gradient differences in
the preconditioned metric) and halves it until the trial lies in the ball
and passes the Armijo sufficient-decrease test, so the accepted energy
sequence strictly decreases and stalls are explicit rather than
oscillatory.

The descent is nested iteration (Brandt, Math. Comp. 31 (1977) 333):
solve first builds the kernels of the grids m/2, m/4, ... down to the
coarsest the Ewald split allows, and each start is restricted to the
coarsest grid, descended there, then resampled to each finer grid and
descended again, ending on the user's grid.  An iteration on m/2 costs
about an eighth of one on m, and from the coarse minimizer the user's
grid needs a few iterations.  Every level runs the same descent with the
same tolerance, cap and max_iters (so max_iters counts per level).  A
start's summary reports the user's grid's iterations, trials and stop
reason, and the iterations spent on each coarser grid, coarsest first;
at m = 32 there is no coarser grid.

Multistart with seeded deterministic starts makes reports reproducible:
identical options give bit-identical results regardless of thread count.
Each start is built in its own job, which keeps only the best field so far.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from . import grid as gridmod
from .energy import Certificate, EnergyError, Evaluation, dilate
from .grid import Field, Grid, _inner_rfft, mass, resample, rescale_mass
from .problem import Nonlinearity, ProblemParams, validate
from .riesz import KernelError, RieszKernel, build_kernel
from .thresholds import ThresholdBundle, lorentzian_profile


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 8000
    n_starts: int = 5
    seed: int = 0
    r_cap: float | None = None  # defaults to the bundle window root R0

    def __post_init__(self):
        if self.max_iters < 1:
            raise SolveError("max_iters >= 1 required")
        if self.n_starts < 1:
            raise SolveError("need at least one start")
        if self.seed < 0:
            raise SolveError(f"seed must be non-negative, got {self.seed}")
        if self.r_cap is not None and not 0.0 < self.r_cap < math.inf:
            raise SolveError(f"r_cap must be positive and finite, "
                             f"got {self.r_cap}")


@dataclass(frozen=True)
class StartSummary:
    label: str
    converged: bool
    iterations: int
    trials: int  # line-search trials; one outside the ball convolves nothing
    energy: float
    grad_residual: float
    stop_reason: str  # converged, max_iters, line_search_exhausted, overflow
    coarse_iterations: tuple[int, ...] = ()  # per coarser grid, coarsest first


@dataclass(frozen=True)
class SolveReport:
    u_star: Field
    certificate: Certificate  # of u_star
    boundary_margin: float    # r_cap - |grad u|_2
    m_estimate: float         # best energy across starts
    iterations: int
    converged: bool
    outside_reasons: tuple[str, ...]  # why no existence statement backs it
    r_cap: float
    starts: tuple[StartSummary, ...]
    half_grid_energy: float | None  # E of u_star on m/2; None: no m/2 kernel

    @property
    def outside_theory(self) -> bool:
        return bool(self.outside_reasons)


def thread_count(n_starts: int) -> int:
    env = os.environ.get("CHOQLAB_THREADS", "").strip()
    if not env:
        return max(1, min(n_starts, os.cpu_count() or 1))
    if not env.isdecimal() or int(env) < 1:
        raise SolveError(f"CHOQLAB_THREADS must be a positive integer, got {env!r}")
    return int(env)


# ----------------------------------------------------------------------
# One descent run in half-spectra: projection, preconditioner and step are
# linear, so a trial carries its spectrum and costs its convolution (two
# transforms); an accepted step also transforms its gradient and direction.
# ----------------------------------------------------------------------

_START_MARGIN = 0.3  # a start is dilated to 70 % of the cap


def _cap_field(u: Field, rho: float, r_cap: float
               ) -> tuple[Field, np.ndarray | None]:
    """Project onto the mass sphere, then dilate well inside the gradient
    ball; returns the field and its half-spectrum, None after a dilation."""
    u = rescale_mass(u, rho)
    spec = scipy.fft.rfftn(u.values)
    gn = math.sqrt(gridmod._grad_norm_sq_rfft(u.grid, spec))
    if gn > r_cap * (1.0 - _START_MARGIN):
        u = dilate(u, r_cap * (1.0 - _START_MARGIN) / gn, check=False)
        return rescale_mass(u, rho), None
    return u, spec


_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_STEP0 = 0.5  # first trial step; later ones are Barzilai-Borwein
_TOL_GRAD = 1e-6  # projected-gradient residual at which a start converges


def _run_start(params: ProblemParams, nl: Nonlinearity, kernel: RieszKernel,
               r_cap: float, u0: Field, opts: SolveOptions,
               label: str) -> tuple[StartSummary, Field]:
    u, spec = _cap_field(u0, params.rho, r_cap)
    cur = Evaluation(params, nl, kernel, u, spec=spec)
    try:
        cur.total  # raises on an overflowing nonlinearity
    except EnergyError:
        return StartSummary(label, False, 0, 0, math.inf, math.inf,
                            "overflow"), u

    grid, rho = u.grid, params.rho
    step = _STEP0
    trials = 0
    res = math.inf
    reason = "max_iters"
    m2 = rho * rho
    last = None  # (gproj, pdir, scale) of the last accepted step

    k2 = gridmod._omega_sq_rfft(grid)
    for iterations in range(1, opts.max_iters + 1):
        spec = cur.spec
        coeff = cur.grad_dot_u / m2
        gproj = cur.grad_spec - coeff * spec
        cur.release_arrays()  # a step reads only u, its spectrum and E
        res = math.sqrt(_inner_rfft(grid, gproj, gproj)) / rho
        if res < _TOL_GRAD:
            reason = "converged"
            break

        # H1-metric direction: dividing by (shift + |k|^2) flattens the
        # Laplacian stiffness; -coeff estimates the multiplier near a
        # critical point, and the floor keeps the inverse bounded.
        denom = max(abs(coeff), 0.05) + k2
        if last is not None:
            step = _bb_step(grid, spec, gproj, last, denom, step)
            last = None  # its two half-spectra are not held through the step
        pdir = gproj / denom
        del denom  # only gproj and the direction go on to the line search
        pdir -= (_inner_rfft(grid, pdir, spec) / m2) * spec
        slope = _inner_rfft(grid, gproj, pdir)
        if slope <= 0.0:  # keep a guaranteed descent direction
            pdir, slope = gproj, _inner_rfft(grid, gproj, gproj)
        pdir_values = scipy.fft.irfftn(pdir, s=grid.shape, axes=range(grid.dim))

        while step > 1e-14 * _STEP0:
            trials += 1
            values = cur.u.values - step * pdir_values
            scale = rho / mass(Field(grid, values))  # back onto the sphere
            values *= scale  # in place: no second copy of the trial's samples
            cand = Evaluation(params, nl, kernel, Field(grid, values),
                              spec=(spec - step * pdir) * scale)
            try:  # the ball first: a trial outside it convolves nothing
                accept = (math.sqrt(2.0 * cand.kinetic) <= r_cap and
                          cand.total < cur.total and
                          cand.total <= cur.total - _ARMIJO * step * slope)
            except EnergyError:
                accept = False
            if accept:
                cur = cand
                last = (gproj, pdir, scale)
                break
            step *= 0.5
        else:
            reason = "line_search_exhausted"  # stationary to float resolution
            break

    return StartSummary(label, reason == "converged", iterations, trials,
                        cur.total, res, reason), cur.u


def _bb_step(grid: Grid, spec: np.ndarray, gproj: np.ndarray, last: tuple,
             denom: np.ndarray, step: float) -> float:
    """BB2 step <s, y>/<y, y/denom>, clamped to [1e-3, 1e6]*_STEP0.

    s and y are the iterate and projected-gradient differences across the
    last step.  Every accepted step is spec = (spec_prev - step*pdir_prev)*
    scale with last = (gproj_prev, pdir_prev, scale), so s needs no copy of
    spec_prev.  A non-positive <s, y> (no curvature seen along s) keeps the
    last step.
    """
    gproj_prev, pdir_prev, scale = last
    s = (1.0 - 1.0 / scale) * spec - step * pdir_prev
    y = gproj - gproj_prev
    sy = _inner_rfft(grid, s, y)
    if sy <= 0.0:
        return step
    return min(max(sy / _inner_rfft(grid, y, y / denom), 1e-3 * _STEP0),
               1e6 * _STEP0)


def _noise_start(grid: Grid, seed: int, index: int) -> Field:
    """Smooth positive random bump: squared low-pass noise under an envelope."""
    rng = np.random.default_rng((int(seed), 9176, int(index)))
    white = rng.standard_normal(grid.shape)
    spec = scipy.fft.rfftn(white)
    k2 = gridmod._omega_sq_rfft(grid)
    k_c = 6.0 * (2.0 * math.pi / grid.L)
    spec *= np.exp(-k2 / k_c ** 2)
    smooth = scipy.fft.irfftn(spec, s=grid.shape, axes=range(grid.dim))
    envelope = np.exp(-grid.radius_sq() / (2.0 * (grid.L / 6.0) ** 2))
    return Field(grid, (smooth ** 2 + 1e-12) * envelope)


def default_start(grid: Grid, seed: int, index: int) -> tuple[str, Field]:
    """Start number index: a Lorentzian, two Gaussians, then seeded noise."""
    if index == 0:
        return "lorentzian", lorentzian_profile(grid, grid.L / 12.0)
    if index > 2:
        return f"noise-{index}", _noise_start(grid, seed, index)
    label, div = (("gaussian-narrow", 12.0), ("gaussian-wide", 8.0))[index - 1]
    return label, Field(grid, np.exp(-grid.radius_sq() / (2.0 * (grid.L / div) ** 2)))


def _coarse_kernels(kernel: RieszKernel) -> list[RieszKernel]:
    """Kernels of the grids m/2, m/4, ..., coarsest first.

    The ladder stops at the first grid the kernel cannot be built on (the
    Ewald split needs m > 16), so at m = 32 it is empty.  The builds are
    uncached: riesz keeps the run's own kernel.
    """
    kernels, grid = [], kernel.grid
    while True:
        grid = Grid(grid.dim, grid.m // 2, grid.L)
        try:
            kernels.insert(0, build_kernel(grid, kernel.alpha, cache=False))
        except KernelError:
            return kernels


def solve(params: ProblemParams, nl: Nonlinearity, grid: Grid,
          kernel: RieszKernel, bundle: ThresholdBundle,
          opts: SolveOptions | None = None) -> SolveReport:
    """Multistart descent; returns the best start's certified report.

    The run is flagged outside_theory when the mass is at or above the
    bundle threshold or when a growth condition fails, and outside_reasons
    names each; the solver still runs (it is an instrument, not a
    gatekeeper), the flag just records that no existence statement backs
    the output.
    """
    if opts is None:
        opts = SolveOptions()
    if grid.dim != params.N:
        raise SolveError(f"grid dim {grid.dim} != N {params.N}")

    r_cap = opts.r_cap
    if r_cap is None:
        r_cap = bundle.r0
    if r_cap is None:
        raise SolveError(
            "no gradient cap: bundle has no window at this mass; pass r_cap"
        )

    outside = [f"{c.name}: {c.detail}" for c in validate(params, nl)
               if not c.satisfied]
    if params.rho >= bundle.rho0:
        outside.append(f"rho = {params.rho} is not below rho0 = {bundle.rho0}")

    coarse = _coarse_kernels(kernel)
    best = None  # (key, summary, field) of the best start finished so far
    lock = threading.Lock()

    def run(index: int) -> StartSummary:
        nonlocal best
        label, u = default_start(grid, opts.seed, index)
        spent = []  # iterations per level, coarsest first
        for level in coarse + [kernel]:
            if u.grid != level.grid:  # resample drops even a same grid's Nyquist
                u = resample(u, level.grid)
            summary, u = _run_start(params, nl, level, r_cap, u, opts, label)
            spent.append(summary.iterations)
        summary = replace(summary, coarse_iterations=tuple(spent[:-1]))
        key = (not summary.converged, summary.energy, index)  # a total order
        with lock:
            if best is None or key < best[0]:
                best = key, summary, u
        return summary

    workers = thread_count(opts.n_starts)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            starts = tuple(pool.map(run, range(opts.n_starts)))
    else:  # no pool: a one-worker pool costs resident memory
        starts = tuple(map(run, range(opts.n_starts)))
    _, best_summary, u_star = best

    cert = Evaluation(params, nl, kernel, u_star).certificate()
    half_grid_energy = None
    if coarse:  # the ladder's last grid is m/2
        half = coarse[-1]
        half_grid_energy = Evaluation(params, nl, half,
                                      resample(u_star, half.grid)).total

    return SolveReport(
        u_star=u_star,
        certificate=cert,
        boundary_margin=r_cap - cert.grad_norm,
        m_estimate=min(s.energy for s in starts),
        iterations=best_summary.iterations,
        converged=best_summary.converged,
        outside_reasons=tuple(outside),
        r_cap=r_cap,
        starts=starts,
        half_grid_energy=half_grid_energy,
    )


def m_estimate(params: ProblemParams, nl: Nonlinearity, grid: Grid,
               kernel: RieszKernel, bundle: ThresholdBundle, a: float,
               opts: SolveOptions | None = None) -> float:
    """Best energy at mass a inside the reference ball of the bundle.

    The cap stays solve's default, the window root at the bundle's own
    mass, so sweeps in a explore the same constraint set, which is what
    the monotonicity and subadditivity comparisons assume.
    """
    if a <= 0.0:
        raise SolveError("mass must be positive")
    return solve(replace(params, rho=a), nl, grid, kernel, bundle,
                 opts).m_estimate
