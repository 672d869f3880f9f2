"""Multistart descent: options, determinism, certification fields."""

import dataclasses
import math
import time
import tracemalloc
import warnings
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
import scipy.fft

from choqlab import (
    Field,
    ProblemParams,
    SolveError,
    SolveOptions,
    StartSummary,
    build_bundle,
    build_kernel,
    m_estimate,
    make_nonlinearity,
    s2_closed_form,
    solve,
)
from choqlab import energy as energy_mod
from choqlab import minimize
from choqlab.cli import main
from choqlab.grid import _inner_rfft
from choqlab.minimize import _ARMIJO, _run_start, default_start, thread_count

from conftest import PRESET_TERMS


def test_solve_options_validation():
    with pytest.raises(SolveError, match="required"):
        SolveOptions(max_iters=0)
    with pytest.raises(SolveError, match="at least one start"):
        SolveOptions(n_starts=0)
    with pytest.raises(SolveError, match="seed must be non-negative, got -1"):
        SolveOptions(seed=-1)
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(SolveError,
                           match=f"r_cap must be positive and finite, got {bad}"):
            SolveOptions(r_cap=bad)


def test_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("CHOQLAB_THREADS", "7")
    assert thread_count(3) == 7
    monkeypatch.delenv("CHOQLAB_THREADS")
    got = thread_count(5)
    assert 1 <= got <= 5


@pytest.mark.parametrize("bad", ["abc", "0", "-2", "1.5"])
def test_thread_count_rejects_bad_env(monkeypatch, bad):
    monkeypatch.setenv("CHOQLAB_THREADS", bad)
    with pytest.raises(SolveError, match=f"CHOQLAB_THREADS.*{bad!r}"):
        thread_count(3)


def test_overflowing_start_summary(grid32, kernel32):
    """A start whose nonlinearity overflows at its first evaluation ends
    with no iterations and infinite energy instead of raising."""
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=1e60)
    nl = make_nonlinearity(params, [(1e150, 3.0)])
    u0 = Field(grid32, np.exp(-grid32.radius_sq() / 8.0))
    with np.errstate(over="ignore"):
        summary, _ = _run_start(params, nl, kernel32, 1.0, u0, SolveOptions(),
                                "huge")
    assert summary == StartSummary("huge", False, 0, 0, math.inf, math.inf,
                                   "overflow")


def test_failed_start_leaves_the_others(monkeypatch, grid32, kernel32):
    """One start that fails its first evaluation (non-finite samples give
    non-finite F(u), as an overflow does) is reported as such, and the
    report comes from the other starts."""
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=0.05)
    nl = make_nonlinearity(params, PRESET_TERMS)
    bundle = build_bundle(params, nl, grid32, kernel32)

    def start(grid, seed, index):
        if index == 2:
            return "bad", Field(grid, np.full(grid.shape, np.nan))
        return default_start(grid, seed, index)

    monkeypatch.setattr(minimize, "default_start", start)
    opts = SolveOptions(n_starts=3, max_iters=150, seed=3)
    rep = solve(params, nl, grid32, kernel32, bundle, opts)
    assert [s.label for s in rep.starts] == [
        "lorentzian", "gaussian-narrow", "bad"]
    assert rep.starts[-1] == StartSummary("bad", False, 0, 0, math.inf,
                                          math.inf, "overflow")
    assert all(math.isfinite(s.energy) for s in rep.starts[:-1])
    assert rep.m_estimate == min(s.energy for s in rep.starts[:-1])
    assert np.all(np.isfinite(rep.u_star.values))
    assert math.isfinite(rep.certificate.energy.total)


def test_default_start_labels(grid32):
    starts = [default_start(grid32, 0, index) for index in range(5)]
    labels = [label for label, _ in starts]
    assert labels == [
        "lorentzian", "gaussian-narrow", "gaussian-wide", "noise-3", "noise-4",
    ]
    for _, u0 in starts:
        assert np.all(np.isfinite(u0.values))
        assert float(np.abs(u0.values).max()) > 0.0
    # a noise start depends on the seed and its index, nothing else
    assert np.array_equal(default_start(grid32, 0, 3)[1].values,
                          starts[3][1].values)
    assert not np.array_equal(default_start(grid32, 1, 3)[1].values,
                              starts[3][1].values)


def test_default_starts_do_not_warn(grid32):
    """A start is only a guess: no resolution check runs on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in range(5):
            default_start(grid32, 0, index)


def test_short_run_is_deterministic(grid32, kernel32):
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=0.05)
    nl = make_nonlinearity(params, PRESET_TERMS)
    bundle = build_bundle(params, nl, grid32, kernel32)
    opts = SolveOptions(n_starts=2, max_iters=150, seed=3)
    rep_a = solve(params, nl, grid32, kernel32, bundle, opts)
    rep_b = solve(params, nl, grid32, kernel32, bundle, opts)
    assert np.array_equal(rep_a.u_star.values, rep_b.u_star.values)
    assert rep_a.certificate == rep_b.certificate
    assert rep_a.m_estimate == rep_b.m_estimate
    assert rep_a.starts == rep_b.starts


@pytest.mark.parametrize("threads", ["1", "2"])
def test_best_start_rule(monkeypatch, preset32, kernel32, threads):
    """The report keeps the converged start of least energy, the lower index
    of two equal ones, whatever the order in which starts finish; starts
    stay in index order."""
    params, nl, bundle = preset32
    canned = {  # label -> (converged, energy)
        "lorentzian": (False, -2.0),      # lowest energy, not converged
        "gaussian-narrow": (True, -1.0),  # the best
        "gaussian-wide": (True, -0.5),
        "noise-3": (True, -1.0),          # ties the best at a higher index
    }

    def run_start(params, nl, kernel, r_cap, u0, opts, label):
        if label == "gaussian-narrow":  # with 2 threads it finishes last
            time.sleep(0.2)
        converged, e = canned[label]
        return StartSummary(label, converged, 1, 1, e, 0.0,
                            "converged" if converged else "max_iters"), u0

    monkeypatch.setattr(minimize, "_run_start", run_start)
    monkeypatch.setenv("CHOQLAB_THREADS", threads)
    grid = kernel32.grid
    rep = solve(params, nl, grid, kernel32, bundle, SolveOptions(n_starts=4))
    assert [s.label for s in rep.starts] == list(canned)
    assert rep.converged
    assert rep.m_estimate == -2.0
    assert np.array_equal(rep.u_star.values, default_start(grid, 0, 1)[1].values)


def test_memory_does_not_grow_with_starts(monkeypatch, preset32, kernel32):
    """Each start is built inside its job, which keeps its field only if it
    is the best so far, so 12 starts peak where 3 do.  Building every start
    first and keeping every finished field peaked 18 m^3 fields higher."""
    params, nl, bundle = preset32
    grid = kernel32.grid
    monkeypatch.setenv("CHOQLAB_THREADS", "1")

    def peak(n_starts):
        opts = SolveOptions(n_starts=n_starts, max_iters=5)
        tracemalloc.start()
        try:
            solve(params, nl, grid, kernel32, bundle, opts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # fills the grid caches a noise start reads
    field = np.zeros(grid.shape).nbytes
    assert peak(12) - peak(3) <= 2 * field


def test_report_geometry(preset, preset_report):
    _, _, bundle = preset
    rep = preset_report
    assert rep.r_cap == bundle.r0
    assert rep.boundary_margin == rep.r_cap - rep.certificate.grad_norm
    assert rep.m_estimate == min(s.energy for s in rep.starts)
    assert rep.iterations >= 1
    assert len(rep.starts) == 5


def test_multiplier_cross_route(preset, preset_report):
    """lambda from the stationarity identity
    N rho^2 lambda = (N + alpha) D - (N - 2) |grad u|^2
    against the directly computed multiplier."""
    params, _, _ = preset
    cert = preset_report.certificate
    d_full = 2.0 * cert.energy.interaction
    lam_poho = (
        (params.N + params.alpha) * d_full
        - (params.N - 2) * cert.grad_norm**2
    ) / (params.N * params.rho**2)
    assert lam_poho == pytest.approx(cert.lambda_, rel=1e-2)


@pytest.fixture(scope="module")
def lower_critical_run(grid32, kernel32):
    params = ProblemParams(N=3, alpha=2.0, b=1, rho=0.5)
    nl = make_nonlinearity(params, [])
    bundle = build_bundle(params, nl, grid32, kernel32)
    opts = SolveOptions(r_cap=1.0, n_starts=3, max_iters=4000)
    report = solve(params, nl, grid32, kernel32, bundle, opts)
    bound = -0.5 * s2_closed_form(3, 2.0) ** (-5.0 / 3.0) * 0.5 ** (10.0 / 3.0)
    return report, bound


def test_pure_lower_critical_descends_to_flat_state(lower_critical_run):
    """With only the invariant term the energy has no scale preference and
    the descent spreads out until the gradient norm is tiny; the endpoint
    energy lands a few percent below the decaying-field floor because the
    periodic box lets the spread state wrap onto itself."""
    report, bound = lower_critical_run
    assert report.converged
    assert report.outside_theory
    assert report.certificate.grad_norm <= 1e-4
    assert bound > report.certificate.energy.total >= 1.06 * bound


@pytest.mark.xfail(
    strict=True,
    reason="the sharp interaction bound assumes fields decaying at infinity; "
    "on the periodic box the near-constant descent endpoint wraps onto its "
    "own images and exceeds the free-space ceiling by about 4 percent",
)
def test_pure_lower_critical_free_space_floor(lower_critical_run):
    report, bound = lower_critical_run
    assert report.certificate.energy.total >= bound


def test_solve_error_paths(grid32, kernel32):
    params4 = ProblemParams(N=4, alpha=2.0, b=0, rho=0.5)
    nl4 = make_nonlinearity(params4, [(1.0, 2.0)])
    params1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.5)
    nl1 = make_nonlinearity(params1, [])
    bundle1 = build_bundle(params1, nl1, grid32, kernel32)

    with pytest.raises(SolveError, match="grid dim"):
        solve(params4, nl4, grid32, kernel32, bundle1)

    # empty G with b = 1 has no mass threshold, hence no window root
    assert bundle1.r0 is None
    with pytest.raises(SolveError, match="no gradient cap"):
        solve(params1, nl1, grid32, kernel32, bundle1)
    with pytest.raises(SolveError, match="no gradient cap"):
        m_estimate(params1, nl1, grid32, kernel32, bundle1, 0.3)


def test_m_estimate_rejects_bad_mass(preset, grid32, kernel32):
    params, nl, bundle = preset
    for bad in (0.0, -0.3):
        with pytest.raises(SolveError, match="mass must be positive"):
            m_estimate(params, nl, grid32, kernel32, bundle, bad)


def test_outside_theory_above_threshold(preset, grid32, kernel32):
    params, nl, bundle = preset
    params_hi = dataclasses.replace(params, rho=1.2 * bundle.rho0)
    opts = SolveOptions(r_cap=0.5, n_starts=1, max_iters=5)
    rep = solve(params_hi, nl, grid32, kernel32, bundle, opts)
    assert rep.outside_theory


def gaussian_start(grid):
    return Field(grid, np.exp(-grid.radius_sq() / (2.0 * (grid.L / 12.0) ** 2)))


@pytest.fixture(scope="module")
def preset32(grid32, kernel32):
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=0.05)
    nl = make_nonlinearity(params, PRESET_TERMS)
    return params, nl, build_bundle(params, nl, grid32, kernel32)


@pytest.mark.parametrize("opts, reason", [
    (SolveOptions(max_iters=400), "converged"),
    (SolveOptions(max_iters=3), "max_iters"),
    # with _TOL_GRAD out of reach (below) the descent runs until no step
    # lowers the energy at float resolution
    (SolveOptions(max_iters=400), "line_search_exhausted"),
])
def test_stop_reason(monkeypatch, preset32, kernel32, opts, reason):
    if reason == "line_search_exhausted":
        monkeypatch.setattr(minimize, "_TOL_GRAD", 1e-300)
    params, nl, bundle = preset32
    u0 = gaussian_start(kernel32.grid)
    summary, _ = _run_start(params, nl, kernel32, bundle.r0, u0, opts,
                            "gaussian")
    assert summary.stop_reason == reason
    assert summary.converged == (reason == "converged")
    assert summary.iterations < opts.max_iters or reason == "max_iters"


def test_transforms_per_step(monkeypatch, preset32, kernel32, fft_calls):
    """An accepted step costs 4 transforms (its convolution, the gradient's
    forward transform, the direction's inverse one) and a rejected trial 2
    (its convolution).  Every trial convolves once, so the transforms
    between two convolutions are 4 after an accepted one, 2 after a
    rejected one."""
    params, nl, _ = preset32
    at_convolution = []

    def convolve(kernel, g):
        at_convolution.append(sum(fft_calls.values()))
        return real_convolve(kernel, g)

    real_convolve = energy_mod.convolve
    monkeypatch.setattr(energy_mod, "convolve", convolve)
    u0 = gaussian_start(kernel32.grid)
    # a large first step forces backtracks; a loose cap keeps every trial
    # inside the ball, so every trial convolves
    monkeypatch.setattr(minimize, "_STEP0", 50.0)
    opts = SolveOptions(max_iters=6)
    summary, _ = _run_start(params, nl, kernel32, 1e3, u0, opts, "gaussian")
    assert summary.stop_reason == "max_iters"
    steps = np.diff(at_convolution).tolist()
    accepted, rejected = steps.count(4), steps.count(2)
    assert accepted + rejected == len(steps)
    assert accepted == opts.max_iters   # the start's own evaluation included
    assert rejected > 0
    # before: the cap's gradient norm and the start's spectrum; after: the
    # last trial's convolution
    assert at_convolution[0] == 2
    assert sum(fft_calls.values()) == at_convolution[-1] + 2
    assert all(key.startswith("scipy.") for key in fft_calls)


def test_trial_carries_its_spectrum(monkeypatch, preset32, kernel32):
    params, nl, bundle = preset32
    carried = []

    class Recording(energy_mod.Evaluation):
        def __init__(self, *args, spec=None):
            super().__init__(*args, spec=spec)
            if spec is not None:
                carried.append((self.u.values, spec))

    monkeypatch.setattr(minimize, "Evaluation", Recording)
    u0 = gaussian_start(kernel32.grid)
    _run_start(params, nl, kernel32, bundle.r0, u0, SolveOptions(max_iters=20),
               "gaussian")
    assert len(carried) >= 20
    for values, spec in carried:
        exact = scipy.fft.rfftn(values)
        assert np.abs(spec - exact).max() <= 1e-12 * np.abs(exact).max()


def test_solve_uses_scipy_fft_only(tmp_path, capsys, fft_calls):
    """Kernel build, bundle, descent, certificate and fiber curve of one
    run, with no numpy.fft n-D transform."""
    rc = main(["solve", "--N", "3", "--alpha", "2.0", "--b", "0",
               "--rho", "0.05", "--G", "70*|t|^2 + |t|^{8/3}",
               "--m", "32", "--L", "20", "--starts", "2", "--fiber",
               "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 2)
    assert (tmp_path / "fiber.csv").exists()
    assert fft_calls["scipy.rfftn"] > 0
    assert not any(key.startswith("numpy.") for key in fft_calls)


@pytest.fixture
def recording(monkeypatch):
    """Counts the trials the descent evaluates (those that carry their
    spectrum) and records its iterates, the only evaluations whose
    gradient it reads: (E, spectrum, gradient spectrum, carried)."""
    trials, iterates = [], []

    class Recording(energy_mod.Evaluation):
        def __init__(self, *args, spec=None):
            super().__init__(*args, spec=spec)
            self.carried = spec is not None
            trials.append(self.carried)

        @cached_property
        def grad_spec(self):
            g = energy_mod.Evaluation.grad_spec.func(self)
            iterates.append((self.total, self.spec, g.copy(), self.carried))
            return g

    monkeypatch.setattr(minimize, "Evaluation", Recording)
    return trials, iterates


def test_accepted_steps_pass_armijo(monkeypatch, preset32, kernel32,
                                    recording):
    """Every accepted step lowers E by at least _ARMIJO * <gproj, step*pdir>.

    step*pdir and the projected gradient are rebuilt from two successive
    iterates: spec_next = (spec - step*pdir) * scale with pdir tangent, so
    scale = <spec_next, spec>/rho^2.  A large first step forces backtracks,
    and a loose cap keeps every trial inside the ball."""
    params, nl, _ = preset32
    grid, rho = kernel32.grid, params.rho
    monkeypatch.setattr(minimize, "_STEP0", 50.0)
    summary, _ = _run_start(params, nl, kernel32, 1e3, gaussian_start(grid),
                            SolveOptions(max_iters=60), "gaussian")
    trials, iterates = recording
    assert summary.stop_reason == "converged"
    assert summary.trials == sum(trials)
    assert summary.trials > summary.iterations - 1  # some backtracks
    assert len(iterates) == summary.iterations
    for (e_cur, spec, g, _), (e_next, spec_next, _, carried) in zip(
            iterates, iterates[1:]):
        assert carried
        gproj = g - (_inner_rfft(grid, g, spec) / rho ** 2) * spec
        scale = _inner_rfft(grid, spec_next, spec) / rho ** 2
        decrease = _ARMIJO * _inner_rfft(grid, gproj, spec - spec_next / scale)
        assert decrease > 0.0
        assert e_next <= e_cur - decrease + 4 * np.spacing(abs(e_cur))


def test_ball_bounds_the_line_search(monkeypatch, preset32, kernel32):
    """With the cap below the minimizer's gradient norm (0.0154), BB steps
    cross the cap.  A trial outside the gradient ball is rejected before its
    energy is read, so it convolves nothing; every accepted iterate lies in
    the ball, E falls at every accepted step, and every acceptance feeds
    the next BB step.

    The margin is thin.  Left to run, this start exhausts its line search
    at iteration 32 (597 trials); max_iters = 30 (512 trials) stops it two
    iterations short of that.  Computing the kinetic term as
    _inner_rfft(spec, |k|^2 spec) instead of the _rfft_weights sum moves
    its last bits, and the start
    then exhausts at iteration 27 (395 trials), so the stop_reason
    assertion fails.  A change to the energy's or the inner product's bits
    waits on the cap-bound fix (ROADMAP B); r_cap, max_iters and the
    assertion stay as they are."""
    params, nl, _ = preset32
    r_cap = 0.015
    evaluations, iterates, calls = [], [], Counter()

    class Recording(energy_mod.Evaluation):
        def __init__(self, *args, spec=None):
            super().__init__(*args, spec=spec)
            evaluations.append(self)

        @cached_property
        def grad_spec(self):
            iterates.append(self)
            return energy_mod.Evaluation.grad_spec.func(self)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(minimize, "Evaluation", Recording)
    monkeypatch.setattr(minimize, "_bb_step",
                        counted("bb", minimize._bb_step))
    monkeypatch.setattr(energy_mod, "convolve",
                        counted("convolve", energy_mod.convolve))
    opts = SolveOptions(max_iters=30)
    summary, u = _run_start(params, nl, kernel32, r_cap,
                            gaussian_start(kernel32.grid), opts, "gaussian")
    assert summary.stop_reason == "max_iters"
    trials = evaluations[1:]  # the first is the start
    assert len(trials) == summary.trials
    inside = [math.sqrt(2.0 * t.kinetic) <= r_cap for t in trials]
    assert inside.count(False) > 0  # the cap binds
    assert calls["convolve"] == 1 + inside.count(True)
    assert calls["bb"] == summary.iterations - 1
    # the last accepted iterate, the last trial, is never read at max_iters
    assert len(iterates) == opts.max_iters
    assert evaluations[-1].u is u
    accepted = iterates[1:] + evaluations[-1:]
    assert max(math.sqrt(2.0 * it.kinetic) for it in accepted) <= r_cap
    energies = [it.total for it in iterates[:1] + accepted]
    assert all(b < a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("b, alpha, rho, parent_total", [
    (0, 2.0, 0.05, 157),
    (1, 1.5, 0.06, 154),
])
def test_step_rule_keeps_basin_and_budget(grid32, b, alpha, rho, parent_total):
    """Every start converges into one basin, in fewer iterations than the
    1.1x step-growth rule took for the same solve.

    Iterations per start, the 1.1x rule (measured on the sampled kernel,
    before the Ewald split) -> Armijo with BB steps on the split kernel:
    b = 0, alpha = 2, rho = 0.05: 32/31/28/34/32 = 157 -> 20/20/19/27/27 = 113;
    b = 1, alpha = 1.5, rho = 0.06: 34/27/26/34/33 = 154 -> 23/18/18/24/27 = 110.
    A step rule that jumps basins (a Polak-Ribiere trial reached another
    critical point at b = 1) breaks the energy agreement."""
    kernel = build_kernel(grid32, alpha)
    params = ProblemParams(N=3, alpha=alpha, b=b, rho=rho)
    nl = make_nonlinearity(params, PRESET_TERMS)
    bundle = build_bundle(params, nl, grid32, kernel)
    rep = solve(params, nl, grid32, kernel, bundle, SolveOptions())
    assert {s.stop_reason for s in rep.starts} == {"converged"}
    energies = [s.energy for s in rep.starts]
    assert max(energies) - min(energies) <= 1e-9 * abs(min(energies))
    assert sum(s.iterations for s in rep.starts) < parent_total
