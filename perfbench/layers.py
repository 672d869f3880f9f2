"""Direct-call layer pass at m = 32, 64 and 128 on seeded fields.

Times riesz.build_kernel (cold), riesz.convolve, energy.energy,
energy.l2_gradient, energy.dilate and thresholds.build_bundle at the
README preset, each the median of a few calls.  Next to each time goes
the number of bytes the call moves, computed from array sizes: the count
of distinct full-grid arrays the call reads or writes, by kind, times the
size of one array of that kind.  These are computed figures, not measured
traffic.  One m = 128 float64 array (16 MiB) fits in the 300 MiB L3 of
the 2-core machine the baseline was taken on, so no bandwidth claim is
made from them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import PRESET_G, bump_field, drop_kernel_cache

SIZES = (32, 64, 128)
REPEATS = {32: 7, 64: 5, 128: 3}
DILATE_TAU = 0.9

# Distinct arrays touched per call: (real fields, half spectra, half-size
# real arrays such as the kernel symbol and |k|^2), read off the code paths
# at the preset (b = 0, two power terms).
ARRAYS = {
    "build_kernel": (3, 1, 1),   # radius, samples, shifted; spectrum; symbol
    "convolve": (2, 2, 1),       # g, out; spectrum, product; symbol
    "energy": (4, 3, 3),         # u, F, conv, conv*F; 3 spectra; symbol, w, k2
    "l2_gradient": (6, 4, 2),    # u, F, conv, f, lap, out; 4 spectra; symbol, k2
    "dilate": (10, 0, 0),        # u, out; complex spectrum and 3 axis passes
    "build_bundle": (12, 4, 5),  # two trial profiles, powers, convolution
}


def bytes_computed(fn: str, m: int) -> int:
    real, half_c, half_r = ARRAYS[fn]
    half = m * m * (m // 2 + 1)
    return real * m ** 3 * 8 + half_c * half * 16 + half_r * half * 8


def _median_time(call, repeats: int, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_pass(ch, seed: int) -> dict[str, float]:
    """Metric name -> value for every (function, m) pair."""
    params = ch.problem.ProblemParams(N=3, alpha=2.0, b=0, rho=0.06)
    nl = ch.problem.parse_nonlinearity(params, PRESET_G)
    out = {}
    for m in SIZES:
        grid = ch.grid.Grid(3, m, 24.0)
        u = bump_field(ch, grid, np.random.default_rng((seed, m, 1)), 0.06)
        reps = REPEATS[m]
        kernel = None

        def build():
            nonlocal kernel
            kernel = ch.riesz.build_kernel(grid, 2.0)

        times = {"build_kernel": _median_time(build, reps,
                                               lambda: drop_kernel_cache(ch))}
        F = ch.grid.Field(grid, ch.problem.eval_F(params, nl, u.values))
        calls = {
            "convolve": lambda: ch.riesz.convolve(kernel, F),
            "energy": lambda: ch.energy.energy(params, nl, kernel, u),
            "l2_gradient": lambda: ch.energy.l2_gradient(params, nl, kernel, u),
            "dilate": lambda: ch.energy.dilate(u, DILATE_TAU, check=False),
            "build_bundle": lambda: ch.thresholds.build_bundle(
                params, nl, grid, kernel),
        }
        for fn, call in calls.items():
            call()   # first call fills the grid's spectral caches
            times[fn] = _median_time(call, reps)
        for fn, seconds in times.items():
            out[f"layer.{fn}.m{m}.s"] = seconds
            out[f"layer.{fn}.m{m}.bytes_computed"] = bytes_computed(fn, m)
    return out
