"""Explicit constants, trial-profile estimates, and the barrier geometry.

Everything the local-minimization argument needs up front lives here: the
kernel normalization A_alpha and the sharp convolution constant C_alpha,
the three quotient infima S1, S2, S3 (S2 in closed form, S1 and S3 as
trial-profile estimates), the derived barrier coefficients C1, C2, the
barrier curve h(a, t), the mass threshold rho0 below which the barrier
opens a positive window, and the window roots R0 < R1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.optimize import brentq

from .energy import interaction_pair, sample_resolved
from .grid import Field, Grid, _grad_norm_sq_rfft, integrate, mass
from .problem import Nonlinearity, ProblemParams, c_zero
from .riesz import RieszKernel, riesz_constant


class ThresholdError(ValueError):
    pass


def hls_sharp_constant(N: int, alpha: float) -> float:
    """Sharp constant of the bilinear Riesz form on the diagonal."""
    if not (0.0 < alpha < N):
        raise ThresholdError(f"alpha must lie in (0, N), got {alpha}")
    return (
        math.pi ** ((N - alpha) / 2.0)
        * math.gamma(alpha / 2.0)
        / math.gamma((N + alpha) / 2.0)
        * (math.gamma(N / 2.0) / math.gamma(N)) ** (-alpha / N)
    )


def s2_closed_form(N: int, alpha: float) -> float:
    """Infimum of the lower-critical quotient; the extremal is known, so
    the value is exactly (A_alpha C_alpha)^(-N/(N+alpha))."""
    prod = riesz_constant(N, alpha) * hls_sharp_constant(N, alpha)
    return prod ** (-N / (N + alpha))


def sobolev_closed_form(N: int) -> float:
    """Best constant in |grad u|_2^2 >= S |u|_{2N/(N-2)}^2 on R^N."""
    if N < 3:
        raise ThresholdError("Sobolev constant needs N >= 3")
    return math.pi * N * (N - 2) * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 / N)


def s1_from_s3(s3: float, N: int, alpha: float) -> float:
    """Upper-critical quotient value implied by a Sobolev quotient value.

    Chaining the sharp bilinear bound with the Sobolev embedding turns any
    S3 value into an S1 value; both inequalities are saturated by the same
    profile, so the composition loses nothing.
    """
    prod = riesz_constant(N, alpha) * hls_sharp_constant(N, alpha)
    return s3 * prod ** (-(N - 2.0) / (N + alpha))


# ----------------------------------------------------------------------
# Trial profiles.  Both families are exact dilates of one shape (the
# cutoff radii scale with delta), so their quotients are delta-invariant
# up to discretization, and the compact support keeps every integral free
# of wrap-around once the support fits half the box.
# ----------------------------------------------------------------------

# Radii, in units of delta, where each profile's cutoff starts and stops.
LORENTZIAN_TAPER = (1.1, 1.5)
SOBOLEV_TAPER = (1.8, 4.8)


def _smoothstep7(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def _taper(s: np.ndarray, s_start: float, s_stop: float) -> np.ndarray:
    return 1.0 - _smoothstep7((s - s_start) / (s_stop - s_start))


def _quotient(label: str, grid: Grid, delta: float, value) -> float:
    """value() under np.errstate, refused unless finite and positive: a
    profile whose powers leave the float range makes it inf, nan or 0."""
    with np.errstate(all="ignore"):
        try:
            q = value()
        except (OverflowError, ZeroDivisionError):
            q = math.nan
    if not (math.isfinite(q) and q > 0.0):
        raise ThresholdError(f"{label}: the trial profile at delta = {delta:.3g} "
                             f"on a box of L = {grid.L:g} leaves the float range")
    return q


def lorentzian_profile(grid: Grid, delta: float, center=None) -> Field:
    """(delta/(delta^2+r^2))^{dim/2}, smoothly cut off at
    LORENTZIAN_TAPER[1]*delta."""
    r2 = grid.radius_sq(center)
    vals = (delta / (delta ** 2 + r2)) ** (grid.dim / 2.0)
    vals *= _taper(np.sqrt(r2) / delta, *LORENTZIAN_TAPER)
    return Field(grid, vals)


def sobolev_trial_profile(grid: Grid, delta: float) -> Field:
    """(delta/(delta^2+r^2))^{(dim-2)/2} with the same compact cutoff.

    The untapered shape saturates both the Sobolev and the upper-critical
    quotient, but its gradient tail carries weight out to radii no desk
    grid reaches, so the tapered version lands above the true infima by a
    capacity term of order 1/(taper span).  The returned profile is for
    trial estimates, not sharp values.
    """
    r2 = grid.radius_sq()
    vals = (delta / (delta ** 2 + r2)) ** ((grid.dim - 2) / 2.0)
    vals *= _taper(np.sqrt(r2) / delta, *SOBOLEV_TAPER)
    return Field(grid, vals)


def estimate_s2(params: ProblemParams, grid: Grid, kernel: RieszKernel,
                delta: float, center=None) -> float:
    """Lower-critical quotient at the known extremal shape.

    |u|_2^2 / (int (I_a * |u|^p)|u|^p)^{N/(N+a)} with p = (N+alpha)/N,
    evaluated at the Lorentzian profile.  Up to cutoff and grid error this
    is s2_closed_form; the exact value is a one-sided lower bound.
    """
    with np.errstate(all="ignore"):
        u = lorentzian_profile(grid, delta, center)
    p = params.p_lower
    return _quotient("estimate_s2", grid, delta, lambda: mass(u) ** 2
                     / interaction_pair(kernel, u, p, p)
                     ** (params.N / (params.N + params.alpha)))


def _sobolev_quotients(params: ProblemParams, grid: Grid,
                       kernel: RieszKernel | None, delta: float | None,
                       label: str) -> tuple[float, float | None, bool]:
    """(S3, S1, resolved) at the tapered trial profile at delta (default
    L/20), S1 only given a kernel; resolved is sample_resolved of the
    profile.  One profile and one gradient transform serve all three."""
    if delta is None:
        delta = grid.L / 20.0
    with np.errstate(all="ignore"):
        u = sobolev_trial_profile(grid, delta)
        spec = scipy.fft.rfftn(u.values)
        resolved = sample_resolved(u, spec)
        grad_sq = _grad_norm_sq_rfft(grid, spec)
    crit = 2.0 * params.N / (params.N - 2.0)
    s3 = _quotient(label, grid, delta, lambda: grad_sq / integrate(
        Field(grid, np.abs(u.values) ** crit)) ** (2.0 / crit))
    if kernel is None:
        return s3, None, resolved
    p = params.p_upper
    return s3, _quotient(label, grid, delta, lambda: grad_sq / interaction_pair(
        kernel, u, p, p) ** (1.0 / p)), resolved


def estimate_s3(params: ProblemParams, grid: Grid,
                delta: float | None = None) -> float:
    """Sobolev quotient at the tapered trial profile (an over-estimate)."""
    return _sobolev_quotients(params, grid, None, delta, "estimate_s3")[0]


def estimate_s1(params: ProblemParams, grid: Grid, kernel: RieszKernel,
                delta: float | None = None) -> float:
    """Upper-critical quotient at the tapered trial profile (an over-estimate)."""
    return _sobolev_quotients(params, grid, kernel, delta, "estimate_s1")[1]


# ----------------------------------------------------------------------
# Barrier geometry.
# ----------------------------------------------------------------------

def c1_c2(params: ProblemParams, c0: float, s1: float, s2: float, s3: float
          ) -> tuple[float, float]:
    """Barrier coefficients from the envelope constant and the quotient infima.

    The shared second summand comes from the cross pairing of the two
    envelope powers, bounded through the Sobolev embedding.
    """
    if min(s1, s2, s3) <= 0.0:
        raise ThresholdError("quotient constants must be positive")
    N, alpha, b = params.N, params.alpha, params.b
    a_alpha = riesz_constant(N, alpha)
    c_alpha = hls_sharp_constant(N, alpha)
    try:
        shared = 0.5 * c0 * (b + c0) * a_alpha * c_alpha \
            * s3 ** (-0.5 * (N + alpha) / (N - 2.0))
        c1 = 0.5 * c0 * (2.0 * b + c0) * s2 ** (-(N + alpha) / N) + shared
        c2 = 0.5 * c0 ** 2 * s1 ** (-(N + alpha) / (N - 2.0)) + shared
    except OverflowError:
        c1 = c2 = math.inf
    if not math.isfinite(c1 + c2):
        raise ThresholdError(f"C0 = {c0:.6g} overflows the barrier coefficients C1, C2")
    return c1, c2


def h_value(a: float, t: float, c1: float, c2: float,
            params: ProblemParams) -> float:
    """Barrier curve h(a,t) = 1/2 - C1 a^{2(N+a)/N} t^{-2} - C2 t^{2(N+a)/(N-2)-2}."""
    N, alpha = params.N, params.alpha
    return (
        0.5
        - c1 * a ** (2.0 * (N + alpha) / N) * t ** (-2.0)
        - c2 * t ** (2.0 * (N + alpha) / (N - 2.0) - 2.0)
    )


def h_peak(a: float, c1: float, c2: float,
           params: ProblemParams) -> tuple[float, float]:
    """Unique critical point t0 of h(a,.) and the value there.

    Both penalty terms blow up at the ends, so the single interior
    stationary point is the global maximum.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ThresholdError("h has no interior maximum unless C1, C2 > 0")
    N, alpha = params.N, params.alpha
    A = a ** (2.0 * (N + alpha) / N)
    t0 = (c1 * (N - 2.0) * A / (c2 * (2.0 + alpha))) \
        ** ((N - 2.0) / (2.0 * (N + alpha)))
    return t0, h_value(a, t0, c1, c2, params)


def rho_zero(c1: float, c2: float, params: ProblemParams) -> float:
    """Mass threshold where the barrier maximum crosses zero.

    Computed twice: once by solving h(rho, t0(rho)) = 0 from the maximizer
    condition, once from the direct closed-form expression
      rho^{2(N+a)/N} = ((N-2)/(2 C2 (N+a)))^{(N+a)/(2+a)} * (C2/C1)(2+a)/(N-2).
    The two must agree to 1e-10 relative; a mismatch means one of the two
    algebraic reductions is wrong for these inputs, and is raised rather
    than papered over.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ThresholdError(
            "C1 and C2 must be positive (zero means the window never closes)"
        )
    N, alpha = params.N, params.alpha

    # maximizer route: solve h(rho, t0(rho)) = 0 for the mass power
    peak_scale = ((2.0 + alpha) / (2.0 * (N + alpha))) ** ((N + alpha) / (2.0 + alpha))
    tail_scale = ((N - 2.0) / (c2 * (2.0 + alpha))) ** ((N - 2.0) / (2.0 + alpha))
    A_max = peak_scale * tail_scale / c1

    # printed closed form
    A_printed = (
        ((N - 2.0) / (2.0 * c2 * (N + alpha))) ** ((N + alpha) / (2.0 + alpha))
        * (c2 / c1) * (2.0 + alpha) / (N - 2.0)
    )

    if not math.isclose(A_max, A_printed, rel_tol=1e-10):
        raise ThresholdError(
            f"threshold routes disagree: maximizer {A_max!r} vs printed {A_printed!r}"
        )
    return A_printed ** (params.N / (2.0 * (N + alpha)))


def h_roots(rho: float, c1: float, c2: float,
            params: ProblemParams) -> tuple[float, float]:
    """Window ends R0 < R1 where h(rho, .) crosses zero, each bracketed within
    a factor of two and resolved by brentq relative to its own size."""
    t0, hmax = h_peak(rho, c1, c2, params)
    if hmax <= 0.0:
        raise ThresholdError(
            f"no positive window: max h = {hmax:.6g} <= 0 at this mass"
        )

    def f(t: float) -> float:
        return h_value(rho, t, c1, c2, params)

    lo = t0
    while f(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-300:
            raise ThresholdError("failed to bracket the left root")
    hi = t0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise ThresholdError("failed to bracket the right root")
    tol = {"xtol": np.finfo(float).tiny, "rtol": 4.0 * np.finfo(float).eps}
    return brentq(f, lo, 2.0 * lo, **tol), brentq(f, 0.5 * hi, hi, **tol)


@dataclass(frozen=True)
class ThresholdBundle:
    N: int
    alpha: float
    b: int
    rho: float
    a_alpha: float
    c_alpha: float
    s1: float
    s2: float
    s3: float
    profile_resolved: bool  # sample_resolved of the S1/S3 trial profile
    c0: float
    c1: float
    c2: float
    rho0: float  # math.inf when the envelope constant vanishes
    t0: float | None
    hmax: float | None
    r0: float | None
    r1: float | None
    provenance: dict


def build_bundle(params: ProblemParams, nl: Nonlinearity, grid: Grid,
                 kernel: RieszKernel) -> ThresholdBundle:
    """Assemble every threshold constant for one problem instance.

    S2 uses its closed form (the extremal is known); S1 and S3 are
    trial-profile estimates on the supplied grid and are flagged as such.
    They share one trial profile, whose sample_resolved verdict is
    profile_resolved, and equal estimate_s1's and estimate_s3's bit for bit.
    When G is empty the envelope constant is 0, the barrier degenerates to
    the constant 1/2, and the mass threshold is unconstrained (infinite).
    """
    N, alpha = params.N, params.alpha
    kernel.check_alpha(alpha)
    a_alpha = riesz_constant(N, alpha)
    c_alpha = hls_sharp_constant(N, alpha)
    s2 = s2_closed_form(N, alpha)
    s3, s1, resolved = _sobolev_quotients(params, grid, kernel, None,
                                          "estimate_s3 and estimate_s1")
    c0 = c_zero(params, nl)
    provenance = {
        "a_alpha": "exact-formula",
        "c_alpha": "exact-formula",
        "s2": "exact-formula",
        "s1": "trial-estimate",
        "s3": "trial-estimate",
        "c0": "exact-formula",
        "c1": "derived",
        "c2": "derived",
        "rho0": "derived",
    }
    if c0:
        c1, c2 = c1_c2(params, c0, s1, s2, s3)
        rho0 = rho_zero(c1, c2, params)
        try:
            t0, hmax = h_peak(params.rho, c1, c2, params)
            r0, r1 = (h_roots(params.rho, c1, c2, params) if params.rho < rho0
                      else (None, None))
        except (OverflowError, ZeroDivisionError):
            raise ThresholdError(f"rho = {params.rho:g} puts the barrier "
                                 "h(rho, t) outside the float range") from None
    else:
        c1 = c2 = 0.0
        rho0 = math.inf
        t0 = hmax = r0 = r1 = None
        provenance["rho0"] = "unconstrained (C0 = 0)"
    return ThresholdBundle(
        N=N, alpha=alpha, b=params.b, rho=params.rho,
        a_alpha=a_alpha, c_alpha=c_alpha, s1=s1, s2=s2, s3=s3,
        profile_resolved=resolved, c0=c0, c1=c1, c2=c2, rho0=rho0,
        t0=t0, hmax=hmax, r0=r0, r1=r1,
        provenance=provenance,
    )
