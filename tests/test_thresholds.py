"""Closed-form constants, trial-profile estimates, and barrier geometry."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from choqlab import (
    Grid,
    GridError,
    KernelError,
    ProblemParams,
    ThresholdError,
    build_bundle,
    build_kernel,
    c1_c2,
    estimate_s1,
    estimate_s2,
    estimate_s3,
    h_peak,
    h_roots,
    h_value,
    hls_sharp_constant,
    lorentzian_profile,
    make_nonlinearity,
    rho_zero,
    riesz_constant,
    s1_from_s3,
    s2_closed_form,
    sample_resolved,
    sobolev_closed_form,
    sobolev_trial_profile,
)
from choqlab import fiber as fiber_mod
from choqlab import thresholds as thresholds_mod
from choqlab.thresholds import _brentq

from conftest import PRESET_TERMS

P32 = ProblemParams(N=3, alpha=2.0, b=0, rho=0.1)


def test_closed_forms():
    ac = riesz_constant(3, 2.0) * hls_sharp_constant(3, 2.0)
    assert s2_closed_form(3, 2.0) == pytest.approx(ac ** (-0.6), rel=1e-14)
    assert sobolev_closed_form(3) == pytest.approx(
        3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-12)
    # linear in its first argument, with the constant-power conversion factor
    assert s1_from_s3(2.0, 3, 2.0) == pytest.approx(
        2.0 * ac ** (-0.2), rel=1e-14)


def test_bundle_refuses_a_kernel_of_another_grid(kernel64):
    """A kernel built on L = 24 read on an L = 48 grid doubled S1 (28.30
    against 14.15) without an error; the pair integral now refuses it."""
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=0.06)
    nl = make_nonlinearity(params, PRESET_TERMS)
    with pytest.raises(GridError, match="kernel"):
        build_bundle(params, nl, Grid(3, 64, 48.0), kernel64)


def test_profiles_shape_and_support(grid64):
    u = lorentzian_profile(grid64, 2.0)
    half = grid64.m // 2
    assert u.values[half, half, half] == pytest.approx(2.0 ** -1.5)
    assert u.values.max() == u.values[half, half, half]
    r = np.sqrt(grid64.radius_sq())
    assert np.all(u.values[r > 1.5 * 2.0] == 0.0)
    assert np.all(u.values[r < 1.1 * 2.0] > 0.0)

    v = sobolev_trial_profile(grid64, 2.0)
    assert v.values[half, half, half] == pytest.approx(2.0 ** -0.5)
    assert np.all(v.values[r > 4.8 * 2.0] == 0.0)


def test_unresolved_profiles_fail_sample_resolved(grid64, kernel64):
    """A cutoff that would leave the box (11) or a core thinner than three
    cells (0.05) fails sample_resolved.  estimate_s2 warns about neither
    (the suite's filter makes a ResolutionWarning an error): a caller that
    wants the verdict reads it off the profile."""
    for delta in (11.0, 0.05):
        assert not sample_resolved(lorentzian_profile(grid64, delta))
        assert estimate_s2(P32, grid64, kernel64, delta) > 0.0


@pytest.mark.parametrize("m, delta, sobolev_ok, lorentzian_ok", [
    (32, 2.0, True, False),     # Sobolev tail 7.1e-8
    (32, 1.2, False, False),
    (64, 3.0, False, False),    # Sobolev cutoff reaches the faces
    (128, 1.5, True, False),    # Lorentzian tail 1.1e-4
    (128, 2.0, True, True),
])
def test_estimate_verdicts_are_sample_resolved(request, m, delta,
                                              sobolev_ok, lorentzian_ok):
    """An estimate's verdict is sample_resolved of its trial profile, the
    rule dilate and the fiber diagnosis read too, and build_bundle stores
    it as profile_resolved.  The estimates themselves warn in no case."""
    grid, kernel = request.getfixturevalue(f"grid{m}"), \
        request.getfixturevalue(f"kernel{m}")
    assert sample_resolved(sobolev_trial_profile(grid, delta)) is sobolev_ok
    assert sample_resolved(lorentzian_profile(grid, delta)) is lorentzian_ok
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_s3(P32, grid, delta)
        estimate_s1(P32, grid, kernel, delta)
        estimate_s2(P32, grid, kernel, delta)


def test_estimate_s2_one_sided(grid128, kernel128):
    """Trial quotients never dip below the closed-form infimum and land
    within a few percent of it at a well-resolved width."""
    closed = s2_closed_form(3, 2.0)
    for delta in (1.5, 2.0, 3.0):
        v = estimate_s2(P32, grid128, kernel128, delta=delta)
        assert v >= closed - 1e-6
        assert v <= 1.05 * closed


def test_estimate_s1_scale_invariance(grid128, kernel128):
    v_a = estimate_s1(P32, grid128, kernel128, delta=1.2)
    v_b = estimate_s1(P32, grid128, kernel128, delta=2.4)
    assert abs(v_a - v_b) / v_a < 1e-3


def test_s1_consistent_with_s3_route(grid128, kernel128):
    """The upper-critical quotient evaluated directly agrees with the
    value predicted from the Sobolev quotient of the same profile; the
    direct route can only sit above the prediction, since the sharp
    bilinear bound caps the denominator."""
    s3_v = estimate_s3(P32, grid128, delta=2.0)
    s1_direct = estimate_s1(P32, grid128, kernel128, delta=2.0)
    s1_pred = s1_from_s3(s3_v, 3, 2.0)
    assert s1_direct >= s1_pred * (1.0 - 1e-6)
    assert abs(s1_direct - s1_pred) / s1_pred < 2e-2


def test_estimate_s3_refines(grid128):
    """Successive grid refinements converge (differences shrink), and the
    default-width profile is unresolved on the coarsest grid."""
    deltas = []
    prev = None
    for m in (32, 64, 128):
        v = estimate_s3(P32, Grid(3, m, 24.0), delta=2.0)
        if prev is not None:
            deltas.append(abs(v - prev))
        prev = v
    assert deltas[1] < deltas[0]

    grid = Grid(3, 32, 24.0)  # the default core, 2 delta, spans 3 cells
    assert not sample_resolved(sobolev_trial_profile(grid, grid.L / 20.0))


@pytest.mark.xfail(strict=True, reason="tapered trial profile overshoots the "
                   "Sobolev infimum by its cutoff capacity at any desk-size "
                   "grid; the estimate is an upper bound, not a sharp value")
def test_estimate_s3_near_sharp(grid64):
    v = estimate_s3(P32, grid64)
    closed = sobolev_closed_form(3)
    assert abs(v - closed) / closed < 1e-2


@pytest.mark.parametrize("m", [32, 64])
def test_bundle_estimates_equal_public_ones(request, m):
    """The bundle builds the Sobolev trial profile once, yet its S3 and S1
    are estimate_s3's and estimate_s1's bit for bit, and profile_resolved
    is sample_resolved of that profile: false at m = 32, where its core
    (delta = 1.2) spans 3 cells, and true at m = 64."""
    grid, kernel = request.getfixturevalue(f"grid{m}"), \
        request.getfixturevalue(f"kernel{m}")
    nl = make_nonlinearity(P32, PRESET_TERMS)
    bundle = build_bundle(P32, nl, grid, kernel)
    resolved = m == 64
    assert bundle.profile_resolved is resolved
    assert sample_resolved(sobolev_trial_profile(grid, grid.L / 20.0)) \
        is resolved
    assert bundle.s3 == estimate_s3(P32, grid)
    assert bundle.s1 == estimate_s1(P32, grid, kernel)


@pytest.mark.parametrize("L", [1e-150, 1e-100])
def test_estimates_refuse_a_float_range_box(L):
    """On a box this small the trial profiles' powers overflow; each
    estimate names L and delta instead of handing on inf, nan or 0."""
    grid = Grid(3, 32, L)
    kernel = build_kernel(grid, 2.0)
    for call in (lambda: estimate_s3(P32, grid),
                 lambda: estimate_s1(P32, grid, kernel),
                 lambda: estimate_s2(P32, grid, kernel, L / 20.0)):
        with pytest.raises(ThresholdError, match=f"L = {L:g}"):
            call()


def test_build_bundle_refuses_kernel_for_another_alpha(grid32, kernel32):
    params = ProblemParams(N=3, alpha=1.5, b=0, rho=0.06)
    nl = make_nonlinearity(params, PRESET_TERMS)
    with pytest.raises(KernelError, match="alpha = 2 cannot serve alpha = 1.5"):
        build_bundle(params, nl, grid32, kernel32)


def test_c1_c2_basics():
    c1, c2 = c1_c2(P32, 0.5, 10.0, 2.7, 5.4)
    assert c1 > 0.0 and c2 > 0.0
    # coefficients grow with the envelope constant
    d1, d2 = c1_c2(P32, 1.0, 10.0, 2.7, 5.4)
    assert d1 > c1 and d2 > c2
    with pytest.raises(ThresholdError, match="positive"):
        c1_c2(P32, 0.5, 0.0, 2.7, 5.4)
    with pytest.raises(ThresholdError, match="positive"):
        c1_c2(P32, 0.5, 10.0, -1.0, 5.4)


def test_h_peak_is_maximum():
    c1, c2 = 0.3, 0.02
    t0, hmax = h_peak(0.2, c1, c2, P32)
    assert hmax == pytest.approx(h_value(0.2, t0, c1, c2, P32), rel=1e-14)
    for t in np.geomspace(t0 / 50.0, t0 * 50.0, 101):
        assert h_value(0.2, t, c1, c2, P32) <= hmax + 1e-14
    with pytest.raises(ThresholdError, match="C1, C2"):
        h_peak(0.2, 0.0, c2, P32)


def test_h_value_signs():
    c1, c2 = 0.3, 0.02
    # both penalty terms dominate far from the window
    assert h_value(0.2, 1e-6, c1, c2, P32) < 0.0
    assert h_value(0.2, 1e6, c1, c2, P32) < 0.0


def test_rho_zero_is_sign_flip():
    c1, c2 = 0.3, 0.02
    r0 = rho_zero(c1, c2, P32)
    _, h_below = h_peak(0.999999 * r0, c1, c2, P32)
    _, h_above = h_peak(1.000001 * r0, c1, c2, P32)
    assert h_below > 0.0 > h_above
    with pytest.raises(ThresholdError, match="positive"):
        rho_zero(0.0, c2, P32)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, 2.95), b=st.integers(0, 1),
       rho=st.floats(1e-4, 1e2), c1=st.floats(1e-4, 1e2),
       c2=st.floats(1e-4, 1e2))
@example(alpha=2.0, b=0, rho=1e-4, c1=1e-4, c2=1.0)  # R0 = 3.0e-9, far below t0
def test_h_roots_invariants(alpha, b, rho, c1, c2):
    """R0 < t0 < R1, h vanishes at both ends and is positive between; with
    no positive window h_roots refuses.  Each root is found to a relative
    tolerance, so h at it is at rounding level: its two t-dependent terms
    sum to 1/2 there and their powers are at most 10, so a root within a
    few ulps leaves |h| within about a hundred ulps of 1/2."""
    p = ProblemParams(N=3, alpha=alpha, b=b, rho=rho)
    t0, hmax = h_peak(rho, c1, c2, p)
    if hmax <= 0.0:
        with pytest.raises(ThresholdError, match="no positive window"):
            h_roots(rho, c1, c2, p)
        return
    r0, r1 = h_roots(rho, c1, c2, p)
    assert r0 < t0 < r1

    def h(t):
        return h_value(rho, t, c1, c2, p)

    for r in (r0, r1):
        assert abs(h(r)) <= 1e-14
    inside = np.geomspace(r0, r1, 41)[1:-1]
    assert all(h_value(rho, float(t), c1, c2, p) > 0.0 for t in inside)


def test_h_roots_bracket_window():
    c1, c2 = 0.3, 0.02
    rho0 = rho_zero(c1, c2, P32)
    rho = 0.8 * rho0
    r0, r1 = h_roots(rho, c1, c2, P32)
    assert r0 < r1
    assert abs(h_value(rho, r0, c1, c2, P32)) < 1e-12
    assert abs(h_value(rho, r1, c1, c2, P32)) < 1e-12
    # window shrinks to the peak as the mass approaches the threshold
    s0, s1w = h_roots(0.99 * rho0, c1, c2, P32)
    assert s0 > r0 and s1w < r1
    with pytest.raises(ThresholdError, match="no positive window"):
        h_roots(1.5 * rho0, c1, c2, P32)


def both_brentqs(module, roots):
    """Patch module._brentq to find each of its roots by the port and by
    scipy.optimize.brentq on the same bracket, recording the pair."""
    def run(f, a, b, **tol):
        roots.append((_brentq(f, a, b, **tol),
                      scipy.optimize.brentq(f, a, b, **tol)))
        return roots[-1][0]
    return mock.patch.object(module, "_brentq", run)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 3.0, exclude_min=True, exclude_max=True),
       c1=log_uniform(1e-3, 1e3), c2=log_uniform(1e-3, 1e3),
       rho=log_uniform(1e-4, 10.0))
def test_brentq_port_is_scipys_on_window_brackets(alpha, c1, c2, rho):
    """On the brackets h_roots builds, at its xtol = tiny and rtol = 4 eps,
    the port returns scipy.optimize.brentq's root bit for bit."""
    p = ProblemParams(N=3, alpha=alpha, b=0, rho=rho)
    assume(h_peak(rho, c1, c2, p)[1] > 0.0)
    roots = []
    with both_brentqs(thresholds_mod, roots):
        h_roots(rho, c1, c2, p)
    assert len(roots) == 2
    for ours, scipys in roots:
        assert ours.hex() == scipys.hex()


@settings(max_examples=300, deadline=None)
@given(beta0=st.floats(-3.0, 3.0),
       raw=st.lists(st.tuples(st.floats(-3.0, 3.0), st.booleans(),
                              st.floats(0.1, 3.0)), min_size=2, max_size=5))
def test_brentq_port_is_scipys_on_fiber_slopes(beta0, raw):
    """On the sign-change brackets fiber._roots builds for phi', at its
    xtol = 1e-14, the port returns scipy.optimize.brentq's root bit for bit.
    The powers ascend at least 0.1 apart, so every root tau = e^s is a
    float: closer powers can put one beyond e^709."""
    betas = beta0 + np.cumsum([gap for _, _, gap in raw])
    terms = tuple(((-1.0 if neg else 1.0) * 10.0 ** e, float(beta))
                  for (e, neg, _), beta in zip(raw, betas))
    roots = []
    with both_brentqs(fiber_mod, roots):
        fiber_mod.slope_roots(terms)
    for ours, scipys in roots:
        assert ours.hex() == scipys.hex()


def test_brentq_port_raises_as_scipy_does():
    """One sign at both ends is a ValueError and no convergence within
    maxiter a RuntimeError, from the port as from SciPy."""
    for brentq in (_brentq, scipy.optimize.brentq):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(RuntimeError, match="(?i)failed to converge"):
            brentq(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=2)
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0   # an end that is a root


def test_build_bundle_window(preset):
    params, _nl, bundle = preset
    assert bundle.rho == params.rho
    assert 0.0 < bundle.r0 < bundle.t0 < bundle.r1
    assert bundle.hmax > 0.0
    assert bundle.rho0 > params.rho
    assert bundle.provenance["s2"] == "exact-formula"
    assert bundle.provenance["s1"] == "trial-estimate"


def test_build_bundle_above_threshold(preset, grid64, kernel64):
    params, nl, bundle = preset
    big = ProblemParams(N=3, alpha=2.0, b=0, rho=2.0 * bundle.rho0)
    nl_big = make_nonlinearity(big, PRESET_TERMS)
    b2 = build_bundle(big, nl_big, grid64, kernel64)
    assert b2.r0 is None and b2.r1 is None
    assert b2.hmax < 0.0
    assert b2.t0 is not None


def test_build_bundle_empty_g(grid64, kernel64):
    params = ProblemParams(N=3, alpha=2.0, b=1, rho=0.3)
    nl = make_nonlinearity(params, [])
    b = build_bundle(params, nl, grid64, kernel64)
    assert b.c0 == 0.0
    assert math.isinf(b.rho0)
    assert b.r0 is None and b.hmax is None
    assert "C0 = 0" in b.provenance["rho0"]
