"""The closed-form dilation curve, its exact maxima, and unimodality reports."""

import numpy as np
import pytest

from choqlab import (
    Evaluation,
    Field,
    FiberCurve,
    ProblemParams,
    default_taus,
    dilate,
    fiber_curve,
    make_nonlinearity,
    rescale_mass,
    sample_resolved,
    unimodality_report,
)
from choqlab.energy import BOUNDARY_LIMIT, energy
from choqlab.fiber import _slope_terms
from choqlab.grid import MAX_SAMPLES

from conftest import PRESET_TERMS

PB0 = ProblemParams(N=3, alpha=2.0, b=0, rho=0.5)
PB1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.5)


def gaussian(grid, sigma, rho=None):
    vals = np.exp(-grid.radius_sq() / (2.0 * sigma**2))
    u = Field(grid, vals)
    return u if rho is None else rescale_mass(u, rho)


def terms_curve(terms, resolved=True):
    """A curve carrying only the phi' terms and the resolved flag, which
    is all the report reads."""
    one = np.ones(1)
    return FiberCurve(
        taus=one, values=one, kinetic=one, interaction=one, d_lower=None,
        resolved=np.array([resolved]),
        phi_at_1_slope=sum(c for c, _ in terms), slope_terms=tuple(terms),
    )


def test_default_taus():
    taus = default_taus()
    assert taus.size == 201  # 1.0 gets inserted into the 200-point grid
    assert np.any(taus == 1.0)
    assert np.all(np.diff(taus) > 0.0)

    exact = default_taus(0.1, 10.0, 3)
    assert exact.size == 3  # midpoint already lands on 1.0, nothing added
    assert exact[1] == 1.0


def test_default_taus_refuses_too_many_samples():
    """2e9 samples would take 16 GB: the library call is refused before it
    allocates any, as the CLI refuses fiber.n_tau."""
    with pytest.raises(ValueError, match=f"n_tau <= {MAX_SAMPLES}, got .*2000000000"):
        default_taus(0.5, 2.0, 2_000_000_000)
    assert default_taus(0.5, 2.0, MAX_SAMPLES).size == MAX_SAMPLES + 1


def test_fiber_curve_rejects_bad_taus(grid32, kernel32):
    nl = make_nonlinearity(PB0, PRESET_TERMS)
    u = gaussian(grid32, 1.5, 0.5)
    for bad in (np.ones((2, 2)), [1.0, 0.5], [0.0, 1.0], [1.0, 1.0], []):
        with pytest.raises(ValueError, match="strictly increasing"):
            fiber_curve(PB0, nl, kernel32, u, taus=bad)


def test_fiber_curve_refuses_an_overflowing_row(grid32, kernel32):
    """The first tau whose row overflows is named; the rows before it are
    finite."""
    nl = make_nonlinearity(PB0, PRESET_TERMS)
    u = gaussian(grid32, 1.5, 0.5)
    taus = default_taus(0.01, 1e200, 50)
    with pytest.raises(ValueError, match="not finite at tau = ") as info:
        fiber_curve(PB0, nl, kernel32, u, taus)
    first = float(str(info.value).split("tau = ")[1].split(";")[0])
    head = taus[taus < first]
    assert first in taus and head.size < taus.size - 1
    assert np.all(np.isfinite(fiber_curve(PB0, nl, kernel32, u, head).values))


def test_fiber_curve_value_at_one(grid64, kernel64):
    nl = make_nonlinearity(PB0, PRESET_TERMS)
    u = gaussian(grid64, 1.5, 0.5)
    curve = fiber_curve(PB0, nl, kernel64, u, taus=[0.5, 1.0, 2.0])
    eb = energy(PB0, nl, kernel64, u)
    assert curve.values[1] == eb.total  # tau = 1 is the identity, bit for bit
    assert curve.kinetic[1] == eb.kinetic
    assert curve.interaction[1] == eb.interaction
    assert curve.d_lower is None


def test_sample_resolved_regimes(grid64):
    assert sample_resolved(gaussian(grid64, 1.5))
    assert not sample_resolved(gaussian(grid64, 0.3))  # band-edge content
    assert not sample_resolved(gaussian(grid64, 6.0))  # face amplitude


@pytest.mark.parametrize("params", [PB0, PB1], ids=["b0", "b1"])
def test_slope_at_one_is_nehari_pohozaev(params, grid64, kernel64):
    """phi'(1) = |grad u|^2 - N/2 int (I_a*F)(f(u)u - (N+a)/N F), the
    combination whose defect nehari_pohozaev reports per unit mass."""
    nl = make_nonlinearity(params, PRESET_TERMS)
    u = gaussian(grid64, 1.5, 0.5)
    curve = fiber_curve(params, nl, kernel64, u, taus=[1.0])
    ev = Evaluation(params, nl, kernel64, u)
    want = ev.nehari_pohozaev * ev.mass ** 2
    assert abs(abs(curve.phi_at_1_slope) - want) <= 1e-12 * want
    assert curve.phi_at_1_slope == pytest.approx(
        sum(c for c, _ in curve.slope_terms), rel=1e-12)


def test_slope_terms_merge_rounding_twins():
    """The preset cross pair has e = 3(2 + 8/3)/2 - 5, a rounding error
    off 2, so its phi' power sits next to the kinetic tau^1 and merges."""
    e = 3.0 * (2.0 + 8.0 / 3.0) / 2.0 - 5.0
    assert e != 2.0
    terms = _slope_terms(1.5, [(0.2, 0.0), (1.0, e), (0.1, 3.0)])
    # the e = 0 pair drops out; 2K and -1/2*2*e*D merge
    assert [b for _, b in terms] == [pytest.approx(1.0), 2.0]
    assert terms[0][0] == pytest.approx(3.0 - e * 0.5, rel=1e-15)
    assert terms[1] == (pytest.approx(-0.15, rel=1e-15), 2.0)


def test_two_hump_curve_is_reported_faithfully():
    """phi = tau^2 - a tau^2.5 + b tau^3.25 - c tau^4 with its derivative
    roots placed at 0.7, 1.3, 2.2: two maxima, found to 1e-9."""
    roots = np.array([0.7, 1.3, 2.2])
    rows = np.stack(
        [2.5 * roots**1.5, -3.25 * roots**2.25, 4.0 * roots**3], axis=1
    )
    a, b, c = np.linalg.solve(rows, 2.0 * roots)
    assert a > 0 and b > 0 and c > 0

    curve = terms_curve([(2.0, 1.0), (-2.5 * a, 1.5), (3.25 * b, 2.25),
                         (-4.0 * c, 3.0)])
    assert len(curve.detected_maxima) == 2
    assert abs(curve.detected_maxima[0] - 0.7) < 1e-9
    assert abs(curve.detected_maxima[1] - 2.2) < 1e-9

    report = unimodality_report(curve)
    assert report.n_maxima == 2
    assert report.conclusive
    assert report.decreasing_after_max


def test_monotone_curve_reports_no_maxima():
    report = unimodality_report(terms_curve([(2.0, 1.0)]))  # phi = tau^2
    assert report.n_maxima == 0
    assert report.conclusive
    assert report.decreasing_after_max  # vacuous without a maximum


def test_uptick_after_maximum_clears_decreasing_flag():
    # phi' = (tau - 0.7)(tau - 2.2): a maximum at 0.7, a minimum at 2.2
    curve = terms_curve([(1.54, 0.0), (-2.9, 1.0), (1.0, 2.0)])
    report = unimodality_report(curve)
    assert curve.detected_maxima == pytest.approx((0.7,), abs=1e-12)
    assert report.n_maxima == 1
    assert report.conclusive
    assert not report.decreasing_after_max


def test_descartes_bound_unmet_is_inconclusive():
    """phi' = 1 - tau + tau^2 has two sign changes and no positive root,
    so the count cannot rule out roots that were missed."""
    report = unimodality_report(terms_curve([(1.0, 0.0), (-1.0, 1.0),
                                             (1.0, 2.0)]))
    assert report.n_maxima == 0
    assert not report.conclusive


def test_unresolved_field_is_inconclusive(grid64, kernel64):
    nl = make_nonlinearity(PB0, PRESET_TERMS)
    u = gaussian(grid64, 6.0, 0.5)  # face amplitude far above the limit
    curve = fiber_curve(PB0, nl, kernel64, u, taus=[0.5, 1.0, 2.0])
    assert not curve.resolved.any()
    report = unimodality_report(curve)
    assert not report.conclusive
    assert "not resolved" in report.detail


def test_lower_critical_plateau(grid64, kernel64):
    """With b = 1 the invariant pair survives tau -> 0, so the curve runs
    into a strictly negative plateau instead of rising back to zero."""
    nl = make_nonlinearity(PB1, PRESET_TERMS)
    u = gaussian(grid64, 0.8, 0.5)
    d_low = energy(PB1, nl, kernel64, u).d_lower
    curve = fiber_curve(PB1, nl, kernel64, u, taus=[0.25, 0.5, 1.0])
    assert curve.d_lower is not None
    assert (curve.d_lower == d_low).all()   # e = 0: every row, bit for bit
    d_dilated = energy(PB1, nl, kernel64, dilate(u, 0.25, check=False)).d_lower
    assert abs(d_dilated / d_low - 1.0) < 1e-2  # dilation invariant
    assert curve.values[0] < -0.25 * d_low


def _lossless_contraction(u, tau):
    """Dilation by tau > 1 reads u only on the cube of half-side L/(2 tau)."""
    if tau <= 1.0:
        return True
    x = np.abs(u.grid.axis())
    X, Y, Z = np.ix_(x, x, x)
    outside = np.maximum(np.maximum(X, Y), Z) >= u.grid.L / (2.0 * tau)
    peak = np.abs(u.values).max()
    return np.abs(u.values[outside]).max() / peak < BOUNDARY_LIMIT


def test_closed_form_matches_resampled_curve(preset, preset_report, kernel64):
    """On the preset minimizer, every tau at which the resampled field is
    resolved (and loses no amplitude to contraction) agrees with the closed
    form to criterion 3's 1e-3, component by component: the kinetic part,
    the interaction and, at b = 1, d_lower."""
    params, nl, _ = preset
    params_b1 = ProblemParams(N=3, alpha=2.0, b=1, rho=params.rho)
    nl_b1 = make_nonlinearity(params_b1, PRESET_TERMS)
    u = preset_report.u_star
    taus = np.geomspace(1.0 / 3.0, 3.0, 121)
    taus[60] = 1.0
    curves = [(p, q, fiber_curve(p, q, kernel64, u, taus))
              for p, q in ((params, nl), (params_b1, nl_b1))]
    compared = 0
    for i, tau in enumerate(taus):
        ut = dilate(u, float(tau), check=False)
        if not (sample_resolved(ut) and _lossless_contraction(u, tau)):
            continue
        compared += 1
        for p, q, curve in curves:
            eb = energy(p, q, kernel64, ut)
            got = [curve.kinetic[i], curve.interaction[i]]
            want = [eb.kinetic, eb.interaction]
            if p.b:
                got.append(curve.d_lower[i])
                want.append(eb.d_lower)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-3 * abs(w), (tau, g, w)
    assert compared >= 9


def test_window_ordering_on_solver_output(preset, preset_report, kernel64):
    """The preset minimizer is a fiber minimum near tau = 1 followed by one
    maximum, after which the curve decreases for good."""
    params, nl, _ = preset
    curve = fiber_curve(params, nl, kernel64, preset_report.u_star)
    report = unimodality_report(curve)
    assert report.n_maxima == 1
    assert curve.detected_maxima[0] > 1.0
    assert report.conclusive
    assert report.decreasing_after_max


def test_convolutions_independent_of_sample_count(grid32, kernel32,
                                                  fft_calls):
    """k + 2 forward 3-D transforms and one inverse, whatever the number of
    tau samples: u's spectrum (kinetic term and resolution rule), I(1)'s
    convolution, and one spectrum per power for the pair integrals; k = 3
    here (b-term and two G terms)."""
    nl = make_nonlinearity(PB1, PRESET_TERMS)
    u = gaussian(grid32, 1.5, 0.5)
    for taus in ([0.5, 1.0, 2.0], default_taus()):
        fft_calls.clear()
        fiber_curve(PB1, nl, kernel32, u, taus)
        assert fft_calls == {"scipy.rfftn": 5, "scipy.irfftn": 1}
