"""Energy breakdown, identities, dilation scaling, and the sharp bounds."""

import math
import types
import warnings

import numpy as np
import pytest

from choqlab import (
    EnergyError,
    Evaluation,
    Field,
    Grid,
    GridError,
    KernelError,
    ProblemParams,
    ResolutionWarning,
    dilate,
    grad_norm_sq,
    interaction_pair,
    l2_gradient,
    make_nonlinearity,
    mass,
    rescale_mass,
    s2_closed_form,
    spectral_tail_fraction,
)
from choqlab.energy import energy
from choqlab.fiber import sample_resolved

from conftest import PRESET_TERMS

P0 = ProblemParams(N=3, alpha=2.0, b=0, rho=0.5)
PB1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.5)


def gaussian(grid, sigma, rho):
    vals = np.exp(-grid.radius_sq() / (2.0 * sigma**2))
    return rescale_mass(Field(grid, vals), rho)


def test_energy_names_the_module():
    import choqlab.energy as E

    assert isinstance(E, types.ModuleType)
    assert E.Evaluation is Evaluation
    assert callable(E.energy)


def test_breakdown_identity(grid64, kernel64):
    nl = make_nonlinearity(P0, PRESET_TERMS)
    u = gaussian(grid64, 1.5, 0.5)
    eb = energy(P0, nl, kernel64, u)
    assert eb.total == eb.kinetic - eb.interaction
    assert eb.kinetic > 0.0 and eb.interaction > 0.0
    assert eb.d_lower is None  # not requested and b = 0

    forced = Evaluation(P0, nl, kernel64, u).d_lower
    assert forced == interaction_pair(kernel64, u, P0.p_lower, P0.p_lower)

    nl1 = make_nonlinearity(PB1, PRESET_TERMS)
    assert energy(PB1, nl1, kernel64, u).d_lower is not None


def test_energy_grid_mismatch(grid32, kernel64):
    nl = make_nonlinearity(P0, PRESET_TERMS)
    u = gaussian(grid32, 1.5, 0.5)
    with pytest.raises(GridError, match="kernel"):
        energy(P0, nl, kernel64, u)


def test_interaction_pair_grid_mismatch(kernel64):
    """Same m, another L: the kernel's symbol would be read at the wrong
    wavenumbers, so the pair integral is refused rather than rescaled."""
    u = gaussian(Grid(3, 64, 48.0), 1.5, 0.5)
    with pytest.raises(GridError, match="kernel"):
        interaction_pair(kernel64, u, 2.0, 2.0)


def test_kernel_for_another_alpha_is_refused(grid32, kernel32):
    """A kernel carries the alpha it was built for; an evaluation at
    another alpha would silently mix two problems."""
    params = ProblemParams(N=3, alpha=1.5, b=0, rho=0.06)
    nl = make_nonlinearity(params, PRESET_TERMS)
    u = gaussian(grid32, 1.5, 0.06)
    with pytest.raises(KernelError, match="alpha = 2 cannot serve alpha = 1.5"):
        energy(params, nl, kernel32, u)


def test_overflow_names_the_term(grid32, kernel32):
    nl = make_nonlinearity(P0, PRESET_TERMS)
    huge = Field(grid32, np.full(grid32.shape, 1e200))
    with pytest.raises(EnergyError, match=r"70\*\|t\|\^2 overflowed"):
        energy(P0, nl, kernel32, huge)

    nl1 = make_nonlinearity(PB1, [])
    with pytest.raises(EnergyError, match="lower-critical"):
        energy(PB1, nl1, kernel32, huge)

    # a non-finite sample is named as such, not as an overflowing term
    holed = gaussian(grid32, 1.5, 0.5)
    holed.values[1, 2, 3] = np.nan
    with pytest.raises(EnergyError, match="input field has non-finite samples"):
        energy(P0, nl, kernel32, holed)


def test_gradient_reduces_to_laplacian(grid64, kernel64):
    """With no nonlinearity at all the variational derivative is -Lap u,
    exact for a single Fourier mode."""
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=1.0)
    nl = make_nonlinearity(params, [])
    x = grid64.axis()[:, None, None]
    k = 2.0 * math.pi * 3.0 / grid64.L
    mode = np.cos(k * x) * np.ones(grid64.shape)
    out = l2_gradient(params, nl, kernel64, Field(grid64, mode))
    np.testing.assert_allclose(out.values, k**2 * mode, rtol=1e-10, atol=1e-10)


def test_lambda_of(grid64, kernel64):
    nl = make_nonlinearity(P0, PRESET_TERMS)
    with pytest.raises(EnergyError, match="zero field"):
        Evaluation(P0, nl, kernel64,
                   Field(grid64, np.zeros(grid64.shape))).lambda_

    # increasing the amplitude strengthens the superquadratic coupling, so
    # the multiplier grows monotonically along an amplitude ray
    u = gaussian(grid64, 1.5, 0.5)
    lams = []
    for c in np.linspace(0.9, 1.1, 5):
        lams.append(Evaluation(P0, nl, kernel64,
                               Field(grid64, c * u.values)).lambda_)
    diffs = np.diff(lams)
    assert np.all(np.isfinite(lams))
    assert np.all(diffs > 0.0)


def test_pohozaev_generic_field(grid64, kernel64):
    """The scaling identity fails by an O(1) normalized amount on a field
    that is not a solution, and degenerates to 0 on the zero field."""
    nl = make_nonlinearity(P0, PRESET_TERMS)
    u = gaussian(grid64, 1.0, 0.5)
    ev = Evaluation(P0, nl, kernel64, u)
    assert ev.pohozaev(ev.lambda_) > 1e-2

    zero = Field(grid64, np.zeros(grid64.shape))
    assert Evaluation(P0, nl, kernel64, zero).pohozaev(1.0) == 0.0


def test_nehari_pohozaev_pure_lower(grid64, kernel64):
    """With only the lower-critical power the right side cancels pointwise
    and the residual is exactly the mass-normalized squared gradient."""
    nl = make_nonlinearity(PB1, [])
    u = gaussian(grid64, 1.0, 0.5)
    got = Evaluation(PB1, nl, kernel64, u).nehari_pohozaev
    expect = grad_norm_sq(u) / mass(u) ** 2
    assert got == pytest.approx(expect, rel=1e-12)


def test_released_arrays_are_recomputed(grid32, kernel32):
    """release_arrays forgets F, f, the potential and the gradient; reading
    them again gives the same values, and the kept scalars stay."""
    nl = make_nonlinearity(P0, PRESET_TERMS)
    ev = Evaluation(P0, nl, kernel32, gaussian(grid32, 1.5, 0.5))
    total, grad = ev.total, ev.gradient().values.copy()
    ev.release_arrays()
    assert {"F", "f", "potential", "grad_spec", "_gradient"}.isdisjoint(vars(ev))
    assert ev.total == total
    assert np.array_equal(ev.gradient().values, grad)


def test_dilate_identity_and_validation(grid64):
    u = gaussian(grid64, 1.5, 0.5)
    same = dilate(u, 1.0)
    assert same is not u
    assert np.array_equal(same.values, u.values)
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(EnergyError, match="tau"):
            dilate(u, bad)


def test_dilate_clips_outside_content(grid64):
    """Contraction reads tau*x; points whose preimage leaves the box come
    back exactly zero instead of wrapping around the torus."""
    u = gaussian(grid64, 2.0, 0.5)
    out = dilate(u, 2.0, check=False)
    m = grid64.m
    assert np.all(out.values[: m // 4] == 0.0)
    assert np.all(out.values[3 * m // 4:] == 0.0)
    assert np.abs(out.values[m // 2]).max() > 0.0


def test_dilate_mass_and_kinetic_scaling(grid64):
    u = gaussian(grid64, 1.0, 0.7)
    kin0 = grad_norm_sq(u)
    for tau in (0.5, 2.0):
        ut = dilate(u, tau, check=False)
        assert mass(ut) == pytest.approx(mass(u), rel=1e-6)
        assert grad_norm_sq(ut) == pytest.approx(tau**2 * kin0, rel=1e-4)


def test_dilate_warns_when_leaving_band(grid64):
    narrow = gaussian(grid64, 0.5, 0.5)
    with pytest.warns(ResolutionWarning):
        dilate(narrow, 4.0)


@pytest.mark.parametrize("tau", [0.35, 0.5, 2.0, 2.6, 4.0])
def test_dilate_warns_exactly_when_unresolved(grid64, tau):
    """dilate(check=True) warns exactly when its result fails
    sample_resolved: at tau = 0.35 the spread field reaches the box faces,
    at tau = 2.6 its band-edge tail (1.5e-6) is still under the limit."""
    u = gaussian(grid64, 1.5, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dilate(u, tau)
    warned = any(issubclass(w.category, ResolutionWarning) for w in caught)
    assert warned == (not sample_resolved(out))


def test_interaction_pair_scaling(grid64, kernel64):
    """Each power pair picks up its own dilation exponent
    e = N(p+q)/2 - N - alpha, including the invariant pair at e = 0."""
    u = gaussian(grid64, 2.0, 0.7)
    pairs = {
        (2.0, 2.0): 1.0,
        (2.0, 8.0 / 3.0): 2.0,
        (8.0 / 3.0, 8.0 / 3.0): 3.0,
        (3.0, 3.0): 4.0,
        (5.0 / 3.0, 5.0 / 3.0): 0.0,
    }
    for (p, q), e in pairs.items():
        base = interaction_pair(kernel64, u, p, q)
        for tau in (0.9, 1.1):
            got = interaction_pair(kernel64, dilate(u, tau, check=False), p, q)
            assert got == pytest.approx(tau**e * base, rel=1e-3), (p, q, tau)


def test_spectral_tail_fraction(grid32):
    smooth = gaussian(grid32, 2.0, 1.0)
    assert spectral_tail_fraction(smooth) < 1e-10

    i = np.indices(grid32.shape).sum(axis=0)
    checker = Field(grid32, ((-1.0) ** i))
    assert spectral_tail_fraction(checker) > 0.99

    zero = Field(grid32, np.zeros(grid32.shape))
    assert spectral_tail_fraction(zero) == 0.0


def test_lower_critical_extremal_equality(grid256, kernel256):
    """At the known extremal shape the dilation-invariant interaction
    reaches its sharp ceiling; at this resolution the two agree to 1e-3."""
    nl = make_nonlinearity(PB1, [])
    delta = 1.2
    prof = (delta / (delta**2 + grid256.radius_sq())) ** 1.5
    u = rescale_mass(Field(grid256, prof), 0.5)
    eb = energy(PB1, nl, kernel256, u)
    s2 = s2_closed_form(3, 2.0)
    target = 0.5 * s2 ** (-5.0 / 3.0) * 0.5 ** (10.0 / 3.0)
    assert abs(eb.interaction / target - 1.0) < 1e-3


def test_lower_critical_energy_bound(grid64, kernel64):
    """E stays above -(1/2) (rho^2/S2)^{(N+alpha)/N} on every resolved
    sample: windowed random fields plus near-extremal profiles."""
    nl = make_nonlinearity(PB1, [])
    s2 = s2_closed_form(3, 2.0)
    bound = -0.5 * s2 ** (-5.0 / 3.0) * 0.5 ** (10.0 / 3.0)

    rng = np.random.default_rng(11)
    r2 = grid64.radius_sq()
    kx = 2.0 * math.pi * np.fft.fftfreq(64, d=grid64.spacing)
    k2 = sum(a**2 for a in np.meshgrid(kx, kx, kx, indexing="ij"))
    env = np.exp(-r2 / (2.0 * 3.2**2))

    n_resolved = 0
    for _ in range(60):
        spec = np.fft.fftn(rng.standard_normal(grid64.shape))
        sig_k = rng.uniform(0.8, 2.5)
        vals = np.real(np.fft.ifftn(spec * np.exp(-k2 * sig_k**2))) * env
        u = rescale_mass(Field(grid64, vals), 0.5)
        if not sample_resolved(u):
            continue
        n_resolved += 1
        assert energy(PB1, nl, kernel64, u).total >= bound

    for delta in (1.2, 1.5):
        prof = (delta / (delta**2 + r2)) ** 1.5
        u = rescale_mass(Field(grid64, prof), 0.5)
        if sample_resolved(u):
            n_resolved += 1
            assert energy(PB1, nl, kernel64, u).total >= bound

    assert n_resolved >= 50  # the family actually exercises the bound


def test_energy_barrier_bound(preset, grid64, kernel64):
    """E(u) >= |grad u|^2 h(rho, |grad u|) for arbitrary fields at the
    reference mass, with the bundle's own barrier coefficients."""
    from choqlab import h_value

    params, nl, bundle = preset
    rng = np.random.default_rng(13)
    kx = 2.0 * math.pi * np.fft.fftfreq(64, d=grid64.spacing)
    k2 = sum(a**2 for a in np.meshgrid(kx, kx, kx, indexing="ij"))

    for _ in range(100):
        spec = np.fft.fftn(rng.standard_normal(grid64.shape))
        sig_k = rng.uniform(0.2, 1.5)
        vals = np.real(np.fft.ifftn(spec * np.exp(-k2 * sig_k**2)))
        u = rescale_mass(Field(grid64, vals), params.rho)
        eb = energy(params, nl, kernel64, u)
        gn = math.sqrt(grad_norm_sq(u))
        lower = gn**2 * h_value(params.rho, gn, bundle.c1, bundle.c2, params)
        margin = (eb.total - lower) / max(abs(eb.total), 1e-12)
        assert margin > -1e-10
