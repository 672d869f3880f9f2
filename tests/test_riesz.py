"""Kernel construction, FFT convolution, and the radial quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from choqlab import riesz
from choqlab import (
    Field,
    Grid,
    GridError,
    KernelError,
    build_kernel,
    convolve,
    integrate,
    radial_oracle,
    riesz_constant,
)
from choqlab.riesz import pair_integrals


def test_riesz_constant_known_values():
    assert riesz_constant(3, 2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert riesz_constant(4, 2.0) == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-14)
    assert riesz_constant(3, 1.0) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-14)


def test_riesz_constant_domain():
    with pytest.raises(KernelError):
        riesz_constant(3, 0.0)
    with pytest.raises(KernelError):
        riesz_constant(3, 3.0)
    with pytest.raises(KernelError):
        riesz_constant(3, -1.0)


def test_build_kernel_cache(grid32):
    a = build_kernel(grid32, 2.0)
    assert build_kernel(grid32, 2.0) is a

    # the cache keeps only the last kernel built; a replaced one rebuilds
    # bit for bit
    other = build_kernel(grid32, 1.5)
    assert len(riesz._cache) == 1
    assert build_kernel(grid32, 1.5) is other
    again = build_kernel(grid32, 2.0)
    assert again is not a
    assert np.array_equal(again.symbol, a.symbol)
    assert len(riesz._cache) == 1


@pytest.mark.parametrize("p, q", [(5.0 / 3.0, 5.0 / 3.0), (2.0, 8.0 / 3.0),
                                  (8.0 / 3.0, 2.0)])
def test_pairing_matches_convolution(grid64, kernel64, p, q):
    """pair_integrals gives int (I_a*|u|^p)|u|^q as the convolution route
    does, to 1e-12, and the same bits with its sources swapped; 5/3 is
    p_lower at N = 3, alpha = 2."""
    u = np.exp(-grid64.radius_sq() / (2.0 * 1.5**2))
    g, h = Field(grid64, u ** p), Field(grid64, u ** q)
    got = pair_integrals(kernel64, [g, h])
    want = integrate(Field(grid64, convolve(kernel64, g).values * h.values))
    assert abs(got[0, 1] - want) <= 1e-12 * abs(want)
    assert pair_integrals(kernel64, [h, g])[0, 1] == got[0, 1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-100.0, 100.0),
       offset=st.floats(-3.0, 3.0))
@example(seed=0, log_scale=0.0, offset=0.0)
def test_pairing_diagonal_is_nonnegative(kernel32, seed, log_scale, offset):
    """D_ij = int (I_a*g_i) g_j of three random real fields, sign changes
    included, is a Gram matrix of root-weighted spectra: bitwise symmetric
    (weighting one side by the whole symbol would not be), permuted bit
    for bit with its sources, with a nonnegative diagonal and no eigenvalue
    below rounding.  Its cross pairs match the convolution route."""
    grid = kernel32.grid
    rng = np.random.default_rng(seed)
    sources = [Field(grid, v) for v in (
        (rng.standard_normal(grid.shape) + offset) * 10.0 ** log_scale,
        rng.standard_normal(grid.shape), rng.random(grid.shape))]
    d = pair_integrals(kernel32, iter(sources))
    assert d.shape == (3, 3)
    assert np.array_equal(d, d.T)
    perm = rng.permutation(3)
    assert np.array_equal(pair_integrals(kernel32, [sources[k] for k in perm]),
                          d[np.ix_(perm, perm)])
    assert np.all(np.diag(d) >= 0.0)
    assert np.linalg.eigvalsh(d).min() >= -1e-12 * np.trace(d)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        want = integrate(Field(grid, convolve(kernel32, sources[i]).values
                               * sources[j].values))
        assert abs(d[i, j] - want) <= 1e-12 * math.sqrt(d[i, i] * d[j, j])


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_split_kernel_matches_oracle(grid128, alpha):
    """On criterion 2's Gaussian at m = 128 the FFT potential meets the
    radial oracle to 5e-5 on |x| < L/4, 200 times tighter than criterion 2
    asks."""
    g, sigma = grid128, 2.5
    half, h = g.m // 2, g.spacing
    pot = convolve(build_kernel(g, alpha),
                   Field(g, np.exp(-g.radius_sq() / sigma**2))).values
    nodes = np.linspace(0.0, 14.0, 1401)
    gprof = np.exp(-nodes**2 / sigma**2)
    worst = 0.0
    for j in range(32):
        oracle = radial_oracle(alpha, nodes, gprof, j * h).value
        worst = max(worst, abs(pot[half + j, half, half] - oracle) / oracle)
    assert worst < 5e-5, f"alpha={alpha}: FFT vs oracle {worst:.3e}"


def test_negative_symbol_is_refused():
    """At alpha = 2.5 and m = 32 the kernel's symbol goes negative, which
    the energy cannot use."""
    with pytest.raises(KernelError, match="went negative"):
        build_kernel(Grid(3, 32, 24.0), 2.5)


def test_build_kernel_errors():
    with pytest.raises(KernelError, match="dim"):
        build_kernel(Grid(2, 16, 8.0), 2.0)
    with pytest.raises(KernelError, match="alpha"):
        build_kernel(Grid(3, 16, 8.0), 3.0)
    # the split's short part would feel its periodic images
    for m in (8, 16):
        with pytest.raises(KernelError, match=f"m = {m} .* Ewald split"):
            build_kernel(Grid(3, m, 8.0), 2.0)


def test_convolve_grid_mismatch(kernel32):
    other = Grid(3, 16, 24.0)
    with pytest.raises(GridError, match="kernel grid"):
        convolve(kernel32, Field(other, np.zeros(other.shape)))


def test_oracle_validation():
    nodes = np.linspace(0.0, 5.0, 100)
    vals = np.exp(-nodes)
    with pytest.raises(KernelError, match="alpha"):
        radial_oracle(3.0, nodes, vals, 1.0)
    with pytest.raises(KernelError, match="1-D"):
        radial_oracle(2.0, nodes[:3], vals[:3], 1.0)
    with pytest.raises(KernelError, match="start at 0"):
        radial_oracle(2.0, nodes + 0.5, vals, 1.0)
    bad = nodes.copy()
    bad[5] = bad[4]
    with pytest.raises(KernelError, match="increase strictly"):
        radial_oracle(2.0, bad, vals, 1.0)
    with pytest.raises(KernelError, match="nonnegative"):
        radial_oracle(2.0, nodes, vals, -0.1)


def test_oracle_decayed_flag():
    nodes = np.linspace(0.0, 6.0, 200)
    undecayed = radial_oracle(2.0, nodes, np.exp(-nodes**2 / 16.0), 1.0)
    assert not undecayed.decayed
    decayed = radial_oracle(2.0, nodes, np.exp(-nodes**2 / 0.5), 1.0)
    assert decayed.decayed


def test_oracle_newtonian_gaussian():
    """alpha = 2 on a Gaussian has the erf closed form, including at the
    origin where the kink-splitting branch switches off."""
    sigma = 1.5
    nodes = np.linspace(0.0, 12.0, 1601)
    gprof = np.exp(-nodes**2 / sigma**2)
    Q = math.pi**1.5 * sigma**3

    for r in (0.0, 0.5, 1.5, 3.0):
        closed = Q / (2.0 * math.pi**1.5 * sigma) if r == 0.0 \
            else Q * erf(r / sigma) / (4.0 * math.pi * r)
        got = radial_oracle(2.0, nodes, gprof, r)
        assert got.decayed
        assert got.value == pytest.approx(closed, rel=1e-7), f"r={r}"


def test_oracle_alpha1_origin_identity():
    """For alpha = 1 the potential at the origin reduces to a single
    radial integral: sigma/sqrt(pi) for a unit Gaussian profile."""
    sigma = 1.5
    nodes = np.linspace(0.0, 14.0, 1601)
    gprof = np.exp(-nodes**2 / sigma**2)
    got = radial_oracle(1.0, nodes, gprof, 0.0)
    assert got.value == pytest.approx(sigma / math.sqrt(math.pi), rel=1e-7)


def test_oracle_hollow_shell():
    """Newtonian potential is flat inside a hollow radial shell and decays
    like total charge over 4 pi r outside it."""
    nodes = np.linspace(0.0, 8.0, 2401)
    shell = np.where((nodes > 2.0) & (nodes < 3.0),
                     np.exp(-1.0 / np.maximum((nodes - 2.0) * (3.0 - nodes), 1e-300)),
                     0.0)
    inside = [radial_oracle(2.0, nodes, shell, r).value for r in (0.0, 0.4, 1.0)]
    assert np.ptp(inside) <= 1e-8 * abs(inside[0])

    Q = 4.0 * math.pi * np.trapezoid(shell * nodes**2, nodes)
    for r in (5.0, 7.0):
        got = radial_oracle(2.0, nodes, shell, r).value
        assert got == pytest.approx(Q / (4.0 * math.pi * r), rel=1e-6)


def test_box_doubling_tightens_truncation():
    """For a source wide enough to feel its periodic images, doubling the
    box at fixed spacing moves the FFT potential toward free space."""
    sigma = 5.0
    Q = math.pi**1.5 * sigma**3

    def worst_err(m, L):
        g = Grid(3, m, L)
        kern = build_kernel(g, 2.0)
        pot = convolve(kern, Field(g, np.exp(-g.radius_sq() / sigma**2)))
        half = g.m // 2
        errs = []
        for j in range(1, 9):
            r = j * g.spacing
            closed = Q * erf(r / sigma) / (4.0 * math.pi * r)
            errs.append(abs(pot.values[half + j, half, half] - closed) / closed)
        return max(errs)

    err_small = worst_err(64, 24.0)
    err_big = worst_err(128, 48.0)
    assert err_small > 1e-5  # images are actually felt at the small box
    assert err_big < err_small
