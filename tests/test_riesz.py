"""Kernel construction, FFT convolution, and the radial quadrature oracle."""

import math

import numpy as np
import pytest
import scipy.fft
from scipy.special import erf

from choqlab import riesz
from choqlab import (
    Field,
    Grid,
    GridError,
    KernelError,
    build_kernel,
    convolve,
    radial_oracle,
    riesz_constant,
)


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


def test_near_field_cell_averages():
    """The kernel's near cells are their 6-point Gauss-Legendre cell
    averages, summed here one cell at a time, and the origin cell is the
    equal-volume ball average."""
    grid = Grid(3, 32, 20.0)
    alpha, h, half = 1.5, grid.spacing, grid.m // 2
    kernel = build_kernel(grid, alpha)
    vals = scipy.fft.fftshift(scipy.fft.irfftn(
        kernel.symbol / grid.cell_volume, s=grid.shape, axes=range(3)))
    a3 = riesz_constant(3, alpha)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    w = weights / 2.0
    for d in [(1, 0, 0), (1, 1, 1), (-2, 3, 1), (0, 0, -8), (5, -4, 3)]:
        px, py, pz = (di * h + (h / 2.0) * nodes for di in d)
        r = np.sqrt(px[:, None, None] ** 2 + py[None, :, None] ** 2
                    + pz[None, None, :] ** 2)
        want = np.einsum("ijk,i,j,k->", a3 * r ** (alpha - 3.0), w, w, w)
        got = vals[half + d[0], half + d[1], half + d[2]]
        assert got == pytest.approx(want, rel=1e-12)
    # just outside the near field the kernel is point-sampled
    assert vals[half + 6, half + 6, half] == pytest.approx(
        a3 * (h * math.sqrt(72.0)) ** (alpha - 3.0), rel=1e-12)
    r_ball = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    assert vals[half, half, half] == pytest.approx(
        3.0 * a3 * r_ball ** (alpha - 3.0) / alpha, rel=1e-12)


def test_negative_symbol_is_refused():
    """At alpha = 2.5 and m = 32 the corrected kernel's symbol goes
    negative, which the energy cannot use."""
    with pytest.raises(KernelError, match="went negative"):
        build_kernel(Grid(3, 32, 24.0), 2.5)


def test_build_kernel_errors():
    with pytest.raises(KernelError, match="dim"):
        build_kernel(Grid(2, 16, 8.0), 2.0)
    with pytest.raises(KernelError, match="alpha"):
        build_kernel(Grid(3, 16, 8.0), 3.0)
    # the near field spans 8 cells each way from the origin cell
    for m in (8, 16):
        with pytest.raises(KernelError, match=f"m = {m} .* radius 8 cells"):
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
