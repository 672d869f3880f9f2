"""Riesz-potential convolution on the periodic box, plus a radial oracle.

The kernel A_alpha(N)/|x|^{N-alpha} is split as Ewald does: a smooth long
part sampled at minimum-image distances and transformed, and a short part
whose exact transform is added to the symbol.  The symbol is built once;
convolutions are then two FFTs and a pointwise multiply, and the pair
integrals int (I_a*g) h of a set of fields are Parseval sums over their
weighted half-spectra, so they need no inverse transform.  The radial
quadrature oracle is an independent N=3 evaluation path used to validate
the FFT route.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import integrate as _sciint
from scipy.interpolate import CubicSpline
from scipy.special import gammainc

from .grid import Field, Grid, GridError, _inner_rfft, _outer_sum


class KernelError(ValueError):
    pass


def riesz_constant(N: int, alpha: float) -> float:
    """Normalization A_alpha(N) = Gamma((N-a)/2) / (Gamma(a/2) pi^{N/2} 2^a)."""
    if not (0.0 < alpha < N):
        raise KernelError(f"alpha must lie in (0, N), got alpha={alpha}, N={N}")
    return math.gamma((N - alpha) / 2.0) / (
        math.gamma(alpha / 2.0) * math.pi ** (N / 2.0) * 2.0 ** alpha
    )


@dataclass(frozen=True)
class RieszKernel:
    grid: Grid
    alpha: float
    symbol: np.ndarray  # real, rfftn layout, cell volume folded in

    def check_alpha(self, alpha: float) -> None:
        """Refuse to serve a problem whose alpha is not the kernel's."""
        if alpha != self.alpha:
            raise KernelError(f"kernel built for alpha = {self.alpha:g} "
                              f"cannot serve alpha = {alpha:g}")


# Ewald splitting width sigma in grid spacings (build_kernel).  The short
# part's periodic images then weigh about exp(-(m/6)^2): 8e-4 at m = 16,
# 5e-13 at m = 32.
_SIGMA_CELLS = 3

# The last kernel built, by (grid, alpha): a run works on one grid with one
# kernel, and one m = 256 symbol is about 67 MB.
_cache: dict[tuple, RieszKernel] = {}
_cache_lock = threading.Lock()


def build_kernel(grid: Grid, alpha: float) -> RieszKernel:
    """The kernel's symbol on this grid, by the Ewald split.

    With s = (3 - alpha)/2, sigma = _SIGMA_CELLS h and P the regularized
    lower incomplete gamma function, A r^{alpha-3} splits into a smooth
    long part A r^{alpha-3} P(s, r^2/sigma^2), sampled at minimum-image
    points and transformed, and a short part whose exact transform
    k^{-alpha} P(alpha/2, k^2 sigma^2/4) is added to the symbol (Ewald,
    Ann. Phys. 369 (1921) 253).  Both parts depend on a grid point's
    integer |n|^2 only, so P is evaluated once per value of it.  The last
    kernel built is kept per (grid, alpha), and the build is deterministic,
    so a replaced kernel rebuilds with a bit-identical symbol.
    """
    if grid.dim != 3:
        raise KernelError("kernel path supports dim = 3 only")
    if not (0.0 < alpha < 3.0):
        raise KernelError(f"alpha must lie in (0, 3), got {alpha}")
    if grid.m <= 16:
        raise KernelError(f"m = {grid.m} is too small for the Ewald split: "
                          "its short part's periodic images weigh "
                          "exp(-(m/6)^2) (needs m > 16)")
    key = (grid, float(alpha))
    with _cache_lock:
        if key in _cache:
            return _cache[key]

    m, h = grid.m, grid.spacing
    s, a = (3.0 - alpha) / 2.0, alpha / 2.0
    sigma = _SIGMA_CELLS * h
    a3 = riesz_constant(3, alpha)
    try:   # the r = 0 and k = 0 values, the k^2 unit and the cell volume
        long_0 = a3 * sigma ** (alpha - 3.0) / math.gamma(s + 1.0)
        short_0 = (sigma / 2.0) ** alpha / math.gamma(a + 1.0)
        k_unit = (2.0 * math.pi / grid.L) ** 2
        dv = grid.cell_volume
    except (OverflowError, ZeroDivisionError):
        raise KernelError(f"L = {grid.L:g}, m = {m} puts the kernel's "
                          "scales outside the float range") from None
    # every |n|^2 > 0 on the grid; r^2 = h^2 q and k^2 = (2 pi / L)^2 q
    q = np.arange(1, 3 * (m // 2) ** 2 + 1, dtype=np.float64)
    k_sq = k_unit * q
    long_part = np.concatenate((
        [long_0], a3 * (h * h * q) ** -s * gammainc(s, q / _SIGMA_CELLS ** 2)))
    short_hat = np.concatenate((
        [short_0], k_sq ** -a * gammainc(a, k_sq * (sigma * sigma / 4.0))))
    n_sq = np.minimum(np.arange(m), m - np.arange(m)) ** 2  # FFT order
    spectrum = scipy.fft.rfftn(long_part[_outer_sum([n_sq] * 3, np.add)])

    scale = float(np.abs(spectrum.real).max())
    worst_imag = float(np.abs(spectrum.imag).max())
    if worst_imag > 1e-9 * scale:
        raise KernelError(f"kernel transform is not real (imag {worst_imag:.3e})")
    symbol = spectrum.real * dv
    symbol += short_hat[_outer_sum([n_sq, n_sq, n_sq[:m // 2 + 1]], np.add)]
    if symbol.min() < -1e-10 * symbol.max():
        raise KernelError(
            f"kernel symbol went negative ({symbol.min():.3e}); "
            "positive-definiteness is assumed by the energy"
        )

    kernel = RieszKernel(grid=grid, alpha=float(alpha), symbol=symbol)
    with _cache_lock:
        _cache.clear()
        _cache[key] = kernel
    return kernel


def convolve(kernel: RieszKernel, g: Field) -> Field:
    """Riesz potential of g: inverse transform of symbol * transform(g)."""
    if g.grid != kernel.grid:
        raise GridError("field grid does not match kernel grid")
    out = scipy.fft.irfftn(kernel.symbol * scipy.fft.rfftn(g.values),
                           s=g.grid.shape, axes=range(g.grid.dim))
    return Field(g.grid, out)


def pair_integrals(kernel: RieszKernel, sources) -> np.ndarray:
    """D[i, j] = int (I_a * g_i) g_j for box fields g_i, by Parseval.

    Each source is transformed once and weighted by sqrt(S), the symbol's
    rounding-level negative entries counting as zero (build_kernel refuses
    more); each entry is then an inner product of two weighted spectra, so
    D is bitwise symmetric and its diagonal is a sum of squares.  sources
    may be a generator: each field is released before the next is drawn.
    """
    root = np.sqrt(np.maximum(kernel.symbol, 0.0))
    weighted = []
    for g in sources:
        if g.grid != kernel.grid:
            raise GridError("field grid does not match kernel grid")
        spec = scipy.fft.rfftn(g.values)
        del g
        spec *= root
        weighted.append(spec)
    d = np.empty((len(weighted),) * 2)
    for i, gw in enumerate(weighted):
        for j in range(i, len(weighted)):
            d[i, j] = d[j, i] = _inner_rfft(kernel.grid, gw, weighted[j])
    return d


@dataclass(frozen=True)
class RadialPotential:
    value: float
    decayed: bool


def _weight(alpha: float, r: float, s: float) -> float:
    """Spherical average of the kernel power over the sphere |y| = s, seen from r.

    Integrating 1/|x-y|^{3-alpha} over directions of y gives, for r,s > 0,
      ((r+s)^{alpha-1} - |r-s|^{alpha-1}) / ((alpha-1) r s) * s,
    here returned without one factor s (the caller supplies s*g(s)).
    The alpha = 1 limit replaces the bracket by log((r+s)/|r-s|), and small
    r/s (or r = 0) uses the series limit 2 s^{alpha-2} to dodge the
    cancellation in the direct difference.
    """
    if s == 0.0:
        return 0.0
    if r <= 1e-3 * s:
        x = r / s
        if alpha == 1.0:
            return (2.0 / s) * (1.0 + x * x / 3.0)
        corr = 1.0 + (alpha - 2.0) * (alpha - 3.0) / 6.0 * x * x
        return 2.0 * s ** (alpha - 2.0) * corr
    if alpha == 1.0:
        return math.log((r + s) / abs(r - s)) / r if r != s else math.inf
    num = (r + s) ** (alpha - 1.0) - abs(r - s) ** (alpha - 1.0)
    return num / ((alpha - 1.0) * r)


def radial_oracle(alpha: float, r_nodes, g_values, r_eval: float) -> RadialPotential:
    """High-accuracy Riesz potential of a radial profile at one radius (N=3).

    The profile is cubic-spline interpolated on its nodes and integrated
    adaptively against the spherical-average weight, splitting at the
    s = r kink.  The decayed flag records whether the profile actually
    died off at the outer node; if it did not, the truncated integral
    underestimates the potential.
    """
    if not (0.0 < alpha < 3.0):
        raise KernelError(f"alpha must lie in (0, 3), got {alpha}")
    r_nodes = np.asarray(r_nodes, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    if r_nodes.ndim != 1 or r_nodes.shape != g_values.shape or r_nodes.size < 4:
        raise KernelError("need matching 1-D node/value arrays (4+ points)")
    if r_nodes[0] != 0.0 or np.any(np.diff(r_nodes) <= 0.0):
        raise KernelError("nodes must start at 0 and increase strictly")
    if r_eval < 0.0:
        raise KernelError("r_eval must be nonnegative")

    r_max = float(r_nodes[-1])
    peak = float(np.abs(g_values).max())
    decayed = bool(peak == 0.0 or abs(g_values[-1]) < 1e-10 * peak)
    spline = CubicSpline(r_nodes, g_values)

    def integrand(s: float) -> float:
        return s * float(spline(s)) * _weight(alpha, r_eval, s)

    pts = [r_eval] if 0.0 < r_eval < r_max else None
    total, _err = _sciint.quad(
        integrand, 0.0, r_max, points=pts, limit=300, epsabs=1e-12, epsrel=1e-12
    )
    value = riesz_constant(3, alpha) * 2.0 * math.pi * total
    return RadialPotential(value=value, decayed=decayed)
