"""Riesz-potential convolution on the periodic box, plus a radial oracle.

The kernel A_alpha(N)/|x|^{N-alpha} is sampled at minimum-image distances,
its singular cell replaced by an analytic average, and transformed once;
convolutions are then two FFTs and a pointwise multiply.  The radial
quadrature oracle is an independent N=3 evaluation path used to validate
the FFT route.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import leggauss
from scipy import integrate as _sciint
from scipy.interpolate import CubicSpline

from .grid import Field, Grid, GridError, _outer_sum


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


# Near-field reach in cells and Gauss-Legendre points per axis (build_kernel).
_NEAR_RADIUS_CELLS = 8
_NEAR_QUAD_ORDER = 6

# The last kernel built, by (grid, alpha): a run works on one grid with one
# kernel, and one m = 256 symbol is about 67 MB.
_cache: dict[tuple, RieszKernel] = {}
_cache_lock = threading.Lock()


def _near_field(alpha: float, h: float):
    """Offsets 0 < |d| <= _NEAR_RADIUS_CELLS (3, K) and the cell averages there."""
    n = _NEAR_RADIUS_CELLS
    d2 = _outer_sum([np.arange(-n, n + 1) ** 2] * 3, np.add)
    offsets = np.argwhere((d2 > 0) & (d2 <= n * n)).T - n
    nodes, weights = leggauss(_NEAR_QUAD_ORDER)
    pts = (offsets[:, :, None] * h + (h / 2.0) * nodes) ** 2      # (3, K, q)
    val = pts[0][:, :, None, None] + pts[1][:, None, :, None] + pts[2][:, None, None, :]
    val **= (alpha - 3.0) / 2.0    # |y|^{alpha-3} at the nodes, in place
    w = weights / 2.0
    return offsets, riesz_constant(3, alpha) * (val @ w @ w @ w)


def build_kernel(grid: Grid, alpha: float) -> RieszKernel:
    """Sample, correct, and transform the kernel for this grid.

    Point sampling of the kernel is first-order accurate near the
    singularity, which is too crude below alpha = 2; every cell within
    _NEAR_RADIUS_CELLS spacings of the origin is therefore replaced by its
    Gauss-Legendre cell average (the origin cell by the exact average over
    an equal-volume ball).  The last kernel built is kept per (grid, alpha),
    and the build is deterministic, so a replaced kernel rebuilds with a
    bit-identical symbol.
    """
    if grid.dim != 3:
        raise KernelError("kernel path supports dim = 3 only")
    if not (0.0 < alpha < 3.0):
        raise KernelError(f"alpha must lie in (0, 3), got {alpha}")
    if grid.m <= 2 * _NEAR_RADIUS_CELLS:
        raise KernelError(f"m = {grid.m} leaves no room for the near field of "
                          f"radius {_NEAR_RADIUS_CELLS} cells (needs m > "
                          f"{2 * _NEAR_RADIUS_CELLS})")
    key = (grid, float(alpha))
    with _cache_lock:
        if key in _cache:
            return _cache[key]

    h = grid.spacing
    a3 = riesz_constant(3, alpha)
    r = grid.radius()
    with np.errstate(divide="ignore"):
        vals = a3 * r ** (alpha - 3.0)

    half = grid.m // 2
    # origin: (1/h^3) 4 pi A int_0^rb r^{alpha-1} dr over a ball of volume h^3
    r_ball = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    vals[half, half, half] = 3.0 * a3 * r_ball ** (alpha - 3.0) / alpha
    offsets, averages = _near_field(alpha, h)
    vals[tuple(half + offsets)] = averages

    spectrum = scipy.fft.rfftn(scipy.fft.ifftshift(vals))
    scale = float(np.abs(spectrum.real).max())
    worst_imag = float(np.abs(spectrum.imag).max())
    if worst_imag > 1e-9 * scale:
        raise KernelError(f"kernel transform is not real (imag {worst_imag:.3e})")
    symbol = spectrum.real * grid.cell_volume
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
