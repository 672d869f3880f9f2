"""Energy functional, its L2 gradient, multiplier, identities, dilation.

E(u) = 1/2 |grad u|^2 - 1/2 int (I_a * F(u)) F(u).  The nonlocal term is
one kernel convolution; everything else is pointwise work and quadrature.
The mass-preserving dilation u_tau(x) = tau^{N/2} u(tau x) is implemented
by trigonometric resampling so that its scaling identities hold to
spectral accuracy; the solver uses it only to bring a start inside the
gradient ball.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .grid import Field, GridError, _grad_norm_sq_rfft, _omega_sq_rfft
from .grid import _outer_sum, _rfft_weights
from .grid import inner, integrate, mass
from .problem import Nonlinearity, ProblemParams, _powers, eval_F, eval_f
from .riesz import RieszKernel, convolve, pairing


class EnergyError(ArithmeticError):
    pass


class ResolutionWarning(UserWarning):
    """A field is too coarse or too wide for its grid."""


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float       # 1/2 |grad u|_2^2
    interaction: float   # 1/2 int (I_a*F(u)) F(u)
    total: float         # kinetic - interaction
    d_lower: float | None = None  # int (I_a*|u|^p_)|u|^p_ when b = 1


@dataclass(frozen=True)
class Certificate:
    """What certifies u as a constrained critical point."""

    energy: EnergyBreakdown
    lambda_: float
    grad_residual: float      # |grad E + lambda u|_2 / |u|_2
    pohozaev: float
    nehari_pohozaev: float
    mass: float
    grad_norm: float


def _nonlinearity_values(params: ProblemParams, nl: Nonlinearity, u: Field):
    # an overflow is reported below as an EnergyError naming the term
    with np.errstate(over="ignore"):
        F = eval_F(params, nl, u.values)
        if np.isfinite(F).all():
            return F
        a = np.abs(u.values)
        if not np.isfinite(a).all():
            raise EnergyError("input field has non-finite samples")
        for coef, p in _powers(params, nl):
            if not np.isfinite(coef * a ** p).all():
                kind = "lower-critical term" if p == params.p_lower else "term"
                raise EnergyError(f"{kind} {coef:g}*|t|^{p:g} overflowed")
    raise EnergyError("non-finite nonlinearity values")


class Evaluation:
    """E, its L2 gradient, the multiplier and both identities at one field.

    Each quantity but the gradient is computed on first read and kept.  All
    of them read u's half-spectrum, F(u) and the potential I_a*F(u): the
    energy costs one forward transform (none when the caller passes u's
    half-spectrum as spec) and one convolution, the gradient's spectrum one
    forward transform more, each gradient() one inverse transform more, the
    certificate nothing more but its gradient() and d_lower's one forward
    transform (riesz.pairing needs no inverse one).
    """

    def __init__(self, params: ProblemParams, nl: Nonlinearity,
                 kernel: RieszKernel, u: Field, spec: np.ndarray | None = None):
        if u.grid != kernel.grid:
            raise GridError("field grid does not match kernel grid")
        kernel.check_alpha(params.alpha)
        self.params, self.nl, self.kernel, self.u = params, nl, kernel, u
        if spec is not None:
            self.spec = spec

    @cached_property
    def spec(self) -> np.ndarray:
        return scipy.fft.rfftn(self.u.values)

    @cached_property
    def F(self) -> np.ndarray:
        return _nonlinearity_values(self.params, self.nl, self.u)

    @cached_property
    def f(self) -> np.ndarray:
        return eval_f(self.params, self.nl, self.u.values)

    @cached_property
    def potential(self) -> np.ndarray:
        return convolve(self.kernel, Field(self.u.grid, self.F)).values

    @cached_property
    def kinetic(self) -> float:
        return 0.5 * _grad_norm_sq_rfft(self.u.grid, self.spec)

    @cached_property
    def interaction(self) -> float:
        return 0.5 * integrate(Field(self.u.grid, self.potential * self.F))

    @cached_property
    def total(self) -> float:
        return self.kinetic - self.interaction

    @cached_property
    def mass(self) -> float:
        return mass(self.u)

    @cached_property
    def d_lower(self) -> float:
        return interaction_pair(self.kernel, self.u, self.params.p_lower,
                                self.params.p_lower)

    @cached_property
    def grad_spec(self) -> np.ndarray:
        """Half-spectrum of the gradient: |k|^2 spec - transform((I_a*F) f)."""
        return (_omega_sq_rfft(self.u.grid) * self.spec
                - scipy.fft.rfftn(self.potential * self.f))

    def release_arrays(self) -> None:
        """Forget F, f, the potential and the gradient's spectrum; a read
        recomputes them."""
        for name in ("F", "f", "potential", "grad_spec"):
            self.__dict__.pop(name, None)

    def gradient(self) -> Field:
        """-lap u - (I_a*F(u)) f(u); a small step u - step*gradient lowers E."""
        g = self.u.grid
        return Field(g, scipy.fft.irfftn(self.grad_spec, s=g.shape,
                                         axes=range(g.dim)))

    @cached_property
    def lambda_(self) -> float:
        """Multiplier from testing the equation against u itself."""
        m2 = self.mass ** 2
        if m2 == 0.0:
            raise EnergyError("multiplier undefined for the zero field")
        tested = integrate(Field(self.u.grid,
                                 self.potential * self.f * self.u.values))
        return (tested - 2.0 * self.kinetic) / m2

    def pohozaev(self, lam: float) -> float:
        """Normalized defect of the scaling identity at (u, lambda).

        (N-2)/2 T + N/2 lam |u|^2 = (N+a)/2 D must hold for solutions; the
        residual is |sum| over the sum of magnitudes, so 0 is exact and O(1)
        is generic.
        """
        N, alpha = self.params.N, self.params.alpha
        terms = ((N - 2.0) * self.kinetic, 0.5 * N * lam * self.mass ** 2,
                 -(N + alpha) * self.interaction)
        denom = sum(abs(t) for t in terms)
        return 0.0 if denom == 0.0 else abs(sum(terms)) / denom

    @cached_property
    def nehari_pohozaev(self) -> float:
        """Defect of |grad u|^2 = N/2 int (I_a*F)(f(u)u - (N+a)/N F), per unit mass.

        Normalizing by |u|_2^2 keeps the measure meaningful in the degenerate
        pure lower-critical case, where the right side vanishes identically
        and the residual reduces to the mass-normalized gradient norm.
        """
        N, alpha = self.params.N, self.params.alpha
        rhs = 0.5 * N * integrate(Field(self.u.grid, self.potential * (
            self.f * self.u.values - (N + alpha) / N * self.F)))
        m2 = self.mass ** 2
        return 0.0 if m2 == 0.0 else abs(2.0 * self.kinetic - rhs) / m2

    def breakdown(self) -> EnergyBreakdown:
        """The energy terms, with d_lower exactly when b = 1."""
        # F first (it raises on overflow), then d_lower, then the spectrum,
        # so that d_lower's temporaries never coexist with the kept spectrum
        inter = self.interaction
        d_lower = self.d_lower if self.params.b else None
        return EnergyBreakdown(self.kinetic, inter, self.total, d_lower)

    def certificate(self) -> Certificate:
        lam = self.lambda_
        shifted = Field(self.u.grid, self.gradient().values + lam * self.u.values)
        return Certificate(
            energy=self.breakdown(), lambda_=lam,
            grad_residual=math.sqrt(inner(shifted, shifted)) / self.mass,
            pohozaev=self.pohozaev(lam), nehari_pohozaev=self.nehari_pohozaev,
            mass=self.mass, grad_norm=math.sqrt(2.0 * self.kinetic),
        )


def energy(params: ProblemParams, nl: Nonlinearity, kernel: RieszKernel,
           u: Field) -> EnergyBreakdown:
    """Evaluate the breakdown at u.  One convolution, two quadratures.

    With b = 1 the dilation-invariant component d_lower (the small-dilation
    plateau of the energy) costs one forward transform more.
    """
    return Evaluation(params, nl, kernel, u).breakdown()


def interaction_pair(kernel: RieszKernel, u: Field, p: float, q: float) -> float:
    """int (I_a * |u|^p) |u|^q for one power pair, by riesz.pairing: one
    forward transform per distinct power, no inverse one."""
    if u.grid != kernel.grid:
        raise GridError("field grid does not match kernel grid")
    a = np.abs(u.values)
    g_hat = scipy.fft.rfftn(a ** p)
    h_hat = g_hat if q == p else scipy.fft.rfftn(a ** q)
    return pairing(kernel, g_hat, h_hat)


def l2_gradient(params: ProblemParams, nl: Nonlinearity, kernel: RieszKernel,
                u: Field) -> Field:
    """Variational derivative -lap u - (I_a*F(u)) f(u), as a Field."""
    return Evaluation(params, nl, kernel, u).gradient()


# ----------------------------------------------------------------------
# Mass-preserving dilation.
# ----------------------------------------------------------------------

TAIL_BAND = 0.25  # share of each axis frequency range counted as the tail
# A field cut off at the box faces carries an error of roughly 5x the
# squared relative face amplitude into its gradient norm, so 3e-3 keeps
# quadratic functionals good to about 5e-5.  The tail limit is a junk
# filter for band-edge content.
TAIL_LIMIT = 1e-5       # spectral power allowed in the outer band
BOUNDARY_LIMIT = 3e-3   # face amplitude relative to the peak


def spectral_tail_fraction(u: Field, spec: np.ndarray | None = None) -> float:
    """Fraction of spectral mass in the outer TAIL_BAND of each axis
    frequency; spec, when given, is u's half-spectrum."""
    if spec is None:
        spec = scipy.fft.rfftn(u.values)
    power = (spec.real ** 2 + spec.imag ** 2) * _rfft_weights(u.grid)
    m = u.grid.m
    cut = (1.0 - TAIL_BAND) * (m / 2.0)
    marks = ([np.abs(scipy.fft.fftfreq(m) * m) >= cut] * (u.grid.dim - 1)
             + [np.abs(scipy.fft.rfftfreq(m) * m) >= cut])
    outer = _outer_sum(marks, np.logical_or)
    total = float(power.sum())
    return float(power[outer].sum()) / total if total else 0.0


def sample_resolved(u: Field, spec: np.ndarray | None = None) -> bool:
    """True when a field is representable on its grid for energy purposes.

    Narrow fields push spectral mass against the band edge; wide ones push
    amplitude against the box faces.  Either way the quadratures silently
    degrade, so a number read off such a field is not conclusive.  This is
    the one resolution rule: the trial-profile estimates, dilate and the
    fiber diagnosis all read it.  A caller that holds u's half-spectrum
    passes it as spec, and the rule makes no transform of its own.
    """
    if spectral_tail_fraction(u, spec) > TAIL_LIMIT:
        return False
    a = np.abs(u.values)
    peak = a.max()
    faces = max(np.take(a, 0, axis=ax).max() for ax in range(u.grid.dim))
    return peak == 0.0 or bool(faces / peak < BOUNDARY_LIMIT)


def _dilation_matrix(m: int, tau: float) -> np.ndarray:
    """Per-axis trig-interpolation matrix evaluating at stretched sample points.

    Target positions that land outside the box have no sample to read; the
    trig interpolant would silently wrap around the torus there and copy
    interior values where they do not belong, so those rows are zeroed
    instead (the field is treated as zero outside the box).  Only
    contraction (tau > 1) produces such rows.
    """
    j = np.arange(m)
    targets = tau * (j - m / 2.0) + m / 2.0   # index coordinates of tau*x_j
    k = (scipy.fft.fftfreq(m) * m).astype(int)
    B = np.exp(2j * np.pi * np.outer(targets, k) / m) / m
    # split the self-conjugate top frequency symmetrically: cosine evaluation
    B[:, m // 2] = np.cos(np.pi * targets) / m
    B[(targets < 0.0) | (targets >= m), :] = 0.0
    return B


def dilate(u: Field, tau: float, check: bool = True) -> Field:
    """u_tau(x) = tau^{N/2} u(tau x) by spectral resampling.

    Exact at tau = 1.  For tau > 1 the profile shrinks (content moves to
    higher frequencies), for tau < 1 it spreads toward the box faces; a
    ResolutionWarning is emitted when the result fails sample_resolved
    (suppress with check=False).  Points whose preimage tau*x falls outside
    the box read zero, so a contracted field keeps only the content of the
    inner cube of half-side L/(2 tau).
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise EnergyError(f"tau must be positive and finite, got {tau}")
    if tau == 1.0:
        return u.copy()
    grid = u.grid
    B = _dilation_matrix(grid.m, tau)
    v = scipy.fft.fftn(u.values)
    for ax in range(grid.dim):
        v = np.moveaxis(np.tensordot(B, np.moveaxis(v, ax, 0), axes=(1, 0)), 0, ax)
    out = Field(grid, tau ** (grid.dim / 2.0) * v.real)
    if check and not sample_resolved(out):
        warnings.warn(f"dilation by tau={tau:g} is not resolved on its grid",
                      ResolutionWarning, stacklevel=2)
    return out
