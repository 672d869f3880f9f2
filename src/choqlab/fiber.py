"""The energy along the mass-preserving dilation path, in closed form.

With F(t) = sum_i c_i |t|^{p_i} (b = 1 adds c = 1, p = p_lower) the dilation
u_tau(x) = tau^{N/2} u(tau x) has E(u_tau) = phi(tau), where

    phi(tau) = K tau^2 - 1/2 sum_ij D_ij tau^{e_ij},
    D_ij = c_i c_j int (I_a*|u|^{p_i}) |u|^{p_j},  e_ij = N(p_i+p_j)/2 - N - a.

So K and the pair integrals at tau = 1 give the whole curve, and the roots
of the generalized polynomial phi' count its maxima exactly (Descartes' rule
of signs bounds them).  That checks one field against the one-bump
assumption of the local minimization argument, never the assumption itself,
which quantifies over every field of the mass.  The scaling laws are exact
in free space and hold on the box to quadrature accuracy, so u must pass
energy.sample_resolved, the package's one resolution rule; the diagnosis
of a field that fails it is not conclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Evaluation, sample_resolved
from .grid import MAX_SAMPLES, Field
from .problem import Nonlinearity, ProblemParams, _powers
from .riesz import RieszKernel, pair_integrals
from .thresholds import _brentq

# Powers of phi' this close count as one: the cross pair of exponents
# symmetric about the L2-critical one lands a rounding error off tau^1.
MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class FiberCurve:
    taus: np.ndarray
    values: np.ndarray
    kinetic: np.ndarray
    interaction: np.ndarray
    d_lower: np.ndarray | None
    resolved: np.ndarray          # sample_resolved(u), once per sample
    phi_at_1_slope: float
    slope_terms: tuple[tuple[float, float], ...]  # (b_k, beta_k) of phi'

    @property
    def detected_maxima(self) -> tuple[float, ...]:
        return tuple(t for t, falls in slope_roots(self.slope_terms) if falls)


@dataclass(frozen=True)
class FiberDiagnosis:
    n_maxima: int
    decreasing_after_max: bool
    conclusive: bool
    detail: str


def default_taus(lo: float = 1e-2, hi: float = 10.0, n: int = 200) -> np.ndarray:
    """Log-spaced dilation samples with tau = 1 inserted exactly."""
    if not (0.0 < lo < hi < math.inf and 1 <= n <= MAX_SAMPLES):
        raise ValueError(f"dilation samples need 0 < tau_min < tau_max and "
                         f"1 <= n_tau <= {MAX_SAMPLES}, got {lo!r}, {hi!r}, {n!r}")
    taus = np.geomspace(lo, hi, n)
    if not np.any(taus == 1.0):
        taus = np.sort(np.append(taus, 1.0))
    return taus


def _pairs(params: ProblemParams, nl: Nonlinearity, kernel: RieszKernel,
           u: Field) -> list[tuple[float, float]]:
    """(mult_ij D_ij, e_ij) for i <= j, by riesz.pair_integrals: one forward
    transform per power, so with b = 1 the first pair is
    energy.interaction_pair's d_lower bit for bit.  mult is 2 off the
    diagonal, where D_ij stands for D_ji too.
    """
    powers = _powers(params, nl)
    a = np.abs(u.values)
    d = pair_integrals(kernel, (Field(u.grid, a ** p) for _, p in powers))
    out = []
    for i, (ci, pi) in enumerate(powers):
        for j, (cj, pj) in enumerate(powers[i:], start=i):
            out.append(((1.0 if j == i else 2.0) * ci * cj * float(d[i, j]),
                        0.5 * params.N * (pi + pj) - params.N - params.alpha))
    return out


def _slope_terms(kinetic: float, pairs) -> tuple[tuple[float, float], ...]:
    """phi' = 2K tau - 1/2 sum mult e D tau^(e-1) as (b_k, beta_k) terms,
    powers ascending and distinct to MERGE_RTOL, zero coefficients dropped."""
    raw = sorted([(1.0, 2.0 * kinetic)] + [(e - 1.0, -0.5 * w * e) for w, e in pairs])
    merged: list[list[float]] = []
    for beta, coef in raw:
        if merged and beta - merged[-1][1] <= MERGE_RTOL * max(1.0, abs(beta)):
            merged[-1][0] += coef
        else:
            merged.append([coef, beta])
    return tuple((c, b) for c, b in merged if c != 0.0)


def _roots(terms, lo: float, hi: float) -> list[tuple[float, bool]]:
    """(s, falls) at each sign change of g(s) = sum b exp(beta s) in [lo, hi].

    g exp(-beta_0 s) is monotone between the sign changes of its derivative,
    a sum with one term fewer, so each such interval holds at most one root.
    """
    if len(terms) < 2:
        return []
    b0 = terms[0][1]
    crit = _roots(tuple((c * (b - b0), b) for c, b in terms[1:]), lo, hi)
    knots = [lo, *(s for s, _ in crit), hi]

    def g(s: float) -> float:   # over its largest term: same sign, no overflow
        logs = [math.log(abs(c)) + b * s for c, b in terms]
        top = max(logs)
        return math.fsum(math.copysign(math.exp(x - top), c)
                         for (c, _), x in zip(terms, logs))

    return [(_brentq(g, left, right, xtol=1e-14), g(left) > 0.0)
            for left, right in zip(knots, knots[1:])
            if g(left) * g(right) < 0.0]


def slope_roots(terms) -> list[tuple[float, bool]]:
    """(tau, falls) at each sign change of phi' over tau > 0, ascending;
    falls marks a maximum of phi.  In s = log tau no root lies below lo or
    above hi, where the lowest or the highest power outweighs the rest."""
    if len(terms) < 2:
        return []
    logs = [(math.log(abs(c)), b) for c, b in terms]
    (l0, b0), (ln, bn), w = logs[0], logs[-1], math.log(len(terms) - 1)
    lo = min((l0 - w - lk) / (bk - b0) for lk, bk in logs[1:])
    hi = max((lk + w - ln) / (bn - bk) for lk, bk in logs[:-1])
    return [(math.exp(s), falls) for s, falls in _roots(terms, lo - 1.0, hi + 1.0)]


def fiber_curve(params: ProblemParams, nl: Nonlinearity, kernel: RieszKernel,
                u: Field, taus=None) -> FiberCurve:
    """The dilation curve of u with its breakdown, in closed form.

    The sums are anchored at tau = 1, so that row is energy() of u bit for
    bit; d_lower has e = 0 and is the same at every tau.  With k powers a
    curve costs k + 2 forward 3-D transforms and one inverse, whatever the
    number of samples: u's spectrum serves the kinetic term and the
    resolution rule, I(1) is one convolution, and each |u|^p_i is
    transformed once for the pair integrals.  A tau whose row overflows
    raises ValueError.
    """
    taus = np.asarray(default_taus() if taus is None else taus, dtype=float)
    if taus.ndim != 1 or not taus.size or np.any(np.diff(taus, prepend=0.0) <= 0.0):
        raise ValueError("taus must be a strictly increasing positive 1-D array")
    ev = Evaluation(params, nl, kernel, u)
    K = ev.kinetic
    resolved = sample_resolved(u, ev.spec)   # the kinetic term's spectrum
    I1 = ev.interaction
    del ev   # its fields need not outlive the pair spectra
    pairs = _pairs(params, nl, kernel, u)

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        kinetic = K * taus ** 2
        interaction = np.full_like(taus, I1)
        for w, e in pairs:
            interaction += 0.5 * w * (taus ** e - 1.0)
        values = kinetic - interaction
    bad = ~np.isfinite(values)   # so are the rows whose terms are not finite
    if bad.any():
        tau = float(taus[bad.argmax()])
        raise ValueError(f"dilation curve is not finite at tau = {tau!r}; "
                         "sample a narrower tau range")
    return FiberCurve(
        taus=taus, values=values, kinetic=kinetic,
        interaction=interaction,
        d_lower=np.full_like(taus, pairs[0][0]) if params.b else None,
        resolved=np.full(taus.shape, resolved),
        phi_at_1_slope=2.0 * K - 0.5 * sum(w * e for w, e in pairs),
        slope_terms=_slope_terms(K, pairs),
    )


def unimodality_report(curve: FiberCurve) -> FiberDiagnosis:
    """Count the local maxima of phi over all tau > 0.

    Conclusive when u is resolved and the roots found reach Descartes'
    bound (the sign changes of the ordered coefficients): none is missing.
    """
    terms = curve.slope_terms
    roots = slope_roots(terms)
    bound = sum((c > 0.0) != (d > 0.0) for (c, _), (d, _) in zip(terms, terms[1:]))
    n_max = sum(falls for _, falls in roots)
    resolved = bool(curve.resolved.all())
    detail = (f"{n_max} local maximum(s) over tau > 0; phi' changes sign "
              f"{len(roots)} of at most {bound} time(s)"
              + ("" if resolved else "; field not resolved on its grid"))
    decreasing = not n_max or roots[-1][1]   # no sign change after the last maximum
    return FiberDiagnosis(n_max, decreasing, resolved and len(roots) == bound, detail)
