"""Problem parameters, the power-sum nonlinearity, and growth checks.

The model couples a field u to itself through a Riesz-potential term; the
nonlinearity F(t) = b|t|^{(N+alpha)/N} + G(t) mixes an optional
lower-critical power (switch b) with a finite sum of powers
G(t) = sum_i nu_i |t|^{p_i}.  The admissible exponent window is
  p_lower = (N+alpha)/N   (mass-critical end, dilation-invariant),
  p_upper = (N+alpha)/(N-2)   (gradient-critical end),
and the checks named G1, G2, G3 encode: window membership, a
mass-subcritical leading term with positive weight, and strict
superlinearity relative to the lower endpoint.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemParams:
    """Ambient dimension N, Riesz order alpha, lower-critical switch b, mass rho."""

    N: int
    alpha: float
    b: int
    rho: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 3:
            raise ProblemError(f"N must be an integer >= 3, got {self.N}")
        if not (0.0 < self.alpha < self.N):
            raise ProblemError(f"alpha must lie in (0, N), got {self.alpha}")
        if self.b not in (0, 1):
            raise ProblemError(f"b must be 0 or 1, got {self.b}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ProblemError(f"rho must be positive and finite, got {self.rho}")

    @property
    def p_lower(self) -> float:
        return (self.N + self.alpha) / self.N

    @property
    def p_upper(self) -> float:
        return (self.N + self.alpha) / (self.N - 2)

    @property
    def p_l2crit(self) -> float:
        """Exponent separating bounded-below from unbounded constrained energy."""
        return 1.0 + (2.0 + self.alpha) / self.N


@dataclass(frozen=True)
class PowerTerm:
    coef: float
    exponent: float


@dataclass(frozen=True)
class Nonlinearity:
    """G(t) = sum of coef*|t|^exponent terms.

    F adds b|t|^{p_lower} to G; b and the exponent window are read from the
    ProblemParams passed alongside.
    """

    terms: tuple[PowerTerm, ...]


def _powers(params: ProblemParams, nl: Nonlinearity) -> list[tuple[float, float]]:
    """F's (coef, exponent) pairs: (1, p_lower) first when b = 1, then G's."""
    return [(1.0, params.p_lower)] * params.b + [(t.coef, t.exponent) for t in nl.terms]


def make_nonlinearity(params: ProblemParams, terms) -> Nonlinearity:
    """Build the power-sum G from (coef, exponent) pairs.

    Exponents merely have to exceed 1 here so the derivative is continuous
    at 0; whether they sit in params' admissible window is reported by
    validate(), not enforced at construction (the checks could not fail
    otherwise).
    """
    clean = []
    for item in terms:
        coef, exponent = float(item[0]), float(item[1])
        if not (math.isfinite(coef) and math.isfinite(exponent)):
            raise ProblemError(f"non-finite term ({coef}, {exponent})")
        if exponent <= 1.0:
            raise ProblemError(
                f"exponent {exponent} <= 1 puts a singularity in the derivative"
            )
        clean.append(PowerTerm(coef, exponent))
    return Nonlinearity(tuple(clean))


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:\s*/\s*\d+(?:\.\d*)?)?"
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>" + _NUM + r")\s*\*)?\s*"
    r"\|t\|\s*\^\s*[{(]?\s*(?P<exp>" + _NUM + r")\s*[})]?\s*"
)


def _parse_number(tok: str) -> float:
    if "/" in tok:
        num, _, den = tok.partition("/")
        if float(den) == 0.0:
            raise ProblemError(f"zero denominator in {tok!r}")
        return float(num) / float(den)
    return float(tok)


def parse_nonlinearity(params: ProblemParams, text: str) -> Nonlinearity:
    """Parse "nu1*|t|^p1 + nu2*|t|^p2" into a Nonlinearity.

    Coefficients and exponents accept decimals, scientific notation, and
    simple fractions like 8/3.  An empty string means G = 0.
    """
    s = text.strip()
    if not s or s == "0":
        return make_nonlinearity(params, [])
    pairs = []
    pos = 0
    first = True
    while pos < len(s):
        mm = _TERM_RE.match(s, pos)
        if mm is None:
            raise ProblemError(f"cannot parse nonlinearity at: {s[pos:]!r}")
        if not first and mm.group("sign") is None:
            raise ProblemError(f"missing +/- between terms near: {s[pos:]!r}")
        coef = _parse_number(mm.group("coef") or "1")
        if mm.group("sign") == "-":
            coef = -coef
        pairs.append((coef, _parse_number(mm.group("exp"))))
        pos = mm.end()
        first = False
    return make_nonlinearity(params, pairs)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    satisfied: bool
    detail: str


def validate(params: ProblemParams, nl: Nonlinearity) -> list[ConditionReport]:
    """Check the three growth conditions for the power family.

    G1: every exponent lies in [p_lower, p_upper].
    G2: the smallest exponent sits strictly below the mass-critical
        threshold for the given b, with a strictly positive coefficient
        (this is what lets the scaled energy dip below its small-dilation
        plateau).
    G3: every exponent exceeds p_lower strictly, so G vanishes faster
        than the lower-critical power at 0.
    """
    if not nl.terms and params.b == 0:
        raise ProblemError("empty G with b = 0 leaves no nonlinearity at all")
    for t in nl.terms:
        if not (math.isfinite(t.coef) and math.isfinite(t.exponent)):
            raise ProblemError(f"non-finite term {t}")

    reports = []
    pl, pu = params.p_lower, params.p_upper

    bad = [t.exponent for t in nl.terms if not (pl <= t.exponent <= pu)]
    reports.append(ConditionReport(
        "G1", not bad,
        "all exponents inside the admissible window" if not bad
        else f"exponent(s) {bad} outside [{pl:.6g}, {pu:.6g}]",
    ))

    crit = params.p_l2crit if params.b == 0 else 1.0 + (4.0 + params.alpha) / params.N
    if nl.terms:
        tmin = min(nl.terms, key=lambda t: t.exponent)
        ok2 = tmin.exponent < crit and tmin.coef > 0.0
        detail = (f"smallest exponent {tmin.exponent:.6g} "
                  f"{'<' if tmin.exponent < crit else '>='} {crit:.6g}, "
                  f"coefficient {tmin.coef:.6g}")
    else:
        ok2 = False
        detail = f"no term available below the b=1 threshold {crit:.6g}"
    reports.append(ConditionReport("G2", ok2, detail))

    at_lower = [t.exponent for t in nl.terms if t.exponent <= pl]
    reports.append(ConditionReport(
        "G3", not at_lower,
        "G decays faster than the lower-critical power at 0" if not at_lower
        else f"exponent(s) {at_lower} do not exceed p_lower = {pl:.6g}",
    ))
    return reports


def eval_F(params: ProblemParams, nl: Nonlinearity, t):
    """Primitive F(t) = b|t|^{p_lower} + sum_i nu_i |t|^{p_i} (even in t)."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)
    for coef, p in _powers(params, nl):
        out += coef * a ** p
    return out if out.ndim else float(out)


def eval_f(params: ProblemParams, nl: Nonlinearity, t):
    """Derivative f = F'; odd in t, and f(0) = 0 since all exponents exceed 1."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    sgn = np.sign(t)
    out = np.zeros_like(a)
    for coef, p in _powers(params, nl):
        out += coef * p * a ** (p - 1.0)
    out *= sgn
    return out if out.ndim else float(out)


def c_zero(params: ProblemParams, nl: Nonlinearity) -> float:
    """Smallest per-term envelope constant: sum of the per-term suprema.

    With theta = (p - p_lower)/(p_upper - p_lower), the substitution
    s = t^{p_upper - p_lower} turns t^p/(t^{p_lower} + t^{p_upper}) into
    s^theta/(1 + s), whose supremum theta^theta (1-theta)^(1-theta) is
    attained at s = theta/(1-theta) (and is 1, approached as t -> inf, at
    theta = 1).  So |G(t)| <= C0*(|t|^{p_lower}+|t|^{p_upper}) everywhere
    with C0 = sum_i |nu_i| theta_i^theta_i (1-theta_i)^(1-theta_i).
    Summing per term is not the tightest joint envelope, but any valid
    constant serves, and this one is monotone in the coefficients.
    """
    pl, pu = params.p_lower, params.p_upper
    total = 0.0
    for term in nl.terms:
        p = term.exponent
        if not (pl < p <= pu):
            raise ProblemError(
                f"exponent {p} outside ({pl:.6g}, {pu:.6g}]: no envelope exists"
            )
        # 1 - theta from its own difference keeps it accurate as theta -> 1
        theta, rest = (p - pl) / (pu - pl), (pu - p) / (pu - pl)
        total += abs(term.coef) * rest ** rest * theta ** theta
    return total
