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


@dataclass
class Nonlinearity:
    """G(t) = sum of coef*|t|^exponent terms, plus cached derived data."""

    terms: tuple[PowerTerm, ...]
    p_lower: float
    p_upper: float
    p_l2crit: float
    _c0: float | None = None


def make_nonlinearity(params: ProblemParams, terms) -> Nonlinearity:
    """Build the power-sum G from (coef, exponent) pairs.

    Exponents merely have to exceed 1 here so the derivative is continuous
    at 0; whether they sit in the admissible window is reported by
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
    return Nonlinearity(
        terms=tuple(clean),
        p_lower=params.p_lower,
        p_upper=params.p_upper,
        p_l2crit=params.p_l2crit,
    )


def l2critical_pair(params: ProblemParams, spread: float,
                    coef_low: float = 1.0, coef_high: float = 1.0) -> Nonlinearity:
    """Two-power G with exponents p* -/+ spread, symmetric about p_l2crit.

    The symmetric placement makes the combined dilation exponent of the
    cross pair exactly 2, the same power as the kinetic term.
    """
    if spread <= 0.0:
        raise ProblemError("spread must be positive")
    p = params.p_l2crit - spread
    q = params.p_l2crit + spread
    if not (params.p_lower < p and q <= params.p_upper):
        raise ProblemError(
            f"pair ({p}, {q}) leaves the admissible window "
            f"({params.p_lower}, {params.p_upper}]"
        )
    if coef_low <= 0.0 or coef_high <= 0.0:
        raise ProblemError("pair coefficients must be positive")
    return make_nonlinearity(params, [(coef_low, p), (coef_high, q)])


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

    bad = [t.exponent for t in nl.terms
           if not (nl.p_lower <= t.exponent <= nl.p_upper)]
    reports.append(ConditionReport(
        "G1", not bad,
        "all exponents inside the admissible window" if not bad
        else f"exponent(s) {bad} outside [{nl.p_lower:.6g}, {nl.p_upper:.6g}]",
    ))

    crit = nl.p_l2crit if params.b == 0 else 1.0 + (4.0 + params.alpha) / params.N
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

    at_lower = [t.exponent for t in nl.terms if t.exponent <= nl.p_lower]
    reports.append(ConditionReport(
        "G3", not at_lower,
        "G decays faster than the lower-critical power at 0" if not at_lower
        else f"exponent(s) {at_lower} do not exceed p_lower = {nl.p_lower:.6g}",
    ))
    return reports


def eval_F(params: ProblemParams, nl: Nonlinearity, t):
    """Primitive F(t) = b|t|^{p_lower} + sum_i nu_i |t|^{p_i} (even in t)."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)
    if params.b:
        out += a ** params.p_lower
    for term in nl.terms:
        out += term.coef * a ** term.exponent
    return out if out.ndim else float(out)


def eval_f(params: ProblemParams, nl: Nonlinearity, t):
    """Derivative f = F'; odd in t, and f(0) = 0 since all exponents exceed 1."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    sgn = np.sign(t)
    out = np.zeros_like(a)
    if params.b:
        out += params.p_lower * a ** (params.p_lower - 1.0)
    for term in nl.terms:
        out += term.coef * term.exponent * a ** (term.exponent - 1.0)
    out *= sgn
    return out if out.ndim else float(out)


def _golden_max_log(objective, lo: float, hi: float, rtol: float = 1e-10) -> float:
    """Golden-section maximum of objective(s) for s in [lo, hi] (log-t axis)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > rtol * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    best = max(((fc, c), (fd, d)))
    return max(best[0], objective(a), objective(b))


def c_zero(params: ProblemParams, nl: Nonlinearity) -> float:
    """Smallest per-term envelope constant: sum of the per-term suprema.

    Each term contributes |nu_i| * sup_t t^{p_i}/(t^{p_lower}+t^{p_upper}),
    so the result satisfies |G(t)| <= C0*(|t|^{p_lower}+|t|^{p_upper})
    everywhere.  Summing per term is not the tightest joint envelope, but
    any valid constant serves, and this one is monotone in the
    coefficients.  Cached on the Nonlinearity after the first call.
    """
    if nl._c0 is not None:
        return nl._c0
    pl, pu = nl.p_lower, nl.p_upper
    lo, hi = math.log(1e-8), math.log(1e8)
    total = 0.0
    for term in nl.terms:
        p = term.exponent
        if not (pl < p <= pu):
            raise ProblemError(
                f"exponent {p} outside ({pl:.6g}, {pu:.6g}]: no envelope exists"
            )

        def ratio(s, p=p):
            # t^p/(t^pl + t^pu) written to stay finite over the whole bracket
            return 1.0 / (math.exp((pl - p) * s) + math.exp((pu - p) * s))

        total += abs(term.coef) * _golden_max_log(ratio, lo, hi)
    nl._c0 = total
    return total
