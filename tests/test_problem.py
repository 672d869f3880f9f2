"""Parameter validation, the power-sum nonlinearity, and growth checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqlab import (
    ProblemError,
    ProblemParams,
    c_zero,
    eval_F,
    eval_f,
    make_nonlinearity,
    parse_nonlinearity,
    validate,
)

from conftest import PRESET_TERMS

P32 = ProblemParams(N=3, alpha=2.0, b=0, rho=0.1)


def test_params_validation():
    with pytest.raises(ProblemError, match="N"):
        ProblemParams(N=2, alpha=1.0, b=0, rho=0.1)
    with pytest.raises(ProblemError, match="integer"):
        ProblemParams(N=3.0, alpha=1.0, b=0, rho=0.1)
    with pytest.raises(ProblemError, match="alpha"):
        ProblemParams(N=3, alpha=0.0, b=0, rho=0.1)
    with pytest.raises(ProblemError, match="alpha"):
        ProblemParams(N=3, alpha=3.0, b=0, rho=0.1)
    with pytest.raises(ProblemError, match="b"):
        ProblemParams(N=3, alpha=2.0, b=2, rho=0.1)
    with pytest.raises(ProblemError, match="rho"):
        ProblemParams(N=3, alpha=2.0, b=0, rho=0.0)
    with pytest.raises(ProblemError, match="rho"):
        ProblemParams(N=3, alpha=2.0, b=0, rho=math.inf)


def test_exponent_landmarks():
    assert P32.p_lower == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert P32.p_upper == pytest.approx(5.0, rel=1e-15)
    assert P32.p_l2crit == pytest.approx(7.0 / 3.0, rel=1e-15)


def test_make_nonlinearity():
    nl = make_nonlinearity(P32, PRESET_TERMS)
    assert len(nl.terms) == 2
    assert nl.terms[0].coef == 70.0
    assert nl.terms[1].exponent == pytest.approx(8.0 / 3.0)

    with pytest.raises(ProblemError, match="<= 1"):
        make_nonlinearity(P32, [(1.0, 1.0)])
    with pytest.raises(ProblemError, match="<= 1"):
        make_nonlinearity(P32, [(1.0, 0.5)])
    with pytest.raises(ProblemError, match="non-finite"):
        make_nonlinearity(P32, [(math.inf, 2.0)])


def test_parse_basic():
    nl = parse_nonlinearity(P32, "70*|t|^2 + |t|^{8/3}")
    assert [(t.coef, t.exponent) for t in nl.terms] == [
        (70.0, 2.0), (1.0, pytest.approx(8.0 / 3.0))]

    nl = parse_nonlinearity(P32, "1e-2*|t|^2.5")
    assert nl.terms[0].coef == pytest.approx(0.01)

    nl = parse_nonlinearity(P32, "|t|^(7/3)")
    assert nl.terms[0].exponent == pytest.approx(7.0 / 3.0)

    nl = parse_nonlinearity(P32, "-2*|t|^2 + 3*|t|^3")
    assert nl.terms[0].coef == -2.0
    assert nl.terms[1].coef == 3.0

    nl = parse_nonlinearity(P32, "-|t|^2")
    assert nl.terms[0].coef == -1.0

    assert parse_nonlinearity(P32, "").terms == ()
    assert parse_nonlinearity(P32, "0").terms == ()
    assert parse_nonlinearity(P32, "  ").terms == ()


def test_parse_errors():
    with pytest.raises(ProblemError, match="missing"):
        parse_nonlinearity(P32, "|t|^2 |t|^3")
    with pytest.raises(ProblemError, match="cannot parse"):
        parse_nonlinearity(P32, "t^2")
    with pytest.raises(ProblemError, match="cannot parse"):
        parse_nonlinearity(P32, "2*|t|^2 + bogus")


def test_parse_matches_construction():
    a = parse_nonlinearity(P32, "70*|t|^2+|t|^{8/3}")
    b = make_nonlinearity(P32, PRESET_TERMS)
    assert a.terms == b.terms


def format_terms(pairs):
    """(coef, exponent) pairs as a --G string, signs written between terms."""
    parts = []
    for i, (coef, exponent) in enumerate(pairs):
        sign = "- " if math.copysign(1.0, coef) < 0.0 else ("+ " if i else "")
        parts.append(f"{sign}{abs(coef)!r}*|t|^{exponent!r}")
    return " ".join(parts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
    min_size=1, max_size=5))
def test_parse_round_trip(pairs):
    nl = parse_nonlinearity(P32, format_terms(pairs))
    got = [(t.coef, t.exponent) for t in nl.terms]
    assert got == pairs
    assert [math.copysign(1.0, c) for c, _ in got] == [
        math.copysign(1.0, c) for c, _ in pairs]


def test_parse_zero_denominator():
    with pytest.raises(ProblemError, match="zero denominator in '8/0'"):
        parse_nonlinearity(P32, "|t|^{8/0}")
    with pytest.raises(ProblemError, match="zero denominator"):
        parse_nonlinearity(P32, "1/0.0*|t|^2")


def test_validate_reference_family():
    nl = make_nonlinearity(P32, PRESET_TERMS)
    reports = validate(P32, nl)
    assert [r.name for r in reports] == ["G1", "G2", "G3"]
    assert all(r.satisfied for r in reports)

    pb1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.1)
    assert all(r.satisfied for r in validate(pb1, make_nonlinearity(pb1, PRESET_TERMS)))


def test_validate_failures():
    # exponent above the gradient-critical end
    r = validate(P32, make_nonlinearity(P32, [(1.0, 6.0)]))
    assert not r[0].satisfied
    assert "6" in r[0].detail

    # smallest exponent above the boundedness threshold
    r = validate(P32, make_nonlinearity(P32, [(1.0, 3.0)]))
    assert r[0].satisfied
    assert not r[1].satisfied

    # negative weight on the smallest exponent
    r = validate(P32, make_nonlinearity(P32, [(-1.0, 2.0), (1.0, 8.0 / 3.0)]))
    assert not r[1].satisfied

    # exponent sitting exactly at the lower-critical end
    r = validate(P32, make_nonlinearity(P32, [(1.0, 5.0 / 3.0), (1.0, 2.0)]))
    assert not r[2].satisfied

    with pytest.raises(ProblemError, match="empty G"):
        validate(P32, make_nonlinearity(P32, []))

    # with the lower-critical term switched on an empty G is allowed, but
    # the dip condition has no term to certify it
    pb1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.1)
    r = validate(pb1, make_nonlinearity(pb1, []))
    assert r[0].satisfied and r[2].satisfied
    assert not r[1].satisfied


def test_eval_parity_and_values():
    nl = make_nonlinearity(P32, PRESET_TERMS)
    ts = np.linspace(-3.0, 3.0, 41)
    F = eval_F(P32, nl, ts)
    f = eval_f(P32, nl, ts)
    np.testing.assert_allclose(F, F[::-1], rtol=1e-14)
    np.testing.assert_allclose(f, -f[::-1], rtol=1e-14, atol=1e-300)
    assert f[20] == 0.0  # odd derivative vanishes at t = 0

    assert eval_F(P32, nl, 1.0) == pytest.approx(71.0)
    assert isinstance(eval_F(P32, nl, 1.0), float)

    pb1 = ProblemParams(N=3, alpha=2.0, b=1, rho=0.1)
    nl_empty = make_nonlinearity(pb1, [])
    assert eval_F(pb1, nl_empty, 1.0) == pytest.approx(1.0)
    assert eval_F(pb1, nl_empty, 2.0) == pytest.approx(2.0 ** (5.0 / 3.0))


@pytest.mark.parametrize("b", [0, 1])
def test_eval_matches_explicit_b_term(b):
    """F and f are the b-term written out plus G's terms, bit for bit."""
    params = ProblemParams(N=3, alpha=2.0, b=b, rho=0.1)
    nl = make_nonlinearity(params, PRESET_TERMS)
    t = np.linspace(-3.0, 3.0, 41)
    a, pl = np.abs(t), params.p_lower
    F = np.zeros_like(a)
    f = np.zeros_like(a)
    if b:
        F += a ** pl
        f += pl * a ** (pl - 1.0)
    for term in nl.terms:
        F += term.coef * a ** term.exponent
        f += term.coef * term.exponent * a ** (term.exponent - 1.0)
    assert np.array_equal(eval_F(params, nl, t), F)
    assert np.array_equal(eval_f(params, nl, t), np.sign(t) * f)


def test_eval_f_is_derivative():
    nl = make_nonlinearity(P32, PRESET_TERMS)
    h = 1e-6
    for t in (0.3, 1.0, -1.7, 2.5):
        fd = (eval_F(P32, nl, t + h) - eval_F(P32, nl, t - h)) / (2.0 * h)
        assert eval_f(P32, nl, t) == pytest.approx(fd, rel=1e-6)


def test_c_zero_envelope():
    """The envelope constant is the supremum of G(t)/(t^p_lower + t^p_upper):
    a dense log grid never exceeds it, and a bounded search around the grid
    argmax recovers it."""
    from scipy.optimize import minimize_scalar

    nl = make_nonlinearity(P32, [(1.0, 7.0 / 3.0)])
    c0 = c_zero(P32, nl)
    ts = np.logspace(-8, 8, 4001)
    ratio = ts ** (7.0 / 3.0) / (ts ** (5.0 / 3.0) + ts ** 5.0)
    assert ratio.max() <= c0 * (1.0 + 1e-12)

    j = int(np.argmax(ratio))
    res = minimize_scalar(
        lambda lt: -(
            math.exp(lt * 7.0 / 3.0)
            / (math.exp(lt * 5.0 / 3.0) + math.exp(lt * 5.0))
        ),
        bounds=(math.log(ts[j - 1]), math.log(ts[j + 1])),
        method="bounded",
        options={"xatol": 1e-13},
    )
    assert -res.fun == pytest.approx(c0, rel=1e-9)


def test_c_zero_upper_edge_and_additivity():
    # at the upper endpoint the ratio saturates to 1 from below
    nl_edge = make_nonlinearity(P32, [(1.0, 5.0)])
    assert c_zero(P32, nl_edge) == pytest.approx(1.0, rel=1e-6)

    nl_a = make_nonlinearity(P32, [(70.0, 2.0)])
    nl_b = make_nonlinearity(P32, [(1.0, 8.0 / 3.0)])
    nl_ab = make_nonlinearity(P32, PRESET_TERMS)
    assert c_zero(P32, nl_ab) == pytest.approx(
        c_zero(P32, nl_a) + c_zero(P32, nl_b), rel=1e-12)


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("edge", ["lower", "upper"])
def test_c_zero_sharp_at_window_edges(N, edge):
    """Next to either end of the window the maximizer t* of
    t^p/(t^p_lower + t^p_upper) lies far out on the log-t axis; C0 still
    reaches the ratio there (to rounding)."""
    params = ProblemParams(N=N, alpha=0.5, b=0, rho=0.1)
    pl, pu = params.p_lower, params.p_upper
    p = pl + 1e-12 if edge == "lower" else pu - 1e-12
    theta = (p - pl) / (pu - pl)
    t_star = (theta / (1.0 - theta)) ** (1.0 / (pu - pl))
    ratio = t_star ** p / (t_star ** pl + t_star ** pu)
    c0 = c_zero(params, make_nonlinearity(params, [(1.0, p)]))
    assert c0 >= (1.0 - 1e-15) * ratio
    assert c0 <= 1.0


def test_c_zero_domain():
    with pytest.raises(ProblemError, match="envelope"):
        c_zero(P32, make_nonlinearity(P32, [(1.0, 5.0 / 3.0)]))
    with pytest.raises(ProblemError, match="envelope"):
        c_zero(P32, make_nonlinearity(P32, [(1.0, 5.5)]))
