from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ordtop import polynomials
from ordtop.exact_field import (
    EQ,
    GT,
    LT,
    FieldElement,
    TowerLimitError,
    arithmetic,
    compare,
    format_element,
    parse_element,
    set_limits,
    sign,
)


@pytest.fixture(autouse=True)
def _wide_degree_cap():
    set_limits(max_height=8, max_degree=512)
    yield
    set_limits(max_height=8, max_degree=32)


A0 = FieldElement.var(0)
A1 = FieldElement.var(1)
ONE = FieldElement.from_rational(1)
ZERO = FieldElement.from_rational(0)


# --- independent comparison oracle -------------------------------------
#
# Substitute a_j -> t^(M^(j+1)) with M larger than every exponent in
# sight; the tower order then matches the ordering of the lowest
# t-weight.  This never touches the dominance-order code path.

def _weights(poly_terms, m):
    out = {}
    for exps, coeff in poly_terms:
        w = sum(e * m ** (j + 1) for j, e in enumerate(exps))
        out[w] = out.get(w, Fraction(0)) + coeff
    return {w: c for w, c in out.items() if c}


def oracle_sign(elem: FieldElement, margin: int = 1) -> int:
    if not elem.num:
        return 0
    max_exp = max(
        (max(e, default=0) for e in list(elem.num) + list(elem.den)), default=0)
    m = max_exp + 1 + margin
    sgn = 1
    for poly in (elem.num, elem.den):
        w = _weights(poly.items(), m)
        lowest = min(w)
        sgn *= 1 if w[lowest] > 0 else -1
    return sgn


def oracle_compare(a: FieldElement, b: FieldElement) -> str:
    s = oracle_sign(a - b)
    return EQ if s == 0 else (LT if s < 0 else GT)


# --- worked examples -----------------------------------------------------

def test_additive_inverse():
    assert (A0 + (-A0)).is_zero()


def test_difference_of_squares():
    assert (ONE + A0) * (ONE - A0) == ONE - A0 * A0


def test_div_canonical_roundtrip():
    r = ONE / (ONE + A1)
    assert r * (ONE + A1) == ONE
    # denominator kept with positive dominant coefficient
    assert format_element(r) == "(1)/(1 + a1)"


def test_sign_of_lowest_degree_coefficient():
    e = FieldElement.from_rational(3) * A0 - A0 ** 2
    assert sign(e) == 1
    assert compare(e, ZERO) == GT


def test_alpha_below_every_positive_rational():
    assert compare(A0, FieldElement.from_rational(Fraction(1, 1000))) == LT
    assert compare(A0, FieldElement.from_rational(Fraction(1, 10 ** 9))) == LT


def test_deeper_variable_below_any_power_of_earlier():
    # Oracle-certified: substitute with M = 101; M^2 > 100*M.
    assert oracle_compare(A1, A0 ** 100) == LT
    assert compare(A1, A0 ** 100) == LT


def test_invert_one():
    assert ONE.invert() == ONE


def test_invert_alpha_is_infinite():
    inv = A0.invert()
    for n in (1, 2, 10, 997, 1000):
        assert compare(inv, FieldElement.from_rational(n)) == GT


def test_invert_quotient():
    e = (ONE + A0) / (ONE - A0)
    assert e.invert() == (ONE - A0) / (ONE + A0)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_leading_term_examples():
    e = FieldElement.from_rational(3) * A0 - A0 ** 2
    assert e.leading_term() == ((1,), Fraction(3))
    assert not (ONE + A0).is_infinitesimal()
    assert (A1 / A0).is_infinitesimal()
    assert not (A0 / A1).is_infinitesimal()
    with pytest.raises(ValueError):
        ZERO.leading_term()


def test_arithmetic_dispatch():
    assert arithmetic("add", A0, A0) == FieldElement.from_rational(2) * A0
    assert arithmetic("div", ONE, ONE + A0) == ONE / (ONE + A0)
    with pytest.raises(ValueError):
        arithmetic("pow", ONE, ONE)


def test_mixed_heights_coerce():
    e = A0 + A1
    assert e.height == 2
    assert (e - A1) == A0
    assert (e - A1).height == 1


def test_non_archimedean_samples():
    for n in (1, 10, 100, 10_000):
        assert compare(FieldElement.from_rational(n) * A0, ONE) == LT


def test_limits_enforced():
    set_limits(max_degree=16)
    with pytest.raises(TowerLimitError):
        A0 ** 17
    with pytest.raises(TowerLimitError):
        FieldElement.var(8)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_element("b0 + 1")
    with pytest.raises(ValueError):
        parse_element("a0 +")
    with pytest.raises(ValueError):
        parse_element("a0 ^ a1")


def test_format_parses_back():
    texts = ["0", "3/4", "a0", "-a0 + a1^3", "(1 + a0)/(1 - a0)",
             "(a0^2*a1 - 2/3)/(a1 + 1)", "1/(1+a1)", "2*a0*a1"]
    for text in texts:
        e = parse_element(text)
        assert parse_element(format_element(e)) == e


# --- randomized properties ----------------------------------------------

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 10))


@st.composite
def field_elements(draw, height=2, degree=3, terms=3):
    h = draw(st.integers(1, height))

    def poly(allow_zero):
        n = draw(st.integers(0 if allow_zero else 1, terms))
        p = {}
        for _ in range(n):
            e = tuple(draw(st.integers(0, degree)) for _ in range(h))
            c = draw(rationals)
            if c:
                p[e] = p.get(e, Fraction(0)) + c
        return {e: c for e, c in p.items() if c}

    num = poly(True)
    den = poly(False)
    while not den:
        den = poly(False)
    if not num:
        return FieldElement.from_rational(0)
    return FieldElement(num, den, h)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(field_elements(), field_elements(), field_elements())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.invert() == ONE


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(field_elements(), field_elements(), field_elements())
def test_order_compatibility(a, b, c):
    if compare(a, b) == LT:
        assert compare(a + c, b + c) == LT
        if sign(c) > 0:
            assert compare(a * c, b * c) == LT


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(field_elements(), field_elements())
def test_compare_matches_substitution_oracle(a, b):
    assert compare(a, b) == oracle_compare(a, b)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(field_elements())
def test_each_variable_infinitesimal_over_lower_tower(x):
    # For positive x of height j, a_j sits strictly below it.
    j = x.height
    if j < 8 and sign(x) > 0:
        aj = FieldElement.var(j)
        assert compare(aj, x) == LT


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(field_elements(height=8))
def test_format_parse_round_trip(x):
    assert parse_element(format_element(x)) == x


# --- dominant-term compare and gcd-free negation and inversion -----------

def _ref_sign_of_cross(a: FieldElement, b: FieldElement) -> int:
    """Sign of an * bd - bn * ad, from the full products: the coefficient
    on the monomial whose reversed exponent tuple is smallest."""
    h = max(a.height, b.height)

    def wide(p):
        return {e + (0,) * (h - len(e)): c for e, c in p.items()}

    def mul(p, q):
        out = {}
        for e, c in wide(p).items():
            for f, d in wide(q).items():
                g = tuple(x + y for x, y in zip(e, f))
                out[g] = out.get(g, 0) + c * d
        return out

    diff = mul(a.num, b.den)
    for e, c in mul(b.num, a.den).items():
        diff[e] = diff.get(e, 0) - c
    diff = {e: c for e, c in diff.items() if c}
    if not diff:
        return 0
    return 1 if diff[min(diff, key=lambda e: e[::-1])] > 0 else -1


@st.composite
def compare_pairs(draw):
    a = draw(field_elements(height=3))
    how = draw(st.sampled_from(["free", "equal", "tie"]))
    if how == "equal":
        return a, FieldElement(dict(a.num), dict(a.den), a.height)
    if how == "free":
        return a, draw(field_elements(height=3))
    # b = a + t with t = a * q * a_j^k far below a's dominant term, so the
    # two cross products share their dominant term
    q = draw(rationals.filter(bool))
    t = a * (q * FieldElement.var(draw(st.integers(0, 2))) ** draw(st.integers(1, 3)))
    return a, a + t


def _same(x: FieldElement, y: FieldElement) -> bool:
    return (x.num, x.den, x.height) == (y.num, y.den, y.height) and all(
        type(c) is Fraction for c in (*x.num.values(), *x.den.values()))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(compare_pairs())
# the dominant term of the taller element sits on its innermost variable
@example((2 * FieldElement.var(2), ONE))
@example((A0, 3 * A1))
def test_compare_negate_invert_match_full_forms(ab):
    a, b = ab
    s = _ref_sign_of_cross(a, b)
    assert compare(a, b) == (EQ if s == 0 else (LT if s < 0 else GT))
    assert compare(b, a) == (EQ if s == 0 else (GT if s < 0 else LT))
    neg = {e: -v for e, v in a.num.items()}
    assert _same(-a, FieldElement(neg, a.den, a.height))
    if not a.is_zero():
        assert _same(a.invert(), FieldElement(a.den, a.num, a.height))
    neg_b = {e: -v for e, v in b.num.items()}
    assert _same(a - b, a + FieldElement(neg_b, b.den, b.height))


def test_dominant_terms_decide_without_products_or_gcds(monkeypatch):
    calls = {"p_mul": 0, "p_gcd": 0}

    def counting(name):
        real = getattr(polynomials, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    a = parse_element("(3*a0 - a1^2 + 5)/(2*a0*a1 + 7)")  # about 5/7
    b = parse_element("(3*a0 + a2)/(a0 - 4)")  # about -3*a0/4
    for name in calls:
        monkeypatch.setattr(polynomials, name, counting(name))
    assert (compare(a, b), compare(b, a)) == (GT, LT)
    assert (compare(a, ZERO), compare(ZERO, b), compare(a, a)) == (GT, GT, EQ)
    assert calls["p_mul"] == 0
    inverted, negated = a.invert(), -b
    assert calls["p_gcd"] == 0
    monkeypatch.undo()
    assert inverted * a == ONE and negated + b == ZERO
