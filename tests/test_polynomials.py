import random
from fractions import Fraction

import pytest

from ordtop import polynomials as P


def rand_poly(rng, width, terms, deg, cmax):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(width))
        c = Fraction(rng.randint(-cmax, cmax), rng.randint(1, cmax))
        if c:
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def test_dominance_order():
    # lower powers of deeper variables dominate
    assert P.more_dominant((0, 0), (1, 0))
    assert P.more_dominant((5, 0), (0, 1))
    assert P.more_dominant((100, 0), (0, 1))
    assert not P.more_dominant((0, 1), (100, 0))
    f = {(1, 0): Fraction(3), (2, 0): Fraction(-1)}
    assert P.dominant_exp(f) == (1, 0)
    assert P.sign_of(f) == 1


def test_divexact_roundtrip():
    rng = random.Random(0)
    for _ in range(100):
        w = rng.randint(1, 3)
        a = rand_poly(rng, w, 3, 3, 9)
        b = rand_poly(rng, w, 2, 2, 9)
        if not a or not b:
            continue
        prod = P.p_mul(a, b)
        assert P.p_divexact(prod, b) == a or \
            P.p_mul(P.p_divexact(prod, b), b) == prod
    with pytest.raises(ValueError):
        P.p_divexact({(1,): Fraction(1), (0,): Fraction(1)},
                     {(2,): Fraction(1)})


def test_divexact_on_integer_coefficients():
    rng = random.Random(4)
    for _ in range(100):
        w = rng.randint(1, 3)
        a, b = ({tuple(rng.randint(0, deg) for _ in range(w)): rng.randint(-9, 9)
                 for _ in range(terms)} for terms, deg in ((4, 3), (3, 2)))
        a = {e: c for e, c in a.items() if c}
        b = {e: c for e, c in b.items() if c}
        if not a or not b:
            continue
        prod = P.p_mul(a, b)
        assert all(type(c) is int for c in prod.values())
        q = P.p_divexact(prod, b)
        assert q == a and all(type(c) is int for c in q.values())
        # the same division over Q: the quotient is a/2, not an error
        assert P.p_divexact(prod, P.p_scale(b, 2)) == P.p_scale(a, Fraction(1, 2))
        if not P._is_const(b):
            with pytest.raises(ValueError):
                P.p_divexact(P.p_add(prod, {(0,) * w: 1}), b)
    # an inexact step on the coefficients, and one on the monomials
    with pytest.raises(ValueError):
        P.p_divexact({(1,): 3, (0,): 3}, {(1,): 2, (0,): 2})
    with pytest.raises(ValueError):
        P.p_divexact({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1})
    assert P.p_divexact({(2,): 4, (0,): -4}, {(1,): 2, (0,): 2}) == \
        {(1,): 2, (0,): -2}


def test_gcd_divides_and_cofactors_coprime():
    rng = random.Random(3)
    for _ in range(150):
        w = rng.randint(1, 3)
        x = rand_poly(rng, w, 2, 3, 8)
        y = rand_poly(rng, w, 2, 3, 8)
        z = rand_poly(rng, w, 2, 2, 8)
        if not (x and y and z):
            continue
        px, py = P.p_mul(x, z), P.p_mul(y, z)
        g = P.p_gcd(px, py)
        assert all(type(c) is int for c in g.values())
        P.p_divexact(px, g)
        P.p_divexact(py, g)
        assert P._is_const(P.p_gcd(P.p_divexact(px, g), P.p_divexact(py, g)))


def test_heuristic_gcd_matches_subresultant_route():
    # dual route: the fast evaluation gcd against the pseudo-remainder
    # sequence, on shared random inputs
    rng = random.Random(11)
    for _ in range(120):
        w = rng.randint(1, 3)
        x = rand_poly(rng, w, 3, 3, 6)
        y = rand_poly(rng, w, 3, 3, 6)
        z = rand_poly(rng, w, 2, 2, 6)
        if not (x and y and z):
            continue
        px, py = P.p_mul(x, z), P.p_mul(y, z)
        via_heu = P.p_gcd(px, py)
        via_prs = P._gcd_pp(P._int_primitive(px), P._int_primitive(py), w)
        assert via_heu == via_prs


def test_primitive_normalization():
    p = {(1,): 4, (0,): -6}
    pp, cont = P._iprimitive(p)
    assert pp == {(1,): -2, (0,): 3}
    assert cont == -2
    assert P.sign_of(pp) > 0
    assert all(type(c) is int for c in pp.values())
    assert P._iprimitive({}) == ({}, 0)
    pp = P._int_primitive({(1,): Fraction(-4, 6), (0,): Fraction(2, 3)})
    assert pp == {(1,): -1, (0,): 1}
    assert all(type(c) is int for c in pp.values())


def test_widen_shrink():
    p = {(1,): Fraction(2)}
    wide = P.widen(p, 3)
    assert wide == {(1, 0, 0): Fraction(2)}
    assert P.used_width(wide, 3) == 1
    assert P.shrink(wide, 1) == p
    with pytest.raises(ValueError):
        P.widen(wide, 2)
