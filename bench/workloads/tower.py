"""tower: the tower field Q(a0)(a1)(a2) and linear algebra over it.

Field operations run on random elements shaped like the field suite's
(height 1-3, numerator and denominator of up to three terms, degree
<= 4, coefficients p/q with |p|, q <= 100).  Matrix operations run on
GL2 and GL3 matrices over Q(a0)(a1) whose entries are quotients of
polynomials of degree <= 2 over degree <= 1 with small coefficients,
one in eight of them singular; the pools have a fixed make-up by size
(terms in all entries), so that seeds differ in details, not in cost.
The GL4 inverse class is a fixed matrix, the same for every seed, on
which `mat_inv` fails today.
"""

import random
from fractions import Fraction

import oracles as O
from harness import OpClass, expect, stratified

from ordtop import exact_field as xf
from ordtop import matrix_group as mg

TAIL_PERCENTILE = 98.0
GL4_FAULT_SEED = 1  # seeds the fixed GL4 matrix; never the run's seed

RADII_TEXT = ("1", "1/2", "2/3", "a0", "a0/3", "a0^2", "3")


def _poly(rng, height, max_degree, coeff, terms=3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * height
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(height)] += 1
        c = Fraction(rng.randint(-coeff, coeff), rng.randint(1, coeff))
        key = tuple(exps)
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def _element(rng, height, num_degree, den_degree, coeff):
    num = _poly(rng, height, num_degree, coeff)
    den = _poly(rng, height, den_degree, coeff)
    while not den:
        den = _poly(rng, height, den_degree, coeff)
    if not num:
        return xf.FieldElement.from_rational(0)
    return xf.FieldElement(num, den, height)


def _field_element(rng):
    return _element(rng, rng.randint(1, 3), 4, 4, 100)


def _matrix(rng, n, num_degree=2, den_degree=1, coeff=9, singular=False):
    rows = [[_element(rng, 2, num_degree, den_degree, coeff) for _ in range(n)]
            for _ in range(n)]
    if singular:
        # last row = c * first row + second row
        c = _element(rng, 2, 1, 0, coeff)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
    return mg.Matrix(rows)


def _size(m):
    """Terms in all numerators and denominators: what mat_mul, det and
    mat_inv cost grows with."""
    return sum(len(e.num) + len(e.den) for row in m.rows for e in row)


# Make-up of the matrix pools by size: equal shares between the quintile
# limits (quartiles for product pairs, medians for singular matrices) of
# random draws.
SIZE_STRATA = {
    2: ((11, 17), (12, 17), (13, 17), (14, 17), (None, 16)),
    3: ((26, 17), (28, 17), (29, 17), (31, 17), (None, 16)),
}
SINGULAR_STRATA = {2: ((19, 6), (None, 6)), 3: ((37, 6), (None, 6))}
PRODUCT_STRATA = {
    2: ((23, 8), (25, 8), (27, 8), (None, 8)),
    3: ((54, 8), (57, 8), (59, 8), (None, 8)),
}


def _matrix_pool(rng, n):
    """84 regular and 12 singular n x n matrices, one singular in eight."""
    regular = stratified(rng, lambda r: _matrix(r, n), _size, SIZE_STRATA[n])
    singular = stratified(rng, lambda r: _matrix(r, n, singular=True), _size,
                          SINGULAR_STRATA[n])
    return [singular.pop() if i % 8 == 7 else regular.pop() for i in range(96)]


def _ball_matrix(rng, n, delta):
    one = xf.FieldElement.from_rational(1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = delta * xf.FieldElement.from_rational(
                Fraction(rng.randint(-3, 3), 4))
            row.append(one + cell if i == j else cell)
        rows.append(row)
    return mg.Matrix(rows)


def _points(rng, count=2):
    return [tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                  for _ in range(3)) for _ in range(count)]


# --- operations and their checks ------------------------------------------------

def _check_add(inp, out):
    a, b = inp
    # out * (ad * bd) == an * bd + bn * ad, with the benchmark's own products
    lhs = O.poly_mul(out.num, O.poly_mul(a.den, b.den))
    rhs = O.poly_mul(O.poly_add(O.poly_mul(a.num, b.den), O.poly_mul(b.num, a.den)),
                     out.den)
    expect(O.poly_equal(lhs, rhs), "a + b disagrees with cross-multiplication")
    expect(out - b == a, "(a + b) - b != a")


def _check_mul(inp, out):
    a, b = inp
    lhs = O.poly_mul(out.num, O.poly_mul(a.den, b.den))
    rhs = O.poly_mul(O.poly_mul(a.num, b.num), out.den)
    expect(O.poly_equal(lhs, rhs), "a * b disagrees with cross-multiplication")
    expect(out == b * a, "a * b != b * a")


def _check_invert(a, out):
    expect(a * out == xf.FieldElement.from_rational(1), "a * a^-1 != 1")
    expect(O.poly_equal(O.poly_mul(out.num, a.num), O.poly_mul(out.den, a.den)),
           "a^-1 disagrees with cross-multiplication")


def _check_compare(inp, out):
    expect(out == O.compare_oracle(*inp), "compare disagrees with the substitution oracle")


def _check_leading(a, out):
    exps, coeff = O.leading_term_oracle(a)
    expect(out == (exps, coeff), "leading term disagrees with the substitution oracle")


def _check_roundtrip(a, out):
    expect(out == a, "parse(format(a)) != a")


def _inv_or_singular(m):
    try:
        return mg.mat_inv(m)
    except mg.SingularMatrixError:
        return None


def _values(m, points):
    for p in points:
        v = O.matrix_eval(m, p)
        if v is not None:
            yield p, v


def _check_inverse(inp, out):
    m, points = inp
    checked = 0
    for p, a in _values(m, points):
        if out is None:
            expect(O.leibniz_det(a) == 0, "mat_inv raised SingularMatrixError on a regular matrix")
        else:
            b = O.matrix_eval(out, p)
            expect(b is not None and O.is_identity(O.rat_matmul(a, b)), "A * A^-1 != I")
        checked += 1
    expect(checked, "no evaluation point avoids the poles")


def _check_det(inp, out):
    m, points = inp
    checked = 0
    for p, a in _values(m, points):
        expect(O.elem_eval(out, p) == O.leibniz_det(a), "det disagrees with the Leibniz expansion")
        checked += 1
    expect(checked, "no evaluation point avoids the poles")


def _check_matmul(inp, out):
    a, b, points = inp
    checked = 0
    for p, av in _values(a, points):
        bv = O.matrix_eval(b, p)
        cv = O.matrix_eval(out, p)
        if bv is None:
            continue
        expect(cv == O.rat_matmul(av, bv), "mat_mul disagrees with the evaluated product")
        checked += 1
    expect(checked, "no evaluation point avoids the poles")


def _shrink_ball(inp):
    eps, n, a, b, clamped = inp
    delta = mg.shrink_radius(eps, n)
    return (delta, mg.ball_member(a, delta), mg.ball_member(b, delta),
            mg.ball_member(mg.mat_mul(a, b), clamped))


def _check_shrink_ball(inp, out):
    eps, n, a, b, clamped = inp
    delta, in_a, in_b, in_product = out
    # delta * (n + 2) == min(eps, 1)
    expect(O.poly_equal(O.poly_mul({(): Fraction(n + 2)}, O.poly_mul(delta.num, clamped.den)),
                        O.poly_mul(clamped.num, delta.den)),
           "shrink_radius != min(eps, 1) / (n + 2)")
    expect(in_a and in_b, "a sample built inside B_delta is reported outside it")
    expect(in_product, "B_delta * B_delta escapes B_eps")


def build(rng):
    elements = [_field_element(rng) for _ in range(1000)]

    def pairs(count):
        return [(elements[rng.randrange(1000)], elements[rng.randrange(1000)])
                for _ in range(count)]

    singles = [elements[rng.randrange(1000)] for _ in range(7000)]
    nonzero = [a for a in singles if not a.is_zero()]
    points = _points(rng)

    gl2 = [(m, points) for m in _matrix_pool(rng, 2)]
    gl3 = [(m, points) for m in _matrix_pool(rng, 3)]
    products = [(a, b, points) for n in (2, 3) for a, b in stratified(
        rng, lambda r: (_matrix(r, n), _matrix(r, n)),
        lambda ab: _size(ab[0]) + _size(ab[1]), PRODUCT_STRATA[n])]
    radii = [xf.parse_element(t) for t in RADII_TEXT]
    one = xf.FieldElement.from_rational(1)
    balls = []
    for i in range(96):
        n = 2 + i % 2
        eps = radii[rng.randrange(len(radii))]
        clamped = one if xf.compare(eps, one) == xf.GT else eps
        delta = clamped / (n + 2)
        balls.append((eps, n, _ball_matrix(rng, n, delta), _ball_matrix(rng, n, delta),
                      clamped))
    fixed = random.Random(GL4_FAULT_SEED)
    gl4 = [(_matrix(fixed, 4, num_degree=2, den_degree=2), points)]

    return [
        OpClass("field_add", lambda ab: ab[0] + ab[1], _check_add, pairs(2000), 80),
        OpClass("field_mul", lambda ab: ab[0] * ab[1], _check_mul, pairs(2000), 80),
        OpClass("field_invert", lambda a: a.invert(), _check_invert, nonzero, 120),
        OpClass("field_compare", lambda ab: xf.compare(*ab), _check_compare, pairs(6000), 240),
        OpClass("field_leading_term", lambda a: a.leading_term(), _check_leading, nonzero, 280),
        OpClass("field_format_parse",
                lambda a: xf.parse_element(xf.format_element(a)), _check_roundtrip, singles, 80),
        OpClass("gl2_inv", lambda mp: _inv_or_singular(mp[0]), _check_inverse, gl2, 8),
        OpClass("gl2_det", lambda mp: mg.det(mp[0]), _check_det, gl2, 8),
        OpClass("gl3_inv", lambda mp: _inv_or_singular(mp[0]), _check_inverse, gl3, 4),
        OpClass("gl3_det", lambda mp: mg.det(mp[0]), _check_det, gl3, 4),
        OpClass("mat_mul", lambda abp: mg.mat_mul(abp[0], abp[1]), _check_matmul, products, 8),
        OpClass("shrink_ball", _shrink_ball, _check_shrink_ball, balls, 8),
        OpClass("gl4_inv", lambda mp: mg.mat_inv(mp[0]), _check_inverse, gl4, 1,
                known_fault=xf.TowerLimitError),
    ]
