import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ordtop.exact_field import FieldElement, compare, LT
from ordtop.matrix_group import (
    Matrix,
    SingularMatrixError,
    ball_member,
    det,
    mat_inv,
    mat_mul,
    matrix_from_data,
    matrix_to_data,
    shrink_radius,
)

A0 = FieldElement.var(0)
ONE = FieldElement.from_rational(1)
ZERO = FieldElement.from_rational(0)


# --- adjugate oracle: an independent inverse for small matrices ---------

def _minor(rows, i, j):
    return [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = FieldElement.from_rational(0)
    for j in range(n):
        term = rows[0][j] * _det_cofactor(_minor(rows, 0, j))
        total = total + term if j % 2 == 0 else total - term
    return total


def oracle_inverse(m: Matrix) -> Matrix:
    rows = [list(r) for r in m.rows]
    d = _det_cofactor(rows)
    if d.is_zero():
        raise SingularMatrixError("oracle: singular")
    n = m.n
    adj = [[_det_cofactor(_minor(rows, j, i)) * ((-1) ** (i + j)) / d
            for j in range(n)] for i in range(n)]
    return Matrix(adj)


def rand_element(rng, height=1):
    num = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 2) for _ in range(height))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if c:
            num[e] = c
    if not num:
        return FieldElement.from_rational(0)
    return FieldElement(num, {(0,) * height: Fraction(1)}, height)


def rand_invertible(rng, n):
    while True:
        m = Matrix([[rand_element(rng) for _ in range(n)] for _ in range(n)])
        if not det(m).is_zero():
            return m


def test_identity_inverse():
    i3 = Matrix.identity(3)
    assert mat_inv(i3) == i3


def test_unipotent_inverse():
    m = Matrix([[ONE, A0], [ZERO, ONE]])
    expected = Matrix([[ONE, -A0], [ZERO, ONE]])
    assert mat_inv(m) == expected
    assert mat_mul(m, expected) == Matrix.identity(2)


def test_random_inverses_match_oracle():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(8):
            m = rand_invertible(rng, n)
            inv = mat_inv(m)
            assert mat_mul(m, inv) == Matrix.identity(n)
            assert mat_mul(inv, m) == Matrix.identity(n)
            assert inv == oracle_inverse(m)


def test_singular_raises():
    rng = random.Random(17)
    singular = [Matrix([[ONE, ONE], [ONE, ONE]])]
    for n in (3, 4):
        rows = [[rand_element(rng, 2) for _ in range(n)] for _ in range(n)]
        c = rand_element(rng, 2)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
        singular.append(Matrix(rows))
    singular.append(Matrix([[ZERO, A0, ONE], [ZERO, ONE, A0], [ZERO, A0, A0]]))
    for m in singular:
        with pytest.raises(SingularMatrixError):
            mat_inv(m)
        assert det(m) == ZERO


# --- a rational oracle: evaluation at points and Gauss-Jordan ------------

def _eval_poly(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def _eval_matrix(m, point):
    return [[_eval_poly(x.num, point) / _eval_poly(x.den, point) for x in row]
            for row in m.rows]


def _gauss_jordan_inverse(rows):
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for k in range(n):
        p = next(r for r in range(k, n) if aug[r][k])
        aug[k], aug[p] = aug[p], aug[k]
        piv = aug[k][k]
        aug[k] = [v / piv for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return [r[n:] for r in aug]


def _rand_quotient(rng):
    """num/den over Q(a0)(a1), both of degree <= 2 with up to 3 terms."""
    def poly():
        p = {}
        for _ in range(rng.randint(1, 3)):
            e = [0, 0]
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(2)] += 1
            p[tuple(e)] = p.get(tuple(e), 0) + \
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return {e: c for e, c in p.items() if c}
    num, den = poly(), poly()
    while not den:
        den = poly()
    return FieldElement(num, den, 2) if num else ZERO


@pytest.mark.parametrize("seed", [1, 4])
def test_gl4_inverse_degree_two_over_degree_two(seed):
    # Intermediate field entries of a back substitution over the field
    # passed the degree cap on such matrices; the inverse itself fits.
    rng = random.Random(seed)
    m = Matrix([[_rand_quotient(rng) for _ in range(4)] for _ in range(4)])
    inv = mat_inv(m)
    points = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), Fraction(3, 11)),
              (Fraction(-7, 5), Fraction(13, 4))]
    for point in points:
        want = _gauss_jordan_inverse(_eval_matrix(m, point))
        assert _eval_matrix(inv, point) == want


_DET_OF_INVERSE = """
import random
from test_matrix_group import Matrix, _rand_quotient, det, mat_inv
rng = random.Random({seed})
m = Matrix([[_rand_quotient(rng) for _ in range({n})] for _ in range({n})])
assert det(mat_inv(m)) * det(m) == 1
"""


@pytest.mark.parametrize("n, seed, timeout", [(3, 1, 3), (4, 4, 20)])
def test_det_of_inverse_is_bounded(n, seed, timeout):
    # The entries of an inverse share one denominator; clearing a row by
    # the product of its denominators raised it to the n-th power: on a
    # 2-core host (Python 3.11) these took 7.9 s and over 60 s, and take
    # 0.04 s and 1.6 s with the lcm.  A subprocess bounds the wait, and
    # each timeout leaves room for a slower host.
    here = Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    subprocess.run([sys.executable, "-c", _DET_OF_INVERSE.format(n=n, seed=seed)],
                   env=env, check=True, timeout=timeout)


def test_field_element_contract():
    # Every element stores {exponent tuple: Fraction} with a monic
    # dominant denominator, whatever coefficient types it was built from.
    def check(x):
        for p in (x.num, x.den):
            assert all(type(e) is tuple and all(type(k) is int for k in e)
                       and type(c) is Fraction for e, c in p.items())
        assert x.den[min(x.den, key=lambda e: e[::-1])] == 1
    built = [FieldElement({(1,): 3, (0,): 2}, {(0,): 4}, 1),
             FieldElement({(1,): 3}, {(0,): 1}, 1),
             FieldElement({(2, 0): 2, (0, 1): -4}, {(1, 0): 6, (0, 0): 2}, 2),
             FieldElement({(1, 0): Fraction(1, 2)}, {(0, 1): 1, (1, 0): -3}, 2),
             FieldElement({(0,): 5}, {(0,): -5}, 1)]
    a, b, c, d, e = built
    assert a == A0 * Fraction(3, 4) + Fraction(1, 2) and e == -ONE
    results = built + [a + b, a * c, c - d, c / d, d.invert(), -c, e * a,
                       (a + c) ** 3, c ** -2]
    m = Matrix([[a, c], [d, b]])
    results += [det(m), det(Matrix([[ONE, ZERO], [ZERO, ONE]]))]
    results += [x for row in mat_inv(m).rows for x in row]
    for x in results:
        check(x)


def test_det_matches_cofactor():
    rng = random.Random(11)
    for _ in range(6):
        m = Matrix([[rand_element(rng) for _ in range(3)] for _ in range(3)])
        assert det(m) == _det_cofactor([list(r) for r in m.rows])


def test_ball_membership_examples():
    assert ball_member(Matrix.identity(2), A0)
    assert ball_member(Matrix.identity(2), FieldElement.from_rational(Fraction(1, 10)))
    m = Matrix([[ONE, A0], [ZERO, ONE]])
    assert not ball_member(m, A0 * A0)
    assert ball_member(m, FieldElement.from_rational(2) * A0)
    with pytest.raises(ValueError):
        ball_member(m, ZERO)


def test_balls_linearly_ordered():
    rng = random.Random(3)
    radii = [FieldElement.from_rational(Fraction(1, k)) for k in (2, 3, 7)]
    radii += [A0, FieldElement.from_rational(2) * A0, A0 * A0]
    for e1 in radii:
        for e2 in radii:
            if compare(e1, e2) == LT:
                # every matrix in B_e1 lies in B_e2
                for _ in range(5):
                    m = Matrix([[ONE + _scaled(rng, e1), _scaled(rng, e1)],
                                [_scaled(rng, e1), ONE + _scaled(rng, e1)]])
                    if ball_member(m, e1):
                        assert ball_member(m, e2)


def _scaled(rng, eps):
    return eps * FieldElement.from_rational(Fraction(rng.randint(-3, 3), 4))


def test_shrink_radius_formula():
    assert shrink_radius(FieldElement.from_rational(Fraction(1, 2)), 2) == \
        FieldElement.from_rational(Fraction(1, 8))
    assert shrink_radius(A0, 2) == A0 / FieldElement.from_rational(4)
    assert shrink_radius(ONE, 1) == FieldElement.from_rational(Fraction(1, 3))
    # above one: clamped first
    assert shrink_radius(FieldElement.from_rational(5), 1) == \
        FieldElement.from_rational(Fraction(1, 3))
    with pytest.raises(ValueError):
        shrink_radius(ZERO, 2)


def test_shrink_radius_soundness_sampled():
    rng = random.Random(9)
    for eps in (ONE, FieldElement.from_rational(Fraction(1, 2)), A0,
                A0 * FieldElement.from_rational(Fraction(2, 3))):
        n = 2
        delta = shrink_radius(eps, n)
        for _ in range(15):
            a = Matrix([[ONE + _scaled(rng, delta), _scaled(rng, delta)],
                        [_scaled(rng, delta), ONE + _scaled(rng, delta)]])
            b = Matrix([[ONE + _scaled(rng, delta), _scaled(rng, delta)],
                        [_scaled(rng, delta), ONE + _scaled(rng, delta)]])
            assert ball_member(a, delta) and ball_member(b, delta)
            assert ball_member(mat_mul(a, b), eps)


def test_conjugation_continuity_sampled():
    rng = random.Random(13)
    c = Matrix([[ONE, ONE], [ZERO, ONE]])
    c_inv = mat_inv(c)
    for eps in (ONE, FieldElement.from_rational(Fraction(1, 4)), A0):
        found = None
        for k in (1, 2, 4, 8, 16):
            delta = eps / FieldElement.from_rational(k)
            ok = True
            for _ in range(10):
                m = Matrix([[ONE + _scaled(rng, delta), _scaled(rng, delta)],
                            [_scaled(rng, delta), ONE + _scaled(rng, delta)]])
                if not ball_member(m, delta):
                    continue
                if not ball_member(mat_mul(mat_mul(c_inv, m), c), eps):
                    ok = False
                    break
            if ok:
                found = delta
                break
        assert found is not None


def test_json_roundtrip():
    m = Matrix([[ONE, A0 / (ONE + A0)], [ZERO, ONE]])
    text = json.dumps(matrix_to_data(m))
    assert matrix_from_data(json.loads(text)) == m
    with pytest.raises(ValueError):
        matrix_from_data(json.loads('{"not": "a matrix"}'))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(ValueError):
        Matrix([[ONE, ONE]])
