"""Exact linear algebra over the tower field and the ordered ball base
at the identity of the general linear group.

Inversion clears row denominators and runs one-step fraction-free
elimination on the resulting polynomial matrix, so every intermediate
division is exact and degree growth stays under control.  Balls around
the identity use the entrywise maximum deviation, which makes the family
{B_eps} linearly ordered by inclusion.
"""

import json

from . import polynomials as P
from .exact_field import (
    GT,
    LT,
    FieldElement,
    compare,
    format_element,
    parse_element,
)


class SingularMatrixError(ValueError):
    pass


class Matrix:
    __slots__ = ("rows", "n", "height")

    def __init__(self, rows):
        rows = tuple(tuple(FieldElement._coerce(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        self.rows = rows
        self.n = n
        self.height = max((x.height for row in rows for x in row), default=0)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one = FieldElement.from_rational(1)
        zero = FieldElement.from_rational(0)
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[[format_element(x) for x in row] for row in self.rows]})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    return Matrix([[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)),
                        FieldElement.from_rational(0))
                    for j in range(n)] for i in range(n)])


def _cleared_rows(a: Matrix):
    """Scale each row by its denominator product; entries become polys.

    Row scaling of the augmented system [A | I] leaves the solution of
    A X = I untouched, so the inverse can be read off afterwards.
    """
    h = a.height
    n = a.n
    poly_rows = []
    multipliers = []
    for i in range(n):
        nums = [P.widen(x.num, h) for x in a.rows[i]]
        dens = [P.widen(x.den, h) for x in a.rows[i]]
        m = P.const(1, h)
        for d in dens:
            m = P.p_mul(m, d)
        row = []
        for j in range(n):
            q = nums[j]
            for k in range(n):
                if k != j:
                    q = P.p_mul(q, dens[k])
            row.append(q)
        poly_rows.append(row)
        multipliers.append(m)
    return poly_rows, multipliers, h


def _bareiss_forward(left, right, h):
    """One-step fraction-free elimination, in place.

    Returns the sign of the row permutation, or 0 when the matrix is
    singular.  Row k keeps its pivot in left[k][k]; the last pivot is
    the determinant of the cleared rows.
    """
    n = len(left)
    width = len(right[0])
    prev = P.const(1, h)
    sign = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if left[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            left[k], left[pivot_row] = left[pivot_row], left[k]
            right[k], right[pivot_row] = right[pivot_row], right[k]
            sign = -sign
        piv = left[k][k]
        for i in range(k + 1, n):
            head = left[i][k]
            for j in range(k + 1, n):
                num = P.p_sub(P.p_mul(piv, left[i][j]), P.p_mul(head, left[k][j]))
                left[i][j] = P.p_divexact(num, prev) if num else {}
            for j in range(width):
                num = P.p_sub(P.p_mul(piv, right[i][j]), P.p_mul(head, right[k][j]))
                right[i][j] = P.p_divexact(num, prev) if num else {}
            left[i][k] = {}
        prev = piv
    return sign


def det(a: Matrix) -> FieldElement:
    """Exact determinant via the fraction-free elimination."""
    left, multipliers, h = _cleared_rows(a)
    sign = _bareiss_forward(left, [[] for _ in range(a.n)], h)
    if not sign:
        return FieldElement.from_rational(0)
    m = P.const(1, h)
    for mult in multipliers:
        m = P.p_mul(m, mult)
    value = FieldElement(left[-1][-1], m, h)
    return -value if sign < 0 else value


def mat_inv(a: Matrix) -> Matrix:
    left, multipliers, h = _cleared_rows(a)
    n = a.n
    right = [[multipliers[i] if i == j else {} for j in range(n)]
             for i in range(n)]
    if not _bareiss_forward(left, right, h):
        raise SingularMatrixError("matrix is singular over the tower field")
    # Back substitution over the field; divisions by pivots are exact
    # fractions of polynomials.
    inv_rows: list = [None] * n
    for i in range(n - 1, -1, -1):
        d = FieldElement(left[i][i], P.const(1, h), h)
        row = []
        for j in range(n):
            acc = FieldElement(right[i][j], P.const(1, h), h) if right[i][j] \
                else FieldElement.from_rational(0)
            for l in range(i + 1, n):
                if left[i][l]:
                    coeff = FieldElement(left[i][l], P.const(1, h), h)
                    acc = acc - coeff * inv_rows[l][j]
            row.append(acc / d)
        inv_rows[i] = row
    return Matrix(inv_rows)


def ball_member(a: Matrix, eps: FieldElement) -> bool:
    """Entrywise |A_ij - delta_ij| < eps, the Chebyshev ball at identity."""
    eps = FieldElement._coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("ball radius must be strictly positive")
    one = FieldElement.from_rational(1)
    for i in range(a.n):
        for j in range(a.n):
            dev = a.rows[i][j] - one if i == j else a.rows[i][j]
            if compare(abs(dev), eps) != LT:
                return False
    return True


def shrink_radius(eps: FieldElement, n: int) -> FieldElement:
    """delta with B_delta * B_delta inside B_eps for n x n matrices.

    The deviation of a product is bounded by 2*delta + n*delta^2, and
    with delta = eps/(n+2) and eps <= 1 this is at most eps.  Radii
    above 1 are first clamped to 1.
    """
    eps = FieldElement._coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("radius must be strictly positive")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    one = FieldElement.from_rational(1)
    if compare(eps, one) == GT:
        eps = one
    return eps / FieldElement.from_rational(n + 2)


# --- JSON wire format ---------------------------------------------------

def matrix_to_json(a: Matrix) -> str:
    return json.dumps([[format_element(x) for x in row] for row in a.rows])


def matrix_from_json(text: str) -> Matrix:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("matrix JSON must be an array of arrays of expressions")
    return Matrix([[parse_element(cell) for cell in row] for row in data])
