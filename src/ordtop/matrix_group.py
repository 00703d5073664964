"""Exact linear algebra over the tower field and the ordered ball base
at the identity of the general linear group.

Inversion and determinants scale each row of the matrix into Z[a], the
polynomials with integer coefficients, and run one-step fraction-free
(Bareiss) elimination there: every division is exact in Z[a], so no
rational arithmetic runs until the end.  The inverse comes out of a
fraction-free back substitution as D * A^-1 with D the last pivot, and
each entry becomes one canonical field element.  Balls around the
identity use the entrywise maximum deviation, which makes the family
{B_eps} linearly ordered by inclusion.
"""

from math import lcm

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
    """Scale each row into Z[a]; returns the rows and their multipliers.

    Row i is multiplied by the lcm m of its entries' denominators, kept
    as a running m * (d / gcd(m, d)), and then by the lcm of every
    coefficient denominator left in the row and in m, so both the
    entries and the multiplier m_i have integer coefficients.  Row
    scaling of the augmented system [A | diag(m)] leaves the solution of
    A X = I untouched.
    """
    h = a.height
    poly_rows = []
    multipliers = []
    for entries in a.rows:
        nums = [P.widen(x.num, h) for x in entries]
        dens = [P.widen(x.den, h) for x in entries]
        m = dens[0]
        for d in dens[1:]:
            if d != m:
                m = P.p_mul(m, P.p_divexact(d, P.p_gcd(m, d)))
        row = [P.p_mul(q, P.p_divexact(m, d)) for q, d in zip(nums, dens)]
        scale = lcm(*(c.denominator for p in (*row, m) for c in p.values()))
        poly_rows.append([P.to_integer(q, scale) for q in row])
        multipliers.append(P.to_integer(m, scale))
    return poly_rows, multipliers, h


def _bareiss_forward(left, right):
    """One-step fraction-free elimination in Z[a], in place.

    Returns the sign of the row permutation, or 0 when the matrix is
    singular.  Row k keeps its pivot in left[k][k]; the last pivot is
    the determinant of the cleared rows.  By Sylvester's identity each
    new entry is a minor of the input, so the division by the previous
    pivot (1 before the first) is exact.
    """
    n = len(left)
    width = len(right[0])
    prev = None
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
            for row, top, cols in ((left[i], left[k], range(k + 1, n)),
                                   (right[i], right[k], range(width))):
                for j in cols:
                    num = P.p_sub(P.p_mul(piv, row[j]), P.p_mul(head, top[j]))
                    row[j] = P.p_divexact(num, prev) if num and prev is not None else num
            left[i][k] = {}
        prev = piv
    return sign


def det(a: Matrix) -> FieldElement:
    """Exact determinant via the fraction-free elimination."""
    left, multipliers, h = _cleared_rows(a)
    sign = _bareiss_forward(left, [[] for _ in range(a.n)])
    if not sign:
        return FieldElement.from_rational(0)
    m = multipliers[0]
    for mult in multipliers[1:]:
        m = P.p_mul(m, mult)
    d = left[-1][-1] if sign > 0 else P.p_neg(left[-1][-1])
    return FieldElement(d, m, h)


def mat_inv(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError on a singular matrix.

    After the forward elimination U X = R holds with U upper triangular
    and X = A^-1.  The back substitution computes D * X instead, with D
    = U[n-1][n-1] = +-det(L) for the cleared matrix L = diag(m) A:
    D * A^-1 = +-adj(L) diag(m) has its entries in Z[a], so each
    division by a pivot U[i][i] is exact.  The last row of D * X is R's
    last row.
    """
    left, multipliers, h = _cleared_rows(a)
    n = a.n
    right = [[multipliers[i] if i == j else {} for j in range(n)]
             for i in range(n)]
    if not _bareiss_forward(left, right):
        raise SingularMatrixError("matrix is singular over the tower field")
    d = left[-1][-1]
    x = [None] * n
    x[-1] = right[-1]
    for i in range(n - 2, -1, -1):
        row = []
        for j in range(n):
            acc = P.p_mul(d, right[i][j])
            for l in range(i + 1, n):
                if left[i][l] and x[l][j]:
                    acc = P.p_sub(acc, P.p_mul(left[i][l], x[l][j]))
            row.append(P.p_divexact(acc, left[i][i]) if acc else {})
        x[i] = row
    return Matrix([[FieldElement(v, d, h) for v in row] for row in x])


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

def matrix_to_data(a: Matrix) -> list:
    """The JSON-ready array of arrays of canonical element texts."""
    return [[format_element(x) for x in row] for row in a.rows]


def matrix_from_data(data) -> Matrix:
    """The matrix of decoded JSON, an array of arrays of expressions."""
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError("matrix JSON must be an array of arrays of expressions")
    return Matrix([[parse_element(cell) for cell in row] for row in data])
