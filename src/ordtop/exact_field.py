"""Exact arithmetic and total order in the tower Q(a0)(a1)...(a_{m-1}).

Each variable a_j is a positive infinitesimal over the field generated
by everything before it, so the sign of a polynomial is the sign of the
coefficient sitting on its dominant monomial, and a quotient takes the
product of the signs.  Elements are kept canonical: numerator and
denominator share no polynomial factor and the denominator's dominant
coefficient is one.  Negation and inversion keep a pair coprime, so they
rebuild the canonical form without a gcd, and `compare` reads most
answers off the dominant terms alone.  No floating point is involved
anywhere.
"""

from fractions import Fraction
from functools import total_ordering
from math import lcm
from operator import add

from . import expr
from . import polynomials as P

LT, EQ, GT = "LT", "EQ", "GT"

MAX_HEIGHT = 8
DEFAULT_MAX_DEGREE = 32

# Cap on the coefficient size of a power, in bits of each numerator
# and denominator: 14000 bits are at most 4215 decimal digits, so every
# power that passes still formats under Python's default 4300-digit
# limit on int-to-str conversion.
MAX_POWER_BITS = 14000

_VAR_NAMES = tuple(f"a{j}" for j in range(MAX_HEIGHT))

_limits = {"height": MAX_HEIGHT, "degree": DEFAULT_MAX_DEGREE}


class TowerLimitError(ValueError):
    """Raised when a result exceeds the height, degree or power-size caps."""


def set_limits(max_height: int | None = None, max_degree: int | None = None) -> None:
    """Adjust the resource caps; the grammar still only names a0..a7."""
    if max_height is not None:
        if not 1 <= max_height <= MAX_HEIGHT:
            raise ValueError(f"max_height must be within 1..{MAX_HEIGHT}")
        _limits["height"] = max_height
    if max_degree is not None:
        if max_degree < 1:
            raise ValueError("max_degree must be positive")
        _limits["degree"] = max_degree


def get_limits() -> tuple[int, int]:
    return _limits["height"], _limits["degree"]


def _check_limits(num: P.Poly, den: P.Poly, height: int) -> None:
    if height > _limits["height"]:
        raise TowerLimitError(
            f"tower height {height} exceeds the cap {_limits['height']}")
    d = max(P.total_degree(num), P.total_degree(den))
    if d > _limits["degree"]:
        raise TowerLimitError(f"degree {d} exceeds the cap {_limits['degree']}")


_FRACTION = frozenset({Fraction})


def _all_fractions(num: P.Poly, den: P.Poly) -> bool:
    return (_FRACTION.issuperset(map(type, num.values()))
            and _FRACTION.issuperset(map(type, den.values())))


@total_ordering
class FieldElement:
    """A canonical fraction of polynomials in the infinitesimal tower."""

    __slots__ = ("num", "den", "height", "_hash")

    def __init__(self, num: P.Poly, den: P.Poly, height: int):
        if not den:
            raise ZeroDivisionError("zero denominator in the tower field")
        if not num:
            num, den, height = {}, P.const(1, 0), 0
        else:
            if not (P._is_const(num) or P._is_const(den)):
                g = P.p_gcd(num, den)
                if not P._is_const(g):
                    num = P.p_divexact(num, g)
                    den = P.p_divexact(den, g)
            # Coefficients are stored as Fractions whatever type they
            # arrive as (int ones come from the matrix layer's Z[a]);
            # Fraction(v, c) also keeps int / int from making a float.
            c = P.dominant_coeff(den)
            if c != 1 or not _all_fractions(num, den):
                if type(c) is int:
                    num = {e: Fraction(v, c) for e, v in num.items()}
                    den = {e: Fraction(v, c) for e, v in den.items()}
                else:
                    num = {e: v / c for e, v in num.items()}
                    den = {e: v / c for e, v in den.items()}
            w = max(P.used_width(num, height), P.used_width(den, height))
            if w < height:
                num, den, height = P.shrink(num, w), P.shrink(den, w), w
        _check_limits(num, den, height)
        self.num = num
        self.den = den
        self.height = height
        self._hash = None

    @classmethod
    def _canonical(cls, num: P.Poly, den: P.Poly, height: int) -> "FieldElement":
        """An element from a pair that is already canonical at this height
        and within the caps: no gcd, no rescaling, no cap check."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self.height = height
        self._hash = None
        return self

    # -- construction ------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "FieldElement":
        value = Fraction(value)
        return cls(P.const(value, 0), P.const(1, 0), 0)

    @classmethod
    def var(cls, j: int) -> "FieldElement":
        """The j-th adjoined infinitesimal a_j (so tower height j + 1)."""
        if not 0 <= j < MAX_HEIGHT:
            raise TowerLimitError(f"variable index {j} outside 0..{MAX_HEIGHT - 1}")
        w = j + 1
        return cls(P.variable(j, w), P.const(1, w), w)

    @classmethod
    def _coerce(cls, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the tower field")

    def _align(self, other: "FieldElement"):
        h = max(self.height, other.height)
        return (P.widen(self.num, h), P.widen(self.den, h),
                P.widen(other.num, h), P.widen(other.den, h), h)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        an, ad, bn, bd, h = self._align(other)
        if ad == bd:
            return FieldElement(P.p_add(an, bn), ad, h)
        if P._is_const(ad) or P._is_const(bd):
            g: P.Poly = {}
        else:
            g = P.p_gcd(ad, bd)
        if not g or P._is_const(g):
            return FieldElement(P.p_add(P.p_mul(an, bd), P.p_mul(bn, ad)),
                                P.p_mul(ad, bd), h)
        ad_r = P.p_divexact(ad, g)
        bd_r = P.p_divexact(bd, g)
        num = P.p_add(P.p_mul(an, bd_r), P.p_mul(bn, ad_r))
        return FieldElement(num, P.p_mul(P.p_mul(ad_r, bd_r), g), h)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._canonical(P.p_neg(self.num), self.den, self.height)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        an, ad, bn, bd, h = self._align(other)
        # Cross-reduce so canonical inputs need no final gcd.
        if an and not (P._is_const(an) or P._is_const(bd)):
            g1 = P.p_gcd(an, bd)
            if not P._is_const(g1):
                an, bd = P.p_divexact(an, g1), P.p_divexact(bd, g1)
        if bn and not (P._is_const(bn) or P._is_const(ad)):
            g2 = P.p_gcd(bn, ad)
            if not P._is_const(g2):
                bn, ad = P.p_divexact(bn, g2), P.p_divexact(ad, g2)
        return FieldElement(P.p_mul(an, bn), P.p_mul(ad, bd), h)

    __rmul__ = __mul__

    def invert(self) -> "FieldElement":
        if not self.num:
            raise ZeroDivisionError("cannot invert zero")
        # The swapped pair is still coprime, of the same height and
        # degrees; only the new denominator needs its dominant
        # coefficient scaled to one.
        c = P.dominant_coeff(self.num)
        if c == 1:
            return FieldElement._canonical(self.den, self.num, self.height)
        r = 1 / c
        return FieldElement._canonical(P.p_scale(self.den, r),
                                       P.p_scale(self.num, r), self.height)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.invert()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.invert()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.invert() ** (-n)
        check_power(n, self.num.values(), self.den.values())
        out = FieldElement.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- order ---------------------------------------------------------

    def sign(self) -> int:
        """Sign under the tower order; the denominator is dominant-positive."""
        return P.sign_of(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self.height == other.height and self.num == other.num
                and self.den == other.den)

    def __lt__(self, other):
        return compare(self, self._coerce(other)) == LT

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items()), self.height))
        return self._hash

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- structure ------------------------------------------------------

    def leading_term(self):
        """Dominant monomial as (exponent vector, rational coefficient).

        Exponents are numerator minus denominator exponents, so entries
        may be negative; the coefficient is the quotient of the two
        dominant coefficients.
        """
        if not self.num:
            raise ValueError("zero element has no leading term")
        en = P.dominant_exp(self.num)
        ed = P.dominant_exp(self.den)
        exps = tuple(a - b for a, b in zip(en, ed))
        return exps, P.dominant_coeff(self.num) / P.dominant_coeff(self.den)

    def is_infinitesimal(self) -> bool:
        """True when |self| is below every positive rational."""
        if not self.num:
            return False
        exps, _ = self.leading_term()
        for j in range(self.height - 1, -1, -1):
            if exps[j]:
                return exps[j] > 0
        return False

    def __repr__(self):
        return f"FieldElement({format_element(self)!r})"

    def __str__(self):
        return format_element(self)


def check_power(n: int, num, den) -> None:
    """Refuse (num / den) ** n when its coefficients could pass MAX_POWER_BITS.

    num and den are the Fraction coefficients of a canonical quotient,
    whose denominator has leading coefficient one.  Its n-th power is
    num ** n / den ** n, canonical as it stands.  With q the lcm of a
    polynomial's coefficient denominators and s = q * (sum of
    |coefficients|), each coefficient of its n-th power is k / q ** n
    with |k| <= s ** n, so every numerator and denominator there is at
    most 2 ** (n * bits) for the bits below.
    """
    bits = 0
    for p in (num, den):
        q = lcm(*(c.denominator for c in p))
        s = sum(abs(c.numerator) * (q // c.denominator) for c in p)
        bits = max(bits, max(s - 1, 0).bit_length(), (q - 1).bit_length())
    if n * bits > MAX_POWER_BITS:
        raise TowerLimitError(f"power coefficients of up to {n * bits} bits "
                              f"exceed the cap {MAX_POWER_BITS}")


def compare(a: FieldElement, b: FieldElement) -> str:
    """Total order of the tower: the sign of a - b.

    Equal canonical forms are EQ.  Otherwise the sign is that of
    an * bd - bn * ad.  Dominance is a monomial order, so the dominant
    term of each cross product is the product of its factors' dominant
    terms, and the denominators' dominant coefficients are one: unless
    the two dominant terms coincide, they decide the sign without a
    product.  Only a tie forms the full cross products.
    """
    a = FieldElement._coerce(a)
    b = FieldElement._coerce(b)
    if a == b:
        return EQ
    if not a.num or not b.num:
        s = P.sign_of(a.num) or -P.sign_of(b.num)
        return LT if s < 0 else GT
    h = max(a.height, b.height)
    e1 = _dominant_product(a.num, b.den, h)
    e2 = _dominant_product(b.num, a.den, h)
    c1 = P.dominant_coeff(a.num)
    c2 = P.dominant_coeff(b.num)
    if e1 != e2:
        s = c1 if P.more_dominant(e1, e2) else -c2
    elif c1 != c2:
        s = c1 - c2
    else:
        # Distinct canonical forms are distinct values, so s != 0.
        an, ad, bn, bd, _ = a._align(b)
        s = P.sign_of(P.p_sub(P.p_mul(an, bd), P.p_mul(bn, ad)))
    return LT if s < 0 else GT


def _dominant_product(p: P.Poly, q: P.Poly, width: int) -> P.Term:
    """The dominant exponent of p * q, at `width` variables."""
    z = (0,) * width
    e = P.dominant_exp(p)
    f = P.dominant_exp(q)
    return tuple(map(add, e + z[len(e):], f + z[len(f):]))


def sign(a: FieldElement) -> int:
    return FieldElement._coerce(a).sign()


def arithmetic(op: str, a: FieldElement, b: FieldElement) -> FieldElement:
    a = FieldElement._coerce(a)
    b = FieldElement._coerce(b)
    if op not in expr.BINARY:
        raise ValueError(f"unknown operation {op!r}; expected add, sub, mul or div")
    return expr.BINARY[op](a, b)


# -- text format --------------------------------------------------------

def parse_element(text: str) -> FieldElement:
    """Parse the expression grammar: rationals, a0..a7, + - * / ^."""
    return expr.evaluate(expr.parse(text, _VAR_NAMES), _leaf)


def _leaf(kind: str, value) -> FieldElement:
    if kind == "num":
        return FieldElement.from_rational(value)
    return FieldElement.var(_VAR_NAMES.index(value))


def _terms(p: P.Poly):
    for e in sorted(p, key=P.dominance_key):
        yield p[e], "*".join(f"{_VAR_NAMES[j]}^{k}" if k > 1 else _VAR_NAMES[j]
                             for j, k in enumerate(e) if k)


def format_element(a: FieldElement) -> str:
    """Canonical text form; parses back to an equal element."""
    num = expr.format_terms(_terms(a.num))
    if P._is_const(a.den) and P.dominant_coeff(a.den) == 1:
        return num
    return f"({num})/({expr.format_terms(_terms(a.den))})"
