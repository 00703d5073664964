"""A decidable fragment of a reduced power of metric groups.

Sequences of rationals are given by a finite prefix plus a closed-form
rational-function tail, so agreement on a cofinite set, eventual sign,
and the coordinate-wise capped metric are all decidable exactly.  On
this fragment the cofinite filter already settles every comparison, so
no ultrafilter choice ever matters.
"""

import json
from fractions import Fraction

from . import expr
from . import polynomials as P
from .exact_field import check_power

LT, EQ, GT = "LT", "EQ", "GT"

# Cap on the degree of a tail's numerator and denominator.
MAX_TAIL_DEGREE = 64
# Cap on the terms past the given prefixes that are examined one by one:
# scanned for a vanishing tail denominator, or written into a
# star-metric prefix.  Both run up to a Cauchy root bound.
MAX_SETTLE = 10_000


# --- univariate rational functions over Q --------------------------------

def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return _trim(out)


def _as_poly(a) -> P.Poly:
    return {(i,): c for i, c in enumerate(a) if c}


def _as_coeffs(p: P.Poly) -> tuple:
    out = [Fraction(0)] * (max(p)[0] + 1)
    for (i,), c in p.items():
        out[i] = c
    return tuple(out)


def _peval(a, x: int) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _cauchy_bound(a) -> int:
    """All real roots of a lie strictly below this integer."""
    if len(a) <= 1:
        return 0
    lead = abs(a[-1])
    worst = max(abs(c) / lead for c in a[:-1])
    bound = 1 + worst
    return int(bound) + 1


def _check_degree(d: int) -> None:
    if d > MAX_TAIL_DEGREE:
        raise ValueError(f"tail degree {d} exceeds the cap {MAX_TAIL_DEGREE}")


def _check_settle(terms: int) -> None:
    if terms > MAX_SETTLE:
        raise ValueError(
            f"{terms} terms past the prefix exceed the settle cap {MAX_SETTLE}")


class RatFunc:
    """Canonical quotient of univariate rational polynomials in n."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = _trim(c if type(c) is Fraction else Fraction(c) for c in num)
        den = _trim(c if type(c) is Fraction else Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator in sequence tail")
        if not num:
            den = (Fraction(1),)
        elif len(den) > 1:
            # The tower's heuristic gcd, on one variable: Euclid's
            # algorithm over Q swells the coefficients until adding two
            # tails of degree 16 takes seconds.
            pn, pd = _as_poly(num), _as_poly(den)
            g = P.p_gcd(pn, pd)
            if max(g) > (0,):
                num = _as_coeffs(P.p_divexact(pn, g))
                den = _as_coeffs(P.p_divexact(pd, g))
        if den[-1] != 1:
            lead = den[-1]
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        _check_degree(max(len(num), len(den)) - 1)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c) -> "RatFunc":
        return cls((Fraction(c),))

    def __eq__(self, other):
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        if self.den == other.den:
            return RatFunc(_padd(self.num, other.num), self.den)
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero in tail expression")
        return RatFunc(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero raised to a negative power")
            return RatFunc(self.den, self.num) ** -k
        _check_degree(k * (max(len(self.num), len(self.den)) - 1))
        check_power(k, self.num, self.den)
        out, base = RatFunc.constant(1), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "RatFunc":
        return RatFunc(tuple(x * Fraction(c) for x in self.num), self.den)

    def eval(self, n: int) -> Fraction:
        d = _peval(self.den, n)
        if d == 0:
            raise ZeroDivisionError(f"tail denominator vanishes at n={n}")
        return _peval(self.num, n) / d

    def eventual_sign(self) -> int:
        if not self.num:
            return 0
        s = 1 if self.num[-1] > 0 else -1
        return s if self.den[-1] > 0 else -s

    def settle_bound(self) -> int:
        """Index past every real root of numerator and denominator."""
        return max(_cauchy_bound(self.num), _cauchy_bound(self.den),
                   1 if not self.num else 0)


# --- eventually-closed-form sequences ------------------------------------

class EventualSeq:
    """Finite prefix of exact rationals plus a rational-function tail."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail: RatFunc):
        self.prefix = tuple(Fraction(c) for c in prefix)
        self.tail = tail
        start, bound = len(self.prefix), _cauchy_bound(tail.den)
        _check_settle(bound - start)
        for n in range(start, bound + 1):
            if _peval(tail.den, n) == 0:
                raise ValueError(
                    f"tail denominator vanishes at n={n}, beyond the prefix")

    @classmethod
    def constant(cls, c) -> "EventualSeq":
        return cls((), RatFunc.constant(c))

    def value_at(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("sequence indices start at 0")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail.eval(n)

    def values(self, count: int) -> list:
        return [self.value_at(i) for i in range(count)]

    def __add__(self, other):
        m = max(len(self.prefix), len(other.prefix))
        return EventualSeq(
            [self.value_at(i) + other.value_at(i) for i in range(m)],
            self.tail + other.tail)

    def __neg__(self):
        return EventualSeq([-c for c in self.prefix], -self.tail)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "EventualSeq":
        c = Fraction(c)
        return EventualSeq([v * c for v in self.prefix], self.tail.scale(c))

    def __eq__(self, other):
        """Pointwise equality of the sequences, not of representations."""
        if not isinstance(other, EventualSeq):
            return NotImplemented
        if self.tail != other.tail:
            return False
        m = max(len(self.prefix), len(other.prefix))
        return all(self.value_at(i) == other.value_at(i) for i in range(m))

    def __hash__(self):
        return hash((self.tail, len(self.prefix)))

    def equivalent(self, other: "EventualSeq") -> bool:
        """Agreement on a cofinite set: the tails coincide."""
        return self.tail == other.tail

    def __repr__(self):
        return f"EventualSeq({to_json(self)})"


# A StarValue is an EventualSeq regarded as an element of the ordered
# reduced power; the order is eventual domination.
StarValue = EventualSeq

ZERO = EventualSeq.constant(0)
ONE = EventualSeq.constant(1)


def compare_ev(x: EventualSeq, y: EventualSeq) -> str:
    """EQ on cofinite agreement, otherwise the eventual sign of x - y."""
    s = (x.tail - y.tail).eventual_sign()
    return EQ if s == 0 else (LT if s < 0 else GT)


def ev_le(x: EventualSeq, y: EventualSeq) -> bool:
    return compare_ev(x, y) in (LT, EQ)


def ev_min(x: EventualSeq, y: EventualSeq) -> "EventualSeq":
    return x if ev_le(x, y) else y


def is_positive(x: EventualSeq) -> bool:
    return compare_ev(x, ZERO) == GT


def star_metric(x: EventualSeq, y: EventualSeq) -> StarValue:
    """Coordinate-wise d_n(a, b) = min(|a - b|, 1) as a StarValue.

    The result is exact: the prefix runs past every sign change and
    every |difference| = 1 crossing, after which one closed form is
    valid forever.
    """
    diff = x.tail - y.tail
    settle = max(len(x.prefix), len(y.prefix), diff.settle_bound())
    # crossings of |diff| with 1 happen at roots of (num - den)(num + den)
    for poly in (_padd(diff.num, _pneg(diff.den)), _padd(diff.num, diff.den)):
        if poly:
            settle = max(settle, _cauchy_bound(poly))
    _check_settle(settle - max(len(x.prefix), len(y.prefix)))
    prefix = []
    for i in range(settle):
        d = abs(x.value_at(i) - y.value_at(i))
        prefix.append(d if d < 1 else Fraction(1))
    if diff.is_zero():
        tail = RatFunc.constant(0)
    else:
        sgn = diff.eventual_sign()
        absdiff = diff if sgn > 0 else -diff
        probe = abs(diff.eval(settle))
        tail = absdiff if probe < 1 else RatFunc.constant(1)
    return EventualSeq(prefix, tail)


# --- spherical-completeness interleaving ----------------------------------

class NestingError(ValueError):
    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class InterleaveResult:
    __slots__ = ("witness", "certificates")

    def __init__(self, witness, certificates):
        self.witness = witness
        self.certificates = certificates


def interleave(instances, cuts) -> InterleaveResult:
    """Splice ball centers along tail sets U_n = {i >= t_n}, U_0 = all.

    instances: list of (center, radius) pairs with certified nesting
    d(g_{n+1}, g_n) + eps_{n+1} <= eps_n.  The k-th instance supplies
    the coordinates on [t_k, t_{k+1}), the last one from its cut on.
    Returns the spliced sequence plus, per instance, the exact
    certificate star_metric(h, g_n) < eps_n.
    """
    if not instances:
        raise ValueError("at least one instance is required")
    cuts = list(cuts)
    if len(cuts) != len(instances) - 1:
        raise ValueError(
            f"{len(instances)} instances need {len(instances) - 1} cuts, "
            f"got {len(cuts)}")
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        raise ValueError("cut indices must be strictly increasing")
    if cuts and cuts[0] < 0:
        raise ValueError("cut indices must be non-negative")
    for n in range(len(instances) - 1):
        g_n, eps_n = instances[n]
        g_next, eps_next = instances[n + 1]
        lhs = star_metric(g_next, g_n) + eps_next
        if not ev_le(lhs, eps_n):
            raise NestingError(
                n + 1,
                f"nesting fails at instance {n + 1}: "
                f"d(g_{n + 2}, g_{n + 1}) + eps_{n + 2} exceeds eps_{n + 1}")
    last_center, _ = instances[-1]
    prefix_len = max([cuts[-1] if cuts else 0]
                     + [len(g.prefix) for g, _ in instances])
    prefix = []
    for i in range(prefix_len):
        k = 0
        for n, t in enumerate(cuts):
            if i >= t:
                k = n + 1
        prefix.append(instances[k][0].value_at(i))
    h = EventualSeq(prefix, last_center.tail)
    certificates = []
    for n, (g_n, eps_n) in enumerate(instances):
        d = star_metric(h, g_n)
        if compare_ev(d, eps_n) != LT:
            raise NestingError(
                n + 1, f"witness escapes ball {n + 1}: d(h, g_{n + 1}) is not "
                       f"below eps_{n + 1}")
        certificates.append((n, d, eps_n))
    return InterleaveResult(h, certificates)


# --- Baire-style avoidance recursion --------------------------------------

class Ball:
    __slots__ = ("center", "radius")

    def __init__(self, center: EventualSeq, radius: StarValue):
        if not is_positive(radius):
            raise ValueError("ball radius must be eventually positive")
        self.center = center
        self.radius = radius


class AvoidanceError(ValueError):
    pass


def _escape_step(center, radius, f_center, f_radius):
    """One recursion step: a certified sub-ball avoiding one closed ball."""
    dist = star_metric(center, f_center)
    gap = radius - f_radius
    candidates = []
    if compare_ev(dist, f_radius) == GT:
        slack = ev_min((dist - f_radius).scale(Fraction(1, 2)),
                       radius.scale(Fraction(1, 2)))
        candidates.append((center, slack))
    shift = f_radius + gap.scale(Fraction(1, 2))
    candidates.append((f_center + shift, gap.scale(Fraction(1, 4))))
    candidates.append((f_center - shift, gap.scale(Fraction(1, 4))))
    for new_center, new_radius in candidates:
        if not is_positive(new_radius):
            continue
        escape = compare_ev(star_metric(new_center, f_center),
                            f_radius + new_radius)
        contained = ev_le(star_metric(new_center, center) + new_radius, radius)
        if escape in (GT, EQ) and contained:
            return new_center, new_radius
    raise AvoidanceError(
        "no certified shift found; the forbidden ball swallows the current one")


class BaireWitness:
    __slots__ = ("point", "chain", "certificates")

    def __init__(self, point, chain, certificates):
        self.point = point
        self.chain = chain
        self.certificates = certificates


def baire_witness(open_ball: Ball, forbidden) -> BaireWitness:
    """A point of the open ball avoiding every listed closed ball.

    Runs the shrinking recursion, splices the centers with interleave,
    and returns exact certificates: membership in the starting ball and
    strict avoidance of each forbidden ball.
    """
    forbidden = list(forbidden)
    if not forbidden:
        return BaireWitness(open_ball.center, [open_ball], [])
    for j, fb in enumerate(forbidden):
        if compare_ev(fb.radius, open_ball.radius) != LT:
            raise AvoidanceError(
                f"forbidden ball {j + 1} is at least as large as the open ball")
    chain = [(open_ball.center, open_ball.radius)]
    for fb in forbidden:
        g, rho = chain[-1]
        chain.append(_escape_step(g, rho, fb.center, fb.radius))
    result = interleave(chain, list(range(1, len(chain))))
    h = result.witness
    certificates = []
    for j, fb in enumerate(forbidden):
        d = star_metric(h, fb.center)
        if compare_ev(d, fb.radius) != GT:
            raise AvoidanceError(
                f"witness landed inside forbidden ball {j + 1}")
        certificates.append((j, d, fb.radius))
    if compare_ev(star_metric(h, open_ball.center), open_ball.radius) != LT:
        raise AvoidanceError("witness escaped the ambient ball")
    return BaireWitness(h, [Ball(g, r) for g, r in chain], certificates)


# --- JSON wire format ------------------------------------------------------

_VARIABLES = {"n": RatFunc((Fraction(0), Fraction(1)))}


def parse_tail(text: str) -> RatFunc:
    """Parse the expression grammar: rationals, n, + - * / ^."""
    return expr.evaluate(text, RatFunc.constant, _VARIABLES, lambda f: f.num + f.den)


def _terms(coeffs):
    for i, c in enumerate(coeffs):
        yield c, "" if i == 0 else "n" if i == 1 else f"n^{i}"


def format_tail(f: RatFunc) -> str:
    num = expr.format_terms(_terms(f.num))
    if f.den == (Fraction(1),):
        return num
    return f"({num})/({expr.format_terms(_terms(f.den))})"


def to_json(seq: EventualSeq) -> str:
    return json.dumps({
        "prefix": [str(c) for c in seq.prefix],
        "tail": format_tail(seq.tail),
    })


def from_json(text: str) -> EventualSeq:
    return from_data(json.loads(text))


def from_data(data) -> EventualSeq:
    """The sequence of decoded JSON {"prefix": [...], "tail": "..."}."""
    if not isinstance(data, dict) or "tail" not in data:
        raise ValueError('sequence JSON needs {"prefix": [...], "tail": "..."}')
    prefix = data.get("prefix", [])
    if not isinstance(prefix, list):
        raise ValueError(f"sequence prefix must be an array, got {type(prefix).__name__}")
    prefix = [expr.number(c) for c in prefix]
    return EventualSeq(prefix, parse_tail(data["tail"]))
