"""Sparse multivariate polynomials over exact rationals.

A polynomial is a dict mapping fixed-width exponent tuples to nonzero
Fractions, or to nonzero ints for polynomials in Z[a]: addition,
subtraction, multiplication and exact division keep int coefficients
ints.  The dominance order scans variables from the innermost
(highest index) downward; a lower power of a more deeply nested variable
dominates.  The dominant monomial of a nonzero polynomial is therefore
the one whose reversed exponent tuple is lexicographically smallest.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, neg, sub

Term = tuple[int, ...]
Poly = dict[Term, Fraction | int]
IPoly = dict  # exponent tuple -> int; gcd internals run on plain ints


def const(c, width: int) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {(0,) * width: c}


def variable(j: int, width: int) -> Poly:
    if not 0 <= j < width:
        raise ValueError(f"variable index {j} out of range for width {width}")
    exp = tuple(1 if i == j else 0 for i in range(width))
    return {exp: Fraction(1)}


def widen(p: Poly, width: int) -> Poly:
    """Embed into a wider exponent space by padding with zero exponents."""
    if not p:
        return {}
    old = len(next(iter(p)))
    if old == width:
        return p
    if old > width:
        raise ValueError(f"cannot shrink width {old} to {width}")
    pad = (0,) * (width - old)
    return {e + pad: c for e, c in p.items()}


def used_width(p: Poly, width: int) -> int:
    """Smallest width that still carries every variable actually present."""
    w = 0
    for e in p:
        for j in range(width - 1, w - 1, -1):
            if e[j]:
                w = j + 1
                break
    return w


def shrink(p: Poly, width: int) -> Poly:
    if not p:
        return {}
    return {e[:width]: c for e, c in p.items()}


def p_add(p: Poly, q: Poly) -> Poly:
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def p_neg(p: Poly) -> Poly:
    return {e: -c for e, c in p.items()}


def p_sub(p: Poly, q: Poly) -> Poly:
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) - c
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def p_scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: v * c for e, v in p.items()}


def p_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    r: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            elif e in r:
                del r[e]
    return r


def total_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


# Dominance: e is more dominant than f when, scanning from the highest
# variable index down, the first differing coordinate of e is smaller.
def dominance_key(e: Term) -> Term:
    return e[::-1]


def more_dominant(e: Term, f: Term) -> bool:
    return e[::-1] < f[::-1]


def dominant_exp(p: Poly) -> Term:
    if not p:
        raise ValueError("zero polynomial has no dominant term")
    return min(p, key=dominance_key)


def dominant_coeff(p: Poly) -> Fraction:
    return p[dominant_exp(p)]


def sign_of(p: Poly) -> int:
    """Sign under the tower order: sign of the dominant coefficient."""
    if not p:
        return 0
    c = dominant_coeff(p)
    return 1 if c > 0 else -1


def _flip(e: Term) -> Term:
    # Negated and reversed: the largest exponent under the reversed-lex
    # monomial order becomes the smallest flipped tuple.
    return tuple(map(neg, e[::-1]))


def p_divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p / d; raises ValueError if d does not divide p.

    Division runs on leading monomials under the reversed-lex order (the
    opposite end of the dominance order, a monomial well-order).  Each
    step removes the remainder's leading monomial and only adds smaller
    ones, so the leads come off a heap of flipped exponents instead of a
    rescan of the remainder; a stale heap entry is one whose monomial
    has already cancelled.  Int coefficients divide exactly in Z (a
    nonzero remainder raises), any other coefficient divides as a
    Fraction.
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return {}
    terms = [(_flip(e), c) for e, c in d.items()]
    lead, lc = min(terms)
    terms.remove((lead, lc))
    int_lc = type(lc) is int
    rem = {_flip(e): c for e, c in p.items()}
    heap = list(rem)
    heapify(heap)
    q: Poly = {}
    while heap:
        e = heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue
        t = tuple(map(sub, e, lead))
        if t and max(t) > 0:
            raise ValueError("not exactly divisible")
        if int_lc and type(c) is int:
            c, r = divmod(c, lc)
            if r:
                raise ValueError("not exactly divisible")
        else:
            c = c / lc
        q[t] = c
        for de, dc in terms:
            ee = tuple(map(add, t, de))
            s = rem.get(ee)
            if s is None:
                rem[ee] = -c * dc
                heappush(heap, ee)
            else:
                s -= c * dc
                if s:
                    rem[ee] = s
                else:
                    del rem[ee]
    return {_flip(t): c for t, c in q.items()}


def _split_main(p: Poly, j: int) -> dict[int, Poly]:
    parts: dict[int, Poly] = {}
    for e, c in p.items():
        k = e[j]
        ee = e[:j] + (0,) + e[j + 1:]
        parts.setdefault(k, {})[ee] = c
    return parts


def _join_main(parts: dict[int, Poly], j: int) -> Poly:
    p: Poly = {}
    for k, sub in parts.items():
        for e, c in sub.items():
            p[e[:j] + (k,) + e[j + 1:]] = c
    return p


def _content_main(parts: dict[int, IPoly]) -> IPoly:
    g: IPoly = {}
    for sub in parts.values():
        g = p_gcd(g, sub)
    return g


def _prem(a: dict[int, IPoly], b: dict[int, IPoly]) -> dict[int, IPoly]:
    """Pseudo-remainder of a by b in the split main variable."""
    db = max(b)
    lcb = b[db]
    r = {k: dict(v) for k, v in a.items()}
    while r and max(r) >= db:
        dr = max(r)
        lcr = r[dr]
        nr: dict[int, IPoly] = {}
        for k, c in r.items():
            if k != dr:
                nr[k] = p_mul(c, lcb)
        for k, c in b.items():
            if k != db:
                kk = k + dr - db
                nr[kk] = p_sub(nr.get(kk, {}), p_mul(c, lcr))
        r = {k: v for k, v in nr.items() if v}
    return r


def _primitive_main(parts: dict[int, IPoly]) -> tuple[dict[int, IPoly], IPoly]:
    """Nonzero parts divided by their content, and the content."""
    cont = _content_main(parts)
    return {k: p_divexact(v, cont) for k, v in parts.items()}, cont


def _is_const(p: Poly) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


def p_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd in Z[a]: int coefficients with no common factor,
    dominant coefficient positive; {} only if both are zero."""
    if not p:
        return _int_primitive(q)
    if not q or p == q:
        return _int_primitive(p)
    width = len(next(iter(p)))
    # Factor out per-variable minimal exponents first.
    mp = [min(e[j] for e in p) for j in range(width)]
    mq = [min(e[j] for e in q) for j in range(width)]
    common = tuple(min(a, b) for a, b in zip(mp, mq))
    a = {tuple(x - y for x, y in zip(e, mp)): c for e, c in p.items()}
    b = {tuple(x - y for x, y in zip(e, mq)): c for e, c in q.items()}
    if len(a) == 1 or len(b) == 1:
        # After stripping monomial factors a single term is a unit here.
        core = {(0,) * width: 1}
    else:
        a, b = _int_primitive(a), _int_primitive(b)
        core = _heugcd(a, b, width) or _gcd_pp(a, b, width)
    if any(common):
        core = p_mul(core, {common: 1})
    return core


def to_integer(p: Poly, scale: int) -> IPoly:
    """p * scale with int coefficients; scale must be a multiple of
    every coefficient's denominator."""
    return {e: c.numerator * (scale // c.denominator) for e, c in p.items()}


def _int_primitive(p: Poly) -> IPoly:
    """p's primitive part in Z[a], dominant-positive, without Fractions."""
    return _iprimitive(to_integer(p, lcm(*(c.denominator for c in p.values()))))[0]


def _iprimitive(p: IPoly) -> tuple[IPoly, int]:
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return {}, 0
    if p[min(p, key=dominance_key)] < 0:
        g = -g
    if g == 1:
        return p, 1
    return {e: c // g for e, c in p.items()}, g


def _idivides(p: IPoly, d: IPoly) -> bool:
    """Exact divisibility over the integers, stopping at the first
    inexact step."""
    try:
        p_divexact(p, d)
    except ValueError:
        return False
    return True


def _ieval_var(p: IPoly, j: int, xi: int) -> IPoly:
    r: IPoly = {}
    for e, c in p.items():
        ee = e[:j] + (0,) + e[j + 1:]
        s = r.get(ee, 0) + c * xi ** e[j]
        if s:
            r[ee] = s
        elif ee in r:
            del r[ee]
    return r


def _heugcd(a: IPoly, b: IPoly, width: int) -> IPoly | None:
    """Heuristic gcd by evaluation and balanced-digit reconstruction.

    Inputs are primitive with integer coefficients.  A verified result
    is exact; None means the heuristic gave up.
    """
    if _is_const(a) or _is_const(b):
        return {(0,) * width: 1}
    j = -1
    for v in range(width - 1, -1, -1):
        if any(e[v] for e in a) or any(e[v] for e in b):
            j = v
            break
    na = max(abs(c) for c in a.values())
    nb = max(abs(c) for c in b.values())
    xi = 2 * min(na, nb) + 29
    for _ in range(6):
        ae = _ieval_var(a, j, xi)
        be = _ieval_var(b, j, xi)
        if ae and be:
            if _is_const(ae) and _is_const(be):
                g = gcd(abs(next(iter(ae.values()))), abs(next(iter(be.values()))))
                h: IPoly | None = {(0,) * width: g}
            else:
                pae, ca = _iprimitive(ae)
                pbe, cb = _iprimitive(be)
                cg = gcd(ca, cb)
                h = _heugcd(pae, pbe, width)
                if h is not None and cg != 1:
                    h = {e: c * cg for e, c in h.items()}
            if h is not None:
                cand = _iinterpolate(h, j, xi)
                if cand:
                    cand = _iprimitive(cand)[0]
                    if _is_const(cand):
                        return cand
                    first, second = (a, b) if len(a) <= len(b) else (b, a)
                    if _idivides(first, cand) and _idivides(second, cand):
                        return cand
        xi = xi * 27320508 // 10000000 + 1
    return None


def _iinterpolate(h: IPoly, j: int, xi: int) -> IPoly:
    """Read balanced base-xi digits of h off as coefficients of var j."""
    out: IPoly = {}
    i = 0
    half = xi // 2
    while h:
        nh: IPoly = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                if e[j]:
                    return {}
                out[e[:j] + (i,) + e[j + 1:]] = r
            if c != r:
                nh[e] = (c - r) // xi
        h = nh
        i += 1
    return out


def _gcd_pp(a: IPoly, b: IPoly, width: int) -> IPoly:
    """Pseudo-remainder gcd of two int primitive parts."""
    if _is_const(a) or _is_const(b):
        return {(0,) * width: 1}
    main = -1
    for j in range(width - 1, -1, -1):
        if any(e[j] for e in a) or any(e[j] for e in b):
            main = j
            break
    sa = _split_main(a, main)
    sb = _split_main(b, main)
    if max(sa) < max(sb):
        sa, sb = sb, sa
    if max(sb) == 0:
        # One side does not involve the main variable: the gcd cannot
        # either, so recurse on the other side's coefficient content.
        return p_gcd(_content_main(sa), _join_main(sb, main))
    ppa, ca = _primitive_main(sa)
    ppb, cb = _primitive_main(sb)
    cont = p_gcd(ca, cb)
    while True:
        if max(ppb) == 0:
            g: IPoly = {(0,) * width: 1}
            break
        r = _prem(ppa, ppb)
        if not r:
            g = _join_main(ppb, main)
            break
        ppa, ppb = ppb, _primitive_main(r)[0]
    return _iprimitive(p_mul(cont, g))[0]
