"""Directed-set machinery on finite truncations.

Finite directed sets are Tukey-trivial, so every genuinely infinite
claim here travels as a certificate: truncated sequences carry an
eventually-constant tail, almost-disjoint families are described by
eventually periodic branches, and the chain conversion reports which
poset points overflowed the truncation instead of silently capping
them into a bogus witness.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm


class FinitePoset:
    """Explicit finite partial order, validated on construction: below[i]
    is the bitmask of the positions j with elements[j] <= elements[i]."""

    __slots__ = ("elements", "below", "index")

    def __init__(self, elements, le_pairs):
        els = self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(els)}
        if len(self.index) != len(els):
            raise ValueError("poset elements must be distinct")
        below = [0] * len(els)
        for a, b in le_pairs:
            if a not in self.index or b not in self.index:
                raise ValueError(f"relation mentions unknown element {(a, b)}")
            below[self.index[b]] |= 1 << self.index[a]
        for i, x in enumerate(els):
            if not below[i] >> i & 1:
                raise ValueError(f"relation is not reflexive at {x!r}")
        for i, m in enumerate(below):
            for j in range(i):
                if m >> j & 1 and below[j] >> i & 1:
                    raise ValueError(f"antisymmetry fails on {els[j]!r}, {els[i]!r}")
        for c, m in enumerate(below):
            for b in range(len(els)):
                extra = below[b] & ~m if m >> b & 1 else 0
                if extra:
                    a = (extra & -extra).bit_length() - 1
                    raise ValueError(
                        f"transitivity fails: {els[a]!r} <= {els[b]!r} <= {els[c]!r}")
        self.below = tuple(below)

    @classmethod
    def chain(cls, n: int):
        return cls(range(n), {(i, j) for i in range(n) for j in range(i, n)})

    def le(self, a, b) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and self.below[j] >> i & 1 == 1

    def __len__(self):
        return len(self.elements)


def _positions(f, d: FinitePoset, e: FinitePoset) -> list:
    """Position in E of each f(x), x in D order; None outside E."""
    missing = [x for x in d.elements if x not in f]
    if missing:
        raise ValueError(f"map is partial; missing {missing[:3]}")
    return [e.index.get(f[x]) for x in d.elements]


def check_monotone(f, d: FinitePoset, e: FinitePoset) -> bool:
    """x <= y in D implies f(x) <= f(y) in E, exhaustively."""
    pos = _positions(f, d, e)  # D is reflexive: a value outside E fails
    return None not in pos and all(e.below[q] >> p & 1
                                   for y, q in enumerate(pos)
                                   for x, p in enumerate(pos)
                                   if d.below[y] >> x & 1)


def check_cofinal(f, d: FinitePoset, e: FinitePoset) -> bool:
    """Every element of E lies below some f(x), exhaustively."""
    cover = 0
    for p in _positions(f, d, e):
        if p is not None:
            cover |= e.below[p]
    return cover == (1 << len(e)) - 1


# --- almost-disjoint branches -------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """Eventually periodic infinite binary branch."""

    preperiod: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        if set(self.preperiod + self.period) - {"0", "1"}:
            raise ValueError("branches are binary strings")

    def bits(self, count: int) -> str:
        """The first count bits of the branch."""
        reps = count // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:max(count, 0)]

    def same_branch(self, other: "Branch") -> bool:
        bound = (max(len(self.preperiod), len(other.preperiod))
                 + lcm(len(self.period), len(other.period)))
        return self.bits(bound) == other.bits(bound)


def prefix_code(bits: str) -> int:
    """Standard binary-string-to-natural bijection: '' -> 0, '0' -> 1, ..."""
    return int("1" + bits, 2) - 1


def branch_codes(branch: Branch, depth: int) -> frozenset:
    bits = branch.bits(depth)
    return frozenset(prefix_code(bits[:k]) for k in range(depth + 1))


# The deepest join that the suites, tests and benchmark cut; a join holds
# depth + 1 prefix codes of up to depth bits per branch.
MAX_AD_DEPTH = 64


def disambiguation_depth(branches) -> int:
    """Two distinct branches agreeing this far agree forever."""
    branches = list(branches)
    if not branches:
        return 0
    periods = [len(b.period) for b in branches]
    return (max(len(b.preperiod) for b in branches)
            + lcm(*periods) + max(periods))


@dataclass(frozen=True)
class AdJoin:
    """Join of prefix-set characteristic functions, cut at a depth."""

    codes: frozenset
    depth: int

    def le(self, other: "AdJoin") -> bool:
        if self.depth != other.depth:
            raise ValueError("joins must be evaluated at the same depth")
        return self.codes <= other.codes


def ad_join(branches, depth: int) -> AdJoin:
    """Pointwise join of the prefix-set indicators, to the given depth.

    The depth is checked before the branches are compared, so that no
    comparison runs past MAX_AD_DEPTH bits."""
    branches = list(branches)
    if type(depth) is not int:
        raise ValueError(f"depth must be an integer, got {type(depth).__name__}")
    if depth > MAX_AD_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap {MAX_AD_DEPTH}")
    required = disambiguation_depth(branches)
    if depth < required:
        raise ValueError(
            f"depth {depth} is below the disambiguation bound {required}")
    for i, r in enumerate(branches):
        for s in branches[i + 1:]:
            if r.same_branch(s):
                raise ValueError("branches must be pairwise distinct")
    codes = frozenset().union(*(branch_codes(b, depth) for b in branches)) \
        if branches else frozenset()
    return AdJoin(codes, depth)


def branch_subset(s, t) -> bool:
    """The branch criterion: every branch of s already occurs in t."""
    return all(any(r.same_branch(x) for x in t) for r in s)


# --- chain conversion -----------------------------------------------------------

@dataclass(frozen=True)
class TukeyConversion:
    mapping: dict
    overflow: frozenset
    tau: int
    is_monotone: bool
    is_cofinal: bool
    certificate_valid: bool | None = None


def tukey_to_monotone(g, poset: FinitePoset, certificate=None) -> TukeyConversion:
    """Convert a chain map g: 0..tau-1 -> D into f(x) = 1 + max{eta: g(eta) <= x}.

    Values are capped into the chain; points where the whole chain image
    sits below x are reported as overflow and never witness cofinality.
    A certificate maps each target level to a non-overflow witness.
    """
    g = list(g)
    tau = len(g)
    if tau == 0:
        raise ValueError("the chain must be non-empty")
    for x in g:
        if x not in poset.index:
            raise ValueError(f"g maps outside the poset: {x!r}")
    top_down = [1 << poset.index[x] for x in reversed(g)]
    mapping, overflow, top = {}, [], -1  # top: largest non-overflow value
    at_most = [0] * tau  # at_most[v]: positions mapped to a value <= v
    for i, (x, m) in enumerate(zip(poset.elements, poset.below)):
        v = tau  # 1 + max{eta: g(eta) <= x}, counted down from the top
        for bit in top_down:
            if m & bit:
                break
            v -= 1
        if v == tau:
            overflow.append(x)
            v -= 1
        elif v > top:
            top = v
        mapping[x] = v
        at_most[v] |= 1 << i
    for v in range(1, tau):
        at_most[v] |= at_most[v - 1]
    monotone = not any(m & ~at_most[v]
                       for m, v in zip(poset.below, mapping.values()))
    overflow = frozenset(overflow)
    cofinal = top == tau - 1
    cert_ok = None
    if certificate is not None:
        cert_ok = all(
            xi in certificate
            and certificate[xi] not in overflow
            and certificate[xi] in mapping
            and mapping[certificate[xi]] >= xi
            for xi in range(1, tau))
        if tau == 1:  # no level to witness, but some point must not overflow
            cert_ok = cofinal
    return TukeyConversion(mapping, overflow, tau, monotone, cofinal, cert_ok)


def search_unbounded_certificate(g, poset: FinitePoset):
    """A level-witness family proving the converted map cofinal, if any."""
    return unbounded_certificate(tukey_to_monotone(g, poset))


def unbounded_certificate(conv: TukeyConversion):
    """The certificate of a conversion that is cofinal, else None.

    Level xi is witnessed by the first non-overflow point, in element
    order, whose value reaches xi.
    """
    if not conv.is_cofinal:
        return None
    cert = {}
    for x, v in conv.mapping.items():
        if x not in conv.overflow:
            cert.update(dict.fromkeys(range(len(cert) + 1, v + 1), x))
    return cert


# --- truncated sequences ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FnSeq:
    """Finite value array plus an eventually-constant tail."""

    values: tuple
    tail: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values) or self.tail < 0:
            raise ValueError("entries must be natural numbers")

    def get(self, i: int) -> int:
        return self.values[i] if i < len(self.values) else self.tail

    def le(self, other: "FnSeq") -> bool:
        span = max(len(self.values), len(other.values))
        return (all(self.get(i) <= other.get(i) for i in range(span))
                and self.tail <= other.tail)

    def join(self, other: "FnSeq") -> "FnSeq":
        span = max(len(self.values), len(other.values))
        return FnSeq(tuple(max(self.get(i), other.get(i)) for i in range(span)),
                     max(self.tail, other.tail))


def diagonal_witness(rows):
    """z(x) = a_x(x) + 1, never dominated by any row; with the witness list.

    rows are indexable, and row x is read at x only.  Each certificate entry records (coordinate, z value, row value) with
    z strictly larger at that coordinate.
    """
    diagonal = [row[x] for x, row in enumerate(rows)]
    z = tuple(a + 1 for a in diagonal)
    return z, [(beta, a + 1, a) for beta, a in enumerate(diagonal)]


# --- box neighbourhoods of the free locally convex sum ----------------------------

class BoxNeighbourhood:
    """Membership predicate for a box around zero with radii 1/f(beta)."""

    __slots__ = ("f",)

    def __init__(self, f: FnSeq):
        if any(v == 0 for v in f.values) or f.tail == 0:
            raise ValueError("box indices must satisfy f(beta) >= 1")
        self.f = f

    def contains(self, vector) -> bool:
        """vector: finitely supported, coordinate -> exact rational."""
        for beta, value in vector.items():
            if abs(Fraction(value)) >= Fraction(1, self.f.get(beta)):
                return False
        return True


def box_nbhd(f: FnSeq) -> BoxNeighbourhood:
    return BoxNeighbourhood(f)


# --- exhaustive poset enumeration --------------------------------------------------

def poset_masks_up_to_iso(n: int):
    """All posets on n points, one per isomorphism class, as below-masks.

    below[x] is the bitmask of {y : y <= x}.  Every poset admits a
    linear extension, so closing each edge subset of the upper triangle
    (in one pass, as i < j) is exhaustive; each class is represented by
    its lexicographically smallest relabeling.
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]
    seen = set()
    for mask in range(1 << len(pairs)):
        below = [1 << x for x in range(n)]
        for bit, (i, j) in enumerate(pairs):  # below[i] is closed already
            if mask >> bit & 1:
                below[j] |= below[i]
        seen.add(tuple(below))
    relabel = []  # per permutation: old mask -> new mask, new position -> old
    for order in permutations(range(n)):
        table = [sum(1 << order.index(x) for x in range(n) if m >> x & 1)
                 for m in range(1 << n)]
        relabel.append((table, order))
    return sorted({min(tuple(table[below[x]] for x in order)
                       for table, order in relabel) for below in seen})


def poset_from_masks(below) -> FinitePoset:
    n = len(below)
    rel = {(y, x) for x in range(n) for y in range(n) if below[x] >> y & 1}
    return FinitePoset(range(n), rel)
