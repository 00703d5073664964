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
    """Explicit finite partial order; validated on construction."""

    __slots__ = ("elements", "_le")

    def __init__(self, elements, le_pairs):
        self.elements = tuple(elements)
        index = set(self.elements)
        if len(index) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        rel = {(a, b) for a, b in le_pairs}
        for a, b in rel:
            if a not in index or b not in index:
                raise ValueError(f"relation mentions unknown element {(a, b)}")
        for x in self.elements:
            if (x, x) not in rel:
                raise ValueError(f"relation is not reflexive at {x!r}")
        for a, b in rel:
            if a != b and (b, a) in rel:
                raise ValueError(f"antisymmetry fails on {a!r}, {b!r}")
        for a, b in rel:
            for c in self.elements:
                if (b, c) in rel and (a, c) not in rel:
                    raise ValueError(
                        f"transitivity fails: {a!r} <= {b!r} <= {c!r}")
        self._le = frozenset(rel)

    @classmethod
    def chain(cls, n: int):
        return cls(range(n), {(i, j) for i in range(n) for j in range(i, n)})

    def le(self, a, b) -> bool:
        return (a, b) in self._le

    def pairs(self):
        return self._le

    def __len__(self):
        return len(self.elements)


def check_monotone(f, d: FinitePoset, e: FinitePoset) -> bool:
    """x <= y in D implies f(x) <= f(y) in E, exhaustively."""
    missing = [x for x in d.elements if x not in f]
    if missing:
        raise ValueError(f"map is partial; missing {missing[:3]}")
    return all(e.le(f[x], f[y]) for x, y in d.pairs())


def check_cofinal(f, d: FinitePoset, e: FinitePoset) -> bool:
    """Every element of E lies below some f(x), exhaustively."""
    missing = [x for x in d.elements if x not in f]
    if missing:
        raise ValueError(f"map is partial; missing {missing[:3]}")
    image = [f[x] for x in d.elements]
    return all(any(e.le(y, v) for v in image) for y in e.elements)


def semilattice_extend(v, s, universe=None) -> frozenset:
    """Intersection over the finite index set; antitone in the set."""
    s = list(s)
    if not s:
        if universe is None:
            raise ValueError("empty index set and no configured universe")
        return frozenset(universe)
    out = frozenset(v[s[0]])
    for kappa in s[1:]:
        out &= frozenset(v[kappa])
    return out


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

    def bit(self, i: int) -> str:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def bits(self, count: int) -> str:
        return "".join(self.bit(i) for i in range(count))

    def same_branch(self, other: "Branch") -> bool:
        bound = (max(len(self.preperiod), len(other.preperiod))
                 + lcm(len(self.period), len(other.period)))
        return self.bits(bound) == other.bits(bound)


def prefix_code(bits: str) -> int:
    """Standard binary-string-to-natural bijection: '' -> 0, '0' -> 1, ..."""
    return int("1" + bits, 2) - 1


def branch_codes(branch: Branch, depth: int) -> frozenset:
    return frozenset(prefix_code(branch.bits(k)) for k in range(depth + 1))


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
    """Pointwise join of the prefix-set indicators, to the given depth."""
    branches = list(branches)
    for i, r in enumerate(branches):
        for s in branches[i + 1:]:
            if r.same_branch(s):
                raise ValueError("branches must be pairwise distinct")
    required = disambiguation_depth(branches)
    if depth < required:
        raise ValueError(
            f"depth {depth} is below the disambiguation bound {required}")
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
    elements = set(poset.elements)
    for x in g:
        if x not in elements:
            raise ValueError(f"g maps outside the poset: {x!r}")
    raw = {}
    for x in poset.elements:
        etas = [eta for eta in range(tau) if poset.le(g[eta], x)]
        raw[x] = 1 + max(etas) if etas else 0
    mapping = {x: min(v, tau - 1) for x, v in raw.items()}
    overflow = frozenset(x for x, v in raw.items() if v == tau)
    monotone = all(mapping[x] <= mapping[y] for x, y in poset.pairs())
    witnesses = [mapping[x] for x in poset.elements if x not in overflow]
    cofinal = bool(witnesses) and max(witnesses) == tau - 1
    cert_ok = None
    if certificate is not None:
        cert_ok = all(
            xi in certificate
            and certificate[xi] not in overflow
            and certificate[xi] in raw
            and mapping[certificate[xi]] >= xi
            for xi in range(1, tau))
        if tau == 1:
            cert_ok = bool(witnesses)
    return TukeyConversion(mapping, overflow, tau, monotone, cofinal, cert_ok)


def search_unbounded_certificate(g, poset: FinitePoset):
    """A level-witness family proving the converted map cofinal, if any."""
    conv = tukey_to_monotone(g, poset)
    tau = conv.tau
    cert = {}
    for xi in range(1, tau):
        witness = next((x for x in poset.elements
                        if x not in conv.overflow and conv.mapping[x] >= xi),
                       None)
        if witness is None:
            return None
        cert[xi] = witness
    if tau == 1 and all(x in conv.overflow for x in poset.elements):
        return None
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

    Each certificate entry records (coordinate, z value, row value) with
    z strictly larger at that coordinate.
    """
    rows = list(rows)
    tau = len(rows)

    def at(row, i):
        return row.get(i) if isinstance(row, FnSeq) else row[i]

    z = tuple(at(rows[x], x) + 1 for x in range(tau))
    certificate = []
    for beta in range(tau):
        certificate.append((beta, z[beta], at(rows[beta], beta)))
    return z, certificate


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


@dataclass(frozen=True)
class BoxUnboundedCertificate:
    beta: int
    bound: Fraction
    member: FnSeq

    def check(self, vector) -> bool:
        """Membership in the member box forces |x_beta| < the bound."""
        if not BoxNeighbourhood(self.member).contains(vector):
            return True
        return abs(Fraction(vector.get(self.beta, 0))) < self.bound


def box_unbounded_cert(family, beta: int, strength: int) -> BoxUnboundedCertificate:
    """Pick a family member with f(beta) >= strength; its box pins x_beta.

    family is a callable index -> FnSeq (a parametric description of an
    unbounded set of indices).  This is the computational content of
    membership in the whole intersection forcing the coordinate to zero.
    """
    member = family(strength)
    if member.get(beta) < strength:
        raise ValueError(
            f"family member has f({beta}) = {member.get(beta)} < {strength}")
    return BoxUnboundedCertificate(beta, Fraction(1, strength), member)


# --- exhaustive poset enumeration --------------------------------------------------

def poset_masks_up_to_iso(n: int):
    """All posets on n points, one per isomorphism class, as below-masks.

    below[x] is the bitmask of {y : y <= x}.  Every poset admits a
    linear extension, so closing each antichain-respecting edge subset
    of the upper triangle and deduplicating under relabeling is
    exhaustive.
    """
    if n == 0:
        return [()]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for mask in range(1 << len(pairs)):
        adj = [[False] * n for _ in range(n)]
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                adj[i][j] = True
        for k in range(n):
            for i in range(n):
                if adj[i][k]:
                    row_k = adj[k]
                    row_i = adj[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        below = tuple(
            (1 << x) | sum(1 << y for y in range(n) if adj[y][x])
            for x in range(n))
        seen.add(below)
    canon = set()
    for below in seen:
        best = None
        for sigma in permutations(range(n)):
            remapped = [0] * n
            for x in range(n):
                m = below[x]
                nm = 0
                for y in range(n):
                    if m >> y & 1:
                        nm |= 1 << sigma[y]
                remapped[sigma[x]] = nm
            key = tuple(remapped)
            if best is None or key < best:
                best = key
        canon.add(best)
    return sorted(canon)


def poset_from_masks(below) -> FinitePoset:
    n = len(below)
    rel = {(y, x) for x in range(n) for y in range(n) if below[x] >> y & 1}
    return FinitePoset(range(n), rel)
