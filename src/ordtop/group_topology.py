"""Symmetric products, conjugation unions and truncated membership
decisions in free and free-abelian groups.

Truncation semantics are one-sided throughout: a Yes answer carries a
checkable factorization certificate, while NoUpTo(N) only rules out
factorizations using at most N of the given sets.  Symmetric products
come from one depth-first generator over injective index sequences: it
shares each prefix product among the orders extending it, drops partial
products whose length the remaining sets can no longer bring into the
wanted window, and is capped at 8 factors.
"""

import re
from dataclasses import dataclass

FACTOR_CAP = 8

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9']*)(?:\^(-?\d+))?$")


class UnknownGeneratorError(ValueError):
    pass


class FreeGroup:
    """Finitely generated free group; words are reduced run-length tuples."""

    abelian = False

    def __init__(self, generators):
        generators = tuple(generators)
        if len(set(generators)) != len(generators) or not generators:
            raise ValueError("generators must be distinct and non-empty")
        self.generators = generators
        self._index = {g: i for i, g in enumerate(generators)}
        self.identity = ()

    def reduce(self, letters):
        out = []
        for g, e in letters:
            if g not in self._index:
                raise UnknownGeneratorError(f"unknown generator id {g!r}")
            if not e:
                continue
            if out and out[-1][0] == g:
                ne = out[-1][1] + e
                if ne:
                    out[-1] = (g, ne)
                else:
                    out.pop()
            else:
                out.append((g, e))
        return tuple(out)

    def mul(self, u, v):
        out = list(u)
        for g, e in v:
            if out and out[-1][0] == g:
                ne = out[-1][1] + e
                if ne:
                    out[-1] = (g, ne)
                else:
                    out.pop()
            else:
                out.append((g, e))
        return tuple(out)

    def inv(self, w):
        return tuple((g, -e) for g, e in reversed(w))

    def conjugate(self, w, h):
        return self.mul(self.mul(self.inv(h), w), h)

    def length(self, w) -> int:
        return sum(abs(e) for _, e in w)

    def parse(self, text: str):
        if not isinstance(text, str):
            raise ValueError(f"word must be a string, got {type(text).__name__}")
        text = text.strip()
        if not text or text == "e":
            return self.identity
        letters = []
        for tok in text.split():
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"bad word token {tok!r}")
            g, e = m.group(1), int(m.group(2) or 1)
            if g not in self._index:
                raise UnknownGeneratorError(f"unknown generator id {g!r}")
            letters.append((g, e))
        return self.reduce(letters)

    def format(self, w) -> str:
        if not w:
            return "e"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w)


class FreeAbelianGroup:
    """Finitely supported integer vectors over the generator ids."""

    abelian = True

    def __init__(self, generators):
        generators = tuple(generators)
        if len(set(generators)) != len(generators) or not generators:
            raise ValueError("generators must be distinct and non-empty")
        self.generators = generators
        self._index = {g: i for i, g in enumerate(generators)}
        self.identity = ()

    def reduce(self, letters):
        acc = {}
        for g, e in letters:
            if g not in self._index:
                raise UnknownGeneratorError(f"unknown generator id {g!r}")
            acc[g] = acc.get(g, 0) + e
        return tuple(sorted(
            ((g, e) for g, e in acc.items() if e),
            key=lambda item: self._index[item[0]]))

    def mul(self, u, v):
        return self.reduce(u + v)

    def inv(self, w):
        return tuple((g, -e) for g, e in w)

    def conjugate(self, w, h):
        return w

    def length(self, w) -> int:
        return sum(abs(e) for _, e in w)

    parse = FreeGroup.parse
    format = FreeGroup.format


class SubsetSpec:
    """Finite set of canonical words of one group."""

    __slots__ = ("group", "words")

    def __init__(self, group, words):
        ws = set()
        for w in words:
            w = tuple(w)
            if group.reduce(w) != w:
                raise ValueError(f"word {w!r} is not in canonical form")
            ws.add(w)
        self.group = group
        self.words = frozenset(ws)

    @classmethod
    def from_texts(cls, group, texts):
        return cls(group, (group.parse(t) for t in texts))

    def is_symmetric(self) -> bool:
        return all(self.group.inv(w) in self.words for w in self.words)

    def union(self, other: "SubsetSpec") -> "SubsetSpec":
        return SubsetSpec(self.group, self.words | other.words)

    def __contains__(self, w):
        return tuple(w) in self.words

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)

    def __eq__(self, other):
        return (isinstance(other, SubsetSpec) and self.words == other.words
                and self.group is other.group)

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        items = sorted(self.group.format(w) for w in self.words)
        return f"SubsetSpec({{{', '.join(items)}}})"


class PhiMap:
    """Total map group -> finite subsets, finitely described."""

    __slots__ = ("default", "exceptions")

    def __init__(self, default: SubsetSpec, exceptions=None):
        self.default = default
        self.exceptions = dict(exceptions or {})

    def value(self, g) -> SubsetSpec:
        return self.exceptions.get(tuple(g), self.default)

    def pointwise_le(self, other: "PhiMap") -> bool:
        """self(g) subset of other(g) for every group element."""
        if not self.default.words <= other.default.words:
            return False
        points = set(self.exceptions) | set(other.exceptions)
        return all(self.value(p).words <= other.value(p).words for p in points)

    def translate(self, h, group) -> "PhiMap":
        """The right translate: g maps to self(g h)."""
        h = tuple(h)
        moved = {}
        for p, val in self.exceptions.items():
            moved[group.mul(p, group.inv(h))] = val
        return PhiMap(self.default, moved)


# --- products and symmetric products --------------------------------------

def product_set(bs) -> SubsetSpec:
    """Exact ordered product set of finitely many subsets."""
    bs = list(bs)
    if not bs:
        raise ValueError("product of an empty list of sets")
    if len(bs) > FACTOR_CAP:
        raise ValueError(f"{len(bs)} factors exceed the cap {FACTOR_CAP}")
    group = bs[0].group
    acc = {group.identity}
    for b in bs:
        acc = {group.mul(u, v) for u in acc for v in b.words}
    return SubsetSpec(group, acc)


@dataclass(frozen=True)
class SymYes:
    n: int
    sigma: tuple  # 1-based set indices in multiplication order
    factors: tuple

    @property
    def is_member(self) -> bool:
        return True


@dataclass(frozen=True)
class SymNoUpTo:
    horizon: int

    @property
    def is_member(self) -> bool:
        return False


def _sym_walk(group, sets, horizon, lo=0, hi=None):
    """Depth-first walk over injective index sequences.

    Products along a prefix are computed once and shared by every
    permutation extending it.  At each complete initial segment {1..k}
    the walk yields (k, sigma, products): sigma is the 1-based index
    order and products maps every word reached to its first-found
    factors.  The caller must not mutate products.  Each set's words
    are walked sorted by their letters as (generator index, exponent)
    pairs, so the certificates do not depend on string hashing.

    With hi set, a partial product w is kept iff
    lo - r <= |w| <= hi + r, where r is the sum of the longest-word
    lengths of the still-unused sets: only such words can still end
    with a length in [lo, hi], so nothing is walked when lo exceeds the
    sum over all sets.  With hi None no lengths are computed.
    """
    if hi is None:
        maxlens = [0] * horizon
    else:
        maxlens = [max((group.length(w) for w in s.words), default=0)
                   for s in sets[:horizon]]
        if lo > sum(maxlens):
            return
    index = group._index
    words = [sorted(s.words, key=lambda w: [(index[g], e) for g, e in w])
             for s in sets[:horizon]]

    def rec(sigma, used, products, room):
        k = len(sigma)
        if k and used == (1 << k) - 1:
            yield k, sigma, products
        if k == horizon:
            return
        for nxt in range(horizon):
            bit = 1 << nxt
            if used & bit:
                continue
            rest = room - maxlens[nxt]
            nprod = {}
            for w, fac in products.items():
                for b in words[nxt]:
                    nw = group.mul(w, b)
                    if nw in nprod or (hi is not None and not
                                       lo - rest <= group.length(nw) <= hi + rest):
                        continue
                    nprod[nw] = fac + (b,)
            if nprod:
                yield from rec(sigma + (nxt + 1,), used | bit, nprod, rest)

    yield from rec((), 0, {group.identity: ()}, sum(maxlens))


def _check_horizon(horizon: int, count: int) -> None:
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    if horizon > min(count, FACTOR_CAP):
        raise ValueError(f"horizon {horizon} exceeds the available sets or cap")


def sym_member(w, bs, horizon: int):
    """Membership of w in the truncated symmetric product of bs.

    Yes answers are definitive and certified; NoUpTo(horizon) only
    excludes factorizations with at most `horizon` factors.
    """
    bs = list(bs)
    _check_horizon(horizon, len(bs))
    w = tuple(w)
    if horizon == 0:
        return SymNoUpTo(0)
    group = bs[0].group
    length = group.length(w)
    for k, sigma, products in _sym_walk(group, bs, horizon, length, length):
        if w in products:
            return SymYes(k, sigma, products[w])
    return SymNoUpTo(horizon)


def sym_set(bs, horizon: int, length_cap=None) -> dict:
    """All members of the truncated symmetric product, with certificates.

    With a length_cap, only words of length at most the cap are
    guaranteed to be present (partial products are pruned by how much
    the remaining factors could still cancel).
    """
    bs = list(bs)
    _check_horizon(horizon, len(bs))
    out: dict = {}
    for k, sigma, products in _sym_walk(bs[0].group, bs, horizon,
                                        hi=length_cap):
        for w, fac in products.items():
            if w not in out:
                out[w] = SymYes(k, sigma, fac)
    return out


def verify_certificate(group, w, bs, yes: SymYes) -> bool:
    if len(yes.sigma) != yes.n or len(yes.factors) != yes.n:
        return False
    if sorted(yes.sigma) != list(range(1, yes.n + 1)):
        return False
    acc = group.identity
    for idx, factor in zip(yes.sigma, yes.factors):
        if factor not in bs[idx - 1].words:
            return False
        acc = group.mul(acc, factor)
    return acc == tuple(w)


# --- conjugation unions ------------------------------------------------------

def v_phi(phi: PhiMap, support, group) -> SubsetSpec:
    """Union of g^{-1} (phi(g) u phi(g)^{-1}) g over the finite support."""
    words = set()
    for g in support:
        g = tuple(g)
        inner = phi.value(g)
        for w in inner.words:
            words.add(group.conjugate(w, g))
            words.add(group.conjugate(group.inv(w), g))
    return SubsetSpec(group, words)


def i_of_entourage(pairs, group=None, abelian: bool = False):
    """Word set {x^-1 y, x y^-1 : (x, y) in V} of a finite entourage.

    Points become generators; the relation must be symmetric and
    reflexive on the points it mentions.  Returns (group, SubsetSpec).
    """
    pair_set = {(str(x), str(y)) for x, y in pairs}
    points = sorted({p for xy in pair_set for p in xy})
    if not points:
        raise ValueError("empty entourage")
    for x, y in pair_set:
        if (y, x) not in pair_set:
            raise ValueError(f"entourage is not symmetric: missing {(y, x)}")
    for p in points:
        if (p, p) not in pair_set:
            raise ValueError(f"entourage is not reflexive: missing {(p, p)}")
    if group is None:
        group = FreeAbelianGroup(points) if abelian else FreeGroup(points)
    words = set()
    for x, y in pair_set:
        wx = group.reduce(((x, -1), (y, 1)))
        words.add(wx)
        words.add(group.reduce(((x, 1), (y, -1))))
    return group, SubsetSpec(group, words)


# --- SIN base membership ------------------------------------------------------

def sin_base_member(w, vs, horizon: int, support=None, group=None):
    """Membership in the truncated SIN base element built from vs.

    Each of the first `horizon` sets contributes one factor from
    V_n u V_n^{-1}, conjugated over the support in the free case, or is
    omitted; omission is the identity even when it is not listed.  In
    the abelian case this collapses to a partial-sum dynamic programme.
    """
    vs = list(vs)
    _check_horizon(horizon, len(vs))
    if group is None:
        group = vs[0].group
    w = tuple(w)
    if horizon == 0:
        return SymYes(0, (), ()) if w == group.identity else SymNoUpTo(0)
    if group.abelian:
        reachable = {group.identity: ()}
        for n in range(horizon):
            sym_words = set(vs[n].words) | {group.inv(x) for x in vs[n].words}
            nxt = dict(reachable)  # omitted summand
            for s, fac in reachable.items():
                for v in sym_words:
                    t = group.mul(s, v)
                    if t not in nxt:
                        nxt[t] = fac + ((n + 1, v),)
            reachable = nxt
            if w in reachable and n + 1 == horizon:
                break
        if w in reachable:
            fac = reachable[w]
            return SymYes(len(fac), tuple(i for i, _ in fac),
                          tuple(v for _, v in fac))
        return SymNoUpTo(horizon)
    support = [tuple(g) for g in (support or [group.identity])]
    factors = []
    for v in vs[:horizon]:
        words = set()
        for g in support:
            for x in v.words:
                words.add(group.conjugate(x, g))
                words.add(group.conjugate(group.inv(x), g))
        words.add(group.identity)  # omission
        factors.append(SubsetSpec(group, words))
    return sym_member(w, factors, horizon)


# --- monotonicity and the lemma checks ----------------------------------------

def rd_monotone_check(phis, psis, words, horizon, support, group) -> bool:
    """Yes under the smaller maps implies Yes under the larger ones."""
    phis, psis = list(phis), list(psis)
    if len(phis) != len(psis):
        raise ValueError("the two map sequences must have equal length")
    for n, (phi, psi) in enumerate(zip(phis, psis)):
        if not phi.pointwise_le(psi):
            raise ValueError(f"pointwise order fails at index {n + 1}")
    small = [v_phi(phi, support, group) for phi in phis]
    large = [v_phi(psi, support, group) for psi in psis]
    for w in words:
        w = tuple(w)
        if sym_member(w, small, horizon).is_member:
            if not sym_member(w, large, horizon).is_member:
                return False
    return True


def symmetry_violations(vsets, horizon) -> set:
    """Words in the truncated symmetric product whose inverse is missing."""
    group = vsets[0].group
    members = set(sym_set(vsets, horizon))
    return {w for w in members if group.inv(w) not in members}


def squaring_violations(phis, support, group, half_horizon) -> set:
    """Products u v escaping the doubled-horizon symmetric product.

    phis must be pointwise monotone; the even-indexed maps feed the
    half-horizon product, the full sequence the doubled one.
    """
    phis = list(phis)
    if len(phis) < 2 * half_horizon:
        raise ValueError("need 2 * half_horizon maps")
    for n in range(len(phis) - 1):
        if not phis[n + 1].pointwise_le(phis[n]):
            raise ValueError(f"maps are not pointwise monotone at {n + 1}")
    even = [v_phi(phis[2 * k + 1], support, group)
            for k in range(half_horizon)]
    full = [v_phi(phis[k], support, group) for k in range(2 * half_horizon)]
    small = set(sym_set(even, half_horizon))
    big = set(sym_set(full, 2 * half_horizon))
    bad = set()
    for u in small:
        for v in small:
            uv = group.mul(u, v)
            if uv not in big:
                bad.add(uv)
    return bad


def conjugation_violations(phis, support, h, group, horizon) -> set:
    """h^-1 sym<V_{phi^h}> h escaping sym<V_phi> over the moved support."""
    phis = list(phis)
    h = tuple(h)
    translated = [phi.translate(h, group) for phi in phis]
    left = [v_phi(phi, support, group) for phi in translated]
    moved_support = [group.mul(tuple(g), h) for g in support]
    right = [v_phi(phi, moved_support, group) for phi in phis]
    inner = set(sym_set(left, horizon))
    outer = set(sym_set(right, horizon))
    return {group.conjugate(w, h) for w in inner
            if group.conjugate(w, h) not in outer}


def birkhoff_kakutani_violations(chain, k) -> set:
    """sym over V_{k+2}.. escaping V_k, checked on the explicit sets.

    chain[n] are symmetric sets with chain[n+1]^2 inside chain[n]; both
    assumptions are verified before the containment is tested.
    """
    chain = list(chain)
    group = chain[0].group
    for n, spec in enumerate(chain):
        if not spec.is_symmetric():
            raise ValueError(f"chain set {n} is not symmetric")
        if group.identity not in spec.words:
            raise ValueError(f"chain set {n} misses the identity")
    for n in range(len(chain) - 1):
        square = product_set([chain[n + 1], chain[n + 1]])
        if not square.words <= chain[n].words:
            raise ValueError(f"squaring containment fails at level {n}")
    upper = chain[k + 2:]
    if not upper:
        return set()
    members = set(sym_set(upper, len(upper)))
    target = chain[k].words
    return {w for w in members if w not in target}


def union_filter_monotone(presentations, f, g) -> bool:
    """V(f) = union of V_n(f_n) grows along the pointwise order on f."""
    if len(f) != len(presentations) or len(g) != len(presentations):
        raise ValueError("index tuples must match the presentation count")
    if any(fi > gi for fi, gi in zip(f, g)):
        raise ValueError("expected f <= g pointwise")
    vf = set()
    vg = set()
    for vn, fi, gi in zip(presentations, f, g):
        vf |= vn(fi).words
        vg |= vn(gi).words
    return vf <= vg
