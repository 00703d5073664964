"""Explicit bases of diagonal entourages on desk-scale metric spaces.

Spaces are finite presentations with exact rational metrics; the two
bundled families are the convergent sequence {0} u {1/n} and a finite
metric fan.  Entourages built from a truncated index sequence inflate
around the compact pieces of the non-isolated part, with the product
space carrying the max metric so that every slack computation is a
rational comparison.

In the max metric the open r-ball around (k, k) is the square
B(k, r) x B(k, r), so every entourage here is a union of squares
(plus the diagonal for the reflexive ones) and is stored as rows: the
row of a point is the bitmask of the squares that hold it, and (x, y)
is a member iff the two rows share a bit.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .order_lab import FnSeq

TRIANGLE_SAMPLES = 20000  # seeded triples checked when a space has more


def _level(d):
    """The largest a >= 0 with d < 2^-a; -1 if d >= 1, inf if d <= 0."""
    num, den = d.as_integer_ratio()
    if num <= 0:
        return float("inf")
    if num >= den:
        return -1
    a = den.bit_length() - num.bit_length()
    while num << a >= den:
        a -= 1
    return a


class MetricSpacePresentation:
    """Finite point set, exact metric, and a compact decomposition.

    The level table that `ball_row` reads is built for a point of the
    space on its first use and kept (concurrent first uses build the
    same table, so the cache needs no lock).
    """

    __slots__ = ("points", "_dist", "decomposition", "name", "_pieces",
                 "_tables")

    def __init__(self, points, dist, decomposition, name="space",
                 validate=True):
        self.points = tuple(points)
        self._dist = dist
        self.decomposition = tuple(frozenset(k) for k in decomposition)
        self.name = name
        self._tables = dict.fromkeys(self.points)
        for part in self.decomposition:
            for p in part:
                if p not in self._tables:
                    raise ValueError(f"decomposition point {p!r} not in space")
        if validate:
            self._validate()
        self._pieces = tuple(tuple(part) for part in self.decomposition)

    def dist(self, x, y) -> Fraction:
        return self._dist(x, y)

    def _validate(self):
        pts = self.points
        for x in pts:
            if self.dist(x, x) != 0:
                raise ValueError(f"d({x!r}, {x!r}) must be 0")
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                d = self.dist(x, y)
                if d <= 0:
                    raise ValueError(f"d({x!r}, {y!r}) must be positive")
                if d != self.dist(y, x):
                    raise ValueError(f"metric is not symmetric on {x!r}, {y!r}")
        n = len(pts)
        if n ** 3 <= TRIANGLE_SAMPLES:
            triples = ((x, y, z) for x in pts for y in pts for z in pts)
        else:
            rng = random.Random(0)
            triples = ((rng.choice(pts), rng.choice(pts), rng.choice(pts))
                       for _ in range(TRIANGLE_SAMPLES))
        for x, y, z in triples:
            if self.dist(x, z) > self.dist(x, y) + self.dist(y, z):
                raise ValueError(
                    f"triangle inequality fails on {x!r}, {y!r}, {z!r}")

    def distance_to_diagonal_compact(self, x, y, n: int) -> Fraction:
        """Distance from (x, y) to K~_n = {(k, k) : k in K_n}."""
        part = self.decomposition[n]
        if not part:
            raise ValueError(f"compact piece {n} is empty")
        return min(max(self.dist(x, k), self.dist(y, k)) for k in part)

    def _level_table(self, p):
        """Per piece K_n: (levels, rows, offset), levels ascending and
        rows[i] the bits j of the k_j in K_n with _level(d(p, k_j)) >=
        levels[i]; the last row is 0."""
        table = []
        offset = 0
        for part in self._pieces:
            by_level = {}
            for j, k in enumerate(part):
                a = _level(self.dist(p, k))
                by_level[a] = by_level.get(a, 0) | 1 << j
            levels = sorted(by_level)
            rows = [0] * (len(levels) + 1)
            for i in range(len(levels) - 1, -1, -1):
                rows[i] = rows[i + 1] | by_level[levels[i]]
            table.append((levels, rows, offset))
            offset += len(part)
        return tuple(table)

    def ball_row(self, p, exponents) -> int:
        """Bit offset_n + j is set iff d(p, k_j) < 2^-exponents[n], with
        k_j the j-th point of K_n and offset_n the size of the earlier
        pieces.  Points outside the space are not kept."""
        table = self._tables.get(p)
        if table is None:
            table = self._level_table(p)
            if p in self._tables:
                self._tables[p] = table
        row = 0
        for (levels, rows, offset), a in zip(table, exponents):
            row |= rows[bisect_left(levels, a)] << offset
        return row


def convergent_sequence(n_max: int, decomposition=None) -> MetricSpacePresentation:
    """{0} u {1/n : n <= n_max} with the absolute-value metric."""
    points = [Fraction(0)] + [Fraction(1, n) for n in range(1, n_max + 1)]
    if decomposition is None:
        decomposition = [frozenset({Fraction(0)})]
    return MetricSpacePresentation(
        points, lambda x, y: abs(x - y), decomposition,
        name=f"convergent_sequence({n_max})", validate=False)


def metric_fan(spokes: int, depth: int) -> MetricSpacePresentation:
    """A finite fan: `spokes` sequences 1/k marching into a common center."""
    center = "c"
    points = [center] + [(s, k) for s in range(spokes)
                         for k in range(1, depth + 1)]

    def dist(x, y):
        if x == y:
            return Fraction(0)
        if x == center:
            return Fraction(1, y[1])
        if y == center:
            return Fraction(1, x[1])
        if x[0] == y[0]:
            return abs(Fraction(1, x[1]) - Fraction(1, y[1]))
        return Fraction(1, x[1]) + Fraction(1, y[1])

    return MetricSpacePresentation(
        points, dist, [frozenset({center})],
        name=f"metric_fan({spokes},{depth})", validate=True)


def finite_table_space(points, table, decomposition) -> MetricSpacePresentation:
    """Explicit symmetric distance table; validated exhaustively."""
    filled = {}
    for (x, y), d in table.items():
        filled[(x, y)] = Fraction(d)
        filled[(y, x)] = Fraction(d)
    for p in points:
        filled[(p, p)] = Fraction(0)

    def dist(x, y):
        try:
            return filled[(x, y)]
        except KeyError:
            raise ValueError(f"distance table misses the pair {(x, y)!r}")

    return MetricSpacePresentation(points, dist, decomposition, name="table")


# --- entourages -------------------------------------------------------------

class Entourage:
    """Symmetric relation given as a union of squares S x S.

    `row(x)` is the bitmask of the squares that hold x, so (x, y) is a
    member iff row(x) & row(y) != 0; a reflexive class also holds the
    whole diagonal, points outside every square included.
    """

    __slots__ = ()
    reflexive = True

    def row(self, x) -> int:
        raise NotImplementedError

    def contains(self, x, y) -> bool:
        return self.row(x) & self.row(y) != 0 or (self.reflexive and x == y)

    def pairs(self, space: MetricSpacePresentation):
        rows = [(x, self.row(x)) for x in space.points]
        diagonal = self.reflexive
        for x, rx in rows:
            for y, ry in rows:
                if rx & ry or (diagonal and x == y):
                    yield (x, y)

    def check_axioms(self, space: MetricSpacePresentation) -> bool:
        for x in space.points:
            if not self.contains(x, x):
                return False
            for y in space.points:
                if self.contains(x, y) != self.contains(y, x):
                    return False
        return True


def _alpha_values(space, alpha):
    count = len(space.decomposition)
    if isinstance(alpha, FnSeq):
        values = [alpha.get(n) for n in range(count)]
    else:
        values = list(alpha)
        if len(values) < count:
            raise ValueError(
                f"alpha has {len(values)} entries for {count} compact pieces "
                f"and no tail; pass an FnSeq for tail semantics")
        values = values[:count]
    if any(not isinstance(a, int) or a < 0 for a in values):
        raise ValueError("alpha entries must be natural numbers")
    return values


class UAlphaEntourage(Entourage):
    """Union over n of the open 2^-alpha(n) inflations of K~_n, plus
    the diagonal: one square B(k, 2^-alpha(n))^2 per k in K_n."""

    __slots__ = ("space", "alpha", "_exponents")

    def __init__(self, space: MetricSpacePresentation, alpha):
        self.space = space
        self.alpha = alpha
        self._exponents = _alpha_values(space, alpha)

    def row(self, x) -> int:
        return self.space.ball_row(x, self._exponents)


def u_alpha_member(space: MetricSpacePresentation, alpha, x, y) -> bool:
    """(x, y) on the diagonal or within 2^-alpha(n) of some K~_n."""
    return UAlphaEntourage(space, alpha).contains(x, y)


def base_monotone_check(space, alpha_pairs, point_pairs=None) -> bool:
    """alpha <= alpha' pointwise gives U_{alpha'} inside U_alpha.

    The map lands in the entourage filter: larger index sequences make
    smaller entourages.
    """
    if point_pairs is None:
        point_pairs = [(x, y) for x in space.points for y in space.points]
    for small, large in alpha_pairs:
        sv = _alpha_values(space, small)
        lv = _alpha_values(space, large)
        if any(s > l for s, l in zip(sv, lv)):
            raise ValueError("expected alpha <= alpha' pointwise")
        u_small = UAlphaEntourage(space, small)
        u_large = UAlphaEntourage(space, large)
        for x, y in point_pairs:
            if u_large.contains(x, y) and not u_small.contains(x, y):
                return False
    return True


# --- open diagonal neighbourhoods and the cofinal search ---------------------

class SpacedDiagonalNeighbourhood(Entourage):
    """Union of open max-metric balls around diagonal points: one square
    B(p, r)^2 per radius, without the diagonal.

    Each point's row is computed on first use and kept, so `radii` must
    not change afterwards (concurrent first uses compute the same row).
    """

    __slots__ = ("space", "radii", "_rows")
    reflexive = False

    def __init__(self, space: MetricSpacePresentation, radii):
        self.space = space
        self.radii = {p: Fraction(r) for p, r in radii.items()}
        if any(r <= 0 for r in self.radii.values()):
            raise ValueError("all radii must be strictly positive")
        known = set(space.points)
        for p in self.radii:
            if p not in known:
                raise ValueError(f"radius given for unknown point {p!r}")
        self._rows = {}

    def row(self, x) -> int:
        row = self._rows.get(x)
        if row is None:
            dist = self.space.dist
            row = 0
            for i, (p, r) in enumerate(self.radii.items()):
                if dist(x, p) < r:
                    row |= 1 << i
            self._rows[x] = row
        return row


@dataclass(frozen=True)
class FailureUpTo:
    """Honest one-sided failure: no slack at the reported resolution."""

    piece: int
    slack: Fraction


def base_cofinal_search(space: MetricSpacePresentation,
                        neighbourhood: SpacedDiagonalNeighbourhood):
    """An index sequence alpha with U_alpha u Delta inside the target.

    Per compact piece the largest needed radius is the minimum slack of
    the neighbourhood around K~_n; the returned alpha uses the smallest
    powers of two below those slacks.
    """
    for p in space.points:
        if not neighbourhood.contains(p, p):
            return FailureUpTo(-1, Fraction(0))
    values = []
    for n, part in enumerate(space.decomposition):
        slack = None
        for k in part:
            best = max(
                (r - space.dist(k, p) for p, r in neighbourhood.radii.items()),
                default=Fraction(0))
            slack = best if slack is None else min(slack, best)
        if slack is None or slack <= 0:
            return FailureUpTo(n, slack if slack is not None else Fraction(0))
        a = 0
        while Fraction(1, 2 ** a) > slack:
            a += 1
        values.append(a)
    tail = max(values) if values else 0
    return FnSeq(tuple(values), tail)


def audit_entourage_containment(space, entourage: Entourage,
                                neighbourhood) -> list:
    """Every representable pair of the entourage must pass the target."""
    return [(x, y) for x, y in entourage.pairs(space)
            if not neighbourhood.contains(x, y)]


def composition_search(space, alpha, sample_triples=None, max_bump: int = 8):
    """alpha'' with U_{alpha''} o U_{alpha''} inside U_alpha on samples."""
    base_vals = _alpha_values(space, alpha)
    target = UAlphaEntourage(space, alpha)
    if sample_triples is None:
        pts = space.points
        sample_triples = [(x, y, z) for x in pts for y in pts for z in pts] \
            if len(pts) ** 3 <= 8000 else None
    if sample_triples is None:
        rng = random.Random(1)
        pts = space.points
        sample_triples = [(rng.choice(pts), rng.choice(pts), rng.choice(pts))
                          for _ in range(4000)]
    for bump in range(1, max_bump + 1):
        cand = FnSeq(tuple(v + bump for v in base_vals),
                     max(base_vals) + bump if base_vals else bump)
        u = UAlphaEntourage(space, cand)
        ok = True
        for x, y, z in sample_triples:
            if u.contains(x, y) and u.contains(y, z) and not target.contains(x, z):
                ok = False
                break
        if ok:
            return cand
    return None


# --- countable spaces: coalescing per-point bases ------------------------------

def principal_base(x):
    """Base map of an isolated point: every index gives {x}."""
    return lambda index: frozenset({x})


def tail_base(space: MetricSpacePresentation):
    """Base map of the limit 0 in the convergent sequence: tails from k.

    The index enters through its first coordinate.
    """
    zero = Fraction(0)
    pts = sorted((p for p in space.points if p != zero), reverse=True)

    def base(index: FnSeq):
        k = index.get(0)
        members = {zero} | {p for p in pts if p <= Fraction(1, max(k, 1))}
        return frozenset(members)

    return base


class UnionSquaresEntourage(Entourage):
    """Union over points of i_x(f(x)) x i_x(f(x)): one square per block."""

    __slots__ = ("blocks", "_rows")
    reflexive = False

    def __init__(self, blocks):
        self.blocks = tuple(frozenset(b) for b in blocks)
        rows = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                rows[x] = rows.get(x, 0) | 1 << i
        self._rows = rows

    def row(self, x) -> int:
        return self._rows.get(x, 0)


class ExplicitEntourage(UnionSquaresEntourage):
    """The diagonal plus the square {x, y}^2 of every listed pair."""

    __slots__ = ()
    reflexive = True

    def __init__(self, pairs):
        super().__init__({x, y} for x, y in pairs)


def countable_base(space: MetricSpacePresentation, point_bases,
                   f) -> UnionSquaresEntourage:
    """Coalesce monotone per-point bases along f: point -> index.

    point_bases maps every point to a monotone base map FnSeq ->
    neighbourhood; the result is the union of squares i_x(f(x))^2,
    monotone in f into the entourage filter.
    """
    blocks = []
    for x in space.points:
        base = point_bases[x]
        idx = f[x]
        block = base(idx)
        if x not in block:
            raise ValueError(f"base of {x!r} does not contain the point")
        blocks.append(block)
    return UnionSquaresEntourage(blocks)
