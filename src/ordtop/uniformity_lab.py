"""Explicit bases of diagonal entourages on desk-scale metric spaces.

Spaces are finite presentations with exact rational metrics; the two
bundled families are the convergent sequence {0} u {1/n} and a finite
metric fan.  Entourages built from a truncated index sequence inflate
around the compact pieces of the non-isolated part, with the product
space carrying the max metric so that every slack computation is a
rational comparison.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .order_lab import FnSeq


class MetricSpacePresentation:
    """Finite point set, exact metric, and a compact decomposition."""

    __slots__ = ("points", "_dist", "decomposition", "name")

    def __init__(self, points, dist, decomposition, name="space",
                 validate=True, sample_cap=20000, seed=0):
        self.points = tuple(points)
        self._dist = dist
        self.decomposition = tuple(frozenset(k) for k in decomposition)
        self.name = name
        for part in self.decomposition:
            for p in part:
                if p not in set(self.points):
                    raise ValueError(f"decomposition point {p!r} not in space")
        if validate:
            self._validate(sample_cap, seed)

    def dist(self, x, y) -> Fraction:
        return self._dist(x, y)

    def _validate(self, sample_cap, seed):
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
        if n ** 3 <= sample_cap:
            triples = ((x, y, z) for x in pts for y in pts for z in pts)
        else:
            rng = random.Random(seed)
            triples = ((rng.choice(pts), rng.choice(pts), rng.choice(pts))
                       for _ in range(sample_cap))
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
    """Reflexive symmetric relation with a finite description."""

    def contains(self, x, y) -> bool:
        raise NotImplementedError

    def pairs(self, space: MetricSpacePresentation):
        for x in space.points:
            for y in space.points:
                if self.contains(x, y):
                    yield (x, y)

    def check_axioms(self, space: MetricSpacePresentation) -> bool:
        for x in space.points:
            if not self.contains(x, x):
                return False
            for y in space.points:
                if self.contains(x, y) != self.contains(y, x):
                    return False
        return True


class ExplicitEntourage(Entourage):
    __slots__ = ("pair_set",)

    def __init__(self, pairs):
        pair_set = set()
        for x, y in pairs:
            pair_set.add((x, y))
            pair_set.add((y, x))
            pair_set.add((x, x))
            pair_set.add((y, y))
        self.pair_set = frozenset(pair_set)

    def contains(self, x, y) -> bool:
        return x == y or (x, y) in self.pair_set


def _alpha_values(space, alpha):
    count = len(space.decomposition)
    if isinstance(alpha, FnSeq):
        return [alpha.get(n) for n in range(count)]
    alpha = list(alpha)
    if len(alpha) < count:
        raise ValueError(
            f"alpha has {len(alpha)} entries for {count} compact pieces "
            f"and no tail; pass an FnSeq for tail semantics")
    return alpha[:count]


class UAlphaEntourage(Entourage):
    """Union over n of the open 2^-alpha(n) inflations of K~_n, plus
    the diagonal."""

    __slots__ = ("space", "alpha", "_radii")

    def __init__(self, space: MetricSpacePresentation, alpha):
        self.space = space
        self.alpha = alpha
        self._radii = [Fraction(1, 2 ** a) for a in _alpha_values(space, alpha)]

    def contains(self, x, y) -> bool:
        if x == y:
            return True
        return any(
            self.space.distance_to_diagonal_compact(x, y, n) < r
            for n, r in enumerate(self._radii))


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

class SpacedDiagonalNeighbourhood:
    """Union of open max-metric balls around diagonal points."""

    __slots__ = ("space", "radii")

    def __init__(self, space: MetricSpacePresentation, radii):
        self.space = space
        self.radii = {p: Fraction(r) for p, r in radii.items()}
        if any(r <= 0 for r in self.radii.values()):
            raise ValueError("all radii must be strictly positive")
        for p in self.radii:
            if p not in set(space.points):
                raise ValueError(f"radius given for unknown point {p!r}")

    def contains(self, x, y) -> bool:
        return any(
            max(self.space.dist(x, p), self.space.dist(y, p)) < r
            for p, r in self.radii.items())


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
    """Union over points of i_x(f(x)) x i_x(f(x))."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(frozenset(b) for b in blocks)

    def contains(self, x, y) -> bool:
        return any(x in b and y in b for b in self.blocks)


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
