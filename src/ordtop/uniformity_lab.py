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
is a member iff the two rows share a bit.  Over a space the rows form a
list in `space.points` order, so listing pairs and auditing one
entourage against another are bit tests on positions, with no lookup
by point.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .order_lab import FnSeq

# The most points a space may have: convergent_sequence(100), the largest
# space that the suites, tests and benchmark build.  Fans and tables are
# validated on every triple, so their time grows with the cube of this.
MAX_POINTS = 101
# The most bits of the common denominator over which a validated space's
# distances are checked as ints: lcm(1..100), which bounds every
# metric_fan within MAX_POINTS (its distances' denominators divide
# lcm(1..depth)), takes 136.
MAX_SCALE_BITS = 136


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


def _check_size(count, what):
    if count > MAX_POINTS:
        raise ValueError(f"{what} has {count} points; the cap is {MAX_POINTS}")


class MetricSpacePresentation:
    """Finite point set, exact metric, and a compact decomposition.

    With `dist` None the points are rationals under |x - y|, and
    `cover_rows` finds each ball by bisection instead of testing every
    point.  The level table that `ball_row` reads is built for a point
    of the space on its first use and kept (concurrent first uses build
    the same table, so the cache needs no lock).
    """

    __slots__ = ("points", "_dist", "decomposition", "name", "_pieces",
                 "_index", "_tables", "_line")

    def __init__(self, points, dist, decomposition, name="space",
                 validate=True):
        self.points = tuple(points)
        _check_size(len(self.points), name)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise ValueError("the points of a space must be distinct")
        self._line = None
        if dist is None:
            order = sorted(range(len(self.points)), key=self.points.__getitem__)
            self._line = (order, [self.points[i] for i in order])
            dist = _line_dist
        self._dist = dist
        self.decomposition = tuple(frozenset(k) for k in decomposition)
        self.name = name
        self._tables = [None] * len(self.points)
        for part in self.decomposition:
            for p in part:
                if p not in self._index:
                    raise ValueError(f"decomposition point {p!r} not in space")
        if validate:
            self._validate()
        self._pieces = tuple(tuple(part) for part in self.decomposition)

    def dist(self, x, y) -> Fraction:
        return self._dist(x, y)

    def position(self, p):
        """The index of p in `points`, or None for a point outside."""
        return self._index.get(p)

    def _validate(self):
        """The metric axioms on every pair and every triple: distances
        are scaled to ints over their common denominator, so that the
        triangles through x and z are one sum of two int rows."""
        pts = self.points
        rows = [[self.dist(x, y) for y in pts] for x in pts]
        scale = 1
        for i, x in enumerate(pts):
            if rows[i][i] != 0:
                raise ValueError(f"d({x!r}, {x!r}) must be 0")
            for k in range(i + 1, len(pts)):
                d = rows[i][k]
                if d <= 0:
                    raise ValueError(f"d({x!r}, {pts[k]!r}) must be positive")
                if d != rows[k][i]:
                    raise ValueError(f"metric is not symmetric on {x!r}, {pts[k]!r}")
                scale = lcm(scale, d.denominator)
                if scale.bit_length() > MAX_SCALE_BITS:
                    raise ValueError(
                        f"the distances of {self.name} have a common "
                        f"denominator beyond the cap of {MAX_SCALE_BITS} bits")
        rows = [[d.numerator * (scale // d.denominator) for d in row] for row in rows]
        for i, row in enumerate(rows):
            for k in range(i + 1, len(pts)):
                if row[k] > min(map(add, row, rows[k])):
                    sums = list(map(add, row, rows[k]))
                    y = pts[sums.index(min(sums))]
                    raise ValueError(
                        f"triangle inequality fails on {pts[i]!r}, {y!r}, {pts[k]!r}")

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
        i = self._index.get(p)
        table = self._tables[i] if i is not None else None
        if table is None:
            table = self._level_table(p)
            if i is not None:
                self._tables[i] = table
        row = 0
        for (levels, rows, offset), a in zip(table, exponents):
            row |= rows[bisect_left(levels, a)] << offset
        return row

    def cover_rows(self, balls) -> list:
        """Per point, in `points` order, the bitmask of the open balls
        that hold it: bit j is set iff d(x, p_j) < r_j, for balls the
        list of (p_j, r_j)."""
        if self._line is None:
            return [_ball_bits(self._dist, x, balls) for x in self.points]
        # On the line B(p, r) is the run of sorted points in (p - r, p + r):
        # toggle bit j where the run starts and where it ends, and sweep.
        order, keys = self._line
        marks = [0] * (len(keys) + 1)
        for j, (p, r) in enumerate(balls):
            marks[bisect_right(keys, p - r)] ^= 1 << j
            marks[bisect_left(keys, p + r)] ^= 1 << j
        rows = [0] * len(keys)
        row = 0
        for i, mark in zip(order, marks):
            row ^= mark
            rows[i] = row
        return rows


def _line_dist(x, y):
    return abs(x - y)


def _ball_bits(dist, x, balls):
    """The bitmask of the balls (p_j, r_j) with d(x, p_j) < r_j."""
    return sum(1 << j for j, (p, r) in enumerate(balls) if dist(x, p) < r)


def convergent_sequence(n_max: int, decomposition=None) -> MetricSpacePresentation:
    """{0} u {1/n : n <= n_max} with the absolute-value metric."""
    name = f"convergent_sequence({n_max})"
    _check_size(n_max + 1, name)
    points = [Fraction(0)] + [Fraction(1, n) for n in range(1, n_max + 1)]
    if decomposition is None:
        decomposition = [frozenset({Fraction(0)})]
    return MetricSpacePresentation(points, None, decomposition, name=name,
                                   validate=False)


def metric_fan(spokes: int, depth: int) -> MetricSpacePresentation:
    """A finite fan: `spokes` sequences 1/k marching into a common center.

    The center is "c" and the k-th point of spoke s is (s, k)."""
    name = f"metric_fan({spokes},{depth})"
    _check_size(spokes * depth + 1, name)
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

    return MetricSpacePresentation(points, dist, [frozenset({center})],
                                   name=name, validate=True)


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
    whole diagonal, points outside every square included.  `rows(space)`
    lists the rows of `space.points` in order, and `pairs` and the audit
    test members by position.
    """

    __slots__ = ()
    reflexive = True

    def row(self, x) -> int:
        raise NotImplementedError

    def rows(self, space: MetricSpacePresentation) -> list:
        return [self.row(x) for x in space.points]

    def contains(self, x, y) -> bool:
        return self.row(x) & self.row(y) != 0 or (self.reflexive and x == y)

    def _member_positions(self, space: MetricSpacePresentation):
        """The (i, j) with (points[i], points[j]) a member, row by row."""
        rows = self.rows(space)
        diagonal = self.reflexive
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                if ri & rj or (diagonal and i == j):
                    yield i, j

    def pairs(self, space: MetricSpacePresentation):
        points = space.points
        for i, j in self._member_positions(space):
            yield points[i], points[j]

    def check_axioms(self, space: MetricSpacePresentation) -> bool:
        """Reflexive on the space (symmetry holds by the rows' AND): every
        point lies in a square unless the class holds the diagonal."""
        return self.reflexive or all(self.rows(space))


def _alpha_values(space, alpha: FnSeq) -> list:
    """alpha(n) for each compact piece n; an FnSeq holds natural numbers."""
    return [alpha.get(n) for n in range(len(space.decomposition))]


class UAlphaEntourage(Entourage):
    """Union over n of the open 2^-alpha(n) inflations of K~_n, plus
    the diagonal: one square B(k, 2^-alpha(n))^2 per k in K_n."""

    __slots__ = ("space", "alpha", "_exponents")

    def __init__(self, space: MetricSpacePresentation, alpha: FnSeq):
        self.space = space
        self.alpha = alpha
        self._exponents = _alpha_values(space, alpha)

    def row(self, x) -> int:
        return self.space.ball_row(x, self._exponents)


def u_alpha_member(space: MetricSpacePresentation, alpha: FnSeq, x, y) -> bool:
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

    Bit j of a row stands for the j-th radius in `radii` order.  The
    rows of the neighbourhood's own space are filled on first use by
    `space.cover_rows` and kept as a list in `space.points` order, so
    `radii` must not change afterwards (concurrent first uses fill the
    same list); `row` of a point outside that space tests every ball.
    """

    __slots__ = ("space", "radii", "_rows")
    reflexive = False

    def __init__(self, space: MetricSpacePresentation, radii):
        self.space = space
        self.radii = {p: Fraction(r) for p, r in radii.items()}
        if any(r <= 0 for r in self.radii.values()):
            raise ValueError("all radii must be strictly positive")
        for p in self.radii:
            if space.position(p) is None:
                raise ValueError(f"radius given for unknown point {p!r}")
        self._rows = None

    def rows(self, space: MetricSpacePresentation) -> list:
        if space is not self.space:
            return super().rows(space)
        if self._rows is None:
            self._rows = space.cover_rows(list(self.radii.items()))
        return self._rows

    def row(self, x) -> int:
        i = self.space.position(x)
        if i is not None:
            return self.rows(self.space)[i]
        return _ball_bits(self.space.dist, x, self.radii.items())


@dataclass(frozen=True)
class FailureUpTo:
    """Honest one-sided failure: no slack at the reported resolution."""

    piece: int
    slack: Fraction


def base_cofinal_search(space: MetricSpacePresentation,
                        neighbourhood: SpacedDiagonalNeighbourhood):
    """An index sequence alpha with U_alpha u Delta inside the target.

    Per compact piece the largest needed radius is the minimum slack of
    the neighbourhood around K~_n, the slack of k being the largest
    r - d(k, p) over its radii; the returned alpha uses the smallest
    powers of two below those slacks.  Only the balls that hold k (the
    set bits of its row) give positive terms, and once the diagonal is
    covered every k lies in one, so only those are taken.
    """
    rows = neighbourhood.rows(space)
    if not all(rows):
        return FailureUpTo(-1, Fraction(0))
    balls = list(neighbourhood.radii.items())
    dist = space.dist
    best_at = {}  # position of k -> its slack; pieces may share points
    values = []
    for n, part in enumerate(space.decomposition):
        slack = None
        for k in part:
            i = space.position(k)
            best = best_at.get(i)
            if best is None:
                row = rows[i]
                while row:
                    low = row & -row
                    p, r = balls[low.bit_length() - 1]
                    term = r - dist(k, p)
                    if best is None or term > best:
                        best = term
                    row ^= low
                best_at[i] = best
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
                                neighbourhood: Entourage) -> list:
    """The pairs of the entourage over `space` that the target misses.

    Every member (x, y) of the entourage, in row order, is replayed
    against the neighbourhood's rows by position: it passes iff the two
    target rows share a bit, or x is y and the target is reflexive.
    """
    points = space.points
    target = neighbourhood.rows(space)
    diagonal = neighbourhood.reflexive
    return [(points[i], points[j])
            for i, j in entourage._member_positions(space)
            if not (target[i] & target[j] or (diagonal and i == j))]


# --- countable spaces: coalescing per-point bases ------------------------------

def principal_base(x):
    """Base map of an isolated point: every index gives {x}."""
    return lambda index: frozenset({x})


def tail_base(space: MetricSpacePresentation, limit=Fraction(0)):
    """Base map of a limit point: index k gives the closed ball of
    radius 1/k around it, the tail from k of the convergent sequence
    around 0, or of every spoke of a fan around "c".

    The index enters through its first coordinate.
    """
    reach = [(space.dist(limit, p), p) for p in space.points]

    def base(index: FnSeq):
        bound = Fraction(1, max(index.get(0), 1))
        return frozenset(p for d, p in reach if d <= bound)

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
