import itertools
import random
from fractions import Fraction

import pytest

from ordtop.order_lab import FnSeq
from ordtop.uniformity_lab import (
    MAX_POINTS,
    MAX_SCALE_BITS,
    FailureUpTo,
    MetricSpacePresentation,
    SpacedDiagonalNeighbourhood,
    UAlphaEntourage,
    UnionSquaresEntourage,
    audit_entourage_containment,
    base_cofinal_search,
    base_monotone_check,
    convergent_sequence,
    countable_base,
    finite_table_space,
    metric_fan,
    principal_base,
    tail_base,
    u_alpha_member,
)

F = Fraction


def small_space():
    return convergent_sequence(16)


def test_space_sizes_are_capped():
    assert len(convergent_sequence(MAX_POINTS - 1).points) == MAX_POINTS
    with pytest.raises(ValueError, match="cap"):
        convergent_sequence(MAX_POINTS)
    with pytest.raises(ValueError, match="cap"):
        metric_fan(10, 10 + 1)
    with pytest.raises(ValueError, match="distinct"):
        MetricSpacePresentation([F(1), F(1)], None, [])


def test_space_construction():
    space = small_space()
    assert len(space.points) == 17
    assert space.dist(F(1, 2), F(1, 4)) == F(1, 4)
    fan = metric_fan(3, 4)
    assert fan.dist(("0", 2) if False else (0, 2), (1, 2)) == F(1)
    assert fan.dist((0, 2), (0, 4)) == F(1, 4)


def test_table_space_validates():
    with pytest.raises(ValueError):
        finite_table_space(
            "abc",
            {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5},
            [frozenset("a")])


def broken_table(n):
    """All distances 3/2 but d(p0, p1) = 2 > d(p0, p2) + d(p2, p1) = 9/5:
    one failing triangle among n points."""
    points = [f"p{i}" for i in range(n)]
    table = {(x, y): F(3, 2) for i, x in enumerate(points) for y in points[i + 1:]}
    table.update({("p0", "p1"): F(2), ("p0", "p2"): F(9, 10), ("p1", "p2"): F(9, 10)})
    return points, table


@pytest.mark.parametrize("n", [20, 30, 60, MAX_POINTS])
def test_every_triangle_of_a_table_is_checked(n):
    points, table = broken_table(n)
    with pytest.raises(ValueError, match="triangle inequality fails on 'p0', 'p2', 'p1'"):
        finite_table_space(points, table, [frozenset()])
    table[("p0", "p1")] = F(9, 5)  # the triangle now holds with equality
    assert len(finite_table_space(points, table, [frozenset()]).points) == n


def test_common_denominator_is_capped():
    # metric_fan(1, 100) has every 1/k, k <= 100, so its distances need lcm(1..100)
    assert len(metric_fan(1, MAX_POINTS - 1).points) == MAX_POINTS
    assert metric_fan(1, MAX_POINTS - 1).dist((0, 1), (0, 2)) == F(1, 2)
    table = {("p", "q"): F(1, 2 ** MAX_SCALE_BITS), ("q", "r"): F(1, 3),
             ("p", "r"): F(1, 2)}
    with pytest.raises(ValueError, match=f"beyond the cap of {MAX_SCALE_BITS} bits"):
        finite_table_space("pqr", table, [frozenset()])


def test_u_alpha_examples():
    space = small_space()
    alpha = FnSeq((3,), 3)
    # diagonal clause
    assert u_alpha_member(space, alpha, F(1, 7), F(1, 7))
    # max(1/16, 1/32) = 1/16 < 1/8 = 2^-3 ... 1/32 is outside this space,
    # use the bundled points 1/16 and 1/8 near zero instead
    assert u_alpha_member(space, alpha, F(1, 16), F(1, 16))
    assert u_alpha_member(space, alpha, F(1, 16), F(1, 10))
    assert not u_alpha_member(space, alpha, F(1), F(1, 2))


def test_u_alpha_deeper_sequence():
    # the 1/32 pair needs a deeper presentation
    space = convergent_sequence(32)
    alpha = FnSeq((3,), 3)
    assert u_alpha_member(space, alpha, F(1, 16), F(1, 32))
    assert not u_alpha_member(space, alpha, F(1), F(1, 2))


def test_alpha_without_tail_rejected():
    space = convergent_sequence(
        8, decomposition=[frozenset({F(0)}), frozenset({F(0), F(1)})])
    with pytest.raises(ValueError):
        u_alpha_member(space, [3], F(1, 2), F(1, 2))
    assert u_alpha_member(space, [3, 2], F(1, 2), F(1, 2))


def test_entourage_axioms():
    space = small_space()
    u = UAlphaEntourage(space, FnSeq((2,), 2))
    assert u.check_axioms(space)
    # a union of balls is reflexive only where its balls cover the diagonal
    assert not SpacedDiagonalNeighbourhood(space, {F(1): F(1, 1000)}).check_axioms(space)
    assert SpacedDiagonalNeighbourhood(
        space, {p: F(1, 1000) for p in space.points}).check_axioms(space)


def test_base_monotone():
    space = small_space()
    pairs = [(FnSeq((2,), 2), FnSeq((3,), 3)),
             (FnSeq((1,), 1), FnSeq((1,), 4)),
             (FnSeq((4,), 4), FnSeq((4,), 4))]
    assert base_monotone_check(space, pairs)
    with pytest.raises(ValueError):
        base_monotone_check(space, [(FnSeq((3,), 3), FnSeq((2,), 2))])


def test_cofinal_search_uniform_radius():
    space = convergent_sequence(100)
    target = SpacedDiagonalNeighbourhood(
        space, {p: F(1, 10) for p in space.points})
    alpha = base_cofinal_search(space, target)
    assert isinstance(alpha, FnSeq)
    assert alpha.get(0) == 4  # 2^-4 is the first power below 1/10
    u = UAlphaEntourage(space, alpha)
    assert audit_entourage_containment(space, u, target) == []


def test_cofinal_search_tight_isolated_point():
    # shrinking O around an isolated point away from the compact piece
    # does not hurt: U_alpha only inflates around K~_n
    space = small_space()
    radii = {p: F(1, 4) for p in space.points}
    radii[F(1)] = F(1, 1000)
    target = SpacedDiagonalNeighbourhood(space, radii)
    alpha = base_cofinal_search(space, target)
    assert isinstance(alpha, FnSeq)
    u = UAlphaEntourage(space, alpha)
    assert audit_entourage_containment(space, u, target) == []


def test_cofinal_search_failure():
    space = small_space()
    # a single tiny ball far from the limit: most of the diagonal is
    # uncovered, so no entourage fits inside
    target = SpacedDiagonalNeighbourhood(space, {F(1): F(1, 1000)})
    out = base_cofinal_search(space, target)
    assert isinstance(out, FailureUpTo)


def test_random_cofinal_searches_audit_clean():
    rng = random.Random(23)
    space = convergent_sequence(40)
    for _ in range(10):
        radii = {p: F(1, rng.randint(2, 60)) for p in space.points}
        target = SpacedDiagonalNeighbourhood(space, radii)
        alpha = base_cofinal_search(space, target)
        assert isinstance(alpha, FnSeq)
        u = UAlphaEntourage(space, alpha)
        assert audit_entourage_containment(space, u, target) == []


def test_countable_base_one_point():
    space = finite_table_space(["p"], {}, [frozenset()])
    bases = {"p": principal_base("p")}
    ent = countable_base(space, bases, {"p": FnSeq((5,), 5)})
    assert ent.contains("p", "p")


def test_countable_base_convergent_sequence():
    space = small_space()
    zero = F(0)
    bases = {p: principal_base(p) for p in space.points if p != zero}
    bases[zero] = tail_base(space)
    f = {p: FnSeq((1,), 1) for p in space.points}
    f[zero] = FnSeq((5,), 5)
    ent = countable_base(space, bases, f)
    # pairs are in the entourage exactly when both sit in the tail from 5
    assert ent.contains(F(1, 6), F(1, 8))
    assert ent.contains(zero, F(1, 5))
    assert not ent.contains(F(1, 4), F(1, 8))
    assert ent.contains(F(1, 2), F(1, 2))  # diagonal via the principal block
    assert ent.check_axioms(space)


def test_countable_base_monotone_in_f():
    space = small_space()
    zero = F(0)
    bases = {p: principal_base(p) for p in space.points if p != zero}
    bases[zero] = tail_base(space)
    f_small = {p: FnSeq((1,), 1) for p in space.points}
    f_small[zero] = FnSeq((3,), 3)
    f_large = {p: FnSeq((2,), 2) for p in space.points}
    f_large[zero] = FnSeq((7,), 7)
    small = countable_base(space, bases, f_small)
    large = countable_base(space, bases, f_large)
    for x in space.points:
        for y in space.points:
            if large.contains(x, y):
                assert small.contains(x, y)


# --- rows against the metric definition ----------------------------------------

def _fan_two_pieces():
    fan = metric_fan(3, 4)
    return MetricSpacePresentation(
        fan.points, fan.dist,
        [frozenset({"c"}), frozenset({"c", (0, 1), (2, 3)})], name="fan")


@pytest.mark.parametrize("space, outside", [
    (convergent_sequence(12, decomposition=[
        frozenset({F(0)}), frozenset({F(0), F(1, 2), F(1, 5)})]), F(1, 40)),
    (_fan_two_pieces(), (1, 9)),
])
def test_rows_match_metric_definition(space, outside):
    # (x, y) lies in the open r-inflation of K~ iff some k in K has
    # max(d(x, k), d(y, k)) < r; the row AND must agree on every pair
    def inflated(x, y, part, r):
        return min(max(space.dist(x, k), space.dist(y, k)) for k in part) < r

    points = list(space.points)
    probe = points + [outside]
    for alpha in itertools.product(range(5), repeat=2):
        u = UAlphaEntourage(space, FnSeq(alpha, 4))

        def member(x, y):
            return x == y or any(
                inflated(x, y, part, F(1, 2 ** a))
                for part, a in zip(space.decomposition, alpha))

        assert all(u.contains(x, y) == member(x, y)
                   for x in probe for y in probe)
        assert list(u.pairs(space)) == [
            (x, y) for x in points for y in points if member(x, y)]
    rng = random.Random(5)
    for _ in range(5):
        radii = {p: F(1, rng.randint(1, 12)) for p in points
                 if rng.random() < 0.8}
        target = SpacedDiagonalNeighbourhood(space, radii)

        def near(x, y):
            return any(inflated(x, y, [p], r) for p, r in radii.items())

        assert all(target.contains(x, y) == near(x, y)
                   for x in probe for y in probe)
        assert list(target.pairs(space)) == [
            (x, y) for x in points for y in points if near(x, y)]


def test_union_squares_rows():
    space = small_space()
    blocks = [{F(1), F(1, 2)}, {F(1, 2), F(1, 3), F(1, 4)}]
    u = UnionSquaresEntourage(blocks)
    assert u.contains(F(1), F(1, 2)) and u.contains(F(1, 4), F(1, 2))
    assert not u.contains(F(1), F(1, 3))
    assert not u.contains(F(1, 5), F(1, 5))  # no diagonal outside the blocks
    assert list(u.pairs(space)) == [
        (x, y) for x in space.points for y in space.points
        if any(x in b and y in b for b in blocks)]


# --- position rows against a pair-by-pair reference ----------------------------

def _reference_cofinal(space, dist, radii):
    """base_cofinal_search by its definition: the full max over all radii."""
    if not all(any(dist[x][p] < r for p, r in radii.items()) for x in space.points):
        return FailureUpTo(-1, F(0))
    values = []
    for n, part in enumerate(space.decomposition):
        slacks = [max((r - dist[k][p] for p, r in radii.items()), default=F(0))
                  for k in part]
        slack = min(slacks, default=F(0))
        if slack <= 0:
            return FailureUpTo(n, slack)
        a = 0
        while F(1, 2 ** a) > slack:
            a += 1
        values.append(a)
    return FnSeq(tuple(values), max(values, default=0))


@pytest.mark.parametrize("space", [
    convergent_sequence(40, decomposition=[
        frozenset({F(0)}), frozenset({F(0), F(1, 2), F(1, 5)}),
        frozenset({F(0)} | {F(1, j) for j in range(1, 11)})]),
    MetricSpacePresentation(
        metric_fan(4, 5).points, metric_fan(4, 5).dist,
        [frozenset({"c"}), frozenset({"c", (0, 1), (2, 3)}), frozenset()],
        name="fan"),
])
def test_rows_audit_and_search_match_pairwise_reference(space):
    points = space.points
    dist = {x: {y: space.dist(x, y) for y in points} for x in points}
    rng = random.Random(11)

    def u_member(alpha):
        radius = [F(1, 2 ** alpha.get(n)) for n in range(len(space.decomposition))]
        return lambda x, y: x == y or any(
            min(max(dist[x][k], dist[y][k]) for k in part) < r
            for part, r in zip(space.decomposition, radius) if part)

    failures = set()
    violations = 0
    for trial in range(5):
        if trial == 0:  # balls that hold only their centres, and no ball at points[0]
            radii = {p: F(1, 2000) for p in points[1:]}
        elif trial % 2:
            radii = {p: F(1, rng.randint(1, 40)) for p in points}
        else:  # wide and narrow balls, some points without one
            radii = {p: F(rng.randint(1, 3), rng.choice([2, 3, 5, 8, 100, 400]))
                     for p in points if rng.random() < 0.9}
        target = SpacedDiagonalNeighbourhood(space, radii)
        assert target.rows(space) == [
            sum(1 << j for j, (p, r) in enumerate(radii.items()) if dist[x][p] < r)
            for x in points]
        near = [(x, y) for x in points for y in points
                if any(max(dist[x][p], dist[y][p]) < r for p, r in radii.items())]
        assert list(target.pairs(space)) == near
        near = set(near)
        assert all(target.contains(x, y) == ((x, y) in near)
                   for x in points for y in points)
        alpha = base_cofinal_search(space, target)
        assert alpha == _reference_cofinal(space, dist, radii)
        if isinstance(alpha, FailureUpTo):
            failures.add(alpha.piece)
            alpha = FnSeq((), trial % 3)  # audit a coarse U_alpha instead
        u, member = UAlphaEntourage(space, alpha), u_member(alpha)
        assert list(u.pairs(space)) == [
            (x, y) for x in points for y in points if member(x, y)]
        want = [(x, y) for x in points for y in points
                if (x, y) not in near and member(x, y)]
        assert audit_entourage_containment(space, u, target) == want
        violations += len(want)
        # a reflexive target: the diagonal passes whatever the rows say
        finer = FnSeq((), alpha.tail + 2)
        inside = u_member(finer)
        assert audit_entourage_containment(space, u, UAlphaEntourage(space, finer)) == [
            (x, y) for x in points for y in points if member(x, y) and not inside(x, y)]
    # the search fails on an uncovered diagonal (and on the fan's empty
    # piece), and a coarse entourage escapes its target
    assert -1 in failures and violations > 0


def test_cofinal_search_takes_the_best_ball_of_each_point():
    # the wide ball around 1/2 gives k = 0 only 123/200 - 1/2 = 23/200;
    # the narrower ball around 0 itself gives 1/8, so alpha(0) = 3
    space = convergent_sequence(8)
    radii = {p: F(1, 1000) for p in space.points}
    radii[F(0)] = F(1, 8)
    radii[F(1, 2)] = F(123, 200)
    target = SpacedDiagonalNeighbourhood(space, radii)
    assert base_cofinal_search(space, target) == FnSeq((3,), 3)
    radii[F(0)] = F(1, 1000)
    target = SpacedDiagonalNeighbourhood(space, radii)
    assert base_cofinal_search(space, target) == FnSeq((4,), 4)
