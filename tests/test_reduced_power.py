import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordtop.reduced_power import (
    EQ,
    GT,
    LT,
    AvoidanceError,
    Ball,
    EventualSeq,
    NestingError,
    RatFunc,
    baire_witness,
    compare_ev,
    format_tail,
    from_json,
    interleave,
    parse_tail,
    star_metric,
    to_json,
)

ZERO = EventualSeq.constant(0)
ONE = EventualSeq.constant(1)
INV_N = EventualSeq((Fraction(0),), RatFunc((0, 1)) and parse_tail("1/n"))


def seq(prefix, tail_text):
    return EventualSeq([Fraction(c) for c in prefix], parse_tail(tail_text))


# --- independent oracle: sign by evaluation on a ladder -------------------
#
# Eight ladder points certify both the eventual sign and equality: the
# cross-multiplied difference has degree well below eight, so agreement
# at eight distinct points forces identity.

LADDER = [10 ** 3, 10 ** 4 + 7, 10 ** 6, 10 ** 7 + 3,
          10 ** 9, 10 ** 10 + 1, 10 ** 12, 10 ** 13 + 5]


def oracle_compare(x: EventualSeq, y: EventualSeq) -> str:
    signs = set()
    for n in LADDER:
        d = x.value_at(n) - y.value_at(n)
        signs.add(0 if d == 0 else (1 if d > 0 else -1))
    assert len(signs) == 1, "oracle ladder saw a sign change; enlarge it"
    s = signs.pop()
    return EQ if s == 0 else (LT if s < 0 else GT)


# --- comparison ------------------------------------------------------------

def test_compare_examples():
    one_over_n = seq([0], "1/n")
    two_over_n = seq([0], "2/n")
    assert compare_ev(one_over_n, two_over_n) == LT
    assert compare_ev(one_over_n, one_over_n) == EQ
    c = EventualSeq.constant(Fraction(1, 1000))
    assert compare_ev(one_over_n, c) == LT  # a positive infinitesimal
    assert compare_ev(one_over_n, ZERO) == GT


def test_compare_ignores_prefix():
    a = seq([99, -5], "1/n")
    b = seq([0], "1/n")
    assert compare_ev(a, b) == EQ
    assert a.equivalent(b)
    assert a != b  # pointwise different


def test_compare_matches_oracle_random():
    rng = random.Random(21)
    pool = []
    for _ in range(40):
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, 3))]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [Fraction(1)]
        f = RatFunc(num, den)
        bound = max(8, f.settle_bound())
        pool.append(EventualSeq([f.eval(i) if _peval_ok(f, i) else 0
                                 for i in range(bound)], f))
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        assert compare_ev(x, y) == oracle_compare(x, y)


def _peval_ok(f, i):
    try:
        f.eval(i)
        return True
    except ZeroDivisionError:
        return False


def test_total_order_on_classes():
    rng = random.Random(3)
    items = [seq([0], "1/n"), seq([0], "2/n"), seq([0], "(n-3)/(n+1)"),
             ONE, ZERO, seq([0], "1/(n*n)"), seq([5], "3")]
    for a in items:
        for b in items:
            ab, ba = compare_ev(a, b), compare_ev(b, a)
            assert (ab == EQ) == (ba == EQ)
            if ab == LT:
                assert ba == GT
            for c in items:
                if ab in (LT, EQ) and compare_ev(b, c) in (LT, EQ):
                    assert compare_ev(a, c) in (LT, EQ)


# --- the capped metric ------------------------------------------------------

def test_metric_examples():
    x = seq([0], "1/n")
    assert star_metric(x, x) == ZERO
    d = star_metric(seq([0], "1/n"), seq([0], "2/n"))
    assert d.equivalent(seq([0], "1/n"))
    assert compare_ev(d, ZERO) == GT
    big = seq([], "n")
    assert star_metric(big, EventualSeq.constant(0)).equivalent(ONE)


def test_metric_axioms_random():
    rng = random.Random(14)
    pool = [seq([0], "1/n"), seq([0], "(2*n-5)/(n+2)"), ZERO, ONE,
            seq([0], "1/(n*n)"), seq([1, 2], "(n-1)/n"), seq([], "3"),
            seq([0], "-1/n")]
    for _ in range(200):
        x, y, z = (rng.choice(pool) for _ in range(3))
        dxy = star_metric(x, y)
        dyx = star_metric(y, x)
        assert dxy == dyx
        assert (compare_ev(dxy, ZERO) == EQ) == x.equivalent(y)
        lhs = star_metric(x, z)
        rhs = dxy + star_metric(y, z)
        assert compare_ev(lhs, rhs) in (LT, EQ)
        # pointwise triangle inequality as well
        for i in range(6):
            assert lhs.value_at(i) <= rhs.value_at(i)


def test_translation_invariance():
    rng = random.Random(15)
    pool = [seq([0], "1/n"), seq([0], "(2*n-5)/(n+2)"), ZERO,
            seq([1, 2], "(n-1)/n"), seq([], "3"), seq([0], "-2/n")]
    for _ in range(100):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert star_metric(x + z, y + z) == star_metric(x, y)


def test_values_in_unit_interval():
    x = seq([], "5*n")
    y = seq([], "-n")
    d = star_metric(x, y)
    for i in range(10):
        assert 0 <= d.value_at(i) <= 1
    assert d.equivalent(ONE)


# --- interleaving ------------------------------------------------------------

def test_single_instance_is_identity():
    g = seq([3], "1/n")
    out = interleave([(g, ONE)], [])
    assert out.witness == g


def test_two_instances_disjoint_tails():
    g1 = EventualSeq.constant(0)
    g2 = EventualSeq.constant(Fraction(1, 8))
    eps1 = EventualSeq.constant(Fraction(1, 2))
    eps2 = EventualSeq.constant(Fraction(1, 4))
    out = interleave([(g1, eps1), (g2, eps2)], [5])
    h = out.witness
    for i in range(5):
        assert h.value_at(i) == 0
    for i in range(5, 12):
        assert h.value_at(i) == Fraction(1, 8)


def geometric_instances(count):
    instances = []
    for n in range(1, count + 1):
        prefix = []
        total = Fraction(0)
        for i in range(n):
            prefix.append(total)
            total += Fraction(1, 2 ** (i + 1))
        level = Fraction(1) - Fraction(1, 2 ** n)
        # prefix[i] above is the sum up to min(n, i) terms: fix endpoint
        prefix = [sum(Fraction(1, 2 ** m) for m in range(1, min(n, i) + 1))
                  for i in range(n)]
        g = EventualSeq(prefix, RatFunc.constant(level))
        eps = EventualSeq.constant(Fraction(4, 2 ** n))
        instances.append((g, eps))
    return instances


def test_geometric_interleave():
    instances = geometric_instances(12)
    out = interleave(instances, list(range(1, 12)))
    for n, d, eps in out.certificates:
        assert compare_ev(d, eps) == LT


def test_nesting_violation_names_instance():
    g1 = EventualSeq.constant(0)
    g2 = EventualSeq.constant(10)  # way outside
    eps = EventualSeq.constant(Fraction(1, 4))
    with pytest.raises(NestingError) as err:
        interleave([(g1, eps), (g2, eps)], [3])
    assert err.value.index == 1


def test_cut_count_checked():
    g = EventualSeq.constant(0)
    with pytest.raises(ValueError):
        interleave([(g, ONE), (g, ONE)], [])
    with pytest.raises(ValueError):
        interleave([(g, ONE), (g, ONE)], [3, 4])


# --- avoidance recursion ------------------------------------------------------

def test_no_forbidden_returns_center():
    c = seq([2], "1/n")
    out = baire_witness(Ball(c, ONE), [])
    assert out.point == c


def test_single_forbidden_ball():
    out = baire_witness(Ball(ZERO, ONE),
                        [Ball(ZERO, EventualSeq.constant(Fraction(1, 4)))])
    d = star_metric(out.point, ZERO)
    assert compare_ev(d, EventualSeq.constant(Fraction(1, 4))) == GT
    assert compare_ev(d, ONE) == LT


def test_halving_chain_of_forbidden_balls():
    forbidden = [Ball(ZERO, EventualSeq.constant(Fraction(1, 2 ** k)))
                 for k in range(1, 6)]
    out = baire_witness(Ball(ZERO, ONE), forbidden)
    for j, d, r in out.certificates:
        assert compare_ev(d, r) == GT
    assert compare_ev(star_metric(out.point, ZERO), ONE) == LT


def test_forbidden_off_center():
    center = EventualSeq.constant(Fraction(1, 2))
    out = baire_witness(
        Ball(ZERO, ONE),
        [Ball(center, EventualSeq.constant(Fraction(1, 8)))])
    assert compare_ev(star_metric(out.point, center),
                      EventualSeq.constant(Fraction(1, 8))) == GT


def test_swallowing_ball_is_infeasible():
    with pytest.raises(AvoidanceError):
        baire_witness(Ball(ZERO, ONE), [Ball(ZERO, ONE)])


# --- wire format ---------------------------------------------------------------

def test_json_roundtrip():
    x = seq([0, "1/2"], "(n-1)/(2*n+1)")
    assert from_json(to_json(x)) == x
    y = seq([], "-3/4")
    assert from_json(to_json(y)) == y


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json('["not", "a", "sequence"]')


def test_pole_beyond_prefix_rejected():
    with pytest.raises(ValueError):
        EventualSeq([], parse_tail("1/(n-5)"))
    # fine once the prefix covers the root
    EventualSeq([0, 0, 0, 0, 0, 0], parse_tail("1/(n-5)"))


rationals = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=7),
       st.lists(rationals, min_size=1, max_size=7).filter(any))
def test_tail_format_parse_round_trip(num, den):
    f = RatFunc(num, den)
    assert parse_tail(format_tail(f)) == f
