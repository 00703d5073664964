"""sequences: the reduced-power fragment (eventually closed-form sequences).

The pool holds 300 sequences whose tails are random rational functions
of degree <= 2 (coefficients p/q with |p| <= 9, q <= 4).  The pool, and
the pairs and triples drawn from it, have a fixed make-up by a cost
proxy (terms of the tail; the benchmark's own estimate of the star
metric's prefix length), so that seeds differ in details, not in cost.
Another 40 have tails (n - r)/(n + 1) with r from 200 to 400; their distance to a
constant (0 or +-1/4) changes closed form near n = r, so the settle
bound and the prefix of the star-metric value run to hundreds of
terms.  Interleaving runs on the geometric instance of the rp-metric
suite with 8 to 16 nested balls, and the avoidance recursion on 3 to 5
forbidden balls.
"""

from fractions import Fraction

import oracles as O
from harness import OpClass, expect, stratified

from ordtop import reduced_power as rp

TAIL_PERCENTILE = 99.0


def _random_tail(rng):
    while True:
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(0, 2) + 1)]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(0, 2) + 1)]
        if any(den):
            return num, den


def _far_root_tail(rng):
    # (n - r) / (n + 1) with r in the hundreds: it changes sign at n = r
    return (Fraction(-rng.randint(200, 400)), Fraction(1)), (Fraction(1), Fraction(1))


def _sequence(rng, num, den):
    """A sequence whose prefix covers every index where den vanishes."""
    f = rp.RatFunc(num, den)
    bound = max(4, O.root_bound(f.den))
    prefix = []
    for i in range(bound):
        d = O.upoly_eval(f.den, i)
        prefix.append(O.upoly_eval(f.num, i) / d if d else Fraction(rng.randint(-3, 3)))
    return rp.EventualSeq(prefix[:rng.randint(len(prefix) // 2, len(prefix))]
                          if _safe_cut(f.den, len(prefix)) else prefix, f)


def _safe_cut(den, length):
    # Only shorten the prefix when no root of den hides below its length.
    return all(O.upoly_eval(den, i) != 0 for i in range(length))


def _settle(x, y):
    """The benchmark's estimate of star_metric(x, y)'s prefix length."""
    num, den = O.tail_difference(x, y)
    return max(O.root_bound(num, den, O.upoly_add(num, den),
                            O.upoly_add(num, O.upoly_neg(den))),
               len(x.prefix), len(y.prefix))


def _triple_cost(xyz):
    x, y, z = xyz
    return 3 * _settle(x, y) + _settle(x, z) + _settle(y, z)


# Make-up of the sequence pool by the tail's terms (numerator and
# denominator coefficients), in the natural shares of random draws.
POOL_STRATA = ((3, 42), (4, 65), (5, 100), (6, 62), (None, 31))

# Make-up of the pair and triple pools by estimated prefix length: the
# natural shares of random draws (deciles, and the 93rd and 97th
# percentiles, over five seeds), without the rarest and dearest 1%.
PAIR_STRATA = ((5, 360), (7, 120), (9, 120), (13, 120), (20, 120), (37, 120),
               (88, 84), (400, 36))
TRIPLE_STRATA = ((23, 60), (35, 60), (56, 60), (106, 60), (186, 30), (372, 21),
                 (1200, 9))


def _geometric(count):
    instances = []
    for n in range(1, count + 1):
        prefix = [sum(Fraction(1, 2 ** m) for m in range(1, min(n, i) + 1))
                  for i in range(n)]
        g = rp.EventualSeq(prefix, rp.RatFunc.constant(Fraction(1) - Fraction(1, 2 ** n)))
        instances.append((g, rp.EventualSeq.constant(Fraction(4, 2 ** n))))
    return instances


# --- operations and their checks ------------------------------------------------

def _check_compare(inp, out):
    x, y = inp
    expect(out == O.eventual_compare(x, y), "compare_ev disagrees with direct evaluation")


def _check_star(inp, out):
    x, y = inp
    for n in O.star_checkpoints(x, y, len(out.prefix)):
        expect(O.seq_value(out, n) == O.capped_distance(x, y, n),
               f"star_metric differs from min(|x_n - y_n|, 1) at n = {n}")
    expect(rp.compare_ev(out, rp.EventualSeq.constant(0)) != rp.LT, "negative distance")


def _star_axioms(inp):
    x, y, z = inp
    dxy = rp.star_metric(x, y)
    return (dxy, rp.star_metric(y, x), rp.star_metric(x, z), rp.star_metric(y, z),
            rp.star_metric(x + z, y + z))


def _check_star_axioms(inp, out):
    x, y, z = inp
    dxy, dyx, dxz, dyz, dtrans = out
    _check_star((x, y), dxy)
    expect(dxy == dyx, "star metric is not symmetric")
    expect((rp.compare_ev(dxy, rp.EventualSeq.constant(0)) == rp.EQ) == x.equivalent(y),
           "d(x, y) = 0 differs from cofinite agreement")
    expect(rp.compare_ev(dxz, dxy + dyz) != rp.GT, "triangle inequality fails")
    expect(dtrans == dxy, "star metric is not translation invariant")


def _arith(inp):
    x, y, c = inp
    return x + y, x - y, x.scale(c)


def _check_arith(inp, out):
    x, y, c = inp
    s, d, k = out
    top = max(len(s.prefix), len(d.prefix), len(k.prefix),
              O.root_bound(x.tail.den, y.tail.den)) + 6
    for n in range(top):
        vx, vy = O.seq_value(x, n), O.seq_value(y, n)
        expect(O.seq_value(s, n) == vx + vy, f"(x + y)_{n} != x_{n} + y_{n}")
        expect(O.seq_value(d, n) == vx - vy, f"(x - y)_{n} != x_{n} - y_{n}")
        expect(O.seq_value(k, n) == c * vx, f"(c x)_{n} != c x_{n}")


def _roundtrip(x):
    return rp.from_json(rp.to_json(x))


def _check_roundtrip(x, out):
    expect(out.prefix == x.prefix and out.tail.num == x.tail.num
           and out.tail.den == x.tail.den, "from_json(to_json(x)) != x")


def _interleave(inp):
    instances, cuts = inp
    return rp.interleave(instances, cuts)


def _check_interleave(inp, out):
    instances, cuts = inp
    h = out.witness
    expect(len(out.certificates) == len(instances), "missing interleave certificates")
    for (n, d, eps), (g, eps_n) in zip(out.certificates, instances):
        # h lies in the ball around g_n: eventually min(|h - g_n|, 1) < eps_n
        _check_star((h, g), d)
        expect(O.eventual_compare(d, eps_n) == "LT", f"witness escapes ball {n + 1}")
    for i in range(len(h.prefix)):
        k = sum(1 for t in cuts if i >= t)
        expect(h.prefix[i] == O.seq_value(instances[k][0], i),
               f"witness coordinate {i} is not taken from instance {k + 1}")


def _baire(inp):
    ball, forbidden = inp
    return rp.baire_witness(ball, forbidden)


def _check_baire(inp, out):
    ball, forbidden = inp
    h = out.point
    expect(len(out.certificates) == len(forbidden), "missing avoidance certificates")
    for j, fb in enumerate(forbidden):
        d = rp.star_metric(h, fb.center)
        _check_star((h, fb.center), d)
        expect(O.eventual_compare(d, fb.radius) == "GT",
               f"witness lies in forbidden ball {j + 1}")
    d = rp.star_metric(h, ball.center)
    expect(O.eventual_compare(d, ball.radius) == "LT", "witness escapes the open ball")


def build(rng):
    pool = stratified(rng, lambda r: _sequence(r, *_random_tail(r)),
                      lambda x: len(x.tail.num) + len(x.tail.den), POOL_STRATA)
    far = [_sequence(rng, *_far_root_tail(rng)) for _ in range(40)]
    near = [rp.EventualSeq.constant(c) for c in (0, Fraction(1, 4), Fraction(-1, 4))]

    def pick(k):
        return [pool[rng.randrange(len(pool))] for _ in range(k)]

    pairs = stratified(rng, lambda r: tuple(pick(2)), lambda xy: _settle(*xy),
                       PAIR_STRATA)
    triples = stratified(rng, lambda r: tuple(pick(3)), _triple_cost, TRIPLE_STRATA)
    far_pairs = [(x, near[rng.randrange(3)]) for x in far]
    scales = [tuple(pick(2)) + (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),)
              for _ in range(800)]
    singles = pick(800)
    geometric = []
    for _ in range(8):
        count = rng.randint(8, 16)
        geometric.append((_geometric(count), list(range(1, count))))
    avoid = []
    for _ in range(8):
        ks = sorted(rng.sample(range(1, 8), rng.randint(3, 5)))
        forbidden = [rp.Ball(rp.EventualSeq.constant(0),
                             rp.EventualSeq.constant(Fraction(1, 2 ** k))) for k in ks]
        avoid.append((rp.Ball(rp.EventualSeq.constant(0), rp.EventualSeq.constant(1)),
                      forbidden))

    return [
        OpClass("compare_ev", lambda xy: rp.compare_ev(*xy), _check_compare, pairs, 60),
        OpClass("star_metric", lambda xy: rp.star_metric(*xy), _check_star, pairs, 47),
        OpClass("star_metric_far", lambda xy: rp.star_metric(*xy), _check_star, far_pairs, 1),
        OpClass("star_axioms", _star_axioms, _check_star_axioms, triples, 10),
        OpClass("seq_arith", _arith, _check_arith, scales, 40),
        OpClass("json_roundtrip", _roundtrip, _check_roundtrip, singles, 40),
        OpClass("interleave", _interleave, _check_interleave, geometric, 1),
        OpClass("baire_witness", _baire, _check_baire, avoid, 1),
    ]
