"""relations: finite orders and entourages (order_lab, uniformity_lab).

Set-up enumerates the posets on n <= 5 points up to isomorphism and
builds one FinitePoset per class (87 in all), and the space
convergent_sequence(100) with the uniformity suite's four compact
pieces.  Chain conversions pick a random class and a random chain map
of length tau <= 5; almost-disjoint joins use six random eventually
periodic branches; U_alpha membership, monotonicity, the audited
cofinal search and the coalesced countable base run on the space with
random index sequences (entries <= 6), random point pairs and random
diagonal neighbourhoods (radii 1/4 .. 1/16 around each point).
"""

import itertools
from fractions import Fraction

import oracles as O
from harness import OpClass, expect

from ordtop import order_lab as ol
from ordtop import uniformity_lab as ul

TAIL_PERCENTILE = 99.9

PIECE_SIZES = (0, 4, 12, 30)  # K_n = {0} u {1/j : j <= size}


# --- operations and their checks ------------------------------------------------

def _check_classes(n, out):
    expect(len(out) == O.OEIS_A000112[n], f"{len(out)} poset classes on {n} points")
    expect(all(len(m) == n and O.masks_are_poset(m) for m in out),
           "a class is not a partial order")
    expect(len(set(out)) == len(out), "a class is listed twice")


def _tukey(inp):
    masks, poset, g = inp
    conv = ol.tukey_to_monotone(g, poset)
    cert = ol.search_unbounded_certificate(g, poset)
    verified = ol.tukey_to_monotone(g, poset, certificate=cert) if cert is not None else None
    return conv, cert, verified


def _check_tukey(inp, out):
    masks, poset, g = inp
    conv, cert, verified = out
    mapping, overflow, monotone, cofinal = O.tukey_oracle(masks, g)
    expect(conv.mapping == mapping, "chain conversion differs from the below-mask recomputation")
    expect(conv.overflow == overflow, "overflow set differs from the recomputation")
    expect(conv.is_monotone and monotone, "converted map is not monotone")
    expect(conv.is_cofinal == cofinal, "cofinality differs from the recomputation")
    expect((cert is not None) == cofinal, "certificate search disagrees with cofinality")
    if cert is not None:
        expect(verified.certificate_valid, "certificate does not verify")
        expect(all(cert[xi] not in overflow and mapping[cert[xi]] >= xi
                   for xi in range(1, len(g))), "certificate witness below its level")


def _ad_join(inp):
    branches, depth, s, t = inp
    js = ol.ad_join([branches[i] for i in s], depth)
    jt = ol.ad_join([branches[i] for i in t], depth)
    return js, jt, js.le(jt)


def _check_ad_join(inp, out):
    branches, depth, s, t = inp
    js, jt, le = out
    expect(js.codes == O.join_codes([branches[i] for i in s], depth),
           "join codes differ from the prefix-code recomputation")
    expect(le == (set(s) <= set(t)), "ad_join is not an order embedding of subsets")


def _check_diagonal(rows, out):
    z, cert = out
    expect(list(z) == [rows[x][x] + 1 for x in range(len(rows))], "diagonal witness is wrong")
    expect(all(zv > av for _, zv, av in cert) and len(cert) == len(rows),
           "diagonal certificate does not dominate")


def _box(inp):
    f, vectors = inp
    box = ol.box_nbhd(f)
    return [box.contains(v) for v in vectors]


def _check_box(inp, out):
    f, vectors = inp
    want = [all(abs(Fraction(x)) < Fraction(1, f.get(b)) for b, x in v.items())
            for v in vectors]
    expect(out == want, "box membership differs from |x_b| < 1/f(b)")


def _u_alpha(inp):
    space, alpha, x, y = inp
    return ul.u_alpha_member(space, alpha, x, y)


def _check_u_alpha(inp, out):
    space, alpha, x, y = inp
    values = [alpha.get(n) for n in range(len(space.decomposition))]
    expect(out == O.u_alpha_oracle(space.decomposition, values, x, y),
           "U_alpha membership differs from the exact distances")


def _monotone(inp):
    space, pairs, points = inp
    return ul.base_monotone_check(space, pairs, points)


def _check_monotone(inp, out):
    space, pairs, points = inp
    k = len(space.decomposition)
    for small, large in pairs:
        sv = [small.get(n) for n in range(k)]
        lv = [large.get(n) for n in range(k)]
        for x, y in points:
            if O.u_alpha_oracle(space.decomposition, lv, x, y):
                expect(O.u_alpha_oracle(space.decomposition, sv, x, y),
                       "U_alpha' escapes U_alpha in the recomputation")
    expect(out is True, "base_monotone_check reports a violation")


def _cofinal(inp):
    space, target = inp
    alpha = ul.base_cofinal_search(space, target)
    audit = ul.audit_entourage_containment(space, ul.UAlphaEntourage(space, alpha), target)
    return alpha, audit


def _check_cofinal(inp, out):
    space, target = inp
    alpha, audit = out
    expect(isinstance(alpha, ol.FnSeq), "cofinal search failed")
    expect(audit == [], f"audit finds {len(audit)} pairs outside the target")
    for n, piece in enumerate(space.decomposition):
        slack = O.piece_slack(piece, target.radii)
        a = alpha.get(n)
        expect(Fraction(1, 2 ** a) <= slack, f"radius 2^-{a} exceeds the slack of piece {n}")
        expect(a == 0 or Fraction(1, 2 ** (a - 1)) > slack,
               f"alpha({n}) = {a} is not the smallest exponent")


def _countable(inp):
    space, bases, f, probes = inp
    u = ul.countable_base(space, bases, f)
    return u, [u.contains(x, y) for x, y in probes]


def _check_countable(inp, out):
    space, bases, f, probes = inp
    u, answers = out
    zero = Fraction(0)
    blocks = []
    for x in space.points:
        if x == zero:
            k = max(f[x].get(0), 1)
            blocks.append(frozenset(p for p in space.points if p <= Fraction(1, k)))
        else:
            blocks.append(frozenset({x}))
    expect(tuple(u.blocks) == tuple(blocks), "coalesced blocks differ from the recomputation")
    want = [any(x in b and y in b for b in blocks) for x, y in probes]
    expect(answers == want, "union-of-squares membership differs")


def _branches(rng, count=6):
    out = []
    while len(out) < count:
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        b = ol.Branch(pre, per)
        if not any(b.same_branch(c) for c in out):
            out.append(b)
    return out


def build(rng):
    classes = {n: ol.poset_masks_up_to_iso(n) for n in range(1, 6)}
    posets = [(m, ol.poset_from_masks(m)) for n in range(1, 6) for m in classes[n]]
    tukey = []
    for _ in range(8000):
        masks, poset = posets[rng.randrange(len(posets))]
        tau = rng.randint(1, 5)
        tukey.append((masks, poset, [rng.randrange(len(masks)) for _ in range(tau)]))
    branches = _branches(rng)
    depth = ol.disambiguation_depth(branches)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(6), r) for r in range(7)))
    joins = [(branches, depth, subsets[rng.randrange(64)], subsets[rng.randrange(64)])
             for _ in range(6000)]
    diagonals = []
    for _ in range(1000):
        tau = rng.randint(1, 6)
        diagonals.append([tuple(rng.randrange(10) for _ in range(tau)) for _ in range(tau)])
    grid = [Fraction(p, q) for p in range(-2, 3) for q in (1, 2, 3, 4)]
    boxes = []
    for _ in range(300):
        f = ol.FnSeq(tuple(rng.randint(1, 4) for _ in range(3)), rng.randint(1, 4))
        vectors = [{b: grid[rng.randrange(len(grid))] for b in range(rng.randint(1, 5))}
                   for _ in range(8)]
        boxes.append((f, vectors))

    space = ul.convergent_sequence(100, decomposition=[
        frozenset({Fraction(0)} | {Fraction(1, j) for j in range(1, size + 1)})
        for size in PIECE_SIZES])
    points = space.points
    k = len(space.decomposition)

    def alpha():
        return ol.FnSeq(tuple(rng.randint(0, 6) for _ in range(k)), 6)

    def pair():
        return points[rng.randrange(len(points))], points[rng.randrange(len(points))]

    u_alpha = [(space, alpha(), *pair()) for _ in range(3000)]
    def alpha_pair():
        small = [rng.randint(0, 6) for _ in range(k)]
        large = [v + rng.randint(0, 6 - v) for v in small]
        return ol.FnSeq(tuple(small), 6), ol.FnSeq(tuple(large), 6)

    monotone = [(space, [alpha_pair() for _ in range(4)], [pair() for _ in range(100)])
                for _ in range(40)]
    cofinal = [(space, ul.SpacedDiagonalNeighbourhood(
        space, {p: Fraction(1, rng.randint(4, 16)) for p in points})) for _ in range(24)]
    bases = {p: ul.principal_base(p) for p in points}
    bases[Fraction(0)] = ul.tail_base(space)
    countable = [(space, bases, {p: ol.FnSeq((rng.randint(1, 60),), 1) for p in points},
                  [pair() for _ in range(50)]) for _ in range(200)]

    return [
        OpClass("poset_classes", ol.poset_masks_up_to_iso, _check_classes, [1, 2, 3, 4, 5], 5),
        OpClass("tukey_chain", _tukey, _check_tukey, tukey, 600),
        OpClass("ad_join", _ad_join, _check_ad_join, joins, 280),
        OpClass("diagonal_witness", ol.diagonal_witness, _check_diagonal, diagonals, 60),
        OpClass("box_nbhd", _box, _check_box, boxes, 40),
        OpClass("u_alpha_member", _u_alpha, _check_u_alpha, u_alpha, 200),
        OpClass("base_monotone_check", _monotone, _check_monotone, monotone, 2),
        OpClass("cofinal_search_audit", _cofinal, _check_cofinal, cofinal, 1),
        OpClass("countable_base", _countable, _check_countable, countable, 12),
    ]
