"""words: truncated symmetric products in the free group F2 = <a, b>.

A configuration at horizon h is h three-word subsets of F2, each word of
length 1 or 2.  At horizons 4 and 5 reachable targets are built from a
random permutation of a random initial segment with one factor from
each set; at horizons 6 and 7 the segment is taken in index order, so
the walk meets the target on its first descent (early exit).  Far
targets are longer than the sum of the sets' longest words: no product
reaches them and the walk enumerates everything (horizons 4, 5).  Random
targets of length <= h are decided against a brute-force product
(horizons 4, 5).  `sym_set` runs at horizon 5 with and without a length
cap, against brute force, and on symmetric sets {e, w, w^-1}.  The
lemma checkers run on rd-lemmas-style configurations, SIN-base
membership on free (horizon <= 3, with a support) and free-abelian
(five generators, horizon 4) inputs.
"""

from fractions import Fraction

import oracles as O
from harness import OpClass, expect

from ordtop import group_topology as gt

TAIL_PERCENTILE = 98.5

F2 = gt.FreeGroup(("a", "b"))


def _runs(seq):
    """Reduced ±1 letters back to the run-length form ordtop uses."""
    out = []
    for g, s in seq:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + s)
        else:
            out.append((g, s))
    return tuple(out)


def _random_letters(rng, length):
    return [(rng.choice("ab"), rng.choice((-1, 1))) for _ in range(length)]


def _word(rng, lo, hi):
    """A reduced word of length between lo and hi."""
    while True:
        w = O.free_reduce(_random_letters(rng, rng.randint(lo, hi)))
        if lo <= len(w) <= hi:
            return _runs(w)


def _three_words(rng):
    words = set()
    while len(words) < 3:
        words.add(_word(rng, 1, 2))
    return gt.SubsetSpec(F2, words)


def _symmetric_three(rng):
    w = _word(rng, 1, 2)
    return gt.SubsetSpec(F2, {(), w, O.free_inverse(w)})


def _config(rng, h):
    return tuple(_three_words(rng) for _ in range(h))


def _reachable_target(rng, sets, shuffle=True):
    n = rng.randint(1, len(sets))
    sigma = list(range(n))
    if shuffle:
        rng.shuffle(sigma)
    factors = [sorted(sets[i].words)[rng.randrange(3)] for i in sigma]
    return _runs(O.free_product(factors))


def _in_order_target(rng, sets):
    # B_1 B_2 ... B_n in index order: found on the walk's first descent.
    return _reachable_target(rng, sets, shuffle=False)


def _far_target(rng, sets):
    length = O.length_bound(sets) + rng.randint(1, 2)
    return _runs(O.free_reduce(_forced_length_letters(rng, length)))


def _forced_length_letters(rng, length):
    out = []
    while len(out) < length:
        letter = (rng.choice("ab"), rng.choice((-1, 1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


# --- operations and their checks ------------------------------------------------

def _member(inp):
    target, sets, h = inp
    return gt.sym_member(target, sets, h)


def _check_reachable(inp, out):
    target, sets, h = inp
    expect(isinstance(out, gt.SymYes), "a product of the sets is reported unreachable")
    expect(O.replay_sym_yes(target, [s.words for s in sets], out),
           "SymYes certificate does not replay")


def _check_far(inp, out):
    target, sets, h = inp
    expect(O.word_len(target) > O.length_bound(s.words for s in sets), "far target too short")
    expect(isinstance(out, gt.SymNoUpTo) and out.horizon == h,
           "a target beyond the length bound is reported reachable")


def _check_against_brute(inp, out):
    target, sets, h = inp
    words = [s.words for s in sets]
    if out.is_member:
        expect(O.replay_sym_yes(target, words, out), "SymYes certificate does not replay")
    expect(out.is_member == O.brute_member(target, words, h),
           "sym_member disagrees with brute force")


def _sym_set(inp):
    sets, h, cap = inp
    return gt.sym_set(sets, h, length_cap=cap)


def _replay_all(out, sets):
    words = [s.words for s in sets]
    for w, yes in out.items():
        expect(O.replay_sym_yes(w, words, yes), "sym_set certificate does not replay")


def _check_set(inp, out):
    sets, h, cap = inp
    _replay_all(out, sets)
    got = {O.word_key(w) for w in out}
    want = O.brute_sym([s.words for s in sets], h)
    if cap is None:
        expect(got == want, "sym_set differs from the brute-force product")
    else:
        expect(got <= want, "sym_set returns a word outside the product")
        expect({w for w in want if len(w) <= cap} <= got,
               "sym_set misses a word within the length cap")


def _check_symmetric_set(inp, out):
    sets, h, cap = inp
    _replay_all(out, sets)
    expect(all(O.free_inverse(w) in out for w in out),
           "sym_set of symmetric sets is not closed under inverses")


def _phi(rng):
    phi = gt.PhiMap(_small_subset(rng))
    if rng.random() < 0.4:
        phi.exceptions[_word(rng, 0, 2)] = _small_subset(rng)
    return phi


def _small_subset(rng):
    return gt.SubsetSpec(F2, {_word(rng, 0, 2) for _ in range(rng.randint(1, 2))})


def _support(rng):
    return [()] + ([_word(rng, 1, 2)] if rng.random() < 0.7 else [])


def _shrink(rng, spec):
    words = sorted(spec.words)
    if len(words) > 1 and rng.random() < 0.7:
        words = words[:-1]
    return gt.SubsetSpec(F2, words)


def _monotone_chain(rng, length):
    chain = [_phi(rng)]
    while len(chain) < length:
        prev = chain[-1]
        chain.append(gt.PhiMap(_shrink(rng, prev.default),
                               {p: _shrink(rng, v) for p, v in prev.exceptions.items()}))
    return chain


def _bk_chain(rng):
    """A squaring chain V_{n+1}^2 inside V_n from a symmetric seed."""
    while True:
        seed_word = _word(rng, 1, 2)
        seed = gt.SubsetSpec(F2, {(), seed_word, O.free_inverse(seed_word)})
        chain = [seed]
        for _ in range(rng.randint(3, 4)):
            nxt = gt.product_set([chain[0], chain[0]]).union(chain[0])
            if len(nxt) > 800:
                break
            chain.insert(0, nxt)
        if len(chain) >= 3:
            return chain


def _lemma_symmetry(inp):
    phis, support = inp
    vsets = [gt.v_phi(phi, support, F2) for phi in phis]
    return gt.symmetry_violations(vsets, len(vsets))


def _check_empty(inp, out):
    expect(out == set(), f"lemma checker reports {len(out)} violations")


def _lemma_bk(chain):
    bad = set()
    for k in range(len(chain) - 2):
        bad |= gt.birkhoff_kakutani_violations(chain, k)
    return bad


def _conjugated_sets(vs, support):
    """Own V_n u V_n^-1 conjugated over the support, plus the identity."""
    out = []
    for v in vs:
        words = {()}
        for g in support:
            gl, gi = O.letters(g), O.letters(O.free_inverse(g))
            for x in v.words:
                for y in (x, O.free_inverse(x)):
                    words.add(_runs(O.free_reduce(gi + O.letters(y) + gl)))
        out.append(words)
    return out


def _sin_free(inp):
    w, vs, h, support = inp
    return gt.sin_base_member(w, vs, h, support=support)


def _check_sin_free(inp, out):
    w, vs, h, support = inp
    sets = _conjugated_sets(vs[:h], support)
    member = O.brute_member(w, sets, h)
    expect(out.is_member == member, "free SIN membership disagrees with brute force")
    if out.is_member:
        expect(O.replay_sym_yes(w, sets, out), "SIN certificate does not replay")


def _sin_abelian(inp):
    w, vs, h, group = inp
    return gt.sin_base_member(w, vs, h, group=group)


def _check_sin_abelian(inp, out):
    w, vs, h, group = inp
    pools = [set(v.words) | {tuple((g, -e) for g, e in x) for x in v.words}
             for v in vs[:h]]
    member = O.abelian_vector(w) in O.abelian_reachable(pools)
    expect(out.is_member == member, "abelian SIN membership disagrees with brute force")
    if out.is_member:
        acc = {}
        for i, f in zip(out.sigma, out.factors):
            expect(f in pools[i - 1], "abelian SIN factor outside its set")
            for g, e in f:
                acc[g] = acc.get(g, 0) + e
        expect(frozenset((g, e) for g, e in acc.items() if e) == O.abelian_vector(w),
               "abelian SIN certificate does not sum to the target")


def _abelian_inputs(rng, families=10, per_family=8):
    """Targets in Z^5 against I(V) for entourages of random 5-point sets."""
    labels = tuple(f"p{i}" for i in range(5))
    group = gt.FreeAbelianGroup(labels)
    inputs = []
    for _ in range(families):
        points = sorted({Fraction(rng.randint(0, 12), 12) for _ in range(12)})[:5]
        while len(points) < 5:
            points.append(points[-1] + Fraction(1, 7))
        radii = sorted((Fraction(1, rng.randint(2, 12)) for _ in range(4)), reverse=True)
        vs = []
        for r in radii:
            pairs = {(labels[i], labels[j]) for i in range(5) for j in range(5)
                     if abs(points[i] - points[j]) < r}
            vs.append(gt.i_of_entourage(pairs, group=group)[1])
        pools = [sorted(v.words) for v in vs]
        for _ in range(per_family):
            if rng.random() < 0.5:
                acc = {}
                for pool in pools:
                    if rng.random() < 0.7:
                        for g, e in pool[rng.randrange(len(pool))]:
                            acc[g] = acc.get(g, 0) + e * rng.choice((-1, 1))
                w = group.reduce(tuple(acc.items()))
            else:
                w = group.reduce(tuple((g, rng.randint(-2, 2)) for g in labels))
            inputs.append((w, vs, 4, group))
    rng.shuffle(inputs)
    return inputs


def build(rng):
    configs = {h: [_config(rng, h) for _ in range(200)]
               for h in (4, 5, 6, 7)}
    far5 = [_config(rng, 5) for _ in range(240)]

    def targets(h, make, count):
        out = []
        for _ in range(count):
            sets = configs[h][rng.randrange(len(configs[h]))]
            out.append((make(rng, sets), sets, h))
        return out

    def random_targets(h, count):
        return targets(h, lambda r, s: _word(r, 0, h), count)

    sym_sets = []
    for cfg in configs[5]:
        sym_sets.append((cfg, 5, None))
        sym_sets.append((cfg, 5, 3))
    symmetric = [(tuple(_symmetric_three(rng) for _ in range(5)), 5, None)
                 for _ in range(120)]
    symmetry = [([_phi(rng) for _ in range(rng.randint(1, 3))], _support(rng))
                for _ in range(40)]
    squaring = [(_monotone_chain(rng, 4), _support(rng)) for _ in range(40)]
    conjugation = [([_phi(rng) for _ in range(rng.randint(1, 2))], _support(rng),
                    _word(rng, 0, 2)) for _ in range(40)]
    bk = [_bk_chain(rng) for _ in range(20)]
    sin_free = []
    for _ in range(100):
        h = rng.randint(1, 3)
        vs = [_small_subset(rng) for _ in range(h)]
        sin_free.append((_word(rng, 0, 4), vs, h, _support(rng)))

    return [
        OpClass("member_reach_h4", _member, _check_reachable,
                targets(4, _reachable_target, 800), 6),
        OpClass("member_random_h4", _member, _check_against_brute, random_targets(4, 800), 6),
        OpClass("member_reach_h5", _member, _check_reachable,
                targets(5, _reachable_target, 200), 4),
        OpClass("member_random_h5", _member, _check_against_brute, random_targets(5, 200), 4),
        OpClass("member_in_order_h6", _member, _check_reachable,
                targets(6, _in_order_target, 200), 4),
        OpClass("member_in_order_h7", _member, _check_reachable,
                targets(7, _in_order_target, 100), 2),
        OpClass("member_far_h4", _member, _check_far, targets(4, _far_target, 1200), 60),
        OpClass("member_far_h5", _member, _check_far,
                [(_far_target(rng, c), c, 5) for c in far5], 12),
        OpClass("sym_set_h5", _sym_set, _check_set, sym_sets, 2),
        OpClass("sym_set_h5_symmetric", _sym_set, _check_symmetric_set, symmetric, 8),
        OpClass("lemma_symmetry", _lemma_symmetry, _check_empty, symmetry, 1),
        OpClass("lemma_squaring",
                lambda inp: gt.squaring_violations(inp[0], inp[1], F2, 2), _check_empty,
                squaring, 1),
        OpClass("lemma_conjugation",
                lambda inp: gt.conjugation_violations(inp[0], inp[1], inp[2], F2, len(inp[0])),
                _check_empty, conjugation, 1),
        OpClass("lemma_birkhoff_kakutani", _lemma_bk, _check_empty, bk, 1),
        OpClass("sin_free", _sin_free, _check_sin_free, sin_free, 4),
        OpClass("sin_abelian", _sin_abelian, _check_sin_abelian, _abelian_inputs(rng), 4),
    ]
