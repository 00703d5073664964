"""Seeded property suites covering every module's invariants.

All randomness flows from the explicit seed; re-running a suite with the
same seed and scale reproduces the identical case list, so reports can
be compared byte for byte.  The default scales are the ones the checks
are specified at; --scale shrinks them proportionally for quick runs.
"""

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact_field as xf
from . import group_topology as gt
from . import matrix_group as mg
from . import order_lab as ol
from . import reduced_power as rp
from . import uniformity_lab as ul


@dataclass
class SuiteReport:
    suite: str
    seed: int
    scale: float
    cases: int = 0
    failures: list = field(default_factory=list)
    wall_ms: float = 0.0

    def record(self, case: str, detail: str):
        self.failures.append({
            "case": case,
            "detail": detail,
            "repro": f"ordtop suite {self.suite} --seed {self.seed} "
                     f"--scale {self.scale}",
        })

    @property
    def ok(self) -> bool:
        return not self.failures


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# --- field suite -----------------------------------------------------------

def _random_field_element(rng, max_height=3, max_degree=4, coeff=100):
    h = rng.randint(1, max_height)

    def poly():
        out = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * h
            budget = rng.randint(0, max_degree)
            for _ in range(budget):
                exps[rng.randrange(h)] += 1
            c = Fraction(rng.randint(-coeff, coeff), rng.randint(1, coeff))
            if c:
                key = tuple(exps)
                out[key] = out.get(key, Fraction(0)) + c
        return {e: c for e, c in out.items() if c}

    num = poly()
    den = poly()
    while not den:
        den = poly()
    if not num:
        return xf.FieldElement.from_rational(0)
    return xf.FieldElement(num, den, h)


def _oracle_sign(elem, margin=1):
    # Substitution a_j -> t^(M^(j+1)); decided by the lowest t-weight.
    if not elem.num:
        return 0
    max_exp = max((max(e, default=0)
                   for e in list(elem.num) + list(elem.den)), default=0)
    m = max_exp + 1 + margin
    sgn = 1
    for poly in (elem.num, elem.den):
        weights = {}
        for exps, coeff in poly.items():
            w = sum(e * m ** (j + 1) for j, e in enumerate(exps))
            weights[w] = weights.get(w, Fraction(0)) + coeff
        weights = {w: c for w, c in weights.items() if c}
        low = min(weights)
        sgn *= 1 if weights[low] > 0 else -1
    return sgn


def suite_field_axioms(report: SuiteReport, rng: random.Random, scale: float):
    one = xf.FieldElement.from_rational(1)
    samples = _count(10_000, scale)
    for i in range(samples):
        a = _random_field_element(rng)
        b = _random_field_element(rng)
        c = _random_field_element(rng)
        report.cases += 1
        kind = i % 8
        try:
            if kind == 0 and (a + b) + c != a + (b + c):
                report.record(f"assoc-add#{i}", f"{a}, {b}, {c}")
            elif kind == 1 and a + b != b + a:
                report.record(f"comm-add#{i}", f"{a}, {b}")
            elif kind == 2 and (a * b) * c != a * (b * c):
                report.record(f"assoc-mul#{i}", f"{a}, {b}, {c}")
            elif kind == 3 and a * b != b * a:
                report.record(f"comm-mul#{i}", f"{a}, {b}")
            elif kind == 4 and a * (b + c) != a * b + a * c:
                report.record(f"distrib#{i}", f"{a}, {b}, {c}")
            elif kind == 5:
                if not a.is_zero() and a * a.invert() != one:
                    report.record(f"inverse#{i}", f"{a}")
            elif kind == 6:
                if xf.compare(a, b) == xf.LT and \
                        xf.compare(a + c, b + c) != xf.LT:
                    report.record(f"order-add#{i}", f"{a}, {b}, {c}")
            elif kind == 7:
                if xf.compare(a, b) == xf.LT and c.sign() > 0 and \
                        xf.compare(a * c, b * c) != xf.LT:
                    report.record(f"order-mul#{i}", f"{a}, {b}, {c}")
        except Exception as exc:  # pragma: no cover - any blowup is a failure
            report.record(f"exception#{i}", repr(exc))
    # non-archimedean wall: n * a0 < 1 for every n up to the bound
    alpha = xf.FieldElement.var(0)
    for n in range(1, _count(10_000, scale) + 1):
        report.cases += 1
        if xf.compare(xf.FieldElement.from_rational(n) * alpha, one) != xf.LT:
            report.record(f"non-archimedean#{n}", f"n={n}")
    # dominance order against the substitution oracle
    for i in range(_count(1_000, scale)):
        a = _random_field_element(rng)
        b = _random_field_element(rng)
        report.cases += 1
        s = _oracle_sign(a - b)
        want = xf.EQ if s == 0 else (xf.LT if s < 0 else xf.GT)
        if xf.compare(a, b) != want:
            report.record(f"oracle#{i}", f"{a} vs {b}")
    # each adjoined variable sits below every positive lower-tower element
    for i in range(_count(500, scale)):
        x = _random_field_element(rng, max_height=2)
        report.cases += 1
        if x.sign() <= 0:
            x = -x
        if x.is_zero() or x.height >= xf.MAX_HEIGHT:
            continue
        deeper = xf.FieldElement.var(x.height)
        if xf.compare(deeper, x) != xf.LT:
            report.record(f"infinitesimal-level#{i}", f"{x}")


# --- matrix suite ------------------------------------------------------------

def _ball_matrix(rng, n, delta):
    one = xf.FieldElement.from_rational(1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            q = Fraction(rng.randint(-3, 3), 4)
            cell = delta * xf.FieldElement.from_rational(q)
            row.append(one + cell if i == j else cell)
        rows.append(row)
    return mg.Matrix(rows)


def suite_matrix_shrink(report: SuiteReport, rng: random.Random, scale: float):
    alpha = xf.FieldElement.var(0)
    radii = [
        xf.FieldElement.from_rational(1),
        xf.FieldElement.from_rational(Fraction(1, 2)),
        xf.FieldElement.from_rational(Fraction(2, 3)),
        alpha,
        alpha * xf.FieldElement.from_rational(Fraction(1, 3)),
        alpha * alpha,
        xf.FieldElement.from_rational(3),  # exercises the clamp
    ]
    pairs = _count(1_000, scale)
    for i in range(pairs):
        n = 2 if i % 2 == 0 else 3
        eps = radii[rng.randrange(len(radii))]
        delta = mg.shrink_radius(eps, n)
        a = _ball_matrix(rng, n, delta)
        b = _ball_matrix(rng, n, delta)
        report.cases += 1
        if not (mg.ball_member(a, delta) and mg.ball_member(b, delta)):
            report.record(f"sample#{i}", "generator left the delta ball")
            continue
        clamped = eps
        one = xf.FieldElement.from_rational(1)
        if xf.compare(clamped, one) == xf.GT:
            clamped = one
        if not mg.ball_member(mg.mat_mul(a, b), clamped):
            report.record(f"product#{i}",
                          f"n={n} eps={xf.format_element(eps)}")


# --- reduced power suite --------------------------------------------------------

def _random_eventual(rng):
    deg_n = rng.randint(0, 2)
    deg_d = rng.randint(0, 2)
    num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
           for _ in range(deg_n + 1)]
    den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
           for _ in range(deg_d + 1)]
    if not any(den):
        den = [Fraction(1)]
    f = rp.RatFunc(num, den)
    bound = max(4, f.settle_bound())
    prefix = []
    for i in range(bound):
        try:
            prefix.append(f.eval(i))
        except ZeroDivisionError:
            prefix.append(Fraction(0))
    return rp.EventualSeq(prefix, f)


def suite_rp_metric(report: SuiteReport, rng: random.Random, scale: float):
    pool = [_random_eventual(rng) for _ in range(40)]
    zero = rp.EventualSeq.constant(0)
    # total order on classes: antisymmetry and transitivity
    for i in range(_count(1_000, scale)):
        x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
        report.cases += 1
        xy, yx = rp.compare_ev(x, y), rp.compare_ev(y, x)
        if (xy == rp.EQ) != (yx == rp.EQ) or \
                (xy == rp.LT and yx != rp.GT):
            report.record(f"antisymmetry#{i}", rp.to_json(x))
            continue
        if rp.ev_le(x, y) and rp.ev_le(y, z) and not rp.ev_le(x, z):
            report.record(f"transitivity#{i}", rp.to_json(x))
    for i in range(_count(1_000, scale)):
        x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
        report.cases += 1
        dxy = rp.star_metric(x, y)
        if dxy != rp.star_metric(y, x):
            report.record(f"symmetry#{i}", rp.to_json(x))
            continue
        if (rp.compare_ev(dxy, zero) == rp.EQ) != x.equivalent(y):
            report.record(f"identity#{i}", rp.to_json(x))
            continue
        triangle = rp.star_metric(x, z)
        bound = dxy + rp.star_metric(y, z)
        if rp.compare_ev(triangle, bound) == rp.GT:
            report.record(f"triangle#{i}", rp.to_json(z))
            continue
        if rp.star_metric(x + z, y + z) != dxy:
            report.record(f"translation#{i}", rp.to_json(z))
    # the spherical-completeness instance: geometric partial sums
    count = _count(20, scale)
    instances = []
    for n in range(1, count + 1):
        prefix = [sum(Fraction(1, 2 ** m) for m in range(1, min(n, i) + 1))
                  for i in range(n)]
        g = rp.EventualSeq(prefix,
                           rp.RatFunc.constant(Fraction(1) - Fraction(1, 2 ** n)))
        eps = rp.EventualSeq.constant(Fraction(4, 2 ** n))
        instances.append((g, eps))
    report.cases += 1
    try:
        out = rp.interleave(instances, list(range(1, count)))
        for n, d, eps in out.certificates:
            if rp.compare_ev(d, eps) != rp.LT:
                report.record(f"interleave#{n}", "certificate failed")
    except rp.NestingError as exc:
        report.record("interleave", str(exc))
    # avoidance recursion at matching scale
    forbidden = [rp.Ball(rp.EventualSeq.constant(0),
                         rp.EventualSeq.constant(Fraction(1, 2 ** k)))
                 for k in range(1, 1 + _count(5, scale))]
    report.cases += 1
    try:
        witness = rp.baire_witness(
            rp.Ball(rp.EventualSeq.constant(0), rp.EventualSeq.constant(1)),
            forbidden)
        for j, d, r in witness.certificates:
            if rp.compare_ev(d, r) != rp.GT:
                report.record(f"baire#{j}", "avoidance certificate failed")
    except rp.AvoidanceError as exc:
        report.record("baire", str(exc))


# --- Roelcke-Dierolf lemma suite ---------------------------------------------------

F2 = gt.FreeGroup(("a", "b"))


def _random_word(rng, maxlen):
    letters = [(rng.choice("ab"), rng.choice((-1, 1)))
               for _ in range(rng.randint(0, maxlen))]
    return F2.reduce(letters)


def _random_subset(rng, max_size, maxlen):
    words = {_random_word(rng, maxlen) for _ in range(rng.randint(1, max_size))}
    return gt.SubsetSpec(F2, words)


def _random_phi(rng):
    phi = gt.PhiMap(_random_subset(rng, 2, 2))
    if rng.random() < 0.4:
        phi.exceptions[_random_word(rng, 2)] = _random_subset(rng, 2, 2)
    return phi


def _random_support(rng):
    support = [F2.identity]
    if rng.random() < 0.7:
        support.append(_random_word(rng, 2))
    return support


def _shrink_subset(rng, spec):
    words = sorted(spec.words)
    if len(words) > 1 and rng.random() < 0.7:
        words = words[:-1]
    return gt.SubsetSpec(F2, words)


def _monotone_phi_chain(rng, length):
    chain = [_random_phi(rng)]
    while len(chain) < length:
        prev = chain[-1]
        nxt = gt.PhiMap(_shrink_subset(rng, prev.default),
                        {p: _shrink_subset(rng, v)
                         for p, v in prev.exceptions.items()})
        chain.append(nxt)
    return chain


def suite_rd_lemmas(report: SuiteReport, rng: random.Random, scale: float):
    configs = _count(200, scale)
    # symmetry of truncated symmetric products
    for i in range(configs):
        phis = [_random_phi(rng) for _ in range(rng.randint(1, 3))]
        support = _random_support(rng)
        vsets = [gt.v_phi(phi, support, F2) for phi in phis]
        report.cases += 1
        bad = gt.symmetry_violations(vsets, len(vsets))
        if bad:
            report.record(f"symmetry#{i}", F2.format(sorted(bad)[0]))
    # squaring under pointwise monotone map sequences
    for i in range(configs):
        chain = _monotone_phi_chain(rng, 4)
        support = _random_support(rng)
        report.cases += 1
        bad = gt.squaring_violations(chain, support, F2, 2)
        if bad:
            report.record(f"squaring#{i}", F2.format(sorted(bad)[0]))
    # conjugation by the right translate
    for i in range(configs):
        phis = [_random_phi(rng) for _ in range(rng.randint(1, 2))]
        support = _random_support(rng)
        h = _random_word(rng, 2)
        report.cases += 1
        bad = gt.conjugation_violations(phis, support, h, F2, len(phis))
        if bad:
            report.record(f"conjugation#{i}", F2.format(sorted(bad)[0]))
    # intersection-filter bases: the union map grows along the index order
    for i in range(_count(50, scale)):
        vocab = sorted({_random_word(rng, 3) for _ in range(6)})
        presentations = []
        for _ in range(rng.randint(2, 3)):
            order = sorted(vocab, key=lambda w: (F2.length(w), w))
            presentations.append(
                lambda j, order=order: gt.SubsetSpec(
                    F2, order[:min(j + 1, len(order))]))
        f = tuple(rng.randint(0, 4) for _ in presentations)
        g = tuple(v + rng.randint(0, 2) for v in f)
        report.cases += 1
        if not gt.union_filter_monotone(presentations, f, g):
            report.record(f"filter-union#{i}", f"f={f} g={g}")
    # Birkhoff-Kakutani containment along squaring chains
    for i in range(configs):
        report.cases += 1
        chain = _bk_chain(rng)
        for k in range(len(chain) - 2):
            try:
                bad = gt.birkhoff_kakutani_violations(chain, k)
            except ValueError as exc:
                report.record(f"bk-chain#{i}", str(exc))
                break
            if bad:
                report.record(f"bk#{i}|k={k}", F2.format(sorted(bad)[0]))
                break


def _bk_chain(rng):
    """A squaring chain from a small symmetric seed, bounded in size."""
    while True:
        levels = rng.randint(4, 5)
        seed_word = _random_word(rng, 2) or F2.parse("a")
        seed = gt.SubsetSpec(F2, {F2.identity, seed_word, F2.inv(seed_word)})
        if rng.random() < 0.3:
            extra = _random_word(rng, 1) or F2.parse("b")
            seed = seed.union(gt.SubsetSpec(F2, {extra, F2.inv(extra)}))
            levels = 4
        chain = [seed]
        for _ in range(levels - 1):
            nxt = gt.product_set([chain[0], chain[0]]).union(chain[0])
            if len(nxt) > 800:
                break
            chain.insert(0, nxt)
        if len(chain) >= 3:
            return chain
        # mixed seed blew up early; a single-pair chain always fits


# --- abelian SIN suite ---------------------------------------------------------------

def _five_point_space():
    points = [Fraction(0), Fraction(1, 4), Fraction(1, 3),
              Fraction(1, 2), Fraction(1)]
    return points


def suite_sin_abelian(report: SuiteReport, rng: random.Random, scale: float):
    points = _five_point_space()
    labels = {p: f"p{idx}" for idx, p in enumerate(points)}
    group = gt.FreeAbelianGroup(tuple(labels[p] for p in points))

    def entourage_pairs(radius):
        return {(labels[x], labels[y]) for x in points for y in points
                if abs(x - y) < radius}

    thresholds = [Fraction(1, 10), Fraction(1, 12), Fraction(1, 5),
                  Fraction(1, 3)]
    for r in thresholds:
        pairs = entourage_pairs(r)
        _, iv = gt.i_of_entourage(pairs, group=group)
        for x in points:
            for y in points:
                if x == y:
                    continue
                report.cases += 1
                w = group.reduce(((labels[x], -1), (labels[y], 1)))
                got = gt.sin_base_member(w, [iv], 1, group=group).is_member
                want = (labels[x], labels[y]) in pairs
                if got != want:
                    report.record(f"horizon1 r={r}", f"pair {(x, y)}")
    # dynamic programme vs brute force, up to four summands
    radius_chain = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 10),
                    Fraction(1, 12)]
    vsets = []
    for r in radius_chain:
        _, iv = gt.i_of_entourage(entourage_pairs(r), group=group)
        vsets.append(iv)
    pools = []
    for v in vsets:
        sym = set(v.words) | {group.inv(w) for w in v.words}
        pools.append([group.identity] + sorted(sym))
    reachable = set()
    for combo in itertools.product(*pools):
        acc = group.identity
        for w in combo:
            acc = group.mul(acc, w)
        reachable.add(acc)
    targets = set(reachable)
    for _ in range(_count(150, scale)):
        targets.add(group.reduce(
            tuple((g, rng.randint(-2, 2)) for g in group.generators)))
    for w in sorted(targets):
        report.cases += 1
        got = gt.sin_base_member(w, vsets, 4, group=group).is_member
        if got != (w in reachable):
            report.record("dp-vs-brute", group.format(w))


# --- order suite -------------------------------------------------------------------

def suite_order(report: SuiteReport, rng: random.Random, scale: float):
    # almost-disjoint joins: all subsets of six branches
    branches = []
    while len(branches) < (6 if scale >= 1 else 4):
        b = ol.Branch(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3))),
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3))))
        if not any(b.same_branch(c) for c in branches):
            branches.append(b)
    depth = ol.disambiguation_depth(branches)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(len(branches)), r)
        for r in range(len(branches) + 1)))
    joins = {s: ol.ad_join([branches[i] for i in s], depth) for s in subsets}
    for s in subsets:
        for t in subsets:
            report.cases += 1
            lhs = joins[s].le(joins[t])
            rhs = set(s) <= set(t)
            if lhs != rhs:
                report.record("ad-embed", f"S={s} T={t}")
    # chain conversion: exhaustive over poset classes and chain maps
    max_n = 5 if scale >= 1 else 3
    max_tau = 5 if scale >= 1 else 3
    for n in range(1, max_n + 1):
        for masks in ol.poset_masks_up_to_iso(n):
            poset = ol.poset_from_masks(masks)
            elems = poset.elements
            for tau in range(1, max_tau + 1):
                for combo in itertools.product(range(n), repeat=tau):
                    g = [elems[i] for i in combo]
                    report.cases += 1
                    conv = ol.tukey_to_monotone(g, poset)
                    if not conv.is_monotone:
                        report.record("tukey-monotone", f"n={n} g={combo}")
                        continue
                    cert = ol.unbounded_certificate(conv)
                    if (cert is not None) != conv.is_cofinal:
                        report.record("tukey-cert", f"n={n} g={combo}")
                    elif cert is not None:
                        verified = ol.tukey_to_monotone(g, poset,
                                                        certificate=cert)
                        if not verified.certificate_valid:
                            report.record("tukey-cert-verify",
                                          f"n={n} g={combo}")
    # diagonal witness: exhaustive over diagonal value combinations (the
    # certificate only reads the diagonal), plus a random dense layer
    max_diag_tau = 6 if scale >= 1 else 3
    top = 9 if scale >= 1 else 4
    for tau in range(1, max_diag_tau + 1):
        zero_rows = [[0] * tau for _ in range(tau)]
        for diag in itertools.product(range(top + 1), repeat=tau):
            report.cases += 1
            for x in range(tau):
                zero_rows[x][x] = diag[x]
            z, cert = ol.diagonal_witness(zero_rows)
            for beta, zv, av in cert:
                if zv <= av or zv != diag[beta] + 1:
                    report.record("diagonal", f"tau={tau} diag={diag}")
                    break
    for i in range(_count(2_000, scale)):
        tau = rng.randint(1, max_diag_tau)
        rows = [tuple(rng.randrange(top + 1) for _ in range(tau))
                for _ in range(tau)]
        report.cases += 1
        z, cert = ol.diagonal_witness(rows)
        if any(zv <= av for _, zv, av in cert):
            report.record("diagonal-rand", f"i={i}")
    # box neighbourhood monotonicity on a rational grid
    grid_vals = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 3),
                 Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 2),
                 Fraction(1), Fraction(-1)]
    entries = range(1, 5 if scale >= 1 else 3)
    fs = [ol.FnSeq(v, 1) for v in itertools.product(entries, repeat=3)]
    vectors = [dict(enumerate(v))
               for v in itertools.product(grid_vals, repeat=3)]
    membership = []
    for f in fs:
        box = ol.box_nbhd(f)
        bits = 0
        for idx, vec in enumerate(vectors):
            if box.contains(vec):
                bits |= 1 << idx
        membership.append(bits)
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            if f.le(g):
                report.cases += 1
                # members of the tighter box must fill the looser one
                if membership[j] & ~membership[i]:
                    report.record("box-monotone", f"f={f.values} g={g.values}")


# --- uniformity suite -----------------------------------------------------------------

def suite_uniformity(report: SuiteReport, rng: random.Random, scale: float):
    n_max = 100 if scale >= 1 else 30
    space = ul.convergent_sequence(n_max, decomposition=[
        frozenset({Fraction(0)}),
        frozenset({Fraction(0)} | {Fraction(1, j) for j in range(1, 5)}),
        frozenset({Fraction(0)} | {Fraction(1, j) for j in range(1, 13)}),
        frozenset({Fraction(0)} | {Fraction(1, j) for j in range(1, 31)}),
    ])
    pieces = len(space.decomposition)
    points = space.points
    pairs = [(x, y) for x in points for y in points]
    # distance of each pair to each inflated compact piece, computed once
    dvecs = {}
    for x, y in pairs:
        dvecs[(x, y)] = tuple(
            space.distance_to_diagonal_compact(x, y, n) for n in range(pieces))
    max_entry = 6 if scale >= 1 else 4
    powers = [Fraction(1, 2 ** a) for a in range(max_entry + 1)]

    def m_vector(dv):
        out = []
        for d in dv:
            best = -1
            for a in range(max_entry + 1):
                if d < powers[a]:
                    best = a
            out.append(best)
        return tuple(out)

    signatures = {}
    for pair, dv in dvecs.items():
        signatures.setdefault(m_vector(dv), []).append(pair)
    sig_list = sorted(signatures)
    # sampled consistency of the signature table with the public op
    for _ in range(_count(300, scale)):
        pair = pairs[rng.randrange(len(pairs))]
        alpha = ol.FnSeq(tuple(rng.randint(0, max_entry)
                               for _ in range(pieces)), max_entry)
        report.cases += 1
        mv = m_vector(dvecs[pair])
        predicted = pair[0] == pair[1] or any(
            alpha.get(n) <= mv[n] for n in range(pieces))
        if ul.u_alpha_member(space, alpha, *pair) != predicted:
            report.record("signature-table", f"pair={pair}")
    # exhaustive monotonicity over all comparable alpha pairs
    alphas = list(itertools.product(range(max_entry + 1), repeat=pieces))
    index = {a: i for i, a in enumerate(alphas)}
    bits = []
    for a in alphas:
        word = 0
        for s_idx, mv in enumerate(sig_list):
            if any(a[n] <= mv[n] for n in range(pieces)):
                word |= 1 << s_idx
        bits.append(word)
    coord_pairs = [(lo, hi) for lo in range(max_entry + 1)
                   for hi in range(lo, max_entry + 1)]
    for combo in itertools.product(coord_pairs, repeat=pieces):
        small = tuple(c[0] for c in combo)
        large = tuple(c[1] for c in combo)
        report.cases += 1
        if bits[index[large]] & ~bits[index[small]]:
            report.record("monotone", f"alpha={small} alpha'={large}")
    # cofinal search on random open diagonal neighbourhoods, audited
    for i in range(_count(50, scale)):
        radii = {p: Fraction(1, rng.randint(2, 64)) for p in points}
        target = ul.SpacedDiagonalNeighbourhood(space, radii)
        report.cases += 1
        alpha = ul.base_cofinal_search(space, target)
        if not isinstance(alpha, ol.FnSeq):
            report.record(f"cofinal#{i}", f"search failed: {alpha}")
            continue
        alpha_radii = [Fraction(1, 2 ** alpha.get(n)) for n in range(pieces)]
        for (x, y), dv in dvecs.items():
            member = x == y or any(
                dv[n] < alpha_radii[n] for n in range(pieces))
            if member and not target.contains(x, y) and x != y:
                report.record(f"audit#{i}", f"pair={(x, y)}")
                break
            if x == y and not target.contains(x, y):
                report.record(f"audit-diag#{i}", f"point={x}")
                break


SUITES = {
    "field-axioms": suite_field_axioms,
    "matrix-shrink": suite_matrix_shrink,
    "rp-metric": suite_rp_metric,
    "rd-lemmas": suite_rd_lemmas,
    "sin-abelian": suite_sin_abelian,
    "order": suite_order,
    "uniformity": suite_uniformity,
}


class UnknownSuiteError(ValueError):
    def __init__(self, name):
        known = ", ".join(sorted(SUITES))
        super().__init__(f"unknown suite {name!r}; available: {known}")


def run_suite(name: str, seed: int = 0, scale: float = 1.0) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(name)
    report = SuiteReport(suite=name, seed=seed, scale=scale)
    rng = random.Random(seed)
    started = time.perf_counter()
    try:
        SUITES[name](report, rng, scale)
    except Exception as exc:  # a crash is a failure with a repro, not a traceback
        report.record("crash", repr(exc))
    report.wall_ms = (time.perf_counter() - started) * 1000.0
    return report
