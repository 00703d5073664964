import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ordtop.group_topology import (
    FreeAbelianGroup,
    FreeGroup,
    PhiMap,
    SubsetSpec,
    SymNoUpTo,
    SymYes,
    UnknownGeneratorError,
    birkhoff_kakutani_violations,
    conjugation_violations,
    i_of_entourage,
    product_set,
    rd_monotone_check,
    sin_base_member,
    squaring_violations,
    sym_member,
    sym_set,
    symmetry_violations,
    union_filter_monotone,
    v_phi,
    verify_certificate,
)

F2 = FreeGroup(("a", "b"))
A2 = FreeAbelianGroup(("x", "y"))


def W(text):
    return F2.parse(text)


def S(*texts):
    return SubsetSpec.from_texts(F2, texts)


# --- brute-force oracle: no shared-prefix machinery ----------------------

def brute_sym_member(group, w, bs, horizon):
    w = tuple(w)
    for n in range(1, horizon + 1):
        for sigma in itertools.permutations(range(n)):
            pools = [bs[i].words for i in sigma]
            for combo in itertools.product(*pools):
                acc = group.identity
                for factor in combo:
                    acc = group.mul(acc, factor)
                if acc == w:
                    return True
    return False


# --- words -----------------------------------------------------------------

def test_reduce_examples():
    assert F2.reduce((("a", 1), ("b", 1), ("b", -1))) == (("a", 1),)
    assert F2.reduce(()) == ()
    assert F2.reduce((("a", -1), ("a", 1), ("a", 1), ("b", 1))) == \
        (("a", 1), ("b", 1))
    assert F2.parse("a b^-1 b a^-1") == ()
    assert F2.parse("e") == ()


def test_reduce_idempotent_random():
    rng = random.Random(2)
    for _ in range(200):
        letters = [(rng.choice("ab"), rng.choice((-1, 1)))
                   for _ in range(rng.randint(0, 10))]
        w = F2.reduce(letters)
        assert F2.reduce(w) == w
        assert F2.mul(w, F2.inv(w)) == ()


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        F2.parse("c")
    with pytest.raises(UnknownGeneratorError):
        F2.reduce((("z", 1),))


def test_abelian_words():
    assert A2.parse("x y x") == (("x", 2), ("y", 1))
    assert A2.mul(A2.parse("x^2"), A2.parse("x^-2 y")) == (("y", 1),)
    assert A2.conjugate(A2.parse("x"), A2.parse("y^5")) == A2.parse("x")


def test_format_roundtrip():
    for text in ("e", "a", "a^-1 b^2", "b a b^-1"):
        assert F2.format(F2.parse(text)) == text or \
            F2.parse(F2.format(F2.parse(text))) == F2.parse(text)


# --- products ----------------------------------------------------------------

def test_product_set_examples():
    assert product_set([S("a"), S("b")]).words == {W("a b")}
    assert product_set([S("a b"), S("b^-1")]).words == {W("a")}
    got = product_set([S("a", "a^-1"), S("a", "a^-1")]).words
    assert got == {W("a^2"), (), W("a^-2")}


def test_product_cap():
    with pytest.raises(ValueError):
        product_set([S("a")] * 9)


def test_sym_member_examples():
    res = sym_member(W("b a"), [S("a"), S("b")], 2)
    assert isinstance(res, SymYes)
    assert res.n == 2 and res.sigma == (2, 1)
    assert verify_certificate(F2, W("b a"), [S("a"), S("b")], res)

    res = sym_member((), [S("e", "a")], 1)
    assert isinstance(res, SymYes) and res.n == 1

    res = sym_member(W("a^3"), [S("a"), S("a")], 2)
    assert res == SymNoUpTo(2)


def test_sym_member_matches_brute_force():
    rng = random.Random(8)
    words = ["e", "a", "b", "a^-1", "a b", "b a", "a^2", "a b^-1", "b^2 a"]
    for _ in range(60):
        bs = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 3)
            bs.append(SubsetSpec(F2, {F2.parse(rng.choice(words))
                                      for _ in range(size)}))
        horizon = len(bs)
        target = F2.parse(rng.choice(words))
        fast = sym_member(target, bs, horizon).is_member
        slow = brute_sym_member(F2, target, bs, horizon)
        assert fast == slow


def test_sym_set_certificates_verify():
    bs = [S("a", "b^-1"), S("b", "e"), S("a^-1")]
    members = sym_set(bs, 3)
    assert members
    for w, cert in members.items():
        assert verify_certificate(F2, w, bs, cert)


class CountingFreeGroup(FreeGroup):
    def __init__(self, generators):
        super().__init__(generators)
        self.mul_calls = 0

    def mul(self, u, v):
        self.mul_calls += 1
        return super().mul(u, v)


def test_far_target_pruned_at_first_level():
    group = CountingFreeGroup(("a", "b"))
    texts = [("a", "b^-1"), ("a b", "e"), ("b^2",), ("a^-1", "b a"),
             ("b", "a^2"), ("a b^-1", "b^-1")]
    bs = [SubsetSpec.from_texts(group, t) for t in texts]
    # the longest words sum to 11, so no product reaches length 12
    target = group.parse("a^6 b^6")
    group.mul_calls = 0
    assert sym_member(target, bs, 6) == SymNoUpTo(6)
    assert group.mul_calls <= sum(len(b) for b in bs)


# Certificates of the depth-first walk: the visiting order and the first
# factorization found per word.
PINNED_SETS = {
    3: [["a", "b"], ["a", "a^-2", "b^-1 a^-1"], ["b", "e"]],
    4: [["a^2", "b", "b^-1"], ["b", "b^-1"], ["a", "b a^-1", "b^-1 a^-1"],
        ["a", "a^-1", "b^-1 a"]],
    5: [["b a", "e"], ["b", "b^-1", "e"], ["b", "b a"], ["a^-1", "b^2"],
        ["b^-1", "b^-2", "e"]],
}


@pytest.mark.parametrize("horizon, target, n, sigma, factors", [
    (3, "b a b", 3, (1, 2, 3), ["b", "a", "b"]),
    (4, "b^-1 a^-1 b^2 a", 4, (3, 1, 2, 4), ["b^-1 a^-1", "b", "b", "a"]),
    (5, "b a b a^-1 b", 4, (1, 2, 4, 3), ["b a", "b", "a^-1", "b"]),
])
def test_sym_member_certificates_pinned(horizon, target, n, sigma, factors):
    bs = [S(*t) for t in PINNED_SETS[horizon]]
    assert sym_member(W(target), bs, horizon) == \
        SymYes(n, sigma, tuple(W(f) for f in factors))


@pytest.mark.parametrize("horizon, length_cap, size, pins", [
    (3, None, 29, [("e", 3, (1, 3, 2), ["a", "b", "b^-1 a^-1"]),
                   ("a^2 b", 3, (1, 2, 3), ["a", "a", "b"]),
                   ("b^2 a^-2", 3, (1, 3, 2), ["b", "b", "a^-2"])]),
    (3, 2, 14, [("a^2", 2, (1, 2), ["a", "a"]),
                ("b^-1 a^-1 b", 2, (2, 1), ["b^-1 a^-1", "b"])]),
    (4, None, 398, [("a b a b", 4, (3, 1, 4, 2), ["a", "b", "a", "b"]),
                    ("b^-2 a b a^-1", 4, (1, 2, 4, 3),
                     ["b^-1", "b^-1", "a", "b a^-1"]),
                    ("b^2 a^-1 b^-1 a^3", 4, (2, 3, 4, 1),
                     ["b", "b a^-1", "b^-1 a", "a^2"])]),
    (4, 2, 41, [("b^-1 a^2", 2, (2, 1), ["b^-1", "a^2"]),
                ("b^3 a^-1", 3, (1, 2, 3), ["b", "b", "b a^-1"])]),
    (5, None, 358, [("e", 1, (1,), ["e"]),
                    ("b^4 a b a b^-2", 5, (2, 4, 1, 3, 5),
                     ["b", "b^2", "b a", "b a", "b^-2"])]),
    (5, 2, 48, [("b a^2", 3, (1, 2, 3), ["b a", "b^-1", "b a"]),
                ("b^2 a b a", 3, (2, 1, 3), ["b", "b a", "b a"])]),
])
def test_sym_set_certificates_pinned(horizon, length_cap, size, pins):
    bs = [S(*t) for t in PINNED_SETS[horizon]]
    members = sym_set(bs, horizon, length_cap=length_cap)
    assert len(members) == size
    for word, n, sigma, factors in pins:
        assert members[W(word)] == SymYes(n, sigma,
                                          tuple(W(f) for f in factors))


@pytest.mark.parametrize("horizon, message", [
    (-1, "horizon -1 is negative"),
    (3, "horizon 3 exceeds the available sets or cap"),
])
def test_horizon_outside_the_sets_is_refused(horizon, message):
    bs = [S("a"), S("b")]
    for walk in (lambda: sym_member(W("a b"), bs, horizon),
                 lambda: sym_set(bs, horizon)):
        with pytest.raises(ValueError) as info:
            walk()
        assert str(info.value) == message


_HASH_PROBE = """
import json
from ordtop.group_topology import FreeGroup, SubsetSpec, sym_set
F2 = FreeGroup(("a", "b"))
bs = [SubsetSpec.from_texts(F2, t) for t in {sets!r}]
print(json.dumps(sorted(
    [F2.format(w), yes.n, list(yes.sigma), [F2.format(f) for f in yes.factors]]
    for w, yes in sym_set(bs, {horizon}).items())))
"""


def test_sym_set_certificates_ignore_hash_seed():
    # the factors come from walking each set's words in a fixed order, so
    # two interpreters with different string hashing agree on every word
    script = _HASH_PROBE.format(sets=PINNED_SETS[4], horizon=4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert len(json.loads(outputs[0])) == 398
    assert outputs[0] == outputs[1]


def test_sym_set_walks_words_in_generator_index_order():
    # z = x y = y (y^-1 x y): the certificate takes x, the word whose
    # generator comes first, even with ids that do not compare
    group = FreeGroup((1, "a"))
    x, y = ((1, 1),), (("a", 1),)
    z = group.mul(x, y)
    bs = [SubsetSpec(group, [y, x]),
          SubsetSpec(group, [y, group.mul(group.inv(y), z)])]
    members = sym_set(bs, 2)
    assert members[z] == SymYes(2, (1, 2), (x, y))
    assert all(verify_certificate(group, w, bs, yes)
               for w, yes in members.items())


# --- conjugation unions --------------------------------------------------------

def test_v_phi_rank_one():
    g1 = FreeGroup(("a",))
    phi = PhiMap(SubsetSpec.from_texts(g1, ["a^2"]))
    out = v_phi(phi, [g1.identity, g1.parse("a")], g1)
    assert out.words == {g1.parse("a^2"), g1.parse("a^-2")}


def test_v_phi_identity_map():
    phi = PhiMap(S("e"))
    assert v_phi(phi, [()], F2).words == {()}


def test_v_phi_conjugated():
    phi = PhiMap(S("a"))
    out = v_phi(phi, [(), W("b")], F2)
    assert out.words == {W("b^-1 a b"), W("b^-1 a^-1 b"), W("a"), W("a^-1")}


def test_v_phi_monotone_in_support_and_phi():
    phi = PhiMap(S("a"))
    psi = PhiMap(S("a", "b"))
    small = v_phi(phi, [()], F2)
    assert small.words <= v_phi(phi, [(), W("b")], F2).words
    assert small.words <= v_phi(psi, [()], F2).words


def test_i_of_entourage():
    _, spec = i_of_entourage([("x", "x"), ("y", "y")])
    assert spec.words == {()}

    group, spec = i_of_entourage(
        [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")])
    expected = {(), group.parse("x^-1 y"), group.parse("y^-1 x"),
                group.parse("x y^-1"), group.parse("y x^-1")}
    assert spec.words == expected

    with pytest.raises(ValueError):
        i_of_entourage([("x", "x"), ("x", "y")])  # not symmetric
    with pytest.raises(ValueError):
        i_of_entourage([("x", "y"), ("y", "x")])  # not reflexive


def test_i_of_entourage_threshold_count():
    # 3-point space, close pairs under a threshold: 1 + 4 * pairs words
    points = ["p", "q", "r"]
    close = {("p", "q"), ("q", "p")}
    pairs = {(x, x) for x in points} | close
    _, spec = i_of_entourage(pairs)
    assert len(spec.words) == 1 + 4 * 1


# --- SIN base membership ---------------------------------------------------------

def test_sin_base_abelian_examples():
    group, iv = i_of_entourage(
        [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")], abelian=True)
    w = group.parse("x^-1 y")
    assert sin_base_member(w, [iv], 1, group=group).is_member

    g2 = FreeAbelianGroup(("x", "y"))
    v1 = SubsetSpec.from_texts(g2, ["x y^-1"])
    assert sin_base_member(g2.parse("x^2"), [v1], 1, group=g2) == SymNoUpTo(1)
    assert sin_base_member(g2.identity, [v1], 0, group=g2).is_member


def test_sin_base_abelian_matches_brute():
    rng = random.Random(4)
    g2 = FreeAbelianGroup(("x", "y"))
    vocab = ["x", "y", "x y", "x^-1", "y^2", "x y^-1"]
    for _ in range(40):
        vs = [SubsetSpec(g2, {g2.parse(rng.choice(vocab))
                              for _ in range(rng.randint(1, 2))})
              for _ in range(rng.randint(1, 4))]
        horizon = len(vs)
        target = g2.reduce([(g, rng.randint(-2, 2)) for g in ("x", "y")])
        got = sin_base_member(target, vs, horizon, group=g2).is_member
        # brute force over all choices, each set contributing +v, -v or 0
        found = False
        pools = [[g2.identity] + [w for v in (s.words,) for w in v]
                 + [g2.inv(w) for w in s.words] for s in vs]
        for combo in itertools.product(*pools):
            acc = g2.identity
            for x in combo:
                acc = g2.mul(acc, x)
            if acc == target:
                found = True
                break
        assert got == found


def test_sin_base_free_uses_support():
    v = S("a")
    w = W("b^-1 a b")
    assert not sin_base_member(w, [v], 1, support=[()], group=F2).is_member
    assert sin_base_member(w, [v], 1, support=[(), W("b")], group=F2).is_member


# --- monotonicity and lemma checks -----------------------------------------------

def test_rd_monotone_trivial_and_enlarged():
    phi = PhiMap(S("a"))
    psi = PhiMap(S("a", "a^2"))
    words = [W(t) for t in ("a", "a^2", "a b", "e", "b")]
    assert rd_monotone_check([phi], [phi], words, 1, [()], F2)
    assert rd_monotone_check([phi], [psi], words, 1, [()], F2)
    bumped = PhiMap(S("a"), {W("b"): S("a", "b")})
    assert rd_monotone_check([phi], [bumped], words, 1, [(), W("b")], F2)
    with pytest.raises(ValueError):
        rd_monotone_check([psi], [phi], words, 1, [()], F2)


def test_symmetry_of_sym_sets():
    phi1 = PhiMap(S("a b"))
    phi2 = PhiMap(S("b"), {W("a"): S("b", "a^2")})
    vsets = [v_phi(phi1, [(), W("a")], F2), v_phi(phi2, [()], F2)]
    assert symmetry_violations(vsets, 2) == set()


def test_squaring_lemma_small():
    base = ["a", "b", "a b"]
    phis = []
    current = set(base)
    for _ in range(4):
        phis.append(PhiMap(SubsetSpec.from_texts(F2, sorted(current))))
        if len(current) > 1:
            current = set(sorted(current)[:-1])
    assert squaring_violations(phis, [()], F2, 2) == set()


def test_conjugation_lemma_small():
    phis = [PhiMap(S("a"), {W("b"): S("a", "b")}), PhiMap(S("a"))]
    assert conjugation_violations(phis, [(), W("b")], W("a b"), F2, 2) == set()


def test_birkhoff_kakutani_small():
    top = S("e", "a", "a^-1")
    v3 = top
    v2 = product_set([v3, v3]).union(v3)
    v1 = product_set([v2, v2]).union(v2)
    v0 = product_set([v1, v1]).union(v1)
    chain = [v0, v1, v2, v3]
    assert birkhoff_kakutani_violations(chain, 0) == set()
    bad_chain = [S("e", "a"), S("e", "a^2")]
    with pytest.raises(ValueError):
        birkhoff_kakutani_violations(bad_chain, 0)


def test_union_filter_monotone():
    def make(n):
        def vn(j):
            words = {W("a") if (n + j) % 2 else W("b")}
            words |= {W(f"a^{k}") for k in range(1, j + 1)}
            return SubsetSpec(F2, {F2.reduce(w) for w in words})
        return vn

    pres = [make(n) for n in range(3)]
    # increasing families so the union grows with the index vector
    def nested(n):
        def vn(j):
            return SubsetSpec(F2, {W(f"a^{k}") for k in range(1, j + 2)}
                              | {()})
        return vn

    pres = [nested(n) for n in range(3)]
    assert union_filter_monotone(pres, (0, 1, 2), (1, 1, 3))
    with pytest.raises(ValueError):
        union_filter_monotone(pres, (2, 1, 2), (1, 1, 3))
