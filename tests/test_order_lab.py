import hashlib
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordtop.order_lab import (
    Branch,
    FinitePoset,
    FnSeq,
    ad_join,
    box_nbhd,
    branch_codes,
    branch_subset,
    check_cofinal,
    check_monotone,
    diagonal_witness,
    disambiguation_depth,
    poset_from_masks,
    poset_masks_up_to_iso,
    prefix_code,
    search_unbounded_certificate,
    tukey_to_monotone,
)


# --- posets and map checks -------------------------------------------------

def test_poset_validation():
    p = FinitePoset("ab", {("a", "a"), ("b", "b"), ("a", "b")})
    assert p.below == (0b01, 0b11)
    assert p.le("a", "b") and not p.le("b", "a") and p.le("b", "b")
    assert not p.le("a", "z") and not p.le("z", "z")  # outside the poset
    with pytest.raises(ValueError, match="not reflexive at 'b'"):
        FinitePoset("ab", {("a", "a")})  # not reflexive
    with pytest.raises(ValueError, match="antisymmetry fails on 'a', 'b'"):
        FinitePoset("ab", {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")})
    with pytest.raises(ValueError,
                       match="transitivity fails: 'a' <= 'b' <= 'c'"):
        FinitePoset("abc", {("a", "a"), ("b", "b"), ("c", "c"),
                            ("a", "b"), ("b", "c")})  # not transitive
    with pytest.raises(ValueError, match=r"unknown element \('a', 'z'\)"):
        FinitePoset("ab", {("a", "a"), ("b", "b"), ("a", "z")})
    with pytest.raises(ValueError, match="must be distinct"):
        FinitePoset("aa", {("a", "a")})


def test_identity_map_monotone_cofinal():
    d = FinitePoset.chain(4)
    ident = {x: x for x in d.elements}
    assert check_monotone(ident, d, d)
    assert check_cofinal(ident, d, d)


def test_constant_map_not_cofinal():
    d = FinitePoset.chain(4)
    const = {x: 1 for x in d.elements}
    assert check_monotone(const, d, d)
    assert not check_cofinal(const, d, d)


def test_partial_map_rejected():
    d = FinitePoset.chain(3)
    with pytest.raises(ValueError):
        check_monotone({0: 0}, d, d)


# --- semilattice extension ----------------------------------------------------

V3 = {"k1": {1, 2}, "k2": {2, 3}, "k3": {2, 4}}


def test_semilattice_induced_map_monotone_cofinal():
    # D: non-empty index subsets by inclusion; E: the generated
    # intersection family ordered by reverse inclusion.
    keys = list(V3)
    subsets = [frozenset(c) for r in range(1, 4)
               for c in combinations(keys, r)]
    d = FinitePoset(subsets, {(a, b) for a in subsets for b in subsets
                              if a <= b})
    f = {s: frozenset.intersection(*(frozenset(V3[k]) for k in s))
         for s in subsets}
    family = sorted(set(f.values()), key=sorted)
    e = FinitePoset(family, {(a, b) for a in family for b in family
                             if b <= a})
    assert check_monotone(f, d, e)
    assert check_cofinal(f, d, e)


# --- almost-disjoint joins -------------------------------------------------------

R0 = Branch("", "0")
R1 = Branch("", "1")
R01 = Branch("0", "10")
R_DUP = Branch("00", "00")  # same branch as R0


def test_prefix_code_bijection():
    assert prefix_code("") == 0
    assert prefix_code("0") == 1
    assert prefix_code("1") == 2
    assert prefix_code("00") == 3
    seen = {prefix_code(f"{i:0{k}b}") for k in range(1, 8)
            for i in range(2 ** k)} | {0}
    assert seen == set(range(2 ** 8 - 1))


def test_branch_identity():
    assert R0.same_branch(R_DUP)
    assert not R0.same_branch(R1)
    depth = disambiguation_depth([R0])
    assert depth == 2  # no preperiod, unit period
    assert ad_join([R0], depth).codes == branch_codes(R0, depth)


def test_join_subset_example():
    depth = disambiguation_depth([R0, R1, R01])
    s = ad_join([R0], depth)
    t = ad_join([R0, R1], depth)
    assert s.le(t)
    assert not t.le(s)


def test_disjoint_branches_incomparable():
    depth = disambiguation_depth([R0, R1])
    a = ad_join([R0], depth)
    b = ad_join([R1], depth)
    assert not a.le(b) and not b.le(a)
    assert a.codes & b.codes == {0}  # only the empty prefix


def test_shared_branch_not_enough():
    depth = disambiguation_depth([R0, R1, R01])
    s = ad_join([R0, R01], depth)
    t = ad_join([R01, R1], depth)
    assert not s.le(t)


def test_join_errors():
    with pytest.raises(ValueError):
        ad_join([R0, R_DUP], 64)
    with pytest.raises(ValueError):
        ad_join([R0, R1], 1)


def test_embedding_matches_branch_criterion():
    rng = random.Random(6)
    pool = [Branch("".join(rng.choice("01") for _ in range(rng.randint(0, 3))),
                   "".join(rng.choice("01") for _ in range(rng.randint(1, 3))))
            for _ in range(10)]
    distinct = []
    for b in pool:
        if not any(b.same_branch(c) for c in distinct):
            distinct.append(b)
    depth = disambiguation_depth(distinct)
    for _ in range(60):
        s = rng.sample(distinct, rng.randint(0, len(distinct)))
        t = rng.sample(distinct, rng.randint(0, len(distinct)))
        lhs = ad_join(s, depth).le(ad_join(t, depth))
        assert lhs == branch_subset(s, t)


# --- chain conversion ---------------------------------------------------------------

def test_identity_conversion():
    d = FinitePoset.chain(5)
    conv = tukey_to_monotone(list(range(5)), d)
    assert conv.is_monotone and conv.is_cofinal
    assert conv.mapping == {0: 1, 1: 2, 2: 3, 3: 4, 4: 4}
    assert conv.overflow == {4}


def test_subset_poset_conversion():
    universe = range(4)
    subsets = [frozenset(c) for r in range(5)
               for c in combinations(universe, r)]
    d = FinitePoset(subsets, {(a, b) for a in subsets for b in subsets
                              if a <= b})
    g = [frozenset(range(eta)) for eta in range(5)]
    conv = tukey_to_monotone(g, d)
    assert conv.is_monotone and conv.is_cofinal
    for a in subsets:
        prefix = max((eta for eta in range(5) if frozenset(range(eta)) <= a),
                     default=None)
        assert conv.mapping[a] == min(prefix + 1, 4)


def test_constant_conversion_not_cofinal():
    d = FinitePoset.chain(3)
    conv = tukey_to_monotone([1, 1, 1], d)
    assert conv.is_monotone and not conv.is_cofinal
    assert set(conv.mapping.values()) == {0, 2}
    assert conv.overflow == {1, 2}


def test_certificate_matches_cofinality_exhaustive_small():
    for masks in (m for n in range(1, 5) for m in poset_masks_up_to_iso(n)):
        poset = poset_from_masks(masks)
        n = len(poset.elements)
        for tau in (1, 2, 3, 4):
            for g_code in range(n ** tau):
                g = []
                code = g_code
                for _ in range(tau):
                    g.append(poset.elements[code % n])
                    code //= n
                conv = tukey_to_monotone(g, poset)
                cert = search_unbounded_certificate(g, poset)
                assert conv.is_monotone
                assert (cert is not None) == conv.is_cofinal
                if cert is not None:
                    verified = tukey_to_monotone(g, poset, certificate=cert)
                    assert verified.certificate_valid


# --- diagonal witness ------------------------------------------------------------------

def test_diagonal_examples():
    z, cert = diagonal_witness([(0, 1), (2, 0)])
    assert z == (1, 1)
    assert cert == [(0, 1, 0), (1, 1, 0)]
    z, _ = diagonal_witness([(0, 0, 0)] * 3)
    assert z == (1, 1, 1)
    z, _ = diagonal_witness([(5,)])
    assert z == (6,)


# --- box neighbourhoods ------------------------------------------------------------------

def test_box_membership_example():
    box = box_nbhd(FnSeq((1, 2, 4), 1))
    assert box.contains({1: Fraction(2, 5), 2: Fraction(1, 10)})
    assert not box.contains({1: Fraction(1, 2)})
    assert box.contains({})
    with pytest.raises(ValueError):
        box_nbhd(FnSeq((1, 0), 1))


def test_box_monotone_on_grid():
    grid_vals = [Fraction(n, d) for n in (-1, 0, 1) for d in (1, 2, 3)]
    fs = [FnSeq((a, b, c), 1) for a in (1, 2) for b in (1, 3) for c in (2, 4)]
    for f in fs:
        for g in fs:
            if f.le(g):
                bf, bg = box_nbhd(f), box_nbhd(g)
                for x0 in grid_vals:
                    for x1 in grid_vals:
                        vec = {0: x0, 1: x1}
                        if bg.contains(vec):
                            assert bf.contains(vec)


def test_fnseq_join_is_pointwise_max():
    a = FnSeq((1, 5), 2)
    b = FnSeq((3,), 1)
    j = a.join(b)
    for i in range(5):
        assert j.get(i) == max(a.get(i), b.get(i))
    assert a.le(j) and b.le(j)


def test_fnseq_value_semantics():
    a = FnSeq([1, 2.0, 3], 4)
    assert a.values == (1, 2, 3) and all(type(v) is int for v in a.values)
    with pytest.raises(ValueError):
        FnSeq((1, -1), 0)
    with pytest.raises(AttributeError):
        a.tail = 5
    assert not hasattr(a, "__dict__")
    assert a == FnSeq((1, 2, 3), 4) and hash(a) == hash(FnSeq((1, 2, 3), 4))
    assert a != FnSeq((1, 2, 3), 5)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert b == a and hash(b) == hash(a)


# --- poset enumeration ---------------------------------------------------------------------

# Each class is its lexicographically smallest relabeling; callers pick
# classes by index, so the lists themselves are pinned.
POSETS_4 = [
    (1, 2, 4, 8), (1, 2, 4, 9), (1, 2, 4, 11), (1, 2, 4, 15), (1, 2, 5, 9),
    (1, 2, 5, 10), (1, 2, 5, 11), (1, 2, 5, 13), (1, 2, 5, 15), (1, 2, 7, 11),
    (1, 2, 7, 15), (1, 3, 5, 9), (1, 3, 5, 11), (1, 3, 5, 15), (1, 3, 7, 11),
    (1, 3, 7, 15),
]
POSETS_5_SHA256 = \
    "3acf35ec62ff4c549017682f3ffbc477872c1835f1ea1b26214c3762fd3756cc"


def test_poset_counts_up_to_iso():
    assert poset_masks_up_to_iso(0) == [()]
    assert len(poset_masks_up_to_iso(1)) == 1
    assert len(poset_masks_up_to_iso(2)) == 2
    assert len(poset_masks_up_to_iso(3)) == 5
    assert len(poset_masks_up_to_iso(4)) == 16
    assert len(poset_masks_up_to_iso(5)) == 63  # OEIS A000112
    assert poset_masks_up_to_iso(4) == POSETS_4
    digest = hashlib.sha256(repr(poset_masks_up_to_iso(5)).encode()).hexdigest()
    assert digest == POSETS_5_SHA256


def test_masks_build_valid_posets():
    for n in range(6):
        for masks in poset_masks_up_to_iso(n):
            poset = poset_from_masks(masks)  # construction validates the axioms
            assert poset.below == masks
            assert poset.elements == tuple(range(n))
