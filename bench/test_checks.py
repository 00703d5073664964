"""The benchmark's own tests: every check accepts ordtop's answer and
rejects a deliberately wrong one.

    python3 -m pytest -q bench/test_checks.py

The wrong answers are made here, from the program's real output, and
never inside the program.  Every operation class of every workload must
have a mutator below, so each family of checks is exercised.
"""

import dataclasses
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402
import workloads  # noqa: E402
from harness import CheckFailed, run_rounds, stratified, tail_latency  # noqa: E402

from ordtop import exact_field as xf  # noqa: E402
from ordtop import group_topology as gt  # noqa: E402
from ordtop import matrix_group as mg  # noqa: E402
from ordtop import order_lab as ol  # noqa: E402
from ordtop import reduced_power as rp  # noqa: E402

ONE = xf.FieldElement.from_rational(1)
SHIFT = rp.RatFunc.constant(Fraction(1, 7))


def _bump_matrix(m):
    rows = [list(r) for r in m.rows]
    rows[0][0] = rows[0][0] + ONE
    return mg.Matrix(rows)


def _wrong_inverse(inp, out):
    return mg.Matrix.identity(inp[0].n) if out is None else _bump_matrix(out)


def _shift_seq(s):
    return rp.EventualSeq(s.prefix, s.tail + SHIFT)


def _flip_member(inp, out):
    target, _sets, h = inp[:3]
    return gt.SymNoUpTo(h) if out.is_member else gt.SymYes(1, (1,), (target,))


def _drop_one(out):
    out = dict(out)
    out.pop(next(w for w in out if w))
    return out


FLIP = {"LT": "GT", "GT": "LT", "EQ": "LT"}

MUTATORS = {
    # tower
    "field_add": lambda i, o: o + ONE,
    "field_mul": lambda i, o: o + ONE,
    "field_invert": lambda i, o: o + ONE,
    "field_compare": lambda i, o: FLIP[o],
    "field_leading_term": lambda i, o: (o[0], o[1] + 1),
    "field_format_parse": lambda i, o: o + ONE,
    "gl2_inv": _wrong_inverse,
    "gl3_inv": _wrong_inverse,
    "gl4_inv": _wrong_inverse,
    "gl2_det": lambda i, o: o + ONE,
    "gl3_det": lambda i, o: o + ONE,
    "mat_mul": lambda i, o: _bump_matrix(o),
    "shrink_ball": lambda i, o: (o[0], o[1], o[2], False),
    # sequences
    "compare_ev": lambda i, o: FLIP[o],
    "star_metric": lambda i, o: _shift_seq(o),
    "star_metric_far": lambda i, o: _shift_seq(o),
    "star_axioms": lambda i, o: o[:4] + (_shift_seq(o[4]),),
    "seq_arith": lambda i, o: (_shift_seq(o[0]), o[1], o[2]),
    "json_roundtrip": lambda i, o: _shift_seq(o),
    "interleave": lambda i, o: rp.InterleaveResult(_shift_seq(o.witness), o.certificates),
    "baire_witness": lambda i, o: rp.BaireWitness(i[1][0].center, o.chain, o.certificates),
    # words
    "member_reach_h4": _flip_member,
    "member_reach_h5": _flip_member,
    "member_in_order_h6": _flip_member,
    "member_in_order_h7": _flip_member,
    "member_random_h4": _flip_member,
    "member_random_h5": _flip_member,
    "member_far_h4": _flip_member,
    "member_far_h5": _flip_member,
    "sym_set_h5": lambda i, o: _drop_one(o),
    "sym_set_h5_symmetric": lambda i, o: _drop_one(o),
    "lemma_symmetry": lambda i, o: {(("a", 1),)},
    "lemma_squaring": lambda i, o: {(("a", 1),)},
    "lemma_conjugation": lambda i, o: {(("a", 1),)},
    "lemma_birkhoff_kakutani": lambda i, o: {(("a", 1),)},
    "sin_free": lambda i, o: (gt.SymNoUpTo(i[2]) if o.is_member
                              else gt.SymYes(1, (1,), (i[0],))),
    "sin_abelian": lambda i, o: (gt.SymNoUpTo(i[2]) if o.is_member
                                 else gt.SymYes(1, (1,), (i[0],))),
    # relations
    "poset_classes": lambda i, o: o[:-1] if len(o) > 1 else o + o,
    "tukey_chain": lambda i, o: (dataclasses.replace(o[0], is_cofinal=not o[0].is_cofinal),
                                 o[1], o[2]),
    "ad_join": lambda i, o: (o[0], o[1], not o[2]),
    "diagonal_witness": lambda i, o: ((o[0][0] + 1,) + tuple(o[0][1:]), o[1]),
    "box_nbhd": lambda i, o: [not o[0]] + o[1:],
    "u_alpha_member": lambda i, o: not o,
    "base_monotone_check": lambda i, o: False,
    "cofinal_search_audit": lambda i, o: (ol.FnSeq(tuple(v + 1 for v in o[0].values),
                                                   o[0].tail + 1), o[1]),
    "countable_base": lambda i, o: (o[0], [not o[1][0]] + o[1][1:]),
}


def _classes(name):
    return workloads.load(name).build(random.Random(5))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_class_has_a_mutator(name):
    missing = [c.name for c in _classes(name) if c.name not in MUTATORS]
    assert not missing


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_accept_real_and_reject_wrong_answers(name):
    for c in _classes(name):
        inp = c.inputs[0]
        try:
            out = c.run(inp)
        except Exception as exc:
            assert c.known_fault is not None and isinstance(exc, c.known_fault), c.name
            out = None
        else:
            c.check(inp, out)  # the real answer passes
        with pytest.raises(CheckFailed):
            c.check(inp, MUTATORS[c.name](inp, out))


def test_gl4_fault_is_reproduced():
    gl4 = next(c for c in _classes("tower") if c.name == "gl4_inv")
    with pytest.raises(xf.TowerLimitError):
        gl4.run(gl4.inputs[0])


def test_failures_are_counted_per_class():
    classes = [c for c in _classes("tower") if c.name in ("field_compare", "gl4_inv")]
    res = run_rounds(classes, 1e-9)
    assert res.rounds == 1 and res.problems == [] and len(res.scaled) == len(res.latencies)
    assert res.per_class["gl4_inv"] == {"attempted": 1, "failed": 1, "unexpected": 0,
                                        "seconds": res.per_class["gl4_inv"]["seconds"]}
    assert res.failed == 1 and res.attempted == sum(c.per_round for c in classes)


def test_oracles_on_known_values():
    assert O.OEIS_A000112[1:6] == (1, 2, 5, 16, 63)
    assert O.leibniz_det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    a = (("a", 1),)
    assert O.free_product([a, O.free_inverse(a)]) == ()
    assert O.brute_sym([{a}, {(("b", 1),)}], 2) == {"a", "ab", "ba"}
    assert O.word_key((("a", -2), ("b", 1))) == "AAb"
    # a0 is a positive infinitesimal: a0 - 1/1000 < 0
    assert O.substitution_sign({(1,): Fraction(1), (0,): Fraction(-1, 1000)},
                               {(0,): Fraction(1)}) == -1
    assert O.root_bound((Fraction(-300), Fraction(1))) > 300


def test_tail_latency_has_ten_samples_beyond():
    lat = [i / 1000 for i in range(1000)]
    tail, beyond = tail_latency(lat, 99.0)
    assert beyond == 10 and tail == pytest.approx(989.0)


def test_stratified_pool_has_fixed_makeup():
    strata = ((10, 3), (50, 5), (100, 2))
    for seed in (1, 2):
        pool = stratified(random.Random(seed), lambda r: r.randrange(200), lambda x: x,
                          strata)
        assert len(pool) == 10 and all(x < 100 for x in pool)
        assert [sum(lo <= x < hi for x in pool) for lo, hi in ((0, 10), (10, 50), (50, 100))] \
            == [3, 5, 2]
        # every half of the pool holds its share of the middle stratum
        assert sum(10 <= x < 50 for x in pool[:5]) in (2, 3)


def test_scaling_covers_every_operation():
    classes = [c for c in _classes("tower") if c.name == "field_compare"]
    res = run_rounds(classes, 0.25)
    assert len(res.scaled) == len(res.latencies) and res.segment_ends[-1] == len(res.latencies)
    assert len(res.refs) == len(res.segment_ends) + 1 == len(res.speed) + 1
    for k, end in enumerate(res.segment_ends):
        start = res.segment_ends[k - 1] if k else 0
        assert all(s == pytest.approx(t * res.speed[k])
                   for s, t in zip(res.scaled[start:end], res.latencies[start:end]))
