import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ordtop.cli import main
from ordtop.exact_field import MAX_POWER_BITS
from ordtop.expr import MAX_DEPTH, MAX_EXPONENT
from ordtop.order_lab import MAX_AD_DEPTH
from ordtop.reduced_power import MAX_SETTLE, MAX_TAIL_DEGREE
from ordtop.uniformity_lab import MAX_POINTS, MAX_SCALE_BITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_verbs(capsys):
    code, out, _ = run(capsys, "field", "compare", "a0", "1/1000")
    assert code == 0 and out.strip() == "LT"
    code, out, _ = run(capsys, "field", "eval", "(1+a0)*(1-a0)")
    assert code == 0 and out.strip() == "1 - a0^2"
    code, out, _ = run(capsys, "field", "invert", "(1+a0)/(1-a0)")
    assert code == 0 and out.strip() == "(1 - a0)/(1 + a0)"
    code, out, _ = run(capsys, "field", "leading", "3*a0 - a0^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"exponents": [1], "coefficient": "3"}


def test_field_errors(capsys):
    code, _, err = run(capsys, "field", "eval", "q + 1")
    assert code == 2 and "unknown variable" in err
    code, _, err = run(capsys, "field", "invert", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["field", "eval", "(" * 5000 + "1" + ")" * 5000],
    ["field", "eval", "+".join(["1"] * 3000)],
    ["rp", "compare",
     json.dumps({"prefix": ["0"], "tail": "(" * 5000 + "n" + ")" * 5000}),
     json.dumps({"prefix": ["0"], "tail": "1/n"})],
])
def test_expression_depth_is_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: expression nested deeper than {MAX_DEPTH} levels\n"


def test_expression_at_depth_cap_parses(capsys):
    nested = "(" * MAX_DEPTH + "a0" + ")" * MAX_DEPTH
    assert run(capsys, "field", "eval", nested) == (0, "a0\n", "")
    flat = "+".join(["1"] * MAX_DEPTH)  # MAX_DEPTH - 1 'add' nodes over a leaf
    assert run(capsys, "field", "eval", flat) == (0, f"{MAX_DEPTH}\n", "")


@pytest.mark.parametrize("text", ["2^1000000000000", "2^3000000",
                                  "((2^1000)^1000)^1000"])
def test_powers_are_bounded(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "field", "eval", text)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: power coefficients") and err.count("\n") == 1


def test_power_at_coefficient_cap_formats(capsys):
    # 2^n is refused past n = MAX_POWER_BITS; at the cap it has 4215 digits
    text = f"2^{MAX_POWER_BITS}"
    assert run(capsys, "field", "eval", text) == (0, f"{2 ** MAX_POWER_BITS}\n", "")
    code, _, err = run(capsys, "field", "eval", f"2^{MAX_POWER_BITS + 1}")
    assert code == 2 and "exceed the cap" in err


def _tail(text):
    return json.dumps({"prefix": [], "tail": text})


def _u_alpha(space, pair, values=(1,)):
    return json.dumps({"space": space, "alpha": {"values": list(values)}, "pair": pair})


def _table(n, distances=()):
    """A table space of n points at distance 3/2 but for `distances`."""
    points = [f"p{i}" for i in range(n)]
    table = {f"{x}|{y}": "3/2" for i, x in enumerate(points) for y in points[i + 1:]}
    table.update(distances)
    return {"kind": "table", "points": points, "distances": table,
            "decomposition": [["p0"]]}


_BROKEN = {"p0|p1": "2", "p0|p2": "9/10", "p1|p2": "9/10"}  # fails at one triangle
_SEQ = {"kind": "convergent_sequence", "n_max": 10}
_BRANCH = {"preperiod": "", "period": "0"}


@pytest.mark.parametrize("argv, code, message", [
    (["rp", "compare", _tail("n^200000"), _tail("n")], 2,
     f"error: tail degree 200000 exceeds the cap {MAX_TAIL_DEGREE}\n"),
    (["rp", "compare", _tail("(n+1)^65"), _tail("n")], 2,
     f"error: tail degree 65 exceeds the cap {MAX_TAIL_DEGREE}\n"),
    (["rp", "compare", _tail("2^1000000000000"), _tail("n")], 2,
     f"error: power coefficients of up to 1000000000000 bits exceed the cap {MAX_POWER_BITS}\n"),
    (["rp", "compare", _tail("1/(n-100000000)"), _tail("n")], 2,
     f"error: 100000002 terms past the prefix exceed the settle cap {MAX_SETTLE}\n"),
    (["rp", "metric", _tail("n/1000000000"), _tail("0")], 2,
     f"error: 1000000002 terms past the prefix exceed the settle cap {MAX_SETTLE}\n"),
    (["rp", "compare", '{"tail": 5}', '{"tail": "n"}'], 2,
     "error: expression must be a string, got int\n"),
    (["rp", "metric", _tail("n")], 2, "error: rp metric is missing operand 2\n"),
    (["field", "compare", "a0"], 2, "error: field compare is missing operand 2\n"),
    (["matrix", "inv", "[1]"], 2,
     "error: matrix JSON must be an array of arrays of expressions\n"),
    (["order", "diagonal", '{"rows": 5}'], 2,
     'error: "rows" must be arrays, row i holding an integer at index i\n'),
    (["group", "sym-member", '{"sets": [["a"]], "word": 5}'], 2,
     "error: word must be a string, got int\n"),
    (["rp", "compare", '{"prefix": ["1e10000000"], "tail": "n"}', _tail("n")], 2,
     f"error: number '1e10000000' has a decimal exponent beyond {MAX_EXPONENT}\n"),
    (["rp", "compare", '{"prefix": [1e400], "tail": "n"}', _tail("n")], 2,
     "error: expected a finite number, got inf\n"),
    (["uniformity", "u-alpha", _u_alpha(
        {"kind": "convergent_sequence", "n_max": 3000000}, ["0", "0"])], 2,
     f"error: convergent_sequence(3000000) has 3000001 points; the cap is {MAX_POINTS}\n"),
    (["uniformity", "u-alpha", _u_alpha(
        {"kind": "metric_fan", "spokes": 40, "depth": 40}, ["c", "c"])], 2,
     f"error: metric_fan(40,40) has 1601 points; the cap is {MAX_POINTS}\n"),
    (["order", "ad-embed", json.dumps({
        "branches": [{"preperiod": "", "period": "0"}], "s": [0], "t": [0],
        "depth": 8000})], 2,
     f"error: depth 8000 exceeds the cap {MAX_AD_DEPTH}\n"),
    (["group", "sym-member", "[1]"], 2,
     "error: expected an object holding 'generators', got list\n"),
    (["matrix", "mul", "[1]"], 2, "error: expected an object holding 'a', got list\n"),
    (["rp", "compare", '{"prefix": 5, "tail": "n"}', _tail("n")], 2,
     "error: sequence prefix must be an array, got int\n"),
    (["group", "sym-member", '{"sets": 5, "word": "a"}'], 2,
     "error: 'sets' must be an array, got int\n"),
    (["order", "check-map", "[1]"], 2, "error: the payload must be an object, got list\n"),
    (["rp", "baire", "[1]"], 2, "error: expected an object holding 'ball', got list\n"),
    (["uniformity", "u-alpha", _u_alpha(_table(60, _BROKEN), ["p0", "p1"])], 2,
     "error: triangle inequality fails on 'p0', 'p2', 'p1'\n"),
    (["uniformity", "u-alpha", _u_alpha(_table(MAX_POINTS, _BROKEN), ["p0", "p1"])], 2,
     "error: triangle inequality fails on 'p0', 'p2', 'p1'\n"),
    (["uniformity", "u-alpha", _u_alpha(
        _table(3, {"p0|p1": f"1/{2 ** MAX_SCALE_BITS}"}), ["p0", "p1"])], 2,
     f"error: the distances of table have a common denominator beyond the cap "
     f"of {MAX_SCALE_BITS} bits\n"),
    (["uniformity", "u-alpha", _u_alpha(_SEQ, ["0", "0"], [[1]])], 2,
     "error: uniformity u-alpha: each item of 'values' must be an integer, got list\n"),
    (["group", "vphi", '{"default": 5}'], 2,
     "error: group vphi: 'default' must be an array, got int\n"),
    (["group", "iofv", '{"pairs": 5}'], 2,
     "error: group iofv: 'pairs' must be an array, got int\n"),
    (["order", "box", '{"f": {"values": [1]}, "vector": [1]}'], 2,
     "error: order box: 'vector' must be an object, got list\n"),
    (["order", "check-map", '{"domain": [[1]]}'], 2,
     "error: order check-map: 'domain' must be an object, got list\n"),
    (["order", "ad-embed", json.dumps({"branches": [_BRANCH], "s": [5], "t": [0]})], 2,
     "error: order ad-embed: 's' names branch 5, outside 0..0\n"),
    (["report", "[1]"], 2, "error: report: expected an object holding 'suite', got int\n"),
])
def test_bounded_inputs_and_exit_codes(capsys, argv, code, message):
    start = time.perf_counter()
    assert run(capsys, *argv) == (code, "", message)
    assert time.perf_counter() - start < 1


def test_zero_to_a_large_power(capsys):
    assert run(capsys, "field", "eval", "0^1000000000000") == (0, "0\n", "")
    assert run(capsys, "rp", "compare", _tail("0^1000000000000"), _tail("0")) == (0, "EQ\n", "")


def test_tail_power_at_degree_cap(capsys):
    x = _tail(f"(n+1)^{MAX_TAIL_DEGREE}")
    assert run(capsys, "rp", "compare", x, _tail(f"n^{MAX_TAIL_DEGREE}")) == (0, "GT\n", "")


def _expressions(names):
    atoms = st.one_of(st.integers(0, 10 ** 12).map(str), st.sampled_from(names))

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, st.integers(-10 ** 12, 10 ** 12)).map(
                lambda t: f"({t[0]})^({t[1]})"),
            inner.map(lambda t: f"-{t}"))

    noise = st.text("".join(names) + "0123456789+-*/^() ", max_size=40)
    return st.one_of(st.recursive(atoms, grow, max_leaves=12), noise)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, time.perf_counter() - start, err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_expressions(["a0", "a1", "a7", "b"]))
def test_field_eval_answers_or_exits_2(text):
    code, seconds, err = _run_quietly(["field", "eval", "--", text])
    assert code in (0, 2), err
    assert err.count("\n") == (code == 2)
    assert seconds < 5


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_expressions(["n", "m"]), _expressions(["n"]))
def test_rp_compare_answers_or_exits_2(x, y):
    code, seconds, err = _run_quietly(["rp", "compare", _tail(x), _tail(y)])
    assert code in (0, 2), err
    assert err.count("\n") == (code == 2)
    assert seconds < 5


def test_matrix_verbs(capsys, tmp_path):
    code, out, _ = run(capsys, "matrix", "shrink", "1/2", "2")
    assert code == 0 and out.strip() == "1/8"
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["1", "a0"], ["0", "1"]]))
    code, out, _ = run(capsys, "matrix", "inv", str(path), "--json")
    assert code == 0
    assert json.loads(out) == [["1", "-a0"], ["0", "1"]]
    code, out, _ = run(capsys, "matrix", "det", str(path))
    assert code == 0 and out.strip() == "1"
    payload = json.dumps({"matrix": [["1", "a0"], ["0", "1"]], "eps": "2*a0"})
    code, out, _ = run(capsys, "matrix", "ball", payload)
    assert code == 0 and out.strip() == "member"
    code, _, err = run(capsys, "matrix", "inv",
                       json.dumps([["1", "1"], ["1", "1"]]))
    assert code == 2 and "singular" in err


def test_rp_verbs(capsys):
    x = json.dumps({"prefix": ["0"], "tail": "1/n"})
    y = json.dumps({"prefix": ["0"], "tail": "2/n"})
    code, out, _ = run(capsys, "rp", "compare", x, y)
    assert code == 0 and out.strip() == "LT"
    code, out, _ = run(capsys, "rp", "metric", x, y, "--json")
    assert code == 0
    assert json.loads(out)["tail"] == "(1)/(n)"
    payload = json.dumps({
        "instances": [
            {"center": {"prefix": [], "tail": "0"},
             "radius": {"prefix": [], "tail": "1/2"}},
            {"center": {"prefix": [], "tail": "1/8"},
             "radius": {"prefix": [], "tail": "1/4"}},
        ],
        "cuts": [5],
    })
    code, out, _ = run(capsys, "rp", "interleave", payload, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certified"] == 2
    payload = json.dumps({
        "ball": {"center": {"prefix": [], "tail": "0"},
                 "radius": {"prefix": [], "tail": "1"}},
        "forbidden": [{"center": {"prefix": [], "tail": "0"},
                       "radius": {"prefix": [], "tail": "1/4"}}],
    })
    code, out, _ = run(capsys, "rp", "baire", payload, "--json")
    assert code == 0 and json.loads(out)["avoided"] == 1


def test_group_verbs(capsys):
    payload = json.dumps({"generators": ["a", "b"], "word": "b a",
                          "sets": [["a"], ["b"]], "horizon": 2})
    code, out, _ = run(capsys, "group", "sym-member", payload, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["member"] and data["sigma"] == [2, 1]
    payload = json.dumps({"generators": ["a", "b"], "word": "a^3",
                          "sets": [["a"], ["a"]], "horizon": 2})
    code, out, _ = run(capsys, "group", "sym-member", payload)
    assert code == 0 and out.strip() == "NoUpTo(2)"
    payload = json.dumps({"generators": ["a"], "default": ["a^2"],
                          "support": ["e", "a"]})
    code, out, _ = run(capsys, "group", "vphi", payload, "--json")
    assert json.loads(out)["words"] == ["a^-2", "a^2"]
    payload = json.dumps({"pairs": [["x", "x"], ["y", "y"],
                                    ["x", "y"], ["y", "x"]]})
    code, out, _ = run(capsys, "group", "iofv", payload, "--json")
    assert set(json.loads(out)["words"]) == \
        {"e", "x y^-1", "x^-1 y", "y x^-1", "y^-1 x"}


def test_order_verbs(capsys):
    payload = json.dumps({
        "domain": {"elements": [0, 1], "le": [[0, 0], [1, 1], [0, 1]]},
        "codomain": {"elements": [0, 1], "le": [[0, 0], [1, 1], [0, 1]]},
        "map": {"0": 0, "1": 1},
    })
    code, _, err = run(capsys, "order", "check-map", payload)
    # keys arrive as strings; the map is partial on the int elements
    assert code == 2 and "partial" in err
    payload = json.dumps({
        "domain": {"elements": ["x", "y"],
                   "le": [["x", "x"], ["y", "y"], ["x", "y"]]},
        "codomain": {"elements": ["x", "y"],
                     "le": [["x", "x"], ["y", "y"], ["x", "y"]]},
        "map": {"x": "x", "y": "y"},
    })
    code, out, _ = run(capsys, "order", "check-map", payload)
    assert code == 0 and "monotone=True cofinal=True" in out
    # a map value outside the codomain is below nothing: not monotone, but
    # the other value still covers the codomain
    payload = json.dumps({
        "domain": {"elements": ["x", "y"], "le": [["x", "x"], ["y", "y"]]},
        "codomain": {"elements": ["x"], "le": [["x", "x"]]},
        "map": {"x": "x", "y": "w"},
    })
    code, out, _ = run(capsys, "order", "check-map", payload)
    assert code == 0 and out == "monotone=False cofinal=True\n"
    # list-valued elements arrive as JSON arrays, in the posets and the map
    payload = json.dumps({
        "domain": {"elements": ["x"], "le": [["x", "x"]]},
        "codomain": {"elements": [[0, 1]], "le": [[[0, 1], [0, 1]]]},
        "map": {"x": [0, 1]},
    })
    assert run(capsys, "order", "check-map", payload) == \
        (0, "monotone=True cofinal=True\n", "")
    payload = json.dumps({
        "branches": [{"preperiod": "", "period": "0"},
                     {"preperiod": "", "period": "1"}],
        "s": [0], "t": [0, 1],
    })
    code, out, _ = run(capsys, "order", "ad-embed", payload, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["join_le"] and data["branch_subset"]
    code, out, _ = run(capsys, "order", "diagonal",
                       json.dumps({"rows": [[0, 1], [2, 0]]}))
    assert code == 0 and "z=[1, 1]" in out
    code, out, _ = run(capsys, "order", "box", json.dumps(
        {"f": {"values": [1, 2, 4], "tail": 1},
         "vector": {"1": "2/5", "2": "1/10"}}))
    assert code == 0 and out.strip() == "member"


def test_uniformity_verbs(capsys):
    payload = json.dumps({
        "space": {"kind": "convergent_sequence", "n_max": 32},
        "alpha": {"values": [3], "tail": 3},
        "pair": ["1/16", "1/32"],
    })
    code, out, _ = run(capsys, "uniformity", "u-alpha", payload)
    assert code == 0 and out.strip() == "member"
    payload = json.dumps({
        "space": {"kind": "convergent_sequence", "n_max": 50},
        "radii": {}, "default_radius": "1/10",
    })
    code, out, _ = run(capsys, "uniformity", "cofinal-search", payload, "--json")
    assert code == 0
    assert json.loads(out)["alpha"]["values"] == [4]
    payload = json.dumps({
        "space": {"kind": "convergent_sequence", "n_max": 16},
        "f_limit": 5, "f_isolated": 1,
        "pair": ["1/6", "1/8"],
    })
    code, out, _ = run(capsys, "uniformity", "countable-base", payload)
    assert code == 0 and out.strip() == "member"


def test_uniformity_verbs_on_a_fan(capsys):
    fan = {"kind": "metric_fan", "spokes": 3, "depth": 4}

    def u_alpha(alpha, pair):
        return run(capsys, "uniformity", "u-alpha", json.dumps(
            {"space": fan, "alpha": {"values": [alpha]}, "pair": pair}))

    def countable(f_limit, pair):
        return run(capsys, "uniformity", "countable-base", json.dumps(
            {"space": fan, "f_limit": f_limit, "pair": pair}))

    # max(d((0,3), c), d((1,4), c)) = 1/3 against the radius 2^-alpha
    assert u_alpha(1, [[0, 3], [1, 4]]) == (0, "member\n", "")
    assert u_alpha(2, [[0, 3], [1, 4]]) == (0, "outside\n", "")
    assert u_alpha(5, ["c", "c"]) == (0, "member\n", "")
    # the center's tail base of index 3 is the closed 1/3-ball around "c"
    assert countable(3, [[0, 3], [2, 4]]) == (0, "member\n", "")
    assert countable(3, [[0, 2], [2, 4]]) == (0, "outside\n", "")
    assert countable(3, [[0, 2], [0, 2]]) == (0, "member\n", "")
    for pair, message in [
            (["0", "0"], 'error: a metric_fan point is "c" or [spoke, k], got "0"\n'),
            ([[0, 1], [0, 2, 3]],
             'error: a metric_fan point is "c" or [spoke, k], got [0, 2, 3]\n'),
            (["c", [3, 1]], "error: [3, 1] is not a point of metric_fan(3,4)\n"),
            (["c"], 'error: "pair" must name two points, got 1\n')]:
        assert u_alpha(1, pair) == (2, "", message)
        assert countable(1, pair) == (2, "", message)
    code, _, err = run(capsys, "uniformity", "u-alpha", _u_alpha(
        {"kind": "convergent_sequence", "n_max": 8}, ["0", "1/9"]))
    assert (code, err) == (2, 'error: "1/9" is not a point of convergent_sequence(8)\n')


def test_payload_rule(capsys, tmp_path):
    # inline JSON of any length; anything not starting with [ or { is a path
    payload = json.dumps({
        "space": {"kind": "convergent_sequence", "n_max": 30},
        "radii": {f"1/{j}": "1/10" for j in range(1, 31)},
        "default_radius": "1/10",
    })
    assert len(payload) > 255
    code, out, _ = run(capsys, "uniformity", "cofinal-search", payload, "--json")
    assert code == 0
    assert json.loads(out) == {"alpha": {"values": [4], "tail": 4},
                               "audit_violations": 0}
    path = tmp_path / "payload.json"
    path.write_text(payload)
    assert run(capsys, "uniformity", "cofinal-search", str(path), "--json")[1] == out
    for bad in (str(tmp_path / "missing.json"), str(tmp_path), "x" * 300):
        code, out, err = run(capsys, "uniformity", "cofinal-search", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read payload file")
        assert err.count("\n") == 1


def test_group_lemma_suite_alias(capsys):
    code, out, _ = run(capsys, "group", "lemma-suite",
                       "--seed", "3", "--scale", "0.02")
    assert code == 0 and "rd-lemmas" in out and "pass" in out


def test_suite_verbs(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "suite", "sin-abelian", "--seed", "5",
                       "--scale", "0.2", "--out", str(out_path))
    assert code == 0 and "pass" in out
    saved = json.loads(out_path.read_text())
    assert saved[0]["suite"] == "sin-abelian" and saved[0]["ok"]

    code, _, err = run(capsys, "suite", "nonexistent")
    assert code == 2 and "available" in err

    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 0 and "| sin-abelian |" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 2


def test_report_on_a_file_holding_no_reports(capsys, tmp_path):
    path = tmp_path / "reports.json"
    path.write_text("[1]")
    assert run(capsys, "report", str(path)) == (
        2, "", "error: report: expected an object holding 'suite', got int\n")
