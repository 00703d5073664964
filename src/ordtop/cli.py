"""Single command-line entry point.

Verbs mirror the modules: field, matrix, rp, group, order, uniformity,
plus the suite runner and report merger.  Structured inputs come as
JSON: inline when the argument starts with "[" or "{", from stdin for
"-", and from the named file otherwise; --json switches the output to
machine-readable form.  Exit codes: 0 success, 1 failed checks, 2 usage
or input errors, 3 internal errors (an exception that no input check
names, reported as one line).
"""

import argparse
import json
import sys
from fractions import Fraction

from . import exact_field as xf
from . import expr
from . import group_topology as gt
from . import matrix_group as mg
from . import order_lab as ol
from . import reduced_power as rp
from . import report as report_mod
from . import uniformity_lab as ul
from .suites import UnknownSuiteError, run_suite


def _read_payload(arg: str):
    """'-' is stdin, an argument starting with '[' or '{' is inline
    JSON, and anything else is the path of a JSON file."""
    if arg == "-":
        return json.loads(sys.stdin.read())
    if arg.startswith(("[", "{")):
        return json.loads(arg)
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"cannot read payload file {arg!r}: {exc.strerror}") from None


def _operand(args, i: int):
    """The i-th positional operand; a missing one is an input error."""
    if i >= len(args.args):
        raise ValueError(f"{args.verb} {args.action} is missing operand {i + 1}")
    return args.args[i]


_MISSING = object()
_KIND_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "true or false", (int, float): "a number"}


def _checked(value, kind, what):
    """value, which must be a `kind`; any other shape is an input error."""
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        raise ValueError(f"{what} must be {_KIND_NAMES[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _field(data, key, kind, default=_MISSING, verb=None):
    """data[key] checked by `_checked`, or `default` if the key is absent
    and a default is given; a `verb` leads each message."""
    lead = f"{verb}: " if verb else ""
    if not isinstance(data, dict):
        raise ValueError(f"{lead}expected an object holding {key!r}, "
                         f"got {type(data).__name__}")
    if key not in data:
        if default is _MISSING:
            raise ValueError(f"{lead}missing {key!r}")
        return default
    return _checked(data[key], kind, f"{lead}{key!r}")


def _items(data, key, kind, verb, default=_MISSING):
    """data[key] as by `_field`, an array whose items are each a `kind`."""
    items = _field(data, key, list, default, verb)
    for item in items:
        _checked(item, kind, f"{verb}: each item of {key!r}")
    return items


def _emit(args, data, plain=None):
    if getattr(args, "json", False):
        print(json.dumps(data, sort_keys=True, default=str))
    else:
        print(plain if plain is not None else json.dumps(data, default=str))


# --- field ------------------------------------------------------------------

def cmd_field(args):
    if args.action == "eval":
        value = xf.parse_element(_operand(args, 0))
        _emit(args, {"value": xf.format_element(value)},
              xf.format_element(value))
    elif args.action == "compare":
        a = xf.parse_element(_operand(args, 0))
        b = xf.parse_element(_operand(args, 1))
        out = xf.compare(a, b)
        _emit(args, {"compare": out}, out)
    elif args.action == "invert":
        value = xf.parse_element(_operand(args, 0)).invert()
        _emit(args, {"value": xf.format_element(value)},
              xf.format_element(value))
    elif args.action == "leading":
        exps, coeff = xf.parse_element(_operand(args, 0)).leading_term()
        _emit(args, {"exponents": list(exps), "coefficient": str(coeff)},
              f"exponents={list(exps)} coefficient={coeff}")
    return 0


# --- matrix -----------------------------------------------------------------

def cmd_matrix(args):
    if args.action == "shrink":
        eps = xf.parse_element(_operand(args, 0))
        n = int(_operand(args, 1))
        delta = mg.shrink_radius(eps, n)
        _emit(args, {"delta": xf.format_element(delta)},
              xf.format_element(delta))
        return 0
    payload = _read_payload(_operand(args, 0))
    if args.action == "inv":
        out = mg.mat_inv(mg.matrix_from_data(payload))
        _emit(args, [[xf.format_element(c) for c in row] for row in out.rows])
    elif args.action == "det":
        d = mg.det(mg.matrix_from_data(payload))
        _emit(args, {"det": xf.format_element(d)}, xf.format_element(d))
    elif args.action == "mul":
        out = mg.mat_mul(mg.matrix_from_data(_field(payload, "a", list)),
                         mg.matrix_from_data(_field(payload, "b", list)))
        _emit(args, [[xf.format_element(c) for c in row] for row in out.rows])
    elif args.action == "ball":
        eps = xf.parse_element(_field(payload, "eps", str))
        member = mg.ball_member(
            mg.matrix_from_data(_field(payload, "matrix", list)), eps)
        _emit(args, {"member": member}, "member" if member else "outside")
    return 0


# --- reduced power ------------------------------------------------------------

def _seq(data) -> rp.EventualSeq:
    """A sequence from decoded JSON, or from JSON text nested as a string."""
    return rp.from_json(data) if isinstance(data, str) else rp.from_data(data)


def cmd_rp(args):
    if args.action == "compare":
        x = _seq(_read_payload(_operand(args, 0)))
        y = _seq(_read_payload(_operand(args, 1)))
        out = rp.compare_ev(x, y)
        _emit(args, {"compare": out}, out)
    elif args.action == "metric":
        x = _seq(_read_payload(_operand(args, 0)))
        y = _seq(_read_payload(_operand(args, 1)))
        d = rp.star_metric(x, y)
        _emit(args, json.loads(rp.to_json(d)), rp.to_json(d))
    elif args.action == "interleave":
        payload = _read_payload(_operand(args, 0))
        instances = [(_seq(item["center"]), _seq(item["radius"]))
                     for item in _field(payload, "instances", list)]
        out = rp.interleave(instances, payload.get("cuts", []))
        _emit(args, {
            "witness": json.loads(rp.to_json(out.witness)),
            "certified": len(out.certificates),
        }, rp.to_json(out.witness))
    elif args.action == "baire":
        payload = _read_payload(_operand(args, 0))
        ball = _field(payload, "ball", dict)
        ball = rp.Ball(_seq(ball["center"]), _seq(ball["radius"]))
        forbidden = [rp.Ball(_seq(item["center"]), _seq(item["radius"]))
                     for item in payload.get("forbidden", [])]
        out = rp.baire_witness(ball, forbidden)
        _emit(args, {
            "witness": json.loads(rp.to_json(out.point)),
            "avoided": len(out.certificates),
        }, rp.to_json(out.point))
    return 0


# --- group ---------------------------------------------------------------------

def _group_from(payload):
    gens = tuple(_field(payload, "generators", list, ["a", "b"]))
    if _field(payload, "abelian", bool, False):
        return gt.FreeAbelianGroup(gens)
    return gt.FreeGroup(gens)


def cmd_group(args):
    if args.action == "lemma-suite":
        return cmd_suite(argparse.Namespace(
            name="rd-lemmas", seed=args.seed, scale=args.scale,
            json=args.json, out=None))
    payload = _read_payload(_operand(args, 0))
    group = _group_from(payload)
    if args.action == "sym-member":
        sets = [gt.SubsetSpec.from_texts(group, _checked(texts, list, "a set"))
                for texts in _field(payload, "sets", list)]
        word = group.parse(payload["word"])
        res = gt.sym_member(word, sets, _field(payload, "horizon", int, len(sets)))
        if res.is_member:
            _emit(args, {
                "member": True,
                "n": res.n,
                "sigma": list(res.sigma),
                "factors": [group.format(f) for f in res.factors],
            }, f"Yes(n={res.n}, sigma={res.sigma})")
        else:
            _emit(args, {"member": False, "horizon": res.horizon},
                  f"NoUpTo({res.horizon})")
    elif args.action == "vphi":
        phi = gt.PhiMap(
            gt.SubsetSpec.from_texts(
                group, _items(payload, "default", str, "group vphi")),
            {group.parse(k): gt.SubsetSpec.from_texts(group, v)
             for k, v in payload.get("exceptions", {}).items()})
        support = [group.parse(t) for t in payload.get("support", ["e"])]
        out = gt.v_phi(phi, support, group)
        words = sorted(group.format(w) for w in out.words)
        _emit(args, {"words": words}, ", ".join(words) or "e")
    elif args.action == "iofv":
        pairs = _items(payload, "pairs", list, "group iofv")
        if any(len(p) != 2 for p in pairs):
            raise ValueError("group iofv: each item of 'pairs' must hold two points")
        group_out, spec = gt.i_of_entourage(
            [tuple(p) for p in pairs],
            abelian=payload.get("abelian", False))
        words = sorted(group_out.format(w) for w in spec.words)
        _emit(args, {"words": words}, ", ".join(words))
    return 0


# --- order -----------------------------------------------------------------------

def _element_from(x):
    """JSON arrays become tuples, so that elements can be hashed."""
    return tuple(x) if isinstance(x, list) else x


def _poset_from(data) -> ol.FinitePoset:
    elements = [_element_from(e) for e in data["elements"]]
    le = {(_element_from(a), _element_from(b)) for a, b in data["le"]}
    return ol.FinitePoset(elements, le)


def _branch_indices(payload, key, count):
    indices = _items(payload, key, int, "order ad-embed")
    for i in indices:
        if not 0 <= i < count:
            raise ValueError(f"order ad-embed: {key!r} names branch {i}, "
                             f"outside 0..{count - 1}")
    return indices


def cmd_order(args):
    payload = _checked(_read_payload(_operand(args, 0)), dict, "the payload")
    if args.action == "check-map":
        d = _poset_from(_field(payload, "domain", dict, verb="order check-map"))
        e = _poset_from(_field(payload, "codomain", dict, verb="order check-map"))
        f = {k: _element_from(v) for k, v in payload["map"].items()}
        mono = ol.check_monotone(f, d, e)
        cof = ol.check_cofinal(f, d, e)
        _emit(args, {"monotone": mono, "cofinal": cof},
              f"monotone={mono} cofinal={cof}")
    elif args.action == "ad-embed":
        branches = [ol.Branch(b["preperiod"], b["period"])
                    for b in payload["branches"]]
        depth = payload.get("depth") or ol.disambiguation_depth(branches)
        s, t = ([branches[i] for i in _branch_indices(payload, key, len(branches))]
                for key in ("s", "t"))
        le = ol.ad_join(s, depth).le(ol.ad_join(t, depth))
        subset = ol.branch_subset(s, t)
        _emit(args, {"join_le": le, "branch_subset": subset, "depth": depth},
              f"join_le={le} branch_subset={subset}")
        return 0 if le == subset else 1
    elif args.action == "diagonal":
        rows = payload["rows"]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and len(row) > i and type(row[i]) is int
                for i, row in enumerate(rows))):
            raise ValueError('"rows" must be arrays, row i holding an integer at index i')
        rows = [tuple(row) for row in rows]
        z, cert = ol.diagonal_witness(rows)
        _emit(args, {"z": list(z),
                     "certificate": [list(c) for c in cert]},
              f"z={list(z)}")
    elif args.action == "box":
        f = ol.FnSeq(tuple(payload["f"]["values"]),
                     payload["f"].get("tail", 1))
        vector = {int(k): expr.number(v) for k, v in
                  _field(payload, "vector", dict, verb="order box").items()}
        member = ol.box_nbhd(f).contains(vector)
        _emit(args, {"member": member}, "member" if member else "outside")
    return 0


# --- uniformity ---------------------------------------------------------------------

# The limit point that countable-base gives a tail base, per space kind;
# every point of a table space is isolated.
_LIMITS = {"convergent_sequence": Fraction(0), "metric_fan": "c"}


def _space_from(data):
    """The payload's space kind and the space it describes."""
    kind = _field(data, "kind", str, "convergent_sequence")
    if kind == "convergent_sequence":
        decomposition = None
        if "decomposition" in data:
            decomposition = [
                frozenset(expr.number(p) for p in _checked(part, list, "a piece"))
                for part in _field(data, "decomposition", list)]
        return kind, ul.convergent_sequence(_field(data, "n_max", int, 100),
                                            decomposition)
    if kind == "metric_fan":
        return kind, ul.metric_fan(_field(data, "spokes", int, 3),
                                   _field(data, "depth", int, 5))
    if kind == "table":
        table = {tuple(k.split("|")): expr.number(v)
                 for k, v in _field(data, "distances", dict).items()}
        decomposition = [frozenset(_checked(part, list, "a piece"))
                         for part in _field(data, "decomposition", list)]
        return kind, ul.finite_table_space(_field(data, "points", list), table,
                                           decomposition)
    raise ValueError(f"unknown space kind {kind!r}")


def _point_from(kind, data):
    """A point named in a payload: a number on a convergent sequence, "c"
    or [spoke, k] on a metric fan, a name in a table space."""
    if kind == "convergent_sequence":
        return expr.number(data)
    if kind == "metric_fan":
        if data == "c":
            return data
        if not (isinstance(data, list) and len(data) == 2
                and all(type(v) is int for v in data)):
            raise ValueError(f'a metric_fan point is "c" or [spoke, k], '
                             f'got {json.dumps(data)}')
        return tuple(data)
    return _checked(data, str, "a table point")


def _pair_from(payload, kind, space):
    pair = _field(payload, "pair", list)
    if len(pair) != 2:
        raise ValueError(f'"pair" must name two points, got {len(pair)}')
    points = tuple(_point_from(kind, p) for p in pair)
    for raw, p in zip(pair, points):
        if space.position(p) is None:
            raise ValueError(f"{json.dumps(raw)} is not a point of {space.name}")
    return points


def _alpha_from(data) -> ol.FnSeq:
    return ol.FnSeq(tuple(_items(data, "values", int, "uniformity u-alpha")),
                    _field(data, "tail", int, 0))


def cmd_uniformity(args):
    payload = _read_payload(_operand(args, 0))
    kind, space = _space_from(_field(payload, "space", dict))
    if args.action == "u-alpha":
        alpha = _alpha_from(_field(payload, "alpha", dict))
        x, y = _pair_from(payload, kind, space)
        member = ul.u_alpha_member(space, alpha, x, y)
        _emit(args, {"member": member}, "member" if member else "outside")
    elif args.action == "cofinal-search":
        radii = {expr.number(k): expr.number(v)
                 for k, v in _field(payload, "radii", dict).items()}
        if "default_radius" in payload:
            for p in space.points:
                radii.setdefault(p, expr.number(payload["default_radius"]))
        target = ul.SpacedDiagonalNeighbourhood(space, radii)
        out = ul.base_cofinal_search(space, target)
        if isinstance(out, ul.FailureUpTo):
            _emit(args, {"failure": {"piece": out.piece,
                                     "slack": str(out.slack)}},
                  f"failure at piece {out.piece}")
            return 1
        bad = ul.audit_entourage_containment(
            space, ul.UAlphaEntourage(space, out), target)
        _emit(args, {"alpha": {"values": list(out.values),
                               "tail": out.tail},
                     "audit_violations": len(bad)},
              f"alpha={list(out.values)} tail={out.tail} audit={len(bad)}")
        return 0 if not bad else 1
    elif args.action == "countable-base":
        isolated = ol.FnSeq((_field(payload, "f_isolated", int, 1),), 1)
        bases = {p: ul.principal_base(p) for p in space.points}
        f = dict.fromkeys(space.points, isolated)
        limit = _LIMITS.get(kind)
        if limit is not None:
            f_limit = _field(payload, "f_limit", int, 1)
            bases[limit] = ul.tail_base(space, limit)
            f[limit] = ol.FnSeq((f_limit,), f_limit)
        ent = ul.countable_base(space, bases, f)
        x, y = _pair_from(payload, kind, space)
        member = ent.contains(x, y)
        _emit(args, {"member": member}, "member" if member else "outside")
    return 0


# --- suites and reports ----------------------------------------------------------------

def cmd_suite(args):
    try:
        result = run_suite(args.name, seed=args.seed, scale=args.scale)
    except UnknownSuiteError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    text = report_mod.canonical_json(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        print(text, end="")
    else:
        status = "pass" if result.ok else "FAIL"
        print(f"{result.suite}: {result.cases} cases, "
              f"{len(result.failures)} failures, {result.wall_ms:.0f} ms "
              f"[{status}]")
        for failure in result.failures[:10]:
            print(f"  {failure['case']}: {failure['detail']}")
            print(f"    repro: {failure['repro']}")
    return 0 if result.ok else 1


_REPORT_FIELDS = {"suite": str, "seed": int, "scale": (int, float),
                  "cases": int, "failures": list}


def cmd_report(args):
    from .suites import SuiteReport

    reports = []
    for path in args.inputs:
        for item in _checked(_read_payload(path), list, f"report: {path}"):
            reports.append(SuiteReport(**{
                key: _field(item, key, kind, verb="report")
                for key, kind in _REPORT_FIELDS.items()}))
    text = report_mod.emit_report(
        reports,
        json_path=args.out and f"{args.out}/report.json",
        md_path=args.out and f"{args.out}/report.md")
    if getattr(args, "json", False):
        print(text, end="")
    else:
        print(report_mod.markdown_table(reports), end="")
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordtop",
        description="Exact-arithmetic laboratory for ordered towers, "
                    "reduced powers, group neighbourhoods and entourage bases.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("field", help="tower field arithmetic")
    p.add_argument("action", choices=["eval", "compare", "invert", "leading"])
    p.add_argument("args", nargs="+", metavar="expr")
    common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("matrix", help="exact linear algebra")
    p.add_argument("action", choices=["inv", "det", "mul", "ball", "shrink"])
    p.add_argument("args", nargs="+",
                   help="JSON payload (file, inline or '-'), or EPS N for shrink")
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("rp", help="reduced power fragment")
    p.add_argument("action",
                   choices=["compare", "metric", "interleave", "baire"])
    p.add_argument("args", nargs="+")
    common(p)
    p.set_defaults(func=cmd_rp)

    p = sub.add_parser("group", help="free-group neighbourhood calculus")
    p.add_argument("action",
                   choices=["sym-member", "vphi", "iofv", "lemma-suite"])
    p.add_argument("args", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("order", help="directed-set machinery")
    p.add_argument("action", choices=["check-map", "ad-embed", "diagonal", "box"])
    p.add_argument("args", nargs="+")
    common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("uniformity", help="entourage bases")
    p.add_argument("action",
                   choices=["u-alpha", "cofinal-search", "countable-base"])
    p.add_argument("args", nargs="+")
    common(p)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", help="write canonical JSON here")
    common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("report", help="merge suite reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="directory for report.json and report.md")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
