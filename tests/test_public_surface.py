"""Every public top-level name of the package has a caller.

A name defined at the top level of `src/ordtop/*.py` without a leading
underscore must be read somewhere in `src/` outside its own definition,
or in `bench/`; references are matched by identifier (a loaded name or
an attribute).  A name that only tests reach either goes, or is listed
in ALLOWED with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "rd_monotone_check": "states the paper's monotonicity of F(X); a suite "
                         "caller would change the rd-lemmas report",
}


def _trees(*dirs):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def _reads(node) -> Counter:
    """Identifiers read anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(name, node) for each public top-level definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_caller():
    src = _trees("src/ordtop")
    reads = sum(map(_reads, src + _trees("bench")), Counter())
    unused = sorted(name for tree in src for name, node in _definitions(tree)
                    if reads[name] <= _reads(node)[name] and name not in ALLOWED)
    assert unused == []
