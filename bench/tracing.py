"""Per-layer tracing by wrapping ordtop's public functions in place.

Every public function and method of the layer modules is replaced, at
every module global that binds it, by a wrapper that records calls,
total time and self time (its duration minus the wrapped calls it
covers).  `matrix_group` binds `compare` from `exact_field` by name and
`polynomials` calls itself through module globals, so patching the
globals catches both.  Recording is on only while `enabled` is set,
which the round runner does around each timed operation; spans live in
memory and are summed when the run ends.
"""

import functools
import time
import types

LAYERS = ("polynomials", "expr", "exact_field", "matrix_group",
          "reduced_power", "group_topology", "order_lab", "uniformity_lab")

# Dunder methods that carry arithmetic or construction work.
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
            "__pow__", "__eq__", "__lt__", "__contains__"}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats = {}
        self._stack = []

    def _wrap(self, fn, key, extra=None):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += dt - child
                if stat.depth == 0:
                    stat.total += dt
                if stack:
                    stack[-1] += dt
            if extra is not None:
                stat.extra += extra(out)
            return out

        return wrapper

    def install(self, modules):
        """Wrap the public functions of `modules` (name -> module)."""
        is_const = modules["polynomials"]._is_const
        extras = {
            ("polynomials", "p_gcd"): lambda g: int(bool(g) and not is_const(g)),
            ("reduced_power", "star_metric"): lambda d: len(d.prefix),
        }
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    home = obj.__module__.rsplit(".", 1)[-1]
                    if home not in modules:
                        continue
                    key = (home, obj.__qualname__)
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, key, extras.get(key))
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if isinstance(fn, types.FunctionType):
                    setattr(cls, name, type(attr)(
                        self._wrap(fn, (layer, fn.__qualname__))))
            elif isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, (layer, f"{cls.__name__}.{name}")))

    # -- summaries -------------------------------------------------------

    def _select(self, layer, suffix=None, exact=None):
        for (lay, qual), st in self.stats.items():
            if lay != layer:
                continue
            if exact is not None and qual not in exact:
                continue
            if suffix is not None and not (qual == suffix or qual.endswith("." + suffix)):
                continue
            yield st

    def self_s(self, layer, name=None):
        return sum(st.self_time for st in self._select(layer, suffix=name))

    def total_s(self, layer, name):
        return sum(st.total for st in self._select(layer, suffix=name))

    def calls(self, layer, name=None, exact=None):
        return sum(st.calls for st in self._select(layer, suffix=name, exact=exact))

    def extra(self, layer, name):
        return sum(st.extra for st in self._select(layer, suffix=name))


def layer_metrics(tr):
    """The per-layer metrics of BENCHMARK.json, as (name, value, unit)."""
    gcd_calls = tr.calls("polynomials", "p_gcd")
    gcd_ratio = tr.extra("polynomials", "p_gcd") / gcd_calls if gcd_calls else 0.0
    return [
        ("polynomials.self_s", tr.self_s("polynomials"), "s"),
        ("polynomials.p_mul.calls", tr.calls("polynomials", "p_mul"), "count"),
        ("polynomials.p_gcd.calls", gcd_calls, "count"),
        ("polynomials.p_gcd.self_s", tr.self_s("polynomials", "p_gcd"), "s"),
        ("polynomials.p_divexact.self_s", tr.self_s("polynomials", "p_divexact"), "s"),
        ("polynomials.p_gcd.nontrivial_ratio", gcd_ratio, "ratio"),
        ("expr.self_s", tr.self_s("expr"), "s"),
        ("exact_field.self_s", tr.self_s("exact_field"), "s"),
        ("exact_field.elements_built",
         tr.calls("exact_field", exact={"FieldElement.__init__"}), "count"),
        ("exact_field.compare.self_s", tr.self_s("exact_field", "compare"), "s"),
        ("matrix_group.self_s", tr.self_s("matrix_group"), "s"),
        ("matrix_group.mat_inv.total_s", tr.total_s("matrix_group", "mat_inv"), "s"),
        ("matrix_group.det.total_s", tr.total_s("matrix_group", "det"), "s"),
        ("reduced_power.self_s", tr.self_s("reduced_power"), "s"),
        ("reduced_power.ratfunc_built",
         tr.calls("reduced_power", exact={"RatFunc.__init__"}), "count"),
        ("reduced_power.star_metric.total_s",
         tr.total_s("reduced_power", "star_metric"), "s"),
        ("reduced_power.star_metric.prefix_terms",
         tr.extra("reduced_power", "star_metric"), "count"),
        ("reduced_power.compare_ev.self_s",
         tr.self_s("reduced_power", "compare_ev"), "s"),
        ("group_topology.self_s", tr.self_s("group_topology"), "s"),
        ("group_topology.mul.calls",
         tr.calls("group_topology", exact={"FreeGroup.mul", "FreeAbelianGroup.mul"}),
         "count"),
        ("group_topology.sym_member.total_s",
         tr.total_s("group_topology", "sym_member"), "s"),
        ("group_topology.sym_set.total_s", tr.total_s("group_topology", "sym_set"), "s"),
        ("group_topology.v_phi.total_s", tr.total_s("group_topology", "v_phi"), "s"),
        ("order_lab.self_s", tr.self_s("order_lab"), "s"),
        ("order_lab.posets_built",
         tr.calls("order_lab", exact={"FinitePoset.__init__"}), "count"),
        ("order_lab.tukey_to_monotone.total_s",
         tr.total_s("order_lab", "tukey_to_monotone"), "s"),
        ("order_lab.poset_masks_up_to_iso.total_s",
         tr.total_s("order_lab", "poset_masks_up_to_iso"), "s"),
        ("uniformity_lab.self_s", tr.self_s("uniformity_lab"), "s"),
        ("uniformity_lab.dist.calls",
         tr.calls("uniformity_lab", exact={"MetricSpacePresentation.dist"}), "count"),
        ("uniformity_lab.contains.total_s",
         tr.total_s("uniformity_lab", "contains"), "s"),
        ("uniformity_lab.base_cofinal_search.total_s",
         tr.total_s("uniformity_lab", "base_cofinal_search"), "s"),
    ]
