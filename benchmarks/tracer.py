"""Opt-in call tracing of the hyperq modules, installed from outside.

``Tracer.install`` replaces every public function and every public or
arithmetic method of the package's modules with a timing wrapper, at
every place the original is bound: module attributes (including names
imported with ``from .x import y``), the functions held in
``verify.REGISTRY``, and class dictionaries.  ``uninstall`` puts the
originals back.  Nothing is wrapped unless a traced run asks for it.

Every wrapped call adds its duration to the busy time of its name
(outermost call per name only, so recursion is not counted twice) and
its self time, the duration minus the time its traced children cover.
Calls to the functions in ``COARSE`` also keep a span (id, name, start,
end, parent id, root id) in memory; the hot, short calls underneath are
aggregated only.  The wrapper's own bookkeeping is excluded from every
self time: a parent is charged for a child's wrapper from entry to exit.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

PACKAGE = "hyperq"
MODULES = ("poly", "stern", "hyperbinary", "qrational", "fence", "matrices", "verify", "cli")

_ARITH = {"__add__": "add", "__radd__": "add", "__sub__": "sub", "__neg__": "neg",
          "__mul__": "mul", "__rmul__": "mul", "__matmul__": "matmul", "__eq__": "eq"}

#: calls that keep a full span; everything else is aggregated per name
COARSE = frozenset(
    ["cli.main"]
    + [f"stern.{f}" for f in ("fusc_q", "cw_q", "fusc_range")]
    + [f"hyperbinary.{f}" for f in ("h_q", "h_rs", "hbar_st", "expansions", "hbar_st_enum",
                                    "h_q_enum", "h_rs_enum", "stats_rows", "lattice_dot")]
    + [f"fence.{f}" for f in ("iso_check", "ideals", "rgf", "weight_check", "ideals_dot")]
    + [f"matrices.{f}" for f in ("m_range", "m_prime_range", "m_of", "m_prime_of",
                                 "entries_formula", "row_sum_check", "m_prime_check")]
    + [f"qrational.{f}" for f in ("qdeform", "qdeform_via_graph", "closure_poly", "cw_index")]
)

#: name -> work count added per call, from the unwrapped originals, the
#: arguments and the result; ``term_pairs`` is the product of the two
#: operands' term counts, ``elements`` the number of expansions listed
def _term_pairs(cls: str):
    def count(orig, args, out):
        terms = orig.get(f"poly.{cls}.terms")
        return len(terms(args[0])) * len(terms(args[1])) if terms else 0
    return count


WORK = {
    "poly.LaurentPoly.mul": _term_pairs("LaurentPoly"),
    "poly.BiPoly.mul": _term_pairs("BiPoly"),
    "hyperbinary.expansions": lambda orig, args, out: len(out),
}


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, busy_s, self_s, work, active depth]
        self.stats: dict[str, list] = {}
        #: (id, name, start, end, parent id, root id); ids start at 1, 0 = none
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # per active call: [covered_s, span id, root id]
        #: name -> the unwrapped callable
        self.originals: dict[str, object] = {}
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, func):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        keep = name in COARSE
        work = WORK.get(name)
        originals, stack, spans, clock = self.originals, self._stack, self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else None
            if keep:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[1] if parent else 0
            root = parent[2] if parent else sid
            frame = [0.0, sid, root]
            stack.append(frame)
            st[4] += 1
            out = None
            t0 = clock()
            try:
                out = func(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                st[4] -= 1
                d = t1 - t0
                st[0] += 1
                st[2] += d - frame[0]
                if not st[4]:
                    st[1] += d
                if keep:
                    spans.append((sid, name, t0, t1, parent[1] if parent else 0, root))
                if work is not None and out is not None and out is not NotImplemented:
                    st[3] += work(originals, args, out)
                if parent is not None:
                    parent[0] += clock() - enter

        self.originals[name] = func
        return functools.wraps(func)(traced)

    def install(self, required=()) -> None:
        """Wrap the package's public callables at every binding site.

        Raises ``LookupError``, with nothing left wrapped, if any name in
        ``required`` was not found: after a refactor renames a function,
        the traced run fails instead of reporting 0 for it.
        """
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        registry = mods["verify"].REGISTRY
        names = {id(func): f"verify.{key}" for key, (func, _, _) in registry.items()}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

        def wrapper_for(func, name):
            if id(func) not in wrapped:
                wrapped[id(func)] = (func, self.wrap(names.get(id(func), name), func))
            return wrapped[id(func)][1]

        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapper_for(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{short}.{attr}", wrapper_for)

        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1], obj)
        for key, entry in list(registry.items()):
            func, default, kind = entry
            registry[key] = (wrapper_for(func, f"verify.{key}"), default, kind)
            self._undo.append((registry.__setitem__, key, entry))

        missing = [name for name in required if name not in self.originals]
        if missing:
            self.uninstall()
            raise LookupError(f"tracer found no {', '.join(missing)} in {PACKAGE}")

    def _wrap_class(self, cls, prefix: str, wrapper_for) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or attr in _ARITH):
                continue
            short = _ARITH.get(attr, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(wrapper_for(raw.__func__, f"{prefix}.{short}"))
            elif inspect.isfunction(raw):
                new = wrapper_for(raw, f"{prefix}.{short}")
            else:
                continue  # properties and data
            self._set(cls, attr, new, raw)

    def _set(self, owner, attr: str, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((setattr, owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        return {name: {"calls": st[0], "busy_s": st[1], "self_s": st[2], "work": st[3]}
                for name, st in self.stats.items() if st[0]}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\troot\n")
            for sid, name, t0, t1, parent, root in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{root}\n")


def layer_shares(totals: dict[str, dict]) -> dict[str, float]:
    """Each module's share of all traced self time."""
    by_layer: dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    total = sum(by_layer.values()) or 1.0
    return {layer: by_layer.get(layer, 0.0) / total for layer in MODULES}


def merge(into: dict[str, dict], more: dict[str, dict]) -> None:
    for name, row in more.items():
        acc = into.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
        for key in acc:
            acc[key] += row[key]
