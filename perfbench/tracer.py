"""Per-layer spans and counts for elliptica, recorded from outside the package.

``Tracer.install()`` replaces the public functions of each layer module, and
the methods of the two exact value types ``RationalFunctionQi`` and
``PSeries``, with wrappers that time every call at its boundary.  Every
``elliptica`` module namespace holding a wrapped object is repointed, so
calls made through ``from .ring import poly_gcd`` style imports are seen
too.  Nothing on disk changes.  ``GaussianRational`` is deliberately left
unwrapped: it runs about a million times per workload, so its time falls to
whichever layer calls it.

A layer's self time is the time during which it is the innermost traced
layer on the call stack; time outside any wrapped call (the benchmark's own
checking) is left unattributed.  Spans are aggregated as they close instead
of being kept, so the traced run's memory stays close to the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "ring", "qseries", "elliptic", "spinchar", "witten", "zem",
          "fixedpoint")

# value types whose methods are layer entry points
_TRACED_CLASSES = {"ring": ("RationalFunctionQi",), "qseries": ("PSeries",)}

_OUTSIDE = "-"


def _regrade_label(args, kwargs):
    rule = args[1] if len(args) > 1 else kwargs.get("rule")
    return "p_shift" if getattr(rule, "kind", None) == "p_shift" else None


def _manifold_label(args, kwargs):
    m = args[0] if args else kwargs.get("m")
    return getattr(m, "name", None)


def _suite_label(args, kwargs):
    return args[0] if args else kwargs.get("suite")


# calls of these functions are also counted under a label taken from their
# arguments, e.g. one rigidity time per manifold
_LABELS = {
    "qseries.ps_substitute_t": _regrade_label,
    "fixedpoint.rigidity_check": _manifold_label,
    "zem.identity_check": _suite_label,
    "zem.degenerate_reduction_check": lambda args, kwargs: "degenerate-reduction",
}


class _Stat:
    __slots__ = ("calls", "seconds", "raised", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0  # outermost calls only, so recursion is not double counted
        self.raised = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s[_OUTSIDE] = 0.0
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.layer_raised = {layer: 0 for layer in LAYERS}
        self.stats = {}  # "layer.name" or "layer.name[label]" -> _Stat
        self.gcd_useful = 0
        self.gcd_max_degree = 0
        self.lru = {}  # "layer.name" -> the original functools.lru_cache wrapper
        self._stack = [_OUTSIDE]
        self._mark = [time.perf_counter()]
        self._last_exc = {}

    def stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        return st

    def start(self):
        """Begin attributing time; what came before counts for nothing."""
        self._mark[0] = time.perf_counter()
        for layer in self.self_s:
            self.self_s[layer] = 0.0

    def _observe_gcd(self, args, result):
        self.gcd_max_degree = max(self.gcd_max_degree, *(len(a) - 1 for a in args))
        if len(result) > 1:
            self.gcd_useful += 1

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        st = self.stat(key)
        label_of = _LABELS.get(key)
        observe = self._observe_gcd if key == "ring.poly_gcd" else None
        stack = self._stack
        mark = self._mark
        self_s = self.self_s
        layer_calls = self.layer_calls
        layer_raised = self.layer_raised
        last_exc = self._last_exc
        stat = self.stat
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            self_s[stack[-1]] += t0 - mark[0]
            mark[0] = t0
            stack.append(layer)
            layer_calls[layer] += 1
            sts = [st]
            if label_of is not None:
                label = label_of(args, kwargs)
                if label is not None:
                    sts.append(stat(f"{key}[{label}]"))
            for s in sts:
                s.calls += 1
                s.depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                for s in sts:
                    s.raised += 1
                # count an exception once per layer as it unwinds nested spans
                if last_exc.get(layer) is not exc:
                    last_exc[layer] = exc
                    layer_raised[layer] += 1
                raise
            finally:
                t1 = clock()
                self_s[layer] += t1 - mark[0]
                mark[0] = t1
                stack.pop()
                for s in sts:
                    s.depth -= 1
                    if not s.depth:
                        s.seconds += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's entry points in the imported elliptica modules."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"elliptica.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self.lru[f"{layer}.{name}"] = obj
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
            for cname in _TRACED_CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(mod, cname))
        for modname, mod in list(sys.modules.items()):
            if modname != "elliptica" and not modname.startswith("elliptica."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return self

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(self._wrap(layer, qual, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(layer, qual, raw))

    # -- readings ------------------------------------------------------------

    def calls(self, key):
        st = self.stats.get(key)
        return st.calls if st else 0

    def seconds(self, key):
        st = self.stats.get(key)
        return st.seconds if st else 0.0

    def raised(self, key):
        st = self.stats.get(key)
        return st.raised if st else 0

    def cache_hit_ratio(self, key):
        info = self.lru[key].cache_info()
        looked_up = info.hits + info.misses
        return info.hits / looked_up if looked_up else 0.0

    def gcd_useful_ratio(self):
        calls = self.calls("ring.poly_gcd")
        return self.gcd_useful / calls if calls else 0.0
