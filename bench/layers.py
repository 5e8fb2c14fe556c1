"""Per-layer spans and counters, installed on stablelimit from outside.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces the public
functions of each layer with wrappers at every binding site: the module
that defines a function and every stablelimit module that imported it by
name (``scenarios``, ``deformation``, ``linser``, ``curvelocal`` and the
package ``__init__`` all do); ``Tracer.uninstall`` puts the originals
back.  A timed wrapper opens a span; a span's self time is its duration
minus the spans opened inside it.  ``Element`` operations are only
counted, because a timer on each of ~10^5 ring operations would cost
more than the operations.

A function the spec names that no longer exists is listed in
``Tracer.missing`` and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

ELEMENT_OPS = {"mul": "__mul__", "add": "__add__", "sub": "__sub__",
               "neg": "__neg__", "inverse": "inverse"}

# (metric prefix, module, attribute) of every timed public function.
TIMED = (
    [("poly.MPoly.mul", "poly", "MPoly.__mul__"),
     ("poly.MPoly.substitute", "poly", "MPoly.substitute"),
     ("poly.parse_poly", "poly", "parse_poly")]
    + [(f"linalg.{fn}", "linalg", fn)
       for fn in ("rank", "solve_affine", "eliminate", "rowspace_equal")]
    + [(f"deformation.{fn}", "deformation", fn)
       for fn in ("derive_rigidity_system", "solve_published_system",
                  "diagonal_rows", "flex_rows", "published_substitution_map")]
    + [("scenarios.rational_singular_points", "scenarios",
        "rational_singular_points"),
       ("scenarios.body", "scenarios", "run_scenario"),
       ("report.render_json", "report", "render_json")]
)

# Modules whose public functions are summed into one ``<module>.self_ms``.
SUMMED = ("curvelocal", "picard", "linser")

# The lru_cache'd intermediates whose cache_info() is reported.
CACHED = (
    ("scenarios", ("degeneration_forms", "curve_pair",
                   "rational_singular_points", "derived_system_cached",
                   "_direct_value_rows", "_chain_rule_rows")),
    ("deformation", ("diagonal_cloud", "diagonal_rows", "flex_rows",
                     "published_substitution_map", "leftover_rows")),
)


def _term_pairs(args):
    return len(args[0].terms) * len(args[1].terms)


def _rows_entries(args):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _system_entries(args):
    return len(args[0].rows) * len(args[0].variables)


# Work counted on every call of a timed function: prefix -> (metric, count).
# ``linalg.entries`` is rows x cols of each coefficient matrix handed in.
COUNTED = {
    "poly.MPoly.mul": ("poly.MPoly.mul.term_pairs", _term_pairs),
    "linalg.rank": ("linalg.entries", _rows_entries),
    "linalg.solve_affine": ("linalg.entries", _system_entries),
    "linalg.eliminate": ("linalg.entries", _system_entries),
}


def _module(name):
    try:
        return importlib.import_module(f"stablelimit.{name}")
    except ImportError:
        return None


def _resolve(module, dotted):
    """(owner, attribute name, value) for ``Class.attr`` or ``attr``."""
    owner = module
    *outer, last = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    value = getattr(owner, last, None) if owner is not None else None
    return owner, last, value


class Tracer:
    """Wrappers plus the accumulators they write."""

    def __init__(self):
        self.calls = {}         # metric prefix -> [calls, self_ns]
        self.counts = {}        # metric name -> [count]
        self.stack = []         # child time of each open span
        self.root_ns = 0        # time covered by spans with no parent
        self.missing = []
        self.replaced = []      # (owner, attribute, original) per wrapper set
        self.cached = {}        # name -> unwrapped lru_cache function

    # -- installation ------------------------------------------------------

    def install(self):
        # Importing the package imports every layer module.
        importlib.import_module("stablelimit.cli")
        # Before any wrapping: cache_info() lives on the unwrapped function.
        for modname, names in CACHED:
            module = _module(modname)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None or not hasattr(fn, "cache_info"):
                    self.missing.append(f"{modname}.{name}")
                    continue
                self.cached[name] = fn
        self._install_counters()
        for prefix, modname, dotted in TIMED:
            self._wrap_timed(prefix, modname, dotted)
        for modname in SUMMED:
            module = _module(modname)
            if module is None:
                self.missing.append(modname)
                continue
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._wrap_timed(modname, modname, name)

    def _install_counters(self):
        rings = _module("rings")
        element = getattr(rings, "Element", None)
        for metric, attr in ELEMENT_OPS.items():
            fn = getattr(element, attr, None)
            if fn is None:
                self.missing.append(f"rings.Element.{attr}")
                continue
            cell = self.counts.setdefault(f"rings.{metric}.calls", [0])
            self._set(element, attr, _counted(fn, cell))

    def _wrap_timed(self, prefix, modname, dotted):
        module = _module(modname)
        owner, attr, fn = _resolve(module, dotted) if module else (None, None, None)
        if fn is None:
            self.missing.append(f"{modname}.{dotted}")
            return
        acc = self.calls.setdefault(prefix, [0, 0])
        cell = count = None
        if prefix in COUNTED:
            metric, count = COUNTED[prefix]
            cell = self.counts.setdefault(metric, [0])
        wrapper = self._span(fn, acc, cell, count)
        if owner is not module:
            self._set(owner, attr, wrapper)
            return
        # Every stablelimit module that binds the function, not only its own.
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "stablelimit"
                                    or name.startswith("stablelimit.")):
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, binding, wrapper)

    def _set(self, owner, attr, wrapper):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back."""
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()

    def _span(self, fn, acc, cell, count):
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cell is not None:
                cell[0] += count(args)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                acc[0] += 1
                acc[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.root_ns += elapsed

        return wrapper

    # -- reading -------------------------------------------------------------

    def snapshot(self):
        """Cumulative counters since install: {metric: value}."""
        out = {}
        for prefix, (calls, self_ns) in self.calls.items():
            out[f"{prefix}.self_ms"] = self_ns / 1e6
            if prefix.startswith(("poly.", "linalg.")):
                out[f"{prefix}.calls"] = calls
        for name, (count,) in self.counts.items():
            out[name] = count
        for name, fn in self.cached.items():
            info = fn.cache_info()
            out[f"cache.{name}.hits"] = info.hits
            out[f"cache.{name}.misses"] = info.misses
        out["trace.root_ms"] = self.root_ns / 1e6
        return out


def delta(after, before):
    """Per-metric difference of two snapshots."""
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _counted(fn, cell):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    wrapper.__name__ = fn.__name__
    return wrapper

