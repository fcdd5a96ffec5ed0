"""Outside-in tracing of lawkit's eight modules.

``Tracer.install`` replaces every public function, method and property of
the layer modules with a timing wrapper, including the aliases other
modules bind with ``from .x import y`` and functions held in module-level
dicts (``cli.HANDLERS``).  Nothing under ``src/`` is edited; ``uninstall``
puts the originals back.

Spans are aggregated as they close into a calling-context tree: one node per
distinct call path, holding its parent id, call count and inclusive time.  A
node's self time is its inclusive time minus its children's, and a layer's
self time is the sum over its nodes.  This keeps memory bounded when a span
repeats millions of times (``ProductCategory.arr_radices``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "dsl", "theory", "finset", "fincat", "catmodels", "cells", "multimaps")
ROOT = "<harness>"

# Calls of these count as product-category encoding work.
PRODUCT_CODEC = tuple(
    f"fincat.ProductCategory.{m}"
    for m in ("obj_radices", "arr_radices", "encode_obj", "decode_obj",
              "encode_arr", "decode_arr"))


def _len_hook(counter):
    def hook(counters, result):
        counters[counter] += len(result)
    return hook


def _attr_hook(counter, attr):
    def hook(counters, result):
        counters[counter] += getattr(result, attr)
    return hook


def _normalize_hook(counters, result):
    counters["theory.rewrite_steps"] += len(result[1])


def _parse_file_hook(counters, result):
    counters["dsl.diagnostics"] += len(result[1].diagnostics)


# Work counts read from return values, keyed by wrapped function name.
RESULT_HOOKS = {
    "theory.normalize": _normalize_hook,
    "dsl.parse_file": _parse_file_hook,
    "fincat.enumerate_functors": _len_hook("fincat.functors_found"),
    "fincat.enumerate_naturals": _len_hook("fincat.naturals_found"),
    "catmodels.enumerate_homs_w": _len_hook("catmodels.homs_found"),
    "multimaps.enumerate_binary_multimaps": _len_hook("multimaps.multimaps_found"),
    "cells.check_sigma_coherence": _attr_hook("cells.instances_checked", "checked"),
    "cells.derived_associativity_check": _attr_hook("cells.instances_checked", "checked"),
    "cells.yang_baxter_check": _attr_hook("cells.instances_checked", "triples_checked"),
}
# Generator functions whose yields are counted.
YIELD_COUNTERS = {"finset.enumerate_models": "finset.models_yielded"}


class Node:
    __slots__ = ("id", "parent", "name", "layer", "children", "calls", "total")

    def __init__(self, id_, parent, name, layer):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.children = {}
        self.calls = 0
        self.total = 0.0


class Tracer:
    """Wrap with ``install``; each benchmark op runs under ``run_span``."""

    def __init__(self):
        self.nodes = [Node(0, -1, ROOT, None)]
        self.stack = [self.nodes[0]]
        self.counters = Counter()
        self.bound_escapes = 0
        self.bound_ops = []
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _child(self, name, layer):
        parent = self.stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = Node(len(self.nodes), parent.id, name, layer)
            parent.children[name] = node
            self.nodes.append(node)
        return node

    def _wrap_function(self, fn, name, layer):
        tracer, child, stack, counters = self, self._child, self.stack, self.counters
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            yields = YIELD_COUNTERS.get(name)

            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    node = child(name, layer)
                    stack.append(node)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        node.total += clock() - t0
                        stack.pop()
                        if first:
                            node.calls += 1
                            first = False
                    if yields:
                        counters[yields] += 1
                    yield item

            wrapper = gen_wrapper
        else:
            hook = RESULT_HOOKS.get(name)

            def wrapper(*args, **kwargs):
                node = child(name, layer)
                stack.append(node)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if layer == "multimaps" and type(exc).__name__ == "EnumerationBound":
                        tracer.bound_escapes += 1
                    raise
                finally:
                    node.total += clock() - t0
                    node.calls += 1
                    stack.pop()
                if hook is not None:
                    hook(counters, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "lawkit") -> None:
        """Wrap the layer modules of ``package``, which must be imported."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        by_id = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap_function(obj, f"{layer}.{attr}", layer)
                    by_id[id(obj)] = (obj, wrapped)
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{attr}", layer)
        # Re-bind aliases made by `from .x import y` and references in module dicts.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = by_id.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._undo.append((obj, key, value))
                            obj[key] = hit[1]

    def _wrap_class(self, cls, prefix, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap_function(obj, name, layer))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap_function(obj.__func__, name, layer)))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap_function(obj.__func__, name, layer)))
            elif isinstance(obj, property) and obj.fget is not None:
                self._set(cls, attr, property(self._wrap_function(obj.fget, name, layer),
                                              obj.fset, obj.fdel, obj.__doc__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def start(self) -> None:
        """Open the root span; ``stop`` closes it.  Time in it outside any
        op span is harness time."""
        self._t_root = time.perf_counter()

    def stop(self) -> None:
        self.nodes[0].total += time.perf_counter() - self._t_root
        self.nodes[0].calls += 1

    def run_span(self, name, fn, *args):
        """Run ``fn(*args)`` under a harness-level span (one per benchmark op).

        An op during which ``EnumerationBound`` escaped a ``multimaps`` call
        is listed in ``bound_ops``.
        """
        node = self._child(name, None)
        self.stack.append(node)
        escapes = self.bound_escapes
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            node.total += time.perf_counter() - t0
            node.calls += 1
            self.stack.pop()
            if self.bound_escapes != escapes:
                self.bound_ops.append(name)

    # -- results --------------------------------------------------------------

    def dump(self) -> dict:
        """The tree as plain data: one row per node, plus the work counters."""
        return {
            "nodes": [[n.id, n.parent, n.name, n.layer, n.calls, n.total] for n in self.nodes],
            "counters": dict(self.counters),
            "bound_ops": self.bound_ops,
        }


class Profile:
    """Trees from one or more tracers, summarised per layer.

    A tree recorded in a child process is added with ``nested=True``: its
    top-level time is already inside the parent's span for that op, so it is
    taken out of the harness share once.
    """

    def __init__(self):
        self.trees = []
        self.rows = []          # (name, layer, calls, total, self); layer None = harness
        self.counters = Counter()
        self.harness_offset = 0.0

    def add(self, dump: dict, nested: bool = False) -> None:
        self.trees.append(dump)
        nodes = dump["nodes"]
        child_total = [0.0] * len(nodes)
        for _id, parent, _name, _layer, _calls, total in nodes:
            if parent >= 0:
                child_total[parent] += total
        for id_, _parent, name, layer, calls, total in nodes:
            self.rows.append((name, layer, calls, total, total - child_total[id_]))
        if nested:
            self.harness_offset -= nodes[0][5]
        self.counters.update(dump["counters"])

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for _name, layer, _calls, _total, self_s in self.rows:
            if layer is not None:
                out[layer] += self_s
        return out

    def harness_self(self) -> float:
        return self.harness_offset + sum(r[4] for r in self.rows if r[1] is None)

    def total_self(self) -> float:
        return self.harness_offset + sum(r[4] for r in self.rows)

    def min_self(self) -> float:
        return min((r[4] for r in self.rows), default=0.0)

    def calls(self, *names) -> int:
        return sum(r[2] for r in self.rows if r[0] in names)

    def inclusive(self, *names) -> float:
        """Summed inclusive time of ``names``; they must not call one another."""
        return sum(r[3] for r in self.rows if r[0] in names)

    def top_self(self, k: int = 8):
        merged = Counter()
        for name, layer, _calls, _total, self_s in self.rows:
            if layer is not None:
                merged[name] += self_s
        return merged.most_common(k)
