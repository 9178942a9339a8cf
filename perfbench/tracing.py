"""Layer tracing of troppencil from outside the program.

`Tracer.install()` rebinds each listed public function or method, in every
troppencil module namespace that binds it, to a wrapper.  While an op is
active (`tracer.op >= 0`) a wrapper records one span per call: name, start,
end, parent span and op id.  Outside ops the wrappers only forward, so
input preparation and output checks leave no spans.  Spans stay in memory
in flat arrays until `summary()` turns them into per-op call counts and
self times (a span minus the spans directly under it).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# Layer (module) -> functions that get a span.  A dotted entry is a method.
SPANNED = {
    "cli": ("main",),
    "jsonio": (
        "support_from_json",
        "config_from_json",
        "config_to_json",
        "line_from_json",
        "line_to_json",
        "topology_to_json",
        "plucker_to_json",
        "cell_to_json",
    ),
    "stable": ("value_matrix", "minor_tropdet", "is_general", "plucker_of_config", "stable_pencil"),
    "trees": ("plucker_to_tree", "embed", "EmbeddedLine.translate"),
    "pencil": (
        "shifted_line",
        "is_fixed",
        "skeleton_level",
        "pi_set",
        "pi_attachment",
        "pi_gamma",
        "fixed_locus",
        "fixed_locus_pieces",
    ),
    "plane": ("solve", "canonical_pieces"),
    "compat": (
        "is_compatible",
        "iter_types",
        "enumerate_types",
        "realize_type",
        "find_strict_maximal_subdivision",
        "construct_configuration",
        "vertex_fixed_points",
        "vertex_fixed_point",
    ),
    "subdivision": ("regular_subdivision", "secondary_cone_contains", "is_maximal", "cell_dual_point"),
    "core": ("min_profile",),
}

# Functions counted without a span: too small and too frequent to time.
COUNTED = {"core": ("dot",)}

# Outcome counters kept next to a span: (suffix, test on the return value).
OUTCOMES = {
    "stable.minor_tropdet": ("tied", lambda r: not r.unique),
    "plane.solve": ("kept", lambda r: r is not None),
}


def metric_names() -> list:
    """Every per-layer metric `summary()` reports, in a fixed order."""
    names = []
    for layer, funcs in SPANNED.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_s"]
        names.append(f"{layer}.self_s")
    names += [f"{layer}.{f}.calls" for layer, funcs in COUNTED.items() for f in funcs]
    names += [
        "stable.minor_tropdet.tied",
        "plane.solve.kept_ratio",
        "compat.iter_types.yielded",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/op"


class Tracer:
    def __init__(self):
        self.op = -1  # id of the active op; -1 records nothing
        self.names = []  # span name per name id
        self.name_of = array("i")  # per span: name id
        self.op_of = array("i")
        self.parent_of = array("i")  # index of the enclosing span, -1 at top
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.generators = set()  # names whose calls are counted apart from spans
        self.originals = {}  # span name -> the unwrapped function

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed function in the currently imported troppencil."""
        mods = [m for k, m in sys.modules.items() if k == "troppencil" or k.startswith("troppencil.")]
        for layer, funcs in SPANNED.items():
            home = sys.modules["troppencil." + layer]
            for qual in funcs:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self._spanned(name, cls.__dict__[attr]))
                else:
                    orig = getattr(home, qual)
                    wrap = self._spanned_gen if inspect.isgeneratorfunction(orig) else self._spanned
                    _rebind(mods, orig, wrap(name, orig))
        for layer, funcs in COUNTED.items():
            home = sys.modules["troppencil." + layer]
            for qual in funcs:
                orig = getattr(home, qual)
                _rebind(mods, orig, self._counted(f"{layer}.{qual}", orig))

    def _open(self, nid, op):
        idx = len(self.start)
        self.name_of.append(nid)
        self.op_of.append(op)
        self.parent_of.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        self.originals[name] = fn
        outcome = OUTCOMES.get(name)
        key = outcome and f"{name}.{outcome[0]}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid, op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome and outcome[1](result):
                self.counts[key] += 1
            return result

        return traced

    def _spanned_gen(self, name, fn):
        """A generator gets one span per resume; calls and items are counted."""
        nid = self._name_id(name)
        self.generators.add(name)

        def resumes(gen):
            while self.op >= 0:
                idx = self._open(nid, self.op)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[name + ".yielded"] += 1
                yield item
            yield from gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if self.op < 0:
                return gen
            self.counts[name + ".calls"] += 1
            return resumes(gen)

        return traced

    def _counted(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op >= 0:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def calls_in_op(self, name: str, op: int) -> int:
        nids = {i for i, nm in enumerate(self.names) if nm == name}
        return sum(1 for nid, o in zip(self.name_of, self.op_of) if o == op and nid in nids)

    def summary(self, ops: int, factor: dict) -> dict:
        """Per-layer metrics averaged over `ops` traced ops; self times are
        scaled by the op's wall-to-reference `factor`."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent_of):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = Counter()
        calls = Counter()
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            self_s[name] += (self.end[i] - self.start[i] - child[i]) * factor.get(self.op_of[i], 1.0)
            calls[name] += 1
        for name in self.generators:
            calls[name] = self.counts[name + ".calls"]
        out = {}
        for layer, funcs in SPANNED.items():
            for f in funcs:
                name = f"{layer}.{f}"
                out[name + ".calls"] = calls[name] / ops
                out[name + ".self_s"] = self_s[name] / ops
            out[layer + ".self_s"] = sum(self_s[f"{layer}.{f}"] for f in funcs) / ops
        for layer, funcs in COUNTED.items():
            for f in funcs:
                out[f"{layer}.{f}.calls"] = self.counts[f"{layer}.{f}.calls"] / ops
        out["stable.minor_tropdet.tied"] = self.counts["stable.minor_tropdet.tied"] / ops
        solved = calls["plane.solve"]
        out["plane.solve.kept_ratio"] = self.counts["plane.solve.kept"] / solved if solved else 0.0
        out["compat.iter_types.yielded"] = self.counts["compat.iter_types.yielded"] / ops
        return out

    def write(self, path):
        """All spans as JSON: name table plus one [name, op, parent, start, end] row each."""
        rows = zip(self.name_of, self.op_of, self.parent_of, self.start, self.end)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": [list(r) for r in rows]}, fh)


def _rebind(modules, orig, wrapper):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
