"""Outside-in layer tracing: spans around calls into each layer's public functions.

The tracer never edits the library.  ``install`` wraps the entry points listed
in ``SPANS`` and replaces every reference to them in every loaded
``loopminors`` module, because ``verify``, ``cli``, ``phi`` and ``networks``
import names with ``from .x import f`` and patching only the defining module
would miss their calls.  ``MultiPoly`` and ``LoopElement`` methods are wrapped
on the class.  ``COUNTED`` functions are too hot for a span; they only count
calls, and their time stays in the caller's span.

Spans live in four flat arrays (name, parent, start, end) and are written out
by ``dump``.  A span's self time is its duration minus the durations of its
direct children; since calls nest, the self times of all spans add up to the
summed duration of the top-level spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "loopminors"

LAYERS = (
    "partitions", "tableaux", "phi", "networks", "multipoly", "loop",
    "toeplitz", "determinants", "shapemod", "gf", "verify", "cli",
)

# (module, attribute, span name or None for "<module>.<attribute>")
SPANS = (
    ("partitions", "partitions_up_to", None),
    ("partitions", "subpartitions", None),
    ("partitions", "index_set", None),
    ("tableaux", "enumerate_standard", None),
    ("tableaux", "enumerate_by_parity", None),
    ("tableaux", "enumerate_chess", None),
    ("tableaux", "ground_state", None),
    ("phi", "phi_polynomial", None),
    ("networks", "enumerate_families", None),
    ("networks", "lindstrom_minor", None),
    ("networks", "family_weight", None),
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.__rmul__", "multipoly.mul"),
    ("multipoly", "MultiPoly.__add__", "multipoly.add"),
    ("multipoly", "MultiPoly.__radd__", "multipoly.add"),
    ("multipoly", "MultiPoly.text", "multipoly.text"),
    ("loop", "word_to_loop", None),
    ("loop", "LoopElement.__init__", "loop.LoopElement.init"),
    ("toeplitz", "minor", None),
    ("toeplitz", "pieri_determinant", None),
    ("determinants", "det_cofactor", None),
    ("determinants", "det_bareiss", None),
    ("shapemod", "build_module", None),
    ("shapemod", "count_flags_fq", None),
    ("shapemod", "conjecture1_prediction", None),
    ("gf", "rref", None),
    ("gf", "mat_mul", None),
    ("gf", "solve_columns", None),
    ("gf", "projective_vectors", None),
    ("gf", "kernel_basis", None),
    ("gf", "left_kernel_basis", None),
    ("verify", "verify_theorem2", "verify.theorem2"),
    ("verify", "verify_prop1", "verify.prop1"),
    ("verify", "verify_pieri", "verify.pieri"),
    ("verify", "verify_lindstrom", "verify.lindstrom"),
    ("verify", "verify_conjecture1", "verify.conjecture1"),
    ("verify", "realizable_parities", None),
    ("cli", "main", None),
)
COUNTED = (("partitions", "check_partition"),)


def _modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def replace_everywhere(original, replacement) -> int:
    """Rebind every module-level reference to ``original``; returns how many."""
    hits = 0
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                hits += 1
    return hits


def _lookup(module_name: str, attr: str):
    """(owner class or None, function) for a table entry; function None if absent."""
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return owner, (vars(owner).get(name) if owner is not None else None)
    return None, getattr(module, name, None)


class _ReadTracking(dict):
    """enumerate_chess result that counts the tableaux its caller reads."""

    __slots__ = ("_seen", "_counts")

    def _mark(self, key) -> None:
        if key not in self._seen and dict.__contains__(self, key):
            self._seen.add(key)
            self._counts["tableaux.chess_used"] += len(dict.__getitem__(self, key))

    def __getitem__(self, key):
        self._mark(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._mark(key)
        return dict.get(self, key, default)

    def items(self):
        for key in dict.keys(self):
            self._mark(key)
        return dict.items(self)

    def values(self):
        for key in dict.keys(self):
            self._mark(key)
        return dict.values(self)


def _window_side(lam) -> int:
    return max(1, sum(1 for p in lam if p))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._shapes_seen: set = set()

    # -- hooks: derived counters, measured where the work happens -------------

    def _parent_name(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    def _hooks(self):
        counts = self.counts

        def standard(args, result):
            key = tuple(args[0]) if isinstance(args[0], (tuple, list)) else None
            if key in self._shapes_seen:
                counts["tableaux.enumerate_standard.repeats"] += 1
            elif key is not None:
                self._shapes_seen.add(key)
            if self._parent_name() == "tableaux.enumerate_by_parity":
                counts["tableaux.by_parity_scanned"] += len(result)
            return result

        def by_parity(args, result):
            counts["tableaux.by_parity_returned"] += len(result)
            return result

        def chess(args, result):
            counts["tableaux.chess_built"] += sum(len(tabs) for tabs in result.values())
            tracked = _ReadTracking(result)
            tracked._seen = set()
            tracked._counts = counts
            return tracked

        def families(args, result):
            counts["networks.families_built"] += len(result)
            return result

        def mul(args, result):
            other = args[1]
            width = len(other.terms) if hasattr(other, "terms") else int(bool(other))
            counts["multipoly.mul.term_products"] += len(args[0].terms) * width
            return result

        def window(position):
            def hook(args, result):
                side = _window_side(args[position])
                counts["toeplitz.window_side.max"] = max(counts["toeplitz.window_side.max"], side)
                return result
            return hook

        def projective(args, result):
            counts["shapemod.functionals_visited"] += len(result)
            return result

        def kernel(args, result):
            # one call per stable functional kept; left_kernel_basis calls it too
            if self._parent_name() != "gf.left_kernel_basis":
                counts["shapemod.functionals_kept"] += 1
            return result

        return {
            "tableaux.enumerate_standard": standard,
            "tableaux.enumerate_by_parity": by_parity,
            "tableaux.enumerate_chess": chess,
            "networks.enumerate_families": families,
            "multipoly.mul": mul,
            "toeplitz.minor": window(2),
            "toeplitz.pieri_determinant": window(1),
            "gf.projective_vectors": projective,
            "gf.kernel_basis": kernel,
        }

    # -- wrapping --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            return result if hook is None else hook(args, result)

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every table entry present in the loaded library."""
        hooks = self._hooks()
        for module_name, attr, name in SPANS:
            name = name or f"{module_name}.{attr}"
            owner, fn = _lookup(module_name, attr)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.span_wrapper(name, fn, hooks.get(name))
            if owner is not None:
                setattr(owner, attr.rpartition(".")[2], wrapper)
            else:
                replace_everywhere(fn, wrapper)
        for module_name, attr in COUNTED:
            owner, fn = _lookup(module_name, attr)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            replace_everywhere(fn, self.count_wrapper(f"{module_name}.{attr}", fn))

    # -- results ---------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-name self time and calls, plus counters, for a traced wall time."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        top_s = 0.0
        for sid in range(n):
            duration = end[sid] - start[sid]
            self_s[self.name[sid]] += duration - child[sid]
            calls[self.name[sid]] += 1
            if parent[sid] < 0:
                top_s += duration
        return {
            "wall_s": wall_s,
            "top_s": top_s,
            "spans": n,
            "self_s": dict(zip(self.names, self_s)),
            "calls": dict(zip(self.names, calls)),
            "counts": dict(self.counts),
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "spans": len(self.start), "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced workers."""
    total = {"wall_s": 0.0, "top_s": 0.0, "spans": 0, "self_s": Counter(), "calls": Counter(), "counts": Counter(), "missing": set()}
    for s in summaries:
        total["wall_s"] += s["wall_s"]
        total["top_s"] += s["top_s"]
        total["spans"] += s["spans"]
        total["self_s"].update(s["self_s"])
        total["calls"].update(s["calls"])
        for key, value in s["counts"].items():
            if key.endswith(".max"):
                total["counts"][key] = max(total["counts"][key], value)
            else:
                total["counts"][key] += value
        total["missing"].update(s["missing"])
    total["missing"] = sorted(total["missing"])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from a merged summary."""
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]
    out: dict[str, float] = {}
    for name in (
        "tableaux.enumerate_standard", "tableaux.enumerate_by_parity", "tableaux.enumerate_chess",
        "phi.phi_polynomial", "networks.enumerate_families", "networks.lindstrom_minor",
        "networks.family_weight", "multipoly.mul", "multipoly.add", "loop.word_to_loop",
        "toeplitz.minor", "toeplitz.pieri_determinant", "determinants.det_cofactor",
        "determinants.det_bareiss", "shapemod.build_module", "shapemod.count_flags_fq",
        "shapemod.conjecture1_prediction", "gf.rref", "gf.mat_mul", "gf.solve_columns",
        "gf.projective_vectors", "verify.theorem2", "verify.prop1", "verify.pieri",
        "verify.lindstrom", "verify.conjecture1", "cli.main",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "tableaux.enumerate_standard", "tableaux.enumerate_chess", "networks.enumerate_families",
        "multipoly.mul", "multipoly.add", "loop.word_to_loop", "loop.LoopElement.init",
        "toeplitz.minor", "determinants.det_cofactor", "determinants.det_bareiss",
        "shapemod.count_flags_fq", "gf.rref",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["partitions.check_partition.calls"] = counts.get("partitions.check_partition.calls", 0)
    std_calls = calls.get("tableaux.enumerate_standard", 0)
    out["tableaux.enumerate_standard.repeat_ratio"] = _ratio(counts.get("tableaux.enumerate_standard.repeats", 0), std_calls)
    out["tableaux.by_parity_yield"] = _ratio(counts.get("tableaux.by_parity_returned", 0), counts.get("tableaux.by_parity_scanned", 0))
    out["tableaux.chess_built"] = counts.get("tableaux.chess_built", 0)
    out["tableaux.chess_used_ratio"] = _ratio(counts.get("tableaux.chess_used", 0), counts.get("tableaux.chess_built", 0))
    out["networks.families_built"] = counts.get("networks.families_built", 0)
    out["multipoly.mul.term_products"] = counts.get("multipoly.mul.term_products", 0)
    out["toeplitz.window_side.max"] = counts.get("toeplitz.window_side.max", 0)
    out["shapemod.functionals_visited"] = counts.get("shapemod.functionals_visited", 0)
    out["shapemod.stable_yield"] = _ratio(counts.get("shapemod.functionals_kept", 0), counts.get("shapemod.functionals_visited", 0))
    out["verify.cases"] = sum(calls.get(f"verify.{v}", 0) for v in ("theorem2", "prop1", "pieri", "lindstrom", "conjecture1"))
    by_layer = Counter()
    for name, value in self_s.items():
        by_layer[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = by_layer.get(layer, 0.0)
    self_total = sum(self_s.values())
    out["trace.wall_s"] = t["wall_s"]
    out["trace.self_sum_s"] = self_total
    out["trace.unattributed_s"] = t["wall_s"] - self_total
    out["trace.coverage"] = _ratio(self_total, t["wall_s"])
    out["trace.spans"] = t["spans"]
    return out
