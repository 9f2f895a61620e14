"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each ``brt`` module, rebinds the
wrapper wherever a ``brt`` module holds the original (``from .x import y``
copies included), and wraps the hot methods listed in ``HOT_METHODS``.
Each call becomes a span: name, start, end and parent span, kept in compact
arrays and written out when the run ends.  Self time (span time minus the
time of its child spans) is summed per layer as spans close, and probes on
chosen functions record the per-layer counts and ratios.  Nothing in
``src/`` changes; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from math import comb

LAYERS = ("valuation", "trees", "envelopes", "structures", "reductions",
          "adversarial", "io", "cli")

# Two-line key functions called millions of times per batch: a span each
# would cost more than the call.  Their time stays in the caller's self time,
# which is in the same layer.
UNTRACED = {"valuation.tuple_sort_key"}

HOT_METHODS = {
    "valuation": {"ValuationFunction": ("__post_init__", "restrict", "extends",
                                        "slice_at", "value", "value_map")},
    "trees": {cls: ("select",) for cls in ("FullCoordinate", "SeededCoordinate",
                                           "ExplicitCoordinate", "CompletedCoordinate")},
    "structures": {"EnumeratedStructure": ("__post_init__", "induced", "rel", "related"),
                   "GenericPrefix": ("realize",)},
    "adversarial": {"PersistentColouringContext": ("grown",)},
}


class Tracer:
    """Spans and per-layer counters for one traced batch at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_ids: dict[str, int] = {}
        self.open: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.child: list[int] = []
        self.layer_self = [0] * (len(LAYERS) + 1)   # ns; last slot is the harness
        self.stats: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------------

    def register(self, name: str, layer: int) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.open.append(0)
        return self.name_ids[name]

    def wrap(self, fn, name: str, layer: int, probe=None):
        nid = self.register(name, layer)
        perf = time.perf_counter_ns
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child, opened, layer_self = self.stack, self.child, self.open, self.layer_self

        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            child.append(0)
            opened[nid] += 1
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                opened[nid] -= 1
                dur = t1 - t0
                layer_self[layer] += dur - child.pop()
                if child:
                    child[-1] += dur
            if probe is not None:
                probe(self, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        return span

    def reset(self) -> None:
        """Drop the spans and counters of the previous batch."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.layer_self[:] = [0] * len(self.layer_self)
        self.stats.clear()

    # --- installing -----------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap public functions and hot methods of the layer modules and
        rebind every reference a ``brt`` module holds to an original."""
        wrappers = {}
        for layer, mod in modules.items():
            li = LAYERS.index(layer)
            for name, obj in vars(mod).items():
                full = f"{layer}.{name}"
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and full not in UNTRACED):
                    wrappers[obj] = self.wrap(obj, full, li, PROBES.get(full))
            for cls_name, methods in HOT_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    orig = cls.__dict__[m]
                    full = f"{layer}.{cls_name}.{m}"
                    self._set(cls, m, self.wrap(orig, full, li, PROBES.get(full)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "brt" and not mod_name.startswith("brt."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)

    # --- reading --------------------------------------------------------------

    def calls(self) -> Counter:
        counts = Counter(self.span_name)
        return Counter({self.names[i]: c for i, c in counts.items()})

    def inclusive_s(self, name: str) -> float:
        """Time inside outermost spans of one name, in seconds."""
        nid = self.name_ids[name]
        total = 0
        for i, n in enumerate(self.span_name):
            if n == nid:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != nid:
                    p = self.span_parent[p]
                if p < 0:
                    total += self.span_end[i] - self.span_start[i]
        return total / 1e9

    def layer_self_s(self) -> dict[str, float]:
        return {layer: self.layer_self[i] / 1e9 for i, layer in enumerate(LAYERS)}

    def metrics(self, stdout_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of one traced batch, as ``(value, unit)``."""
        calls = self.calls()
        s = self.stats
        self_s = self.layer_self_s()

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        def count(name: str) -> int:
            return calls.get(name, 0)

        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({
            "valuation.constructed": (count("valuation.ValuationFunction.__post_init__"), "count"),
            "valuation.restrict_calls": (count("valuation.ValuationFunction.restrict"), "count"),
            "valuation.extends_calls": (count("valuation.ValuationFunction.extends"), "count"),
            "valuation.slice_calls": (count("valuation.ValuationFunction.slice_at"), "count"),
            "valuation.meet_calls": (count("valuation.meet"), "count"),
            "trees.level_nodes_out": (s["level_nodes_out"], "count"),
            "trees.valtree_nodes": (s["valtree_nodes"], "count"),
            "trees.select_calls": (sum(c for n, c in calls.items()
                                       if n.startswith("trees.") and n.endswith(".select")),
                                   "count"),
            "trees.val_contains_calls": (count("trees.val_contains"), "count"),
            "trees.struct_emb_hit_ratio": (ratio(s["semb_nodes"], s["semb_extends"]), "ratio"),
            "envelopes.verify_s": (self.inclusive_s("envelopes.verify_k_enveloping"), "s"),
            "envelopes.cascade_stages": (s["cascade_stages"], "count"),
            "envelopes.height_max": (s["height_max"], "levels"),
            "envelopes.materialised_frac": (ratio(s["materialised"], s["envelopes"]), "ratio"),
            "structures.induced_calls": (count("structures.EnumeratedStructure.induced"), "count"),
            "structures.embed_hit_ratio": (ratio(s["embed_found"], s["embed_tried"]), "ratio"),
            "structures.realize_calls": (count("structures.GenericPrefix.realize"), "count"),
            "structures.constructed": (count("structures.EnumeratedStructure.__post_init__"),
                                       "count"),
            "reductions.is_bad_calls": (count("reductions.is_bad"), "count"),
            "reductions.strip_kept_ratio": (ratio(s["strip_kept"], s["strip_seen"]), "ratio"),
            "adversarial.tree_like_checked": (s["tree_like_checked"], "count"),
            "adversarial.grow_requests": (count("adversarial.PersistentColouringContext.grown"),
                                          "count"),
            "io.stdout_bytes": (stdout_bytes, "bytes"),
            "trace.spans": (len(self.span_name), "count"),
        })
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write the spans: a JSON header line, then the four arrays raw."""
        header = {"names": self.names,
                  "layers": [LAYERS[i] if i < len(LAYERS) else "bench" for i in self.name_layer],
                  "spans": len(self.span_name),
                  "arrays": ["name:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
                  **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


# --- probes: counts recorded where the work happens ---------------------------


def _relation_tuples(structure) -> int:
    return sum(len(t) > 1 for _, ts in structure.relations for t in ts)


def _semb_extends(tr: Tracer, args, result) -> None:
    if tr.open[tr.name_ids["trees.structural_embedding"]]:
        tr.stats["semb_extends"] += 1


def _envelope(tr: Tracer, args, env) -> None:
    tr.stats["envelopes"] += 1
    tr.stats["cascade_stages"] += len(env.stages)
    tr.stats["materialised"] += env.tree is not None
    tr.stats["height_max"] = max(tr.stats["height_max"], env.height)


def _embeddings(tr: Tracer, args, result) -> None:
    a, b = args[0], args[1]
    tr.stats["embed_found"] += len(result)
    tr.stats["embed_tried"] += comb(b.size, a.size)


def _strip(tr: Tracer, args, result) -> None:
    tr.stats["strip_seen"] += _relation_tuples(args[0])
    tr.stats["strip_kept"] += _relation_tuples(result)


def _add(key: str, size):
    def probe(tr: Tracer, args, result) -> None:
        tr.stats[key] += size(result)
    return probe


PROBES = {
    "valuation.ValuationFunction.extends": _semb_extends,
    "trees.level_nodes": _add("level_nodes_out", len),
    "trees.build_valuation_tree": _add("valtree_nodes", lambda t: len(t.nodes)),
    "trees.structural_embedding": _add("semb_nodes", len),
    "envelopes.compute_envelope": _envelope,
    "structures.enumerate_embeddings": _embeddings,
    "reductions.strip_bad": _strip,
    "adversarial.is_tree_like": _add("tree_like_checked", lambda v: v.checked),
}
