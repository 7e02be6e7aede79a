"""In-memory span tracing around the package's public functions.

The tracer wraps functions from outside: it replaces each target in every
numacap module namespace that binds it, so calls between modules pass
through the wrapper too, and puts the originals back on `uninstall`.
Nothing under the package changes on disk.

Each call becomes a span (id, root, parent, name, start, end); spans of one
top-level call share its root id.  Per-name call counts, total time and
self time (duration minus the time covered by child spans) accumulate for
every call, while only the first MAX_SPANS span records are kept, so a
long run keeps bounded memory.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) per layer; the span name is "<layer>.<attribute>"
TARGETS = (
    ("cli", "main"),
    ("cli", "load_cluster_state"),
    ("cli", "load_flavors"),
    ("capacity", "cluster_capacity"),
    ("capacity", "server_capacity"),
    ("capacity", "component_capacity_vector"),
    ("capacity", "node_capacity"),
    ("formulas", "vmcap"),
    ("formulas", "closed_form_evaluator"),
    ("topology", "as_topology_id"),
    ("topology", "parse_topology"),
    ("topology", "check_capacities"),
    ("topology", "expand_topology"),
    ("topology", "enumerate_embeddings"),
    ("oracle", "oracle_vmcap"),
    ("placement", "place_k2"),
    ("placement", "place_c4_vnuma"),
    ("placement", "place_kn_kk"),
    ("placement", "verify_placement"),
)
LAYERS = ("cli", "capacity", "formulas", "topology", "oracle", "placement")
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        # time in a layer's outermost spans, i.e. not nested in the same layer
        self.layer_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        counts_via = name == "formulas.vmcap"

        def traced(*args, **kwargs):
            depth = len(stack)
            sid = self._next_id
            self._next_id = sid + 1
            if depth:
                parent = stack[-1]
                frame = [0.0, sid, parent[2], layer]
                parent_id, parent_layer = parent[1], parent[3]
            else:
                frame = [0.0, sid, sid, layer]
                parent_id, parent_layer = 0, None
            start = clock()
            try:
                stack.append(frame)
                result = fn(*args, **kwargs)
            finally:
                # truncate rather than pop: a latency-limit signal can land
                # anywhere, and this keeps the stack right whatever it skipped
                del stack[depth:]
                end = clock()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if parent_layer != layer:
                    self.layer_s[layer] += duration
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, frame[2], parent_id, name, start, end))
                else:
                    self.dropped += 1
            if counts_via:
                self.counters["formulas.via." + result.via] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target wherever a numacap module binds it."""
        if self._patches:
            return
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "numacap" or n.startswith("numacap.")]
        for mod_name, attr in TARGETS:
            mod = importlib.import_module(f"numacap.{mod_name}")
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", mod_name, orig)
            for ns in namespaces:
                if getattr(ns, attr, None) is orig:
                    self._patches.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
            "layer_self_s": self.layer_self_s(),
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def merge(self, summary: dict) -> None:
        """Add a summary written by a traced child process."""
        self.calls.update(summary["calls"])
        for field in ("total_s", "self_s", "layer_s"):
            into = getattr(self, field)
            for key, value in summary[field].items():
                into[key] += value
        self.counters.update(summary["counters"])
        self.dropped += summary["spans_dropped"]

    def write(self, path: str, extra: dict) -> None:
        """Write the summary, the kept spans and `extra` as one JSON document."""
        doc = {
            "summary": self.summary(),
            "span_fields": ["id", "root", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
