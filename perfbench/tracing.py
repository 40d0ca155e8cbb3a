"""Layer spans for the traced benchmark run, recorded from outside phrg.

A span is opened around every call that crosses a layer boundary: the
benchmark's own calls into phrg (searches, constructions, the text
format, direct key calls) and five names that phrg's modules look up at
call time.  ``from ... import`` binds a name in the importing module, so
the names are replaced where the callers find them, not in the module
that defines them.  ``found[canonical_key(r)] = canonical_graph(r)``
evaluates ``canonical_graph`` first, so a cache miss is charged there;
both count as the one ``canonical`` layer.

A layer's self time is its spans' time minus the part covered by child
spans.  Bookkeeping done by the hooks below is kept out of every self
time and reported as ``trace.hook_s``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import phrg.engine
import phrg.grammar
from phrg.grammar import ControlledPHRGrammar

PATCHES = (
    (phrg.engine, "parallel_budgeted", "grammar.product"),
    (phrg.engine, "canonical_key", "canonical"),
    (phrg.grammar, "replace", "hypergraph.replace"),
    (phrg.grammar, "canonical_key", "canonical"),
    (phrg.grammar, "canonical_graph", "canonical"),
)


class NullTracer:
    """Untraced runs: a plain call."""

    def call(self, layer, fn, *args):
        return fn(*args)


def is_string_graph(h) -> bool:
    """True if ``h`` is a path spelling a word from ext[0] to ext[1]."""
    if len(h.ext) != 2 or len(h.nodes) != len(h.edges) + 1:
        return False
    succ = {}
    for e in h.edges:
        if len(e.att) != 2 or e.att[0] in succ:
            return False
        succ[e.att[0]] = e.att[1]
    v = h.ext[0]
    seen = {v}
    for _ in h.edges:
        v = succ.get(v)
        if v is None or v in seen:
            return False
        seen.add(v)
    return v == h.ext[1]


def unproductive_labels(g) -> frozenset:
    """Labels from which no terminal graph can be derived.

    Least fixpoint of "a label is productive if some rule for it, in some
    table, has only productive labels on its right-hand side", starting
    from the terminals.  It ignores the synchronisation of parallel steps,
    so it may call a label productive that is not, never the reverse.
    """
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    productive = set(grammar.terminals)
    rules = [r for _, t in grammar.tables for r in t.rules]
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.lhs not in productive and all(
                e.label in productive for e in r.rhs.edges
            ):
                productive.add(r.lhs)
                changed = True
    return frozenset(grammar.signature.labels) - productive


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []  # (id, parent id, layer, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.hook_s = 0.0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._classes: dict = {}  # canonical result -> input was a string graph
        self._search = None  # (unproductive labels, expanded forms, successor keys)
        self._before = {
            "engine.search": self._search_in,
            "grammar.product": self._product_in,
            "textfmt.parse": self._parse_in,
        }
        self._after = {
            "canonical": self._canonical_out,
            "engine.search": self._search_out,
            "grammar.product": self._product_out,
            "textfmt.serialize": self._serialize_out,
            "transforms.build": self._build_out,
        }

    def install(self) -> None:
        for module, name, layer in PATCHES:
            setattr(module, name, self._wrap(layer, getattr(module, name)))

    def _wrap(self, layer, fn):
        call = self.call

        def traced(*args):
            return call(layer, fn, *args)

        return traced

    def call(self, layer, fn, *args):
        before = self._before.get(layer)
        if before is not None:
            self._hook(before, args)
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans) + len(self._stack), 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            took = end - start
            self.self_s[layer] += took - frame[1]
            self.calls[layer] += 1
            if parent is not None:
                parent[1] += took
            self.spans.append(
                (frame[0], parent[0] if parent else -1, layer, start, end)
            )
        after = self._after.get(layer)
        if after is not None:
            self._hook(after, args, result)
        return result

    def _hook(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        took = time.perf_counter() - t0
        self.hook_s += took
        if self._stack:
            self._stack[-1][1] += took

    # ------------------------------------------------------------ hooks

    def _canonical_out(self, args, result) -> None:
        string = self._classes.get(result)
        if string is None:
            string = self._classes[result] = is_string_graph(args[0])
        self.counts["string_calls"] += string

    def _search_in(self, args) -> None:
        self._search = (unproductive_labels(args[0]), {}, set())

    def _search_out(self, args, result) -> None:
        _, expanded, forms = self._search
        self.counts["expanded"] += len(expanded)
        self.counts["dead"] += sum(expanded.values())
        self.counts["forms"] += len(forms)
        self.counts["words"] += len(getattr(result, "words", ()))
        self._search = None

    def _product_in(self, args) -> None:
        if self._search is not None:
            unproductive, expanded, _ = self._search
            h = args[0]
            if id(h) not in expanded:
                expanded[id(h)] = not unproductive.isdisjoint(h.labels())

    def _product_out(self, args, result) -> None:
        self.counts["successors"] += len(result[0])
        if self._search is not None:
            self._search[2].update(result[0])

    def _parse_in(self, args) -> None:
        self.counts["bytes"] += len(args[0])

    def _serialize_out(self, args, result) -> None:
        self.counts["bytes"] += len(result)

    def _build_out(self, args, result) -> None:
        grammar = result.grammar if isinstance(result, ControlledPHRGrammar) else result
        self.counts["rules"] += sum(len(t.rules) for _, t in grammar.tables)

    # ----------------------------------------------------------- report

    def layers(self, measured_s: float) -> dict:
        """Counts, ratios and times per layer.

        Self times are given as shares of ``measured_s``, the process's
        set-up plus timed calls: a layer a workload never calls then
        reads 0, a ratio, where a time of exactly 0 s on every run would
        look like a value that was never measured.  Canonical forms are
        on every workload's path and also get their time in seconds.
        """
        calls, counts, self_s = self.calls, self.counts, self.self_s
        keys = calls["canonical"]
        leaves = calls["hypergraph.replace"]
        expanded = counts["expanded"]
        return {
            "canonical.self_s": self_s["canonical"],
            "canonical.self_share": self_s["canonical"] / measured_s,
            "canonical.calls": keys,
            "canonical.distinct_share": len(self._classes) / keys if keys else 0.0,
            "canonical.string_share": counts["string_calls"] / keys if keys else 0.0,
            "hypergraph.replace_self_share": self_s["hypergraph.replace"] / measured_s,
            "hypergraph.replace_calls": leaves,
            "grammar.product_self_share": self_s["grammar.product"] / measured_s,
            "grammar.product_calls": calls["grammar.product"],
            "grammar.dup_leaf_share": (
                1 - counts["successors"] / leaves if leaves else 0.0
            ),
            "engine.self_share": self_s["engine.search"] / measured_s,
            "engine.search_calls": calls["engine.search"],
            "engine.distinct_forms": counts["forms"],
            "engine.dead_share": counts["dead"] / expanded if expanded else 0.0,
            "engine.words_out": counts["words"],
            "transforms.build_self_share": self_s["transforms.build"] / measured_s,
            "transforms.rules_out": counts["rules"],
            "textfmt.parse_self_share": self_s["textfmt.parse"] / measured_s,
            "textfmt.serialize_self_share": self_s["textfmt.serialize"] / measured_s,
            "textfmt.bytes": counts["bytes"],
            "trace.hook_s": self.hook_s,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("id,parent,layer,start_s,end_s,workload\n")
            for sid, parent, layer, start, end in self.spans:
                f.write(f"{sid},{parent},{layer},{start:.7f},{end:.7f},{self.workload}\n")
