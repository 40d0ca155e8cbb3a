"""Grammar types and single-step derivation operations.

The central type is the parallel hyperedge replacement grammar: a
signature, a set of terminal labels, a start label, and a finite family
of indexed rule tables.  A parallel step picks one table and rewrites
every edge of the current graph simultaneously with rules from it, so
each table must be left-total (at least one rule per label).  Sequential
hyperedge replacement grammars and tabled word grammars are carried as
separate types; the transformation module embeds both into the parallel
formalism.

Derivation control is an automaton over table indices: a derivation
counts only if the sequence of applied table indices is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .canonical import canonical_graph, canonical_key
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    Signature,
    extract_string,
    handle,
    replace,
    string_graph,
    validate,
)

Word = tuple[str, ...]

_PRODUCT_GUARD = 10**6


class GrammarError(ValueError):
    """Raised for ill-formed grammars or misapplied derivation steps."""


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: Hypergraph


def is_identity_rule(rule: Rule) -> bool:
    """True when the rule rewrites a label to its own handle."""
    r = rule.rhs
    if len(r.edges) != 1:
        return False
    e = r.edges[0]
    return (
        e.label == rule.lhs
        and r.ext == e.att
        and len(set(e.att)) == len(e.att)
        and set(r.nodes) == set(e.att)
        and len(r.nodes) == len(e.att)
    )


@dataclass(frozen=True)
class Table:
    """A left-total set of rules covering every label in ``scope``.

    Rule sets are normalized up to right-hand-side isomorphism: two rules
    with the same left-hand side and isomorphic right-hand sides count as
    one.  Successor sets are taken modulo isomorphism anyway, so this
    does not change any derived language.
    """

    rules: tuple[Rule, ...]
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        scope = tuple(sorted(set(self.scope)))
        first: dict[tuple[str, bytes], Rule] = {}
        for r in self.rules:
            first.setdefault((r.lhs, canonical_key(r.rhs)), r)
        object.__setattr__(self, "rules", tuple(first[k] for k in sorted(first)))
        object.__setattr__(self, "scope", scope)
        lhs_set = {r.lhs for r in self.rules}
        stray = lhs_set - set(scope)
        if stray:
            raise GrammarError(f"rules for labels outside scope: {sorted(stray)}")
        missing = set(scope) - lhs_set
        if missing:
            raise GrammarError(f"table not left-total, no rules for: {sorted(missing)}")

    @cached_property
    def by_label(self) -> dict[str, tuple[Rule, ...]]:
        out: dict[str, list[Rule]] = {l: [] for l in self.scope}
        for r in self.rules:
            out[r.lhs].append(r)
        return {l: tuple(rs) for l, rs in out.items()}

    @cached_property
    def active_labels(self) -> frozenset[str]:
        """Labels whose rewriting can change the graph."""
        return frozenset(
            l
            for l, rs in self.by_label.items()
            if not (len(rs) == 1 and is_identity_rule(rs[0]))
        )


def identity_table(sig: Signature) -> Table:
    return Table(
        rules=tuple(Rule(l, handle(l, sig)) for l in sig.labels),
        scope=sig.labels,
    )


def override_table(base: Table, overlay: Iterable[Rule]) -> Table:
    """Replace, per left-hand side, the base rules by the overlay's."""
    overlay = tuple(overlay)
    touched = {r.lhs for r in overlay}
    stray = touched - set(base.scope)
    if stray:
        raise GrammarError(f"overlay rules for labels outside scope: {sorted(stray)}")
    kept = tuple(r for r in base.rules if r.lhs not in touched)
    return Table(rules=kept + overlay, scope=base.scope)


def _check_rules(rules: Iterable[Rule], sig: Signature, lhs_domain: set[str]) -> None:
    for r in rules:
        if r.lhs not in lhs_domain:
            raise GrammarError(f"rule for label {r.lhs!r} outside its domain")
        if len(r.rhs.ext) != sig.arity(r.lhs):
            raise GrammarError(
                f"rule for {r.lhs!r}: right-hand side has type {len(r.rhs.ext)}, "
                f"label has arity {sig.arity(r.lhs)}"
            )
        problems = validate(r.rhs, sig)
        if problems:
            raise GrammarError(
                f"rule for {r.lhs!r}: invalid right-hand side: "
                + "; ".join(f"{v.kind}({v.subject}): {v.detail}" for v in problems)
            )


@dataclass(frozen=True)
class PHRGrammar:
    signature: Signature
    terminals: tuple[str, ...]
    start: str
    tables: tuple[tuple[str, Table], ...]
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", tuple(sorted(set(self.terminals))))
        object.__setattr__(
            self, "tables", tuple((str(i), t) for i, t in self.tables)
        )
        sig = self.signature
        for a in self.terminals:
            if a not in sig:
                raise GrammarError(f"terminal {a!r} not in signature")
        if self.start not in sig:
            raise GrammarError(f"start label {self.start!r} not in signature")
        max_arity = max((sig.arity(l) for l in sig.labels), default=0)
        if self.order < max_arity:
            raise GrammarError(
                f"order {self.order} below maximal label arity {max_arity}"
            )
        indices = [i for i, _ in self.tables]
        if len(set(indices)) != len(indices):
            raise GrammarError("duplicate table indices")
        all_labels = set(sig.labels)
        for idx, table in self.tables:
            if set(table.scope) != all_labels:
                raise GrammarError(
                    f"table {idx!r} scope differs from the signature"
                )
            _check_rules(table.rules, sig, all_labels)

    @cached_property
    def repetition_free(self) -> bool:
        return all(
            r.rhs.repetition_free for _, t in self.tables for r in t.rules
        )

    @cached_property
    def node_monotone(self) -> bool:
        """No replacement can shrink the node count."""
        return all(
            len(r.rhs.nodes) >= r.rhs.type for _, t in self.tables for r in t.rules
        )

    @cached_property
    def edge_monotone(self) -> bool:
        """No replacement can shrink the edge count."""
        return all(len(r.rhs.edges) >= 1 for _, t in self.tables for r in t.rules)

    @property
    def table_indices(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.tables)

    def table(self, index: str) -> Table:
        for i, t in self.tables:
            if i == index:
                return t
        raise GrammarError(f"no table with index {index!r}")

    def start_graph(self) -> Hypergraph:
        return canonical_graph(handle(self.start, self.signature))


@dataclass(frozen=True)
class HRGrammar:
    """A sequential hyperedge replacement grammar (one edge per step)."""

    signature: Signature
    nonterminals: tuple[str, ...]
    start: str
    rules: tuple[Rule, ...]
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonterminals", tuple(sorted(set(self.nonterminals))))
        sig = self.signature
        for n in self.nonterminals:
            if n not in sig:
                raise GrammarError(f"nonterminal {n!r} not in signature")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start label {self.start!r} not a nonterminal")
        max_arity = max((sig.arity(l) for l in sig.labels), default=0)
        if self.order < max_arity:
            raise GrammarError(
                f"order {self.order} below maximal label arity {max_arity}"
            )
        _check_rules(self.rules, sig, set(self.nonterminals))

    @property
    def terminals(self) -> tuple[str, ...]:
        return tuple(l for l in self.signature.labels if l not in self.nonterminals)


@dataclass(frozen=True)
class WordTable:
    """A left-total set of word rules (tabled Lindenmayer style)."""

    rules: tuple[tuple[str, Word], ...]
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        scope = tuple(sorted(set(self.scope)))
        rules = tuple(
            sorted(set((str(l), tuple(w)) for l, w in self.rules))
        )
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "scope", scope)
        lhs_set = {l for l, _ in rules}
        stray = lhs_set - set(scope)
        if stray:
            raise GrammarError(f"word rules for symbols outside scope: {sorted(stray)}")
        missing = set(scope) - lhs_set
        if missing:
            raise GrammarError(
                f"word table not left-total, no rules for: {sorted(missing)}"
            )

    @cached_property
    def by_symbol(self) -> dict[str, tuple[Word, ...]]:
        out: dict[str, list[Word]] = {l: [] for l in self.scope}
        for l, w in self.rules:
            out[l].append(w)
        return {l: tuple(ws) for l, ws in out.items()}


@dataclass(frozen=True)
class ET0LGrammar:
    alphabet: tuple[str, ...]
    terminals: tuple[str, ...]
    axiom: str
    tables: tuple[tuple[str, WordTable], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(sorted(set(self.alphabet))))
        object.__setattr__(self, "terminals", tuple(sorted(set(self.terminals))))
        object.__setattr__(
            self, "tables", tuple((str(i), t) for i, t in self.tables)
        )
        symbols = set(self.alphabet)
        if not set(self.terminals) <= symbols:
            raise GrammarError("terminals must be alphabet symbols")
        if self.axiom not in symbols:
            raise GrammarError(f"axiom {self.axiom!r} not in alphabet")
        indices = [i for i, _ in self.tables]
        if len(set(indices)) != len(indices):
            raise GrammarError("duplicate table indices")
        for idx, t in self.tables:
            if set(t.scope) != symbols:
                raise GrammarError(f"table {idx!r} scope differs from the alphabet")
            for l, w in t.rules:
                bad = [a for a in w if a not in symbols]
                if bad:
                    raise GrammarError(
                        f"table {idx!r}, rule for {l!r}: unknown symbols {bad}"
                    )


@dataclass(frozen=True)
class ControlAutomaton:
    """A finite automaton over table indices (may be nondeterministic)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]
    initial: str
    finals: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(sorted(set(self.states))))
        object.__setattr__(self, "alphabet", tuple(sorted(set(self.alphabet))))
        object.__setattr__(self, "transitions", tuple(sorted(set(self.transitions))))
        object.__setattr__(self, "finals", tuple(sorted(set(self.finals))))
        states = set(self.states)
        if self.initial not in states:
            raise GrammarError(f"initial state {self.initial!r} unknown")
        if not set(self.finals) <= states:
            raise GrammarError("final states must be states")
        for q, a, p in self.transitions:
            if q not in states or p not in states:
                raise GrammarError(f"transition ({q!r},{a!r},{p!r}) uses unknown state")
            if a not in set(self.alphabet):
                raise GrammarError(f"transition on unknown symbol {a!r}")

    @cached_property
    def _step_map(self) -> dict[tuple[str, str], frozenset[str]]:
        out: dict[tuple[str, str], set[str]] = {}
        for q, a, p in self.transitions:
            out.setdefault((q, a), set()).add(p)
        return {k: frozenset(v) for k, v in out.items()}

    def accepts(self, word: Sequence[str]) -> bool:
        current = {self.initial}
        for a in word:
            if a not in set(self.alphabet):
                return False
            current = {
                p for q in current for p in self._step_map.get((q, a), frozenset())
            }
            if not current:
                return False
        return bool(current & set(self.finals))

    @cached_property
    def is_deterministic_complete(self) -> bool:
        return all(
            len(self._step_map.get((q, a), frozenset())) == 1
            for q in self.states
            for a in self.alphabet
        )

    def determinize_complete(self) -> "ControlAutomaton":
        """Subset construction; the result is deterministic and complete."""
        if self.is_deterministic_complete:
            return self

        def name(subset: frozenset[str]) -> str:
            return "{" + "+".join(sorted(subset)) + "}"

        start = frozenset({self.initial})
        todo = [start]
        seen = {start}
        transitions: list[tuple[str, str, str]] = []
        while todo:
            cur = todo.pop()
            for a in self.alphabet:
                nxt = frozenset(
                    p for q in cur for p in self._step_map.get((q, a), frozenset())
                )
                transitions.append((name(cur), a, name(nxt)))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        finals = tuple(
            name(s) for s in seen if s & set(self.finals)
        )
        return ControlAutomaton(
            states=tuple(name(s) for s in seen),
            alphabet=self.alphabet,
            transitions=tuple(transitions),
            initial=name(start),
            finals=finals,
        )

    def step(self, state: str, symbol: str) -> str:
        """Deterministic single step; only valid on det-complete automata."""
        targets = self._step_map.get((state, symbol), frozenset())
        if len(targets) != 1:
            raise GrammarError(
                f"automaton not deterministic-complete at ({state!r},{symbol!r})"
            )
        return next(iter(targets))


@dataclass(frozen=True)
class ControlledPHRGrammar:
    grammar: PHRGrammar
    control: ControlAutomaton

    def __post_init__(self) -> None:
        have = set(self.control.alphabet)
        need = set(self.grammar.table_indices)
        if have != need:
            raise GrammarError(
                f"control alphabet {sorted(have)} differs from "
                f"table indices {sorted(need)}"
            )


AnyPHR = PHRGrammar | ControlledPHRGrammar


def split_control(g: AnyPHR) -> tuple[PHRGrammar, Optional[ControlAutomaton]]:
    if isinstance(g, ControlledPHRGrammar):
        return g.grammar, g.control.determinize_complete()
    return g, None


def direct_derivations(
    h: Hypergraph, rules: Iterable[Rule]
) -> tuple[tuple[str, Rule, Hypergraph], ...]:
    """All single-edge rewrites of ``h`` by the given rules.

    Entries are (edge id, rule, canonicalized successor).
    """
    rules = tuple(rules)
    out = []
    for e in h.edges:
        for r in rules:
            if r.lhs != e.label:
                continue
            if r.rhs.type != len(e.att):
                raise GrammarError(
                    f"rule for {r.lhs!r} has type {r.rhs.type}, "
                    f"edge {e.id!r} has arity {len(e.att)}"
                )
            out.append((e.id, r, canonical_graph(replace(h, {e.id: r.rhs}))))
    return tuple(out)


def parallel_budgeted(
    h: Hypergraph,
    table: Table,
    max_nodes: Optional[int] = None,
    max_edges: Optional[int] = None,
) -> tuple[dict[bytes, Hypergraph], bool, bool]:
    """All parallel successors of ``h`` under ``table`` within budgets.

    Returns (successors keyed by canonical key, node bound hit, edge
    bound hit); an edge-less graph is its own sole successor.  The edge
    budget prunes option subtrees via exact result edge counts; the node
    budget uses a per-edge lower bound during the product and the exact
    count at the leaves.  With neither budget nothing prunes, so more
    than ``_PRODUCT_GUARD`` rule choices raise ``GrammarError`` at once.
    """
    options = []
    count = 1
    for e in h.edges:
        rs = table.by_label.get(e.label)
        if rs is None:
            raise GrammarError(f"no rules for label {e.label!r} in table")
        opts = sorted(
            ((len(r.rhs.edges), len(r.rhs.nodes) - r.rhs.type, r) for r in rs),
            key=lambda t: (t[0], t[1]),
        )
        options.append(opts)
        count *= len(opts)
    if max_nodes is None and max_edges is None and count > _PRODUCT_GUARD:
        raise GrammarError("parallel successor set too large")
    m = len(options)
    suffix_edges = [0] * (m + 1)
    suffix_nodes = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_edges[i] = suffix_edges[i + 1] + min(de for de, _, _ in options[i])
        suffix_nodes[i] = suffix_nodes[i + 1] + min(dn for _, dn, _ in options[i])

    found: dict[bytes, Hypergraph] = {}
    hit_nodes = False
    hit_edges = False
    chosen: list[Rule] = []

    def go(i: int, edges_so_far: int, node_bound: int) -> None:
        nonlocal hit_nodes, hit_edges
        if i == m:
            result = replace(h, {e.id: r.rhs for e, r in zip(h.edges, chosen)})
            if max_nodes is not None and len(result.nodes) > max_nodes:
                hit_nodes = True
                return
            found[canonical_key(result)] = canonical_graph(result)
            return
        for de, dn, rule in options[i]:
            if max_edges is not None and edges_so_far + de + suffix_edges[i + 1] > max_edges:
                hit_edges = True
                break  # options sorted by edge increment
            if max_nodes is not None and node_bound + dn + suffix_nodes[i + 1] > max_nodes:
                hit_nodes = True
                continue
            chosen.append(rule)
            go(i + 1, edges_so_far + de, node_bound + dn)
            chosen.pop()

    go(0, 0, len(h.nodes))
    return found, hit_nodes, hit_edges


def parallel_successors(h: Hypergraph, table: Table) -> tuple[Hypergraph, ...]:
    """All parallel successors of ``h`` under ``table``, canonicalized."""
    found, _, _ = parallel_budgeted(h, table)
    return tuple(found[k] for k in sorted(found))


def trace_successors(
    g: AnyPHR, h: Hypergraph, trace: Sequence[str]
) -> tuple[Hypergraph, ...]:
    """All graphs reachable from ``h`` via exactly the given table trace.

    Control automata are not consulted here; use ``ControlAutomaton.accepts``
    to decide whether a trace counts.
    """
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    current = {canonical_key(h): canonical_graph(h)}
    for index in trace:
        table = grammar.table(index)
        nxt: dict[bytes, Hypergraph] = {}
        for key in sorted(current):
            nxt.update(parallel_budgeted(current[key], table)[0])
        current = nxt
    return tuple(current[k] for k in sorted(current))


def et0l_step(table: WordTable, word: Word) -> set[Word]:
    """All parallel rewrites of ``word`` by the word table.

    A parallel step on the word's string graph under the rules' string
    graphs is exactly the tabled word step.
    """
    rules = tuple(Rule(l, string_graph(w)) for l, w in table.rules)
    found, _, _ = parallel_budgeted(string_graph(word), Table(rules, table.scope))
    return {extract_string(s) for s in found.values()}
