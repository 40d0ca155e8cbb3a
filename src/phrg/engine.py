"""Bounded derivation engine: language enumeration and membership.

Exploration is breadth-first over canonical forms, or word forms (see
below), paired with control states when a control automaton is present,
so each isomorphism class is expanded once.  Dead forms are never
built: the search takes each table as a plain ``Table`` cut to its
live rules (``PHRGrammar.live_tables``), those whose right-hand sides
hold ``PHRGrammar.productive`` labels alone, skips a table in which some
label of the form keeps no rule, and ends at once when the start label is
unproductive.  Likewise a pair whose control state is not in
``ControlAutomaton.live_states`` is dropped, and a search whose initial
state is not ends at once.  Such a pair could never be accepted, so the
languages are those of the unpruned search.  All searches are
bounded; the result records say exactly which budget, if any, cut the
search:

* ``exhaustive`` is True iff no node, edge or result budget pruned a
  live form.  The step horizon does not clear it: the enumeration is
  then complete for every derivation depth up to ``max_steps``.
* ``saturated`` is True iff the frontier emptied before the step horizon,
  i.e. more steps would add nothing within the same bounds.

Both flags, the ``hit_*`` flags and ``no-within-limits`` verdicts are
only ever more precise than those of a search that kept dead forms.

For grammars whose rules never shrink the graph (``node_monotone`` /
``edge_monotone``) a saturated run with an edge or node bound is a
completeness proof for all graphs within that bound, pruned or not.

A ``string_shaped`` grammar is searched over words: every form it
derives is a string graph plus nullary edges, a ``WordForm`` (the word
and its sorted nullary labels), and no form is replaced or
canonicalized.  The path is chosen once per search, as a codec that
gives the start, the key of a word and the state of a successor's key,
and decodes its own results: the grammar's ``code`` on the word path,
``_Graphs`` on the graph path.  On the word path a label is one
character and a form's key one ``str``: the coded word, NUL, the coded
nullary labels.  Keys sort as the forms' label tuples do, so forms are
visited in the same order as without the code.  Only new keys become
``CodedForm``s, the coded pairs that a product takes.  Results, flags
and verdicts are those of the search over graphs, as
``parallel_budgeted`` takes the edges of a word form and of a graph in
the same order, sorted by label; a member trace is some shortest
witness, which may differ from the one the graph search would pick when
several tie.

Forms with the same labels share the choice search of their products:
``parallel_budgeted`` memoizes it per table object, under the path, the
sorted labels, the node count and the budgets.  A form whose label
multiset was expanded before, in this search or an earlier one on the
same grammar object, reuses the choices and only assembles successors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .canonical import canonical_key
from .grammar import (
    AnyPHR,
    PHRGrammar,
    Word,
    parallel_budgeted,
    split_control,
)
from .hypergraph import Hypergraph, extract_string, string_graph


@dataclass(frozen=True)
class Limits:
    """The budgets of a search; each must be at least 0."""

    max_steps: int = 8
    max_nodes: int = 200
    max_edges: int = 200
    max_results: int = 200_000

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be at least 0, not {value}")


@dataclass(frozen=True)
class LanguageEnumeration:
    graphs: tuple[Hypergraph, ...]
    exhaustive: bool
    saturated: bool
    steps: int
    hit_node_bound: bool
    hit_edge_bound: bool
    hit_result_budget: bool


@dataclass(frozen=True)
class StringEnumeration:
    words: tuple[Word, ...]
    exhaustive: bool
    saturated: bool


@dataclass(frozen=True)
class MemberVerdict:
    verdict: str  # "yes" | "no-within-limits" | "unknown"
    trace: Optional[tuple[str, ...]] = None


class _Graphs:
    """The graph path's codec: canonical graphs, keyed by canonical key."""

    def start(self, grammar: PHRGrammar) -> tuple[bytes, Hypergraph]:
        start = grammar.start_graph()
        return canonical_key(start), start

    def key(self, word: Word) -> bytes:
        return canonical_key(string_graph(word))

    def state(self, key: bytes, succs: dict) -> Hypergraph:
        return succs[key]

    def graphs(self, found: dict) -> dict:
        return found

    def words(self, found: dict, empty: frozenset[str]) -> Iterator[Optional[Word]]:
        return (extract_string(h, empty) for h in found.values())


@dataclass
class _Search:
    grammar: PHRGrammar
    control: object
    limits: Limits
    visited: dict = field(default_factory=dict)
    parents: dict = field(default_factory=dict)
    hit_nodes: bool = False
    hit_edges: bool = False
    hit_results: bool = False
    steps_taken: int = 0
    saturated: bool = False

    def __post_init__(self) -> None:
        self.codec = self.grammar.code if self.grammar.string_shaped else _Graphs()

    def accepted(self) -> Iterator[tuple[tuple, object]]:
        """BFS; yields ``(pair, form)`` for each accepted state in the
        order found.  A caller that stops pulling stops the search."""
        grammar, ctrl, limits = self.grammar, self.control, self.limits
        terminals = frozenset(grammar.terminals)
        q0 = ctrl.initial if ctrl is not None else None
        if grammar.start not in grammar.productive or (
            ctrl is not None and q0 not in ctrl.live_states
        ):
            self.saturated = True  # no derivation can end in an accepted graph
            return
        # the start handle: one edge on as many nodes as its label's arity
        self.hit_nodes = grammar.signature.arity(grammar.start) > limits.max_nodes
        self.hit_edges = 1 > limits.max_edges
        if self.hit_nodes or self.hit_edges:
            self.saturated = True
            return
        state = self.codec.state
        key, start = self.codec.start(grammar)
        start_pair = (key, q0)
        visited, parents = self.visited, self.parents
        visited[start_pair] = start
        parents[start_pair] = None
        labels = start.labels()
        label_sets = {labels: labels}  # forms share few label sets; one copy of each
        if self._accepting(labels, q0, terminals):
            yield start_pair, start
        frontier = [(start_pair, labels)]  # each reached pair with its form's labels
        while frontier and self.steps_taken < limits.max_steps:
            self.steps_taken += 1
            next_frontier = []
            for pair, labels in sorted(frontier, key=itemgetter(0)):
                h = visited[pair]
                for index, table, blocked in grammar.live_tables:
                    if not labels.isdisjoint(blocked):
                        continue  # every successor holds an unproductive label
                    q2 = ctrl.step(pair[1], index) if ctrl is not None else None
                    if ctrl is not None and q2 not in ctrl.live_states:
                        continue  # no table trace from q2 reaches a final state
                    # idle table: the form is its own sole successor
                    if labels.isdisjoint(table.active_labels):
                        succs = {pair[0]: h}
                    else:
                        succs, hn, he = parallel_budgeted(
                            h, table, limits.max_nodes, limits.max_edges
                        )
                        self.hit_nodes = self.hit_nodes or hn
                        self.hit_edges = self.hit_edges or he
                    for key in sorted(succs):
                        new_pair = (key, q2)
                        if new_pair in visited:
                            continue
                        if len(visited) >= limits.max_results:
                            self.hit_results = True
                            return
                        graph = state(key, succs)
                        visited[new_pair] = graph
                        parents[new_pair] = (pair, index)
                        reached = graph.labels()
                        reached = label_sets.setdefault(reached, reached)
                        if self._accepting(reached, q2, terminals):
                            yield new_pair, graph
                        next_frontier.append((new_pair, reached))
            frontier = next_frontier
        self.saturated = not frontier and not self.hit_results

    @property
    def exhaustive(self) -> bool:
        return not (self.hit_nodes or self.hit_edges or self.hit_results)

    def _accepting(self, labels, state, terminals: frozenset[str]) -> bool:
        if not labels <= terminals:
            return False
        return self.control is None or state in self.control.finals


def _accepted(g: AnyPHR, limits: Limits) -> tuple[_Search, dict]:
    """Run the search; its accepted states, one per key."""
    grammar, ctrl = split_control(g)
    search = _Search(grammar=grammar, control=ctrl, limits=limits)
    return search, {pair[0]: form for pair, form in search.accepted()}


def enumerate_language(g: AnyPHR, limits: Limits = Limits()) -> LanguageEnumeration:
    """All derivable terminally labelled graphs within the limits.

    Graphs are canonical representatives, sorted by canonical key, one
    per isomorphism class.  For a controlled grammar a graph counts only
    when some derivation's table trace is accepted by the control
    automaton.
    """
    search, results = _accepted(g, limits)
    results = search.codec.graphs(results)
    return LanguageEnumeration(
        graphs=tuple(results[k] for k in sorted(results)),
        exhaustive=search.exhaustive,
        saturated=search.saturated,
        steps=search.steps_taken,
        hit_node_bound=search.hit_nodes,
        hit_edge_bound=search.hit_edges,
        hit_result_budget=search.hit_results,
    )


def enumerate_strings(
    g: AnyPHR,
    limits: Limits = Limits(),
    empty_labels: frozenset[str] | set[str] = frozenset(),
) -> StringEnumeration:
    """All nonempty words whose string graphs the grammar derives.

    The empty word is never included: string languages are compared
    modulo the empty word throughout.
    """
    search, results = _accepted(g, limits)
    words = {w for w in search.codec.words(results, frozenset(empty_labels)) if w}
    return StringEnumeration(
        words=tuple(sorted(words, key=lambda w: (len(w), w))),
        exhaustive=search.exhaustive,
        saturated=search.saturated,
    )


def member_string(
    g: AnyPHR, word: Sequence[str] | str, limits: Limits = Limits()
) -> MemberVerdict:
    """Decide within limits whether the grammar derives the word's graph.

    Verdicts: ``yes`` (with a witnessing table trace), ``no-within-limits``
    (exhausted everything inside the limits without finding it), or
    ``unknown`` (a budget cut the search in a way that could hide the
    word).  For grammars that never shrink node or edge counts the node
    budget is lowered to |word|+1 and the edge budget to |word|, which
    keeps the search small without affecting the verdict.
    """
    grammar, ctrl = split_control(g)
    letters = tuple(word)
    if not letters:
        return MemberVerdict("no-within-limits")
    terminals = set(grammar.terminals)
    for a in letters:
        if a not in terminals or grammar.signature.arity(a) != 2:
            return MemberVerdict("no-within-limits")
    cap_nodes = len(letters) + 1 if grammar.node_monotone else limits.max_nodes
    cap_edges = len(letters) if grammar.edge_monotone else limits.max_edges
    bounded = dataclasses.replace(
        limits,
        max_nodes=min(limits.max_nodes, cap_nodes),
        max_edges=min(limits.max_edges, cap_edges),
    )
    search = _Search(grammar=grammar, control=ctrl, limits=bounded)
    target = search.codec.key(letters)
    pair = next((p for p, _ in search.accepted() if p[0] == target), None)
    if pair is not None:
        trace = []
        while search.parents[pair] is not None:
            pair, index = search.parents[pair]
            trace.append(index)
        return MemberVerdict("yes", tuple(reversed(trace)))
    if search.hit_results:
        return MemberVerdict("unknown")
    if search.hit_nodes and not grammar.node_monotone:
        return MemberVerdict("unknown")
    if search.hit_edges and not grammar.edge_monotone:
        return MemberVerdict("unknown")
    return MemberVerdict("no-within-limits")
