"""Bounded derivation engine: language enumeration and membership.

Exploration is breadth-first over canonical forms, or word forms (see
below), paired with control states when a control automaton is present,
so each isomorphism class is expanded once.  Dead forms are never
built.  ``PHRGrammar.least_edges`` gives each label the least number of
edges of a terminal graph derived from it (``inf`` if none), and a
form's least size, the sum over its labels, never falls along a
derivation, so no form past a size bound is kept: ``max_edges``, or in
a member query the word's length when lower, on every grammar, as the
word's string graph has that many edges.  That bound is all that limits
a member query's edges; its nodes are capped at the word's length plus
one on a node-monotone grammar.  The search ends at once when
the start label is past the bound, takes each table as rows of its rules
without an ``inf`` label (``PHRGrammar.live_tables``), skips a table in
which some label of the form keeps no rule, and the product drops every
choice past the bound, without a flag.  Under a control automaton a
pair whose state is not in ``ControlAutomaton.live_states`` is dropped
too, and a search whose initial state is not ends at once.  A dropped
pair could never be accepted, so the languages are those of the
unpruned search.  The size drop keeps exactly the states that fit of
the search without it, visited in the same order with the same parents.
Without a control automaton a table that rewrites no label of a form
(an idle table) is skipped: the form, its only successor, is visited.
All searches are bounded; the result records say exactly which budget,
if any, cut the search:

* ``exhaustive`` is True iff no node, edge or result budget pruned a
  live form.  The step horizon does not clear it: the enumeration is
  then complete for every derivation depth up to ``max_steps``.
* ``saturated`` is True iff the frontier emptied before the step horizon,
  i.e. more steps would add nothing within the same bounds.

Both flags, the ``hit_*`` flags and ``no-within-limits`` verdicts are
only ever more precise than those of a search that kept dead forms:
``steps`` may be lower and ``saturated`` true earlier.

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
``parallel_budgeted`` memoizes it per rows object, under the sorted
labels (whose type tells the path), the node count and the budgets.  The
rows of a grammar's tables are compiled once per grammar object
(``PHRGrammar.live_tables``), so a form whose label multiset was
expanded before, in this search or an earlier one on the same grammar
object, reuses the choices and only assembles successors.

Every finished search on a grammar object leaves the answers that member
queries read.  Per bounded budgets (the limits with the node cap, and the
size bound: all that the search reads), the grammar object keeps one
answer table in ``member_answers``: the trace of the first accepted pair
of each key the search accepted, in search order, and, when the search
ended by itself, the verdict of every key it did not accept.  A member
query stores one at its own budgets; an enumeration, which always runs
to its end, stores one with a rest at its limits and size bound
``max_edges``, so member queries after it at the same limits are
lookups.  A table earned at size bound S and node cap N covers a query
at size bound s <= S and node cap n with the same step, edge and result
budgets when n == N, or when n < N on a node-monotone grammar and the
word's graph fits in n nodes (n is then |word|+1).  Least size never
falls along a derivation, nor, on a node-monotone grammar, does the node
count, so every path to a state within the smaller budgets stays within
them: the smaller search visits exactly the states of the larger one
that fit, in the same order, at the same depths, with the same first
parents, and its node, edge and result flags are a subset of the larger
search's.  So a covering table's traces and a ``no-within-limits`` rest
answer the query; an ``unknown`` rest answers only at the same budgets.
Only a search that ended by itself has a rest: one that stopped at its
member at depth d cannot decide a shorter word, which may still be
accepted at a depth of d or more.  A query that a table decides is one
lookup, which builds no search; any other runs the search and replaces
the table at its own budgets.  The table holds no form and no search
state.  A search that raises stores nothing.  The search is
deterministic (frontier and successor keys are sorted, parents never
rewritten), so verdicts and traces are those of a fresh search,
whichever call asked first.  A copy made with ``dataclasses.replace``
starts with no tables, and they die with the object.
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


_GRAPHS = _Graphs()


def _codec(grammar: PHRGrammar):
    """The codec of the grammar's search path: its ``code`` on the word path."""
    return grammar.code if grammar.string_shaped else _GRAPHS


@dataclass
class _Search:
    grammar: PHRGrammar
    control: object
    limits: Limits
    max_size: int  # the bound on a kept form's least size
    visited: dict = field(default_factory=dict)
    parents: dict = field(default_factory=dict)
    hit_nodes: bool = False
    hit_edges: bool = False
    hit_results: bool = False
    steps_taken: int = 0
    saturated: bool = False

    def __post_init__(self) -> None:
        self.codec = _codec(self.grammar)

    def accepted(self) -> Iterator[tuple[tuple, object]]:
        """BFS; yields ``(pair, form)`` for each accepted state in the
        order found.  A caller that stops pulling stops the search."""
        grammar, ctrl, limits = self.grammar, self.control, self.limits
        terminals = frozenset(grammar.terminals)
        q0 = ctrl.initial if ctrl is not None else None
        if grammar.least_edges[grammar.start] > self.max_size or (
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
                for index, rows, blocked in grammar.live_tables:
                    if not labels.isdisjoint(blocked):
                        continue  # every successor holds a label of size inf
                    q2 = ctrl.step(pair[1], index) if ctrl is not None else None
                    if ctrl is not None and q2 not in ctrl.live_states:
                        continue  # no table trace from q2 reaches a final state
                    # idle table: the form is its own sole successor, a
                    # new pair only when the control state moves
                    if labels.isdisjoint(rows.active_labels):
                        if ctrl is None:
                            continue
                        succs = {pair[0]: h}
                    else:
                        succs, hn, he = parallel_budgeted(
                            h, rows, limits.max_nodes, limits.max_edges, self.max_size
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

    def rest(self) -> MemberVerdict:
        """The verdict of every key that a search which ended by itself did
        not accept: ``unknown`` if a budget cut it in a way that could hide
        a key (the result budget, a node cut on a grammar that is not
        node-monotone, an edge cut on one that is not edge-monotone)."""
        g = self.grammar
        cut = (
            self.hit_results
            or (self.hit_nodes and not g.node_monotone)
            or (self.hit_edges and not g.edge_monotone)
        )
        return MemberVerdict("unknown" if cut else "no-within-limits")

    def _accepting(self, labels, state, terminals: frozenset[str]) -> bool:
        if not labels <= terminals:
            return False
        return self.control is None or state in self.control.finals

    def trace(self, pair: tuple) -> tuple[str, ...]:
        """The table indices along the parents from the start to ``pair``."""
        parents, trace = self.parents, []
        step = parents[pair]
        while step is not None:
            pair, index = step
            trace.append(index)
            step = parents[pair]
        trace.reverse()
        return tuple(trace)

    def traced(self, traces: dict) -> Iterator[tuple[tuple, object]]:
        """``accepted``, entering in ``traces`` the trace of each key's first
        accepted pair.  Keys share few traces (a one-table grammar has one
        per depth); one copy of each."""
        shared: dict = {}
        for pair, form in self.accepted():
            if pair[0] not in traces:
                trace = self.trace(pair)
                traces[pair[0]] = shared.setdefault(trace, trace)
            yield pair, form


@dataclass(frozen=True)
class _Answers:
    """What a search earned, for later member queries within its budgets."""

    traces: dict  # each accepted key: the trace of its first accepted pair
    rest: Optional[MemberVerdict]  # every other key's, if the search ended by itself

    def verdict(self, key, exact: bool) -> Optional[MemberVerdict]:
        """The verdict on ``key`` in a search within these budgets, or None
        where the search left it open.  An ``unknown`` rest holds only at
        the same budgets (``exact``): a smaller search may cut nothing."""
        if key in self.traces:
            return MemberVerdict("yes", self.traces[key])
        rest = self.rest
        if rest is None or (not exact and rest.verdict == "unknown"):
            return None
        return rest


def _known(
    answers: dict, limits: Limits, nodes: int, size: int, wider: bool, key
) -> Optional[MemberVerdict]:
    """The verdict on ``key`` of a member search at ``limits`` with node
    cap ``nodes`` and size bound ``size``, from an answer table whose
    budgets cover these, or None if none decides it.  A table's node cap
    may exceed ``nodes`` only where ``wider`` says so."""
    for (known, bound), table in answers.items():
        if (
            size <= bound
            and known.max_edges == limits.max_edges
            and known.max_steps == limits.max_steps
            and known.max_results == limits.max_results
            and (nodes == known.max_nodes or (wider and nodes < known.max_nodes))
        ):
            exact = size == bound and nodes == known.max_nodes
            if (verdict := table.verdict(key, exact)) is not None:
                return verdict
    return None


def _accepted(g: AnyPHR, limits: Limits) -> tuple[_Search, dict]:
    """Run the search to its end; its accepted states, one per key.  It
    leaves its answer table on ``g`` at ``limits`` and size bound
    ``max_edges``, with the trace of each key's first accepted pair."""
    grammar, ctrl = split_control(g)
    search = _Search(grammar=grammar, control=ctrl, limits=limits, max_size=limits.max_edges)
    traces: dict = {}
    found = {pair[0]: form for pair, form in search.traced(traces)}
    g.member_answers[limits, limits.max_edges] = _Answers(traces, search.rest())
    return search, found


def enumerate_language(g: AnyPHR, limits: Limits = Limits()) -> LanguageEnumeration:
    """All derivable terminally labelled graphs within the limits.

    Graphs are canonical representatives, sorted by canonical key, one
    per isomorphism class.  For a controlled grammar a graph counts only
    when some derivation's table trace is accepted by the control
    automaton.  The search leaves its answer table on ``g`` (see the
    module docstring), so that ``member_string`` at the same limits
    looks words up instead of searching again.
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
    modulo the empty word throughout.  Like ``enumerate_language``, it
    leaves the search's answer table on ``g`` for ``member_string``.
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
    word).  On a node-monotone grammar the node budget is lowered to
    |word|+1, which keeps the search small without affecting the verdict.
    Edges are bounded by least size alone, on every grammar: a form whose
    least size exceeds |word| derives no graph of |word| edges and is
    dropped without a flag.  On an edge-monotone grammar a form's least
    size is at least its edge count, so no form past |word| edges is kept.

    Searches on one grammar object share answers (see the module
    docstring): the traces of the keys a search accepted, and the verdict
    of every other key once a search ended by itself.  Member queries and
    enumerations both leave them; an enumeration always runs to its end,
    so after it every query at the same limits is one lookup, except a
    word it did not accept when a budget cut it (an ``unknown`` rest,
    which holds only at identical budgets).  A search answers
    every query whose budgets it covers: the same step, edge and result
    budgets, a size bound (the word's length) no larger, and the same
    node cap or, on a node-monotone grammar where the cap is |word|+1,
    a larger one.  A trace or a ``no-within-limits`` verdict carries over,
    as the smaller search visits the larger one's states that fit with
    the same parents and a subset of its flags; an ``unknown`` one only
    at the same budgets.  Verdicts and traces equal those of a fresh
    search.
    """
    grammar, ctrl = split_control(g)
    letters = tuple(word)
    if not letters or not grammar.letters.issuperset(letters):
        return MemberVerdict("no-within-limits")
    monotone = grammar.node_monotone
    nodes = min(limits.max_nodes, len(letters) + 1) if monotone else limits.max_nodes
    size = min(len(letters), limits.max_edges)
    target = _codec(grammar).key(letters)
    # a larger node cap covers this one if no node count falls and the word fits
    wider = monotone and nodes > len(letters)
    verdict = _known(g.member_answers, limits, nodes, size, wider, target)
    if verdict is not None:
        return verdict
    bounded = dataclasses.replace(limits, max_nodes=nodes)
    search = _Search(grammar=grammar, control=ctrl, limits=bounded, max_size=size)
    traces, rest = {}, None
    for pair, _ in search.traced(traces):
        if pair[0] == target:
            break
    else:
        rest = search.rest()
    known = g.member_answers[bounded, size] = _Answers(traces, rest)
    return known.verdict(target, exact=True)
