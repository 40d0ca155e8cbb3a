"""Productive labels, and the search that never builds a dead form.

A label is productive when some terminal graph derives from it, over
rule structure only: when its ``least_edges`` is finite.  The search
drops every product option whose piece holds an unproductive label, so
it never builds a form that cannot become terminal, nor a pair whose
control state can reach no final state.  The oracle is the unpruned
search: inside ``unpruned()`` every label has least size 0 and every
control state is live, which is the search without the trim.
Graphs, words and ``yes`` verdicts (with traces of one length) must be
equal on both sides; the flags may only become more precise.
"""

import importlib.util
from contextlib import contextmanager, nullcontext
from math import inf
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phrg.engine
from phrg import (
    ControlAutomaton,
    ControlledPHRGrammar,
    Limits,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    canonical_key,
    enumerate_language,
    enumerate_strings,
    fixture,
    fixture_names,
    handle,
    member_string,
    string_graph,
)
from phrg.grammar import CodedForm, WordForm, split_control
from phrg.hypergraph import Hyperedge, Hypergraph
from phrg.transforms import rational_intersect, remove_control
from oracles import all_words, is_dyck, nfa_accepts
from test_golden_constructions import AUTOMATA, CASES
from test_word_path import _rhs, fresh, graph_path


def _tracing():
    """The benchmark's tracer module, which counts dead forms on its own."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def unpruned():
    """Searches inside give every label least size 0, so every label is
    productive, and count every control state as live: nothing is
    trimmed."""
    none = property(lambda self: dict.fromkeys(self.signature.labels, 0))
    live = property(lambda self: frozenset(self.states))
    with mock.patch.object(PHRGrammar, "least_edges", none):
        with mock.patch.object(ControlAutomaton, "live_states", live):
            yield


def productive(g: PHRGrammar) -> set[str]:
    """The labels of finite least size."""
    return {l for l, size in g.least_edges.items() if size < inf}


def on_both(fn, g, *args):
    pruned = fn(fresh(g), *args)
    with unpruned():
        full = fn(fresh(g), *args)
    return pruned, full


def count_products(monkeypatch) -> list:
    calls = []
    inner = phrg.engine.parallel_budgeted

    def counting(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(phrg.engine, "parallel_budgeted", counting)
    return calls


def check_pruning(g, limits: Limits, queries=(), strings: bool = True) -> None:
    lang, full = on_both(enumerate_language, g, limits)
    assert full.exhaustive <= lang.exhaustive
    assert full.saturated <= lang.saturated
    assert lang.hit_node_bound <= full.hit_node_bound
    assert lang.hit_edge_bound <= full.hit_edge_bound
    assert lang.hit_result_budget <= full.hit_result_budget
    assert lang.steps <= full.steps
    keys = [canonical_key(h) for h in lang.graphs]
    if full.hit_result_budget:
        # the cut search spent states on dead forms
        assert {canonical_key(h) for h in full.graphs} <= set(keys)
        return
    assert keys == [canonical_key(h) for h in full.graphs]
    if not strings:
        return
    words, words_full = on_both(enumerate_strings, g, limits)
    assert words.words == words_full.words
    assert (words.exhaustive, words.saturated) == (lang.exhaustive, lang.saturated)
    members = {w for w in words.words if len(w) <= 4}
    for word in sorted(members) + sorted(set(queries) - members):
        got, want = on_both(member_string, g, word, limits)
        assert (got.verdict == "yes") == (want.verdict == "yes"), word
        if got.verdict == "yes":
            assert got.trace == want.trace, word
        if want.verdict == "no-within-limits":
            assert got.verdict == "no-within-limits", word


# ---------------------------------------------------------- productive

def _grammar(sig, tables, terminals, start="S") -> PHRGrammar:
    tables = tuple((str(i), Table(rules=tuple(rs), scope=sig.labels)) for i, rs in tables)
    return PHRGrammar(signature=sig, terminals=terminals, start=start, tables=tables, order=2)


class TestProductive:
    def test_productive_only_through_a_second_table(self):
        sig = Signature.of({"S": 2, "A": 2, "a": 2})
        keep = Rule("a", handle("a", 2))
        to_a = Rule("S", string_graph("A"))
        idle = (to_a, Rule("A", handle("A", 2)), keep)
        grow = (to_a, Rule("A", string_graph("a")), keep)
        assert productive(_grammar(sig, [(1, idle)], ("a",))) == {"a"}
        g = _grammar(sig, [(1, idle), (2, grow)], ("a",))
        assert productive(g) == {"S", "A", "a"}
        assert enumerate_strings(g, Limits(max_steps=3)).words == (("a",),)

    def test_nullary_labels(self):
        # x erases to the empty graph; y only rewrites to itself
        sig = Signature.of({"S": 2, "a": 2, "x": 0, "y": 0})
        rules = (
            Rule("S", _rhs(("a",), ("x",))),
            Rule("S", _rhs(("a", "a"), ("y",))),
            Rule("a", handle("a", 2)),
            Rule("x", Hypergraph((), (), ())),
            Rule("y", handle("y", 0)),
        )
        g = _grammar(sig, [(1, rules)], ("a",))
        assert productive(g) == {"S", "a", "x"}
        assert g.string_shaped
        check_pruning(g, Limits(max_steps=3), [("a",), ("a", "a")])
        assert enumerate_strings(g, Limits(max_steps=3)).words == (("a",),)

    def test_dead_labels_of_remove_control(self):
        for name in ("ctl_none", "ctl_all", "ctl_plus0"):
            g = remove_control(fixture(name).phr())
            dead = {l for l in g.signature.labels if l.startswith("@dead")}
            assert dead, name
            assert not dead & productive(g), name

    def test_agrees_with_the_benchmark_tracer(self):
        tracing = _tracing()
        grammars = [fixture(n).phr() for n in fixture_names()]
        grammars += [build(*args, **kw) for build, args, kw in CASES.values()]
        for g in grammars:
            grammar, _ = split_control(g)
            unproductive = {l for l, size in grammar.least_edges.items() if size == inf}
            assert unproductive == tracing.unproductive_labels(g)


class TestDeadStart:
    def grammar(self) -> PHRGrammar:
        sig = Signature.of({"S": 2, "a": 2})
        rules = (Rule("S", string_graph("Sa")), Rule("a", handle("a", 2)))
        return _grammar(sig, [(1, rules)], ("a",))

    def test_no_search(self, monkeypatch):
        g = self.grammar()
        assert "S" not in productive(g)
        calls = count_products(monkeypatch)
        # the start handle alone is over this node budget
        for limits in (Limits(), Limits(max_nodes=1)):
            lang = enumerate_language(g, limits)
            assert lang.graphs == () and lang.steps == 0
            assert lang.exhaustive and lang.saturated
            words = enumerate_strings(g, limits)
            assert (words.words, words.exhaustive, words.saturated) == ((), True, True)
            assert member_string(g, "a", limits).verdict == "no-within-limits"
        assert calls == []

    def test_empty_intersection_ends_at_once(self, monkeypatch):
        # No annotated start label has a terminating rule: only its identity
        # and its chain rule keep instances.  The unpruned search took over
        # 10 s to come out empty at these limits, with the edge flag set.
        g = rational_intersect(fixture("copy_dyck_K").phr(), AUTOMATA["ends_ab"])
        assert g.start not in productive(g)
        calls = count_products(monkeypatch)
        out = enumerate_strings(g, Limits(max_steps=30, max_nodes=30, max_edges=5))
        assert (out.words, out.exhaustive, out.saturated) == ((), True, True)
        assert calls == []


class TestDeadControl:
    def test_live_states(self):
        control = ControlAutomaton(
            states=("p", "q", "f", "d"),
            alphabet=("1", "2"),
            transitions=(("p", "1", "q"), ("q", "2", "f"), ("f", "1", "d")),
            initial="p",
            finals=("f",),
        )
        assert control.live_states == {"p", "q", "f"}
        complete = control.determinize_complete()
        assert complete.live_states == {"{p}", "{q}", "{f}"} < set(complete.states)

    def test_no_final_state_ends_at_once(self, monkeypatch):
        # ctl_none's automaton has no final state.  Unpruned, this search
        # ran 12,285 products to come out empty with both flags False.
        g = fixture("ctl_none").phr()
        calls = count_products(monkeypatch)
        out = enumerate_strings(g, Limits(max_steps=12, max_edges=12))
        assert (out.words, out.exhaustive, out.saturated) == ((), True, True)
        assert calls == []
        with unpruned():
            full = enumerate_strings(fresh(g), Limits(max_steps=6, max_edges=6))
        assert full.words == () and not full.saturated and calls


def test_blocked_label_has_no_successors(monkeypatch):
    # In table 1 every rule for A leads to D, which never terminates; A
    # is productive through table 2 only.  Unpruned, A's successor D D in
    # table 1 is over the edge budget and sets the edge flag.
    sig = Signature.of({"S": 2, "A": 2, "D": 2, "a": 2})
    common = (
        Rule("S", string_graph("A")),
        Rule("D", string_graph("DD")),
        Rule("a", handle("a", 2)),
    )
    to_dead = common + (Rule("A", string_graph("DD")),)
    to_a = common + (Rule("A", string_graph("a")),)
    g = _grammar(sig, [(1, to_dead), (2, to_a)], ("a",))
    assert productive(g) == {"S", "A", "a"}
    assert [blocked for _, _, blocked in g.live_tables] == [{"A", "D"}, {"D"}]
    limits = Limits(max_steps=4, max_edges=1)
    for path in (nullcontext, graph_path):
        with path():
            lang, full = on_both(enumerate_language, g, limits)
        assert lang.exhaustive and lang.saturated
        assert not (lang.hit_node_bound or lang.hit_edge_bound)
        assert full.hit_edge_bound and not full.exhaustive
        assert [canonical_key(h) for h in lang.graphs] == [canonical_key(string_graph("a"))]
    calls = count_products(monkeypatch)
    enumerate_language(fresh(g), limits)
    assert len(calls) == 3  # S in both tables, A in table 2


def _former_cut(table: Table, g: PHRGrammar, options: dict) -> dict:
    """The reference cut: each row filtered to the options whose rule's
    right-hand side holds productive labels alone, each sized by the sum
    of ``g.least_edges`` over that right-hand side's edges, then stably
    re-sorted by increments, with its least increments and least size; a
    row left empty is gone."""
    out, live = {}, productive(g)
    for l, (opts, *_) in options.items():
        rules = table.rows.graph_options[l][0]  # aligned with opts
        kept = [
            (de, dn, sum(g.least_edges[e.label] for e in r.rhs.edges), piece)
            for (de, dn, _, piece), (*_, r) in zip(opts, rules)
            if r.rhs.labels() <= live
        ]
        if kept:
            kept.sort(key=lambda o: o[:2])
            out[l] = (tuple(kept), kept[0][0], *(min(o[k] for o in kept) for k in (1, 2)))
    return out


def _word_rows(rows) -> dict:
    """``rows.coded_options`` decoded through the rows' own code: keyed by
    label, each coded word or whole form decoded."""
    code = rows.code

    def piece(x):
        if isinstance(x, CodedForm):
            return WordForm(code.decode(x.word), code.decode(x.flags))
        return code.decode(x)

    return {
        code.names[ord(c) - 1]: (tuple((*o[:3], piece(o[3])) for o in opts), *least)
        for c, (opts, *least) in rows.coded_options.items()
    }


def test_live_tables_keep_the_former_cut():
    grammars = [split_control(fixture(n).phr())[0] for n in fixture_names()]
    grammars += [build(*args, **kw) for build, args, kw in CASES.values()]
    cuts = 0
    for g in grammars:
        live = productive(g)
        for (_, table), (_, rows, blocked) in zip(g.tables, g.live_tables):
            assert rows.graph_options == _former_cut(table, g, table.rows.graph_options)
            want, got = _former_cut(table, g, _word_rows(table.rows)), _word_rows(rows)
            assert {l: got[l] for l in want if l in got} == {
                l: row for l, row in want.items() if l in got
            }
            by_label = table.by_label.items()
            assert blocked == {
                l for l, rs in by_label if not any(r.rhs.labels() <= live for r in rs)
            }
            cuts += len(rows.rules) < len(table.rules)
    assert cuts  # some tables lose rules


# ------------------------------------------------- equality with unpruned

@pytest.mark.parametrize("name", fixture_names())
def test_fixture_pruning_is_exact(name):
    g = fixture(name).phr()
    terminals = sorted(split_control(g)[0].terminals)
    limits = Limits(max_steps=4, max_nodes=8, max_edges=4, max_results=20_000)
    check_pruning(g, limits, all_words(terminals[:2], 3))


CLOSURE = sorted(n for n in CASES if n.startswith("closure "))
COPIES = sorted(n for n in CASES if "copy_dyck_K" in n)


@pytest.mark.parametrize("name", CLOSURE + COPIES)
def test_construction_pruning_is_exact(name):
    build, args, kwargs = CASES[name]
    g = build(*args, **kwargs)
    limits = Limits(max_steps=4, max_nodes=8, max_edges=4, max_results=20_000)
    check_pruning(g, limits, all_words(sorted(g.terminals)[:2], 3))


# The benchmark's limits for its closure intersections.
CLOSURE_LIMITS = Limits(max_steps=30, max_nodes=30, max_edges=5, max_results=500_000)


@pytest.mark.parametrize(
    "name, word",
    [
        ("a*b*", "bbb"),
        ("a*b*", "bba"),
        ("aa(a|b)*", "baa"),
        ("aa(a|b)*", "aaa"),
        ("even a", "bba"),
        ("even a", "bbb"),
    ],
)
def test_word_length_bounds_least_size(name, word):
    # an intersection is not edge-monotone, so member keeps the edge budget
    # of 5; these non-members are decided only because no kept form's least
    # size exceeds the word's length
    build, args, kwargs = CASES[f"closure intersect {name}"]
    g, m = build(*args, **kwargs), args[1]
    assert not split_control(g)[0].edge_monotone
    assert not (is_dyck(word) and nfa_accepts(m.transitions, m.initial, m.finals, word))
    got, full = on_both(member_string, g, tuple(word), CLOSURE_LIMITS)
    assert (got.verdict, full.verdict) == ("no-within-limits", "unknown")


# ---------------------------------------------------- generated grammars

# D never terminates: each of its rules keeps a D.  z likewise.
BINARY = ("S", "T", "D", "a", "b")
NULLARY = ("x", "y", "z")
SIG = Signature.of({**dict.fromkeys(BINARY, 2), **dict.fromkeys(NULLARY, 0)})
TERMINALS = ("a", "b", "y")


@st.composite
def controls(draw, g: PHRGrammar):
    if not draw(st.booleans()):
        return g
    indices = g.table_indices
    states = ("p", "q", "r")[: draw(st.integers(1, 3))]
    transitions = draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(indices), st.sampled_from(states)),
            min_size=1,
            max_size=6,
        )
    )
    finals = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
    control = ControlAutomaton(
        states=states,
        alphabet=indices,
        transitions=tuple(transitions),
        initial="p",
        finals=tuple(finals),
    )
    return ControlledPHRGrammar(grammar=g, control=control)


@st.composite
def string_grammars(draw):
    flags = st.sampled_from(((), (), (), ("x",), ("y",), ("z",), ("x", "y")))
    tables = []
    for index in range(draw(st.integers(1, 3))):
        rules = []
        for label in SIG.labels:
            if label in TERMINALS and draw(st.booleans()):
                rules.append(Rule(label, handle(label, SIG)))
            for _ in range(draw(st.integers(1, 2))):
                word = None
                if label not in NULLARY:
                    word = tuple(draw(st.lists(st.sampled_from(BINARY), max_size=3)))
                if label == "D":
                    word += ("D",)
                rule_flags = draw(flags) + (("z",) if label == "z" else ())
                rules.append(Rule(label, _rhs(word, tuple(sorted(rule_flags)))))
        tables.append((index, rules))
    return draw(controls(_grammar(SIG, tables, TERMINALS)))


@given(g=string_grammars(), on_graphs=st.booleans(), steps=st.integers(1, 4),
       nodes=st.integers(2, 7), edges=st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_generated_string_pruning_is_exact(g, on_graphs, steps, nodes, edges):
    limits = Limits(max_steps=steps, max_nodes=nodes, max_edges=edges, max_results=20_000)
    if on_graphs:
        with graph_path():
            check_pruning(g, limits, all_words(("a", "b"), 3))
    else:
        check_pruning(g, limits, all_words(("a", "b"), 3))


# A graph grammar: the start label is unary, so no form is a word.
GRAPH_SIG = Signature.of({"S": 1, "A": 2, "D": 1, "a": 2, "b": 1})
GRAPH_TERMINALS = ("a", "b")


@st.composite
def graph_rhs(draw, label: str):
    arity = GRAPH_SIG.arity(label)
    nodes = tuple(f"n{i}" for i in range(arity + draw(st.integers(0, 1))))
    labels = draw(st.lists(st.sampled_from(GRAPH_SIG.labels), max_size=2))
    if label == "D":
        labels.append("D")
    edges = tuple(
        Hyperedge(f"e{i}", l, tuple(draw(st.lists(
            st.sampled_from(nodes), min_size=GRAPH_SIG.arity(l), max_size=GRAPH_SIG.arity(l)
        ))))
        for i, l in enumerate(labels)
    )
    return Hypergraph(nodes, edges, nodes[:arity])


@st.composite
def graph_grammars(draw):
    tables = []
    for index in range(draw(st.integers(1, 2))):
        rules = []
        for label in GRAPH_SIG.labels:
            if label in GRAPH_TERMINALS and draw(st.booleans()):
                rules.append(Rule(label, handle(label, GRAPH_SIG)))
            for _ in range(draw(st.integers(1, 2))):
                rules.append(Rule(label, draw(graph_rhs(label))))
        tables.append((index, rules))
    return draw(controls(_grammar(GRAPH_SIG, tables, GRAPH_TERMINALS)))


@given(g=graph_grammars(), steps=st.integers(1, 3), nodes=st.integers(1, 5),
       edges=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_generated_graph_pruning_is_exact(g, steps, nodes, edges):
    assert not split_control(g)[0].string_shaped
    limits = Limits(max_steps=steps, max_nodes=nodes, max_edges=edges, max_results=20_000)
    check_pruning(g, limits, strings=False)
