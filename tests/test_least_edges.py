"""Least sizes, and the search that never builds a form dead within the
edge budget.

``PHRGrammar.least_edges`` gives each label the least number of edges of
a terminal graph derived from it, over every table's rules with control
ignored; the oracle is ``least_terminal_sizes``.  A form whose least
sizes sum past ``max_edges`` derives no terminal graph within it, and
that sum never falls along a derivation, so the search that drops such
forms keeps exactly the states that fit of the search that does not,
in the same order with the same parents.  That search is the reference
here: ``zeroed(g)`` is a copy of ``g`` whose finite least sizes are all
0, so no form is dropped for its size.
"""

import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrg import (
    Limits,
    Rule,
    Signature,
    Table,
    canonical_graph,
    canonical_key,
    enumerate_language,
    enumerate_strings,
    fixture,
    fixture_names,
    handle,
    member_string,
    string_graph,
)
from phrg.grammar import WordForm, _Rows, split_control
from oracles import all_words, least_terminal_sizes
from test_productive import (
    _grammar,
    count_products,
    fresh,
    graph_grammars,
    productive,
    string_grammars,
)
from test_word_path import _product, _reference, _rhs, graph_path


def zeroed(g):
    """A fresh copy of ``g`` whose finite least sizes are all 0."""
    g = fresh(g)
    grammar, _ = split_control(g)
    least = {l: 0 if size < inf else inf for l, size in grammar.least_edges.items()}
    object.__setattr__(grammar, "least_edges", least)
    return g


def oracle_sizes(g) -> dict:
    grammar, _ = split_control(g)
    rules = [(r.lhs, [e.label for e in r.rhs.edges]) for _, t in grammar.tables for r in t.rules]
    return least_terminal_sizes(rules, grammar.terminals, grammar.signature.labels)


def check_against_zeroed(g, limits: Limits, queries=(), strings: bool = True) -> None:
    """The search against the one that drops no form for its size: the
    same graphs, words and ``yes`` traces where the result budget does
    not bind; otherwise at least the reference's.  ``steps`` may only
    fall, and every flag and verdict may only become more precise."""
    lang, ref = enumerate_language(fresh(g), limits), enumerate_language(zeroed(g), limits)
    assert lang.steps <= ref.steps
    assert ref.exhaustive <= lang.exhaustive
    assert ref.saturated <= lang.saturated
    assert lang.hit_node_bound <= ref.hit_node_bound
    assert lang.hit_edge_bound <= ref.hit_edge_bound
    assert lang.hit_result_budget <= ref.hit_result_budget
    keys, ref_keys = ([canonical_key(h) for h in e.graphs] for e in (lang, ref))
    if ref.hit_result_budget:
        assert set(ref_keys) <= set(keys)
    else:
        assert keys == ref_keys
    if not strings:
        return
    words, ref_words = enumerate_strings(fresh(g), limits), enumerate_strings(zeroed(g), limits)
    assert (words.exhaustive, words.saturated) == (lang.exhaustive, lang.saturated)
    if ref.hit_result_budget:
        assert set(ref_words.words) <= set(words.words)
    else:
        assert words.words == ref_words.words
    for word in sorted(set(queries) | {w for w in words.words if len(w) <= 4}):
        got, want = member_string(fresh(g), word, limits), member_string(zeroed(g), word, limits)
        if want.verdict != "unknown":
            assert (got.verdict, got.trace) == (want.verdict, want.trace), word


# ---------------------------------------------------------- least sizes

def _erasing_terminal_grammar():
    """S -> a X; X -> b b | X; a -> () | a; b -> b.  The terminal a
    erases, so a X has least size 2, not 3."""
    sig = Signature.of({"S": 2, "X": 2, "a": 2, "b": 2})
    rules = (
        Rule("S", string_graph("aX")),
        Rule("X", string_graph("bb")),
        Rule("X", handle("X", 2)),
        Rule("a", string_graph(())),
        Rule("a", handle("a", 2)),
        Rule("b", handle("b", 2)),
    )
    return _grammar(sig, [(1, rules)], ("a", "b"))


def test_a_terminal_relaxes_through_its_rules():
    # Pinning terminals at 1 would size a X at 3 and drop it within two
    # edges, losing bb and claiming an exhaustive search.
    g = _erasing_terminal_grammar()
    assert g.least_edges == {"S": 2, "X": 2, "a": 0, "b": 1} == oracle_sizes(g)
    limits = Limits(max_steps=4, max_edges=2)
    out = enumerate_strings(g, limits)
    assert (out.words, out.exhaustive, out.saturated) == ((("b", "b"),), False, True)
    check_against_zeroed(g, limits, [("b", "b"), ("a", "b", "b")])


def test_a_start_past_the_edge_budget_ends_at_once(monkeypatch):
    # S has least size 2, so no terminal graph fits in one edge.  The
    # start handle's product used to run, drop every successor for its
    # size and set the edge flag on the way.
    g = _erasing_terminal_grammar()
    limits = Limits(max_steps=4, max_edges=1)
    calls = count_products(monkeypatch)
    out = enumerate_strings(g, limits)
    assert (out.words, out.exhaustive, out.saturated) == ((), True, True)
    lang = enumerate_language(g, limits)
    assert (lang.graphs, lang.steps, lang.hit_edge_bound) == ((), 0, False)
    assert member_string(g, "bb", limits).verdict == "no-within-limits"
    assert calls == []
    check_against_zeroed(g, limits, [("b", "b")])


def test_nullary_and_unproductive_labels():
    # x erases, y stays as a terminal of one edge, z never terminates
    sig = Signature.of({"S": 2, "a": 2, "x": 0, "y": 0, "z": 0})
    rules = (
        Rule("S", _rhs(("a",), ("x", "y"))),
        Rule("S", _rhs(("a", "a"), ("z",))),
        Rule("a", handle("a", 2)),
        Rule("x", _rhs(None, ())),
        Rule("y", handle("y", 0)),
        Rule("z", _rhs(None, ("z",))),
    )
    g = _grammar(sig, [(1, rules)], ("a", "y"))
    assert g.least_edges == {"S": 2, "a": 1, "x": 0, "y": 1, "z": inf} == oracle_sizes(g)
    assert productive(g) == {"S", "a", "x", "y"}


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_sizes_match_the_oracle(name):
    g = fixture(name).phr()
    assert split_control(g)[0].least_edges == oracle_sizes(g)


@given(g=st.one_of(string_grammars(), graph_grammars()))
@settings(max_examples=150, deadline=None)
def test_generated_sizes_match_the_oracle(g):
    grammar, _ = split_control(g)
    assert grammar.least_edges == oracle_sizes(g)
    assert productive(grammar) == {l for l, size in oracle_sizes(g).items() if size < inf}


# ------------------------------------------------------------ product

def test_product_drops_choices_dead_within_the_edge_budget():
    """Seeded tables given least sizes from 0 to 3 per label: on word forms
    and their canonical graphs the product gives the reference's
    successors in its order, and both flags; a choice whose sizes sum
    past the size bound is dropped without a flag.  Each budget pair is
    asked with the size bound at the edge budget, as an enumeration sets
    it, and at one drawn below it, as a member query may."""
    rng, sizes = random.Random(23), random.Random(24)
    dropped = dropped_below = 0
    for case in range(300):
        letters = "abc"[: rng.randint(1, 3)]
        nullary = ("x",)[: rng.randint(0, 1)]
        sig = Signature.of({**dict.fromkeys(letters, 2), **dict.fromkeys(nullary, 0)})
        rules = []
        for l in sig.labels:
            for _ in range(rng.choice((1, 2, 3))):
                if rng.random() < 0.2:
                    rules.append(Rule(l, handle(l, sig)))
                elif l in nullary:
                    rules.append(Rule(l, _rhs(None, tuple(rng.sample(nullary, rng.randint(0, 1))))))
                else:
                    body = rng.choices(letters + "".join(nullary), k=rng.randint(0, 3))
                    word = tuple(a for a in body if a in letters)
                    rules.append(Rule(l, _rhs(word, tuple(a for a in body if a in nullary))))
        table = Table(rules=tuple(rules), scope=sig.labels)
        least = {l: rng.randint(0, 3) for l in sig.labels}
        table = _Rows(table.rules, table.rows.code, least)  # as live_tables sizes
        flags = tuple(rng.choices(nullary, k=rng.randint(0, 1))) if nullary else ()
        form = WordForm(tuple(rng.choices(letters, k=rng.randint(0, 5))), flags)
        budgets = [inf, *range(len(form.word) + len(form.flags) + 7)]
        for subject in (form, canonical_graph(form.graph())):
            for _ in range(2):
                max_nodes, max_edges = rng.choice(budgets), rng.choice(budgets)
                below = [b for b in budgets if b < max_edges]
                bounds = [max_edges, *sizes.sample(below, min(len(below), 1))]
                products = [_product(subject, table, max_nodes, max_edges, b) for b in bounds]
                for max_size, (found, *flags) in zip(bounds, products):
                    want = _reference(subject, table, max_nodes, max_edges, max_size, least)
                    assert (list(found.items()), *flags) == (list(want[0].items()), *want[1:]), case
                unsized = _reference(subject, table, max_nodes, max_edges)
                dropped += len(products[0][0]) < len(unsized[0])
                dropped_below += len(products[-1][0]) < len(products[0][0])
    assert dropped  # some choices are dead within the edge budget
    assert dropped_below  # and some more within a lower size bound


# ---------------------------------------- against the search without the drop

@pytest.mark.parametrize("name", fixture_names())
def test_fixture_search_keeps_what_fits(name):
    g = fixture(name).phr()
    terminals = sorted(split_control(g)[0].terminals)
    limits = Limits(max_steps=5, max_nodes=10, max_edges=5, max_results=20_000)
    check_against_zeroed(g, limits, all_words(terminals[:2], 3))


@given(g=string_grammars(), on_graphs=st.booleans(), steps=st.integers(1, 4),
       nodes=st.integers(2, 7), edges=st.integers(1, 5), results=st.sampled_from((30, 20_000)))
@settings(max_examples=100, deadline=None)
def test_generated_string_search_keeps_what_fits(g, on_graphs, steps, nodes, edges, results):
    limits = Limits(max_steps=steps, max_nodes=nodes, max_edges=edges, max_results=results)
    if on_graphs:
        with graph_path():
            check_against_zeroed(g, limits, all_words(("a", "b"), 3))
    else:
        check_against_zeroed(g, limits, all_words(("a", "b"), 3))


@given(g=graph_grammars(), steps=st.integers(1, 3), nodes=st.integers(1, 5),
       edges=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_generated_graph_search_keeps_what_fits(g, steps, nodes, edges):
    limits = Limits(max_steps=steps, max_nodes=nodes, max_edges=edges, max_results=20_000)
    check_against_zeroed(g, limits, strings=False)
