"""Tables are plain rule sets; the product reads them compiled as rows.

A ``Table`` compiles its own rows (``Table.rows``), coded over its labels
with every least size 0.  A grammar compiles its own rows of each table,
once per grammar object (``PHRGrammar.live_tables``), coded by the
grammar's ``code`` and sized by its ``least_edges``.  So a table shared by
two grammars keeps no state of either.
"""

import gc
import weakref
from math import inf
from types import FunctionType

import pytest

from phrg import (
    Limits,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    canonical_key,
    enumerate_language,
    handle,
    member_string,
    string_graph,
)
from phrg.grammar import WordForm, _Rows, parallel_budgeted, split_control
from phrg.hypergraph import Hypergraph
from oracles import all_words
from test_member_answers import GRAMMARS, grammar
from test_word_path import fresh

TABLE_FIELDS = {"rules", "scope", "by_label", "rows"}


def _shared():
    """One table in two grammars whose terminals differ, so that their
    least sizes differ: A is terminal in the second alone."""
    sig = Signature.of({"S": 2, "A": 2, "a": 2, "b": 2})
    rules = (
        Rule("S", string_graph("A")),
        Rule("A", string_graph("ab")),
        Rule("A", string_graph("AA")),
        Rule("a", handle("a", sig)),
        Rule("b", handle("b", sig)),
    )
    table = Table(rules=rules, scope=sig.labels)
    grammars = [
        PHRGrammar(signature=sig, terminals=t, start="S", tables=(("1", table),), order=2)
        for t in (("a", "b"), ("A", "a", "b"))
    ]
    return table, grammars


def test_a_shared_table_keeps_no_grammar_state():
    table, (g1, g2) = _shared()
    assert (g1.least_edges["S"], g2.least_edges["S"]) == (2, 1)
    limits = Limits(max_steps=4, max_edges=4)
    for g in (g1, g2):
        assert enumerate_language(g, limits).graphs
        assert member_string(g, "ab", limits).verdict == "yes"
    [(_, rows1, _)], [(_, rows2, _)] = g1.live_tables, g2.live_tables
    assert rows1 is not rows2 and table.rows not in (rows1, rows2)
    assert rows1.code is g1.code and rows2.code is g2.code and g1.code is not g2.code
    # the option S -> A, sized by each grammar's least size of A
    assert [rows.graph_options["S"][3] for rows in (rows1, rows2, table.rows)] == [2, 1, 0]
    assert set(vars(table)) == TABLE_FIELDS
    # the table alone still sizes every option 0: a size bound of 0 drops
    # none of its choices, where each grammar's rows drop them all
    start = string_graph("S")
    found, *flags = parallel_budgeted(start, table, inf, inf, 0)
    assert (set(found), flags) == ({canonical_key(string_graph("A"))}, [False, False])
    for rows in (rows1, rows2):
        assert parallel_budgeted(start, rows, inf, inf, 0) == ({}, False, False)
    code = table.rows.code
    found, *_ = parallel_budgeted(code.coded(WordForm(("S",), ())), table, inf, inf, 0)
    assert [code.decoded(k).word for k in found] == [("A",)]


def test_rows_go_with_their_grammar():
    _, (g, _) = _shared()
    enumerate_language(g, Limits(max_steps=4, max_edges=4))
    [(_, rows, _)] = g.live_tables
    assert rows.choices.cache_info().currsize  # the memo holds choice searches
    ref = weakref.ref(rows)
    del g, rows
    assert ref() is None  # the memo keeps no cycle through its rows


def _tables(root) -> list:
    """Every table reachable from ``root``, without looking inside rules,
    graphs, strings or functions (whose globals reach every module)."""
    seen, stack, out = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, Rule, Hypergraph, str, bytes, FunctionType)):
            continue
        seen.add(id(x))
        if isinstance(x, Table):
            out.append(x)
        stack.extend(gc.get_referents(x))
    return out


@pytest.mark.parametrize("name", GRAMMARS)
def test_tables_hold_their_rules_alone(name):
    g = fresh(grammar(name))
    plain, _ = split_control(g)
    limits = Limits(max_steps=4, max_nodes=8, max_edges=4, max_results=2_000)
    enumerate_language(g, limits)
    for w in all_words(sorted(plain.terminals)[:2], 2):
        member_string(g, w, limits)
    tables = _tables(g)
    assert tables
    for t in tables:
        assert set(vars(t)) <= TABLE_FIELDS, sorted(vars(t))
    for (_, t), (_, rows, _) in zip(plain.tables, plain.live_tables):
        assert isinstance(rows, _Rows) and rows.code is plain.code
        assert set(rows.rules) <= set(t.rules)
