"""The word path of the search against the graph path.

A string-shaped grammar is searched over word forms, without graphs.
The graph path is the oracle: ``graph_path()`` turns the shape test off
for the searches inside it, so the same public calls run over canonical
graphs.  Enumerations must agree field for field, member verdicts must
agree, and member traces must be shortest witnesses on both paths.
"""

import dataclasses
import random
from contextlib import contextmanager
from math import inf
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrg import (
    ControlAutomaton,
    ControlledPHRGrammar,
    Limits,
    PHRGrammar,
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
from phrg.grammar import (
    GrammarError,
    WordForm,
    WordTable,
    _Rows,
    parallel_budgeted,
    split_control,
    word_form,
)
from phrg.hypergraph import Hyperedge, Hypergraph, replace
from oracles import all_words, budgeted_product
from test_golden_constructions import CASES

GRAPH_ONLY = ("fig5_squares", "copy_dyck_K")
STRING_SHAPED = tuple(n for n in fixture_names() if n not in GRAPH_ONLY)


@contextmanager
def graph_path():
    """Searches inside take the graph path, whatever the grammar's shape."""
    with mock.patch.object(PHRGrammar, "string_shaped", property(lambda self: False)):
        yield


def fresh(g):
    """A copy of ``g`` with nothing cached, so that each side of a
    comparison computes its own live tables and member answers."""
    if isinstance(g, ControlledPHRGrammar):
        return dataclasses.replace(g, grammar=dataclasses.replace(g.grammar))
    return dataclasses.replace(g)


def on_both_paths(fn, g, *args):
    """``fn`` on the word path, then on the graph path on a copy of ``g``,
    which shares no member answers with the first."""
    word = fn(g, *args)
    with graph_path():
        graph = fn(fresh(g), *args)
    return word, graph


def witnesses(g, word, trace, limits: Limits) -> bool:
    """The trace derives the word's string graph from the start handle and
    is accepted by the control automaton, if there is one.

    The trace is replayed over graphs within the limits as ``member_string``
    searched within them, with at most |word|+1 nodes on a node-monotone
    grammar: ``trace_successors`` has no budget, and one step of the
    word-problem grammars outside them has millions of rule choices.
    """
    if isinstance(g, ControlledPHRGrammar) and not g.control.accepts(trace):
        return False
    grammar, _ = split_control(g)
    start = grammar.start_graph()
    reached = {canonical_key(start): start}
    max_nodes = min(limits.max_nodes, len(word) + 1) if grammar.node_monotone else limits.max_nodes
    budgets = max_nodes, limits.max_edges, limits.max_edges  # least size within edges
    for index in trace:
        table = grammar.table(index)
        step: dict = {}
        for h in reached.values():
            step.update(parallel_budgeted(h, table, *budgets)[0])
        reached = step
    return canonical_key(string_graph(word)) in reached


def check_equivalent(g, limits: Limits, queries=()) -> None:
    assert split_control(g)[0].string_shaped
    lang, lang_graph = on_both_paths(enumerate_language, g, limits)
    words, words_graph = on_both_paths(enumerate_strings, g, limits)
    if lang.hit_result_budget or lang_graph.hit_result_budget:
        # which states a cut search keeps depends on the order of its keys
        for name in ("exhaustive", "saturated", "hit_result_budget", "steps"):
            assert getattr(lang, name) == getattr(lang_graph, name)
        return
    assert lang == lang_graph
    assert words == words_graph
    members = {w for w in words.words if len(w) <= 4}
    for word in sorted(members) + sorted(set(queries) - members):
        got, want = on_both_paths(member_string, g, word, limits)
        assert got.verdict == want.verdict, word
        if got.verdict == "yes":
            assert len(got.trace) == len(want.trace)
            assert witnesses(g, word, got.trace, limits)


class TestShape:
    def test_fixture_shapes(self):
        for name in fixture_names():
            grammar, _ = split_control(fixture(name).phr())
            assert grammar.string_shaped == (name in STRING_SHAPED), name

    def test_unreachable_labels_do_not_count(self):
        sig = Signature.of({"S": 2, "a": 2, "Z": 3})
        t = Table(
            rules=(
                Rule("S", string_graph("aa")),
                Rule("a", string_graph("a")),
                Rule("Z", Hypergraph(("u", "v", "w"), (), ("u", "v", "w"))),
            ),
            scope=sig.labels,
        )
        g = PHRGrammar(signature=sig, terminals=("a",), start="S", tables=(("1", t),), order=3)
        assert g.string_shaped
        assert g.reachable == {"S", "a"}

    def test_isolated_node_breaks_the_shape(self):
        sig = Signature.of({"S": 2, "a": 2})
        h = string_graph("a")
        stray = Hypergraph(h.nodes + ("z",), h.edges, h.ext)
        t = Table(rules=(Rule("S", stray), Rule("a", string_graph("a"))), scope=sig.labels)
        g = PHRGrammar(signature=sig, terminals=("a",), start="S", tables=(("1", t),), order=2)
        assert not g.string_shaped


@pytest.mark.parametrize("name", STRING_SHAPED)
def test_fixture_paths_agree(name):
    g = fixture(name).phr()
    terminals = sorted(split_control(g)[0].terminals)
    limits = Limits(max_steps=5, max_nodes=10, max_edges=4, max_results=20_000)
    check_equivalent(g, limits, all_words(terminals[:3], 2))


GOLDEN_SHAPED = sorted(n for n in CASES if "copy_dyck_K" not in n)


@pytest.mark.parametrize("name", GOLDEN_SHAPED)
def test_golden_construction_paths_agree(name):
    build, args, kwargs = CASES[name]
    g = build(*args, **kwargs)
    limits = Limits(max_steps=4, max_nodes=8, max_edges=4, max_results=20_000)
    check_equivalent(g, limits, all_words(sorted(g.terminals)[:2], 2))


def test_copy_constructions_keep_the_graph_path():
    for name in set(CASES) - set(GOLDEN_SHAPED):
        build, args, kwargs = CASES[name]
        assert not build(*args, **kwargs).string_shaped, name


def test_result_budget_cut_flags_agree():
    g = fixture("dyck_phr").phr()
    limits = Limits(max_steps=8, max_edges=6, max_results=3)
    lang, lang_graph = on_both_paths(enumerate_language, g, limits)
    assert lang.hit_result_budget and lang_graph.hit_result_budget
    check_equivalent(g, limits)
    verdicts = on_both_paths(member_string, g, "aabb", limits)
    assert [v.verdict for v in verdicts] == ["unknown", "unknown"]


# ---------------------------------------------------- generated grammars

BINARY = ("S", "T", "a", "b")
NULLARY = ("x", "y")
SIG = Signature.of({**dict.fromkeys(BINARY, 2), **dict.fromkeys(NULLARY, 0)})
TERMINALS = ("a", "b", "y")


def _rhs(word, flags) -> Hypergraph:
    """A string graph plus nullary edges, or nullary edges alone."""
    nullary = tuple(Hyperedge(f"f{i}", l, ()) for i, l in enumerate(flags))
    if word is None:
        return Hypergraph((), nullary, ())
    h = string_graph(word)
    return Hypergraph(h.nodes, h.edges + nullary, h.ext)


def _product(subject, table, *budgets):
    """``parallel_budgeted`` on a graph, or on a word form coded by the
    code of the rows it reads (a ``Table``'s own, or ``_Rows`` built
    directly), as the search codes its forms, with the successors decoded
    and keyed by themselves."""
    if not isinstance(subject, WordForm):
        return parallel_budgeted(subject, table, *budgets)
    code = (table.rows if isinstance(table, Table) else table).code
    found, *flags = parallel_budgeted(code.coded(subject), table, *budgets)
    return ({f: f for f in map(code.decoded, found)}, *flags)


def test_product_flags_follow_the_canonical_edge_order():
    # Flags of one product depend on the order of its edges: taking this
    # word's letters in word order, not sorted by label, sets the edge flag.
    sig = Signature.of({"S": 2, "a": 2, "x": 0})
    rules = (
        Rule("S", _rhs(("S", "a"), ("x",))),
        Rule("a", string_graph("S")),
        Rule("a", string_graph("aa")),
        Rule("x", handle("x", sig)),
    )
    table = Table(rules=rules, scope=sig.labels)
    form = WordForm(("a", "S"), ())
    on_words = _product(form, table, 1, 4)
    on_graphs = parallel_budgeted(canonical_graph(form.graph()), table, 1, 4)
    assert on_words[1:] == on_graphs[1:] == (True, False)


def _both_products(form: WordForm, table: Table, max_nodes, max_edges):
    """The product on the word form and on its canonical graph, with the
    word form's successors keyed as graphs."""
    found, *flags = _product(form, table, max_nodes, max_edges)
    on_words = ({canonical_key(f.graph()) for f in found}, *flags)
    found, *flags = parallel_budgeted(canonical_graph(form.graph()), table, max_nodes, max_edges)
    return on_words, (set(found), *flags)


def test_product_flags_past_ten_edges():
    # A canonical graph names its edges e0, e1, ...; by id, e10 and e11
    # come before e2, which is not label order once there are 11 edges.
    sig = Signature.of(dict.fromkeys("abcdefghijklm", 2))
    words = {  # label -> its right-hand sides; an empty word erases
        "a": "i", "b": "am|iaf", "c": "ad", "d": "|dhi", "e": "bf|clj", "f": "a",
        "g": "b", "h": "jm", "i": "gea", "j": "f|ihk", "k": "|glb", "l": "f|gaf",
        "m": "",
    }
    rules = (Rule(l, string_graph(w)) for l, ws in words.items() for w in ws.split("|"))
    table = Table(rules=tuple(rules), scope=sig.labels)
    on_words, on_graphs = _both_products(WordForm(tuple("ddkalkgelilg"), ()), table, 25, 26)
    assert len(on_words[0]) == 163
    assert on_words == on_graphs
    assert on_words[1:] == (True, False)


def test_long_form_products_agree():
    """Seeded sweep of 11-14-letter forms, half with nullary edges, under
    budgets near the form's size: the word path and the graph path give
    the same successors and flags.  Cases 33 and 142 disagree when the
    graph path takes its edges by id."""
    rng = random.Random(3)
    letters, nullary = "abcdefgh", ("x", "y")
    sig = Signature.of({**dict.fromkeys(letters, 2), **dict.fromkeys(nullary, 0)})
    for case in range(150):
        with_flags = case % 2 == 1
        rules = []
        for label in letters + "xy":
            for _ in range(rng.choice((1, 1, 2))):
                flags = tuple(rng.sample(nullary, rng.randint(0, 1))) if with_flags else ()
                word = None if label in nullary else rng.choices(letters, k=rng.randint(0, 3))
                rules.append(Rule(label, _rhs(word, flags)))
        table = Table(rules=tuple(rules), scope=sig.labels)
        word = tuple(rng.choices(letters, k=rng.randint(11, 14)))
        flags = tuple(sorted(rng.choices(nullary, k=rng.randint(0, 2)))) if with_flags else ()
        n = len(word)
        max_nodes, max_edges = rng.randint(n, n + 10), rng.randint(n, n + 10)
        on_words, on_graphs = _both_products(WordForm(word, flags), table, max_nodes, max_edges)
        assert on_words == on_graphs, (case, word, flags)


def test_single_option_first_position_is_checked_up_front():
    # a (one option) comes first; its check against the least totals
    # fails on nodes before b's options are tried, so no edge flag
    sig = Signature.of(dict.fromkeys("abxy", 2))
    rules = (
        Rule("a", string_graph("xxx")),
        Rule("b", string_graph("y")),
        Rule("b", string_graph("yyyy")),
        Rule("x", handle("x", sig)),
        Rule("y", handle("y", sig)),
    )
    table = Table(rules=rules, scope=sig.labels)
    form = WordForm(("a", "b"), ())
    assert _product(form, table, 4, 5) == ({}, True, False)
    assert parallel_budgeted(canonical_graph(form.graph()), table, 4, 5) == ({}, True, False)


def test_edgeless_form_over_no_node_budget():
    table = Table(rules=(Rule("a", string_graph("a")),), scope=("a",))
    form = WordForm((), ())
    assert _product(form, table, 0, inf) == ({}, True, False)
    assert parallel_budgeted(canonical_graph(form.graph()), table, 0, 0) == ({}, True, False)
    assert _product(form, table, 1, 0) == ({form: form}, False, False)


def test_graph_leaf_checks_the_replaced_nodes():
    # X erases and merges its two nodes, so the option's node increment is
    # -1; on a loop, or on two parallel edges, the merge is smaller than
    # that count, and only the replaced graph shows the true node count
    table = Table((Rule("X", string_graph("")),), ("X",))
    loop = Hypergraph(("u",), (Hyperedge("e0", "X", ("u", "u")),), ("u", "u"))
    assert parallel_budgeted(loop, table, 0, inf) == ({}, True, False)
    [(key, point)] = parallel_budgeted(loop, table, 1, inf)[0].items()
    assert (point.nodes, point.edges, point.ext) == (("n0",), (), ("n0", "n0"))
    assert key == canonical_key(point)
    parallel = Hypergraph(
        ("u", "v"), (Hyperedge("e0", "X", ("u", "v")), Hyperedge("e1", "X", ("u", "v"))), ("u", "v")
    )
    assert parallel_budgeted(parallel, table, 0, inf) == ({}, True, False)


def test_word_form_without_a_word_row():
    # S has a rule, but not a word form: its end is its start
    back = Hypergraph(("u", "v"), (Hyperedge("e0", "S", ("v", "u")),), ("u", "v"))
    table = Table((Rule("S", back),), ("S",))
    with pytest.raises(GrammarError, match="^rules for label 'S' are not all word forms$"):
        _product(WordForm(("S",), ()), table)


def _reference(subject, table, max_nodes, max_edges, max_size=inf, least=None):
    """``budgeted_product`` on a word form or a graph, with each label's
    options read off the table's rules: a rule's edges and nodes added,
    stably sorted; each piece sized by ``least`` per label of its
    right-hand side, if given, against ``max_size``."""
    word = isinstance(subject, WordForm)
    options = []
    for r in table.rules:
        de, dn = len(r.rhs.edges), len(r.rhs.nodes) - r.rhs.type
        options.append((r.lhs, (de, dn, word_form(r.rhs) if word else r)))
    if isinstance(subject, WordForm):
        symbols = subject.word + subject.flags
        order = sorted(range(len(symbols)), key=lambda j: symbols[j])
        labels = [symbols[j] for j in order]
        start = len(subject.word) + 1

        def leaf(pieces):
            by_symbol = dict(zip(order, pieces))
            word = tuple(a for j in range(len(subject.word)) for a in by_symbol[j].word)
            form = WordForm(word, tuple(sorted(a for f in pieces for a in f.flags)))
            return form, form, len(word) + 1

    else:
        edges = sorted(subject.edges, key=lambda e: e.label)
        labels = [e.label for e in edges]
        start = len(subject.nodes)

        def leaf(pieces):
            result = replace(subject, {e.id: r.rhs for e, r in zip(edges, pieces)})
            return canonical_key(result), canonical_graph(result), len(result.nodes)

    rows = [sorted((o for l2, o in options if l2 == l), key=lambda o: o[:2]) for l in labels]
    if not all(rows):
        return None  # a label without rules in the table has no product
    if least is None:
        return budgeted_product(rows, start, leaf, max_nodes, max_edges)

    def size(piece):
        labels = piece.word + piece.flags if word else [e.label for e in piece.rhs.edges]
        return sum(least[l] for l in labels)

    return budgeted_product(rows, start, leaf, max_nodes, max_edges, size, max_size)


def test_product_matches_the_reference_product():
    """Seeded sweep over a Table's own rows, rows of its live rules, or the
    ``graph_table`` of a WordTable, with nullary labels, identity rules and budgets from
    0 to the form's size + 6 or ``inf``: on word forms and on their
    canonical graphs the product gives the reference's successors in its
    order, and both flags.  Each case asks one table object about
    anagrams of its form under several budget pairs, on both paths, in
    shuffled order, so that answers come from memoized choice searches
    as well as fresh ones."""
    rng, reuse = random.Random(12), random.Random(13)
    for case in range(500):
        letters = "abcd"[: rng.randint(1, 4)]
        nullary = ("x", "y")[: rng.randint(0, 2)]
        sig = Signature.of({**dict.fromkeys(letters, 2), **dict.fromkeys(nullary, 0)})
        kind = ("table", "live", "word")[case % 3]
        word = tuple(rng.choices(letters, k=rng.randint(0, 6)))
        if kind == "word":
            rules = [
                (l, tuple(rng.choices(letters, k=rng.randint(0, 3))))
                for l in letters
                for _ in range(rng.choice((1, 1, 2, 3)))
            ]
            table = WordTable(rules=tuple(rules), scope=tuple(letters)).graph_table
            form = WordForm(word, ())
        else:
            rules = []
            for l in sig.labels:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    flags = tuple(rng.sample(nullary, rng.randint(0, len(nullary))))
                    if rng.random() < 0.2:
                        rules.append(Rule(l, handle(l, sig)))
                    elif l in nullary:
                        rules.append(Rule(l, _rhs(None, flags)))
                    else:
                        body = rng.choices(letters, k=rng.randint(0, 3))
                        rules.append(Rule(l, _rhs(body, flags if rng.random() < 0.3 else ())))
            table = Table(rules=tuple(rules), scope=sig.labels)
            if kind == "live":  # rows of the rules over all labels but one
                live = frozenset(rng.sample(sig.labels, len(sig.labels) - 1))
                kept = tuple(r for r in table.rules if r.rhs.labels() <= live)
                table = _Rows(kept, table.rows.code, {})  # as live_tables codes
            flags = rng.choices(nullary, k=rng.randint(0, 2)) if nullary else ()
            form = WordForm(word, tuple(sorted(flags)))
        budgets = [inf, *range(len(form.word) + len(form.flags) + 7)]
        pairs = [(rng.choice(budgets), rng.choice(budgets))]
        pairs += [(reuse.choice(budgets), reuse.choice(budgets)) for _ in range(2)]
        anagrams = (tuple(reuse.sample(word, len(word))) for _ in range(2))
        forms = [form, *(WordForm(w, form.flags) for w in anagrams)]
        queries = [
            (subject, *pair)
            for f in forms
            for subject in (f, canonical_graph(f.graph()))
            for pair in pairs
        ]
        reuse.shuffle(queries)
        for subject, max_nodes, max_edges in queries:
            want = _reference(subject, table, max_nodes, max_edges)
            if want is None:
                with pytest.raises(GrammarError):
                    _product(subject, table, max_nodes, max_edges)
                continue
            found, *flags = _product(subject, table, max_nodes, max_edges)
            assert (list(found.items()), *flags) == (list(want[0].items()), *want[1:]), case


def _grow_table() -> Table:
    rules = (Rule("a", string_graph("a")), Rule("a", string_graph("aa")))
    return Table(rules=rules, scope=("a",))


def _asked_in_turn(table, questions) -> list:
    """Each question to the one table object equals the reference."""
    answers = []
    for subject, max_nodes, max_edges in questions:
        found, *flags = _product(subject, table, max_nodes, max_edges)
        want = _reference(subject, table, max_nodes, max_edges)
        assert (list(found.items()), *flags) == (list(want[0].items()), *want[1:])
        answers.append((list(found), *flags))
    return answers


def test_memoized_choices_are_keyed_by_the_budgets():
    # aa has 2 edges and 3 nodes, its successors up to 4 and 5; each
    # budget alone, asked after the unbounded pair, cuts one of them
    form = WordForm(("a", "a"), ())
    budgets = [(9, 9), (9, 3), (4, 9), (inf, inf)]
    answers = _asked_in_turn(_grow_table(), [(form, *pair) for pair in budgets])
    assert answers[0] == answers[3]
    assert len({repr(a) for a in answers}) == 3


def test_memoized_choices_are_keyed_by_the_path():
    # the same labels, asked first of a graph (options are rules), then
    # of a word form (options are words)
    form = WordForm(("a", "a"), ())
    table = _grow_table()
    _asked_in_turn(table, [(canonical_graph(form.graph()), 9, 9), (form, 9, 9)])


def test_memoized_choices_are_keyed_by_the_node_count():
    # one a-edge, alone or beside an isolated node: under 3 nodes only the
    # smaller graph can grow to aa, so the larger one's choices do not fit it
    h = string_graph("a")
    isolated = canonical_graph(Hypergraph(h.nodes + ("z",), h.edges, h.ext))
    answers = _asked_in_turn(_grow_table(), [(isolated, 3, 9), (canonical_graph(h), 3, 9)])
    assert [len(found) for found, *_ in answers] == [1, 2]


@st.composite
def grammars(draw):
    flags = st.sampled_from(((), (), (), ("x",), ("y",), ("x", "y")))
    words = st.lists(st.sampled_from(BINARY), max_size=3)  # the empty word erases
    indices = [str(i) for i in range(draw(st.integers(1, 3)))]
    tables = []
    for index in indices:
        rules = []
        for label in SIG.labels:
            if label in TERMINALS and draw(st.booleans()):
                rules.append(Rule(label, handle(label, SIG)))
            for _ in range(draw(st.integers(1, 2))):
                word = None if label in NULLARY else tuple(draw(words))
                rules.append(Rule(label, _rhs(word, draw(flags))))
        tables.append((index, Table(rules=tuple(rules), scope=SIG.labels)))
    g = PHRGrammar(signature=SIG, terminals=TERMINALS, start="S", tables=tuple(tables), order=2)
    if not draw(st.booleans()):
        return g
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
        alphabet=tuple(indices),
        transitions=tuple(transitions),
        initial="p",
        finals=tuple(finals),
    )
    return ControlledPHRGrammar(grammar=g, control=control)


@given(
    g=grammars(),
    steps=st.integers(1, 4),
    nodes=st.integers(2, 8),
    edges=st.integers(1, 6),
)
@settings(max_examples=250, deadline=None)
def test_generated_paths_agree(g, steps, nodes, edges):
    limits = Limits(max_steps=steps, max_nodes=nodes, max_edges=edges, max_results=50_000)
    check_equivalent(g, limits, all_words(("a", "b"), 3))


# ------------------------------------------------------ result-budget cuts

# Words, flags, verdicts and traces under a result budget that cuts the
# search, recorded from the search over uncoded label tuples.  Which
# states a cut search keeps depends on the order of its keys, so these
# pin that order; ``check_equivalent`` cannot compare them with the graph
# path.  Words are spelled as strings: every terminal here is one letter.
# Forms dead within the edge budget take no state, so dyck_phr at 10 and
# 50 and f2_wp at 50 read more than the search that kept them; the added
# words and verdicts were checked against ``cfg_words``, ``is_dyck`` and
# ``free_trivial``.
CUT_LIMITS = dict(max_steps=8, max_edges=6)
CUT_QUERIES = {
    "dyck_phr": ("ab", "aabb", "abab"),
    "f2_wp": ("aA", "Aa", "abBA", "aAbB"),
    "ctl_plus0": ("ab", "aabb", "abab"),
    "closure intersect (ab)*": ("ab", "abab"),
}
CUT_PINS = {
    ("dyck_phr", 3): (
        ((), False, False),
        {"ab": ("yes", ("1",)), "aabb": ("unknown", None), "abab": ("unknown", None)},
    ),
    ("dyck_phr", 10): (
        (("ab",), False, False),
        {"ab": ("yes", ("1",)), "aabb": ("yes", ("1", "1")), "abab": ("yes", ("1", "1"))},
    ),
    ("dyck_phr", 50): (
        (
            ("ab", "aabb", "abab", "aaabbb", "aababb", "aabbab", "abaabb", "ababab"),
            False,
            True,
        ),
        {"ab": ("yes", ("1",)), "aabb": ("yes", ("1", "1")), "abab": ("yes", ("1", "1"))},
    ),
    ("f2_wp", 3): (
        ((), False, False),
        {
            "aA": ("unknown", None),
            "Aa": ("unknown", None),
            "abBA": ("unknown", None),
            "aAbB": ("unknown", None),
        },
    ),
    ("f2_wp", 10): (
        ((), False, False),
        {
            "aA": ("yes", ("1.1", "1.1")),
            "Aa": ("yes", ("1.1", "1.1")),
            "abBA": ("unknown", None),
            "aAbB": ("unknown", None),
        },
    ),
    ("f2_wp", 50): (
        (("Aa", "Bb", "aA"), False, False),
        {
            "aA": ("yes", ("1.1", "1.1")),
            "Aa": ("yes", ("1.1", "1.1")),
            "abBA": ("unknown", None),
            "aAbB": ("unknown", None),
        },
    ),
    ("ctl_plus0", 3): (
        ((), False, False),
        {"ab": ("unknown", None), "aabb": ("unknown", None), "abab": ("unknown", None)},
    ),
    ("ctl_plus0", 10): (
        (("ab", "bb"), False, False),
        {"ab": ("yes", ("1", "0")), "aabb": ("unknown", None), "abab": ("unknown", None)},
    ),
    ("ctl_plus0", 50): (
        (
            (
                "ab", "bb", "aab", "abb", "bab", "bbb", "aaab", "aabb", "abab", "abbb",
                "baab", "babb", "bbab", "bbbb", "aaaab",
            ),
            False,
            False,
        ),
        {
            "ab": ("yes", ("1", "0")),
            "aabb": ("yes", ("1", "1", "2", "0")),
            "abab": ("yes", ("1", "2", "1", "0")),
        },
    ),
    ("closure intersect (ab)*", 3): (
        ((), False, False),
        {"ab": ("unknown", None), "abab": ("unknown", None)},
    ),
    ("closure intersect (ab)*", 10): (
        ((), False, False),
        {"ab": ("yes", ("0.2", "1", "1", "0", "0.2")), "abab": ("unknown", None)},
    ),
    ("closure intersect (ab)*", 50): (
        (("ab", "abab"), False, True),
        {
            "ab": ("yes", ("0.2", "1", "1", "0", "0.2")),
            "abab": ("yes", ("0.2", "1", "1", "1", "0", "0.2")),
        },
    ),
}


def _cut_grammar(name):
    if name in CASES:
        build, args, kwargs = CASES[name]
        return build(*args, **kwargs)
    return fixture(name).phr()


@pytest.mark.parametrize("name, max_results", sorted(CUT_PINS))
def test_result_budget_cuts_are_pinned(name, max_results):
    g = _cut_grammar(name)
    limits = Limits(**CUT_LIMITS, max_results=max_results)
    words = enumerate_strings(g, limits)
    verdicts = {}
    for word in CUT_QUERIES[name]:
        v = member_string(g, word, limits)
        verdicts[word] = (v.verdict, v.trace)
    got = (tuple("".join(w) for w in words.words), words.exhaustive, words.saturated)
    assert (got, verdicts) == CUT_PINS[name, max_results]


# ------------------------------------------------------- code order

def _wide_grammar() -> PHRGrammar:
    """A string-shaped grammar over 300 labels, so that codes pass one byte:
    ``~a``, ``~x`` and ``ä`` sort after the 291 fillers, ``S`` before
    ``S.2``, and ``@a`` first."""
    fillers = [f"l{i:03d}" for i in range(291)]
    binary = ["S", "S.2", "a", "~a", "@a", "ä", "z", *fillers]
    sig = Signature.of({**dict.fromkeys(binary, 2), "~x": 0, "@x": 0})
    grow = {
        "S": [("a", "S.2"), ("S", "ä"), ("@a", "S", "~a")],
        "S.2": [("~a", "S"), ("@a",), ("l150",)],
        "a": [("a",), ("ä",)],
    }
    stop = {"S": [("ä",), ("z", "S.2")], "S.2": [("a",), ("l289", "~a")]}
    tables = []
    for index, words in (("1", grow), ("2", stop)):
        rules = [Rule(l, string_graph(w)) for l, ws in words.items() for w in ws]
        rules += [Rule(l, handle(l, sig)) for l in sig.labels if l not in words]
        if index == "1":  # S.2 also raises a nullary flag; table 2 drops it
            rules.append(Rule("S.2", _rhs(("S",), ("~x", "@x"))))
        else:
            rules = [r for r in rules if r.lhs not in ("~x", "@x")]
            rules += [Rule("~x", _rhs(None, ())), Rule("@x", _rhs(None, ()))]
        tables.append((index, Table(rules=tuple(rules), scope=sig.labels)))
    terminals = ("a", "~a", "@a", "ä", "z", "l150", "l289")
    return PHRGrammar(signature=sig, terminals=terminals, start="S", tables=tuple(tables), order=2)


def test_codes_past_one_byte_keep_the_label_order():
    g = _wide_grammar()
    assert len(g.signature.labels) == 300
    assert max(map(ord, g.code.chars.values())) > 255
    # keys sort as the label tuples do, prefixes and flags included
    rng = random.Random(7)
    names = ["S", "S.2", "a", "~a", "@a", "ä", *rng.sample(g.signature.labels, 20)]
    forms = set()
    for _ in range(300):
        word = tuple(rng.choices(names, k=rng.randint(0, 4)))
        flags = tuple(sorted(rng.choices(["~x", "@x"], k=rng.randint(0, 2))))
        forms |= {WordForm(word, flags), WordForm(word[:-1], flags)}
    assert sorted(forms, key=lambda f: g.code.key(*f)) == sorted(forms)
    limits = Limits(max_steps=4, max_nodes=8, max_edges=5, max_results=20_000)
    queries = [("ä",), ("a", "ä"), ("@a", "ä", "~a"), ("z", "a"), ("a", "l150")]
    queries.append(("z", "l289", "~a"))
    check_equivalent(g, limits, queries)
    words = enumerate_strings(g, limits).words
    assert ("@a", "ä", "~a") in words and ("z", "l289", "~a") in words
