"""Rules, tables, grammars, derivation steps, and control automata."""

import itertools
import time

import pytest

from phrg import (
    ControlAutomaton,
    ControlledPHRGrammar,
    GrammarError,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    WordTable,
    canonical_graph,
    canonical_key,
    direct_derivations,
    disjoint_union,
    et0l_step,
    fixture,
    handle,
    identity_table,
    is_identity_rule,
    override_table,
    parallel_successors,
    replace,
    string_graph,
    trace_successors,
)
from oracles import nfa_accepts, all_words

SIG = Signature.of({"S": 2, "a": 2, "b": 2})
IDS = (Rule("a", handle("a", 2)), Rule("b", handle("b", 2)))


def dyck_rules():
    return (
        Rule("S", string_graph("ab")),
        Rule("S", string_graph(("a", "S", "b"))),
        Rule("S", string_graph(("S", "S"))),
    )


class TestTables:
    def test_left_totality_enforced(self):
        with pytest.raises(GrammarError) as err:
            Table(rules=(Rule("S", string_graph("ab")),), scope=SIG.labels)
        assert "a" in str(err.value)

    def test_rhs_arity_checked_in_grammar(self):
        bad = Table(
            rules=(Rule("S", handle("box", 0)),) + IDS,
            scope=("S", "a", "b"),
        )
        with pytest.raises(GrammarError):
            PHRGrammar(
                signature=SIG,
                terminals=("a", "b"),
                start="S",
                tables=(("1", bad),),
                order=2,
            )

    def test_rules_deduplicated_up_to_iso(self):
        from phrg import hypergraph

        other_ids = hypergraph(
            nodes=["x", "y", "z"],
            edges=[("p", "a", ("x", "y")), ("q", "b", ("y", "z"))],
            ext=("x", "z"),
        )
        t = Table(
            rules=(Rule("S", string_graph("ab")), Rule("S", other_ids)) + IDS,
            scope=SIG.labels,
        )
        assert len(t.by_label["S"]) == 1

    def test_identity_table(self):
        t = identity_table(SIG)
        assert all(is_identity_rule(r) for r in t.rules)
        assert t.active_labels == frozenset()

    def test_override_with_nothing_is_identity(self):
        base = identity_table(SIG)
        assert override_table(base, ()).rules == base.rules

    def test_override_touches_only_named_labels(self):
        base = identity_table(SIG)
        out = override_table(base, (Rule("S", string_graph("ab")),))
        assert len(out.by_label["S"]) == 1
        assert not is_identity_rule(out.by_label["S"][0])
        assert out.by_label["a"] == base.by_label["a"]
        assert out.by_label["b"] == base.by_label["b"]

    def test_override_builds_start_stop_table(self):
        # The start/stop table of the control-removal construction,
        # reproduced from a failure-routing base by one override on a
        # two-label grammar (start s, terminal a; states i final, r not;
        # barred copy a_; failure symbols f0..f2).
        sig = Signature.of(
            {
                "s2": 2,
                "s": 2,
                "a": 2,
                "a_": 2,
                "i": 0,
                "r": 0,
                "f0": 0,
                "f1": 1,
                "f2": 2,
            }
        )
        fail = {0: "f0", 1: "f1", 2: "f2"}
        base = Table(
            rules=tuple(
                Rule(x, handle(fail[sig.arity(x)], sig.arity(x)))
                for x in sig.labels
            ),
            scope=sig.labels,
        )
        from phrg import Hypergraph

        overlay = (
            Rule("s2", disjoint_union(string_graph(("s",)), handle("i", 0))),
            Rule("i", Hypergraph(nodes=(), edges=(), ext=())),
            Rule("a_", handle("a", 2)),
        )
        got = override_table(base, overlay)
        expected = {
            ("s2", canonical_key(overlay[0].rhs)),
            ("i", canonical_key(overlay[1].rhs)),
            ("a_", canonical_key(handle("a", 2))),
            ("s", canonical_key(handle("f2", 2))),
            ("a", canonical_key(handle("f2", 2))),
            ("r", canonical_key(handle("f0", 0))),
            ("f0", canonical_key(handle("f0", 0))),
            ("f1", canonical_key(handle("f1", 1))),
            ("f2", canonical_key(handle("f2", 2))),
        }
        assert {(r.lhs, canonical_key(r.rhs)) for r in got.rules} == expected


class TestGrammarValidation:
    def test_unknown_terminal(self):
        t = Table(rules=(Rule("S", string_graph("ab")),) + IDS, scope=SIG.labels)
        with pytest.raises(GrammarError):
            PHRGrammar(
                signature=SIG, terminals=("zz",), start="S", tables=(("1", t),), order=2
            )

    def test_order_below_arity(self):
        t = identity_table(SIG)
        with pytest.raises(GrammarError):
            PHRGrammar(
                signature=SIG, terminals=("a",), start="S", tables=(("1", t),), order=1
            )

    def test_duplicate_indices(self):
        t = identity_table(SIG)
        with pytest.raises(GrammarError):
            PHRGrammar(
                signature=SIG,
                terminals=("a",),
                start="S",
                tables=(("1", t), ("1", t)),
                order=2,
            )

    def test_control_alphabet_must_match(self):
        t = identity_table(SIG)
        g = PHRGrammar(
            signature=SIG, terminals=("a",), start="S", tables=(("1", t),), order=2
        )
        m = ControlAutomaton(
            states=("q",),
            alphabet=("9",),
            transitions=(("q", "9", "q"),),
            initial="q",
            finals=("q",),
        )
        with pytest.raises(GrammarError):
            ControlledPHRGrammar(grammar=g, control=m)


class TestDirectDerivations:
    def test_handle_rewrites_to_rhs(self):
        r = Rule("S", string_graph("ab"))
        out = direct_derivations(handle("S", 2), [r])
        assert len(out) == 1
        _, rule, succ = out[0]
        assert rule is r
        assert canonical_key(succ) == canonical_key(string_graph("ab"))

    def test_terminal_graph_has_no_rewrites(self):
        out = direct_derivations(string_graph("ab"), dyck_rules())
        assert out == ()

    def test_one_entry_per_matching_rule(self):
        out = direct_derivations(handle("S", 2), dyck_rules())
        assert len(out) == len(dyck_rules())


class TestParallelSteps:
    def test_doubling_once(self):
        table = fixture("fig5_squares").phr().table("1")
        succ = parallel_successors(handle("box", 0), table)
        assert len(succ) == 1
        assert len(succ[0].edges) == 2

    def test_doubling_four_to_eight(self):
        g = fixture("fig5_squares").phr()
        four = trace_successors(g, handle("box", 0), ("1", "1"))[0]
        assert len(four.edges) == 4
        succ = parallel_successors(four, g.table("1"))
        assert len(succ) == 1
        assert len(succ[0].edges) == 8

    def test_successors_match_choice_function_oracle(self):
        # Two edges, two rules per label: at most four successors, and
        # exactly the canonicalized set of all rule assignments computed
        # through bare replacement.
        h = string_graph("ab")
        ra = (Rule("a", string_graph("a")), Rule("a", string_graph("aa")))
        rb = (Rule("b", string_graph("b")), Rule("b", string_graph("bb")))
        t = Table(rules=ra + rb + (Rule("S", handle("S", 2)),), scope=SIG.labels)
        got = {canonical_key(s) for s in parallel_successors(h, t)}
        expected = set()
        for pick_a, pick_b in itertools.product(ra, rb):
            e1, e2 = h.edges
            expected.add(
                canonical_key(replace(h, {e1.id: pick_a.rhs, e2.id: pick_b.rhs}))
            )
        assert got == expected
        assert len(got) <= 4

    def test_edgeless_graph_is_fixed(self):
        h = string_graph(())
        t = identity_table(SIG)
        succ = parallel_successors(h, t)
        assert len(succ) == 1
        assert canonical_key(succ[0]) == canonical_key(h)


class TestTraceDerive:
    def test_three_doublings(self):
        g = fixture("fig5_squares").phr()
        out = trace_successors(g, handle("box", 0), ("1", "1", "1"))
        assert len(out) == 1
        assert len(out[0].edges) == 8

    def test_empty_trace(self):
        g = fixture("fig5_squares").phr()
        h = handle("box", 0)
        out = trace_successors(g, h, ())
        assert len(out) == 1
        assert canonical_key(out[0]) == canonical_key(h)

    def test_run_doubling_three_steps(self):
        g = fixture("a_pow2").phr()
        out = trace_successors(g, handle("a", 2), ("1", "1", "1"))
        assert len(out) == 1
        assert canonical_key(out[0]) == canonical_key(string_graph("a" * 8))

    def test_trace_concatenation(self):
        g = fixture("dyck_phr").phr()
        h = handle("S", 2)
        for t1 in [(), ("1",), ("1", "1")]:
            for t2 in [(), ("1",)]:
                direct = trace_successors(g, h, t1 + t2)
                staged = {
                    canonical_key(x)
                    for mid in trace_successors(g, h, t1)
                    for x in trace_successors(g, mid, t2)
                }
                assert {canonical_key(x) for x in direct} == staged

    def test_control_is_not_determinized(self, monkeypatch):
        g = fixture("ctl_plus0").phr()
        trace = ("1", "2", "0")
        want = trace_successors(g, g.grammar.start_graph(), trace)

        def refuse(self):
            raise AssertionError("determinize_complete called")

        monkeypatch.setattr(ControlAutomaton, "determinize_complete", refuse)
        assert trace_successors(g, g.grammar.start_graph(), trace) == want


class TestEt0lStep:
    def test_doubling(self):
        t = WordTable(rules=(("a", ("a", "a")),), scope=("a",))
        assert et0l_step(t, ("a",)) == {("a", "a")}

    def test_empty_word(self):
        t = WordTable(rules=(("a", ("a", "a")),), scope=("a",))
        assert et0l_step(t, ()) == {()}

    def test_cartesian(self):
        t = WordTable(rules=(("a", ("b",)), ("a", ("c",))), scope=("a",))
        got = et0l_step(t, ("a", "a"))
        expected = {p + q for p in [("b",), ("c",)] for q in [("b",), ("c",)]}
        assert got == expected

    def test_left_totality_enforced(self):
        with pytest.raises(GrammarError):
            WordTable(rules=(("a", ("a",)),), scope=("a", "b"))

    def test_erasing_rules(self):
        t = WordTable(
            rules=(("a", ()), ("a", ("b",)), ("b", ("b", "b"))), scope=("a", "b")
        )
        expected = {("b", "b"), ("b", "b", "b"), ("b", "b", "b", "b")}
        assert et0l_step(t, ("a", "b", "a")) == expected
        assert () in et0l_step(t, ("a", "a"))


class TestProductGuard:
    """Without budgets, 2^20 > 10^6 rule choices raise before any is tried."""

    WORD = ("a",) * 20
    RULES = (Rule("a", string_graph("a")), Rule("a", string_graph("aa")))

    def raises_at_once(self, step):
        t0 = time.perf_counter()
        with pytest.raises(GrammarError, match="too large"):
            step()
        assert time.perf_counter() - t0 < 1.0

    def test_parallel_successors(self):
        table = Table(rules=self.RULES, scope=("a",))
        self.raises_at_once(lambda: parallel_successors(string_graph(self.WORD), table))

    def test_trace_successors(self):
        table = Table(
            rules=self.RULES + (Rule("S", handle("S", 2)), Rule("b", handle("b", 2))),
            scope=SIG.labels,
        )
        g = PHRGrammar(
            signature=SIG, terminals=("a", "b"), start="S", tables=(("1", table),), order=2
        )
        self.raises_at_once(
            lambda: trace_successors(g, string_graph(self.WORD), ("1",))
        )

    def test_et0l_step(self):
        t = WordTable(rules=(("a", ("a",)), ("a", ("a", "a"))), scope=("a",))
        self.raises_at_once(lambda: et0l_step(t, self.WORD))


class TestDeterminize:
    def test_dfa_unchanged_in_behavior(self):
        m = ControlAutomaton(
            states=("p", "q"),
            alphabet=("0", "1"),
            transitions=(
                ("p", "0", "p"),
                ("p", "1", "q"),
                ("q", "0", "q"),
                ("q", "1", "p"),
            ),
            initial="p",
            finals=("q",),
        )
        d = m.determinize_complete()
        assert d.is_deterministic_complete
        for w in all_words(("0", "1"), 6, min_len=0):
            assert m.accepts(w) == d.accepts(w)

    def test_ends_with_zero_language(self):
        trans = (
            ("p", "1", "p"),
            ("p", "2", "p"),
            ("p", "0", "q"),
        )
        m = ControlAutomaton(
            states=("p", "q"),
            alphabet=("0", "1", "2"),
            transitions=trans,
            initial="p",
            finals=("q",),
        )
        d = m.determinize_complete()
        assert d.is_deterministic_complete
        for w in all_words(("0", "1", "2"), 5, min_len=0):
            assert d.accepts(w) == nfa_accepts(trans, "p", ("q",), w)

    def test_empty_language(self):
        m = ControlAutomaton(
            states=("p",),
            alphabet=("1",),
            transitions=(("p", "1", "p"),),
            initial="p",
            finals=(),
        )
        d = m.determinize_complete()
        for w in all_words(("1",), 6, min_len=0):
            assert not d.accepts(w)

    def test_step_total_on_determinized(self):
        m = ControlAutomaton(
            states=("p", "q"),
            alphabet=("0", "1"),
            transitions=(("p", "0", "q"), ("p", "1", "q"), ("p", "1", "p")),
            initial="p",
            finals=("q",),
        )
        d = m.determinize_complete()
        for q in d.states:
            for a in d.alphabet:
                assert d.step(q, a) in d.states


def reachable_closure(start, expand, max_steps, max_edges):
    """Canonical-key closure of an expansion relation, breadth-first."""
    frontier = {canonical_key(start): canonical_graph(start)}
    seen = dict(frontier)
    for _ in range(max_steps):
        nxt = {}
        for key in sorted(frontier):
            for succ in expand(frontier[key]):
                if len(succ.edges) > max_edges:
                    continue
                k = canonical_key(succ)
                if k not in seen:
                    nxt[k] = succ
        if not nxt:
            break
        seen.update(nxt)
        frontier = nxt
    return seen


def test_parallel_and_sequential_reach_the_same_graphs():
    # A single-table grammar made of a sequential rule set plus identity
    # rules reaches, within an edge cap, the same sentential forms
    # whether steps rewrite everything at once or one edge at a time.
    # Rule right-hand sides never lose edges here, so capping the edge
    # count prunes no path to a capped graph and both closures saturate.
    cap = 6
    g = fixture("dyck_phr").phr()
    table = g.table("1")
    start = handle("S", 2)
    parallel = reachable_closure(
        start, lambda h: parallel_successors(h, table), max_steps=cap, max_edges=cap
    )
    sequential = reachable_closure(
        start,
        lambda h: [succ for _, _, succ in direct_derivations(h, dyck_rules())],
        max_steps=cap * cap,
        max_edges=cap,
    )
    assert set(parallel) == set(sequential)
