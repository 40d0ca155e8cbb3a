"""Bounded enumeration, membership search, reachability trimming."""

import dataclasses
import itertools
from contextlib import nullcontext

import pytest

import phrg.engine
import phrg.grammar

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
    handle,
    identity_table,
    member_string,
    override_table,
    remove_unreachable,
    string_graph,
    trace_successors,
)
from phrg.grammar import CodedForm, split_control
from phrg.hypergraph import Hypergraph
from oracles import cfg_words, et0l_words, is_dyck, nfa_accepts
from test_productive import fresh, unpruned
from test_word_path import graph_path

GENEROUS = Limits(max_steps=6, max_nodes=120, max_edges=120, max_results=100_000)


def words_of(enum):
    return set(enum.words)


class TestEnumerateLanguage:
    def test_doubling_family(self):
        g = fixture("fig5_squares").phr()
        out = enumerate_language(g, Limits(max_steps=4, max_nodes=40, max_edges=40))
        assert sorted(len(h.edges) for h in out.graphs) == [1, 2, 4, 8, 16]
        assert out.exhaustive

    def test_self_handle_terminal_start(self):
        sig = Signature.of({"S": 2})
        t = identity_table(sig)
        g = PHRGrammar(
            signature=sig, terminals=("S",), start="S", tables=(("1", t),), order=2
        )
        out = enumerate_language(g, GENEROUS)
        assert len(out.graphs) == 1
        assert canonical_key(out.graphs[0]) == canonical_key(handle("S", 2))

    def test_self_handle_nonterminal_start(self):
        sig = Signature.of({"S": 2})
        t = identity_table(sig)
        g = PHRGrammar(
            signature=sig, terminals=(), start="S", tables=(("1", t),), order=2
        )
        out = enumerate_language(g, GENEROUS)
        assert out.graphs == ()
        assert out.saturated

    def test_repeated_runs_identical(self):
        g = fixture("dyck_phr").phr()
        lim = Limits(max_steps=10, max_nodes=12, max_edges=6)
        first = [canonical_key(h) for h in enumerate_language(g, lim).graphs]
        second = [canonical_key(h) for h in enumerate_language(g, lim).graphs]
        assert first == second

    def test_larger_limits_give_superset(self):
        g = fixture("dyck_phr").phr()
        small = enumerate_language(g, Limits(max_steps=8, max_nodes=20, max_edges=4))
        large = enumerate_language(g, Limits(max_steps=10, max_nodes=24, max_edges=6))
        small_keys = {canonical_key(h) for h in small.graphs}
        large_keys = {canonical_key(h) for h in large.graphs}
        assert small_keys <= large_keys


class TestEnumerateStrings:
    def test_powers_of_two(self):
        g = fixture("a_pow2").phr()
        out = enumerate_strings(g, Limits(max_steps=4, max_nodes=40, max_edges=40))
        assert words_of(out) == {("a",) * (2**n) for n in range(5)}
        assert out.exhaustive

    def test_non_string_language_is_empty(self):
        g = fixture("fig5_squares").phr()
        out = enumerate_strings(g, Limits(max_steps=3, max_nodes=20, max_edges=20))
        assert words_of(out) == set()

    def test_brackets_match_sequential_oracle(self):
        g = fixture("dyck_phr").phr()
        out = enumerate_strings(g, Limits(max_steps=40, max_nodes=40, max_edges=6))
        oracle = cfg_words(
            {"S": [("a", "b"), ("a", "S", "b"), ("S", "S")]},
            "S",
            ("a", "b"),
            max_len=6,
        )
        assert out.saturated
        assert words_of(out) == oracle
        for w in oracle:
            assert is_dyck(w)

    def test_triple_run_et0l_embedding(self):
        from phrg import ET0LGrammar, WordTable, et0l_to_phr

        scope = ("S", "A", "B", "C", "a", "b", "c")
        ids = tuple((x, (x,)) for x in scope)

        def table(*special):
            touched = {l for l, _ in special}
            keep = tuple(r for r in ids if r[0] not in touched)
            return WordTable(rules=special + keep, scope=scope)

        g = ET0LGrammar(
            alphabet=scope,
            terminals=("a", "b", "c"),
            axiom="S",
            tables=(
                ("1", table(("S", ("A", "B", "C")))),
                ("2", table(("A", ("a", "A")), ("B", ("b", "B")), ("C", ("c", "C")))),
                ("3", table(("A", ("a",)), ("B", ("b",)), ("C", ("c",)))),
            ),
        )
        phr = et0l_to_phr(g)
        out = enumerate_strings(phr, Limits(max_steps=30, max_nodes=40, max_edges=9))
        oracle = et0l_words(
            [dict((l, [tuple(w) for (s, w) in tab.rules if s == l]) for l in scope)
             for _, tab in g.tables],
            "S",
            ("a", "b", "c"),
            max_len=9,
            max_steps=12,
        )
        assert out.saturated
        assert words_of(out) == oracle
        assert words_of(out) == {
            ("a", "b", "c"),
            ("a", "a", "b", "b", "c", "c"),
            ("a", "a", "a", "b", "b", "b", "c", "c", "c"),
        }


class TestMemberString:
    def test_power_of_two_hit(self):
        g = fixture("a_pow2").phr()
        verdict = member_string(g, "aaaa", Limits(max_steps=8, max_nodes=32))
        assert verdict.verdict == "yes"
        assert len(verdict.trace) == 2

    def test_three_is_not_a_power(self):
        g = fixture("a_pow2").phr()
        verdict = member_string(g, "aaa", Limits(max_steps=8, max_nodes=32))
        assert verdict.verdict == "no-within-limits"

    def test_empty_word_always_out(self):
        for name in ("a_pow2", "dyck_phr"):
            verdict = member_string(fixture(name).phr(), "", GENEROUS)
            assert verdict.verdict == "no-within-limits"

    def test_witness_trace_replays(self):
        g = fixture("dyck_phr").phr()
        verdict = member_string(g, "aabb", Limits(max_steps=10, max_nodes=12))
        assert verdict.verdict == "yes"
        reached = trace_successors(g, handle("S", 2), verdict.trace)
        target = canonical_key(string_graph("aabb"))
        assert target in {canonical_key(h) for h in reached}


class TestResultBudget:
    LIMITS = Limits(max_steps=8, max_edges=6, max_results=3)

    def test_enumeration_reports_the_cut(self):
        out = enumerate_language(fixture("dyck_phr").phr(), self.LIMITS)
        assert out.hit_result_budget
        assert not out.exhaustive
        assert not out.saturated

    def test_member_answers_unknown(self):
        g = fixture("dyck_phr").phr()
        assert member_string(g, "aabb", self.LIMITS).verdict == "unknown"
        uncapped = Limits(max_steps=8, max_edges=6)
        assert member_string(g, "aabb", uncapped).verdict == "yes"


class TestLimits:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Limits)])
    def test_negative_budget_is_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0, not -1$"):
            Limits(**{name: -1})

    def test_zero_budgets_are_allowed(self):
        zero = Limits(max_steps=0, max_nodes=0, max_edges=0, max_results=0)
        out = enumerate_strings(fixture("dyck_phr").phr(), zero)
        assert out.words == ()
        assert not out.exhaustive  # the start handle alone exceeds the budgets


class TestLayerHooks:
    """The benchmark harness in perfbench/ times and calibrates a search by
    replacing these module globals; a search must look them up.  A graph
    search goes through all five; a word search (a string-shaped grammar)
    builds no graphs, so it goes through the product alone."""

    HOOKS = (
        (phrg.engine, "parallel_budgeted"),
        (phrg.engine, "canonical_key"),
        (phrg.grammar, "replace"),
        (phrg.grammar, "canonical_key"),
        (phrg.grammar, "canonical_graph"),
    )

    def count_calls(self, monkeypatch) -> dict:
        calls = {}
        for module, name in self.HOOKS:
            inner = getattr(module, name)
            hook = f"{module.__name__}.{name}"
            calls[hook] = 0

            def counting(*args, _inner=inner, _hook=hook, **kwargs):
                calls[_hook] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_benchmark_hooks_exist(self):
        # the traced benchmark replaces these names; a refactor that moves
        # one must fail here, not only in the benchmark
        from test_productive import _tracing

        patches = _tracing().PATCHES
        assert patches
        for module, name, _ in patches:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    def test_search_goes_through_every_hook(self, monkeypatch):
        g = fixture("fig5_squares").phr()
        calls = self.count_calls(monkeypatch)
        out = enumerate_language(g, Limits(max_steps=3, max_edges=4))
        assert len(out.graphs) == 3
        assert not [hook for hook, n in calls.items() if n == 0]

    def test_word_search_goes_through_the_product(self, monkeypatch):
        g = fixture("dyck_phr").phr()
        calls = self.count_calls(monkeypatch)
        out = enumerate_strings(g, Limits(max_steps=3, max_edges=4))
        assert ("a", "b") in out.words
        assert calls.pop("phrg.engine.parallel_budgeted") > 0
        assert not [hook for hook, n in calls.items() if n > 0]

    def test_each_rule_is_keyed_once(self, monkeypatch):
        # a rule keeps its canonical key, so a table built from the rules of
        # built tables keys only the rules new to it
        base = fixture("dyck_phr").phr().tables[0][1]
        sig = Signature.of({"S": 2, "D": 2, "a": 2})
        rules = (
            Rule("S", string_graph("a")),
            Rule("S", string_graph("D")),
            Rule("D", string_graph("DD")),
            Rule("a", handle("a", 2)),
        )
        g = PHRGrammar(
            signature=sig,
            terminals=("a",),
            start="S",
            tables=(("1", Table(rules=rules, scope=sig.labels)),),
            order=2,
        )
        calls = self.count_calls(monkeypatch)
        overlay = (Rule("S", string_graph("ab")), Rule("S", string_graph("ba")))
        assert set(overlay) <= set(override_table(base, overlay).rules)
        assert calls["phrg.grammar.canonical_key"] == len(overlay)
        [(_, cut, blocked)] = g.live_tables  # D never terminates
        assert (len(cut.rules), blocked) == (2, {"D"})
        assert calls["phrg.grammar.canonical_key"] == len(overlay)

    def test_member_stops_at_its_word(self, monkeypatch):
        # dyck_phr never shrinks a form, so member lowers its budgets to
        # |ab|+1 nodes and |ab| edges; these limits are those already,
        # and both searches run under the same bounds.
        g = fixture("dyck_phr").phr()
        limits = Limits(max_steps=4, max_nodes=3, max_edges=2)
        calls = self.count_calls(monkeypatch)
        assert member_string(g, "ab", limits).verdict == "yes"
        member_calls = calls["phrg.engine.parallel_budgeted"]
        assert enumerate_strings(g, limits).words == (("a", "b"),)
        assert member_calls < calls["phrg.engine.parallel_budgeted"] - member_calls

    @pytest.mark.parametrize(
        "name, word",
        [("dyck_phr", "ab"), ("copy_dyck_K", ("a", "b", "abar", "bbar")), ("ctl_plus0", "aab")],
    )
    def test_product_takes_the_search_states(self, monkeypatch, name, word):
        # the benchmark wraps the product and reads labels() off its first
        # argument: a CodedForm on the word path, a Hypergraph on the graph
        # path.  With nothing pruned, ctl_plus0 reaches new pairs through
        # idle tables, whose states come from the form, not from a product.
        g = fixture(name).phr()
        forms, product = [], phrg.engine.parallel_budgeted

        def recording(h, *args):
            forms.append(h)
            return product(h, *args)

        monkeypatch.setattr(phrg.engine, "parallel_budgeted", recording)
        limits = Limits(max_steps=4, max_edges=6)
        coded = CodedForm if split_control(g)[0].string_shaped else Hypergraph
        for path, form_type in ((nullcontext, coded), (graph_path, Hypergraph)):
            for pruning in (nullcontext, unpruned):
                forms.clear()
                with path(), pruning():
                    enumerate_language(fresh(g), limits)
                    enumerate_strings(fresh(g), limits)
                    assert member_string(fresh(g), word, limits).verdict == "yes"
                assert forms
                for h in forms:
                    assert type(h) is form_type
                    if form_type is CodedForm:
                        assert h.labels() == set(h.code.decode(h.word + h.flags))
                    else:
                        assert h.labels() == {e.label for e in h.edges}

    def test_choice_searches_are_reused(self, monkeypatch):
        # dyck_phr's word forms repeat their label multisets; the choice
        # search runs once per table object, labels, node count and budgets
        g = fixture("dyck_phr").phr()
        limits = Limits(max_steps=4, max_edges=6)
        keys, searches = [], []
        product, choices = phrg.engine.parallel_budgeted, phrg.grammar._choices

        def counting_product(h, table, *budgets):
            keys.append((id(table), tuple(sorted(h.word + h.flags)), len(h.word), *budgets))
            return product(h, table, *budgets)

        def counting_choices(*key):
            searches.append(key)
            return choices(*key)

        monkeypatch.setattr(phrg.engine, "parallel_budgeted", counting_product)
        monkeypatch.setattr(phrg.grammar, "_choices", counting_choices)
        first = enumerate_strings(g, limits)
        assert len(searches) == len(set(keys)) < len(keys)
        calls, searches[:] = len(keys), []
        assert enumerate_strings(g, limits) == first
        assert len(keys) == 2 * calls
        assert searches == []


class TestControlledEnumeration:
    def grammar(self):
        sig = Signature.of({"s": 2, "a": 2, "b": 2})
        ids = (Rule("a", handle("a", 2)), Rule("b", handle("b", 2)))
        grow = Table(
            rules=(Rule("s", string_graph(("a", "s"))),) + ids, scope=sig.labels
        )
        stop = Table(rules=(Rule("s", string_graph(("b",))),) + ids, scope=sig.labels)
        return PHRGrammar(
            signature=sig,
            terminals=("a", "b"),
            start="s",
            tables=(("1", grow), ("0", stop)),
            order=2,
        )

    def control(self):
        # Accepts traces 1^(2k) 0: an even number of growth steps.
        return ControlAutomaton(
            states=("e", "o", "f"),
            alphabet=("0", "1"),
            transitions=(("e", "1", "o"), ("o", "1", "e"), ("e", "0", "f")),
            initial="e",
            finals=("f",),
        )

    def test_matches_trace_filtered_oracle(self):
        g = self.grammar()
        m = self.control()
        controlled = ControlledPHRGrammar(grammar=g, control=m)
        got = enumerate_language(
            controlled, Limits(max_steps=4, max_nodes=40, max_edges=40)
        )
        expected = set()
        for n in range(5):
            for trace in itertools.product(("0", "1"), repeat=n):
                if not nfa_accepts(m.transitions, "e", ("f",), trace):
                    continue
                for h in trace_successors(g, handle("s", 2), trace):
                    if all(e.label in ("a", "b") for e in h.edges):
                        expected.add(canonical_key(h))
        assert {canonical_key(h) for h in got.graphs} == expected

    def test_filter_really_bites(self):
        g = self.grammar()
        controlled = ControlledPHRGrammar(grammar=g, control=self.control())
        lim = Limits(max_steps=4, max_nodes=40, max_edges=40)
        plain = words_of(enumerate_strings(g, lim))
        gated = words_of(enumerate_strings(controlled, lim))
        assert gated == {("b",), ("a", "a", "b")}
        assert gated < plain


class TestRemoveUnreachable:
    def test_orphan_dropped(self):
        sig = Signature.of({"S": 2, "a": 2, "Z": 2})
        t = Table(
            rules=(
                Rule("S", string_graph("a")),
                Rule("a", handle("a", 2)),
                Rule("Z", handle("Z", 2)),
            ),
            scope=sig.labels,
        )
        g = PHRGrammar(
            signature=sig, terminals=("a",), start="S", tables=(("1", t),), order=2
        )
        out = remove_unreachable(g)
        assert "Z" not in out.signature
        assert "S" in out.signature and "a" in out.signature

    def test_controlled_keeps_its_control(self):
        sig = Signature.of({"S": 2, "a": 2, "Z": 2})
        ids = (Rule("a", handle("a", 2)), Rule("Z", handle("Z", 2)))
        grow = Table(rules=(Rule("S", string_graph("aS")),) + ids, scope=sig.labels)
        stop = Table(rules=(Rule("S", string_graph("a")),) + ids, scope=sig.labels)
        control = ControlAutomaton(
            states=("p", "f"),
            alphabet=("1", "2"),
            transitions=(("p", "1", "p"), ("p", "1", "f"), ("p", "2", "f")),
            initial="p",
            finals=("f",),
        )
        assert not control.is_deterministic_complete
        g = ControlledPHRGrammar(
            grammar=PHRGrammar(
                signature=sig,
                terminals=("a",),
                start="S",
                tables=(("1", grow), ("2", stop)),
                order=2,
            ),
            control=control,
        )
        out = remove_unreachable(g)
        assert out.grammar.signature.labels == ("S", "a")
        assert out.control is control
        lim = Limits(max_steps=5, max_nodes=10, max_edges=5)
        assert enumerate_strings(out, lim) == enumerate_strings(g, lim)

    def test_fully_reachable_unchanged(self):
        g = fixture("dyck_phr").phr()
        out = remove_unreachable(g)
        assert out == g

    def test_control_removal_output_enumerates_identically(self):
        from phrg import remove_control

        doc = fixture("ctl_plus0")
        big = remove_control(doc.phr())
        trimmed = remove_unreachable(big)
        assert len(trimmed.signature.labels) <= len(big.signature.labels)
        lim = Limits(max_steps=5, max_nodes=30, max_edges=7)
        before = {canonical_key(h) for h in enumerate_language(big, lim).graphs}
        after = {canonical_key(h) for h in enumerate_language(trimmed, lim).graphs}
        assert before == after
