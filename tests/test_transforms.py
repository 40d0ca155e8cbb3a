"""Grammar constructions, each checked against a set-level oracle."""

import dataclasses
import random
import time

import pytest

from phrg import (
    ControlAutomaton,
    ET0LGrammar,
    Hyperedge,
    Hypergraph,
    Limits,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    TransformError,
    WordTable,
    apply_hom,
    canonical_key,
    disjoint_union,
    enumerate_strings,
    et0l_propagating,
    et0l_step,
    et0l_to_phr,
    extract_string,
    fixture,
    free_product_wp,
    handle,
    hr_to_phr,
    identity_table,
    inverse_hom,
    is_identity_rule,
    is_isomorphic,
    iterate_substitution,
    member_string,
    override_table,
    parallel_successors,
    rational_concat,
    rational_intersect,
    rational_intersect_controlled,
    rational_plus,
    rational_union,
    regular_to_phr,
    relabel_grammar,
    remove_control,
    string_graph,
    substitute,
)
from oracles import (
    DIHEDRAL_INVERSE,
    F2_INVERSE,
    all_words,
    cfg_words,
    concat_sets,
    et0l_words,
    free_trivial,
    hom_image,
    is_dyck,
    iterate_subst_set,
    plus_set,
    preimage_words,
    subst_set,
)


def strings(g, max_len, max_steps=40, max_nodes=200):
    lim = Limits(
        max_steps=max_steps,
        max_nodes=max_nodes,
        max_edges=max_len,
        max_results=500_000,
    )
    out = enumerate_strings(g, lim)
    assert out.saturated, "string budget did not close the search"
    return set(out.words)


def word_grammar(letters, words):
    """A one-shot grammar for a finite language, used as oracle input."""
    sig = Signature.of({"S": 2, **{a: 2 for a in letters}})
    rules = [Rule("S", string_graph(tuple(w))) for w in words]
    rules += [Rule(a, handle(a, 2)) for a in letters]
    table = Table(rules=tuple(rules), scope=sig.labels)
    return PHRGrammar(
        signature=sig,
        terminals=tuple(letters),
        start="S",
        tables=(("1", table),),
        order=2,
    )


DYCK6 = cfg_words(
    {"S": [("a", "b"), ("a", "S", "b"), ("S", "S")]}, "S", ("a", "b"), max_len=6
)


class TestHrToPhr:
    def test_single_table_with_identities(self):
        g = fixture("dyck_hr").grammar
        phr = hr_to_phr(g)
        assert len(phr.tables) == 1
        _, table = phr.tables[0]
        assert set(table.scope) == set(g.signature.labels)
        for label in ("a", "b"):
            assert any(
                r.lhs == label and is_identity_rule(r) for r in table.rules
            )
        originals = {(r.lhs, canonical_key(r.rhs)) for r in g.rules}
        embedded = {(r.lhs, canonical_key(r.rhs)) for r in table.rules}
        assert originals <= embedded

    def test_language_preserved(self):
        phr = hr_to_phr(fixture("dyck_hr").grammar)
        assert strings(phr, 6) == DYCK6

    def test_flags(self):
        phr = hr_to_phr(fixture("dyck_hr").grammar)
        assert phr.repetition_free
        assert phr.node_monotone and phr.edge_monotone


class TestEt0lPropagating:
    def test_already_propagating_returned_as_is(self):
        g = fixture("a_pow2_et0l").grammar
        assert et0l_propagating(g) is g

    def test_erasing_doubler(self):
        t = WordTable(rules=(("a", ()), ("a", ("a", "a"))), scope=("a",))
        g = ET0LGrammar(
            alphabet=("a",), terminals=("a",), axiom="a", tables=(("1", t),)
        )
        prop = et0l_propagating(g)
        for _, tab in prop.tables:
            for _, w in tab.rules:
                assert w, "propagating grammar still has an erasing rule"
        want = et0l_words(
            [{"a": [(), ("a", "a")]}],
            "a",
            ("a",),
            max_len=8,
            max_steps=10,
            work_len=16,
        )
        got = et0l_words(
            [dict_of(tab) for _, tab in prop.tables],
            prop.axiom,
            prop.terminals,
            max_len=8,
            max_steps=14,
        )
        assert got == want

    def test_alphabet_is_what_the_axiom_reaches(self):
        t = WordTable(
            rules=(
                ("S", ("a", "E")),
                ("S", ("E",)),
                ("a", ("a",)),
                ("E", ()),
                ("E", ("b",)),
                ("b", ("b",)),
            ),
            scope=("S", "a", "E", "b"),
        )
        g = ET0LGrammar(
            alphabet=("S", "a", "E", "b"),
            terminals=("a", "b"),
            axiom="S",
            tables=(("1", t),),
        )
        # S is erasable but occurs in no right-hand side, so only the
        # axiom's own copy @S|- is reached; @S|E, @S|S and @S|E+S are not.
        want = {"@start", "@dead", "@S|-", "a", "b"} | {
            f"@{x}|{e}" for x in "abE" for e in ("-", "E", "S", "E+S")
        }
        assert set(et0l_propagating(g).alphabet) == want

    def test_everything_erases_keeps_only_the_axiom(self):
        t = WordTable(rules=(("a", ()),), scope=("a",))
        g = ET0LGrammar(
            alphabet=("a",), terminals=("a",), axiom="a", tables=(("1", t),)
        )
        prop = et0l_propagating(g)
        got = et0l_words(
            [dict_of(tab) for _, tab in prop.tables],
            prop.axiom,
            prop.terminals,
            max_len=6,
            max_steps=8,
        )
        assert got == {("a",)}

    def test_commitments_that_spell_alike(self):
        # {a, b} and {a+b} are both spelled "a+b" in table indices
        letters = ("a", "b", "a+b")
        rules = {"S": [letters], **{x: [(), (x,)] for x in letters}}
        t = WordTable(
            rules=tuple((x, w) for x, ws in rules.items() for w in ws),
            scope=tuple(rules),
        )
        g = ET0LGrammar(
            alphabet=tuple(rules), terminals=letters, axiom="S", tables=(("1", t),)
        )
        want = et0l_words([rules], "S", letters, max_len=3, max_steps=6)
        assert strings(et0l_to_phr(g), 3, max_steps=6) == want


def dict_of(tab: WordTable):
    out: dict[str, list] = {}
    for l, w in tab.rules:
        out.setdefault(l, []).append(tuple(w))
    for l in tab.scope:
        out.setdefault(l, [])
    return out


class TestEt0lToPhr:
    def test_rule_shape(self):
        g = fixture("a_pow2_et0l").grammar
        phr = et0l_to_phr(g)
        assert phr.order == 2
        assert all(phr.signature.arity(l) == 2 for l in phr.signature.labels)
        _, table = phr.tables[0]
        doubling = [r for r in table.rules if r.lhs == "a" and len(r.rhs.edges) == 2]
        assert any(is_isomorphic(r.rhs, string_graph("aa")) for r in doubling)

    def test_doubling_language(self):
        phr = et0l_to_phr(fixture("a_pow2_et0l").grammar)
        assert strings(phr, 16, max_steps=10) == {
            ("a",) * n for n in (1, 2, 4, 8, 16)
        }

    def test_erasing_grammar_loses_only_epsilon(self):
        t = WordTable(rules=(("a", ()), ("a", ("a", "a"))), scope=("a",))
        g = ET0LGrammar(
            alphabet=("a",), terminals=("a",), axiom="a", tables=(("1", t),)
        )
        phr = et0l_to_phr(g)
        want = et0l_words(
            [{"a": [(), ("a", "a")]}],
            "a",
            ("a",),
            max_len=8,
            max_steps=10,
            work_len=16,
        )
        assert strings(phr, 8, max_steps=30) == want

    def test_repetition_free(self):
        phr = et0l_to_phr(fixture("a_pow2_et0l").grammar)
        assert phr.repetition_free


# symbols that share prefixes, look like construction names, or lie beyond ASCII
SYMBOLS = ("a", "b", "S", "S.2", "~a", "@a|-", "ä")


def _word_table(rng, scope, letters) -> tuple[WordTable, dict]:
    """A random word table over ``scope`` whose words use ``letters``, one
    in four of them empty, and its images as the substitution oracle's."""
    def words():
        return {tuple(rng.choices(letters, k=rng.randint(0, 3))) for _ in range(rng.randint(1, 3))}

    images = {l: sorted(words()) for l in scope}
    rules = tuple((l, w) for l, ws in images.items() for w in ws)
    return WordTable(rules=rules, scope=tuple(scope)), images


def test_word_tables_step_as_their_graph_tables():
    """Seeded random word tables, some with symbols only on right-hand
    sides: ``et0l_step`` gives the words of the graph path under the
    table's ``graph_table`` and of the substitution oracle."""
    rng = random.Random(19)
    for case in range(120):
        letters = rng.sample(SYMBOLS, rng.randint(2, 5))
        scope = letters[: rng.randint(1, len(letters))]
        t, images = _word_table(rng, scope, letters)
        for _ in range(3):
            word = tuple(rng.choices(scope, k=rng.randint(0, 5)))
            want = subst_set([word], images)
            graphs = parallel_successors(string_graph(word), t.graph_table)
            assert {extract_string(h) for h in graphs} == want, (case, word)
            assert et0l_step(t, word) == want, (case, word)


def test_et0l_to_phr_tables_are_the_string_graph_tables():
    """Seeded random ET0L grammars, erasing ones included: each table of
    the embedding is, rule for rule, the propagating grammar's table read
    as string-graph rules."""
    rng = random.Random(20)
    for case in range(30):
        alphabet = rng.sample(SYMBOLS, rng.randint(2, 4))
        tables = tuple(
            (str(i), _word_table(rng, alphabet, alphabet)[0]) for i in range(rng.randint(1, 3))
        )
        g = ET0LGrammar(
            alphabet=tuple(alphabet),
            terminals=tuple(rng.sample(alphabet, rng.randint(1, len(alphabet)))),
            axiom=rng.choice(alphabet),
            tables=tables,
        )
        p = et0l_propagating(g)
        sig = Signature.of({a: 2 for a in p.alphabet})
        former = tuple(
            (i, Table(rules=tuple(Rule(l, string_graph(w)) for l, w in t.rules), scope=sig.labels))
            for i, t in p.tables
        )
        assert et0l_to_phr(g).tables == former, case


class TestRemoveControl:
    def words_both_ways(self, name, max_len):
        controlled = fixture(name).phr()
        flat = remove_control(controlled)
        lim_c = Limits(max_steps=30, max_nodes=60, max_edges=max_len)
        lim_f = Limits(max_steps=30, max_nodes=60, max_edges=max_len + 1)
        got_c = enumerate_strings(controlled, lim_c)
        got_f = enumerate_strings(flat, lim_f)
        assert got_c.saturated and got_f.saturated
        trim = lambda ws: {w for w in ws if len(w) <= max_len}
        return trim(set(got_c.words)), trim(set(got_f.words))

    def test_unrestricted_control_is_noise(self):
        before, after = self.words_both_ways("ctl_all", 5)
        assert before == after
        assert before

    def test_empty_control_kills_everything(self):
        before, after = self.words_both_ways("ctl_none", 5)
        assert before == after == set()

    def test_grow_then_stop(self):
        before, after = self.words_both_ways("ctl_plus0", 6)
        assert before == after
        assert ("a", "b") in before and ("b", "b") in before
        assert ("b",) not in before, "control demands a growth step before the stop"

    def test_output_is_plain_and_rf(self):
        flat = remove_control(fixture("ctl_plus0").phr())
        assert isinstance(flat, PHRGrammar)
        assert flat.repetition_free


class TestSubstitute:
    def test_identity_substitution(self):
        g = fixture("dyck_phr").phr()
        spec = {a: word_grammar((a,), [(a,)]) for a in ("a", "b")}
        assert strings(substitute(g, spec), 6) == DYCK6

    def test_two_way_choice(self):
        base = word_grammar(("a",), [("a",), ("a", "a")])
        image = word_grammar(("b",), [("b",), ("b", "b")])
        got = strings(substitute(base, {"a": image}), 4)
        want = subst_set(
            {("a",), ("a", "a")}, {"a": {("b",), ("b", "b")}}
        )
        assert got == want

    def test_composes_with_power_language(self):
        outer = word_grammar(("a",), [("a",)])
        inner = fixture("a_pow2").phr()
        got = strings(substitute(outer, {"a": inner}), 16, max_steps=12)
        assert got == {("a",) * n for n in (1, 2, 4, 8, 16)}

    def test_image_nonterminal_named_like_a_target_letter(self):
        # c is a nonterminal of a's image but a letter of b's, so a's c is
        # renamed; kept, it would be padded into a terminal and derive c
        sig = Signature.of({"S": 2, "c": 2, "d": 2})
        rules = (
            Rule("S", string_graph("c")),
            Rule("c", string_graph("dd")),
            Rule("d", handle("d", 2)),
        )
        image_a = PHRGrammar(sig, ("d",), "S", (("1", Table(rules, sig.labels)),), 2)
        image_b = word_grammar(("c",), [("c",)])
        out = substitute(word_grammar(("a", "b"), ["ab"]), {"a": image_a, "b": image_b})
        want = subst_set([("a", "b")], {"a": [("d", "d")], "b": [("c",)]})
        assert strings(out, 4) == want == {("d", "d", "c")}

    def test_preserves_validity_and_rf(self):
        g = fixture("dyck_phr").phr()
        image = word_grammar(("c",), [("c",), ("c", "c")])
        out = substitute(g, {"a": image, "b": word_grammar(("d",), [("d",)])})
        assert out.repetition_free
        got = strings(out, 4)
        want = subst_set(
            {w for w in DYCK6 if len(w) <= 4},
            {"a": {("c",), ("c", "c")}, "b": {("d",)}},
        )
        assert got == {w for w in want if len(w) <= 4}


class TestIterateSubstitution:
    def test_fixed_point_of_identity(self):
        base = word_grammar(("a",), [("a",), ("a", "a")])
        out = iterate_substitution(base, {"a": word_grammar(("a",), [("a",)])})
        assert strings(out, 5) == {("a",), ("a", "a")}

    def test_balanced_growth(self):
        base = word_grammar(("a", "b"), [("a",)])
        spec = {
            "a": word_grammar(("a", "b"), [("a",), ("b", "a", "b")]),
            "b": word_grammar(("b",), [("b",)]),
        }
        got = strings(iterate_substitution(base, spec), 5, max_steps=30)
        want = iterate_subst_set(
            {("a",)},
            {"a": {("a",), ("b", "a", "b")}, "b": {("b",)}},
            max_len=5,
        )
        assert got == want
        assert ("b", "b", "a", "b", "b") in got, "needs two substitution rounds"


class TestRationalOps:
    def test_union(self):
        g = rational_union(
            word_grammar(("a",), [("a",)]), word_grammar(("b",), [("b",)])
        )
        assert strings(g, 3) == {("a",), ("b",)}

    def test_union_overlapping(self):
        g = rational_union(
            word_grammar(("a", "b"), [("a",), ("a", "b")]),
            word_grammar(("a", "b"), [("a", "b"), ("b",)]),
        )
        assert strings(g, 3) == {("a",), ("b",), ("a", "b")}

    def test_concat(self):
        g = rational_concat(
            word_grammar(("a",), [("a",), ("a", "a")]),
            word_grammar(("b",), [("b",)]),
        )
        assert strings(g, 3) == concat_sets({("a",), ("a", "a")}, {("b",)})

    def test_concat_of_brackets(self):
        d = fixture("dyck_phr").phr()
        got = strings(rational_concat(d, d), 6)
        want = {
            w
            for w in concat_sets(DYCK6, DYCK6)
            if len(w) <= 6
        }
        assert got == want

    def test_plus(self):
        g = rational_plus(word_grammar(("a", "b"), [("a", "b")]))
        assert strings(g, 6) == plus_set({("a", "b")}, 6)

    def test_flags_survive(self):
        d = fixture("dyck_phr").phr()
        for out in (
            rational_union(d, d),
            rational_concat(d, d),
            rational_plus(d),
        ):
            assert out.repetition_free


def fsa(states, alphabet, transitions, initial, finals):
    return ControlAutomaton(
        states=tuple(states),
        alphabet=tuple(alphabet),
        transitions=tuple(transitions),
        initial=initial,
        finals=tuple(finals),
    )


class TestRationalIntersect:
    def meet_words(self, g, m, max_len):
        """Derivations pass a pre-decode form with one marker edge, so a
        word of length L needs an edge budget of L + 1."""
        out = rational_intersect(g, m)
        lim = Limits(
            max_steps=40,
            max_nodes=200,
            max_edges=max_len + 1,
            max_results=500_000,
        )
        res = enumerate_strings(out, lim)
        assert res.saturated
        return {w for w in res.words if len(w) <= max_len}

    def test_universal_automaton_changes_nothing(self):
        m = fsa(
            ("u",), ("a", "b"), (("u", "a", "u"), ("u", "b", "u")), "u", ("u",)
        )
        assert self.meet_words(fixture("dyck_phr").phr(), m, 6) == DYCK6

    def test_empty_automaton_kills_everything(self):
        m = fsa(("u",), ("a", "b"), (), "u", ())
        assert self.meet_words(fixture("dyck_phr").phr(), m, 6) == set()

    def test_brackets_meet_a_star_b_star(self):
        m = fsa(
            ("p", "q"),
            ("a", "b"),
            (("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")),
            "p",
            ("p", "q"),
        )
        assert self.meet_words(fixture("dyck_phr").phr(), m, 6) == {
            ("a", "b"),
            ("a", "a", "b", "b"),
            ("a", "a", "a", "b", "b", "b"),
        }

    def test_annotation_prunes_as_it_assigns(self):
        # the path a^5 fixes each node's state from the one before it: its
        # rule has 10 instances of 10 ** 6 assignments, which took seconds
        # to try one by one
        g = word_grammar(("a",), ["a" * 5])
        t0 = time.perf_counter()
        out = rational_intersect_controlled(g, cycle(10))
        assert time.perf_counter() - t0 < 0.5
        paths = [r.lhs for r in out.grammar.table("1").rules if len(r.rhs.edges) == 5]
        assert paths == [f"@S(q{i}|q{(i + 5) % 10})" for i in range(10)]

    def test_against_word_level_oracle(self):
        m = fsa(
            ("e", "o"),
            ("a", "b"),
            (("e", "a", "o"), ("o", "a", "e"), ("e", "b", "e"), ("o", "b", "o")),
            "e",
            ("e",),
        )
        want = {w for w in DYCK6 if w.count("a") % 2 == 0}
        assert self.meet_words(fixture("dyck_phr").phr(), m, 6) == want


def cycle(n: int) -> ControlAutomaton:
    """The ``n``-state cycle over ``a``; every state is reachable and live."""
    states = [f"q{i}" for i in range(n)]
    steps = [(q, "a", states[(i + 1) % n]) for i, q in enumerate(states)]
    return fsa(states, ("a",), steps, "q0", ("q0",))


class TestConstructionGuards:
    """Each size guard of a construction refuses an input beyond its bound
    with ``TransformError`` and the guard's own message."""

    def test_erasable_symbols(self):
        symbols = tuple(f"s{i}" for i in range(9))
        t = WordTable(rules=tuple((x, ()) for x in symbols), scope=symbols)
        g = ET0LGrammar(alphabet=symbols, terminals=symbols, axiom="s0", tables=(("1", t),))
        blowup = "^9 erasable symbols; commitment sets would blow up$"
        with pytest.raises(TransformError, match=blowup):
            et0l_propagating(g)

    def test_commitment_tables(self):
        t = WordTable(rules=(("a", ("a", "e")), ("e", ())), scope=("a", "e"))
        tables = tuple((str(i), t) for i in range(5_000))
        g = ET0LGrammar(alphabet=("a", "e"), terminals=("a",), axiom="a", tables=tables)
        with pytest.raises(TransformError, match="^commitment-set construction too large$"):
            et0l_propagating(g)

    def test_annotated_labels(self):
        # an arity-3 label takes 101 ** 3 annotations
        sig = Signature.of({"S": 2, "a": 2, "T": 3})
        rules = (Rule("S", string_graph("a")),) + tuple(Rule(l, handle(l, sig)) for l in "aT")
        table = Table(rules=rules, scope=sig.labels)
        g = PHRGrammar(sig, ("T", "a"), "S", (("1", table),), 3)
        with pytest.raises(TransformError, match="^state-annotation blowup$"):
            rational_intersect_controlled(g, cycle(101))

    def test_annotated_rule(self):
        # seven internal nodes take 10 ** 7 state assignments
        g = word_grammar(("a",), ["aaaaaaaa"])
        with pytest.raises(TransformError, match="^state-annotation blowup$"):
            rational_intersect_controlled(g, cycle(10))

    def test_annotated_rule_counts_its_external_nodes(self):
        # five internal and two external nodes take 10 ** 7 assignments;
        # counting the internal ones alone let this run for tens of seconds
        g = word_grammar(("a",), ["a" * 6])
        with pytest.raises(TransformError, match="^state-annotation blowup$"):
            rational_intersect_controlled(g, cycle(10))


def one_table(arities, terminals, rules, order=2):
    sig = Signature.of(arities)
    return PHRGrammar(sig, terminals, "S", (("1", Table(tuple(rules), sig.labels)),), order)


# S/1 -> a node with one a edge out of it
TYPE1 = one_table(
    {"S": 1, "a": 2},
    ("a",),
    [
        Rule("S", Hypergraph(("u", "v"), (Hyperedge("e", "a", ("u", "v")),), ("u",))),
        Rule("a", handle("a", 2)),
    ],
)
# the image word a next to a nullary terminal c
NULLARY = one_table(
    {"S": 2, "a": 2, "c": 0},
    ("a", "c"),
    [
        Rule("S", disjoint_union(string_graph("a"), handle("c", 0))),
        Rule("a", handle("a", 2)),
        Rule("c", handle("c", 0)),
    ],
)
# the word a over a signature holding the arity-3 terminal t
TERNARY = one_table(
    {"S": 2, "a": 2, "t": 3},
    ("a", "t"),
    [Rule("S", string_graph("a")), Rule("a", handle("a", 2)), Rule("t", handle("t", 3))],
    order=3,
)
A = word_grammar(("a",), ["a"])

# The refusals of the constructions that no other test reaches, each with
# its exact message.
REFUSALS = {
    "pad nullary terminal": (
        lambda: substitute(A, {"a": NULLARY}), "letter 'c' has arity 0"
    ),
    "substitute missing image": (
        lambda: substitute(word_grammar("ab", ["ab"]), {"a": A}), "no image for terminals: ['b']"
    ),
    "substitute ternary letter": (
        lambda: substitute(TERNARY, {"a": A, "t": A}), "substituted letter 't' must have arity 2"
    ),
    "substitute type-1 image": (
        lambda: substitute(A, {"a": TYPE1}), "image for 'a' must have a type-2 start"
    ),
    "iterate uncovered letter": (
        lambda: iterate_substitution(A, {"a": word_grammar("b", ["b"])}),
        "iterated substitution needs images for: ['b']",
    ),
    "apply_hom unknown mode": (
        lambda: apply_hom(A, {"a": "a"}, mode="x"), "unknown mode 'x'"
    ),
    "inverse_hom type-1 start": (
        lambda: inverse_hom(TYPE1, {"a": "a"}), "preimage needs a string grammar (type-2 start)"
    ),
    "intersect type-1 start": (
        lambda: rational_intersect(TYPE1, cycle(1)),
        "intersection needs a string grammar (type-2 start)",
    ),
    "free product overlap": (
        lambda: free_product_wp(A, A), "factor alphabets must be disjoint"
    ),
    "free product type-1 factor": (
        lambda: free_product_wp(TYPE1, word_grammar("b", ["b"])),
        "factors must be string grammars (type-2 start)",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message(case):
    build, message = REFUSALS[case]
    with pytest.raises(TransformError) as err:
        build()
    assert str(err.value) == message


class TestApplyHom:
    def test_identity(self):
        g = fixture("dyck_phr").phr()
        out = apply_hom(g, {"a": "a", "b": "b"})
        assert strings(out, 6) == DYCK6

    def test_letter_doubling(self):
        g = fixture("a_pow2").phr()
        out = apply_hom(g, {"a": ("b", "b")})
        want = hom_image(
            {("a",) * n for n in (1, 2, 4)}, {"a": ("b", "b")}
        )
        assert strings(out, 8, max_steps=10) == want

    def test_erasing_needs_general_mode(self):
        g = word_grammar(("a", "b"), [("a", "b")])
        with pytest.raises(TransformError):
            apply_hom(g, {"a": ("a",), "b": ()})
        out = apply_hom(g, {"a": ("a",), "b": ()}, mode="general")
        assert strings(out, 3) == {("a",)}

    def test_merging_hom_on_brackets(self):
        g = fixture("dyck_phr").phr()
        out = apply_hom(g, {"a": ("c",), "b": ("c",)})
        want = hom_image(DYCK6, {"a": ("c",), "b": ("c",)})
        assert strings(out, 6) == want


class TestInverseHom:
    def test_only_erased_letters(self):
        out = inverse_hom(fixture("dyck_phr").phr(), {"x": ()})
        res = enumerate_strings(out, Limits(max_steps=10))
        assert (res.words, res.exhaustive, res.saturated) == ((), True, True)

    def test_identity(self):
        g = fixture("dyck_phr").phr()
        out = inverse_hom(g, {"a": ("a",), "b": ("b",)})
        got = strings(out, 5, max_steps=40, max_nodes=60)
        assert got == {w for w in DYCK6 if len(w) <= 5}

    def test_block_coding(self):
        m = fsa(("s", "t"), ("a",), (("s", "a", "t"), ("t", "a", "s")), "s", ("s",))
        even = regular_to_phr(m)
        out = inverse_hom(even, {"x": ("a", "a")})
        lim = Limits(max_steps=40, max_nodes=60, max_edges=9, max_results=500_000)
        res = enumerate_strings(out, lim)
        assert res.saturated
        got = {w for w in res.words if len(w) <= 4}
        want = preimage_words(
            ("x",),
            {"x": ("a", "a")},
            max_len=4,
            in_target=lambda w: set(w) == {"a"} and len(w) % 2 == 0,
        )
        assert got == want == {("x",) * n for n in (1, 2, 3, 4)}

    def test_erasing_letters(self):
        g = word_grammar(("a", "b"), [("a", "b")])
        out = inverse_hom(g, {"x": ("a", "b"), "y": ()})
        lim = Limits(max_steps=40, max_nodes=60, max_edges=7, max_results=500_000)
        res = enumerate_strings(out, lim)
        assert res.saturated
        got = {w for w in res.words if len(w) <= 3}
        want = preimage_words(
            ("x", "y"),
            {"x": ("a", "b"), "y": ()},
            max_len=3,
            in_target=lambda w: w == ("a", "b"),
        )
        assert got == want
        assert len(want) == 6

    def test_letter_imaged_outside_the_terminals(self):
        # c is no terminal of dyck_phr, so z spells no block: only the
        # powers of x remain, and z's block adds no state to the product
        # even where its image starts with a terminal
        g = fixture("dyck_phr").phr()
        lim = Limits(max_steps=40, max_nodes=80, max_edges=7, max_results=500_000)
        labels = []
        for image in (("c",), ("a", "c")):
            mapping = {"x": ("a", "b"), "z": image}
            out = inverse_hom(g, mapping)
            res = enumerate_strings(out, lim)
            assert res.saturated
            got = {w for w in res.words if len(w) <= 3}
            want = preimage_words(("x", "z"), mapping, max_len=3, in_target=is_dyck)
            assert got == want == {("x",) * n for n in (1, 2, 3)}
            labels.append(out.signature.labels)
        assert labels[0] == labels[1]

    def test_splitting_hom_against_oracle(self):
        g = fixture("dyck_phr").phr()
        mapping = {"c": ("a",), "d": ("a", "b"), "e": ("b",)}
        out = inverse_hom(g, mapping)
        # A preimage word of length L spells its image before decoding,
        # so the pre-decode form holds up to 2L + 1 edges.
        lim = Limits(max_steps=40, max_nodes=80, max_edges=7, max_results=500_000)
        res = enumerate_strings(out, lim)
        assert res.saturated
        got = {w for w in res.words if len(w) <= 3}
        want = preimage_words(
            ("c", "d", "e"), mapping, max_len=3, in_target=is_dyck
        )
        assert got == want
        assert ("c", "d", "e") in want


def forced_rewrite_grammar():
    """A grammar whose tables force labels to rewrite; L = {ba}.

    Table 1 gives S -> XY, table 2 X -> b with Y -> Z, table 3 Z -> a and
    table 4 X -> a with Y -> D; every other label idles.  Only the trace
    1 2 3 ends in a word: X can turn into a only while Y turns into the
    dead end D.
    """
    sig = Signature.of({l: 2 for l in ("S", "X", "Y", "Z", "D", "a", "b")})
    tables = {
        "1": {"S": ("X", "Y")},
        "2": {"X": ("b",), "Y": ("Z",)},
        "3": {"Z": ("a",)},
        "4": {"X": ("a",), "Y": ("D",)},
    }
    return PHRGrammar(
        signature=sig,
        terminals=("a", "b"),
        start="S",
        tables=tuple(
            (
                index,
                override_table(
                    identity_table(sig),
                    [Rule(l, string_graph(w)) for l, w in rules.items()],
                ),
            )
            for index, rules in tables.items()
        ),
        order=2,
    )


class TestForcedRewriting:
    """An annotated label whose every rule instance is pruned in a table
    that must rewrite it dies there; it may not idle through it."""

    def words(self, g):
        lim = Limits(max_steps=40, max_nodes=60, max_edges=8, max_results=500_000)
        res = enumerate_strings(g, lim)
        assert res.saturated
        return set(res.words)

    def test_source_language(self):
        assert self.words(forced_rewrite_grammar()) == {("b", "a")}

    def test_intersection(self):
        g = forced_rewrite_grammar()
        a_star = fsa(("p",), ("a", "b"), (("p", "a", "p"),), "p", ("p",))
        assert self.words(rational_intersect(g, a_star)) == set()
        all_ab = fsa(("p",), ("a", "b"), (("p", "a", "p"), ("p", "b", "p")), "p", ("p",))
        assert self.words(rational_intersect(g, all_ab)) == {("b", "a")}

    def test_preimage(self):
        g = forced_rewrite_grammar()
        assert self.words(inverse_hom(g, {"x": ("a",)})) == set()
        assert self.words(inverse_hom(g, {"x": ("b",), "y": ("a",)})) == {("x", "y")}


class TestRegularToPhr:
    def test_a_star(self):
        m = fsa(("u",), ("a",), (("u", "a", "u"),), "u", ("u",))
        g = regular_to_phr(m)
        assert strings(g, 5) == {("a",) * n for n in range(1, 6)}

    def test_ab_plus(self):
        m = fsa(
            ("s", "t"), ("a", "b"), (("s", "a", "t"), ("t", "b", "s")), "s", ("s",)
        )
        g = regular_to_phr(m)
        assert strings(g, 4) == {("a", "b"), ("a", "b", "a", "b")}

    def test_empty_language(self):
        m = fsa(("s",), ("a",), (), "s", ())
        g = regular_to_phr(m)
        assert strings(g, 4) == set()

    def test_empty_alphabet(self):
        g = regular_to_phr(fsa(("s",), (), (), "s", ("s",)))
        res = enumerate_strings(g, Limits(max_steps=10))
        assert (res.words, res.exhaustive) == ((), True)

    def test_nondeterministic_input(self):
        m = fsa(
            ("s", "p", "q"),
            ("a",),
            (("s", "a", "p"), ("s", "a", "q"), ("q", "a", "q")),
            "s",
            ("p", "q"),
        )
        g = regular_to_phr(m)
        assert strings(g, 4) == {("a",) * n for n in (1, 2, 3, 4)}


class TestFreeProductWp:
    def test_rank_two_free_group_spot_checks(self):
        g = fixture("f2_wp").phr()
        lim = Limits(max_steps=30, max_nodes=40, max_edges=4, max_results=200_000)
        yes = member_string(g, "abBA", lim)
        assert yes.verdict == "yes"
        no = member_string(g, "abAB", lim)
        assert no.verdict == "no-within-limits"

    def test_factor_languages_embed(self):
        g = fixture("f2_wp").phr()
        got = strings(g, 4, max_steps=30, max_nodes=40)
        for w in got:
            assert free_trivial(w, F2_INVERSE)
        assert ("a", "A") in got and ("b", "B") in got
        assert ("a", "b", "B", "A") in got

    def test_infinite_dihedral_against_oracle(self):
        g = fixture("dihedral_wp").phr()
        got = strings(g, 6, max_steps=40, max_nodes=40)
        want = {
            w for w in all_words(("a", "b"), 6) if free_trivial(w, DIHEDRAL_INVERSE)
        }
        assert got == want

    def test_monotone_flags_for_completeness(self):
        g = fixture("f2_wp").phr()
        assert g.edge_monotone and g.node_monotone

    def test_fresh_construction_matches_fixture(self):
        z1 = fixture("z_wp").phr()
        z2 = relabel_grammar(z1, {"a": "b", "A": "B"})
        rebuilt = free_product_wp(z1, z2)
        fixed = fixture("f2_wp").phr()
        lim = Limits(max_steps=30, max_nodes=40, max_edges=4, max_results=200_000)
        a = set(enumerate_strings(rebuilt, lim).words)
        b = set(enumerate_strings(fixed, lim).words)
        assert a == b

    def test_table_indices_that_spell_alike(self):
        # the pairs ("1", "2.3") and ("1.2", "3") both spell "1.2.3"
        z = fixture("z_wp").phr()
        zb = relabel_grammar(z, {"a": "b", "A": "B"})
        [(_, t)], [(_, tb)] = z.tables, zb.tables
        g = free_product_wp(
            dataclasses.replace(z, tables=(("1", t), ("1.2", t))),
            dataclasses.replace(zb, tables=(("2.3", tb), ("3", tb))),
        )
        assert len(set(g.table_indices)) == 4
        want = {w for w in all_words("aAbB", 4) if free_trivial(w, F2_INVERSE)}
        assert strings(g, 4, max_steps=30, max_nodes=40) == want


class TestRelabel:
    def test_relabelled_brackets(self):
        g = relabel_grammar(fixture("dyck_phr").phr(), {"a": "x", "b": "y"})
        got = strings(g, 4)
        want = {
            tuple("x" if s == "a" else "y" for s in w)
            for w in DYCK6
            if len(w) <= 4
        }
        assert got == want

    def test_clashing_relabel_rejected(self):
        g = fixture("dyck_phr").phr()
        with pytest.raises(TransformError):
            relabel_grammar(g, {"a": "S"})
