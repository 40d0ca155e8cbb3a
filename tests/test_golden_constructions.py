"""Serialized outputs of the homomorphism and intersection constructions.

Each case builds one grammar and compares the sha256 digest of its
serialized document with ``golden/constructions.json``, so a refactor of
a construction cannot change its output unnoticed.  Each document must
also parse back to the grammar that was built and serialize to the same
text, so a refactor of the text format cannot change it either.  The cases cross the
string-grammar fixtures with a few automata and homomorphisms, and add
the constructions of the benchmark's ``closure`` workload with plain
state names.  The built-in fixtures are pinned the same way, in
``golden/fixtures.json``.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from phrg import (
    ControlAutomaton,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    apply_hom,
    fixture,
    fixture_names,
    handle,
    hr_to_phr,
    inverse_hom,
    iterate_substitution,
    rational_concat,
    rational_intersect,
    rational_plus,
    rational_union,
    regular_to_phr,
    string_graph,
    substitute,
)
from phrg.textfmt import GrammarDocument, parse_document, serialize_document

GOLDEN = Path(__file__).parent / "golden" / "constructions.json"
FIXTURES = Path(__file__).parent / "golden" / "fixtures.json"

STRING_FIXTURES = ("dyck_phr", "dyck_hr", "z_wp", "f2_wp", "dihedral_wp", "copy_dyck_K")


def fsa(states, alphabet, transitions, initial, finals):
    return ControlAutomaton(
        states=tuple(states),
        alphabet=tuple(alphabet),
        transitions=tuple(transitions),
        initial=initial,
        finals=tuple(finals),
    )


AUTOMATA = {
    "all_ab": fsa("u", "ab", [("u", "a", "u"), ("u", "b", "u")], "u", "u"),
    # reads no b at all, so every b edge must die
    "a_star": fsa("p", "ab", [("p", "a", "p")], "p", "p"),
    "ends_ab": fsa(
        "pqr", "ab", [("p", "a", "p"), ("p", "b", "p"), ("p", "a", "q"), ("q", "b", "r")],
        "p", "r",
    ),
    "aA_star": fsa("pq", ("a", "A"), [("p", "a", "q"), ("q", "A", "p")], "p", "p"),
}


def finite_language(letters, words) -> PHRGrammar:
    sig = Signature.of({"S": 2, **{a: 2 for a in letters}})
    rules = [Rule("S", string_graph(tuple(w))) for w in words]
    rules += [Rule(a, handle(a, 2)) for a in letters]
    return PHRGrammar(
        signature=sig,
        terminals=tuple(letters),
        start="S",
        tables=(("1", Table(rules=tuple(rules), scope=sig.labels)),),
        order=2,
    )


def _fixture_cases() -> dict:
    cases = {}
    for name in STRING_FIXTURES:
        g = fixture(name).phr()
        letters = sorted(g.terminals)
        s, t = letters[:2]
        ident = {l: (l,) for l in letters}
        for an, m in AUTOMATA.items():
            cases[f"intersect {name} {an}"] = (rational_intersect, (g, m), {})
        preimages = {
            "identity": ident,
            "blocks": {"x": (s, t), "y": (t,)},
            "erasing": {"x": (s,), "y": ()},
        }
        for hn, h in preimages.items():
            cases[f"inverse {name} {hn}"] = (inverse_hom, (g, h), {})
        images = {
            "identity": ident,
            "doubling": {**ident, s: (t, t)},
            "erasing": {**ident, s: ()},
        }
        for hn, h in images.items():
            cases[f"hom {name} {hn}"] = (apply_hom, (g, h), {"mode": "general"})
    return cases


# The benchmark's closure workload, with its automata's states unrenamed.
_CLOSURE_AUTOMATA = {
    "a*b*": ([("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")], ["p", "q"]),
    "(ab)*": ([("p", "a", "q"), ("q", "b", "p")], ["p"]),
    "aa(a|b)*": ([("p", "a", "q"), ("q", "a", "r"), ("r", "a", "r"), ("r", "b", "r")], ["r"]),
    "no bb": ([("p", "a", "p"), ("p", "b", "q"), ("q", "a", "p")], ["p", "q"]),
    "even a": ([("p", "a", "q"), ("q", "a", "p"), ("p", "b", "p"), ("q", "b", "q")], ["p"]),
}


def _closure_cases() -> dict:
    dyck = fixture("dyck_phr").phr()
    dyck_phr = hr_to_phr(fixture("dyck_hr").grammar)
    one = {a: finite_language((a,), [(a,)]) for a in ("a", "b")}
    ab = finite_language(("a", "b"), [("a", "b")])
    even = fsa("st", "a", [("s", "a", "t"), ("t", "a", "s")], "s", "s")
    cases = {}
    for name, (transitions, finals) in _CLOSURE_AUTOMATA.items():
        states = sorted({q for tr in transitions for q in (tr[0], tr[2])} | {"p"})
        m = fsa(states, "ab", transitions, "p", finals)
        cases[f"closure intersect {name}"] = (rational_intersect, (dyck_phr, m), {})
    cases["closure substitute identity"] = (substitute, (dyck, one), {})
    cases["closure substitute finite"] = (
        substitute,
        (
            finite_language(("a",), [("a",), ("a", "a")]),
            {"a": finite_language(("b",), [("b",), ("b", "b")])},
        ),
        {},
    )
    cases["closure iterate substitution"] = (
        iterate_substitution,
        (
            finite_language(("a", "b"), [("a",)]),
            {"a": finite_language(("a", "b"), [("a",), ("b", "a", "b")]), "b": one["b"]},
        ),
        {},
    )
    cases["closure union"] = (rational_union, (one["a"], one["b"]), {})
    cases["closure concat"] = (
        rational_concat, (finite_language(("a",), [("a",), ("a", "a")]), one["b"]), {}
    )
    cases["closure plus"] = (rational_plus, (ab,), {})
    cases["closure hom identity"] = (apply_hom, (dyck, {"a": ("a",), "b": ("b",)}), {})
    cases["closure hom doubling"] = (
        apply_hom, (fixture("a_pow2").phr(), {"a": ("b", "b")}), {}
    )
    cases["closure inverse identity"] = (
        inverse_hom, (dyck, {"a": ("a",), "b": ("b",)}), {}
    )
    cases["closure inverse blocks"] = (
        inverse_hom, (regular_to_phr(even), {"x": ("a", "a")}), {}
    )
    cases["closure inverse erasing"] = (inverse_hom, (ab, {"x": ("a", "b"), "y": ()}), {})
    return cases


CASES = {**_fixture_cases(), **_closure_cases()}


@lru_cache(maxsize=None)
def built(name: str) -> tuple[PHRGrammar, str]:
    """The case's grammar and its serialized document, built once per
    session."""
    build, args, kwargs = CASES[name]
    grammar = build(*args, **kwargs)
    return grammar, serialize_document(GrammarDocument(kind="phr", grammar=grammar))


def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_digest():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_output_unchanged(name):
    _, text = built(name)
    assert hashlib.sha256(text.encode()).hexdigest() == golden()[name]


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_output_unchanged(name):
    text = serialize_document(fixture(name))
    digests = json.loads(FIXTURES.read_text())
    assert sorted(digests) == sorted(fixture_names())
    assert hashlib.sha256(text.encode()).hexdigest() == digests[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_output_round_trips(name):
    grammar, text = built(name)
    parsed = parse_document(text)
    assert parsed.grammar == grammar
    assert serialize_document(parsed) == text
