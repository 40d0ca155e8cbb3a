"""Rule checks: one message per violation kind, whichever way a grammar is
built, and cached per-rule facts that never outlive their signature."""

import json
import random

import pytest

from phrg import (
    GrammarError,
    HRGrammar,
    Hypergraph,
    ParseError,
    PHRGrammar,
    Rule,
    Signature,
    Table,
    fixture,
    fixture_names,
    handle,
    string_graph,
)
from phrg import transforms as tf
from phrg.grammar import word_form
from phrg.hypergraph import Hyperedge, to_json_obj, validate
from phrg.textfmt import GrammarDocument, parse_document, serialize_document

SIG = Signature.of({"S": 2, "a": 2, "b": 2})
IDS = (Rule("a", handle("a", 2)), Rule("b", handle("b", 2)))
E = Hyperedge
INVALID = "rule for 'S': invalid right-hand side: "

# kind: (right-hand side for S, the message of every grammar that holds it)
FAULTS = {
    "dangling-ref": (
        Hypergraph(("u", "v"), (E("e", "a", ("u", "w")),), ("u", "v")),
        INVALID + "dangling-ref(e): attachment node 'w' missing",
    ),
    "dangling ext": (
        Hypergraph(("u", "v"), (E("e", "a", ("u", "v")),), ("u", "w")),
        INVALID + "dangling-ref(ext[1]): external node 'w' missing",
    ),
    "duplicate-node": (
        Hypergraph(("u", "u", "v"), (E("e", "a", ("u", "v")),), ("u", "v")),
        INVALID + "duplicate-node(u): node id occurs twice",
    ),
    "duplicate-edge": (
        Hypergraph(("u", "v"), (E("e", "a", ("u", "v")), E("e", "b", ("v", "u"))), ("u", "v")),
        INVALID + "duplicate-edge(e): edge id occurs twice",
    ),
    "unknown-label": (
        Hypergraph(("u", "v"), (E("e", "Z", ("u", "v")),), ("u", "v")),
        INVALID + "unknown-label(e): label 'Z' not in signature",
    ),
    "arity-mismatch": (
        Hypergraph(("u", "v"), (E("e", "a", ("u",)),), ("u", "v")),
        INVALID + "arity-mismatch(e): label 'a' has arity 2, attachment has length 1",
    ),
    "type mismatch": (
        Hypergraph(("u", "v", "w"), (E("e", "a", ("u", "v")),), ("u", "v", "w")),
        "rule for 'S': right-hand side has type 3, label has arity 2",
    ),
}

# one right-hand side with a structural fault and two signature faults
MIXED = Hypergraph(("u", "v"), (E("e1", "Z", ("u", "w")), E("e2", "a", ("u",))), ("u", "v"))
# a rule's structure is checked first, and alone, by every route: a table
# has no signature, so structure is all that it can report
MIXED_STRUCTURAL = INVALID + "dangling-ref(e1): attachment node 'w' missing"


def phr(rhs: Hypergraph) -> PHRGrammar:
    table = Table((Rule("S", rhs),) + IDS, SIG.labels)
    return PHRGrammar(SIG, ("a", "b"), "S", (("1", table),), 2)


def hr(rule: Rule, sig: Signature = SIG, order: int = 2) -> HRGrammar:
    return HRGrammar(sig, ("S",), "S", (rule,), order)


def literal(rhs: Hypergraph) -> str:
    return json.dumps(to_json_obj(rhs), separators=(",", ":"), sort_keys=True)


def phr_text(*rules: str) -> str:
    head = ["kind phr", "order 3", "signature", "S/2", "a/2", "b/2", "terminals a b"]
    return "\n".join(head + ["start S", "table 1", *rules, "a -> handle(a)", "b -> handle(b)"])


def hr_text(*rules: str) -> str:
    head = ["kind hr", "order 3", "signature", "S/2", "a/2", "b/2", "nonterminals S"]
    return "\n".join(head + ["start S", "rules", *rules])


def message(build) -> str:
    with pytest.raises((GrammarError, ParseError)) as err:
        build()
    return str(err.value)


class TestViolationMessages:
    @pytest.mark.parametrize("kind", FAULTS)
    def test_direct_construction(self, kind):
        rhs, want = FAULTS[kind]
        assert message(lambda: phr(rhs)) == want
        assert message(lambda: hr(Rule("S", rhs), order=3)) == want

    @pytest.mark.parametrize("kind", FAULTS)
    def test_parsed_document(self, kind):
        rhs, want = FAULTS[kind]
        rule = "S -> " + literal(rhs)
        assert message(lambda: parse_document(phr_text(rule))) == f"line 10, col 1: {want}"
        assert message(lambda: parse_document(hr_text(rule))) == f"line 10, col 1: {want}"

    def test_mixed_faults(self):
        assert message(lambda: phr(MIXED)) == MIXED_STRUCTURAL
        assert message(lambda: hr(Rule("S", MIXED))) == MIXED_STRUCTURAL
        for text in (phr_text, hr_text):
            doc = text("S -> " + literal(MIXED))
            assert message(lambda: parse_document(doc)) == f"line 10, col 1: {MIXED_STRUCTURAL}"

    @pytest.mark.parametrize("kind", ["duplicate-node", "duplicate-edge"])
    def test_table_refuses_a_repeated_id(self, kind):
        """A table has no signature but checks structure: keying alone would
        let a repeated node or edge id through."""
        rhs, want = FAULTS[kind]
        assert message(lambda: Table((Rule("S", rhs),) + IDS, SIG.labels)) == want

    def test_left_hand_side_outside_domain(self):
        assert message(lambda: hr(Rule("a", string_graph("b")))) == (
            "rule for label 'a' outside its domain"
        )
        text = hr_text('S -> str("a")', 'a -> str("b")')
        assert message(lambda: parse_document(text)) == (
            "line 11, col 1: rule for label 'a' outside its domain"
        )
        text = phr_text('Z -> str("a")')
        assert message(lambda: parse_document(text)) == (
            "line 10, col 1: rule for label 'Z' outside its domain"
        )

    @pytest.mark.parametrize("text", [phr_text, hr_text])
    def test_str_rule_with_unknown_letter(self, text):
        # "a c" has whitespace, so it is the two letters a and c
        assert message(lambda: parse_document(text('S -> str("a c")'))) == (
            "line 10, col 1: " + INVALID + "unknown-label(e2): label 'c' not in signature"
        )


def random_rhs(rng: random.Random) -> Hypergraph:
    """A right-hand side for ``S`` that may dangle (node ``q``), repeat a
    node or edge id, use the unknown label ``Z``, mismatch an arity or
    have type 3."""
    nodes = rng.sample(["u", "v", "w"], rng.randint(1, 3))
    if rng.random() < 0.15:
        nodes.append(rng.choice(nodes))

    def node() -> str:
        return "q" if rng.random() < 0.07 else rng.choice(nodes)

    edges = tuple(
        E(f"e{rng.randint(1, 4)}", rng.choice("abSabZ"), tuple(node() for _ in range(arity)))
        for arity in rng.choices((2, 2, 2, 2, 1, 3), k=rng.randint(0, 3))
    )
    ext = tuple(node() for _ in range(rng.choice((2, 2, 2, 2, 2, 3))))
    return Hypergraph(tuple(nodes), edges, ext)


def expected(rhs: Hypergraph) -> str | None:
    """Structural faults alone when there are any, then the type, then the
    signature faults; None when the rule is sound."""
    structural = validate(rhs)
    if not structural and rhs.type != 2:
        return f"rule for 'S': right-hand side has type {rhs.type}, label has arity 2"
    faults = structural or validate(rhs, SIG)
    if not faults:
        return None
    return INVALID + "; ".join(f"{v.kind}({v.subject}): {v.detail}" for v in faults)


def outcome(build) -> str | None:
    try:
        build()
    except (GrammarError, ParseError) as err:
        return str(err).removeprefix("line 10, col 1: ")
    return None


def test_every_route_gives_one_message():
    """300 seeded right-hand sides for ``S``: direct ``Table`` and
    ``PHRGrammar``, direct ``HRGrammar`` and both parsed document kinds
    refuse each with one message, or all accept it."""
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        rhs = random_rhs(rng)
        rule = "S -> " + literal(rhs)
        routes = (
            lambda: phr(rhs),
            lambda: hr(Rule("S", rhs), order=3),
            lambda: parse_document(phr_text(rule)),
            lambda: parse_document(hr_text(rule)),
        )
        want = expected(rhs)
        assert [outcome(build) for build in routes] == [want] * 4, rhs
        seen |= {"ext" if v.subject.startswith("ext") else v.kind for v in validate(rhs, SIG)}
        seen |= {"type"} if rhs.type != 2 else {"sound"} if want is None else set()
    assert seen == {"ext", "type", "sound"} | {k for k in FAULTS if "-" in k}


def phr_of(rule: Rule, sig: Signature = SIG) -> PHRGrammar:
    """The one-table grammar of ``rule`` and a handle for every other label."""
    others = tuple(Rule(l, handle(l, sig)) for l in sig.labels if l != "S")
    table = Table((rule,) + others, sig.labels)
    return PHRGrammar(sig, tuple(l for l in sig.labels if l != "S"), "S", (("1", table),), 3)


@pytest.mark.parametrize("build", [phr_of, lambda rule, sig=SIG: hr(rule, sig, order=3)])
def test_check_cache_does_not_leak_between_signatures(build):
    """One rule object, checked against a signature that accepts it, one
    that lacks a label of its right-hand side and one with another arity."""
    rule = Rule("S", string_graph("ab"))
    build(rule)
    missing = Signature.of({"S": 2, "a": 2})
    assert message(lambda: build(rule, missing)) == (
        INVALID + "unknown-label(e2): label 'b' not in signature"
    )
    other = Signature.of({"S": 2, "a": 2, "b": 3})
    assert message(lambda: build(rule, other)) == (
        INVALID + "arity-mismatch(e2): label 'b' has arity 3, attachment has length 2"
    )
    build(rule)


DOCUMENTS = {
    **{name: lambda name=name: fixture(name) for name in fixture_names()},
    "hr-to-phr": lambda: tf.hr_to_phr(fixture("dyck_hr").grammar),
    "apply-hom": lambda: tf.apply_hom(
        fixture("dyck_phr").phr(), {"a": ("b", "b"), "b": ()}, mode="general"
    ),
    "inverse-hom": lambda: tf.inverse_hom(fixture("dyck_phr").phr(), {"x": ("a", "b"), "y": ()}),
    "plus": lambda: tf.rational_plus(fixture("dyck_phr").phr()),
    "substitute": lambda: tf.substitute(
        fixture("dyck_phr").phr(), {"a": fixture("a_pow2").phr(), "b": fixture("a_pow2").phr()}
    ),
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_parsed_rules_know_what_they_would_compute(name):
    """A parsed rule is given its word form and its labels' arities; each
    equals what the same rule computes from its right-hand side."""
    doc = DOCUMENTS[name]()
    if not isinstance(doc, GrammarDocument):
        doc = GrammarDocument(kind="phr", grammar=doc)
    g = parse_document(serialize_document(doc)).grammar
    if isinstance(g, HRGrammar):
        rules = g.rules
    else:
        rules = [r for _, t in g.tables for r in t.rules if isinstance(r, Rule)]  # not et0l
    for r in rules:
        assert (r.form, r.arities) == (word_form(r.rhs), Rule(r.lhs, r.rhs).arities)
