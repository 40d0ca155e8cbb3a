"""Text formats, JSON graphs, DOT export, and the command line."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from phrg import (
    ControlAutomaton,
    Hypergraph,
    Limits,
    ParseError,
    enumerate_strings,
    fixture,
    fixture_names,
    handle,
    hypergraph,
    relabel_grammar,
    string_graph,
)
from phrg import transforms as tf
from phrg.cli import _TRANSFORMS, main
from phrg.dot import export_dot
from phrg.hypergraph import from_json, to_json
from phrg.textfmt import (
    _KEYWORDS,
    GrammarDocument,
    parse_document,
    parse_fsa,
    serialize_document,
    serialize_fsa,
)
from oracles import is_dyck

GOLDEN = Path(__file__).parent / "golden"


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("name", fixture_names())
    def test_serialize_parse_serialize(self, name):
        doc = fixture(name)
        text = serialize_document(doc)
        again = serialize_document(parse_document(text))
        assert text == again

    def test_parsed_grammar_matches_original(self):
        doc = fixture("dyck_phr")
        parsed = parse_document(serialize_document(doc))
        assert parsed.kind == doc.kind
        assert parsed.grammar == doc.grammar

    def test_control_block_survives(self):
        doc = fixture("ctl_plus0")
        parsed = parse_document(serialize_document(doc))
        assert parsed.control is not None
        got = parsed.control.determinize_complete()
        want = doc.control.determinize_complete()
        for trace in (("1", "0"), ("0",), ("1", "2", "0"), ()):
            assert got.accepts(trace) == want.accepts(trace)

    @pytest.mark.parametrize("name", ["dyck_phr", "ctl_plus0"])
    @pytest.mark.parametrize("keyword", sorted(_KEYWORDS))
    def test_keyword_label_round_trips(self, name, keyword):
        doc = fixture(name)
        g = relabel_grammar(doc.grammar, {doc.grammar.start: keyword})
        parsed = parse_document(serialize_document(dataclasses.replace(doc, grammar=g)))
        assert parsed.grammar == g
        assert parsed.control == doc.control

    @pytest.mark.parametrize("label", ["", "#S", "S/x", "S x", "S\tx"])
    def test_unspellable_label_rejected(self, label):
        g = relabel_grammar(fixture("dyck_phr").grammar, {"S": label})
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            serialize_document(GrammarDocument(kind="phr", grammar=g))

    def test_arrow_table_index_round_trips(self):
        g = fixture("dyck_phr").grammar
        g = dataclasses.replace(g, tables=g.tables + (("->", g.tables[0][1]),))
        doc = GrammarDocument(kind="phr", grammar=g)
        assert parse_document(serialize_document(doc)) == doc

    def test_quote_in_label_round_trips(self):
        g = relabel_grammar(fixture("dyck_phr").grammar, {"a": 'a"b'})
        text = serialize_document(GrammarDocument(kind="phr", grammar=g))
        assert parse_document(text).grammar == g

    @pytest.mark.parametrize(
        "token", ["table index 'x y'", "state 'p q'", "automaton symbol 'a b'", "name 'a\\nb'"]
    )
    def test_unspellable_token_rejected(self, token):
        dyck = fixture("dyck_phr")

        def fsa(state, symbol):
            return ControlAutomaton(
                states=(state,),
                alphabet=(symbol,),
                transitions=((state, symbol, state),),
                initial=state,
                finals=(state,),
            )

        table = dyck.grammar.tables[0][1]
        write = {
            "table index 'x y'": lambda: serialize_document(
                dataclasses.replace(
                    dyck, grammar=dataclasses.replace(dyck.grammar, tables=(("x y", table),))
                )
            ),
            "state 'p q'": lambda: serialize_document(
                dataclasses.replace(dyck, control=fsa("p q", "1"))
            ),
            "automaton symbol 'a b'": lambda: serialize_fsa(fsa("p", "a b")),
            "name 'a\\nb'": lambda: serialize_document(dataclasses.replace(dyck, name="a\nb")),
        }[token]
        with pytest.raises(ValueError, match=re.escape(token)):
            write()


# Small valid documents; each diagnostic case below breaks one line of one.
PHR = ["kind phr", "order 2", "signature", "S/2", "a/2", "terminals a", "start S",
       "table 1", 'S -> str("a")', "a -> handle(a)"]
HR = ["kind hr", "order 2", "signature", "S/2", "a/2", "nonterminals S", "start S",
      "rules", 'S -> str("a")']
ET0L = ["kind et0l", "alphabet S a", "terminals a", "start S", "table 1",
        'S -> str("a")', 'a -> str("a")']
CONTROL = ["control", "state p", "init p", "final p", "trans p 1 p"]


def doc(base, at=None, *insert, drop=0):
    """``base`` with ``drop`` lines removed at line ``at`` (1-based; None
    appends) and ``insert`` put in their place."""
    lines = list(base)
    if at is None:
        at = len(lines) + 1
    lines[at - 1 : at - 1 + drop] = insert
    return "\n".join(lines) + "\n"


JSON_RHS = (
    '{"format_version":1,"nodes":["u","v"],'
    '"edges":[{"id":"e","label":%s,"att":%s}],"ext":["u","v"]}'
)

# name: (document, line of the diagnostic, its message)
DIAGNOSTICS = {
    "unknown keyword": (
        doc(PHR, 2, "frobnicate yes"),
        2,
        "unknown keyword 'frobnicate'",
    ),
    "state outside control": (
        doc(PHR, 2, "state p"),
        2,
        "'state' outside a control block",
    ),
    "duplicate init": (doc(PHR + CONTROL, 13, "init p"), 14, "duplicate init"),
    "long init": (
        doc(PHR + CONTROL, 13, "init p q", drop=1),
        13,
        "'init' takes exactly one token",
    ),
    "short trans": (
        doc(PHR + CONTROL, 15, "trans p 1", drop=1),
        15,
        "trans takes exactly three tokens",
    ),
    "long kind": (
        doc(PHR, 1, "kind phr hr", drop=1),
        1,
        "'kind' takes exactly one token",
    ),
    "duplicate kind": (doc(PHR, 2, "kind phr"), 2, "duplicate kind"),
    "unknown kind": (
        doc(PHR, 1, "kind sandwich", drop=1),
        1,
        "unknown kind 'sandwich'",
    ),
    "duplicate name": (doc(PHR, 2, "name x", "name y"), 3, "duplicate name"),
    "duplicate ref": (doc(PHR, 2, "ref x", "ref y"), 3, "duplicate ref"),
    "long order": (
        doc(PHR, 2, "order 2 3", drop=1),
        2,
        "'order' takes exactly one token",
    ),
    "duplicate order": (doc(PHR, 3, "order 2"), 3, "duplicate order"),
    "order not integer": (
        doc(PHR, 2, "order two", drop=1),
        2,
        "order must be an integer, got 'two'",
    ),
    "signature with tokens": (
        doc(PHR, 3, "signature x", drop=1),
        3,
        "signature takes no tokens on its own line",
    ),
    "duplicate signature": (
        doc(PHR, 6, "signature", "b/2"),
        6,
        "duplicate signature block",
    ),
    "duplicate alphabet": (doc(ET0L, 3, "alphabet S a"), 3, "duplicate alphabet"),
    "slash in alphabet": (
        doc(ET0L, 2, "alphabet S a/b", drop=1),
        2,
        "label 'a/b' must not contain '/'",
    ),
    "duplicate terminals": (doc(PHR, 7, "terminals a"), 7, "duplicate terminals"),
    "slash in terminals": (
        doc(PHR, 6, "terminals a/b", drop=1),
        6,
        "label 'a/b' must not contain '/'",
    ),
    "duplicate nonterminals": (
        doc(HR, 7, "nonterminals S"),
        7,
        "duplicate nonterminals",
    ),
    "slash in nonterminals": (
        doc(HR, 6, "nonterminals S/x", drop=1),
        6,
        "label 'S/x' must not contain '/'",
    ),
    "duplicate start": (doc(PHR, 8, "start S"), 8, "duplicate start"),
    "long start": (
        doc(PHR, 7, "start S a", drop=1),
        7,
        "'start' takes exactly one token",
    ),
    "long table": (
        doc(PHR, 8, "table 1 2", drop=1),
        8,
        "'table' takes exactly one token",
    ),
    "duplicate table": (
        doc(PHR, None, "table 1", 'S -> str("a")', "a -> handle(a)"),
        11,
        "duplicate table index '1'",
    ),
    "rules with tokens": (
        doc(HR, 8, "rules x", drop=1),
        8,
        "rules takes no tokens on its own line",
    ),
    "duplicate rules": (doc(HR, None, "rules"), 10, "duplicate rules block"),
    "control with tokens": (
        doc(PHR + CONTROL, 11, "control x", drop=1),
        11,
        "control takes no tokens on its own line",
    ),
    "duplicate control": (
        doc(PHR + CONTROL, None, "control"),
        16,
        "duplicate control block",
    ),
    "signature entry": (
        doc(PHR, 5, "b 2"),
        5,
        "signature entry must be label/arity, got 'b 2'",
    ),
    "empty signature label": (doc(PHR, 5, "/2"), 5, "empty label in signature"),
    "arity not integer": (doc(PHR, 5, "b/x"), 5, "arity must be an integer, got 'x'"),
    "negative arity": (doc(PHR, 5, "b/-1"), 5, "arity must be nonnegative"),
    "duplicate signature label": (
        doc(PHR, 5, "S/2"),
        5,
        "duplicate signature label 'S'",
    ),
    "rule without arrow": (
        doc(PHR, 10, "a handle(a)", drop=1),
        10,
        "rule line needs ' -> ', got 'a handle(a)'",
    ),
    "two-token lhs": (
        doc(PHR, 10, "a S -> handle(a)", drop=1),
        10,
        "rule left-hand side must be one label, got 'a S'",
    ),
    "missing terminals": (doc(PHR, 6, drop=1), 10, "missing terminals"),
    "missing start": (doc(PHR, 7, drop=1), 10, "missing start"),
    "missing alphabet": (doc(ET0L, 2, drop=1), 7, "missing alphabet"),
    "missing nonterminals": (doc(HR, 6, drop=1), 9, "missing nonterminals"),
    "missing rules": (doc(HR, 8, drop=2), 8, "missing rules block"),
    "missing signature": (doc(PHR, 3, drop=3), 8, "missing signature block"),
    "unknown lhs": (doc(PHR, 10, 'Z -> str("a")'), 10, "rule for label 'Z' outside its domain"),
    "terminal lhs": (
        doc(HR, 10, 'a -> str("a")'),
        10,
        "rule for label 'a' outside its domain",
    ),
    "unknown handle": (
        doc(PHR, 10, "S -> handle(Z)", drop=1),
        10,
        "unknown label 'Z' in handle()",
    ),
    "unknown rhs label": (
        doc(PHR, 9, "S -> " + JSON_RHS % ('"Z"', '["u","v"]'), drop=1),
        9,
        "rule for 'S': invalid right-hand side: "
        "unknown-label(e): label 'Z' not in signature",
    ),
    "rhs arity": (
        doc(PHR, 9, "S -> " + JSON_RHS % ('"a"', '["u"]'), drop=1),
        9,
        "rule for 'S': invalid right-hand side: "
        "arity-mismatch(e): label 'a' has arity 2, attachment has length 1",
    ),
    "rhs type": (
        doc(PHR, 9, "S -> empty(3)", drop=1),
        9,
        "rule for 'S': right-hand side has type 3, label has arity 2",
    ),
    "invalid json": (
        doc(PHR, 9, "S -> {oops", drop=1),
        9,
        "invalid JSON literal: Expecting property name enclosed in double quotes",
    ),
    "bad graph json": (
        doc(PHR, 9, 'S -> {"format_version":1,"nodes":"oops"}', drop=1),
        9,
        "hypergraph JSON key 'nodes' must be a list",
    ),
    "unrecognized rhs": (
        doc(PHR, 9, "S -> frob(a)", drop=1),
        9,
        "unrecognized right-hand side 'frob(a)'",
    ),
    "phr with rules": (
        doc(PHR, None, "rules"),
        11,
        "a phr document uses table blocks, not rules",
    ),
    "missing table": (doc(PHR, 8, drop=3), 8, "missing table block"),
    "table not total": (
        doc(PHR, 10, drop=1),
        8,
        "table not left-total, no rules for: ['a']",
    ),
    "unknown start": (
        doc(PHR, 7, "start Z", drop=1),
        7,
        "start label 'Z' not in signature",
    ),
    "unknown terminal": (
        doc(PHR, 6, "terminals b", drop=1),
        7,
        "terminal 'b' not in signature",
    ),
    "low order": (
        doc(PHR, 2, "order 1", drop=1),
        7,
        "order 1 below maximal label arity 2",
    ),
    "control without init": (
        doc(PHR + CONTROL, 13, drop=1),
        11,
        "missing init",
    ),
    "unknown control state": (
        doc(PHR + CONTROL, 15, "trans p 1 q", drop=1),
        11,
        "transition ('p','1','q') uses unknown state",
    ),
    "unknown control symbol": (
        doc(PHR + CONTROL, 15, "trans p 2 p", drop=1),
        11,
        "transition on unknown symbol '2'",
    ),
    "hr with table": (
        doc(HR, None, "table 1"),
        10,
        "an hr document uses a rules block, not tables",
    ),
    "hr with control": (doc(HR + CONTROL), 10, "control applies to phr documents only"),
    "hr start terminal": (
        doc(HR, 7, "start a", drop=1),
        7,
        "start label 'a' not a nonterminal",
    ),
    "et0l with signature": (
        doc(ET0L, 2, "signature", "S/2"),
        3,
        "an et0l document uses alphabet, not signature",
    ),
    "et0l with control": (
        doc(ET0L + CONTROL),
        8,
        "control applies to phr documents only",
    ),
    "et0l unknown lhs": (doc(ET0L, 7, 'b -> str("a")'), 7, "unknown symbol 'b'"),
    "et0l handle": (
        doc(ET0L, 7, "a -> handle(a)", drop=1),
        7,
        "et0l right-hand sides must be str literals, got 'handle(a)'",
    ),
    "et0l unknown letter": (
        doc(ET0L, 7, 'a -> str("ab")', drop=1),
        7,
        "unknown symbols ['b'] in word",
    ),
    "et0l table not total": (
        doc(ET0L, 7, drop=1),
        5,
        "word table not left-total, no rules for: ['a']",
    ),
    "et0l unknown axiom": (
        doc(ET0L, 4, "start b", drop=1),
        4,
        "axiom 'b' not in alphabet",
    ),
    "et0l missing table": (doc(ET0L, 5, drop=3), 5, "missing table block"),
}


class TestParseDiagnostics:
    def test_missing_rule_names_the_label(self):
        text = "\n".join(
            [
                "kind phr",
                "order 2",
                "signature",
                "S/2",
                "a/2",
                "terminals a",
                "start S",
                "table 1",
                'S -> str("a")',
            ]
        )
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert "a" in str(err.value)

    def test_wrong_arity_rhs_rejected(self):
        text = "\n".join(
            [
                "kind phr",
                "order 3",
                "signature",
                "S/3",
                "a/2",
                "terminals a",
                "start S",
                "table 1",
                'S -> str("a")',
                "a -> handle(a)",
            ]
        )
        with pytest.raises(ParseError) as err:
            parse_document(text)
        msg = str(err.value)
        assert "S" in msg

    def test_unknown_directive_rejected(self):
        text = "kind phr\nfrobnicate yes\norder 2\n"
        with pytest.raises(ParseError):
            parse_document(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_document("kind sandwich\n")

    @pytest.mark.parametrize("case", DIAGNOSTICS)
    def test_diagnostic_names_line_and_fault(self, case):
        text, line, message = DIAGNOSTICS[case]
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line, err.value.message) == (line, message)


class TestFsaFormat:
    def test_round_trip(self):
        m = ControlAutomaton(
            states=("p", "q"),
            alphabet=("a", "b"),
            transitions=(("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")),
            initial="p",
            finals=("p", "q"),
        )
        again = parse_fsa(serialize_fsa(m))
        assert again == m

    def test_golden_bytes(self):
        m = parse_fsa((GOLDEN / "astar_bstar.fsa").read_text())
        assert serialize_fsa(m) == (GOLDEN / "astar_bstar.fsa").read_text()

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("state p\ninit p\ninit p\n", 3, "duplicate init"),
            ("state p\ninit p\ntrans p a\n", 3, "trans takes exactly three tokens"),
            ("state p\nfoo p\ninit p\n", 2, "unknown keyword 'foo'"),
            ("state p\n\nfinal p\n", 4, "missing init"),
            (
                "alphabet a\nstate p\ninit p\ntrans p a q\n",
                5,
                "transition ('p','a','q') uses unknown state",
            ),
            ("state p\ninit p q\n", 2, "takes exactly one token"),
        ],
    )
    def test_diagnostics_name_the_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_fsa(text)
        assert err.value.line == line
        assert message in err.value.message


class TestHypergraphJson:
    def test_round_trip_plain(self):
        h = string_graph("ab")
        assert from_json(to_json(h)) == h

    def test_round_trip_repeated_ext(self):
        h = hypergraph(nodes=["v"], edges=[], ext=["v", "v"])
        again = from_json(to_json(h))
        assert again == h
        assert again.ext == ("v", "v")

    def test_round_trip_empty(self):
        h = Hypergraph(nodes=(), edges=(), ext=())
        assert from_json(to_json(h)) == h

    def test_malformed_json_rejected(self):
        from phrg import HypergraphError

        with pytest.raises(HypergraphError):
            from_json('{"format_version": 1, "nodes": "oops"}')


class TestDotExport:
    def test_three_tentacles(self):
        out = export_dot(handle("X", 3), name="tri")
        assert out.count("shape=circle") == 3
        assert out.count("shape=box") == 1
        for i in ("1", "2", "3"):
            assert f'[label="{i}", fontsize=9]' in out

    def test_empty_graph(self):
        out = export_dot(Hypergraph(nodes=(), edges=(), ext=()), name="void")
        assert out.startswith('graph "void" {')
        assert out.rstrip().endswith("}")

    def test_deterministic(self):
        h = string_graph("abab")
        assert export_dot(h, name="w") == export_dot(h, name="w")

    def test_golden_bytes(self):
        assert export_dot(handle("X", 3), name="triangle") == (
            GOLDEN / "triangle.dot"
        ).read_text()


class TestGoldenDocuments:
    def test_dyck_hr_bytes(self):
        assert serialize_document(fixture("dyck_hr")) == (
            GOLDEN / "dyck_hr.phrg"
        ).read_text()

    def test_ctl_plus0_bytes(self):
        assert serialize_document(fixture("ctl_plus0")) == (
            GOLDEN / "ctl_plus0.phrg"
        ).read_text()

    def test_triangle_json_bytes(self):
        assert to_json(handle("X", 3)) + "\n" == (
            GOLDEN / "triangle.hg.json"
        ).read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestCli:
    def test_strings_powers(self, capsys):
        code, obj, _ = run_json(
            capsys, "strings", "fixtures/a_pow2", "--max-steps", "4"
        )
        assert code == 0
        words = {tuple(w) for w in obj["words"]}
        assert words == {("a",) * (2**n) for n in range(5)}
        assert obj["exhaustive"] is True

    def test_member_negative(self, capsys):
        code, obj, _ = run_json(
            capsys, "member", "fixtures/a_pow2", "aaa", "--max-nodes", "32"
        )
        assert code == 1
        assert obj["verdict"] == "no-within-limits"

    def test_member_positive(self, capsys):
        code, obj, _ = run_json(capsys, "member", "fixtures/a_pow2", "aaaa")
        assert code == 0
        assert obj["verdict"] == "yes"
        assert len(obj["trace"]) == 2

    def test_validate_good_fixture(self, capsys):
        code, obj, _ = run_json(capsys, "validate", "fixtures/dyck_phr")
        assert code == 0
        assert obj["valid"] is True

    def test_validate_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.phrg"
        bad.write_text("kind phr\nfrobnicate\n")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert err.strip()

    def test_validate_json_with_violations(self, capsys, tmp_path):
        broken = tmp_path / "broken.hg.json"
        broken.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "nodes": ["v"],
                    "edges": [{"id": "e", "label": "X", "att": ["v", "ghost"]}],
                    "ext": [],
                }
            )
        )
        code, out, err = run_cli(capsys, "validate", str(broken))
        assert code == 1
        obj = json.loads(out)
        assert obj["valid"] is False
        assert any(v["kind"] == "dangling-ref" for v in obj["violations"])

    def test_missing_input_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "strings", "fixtures/no_such_grammar")
        assert code == 2
        assert "no such file or fixture" in err

    def test_fixtures_list(self, capsys):
        code, obj, _ = run_json(capsys, "fixtures", "list")
        assert code == 0
        names = {f["name"] for f in obj["fixtures"]}
        assert {"a_pow2", "dyck_hr", "ctl_plus0", "f2_wp"} <= names

    def test_derive_trace(self, capsys):
        code, obj, _ = run_json(
            capsys, "derive", "fixtures/fig5_squares", "--trace", "1,1"
        )
        assert code == 0
        assert len(obj["graphs"]) == 1
        assert len(obj["graphs"][0]["edges"]) == 4

    def test_enumerate_graphs(self, capsys):
        code, obj, _ = run_json(
            capsys, "enumerate", "fixtures/fig5_squares", "--max-steps", "2"
        )
        assert code == 0
        assert sorted(len(g["edges"]) for g in obj["graphs"]) == [1, 2, 4]
        assert obj["exhaustive"] is True

    def test_export_dot(self, capsys, tmp_path):
        p = tmp_path / "tri.hg.json"
        p.write_text((GOLDEN / "triangle.hg.json").read_text())
        code, out, err = run_cli(capsys, "export-dot", str(p))
        assert code == 0
        assert out.count("shape=circle") == 3

    def test_transform_pipeline(self, capsys, tmp_path):
        hr = tmp_path / "dyck.phrg"
        code, out, _ = run_cli(capsys, "fixtures", "emit", "dyck_hr")
        assert code == 0
        hr.write_text(out)

        phr = tmp_path / "dyck_phr.phrg"
        code, _, _ = run_cli(
            capsys, "transform", "hr-to-phr", str(hr), "-o", str(phr)
        )
        assert code == 0

        code, obj, _ = run_json(
            capsys,
            "strings",
            str(phr),
            "--max-steps",
            "20",
            "--max-edges",
            "4",
            "--max-nodes",
            "20",
        )
        assert code == 0
        words = {tuple(w) for w in obj["words"]}
        assert words == {("a", "b"), ("a", "a", "b", "b"), ("a", "b", "a", "b")}

    def test_transform_remove_unreachable(self, capsys, tmp_path):
        head = ["kind phr", "order 2", "signature", "S/2"]
        src = tmp_path / "orphan.phrg"
        src.write_text(
            "\n".join(
                head
                + ["Z/2", "a/2", "terminals a", "start S", "table 1"]
                + ['S -> str("aa")', "Z -> handle(Z)", "a -> handle(a)", ""]
            )
        )
        code, out, _ = run_cli(capsys, "transform", "remove-unreachable", str(src))
        assert code == 0
        assert out == "\n".join(
            head
            + ["a/2", "terminals a", "start S", "table 1"]
            + ['S -> str("aa")', "a -> handle(a)", ""]
        )

    @pytest.mark.parametrize("name", sorted(_TRANSFORMS))
    def test_transform_matches_library(self, capsys, tmp_path, name):
        def phr(n):
            return fixture(n).phr()

        fsa_path = str(GOLDEN / "astar_bstar.fsa")
        fsa = parse_fsa((GOLDEN / "astar_bstar.fsa").read_text())
        et0l = fixture("a_pow2_et0l").grammar
        zb = relabel_grammar(phr("z_wp"), {"a": "b", "A": "B"})
        zb_path = tmp_path / "zb.phrg"
        zb_path.write_text(serialize_document(GrammarDocument(kind="phr", grammar=zb)))
        pow2 = "a=fixtures/a_pow2"
        cases = {
            "hr-to-phr": (["fixtures/dyck_hr"], lambda: tf.hr_to_phr(fixture("dyck_hr").grammar)),
            "et0l-to-phr": (["fixtures/a_pow2_et0l"], lambda: tf.et0l_to_phr(et0l)),
            "et0l-propagating": (["fixtures/a_pow2_et0l"], lambda: tf.et0l_propagating(et0l)),
            "remove-control": (["fixtures/ctl_plus0"], lambda: tf.remove_control(phr("ctl_plus0"))),
            "remove-unreachable": (
                ["fixtures/dyck_phr"],
                lambda: tf.remove_unreachable(phr("dyck_phr")),
            ),
            "regular-to-phr": (["--fsa", fsa_path], lambda: tf.regular_to_phr(fsa)),
            "substitute": (
                ["fixtures/dyck_phr", "--image", pow2, "--image", "b=fixtures/a_pow2"],
                lambda: tf.substitute(phr("dyck_phr"), {"a": phr("a_pow2"), "b": phr("a_pow2")}),
            ),
            "iterate-substitution": (
                ["fixtures/a_pow2", "--image", pow2],
                lambda: tf.iterate_substitution(phr("a_pow2"), {"a": phr("a_pow2")}),
            ),
            "union": (
                ["fixtures/dyck_phr", "fixtures/a_pow2"],
                lambda: tf.rational_union(phr("dyck_phr"), phr("a_pow2")),
            ),
            "concat": (
                ["fixtures/dyck_phr", "fixtures/a_pow2"],
                lambda: tf.rational_concat(phr("dyck_phr"), phr("a_pow2")),
            ),
            "plus": (["fixtures/dyck_phr"], lambda: tf.rational_plus(phr("dyck_phr"))),
            "intersect": (
                ["fixtures/dyck_phr", "--fsa", fsa_path],
                lambda: tf.rational_intersect(phr("dyck_phr"), fsa),
            ),
            "apply-hom": (
                ["fixtures/dyck_phr", "--map", "a=bb", "--map", "b=", "--mode", "general"],
                lambda: tf.apply_hom(phr("dyck_phr"), {"a": ("b", "b"), "b": ()}, mode="general"),
            ),
            "inverse-hom": (
                ["fixtures/dyck_phr", "--map", "x=ab", "--map", "y="],
                lambda: tf.inverse_hom(phr("dyck_phr"), {"x": ("a", "b"), "y": ()}),
            ),
            "free-product": (
                ["fixtures/z_wp", str(zb_path)],
                lambda: tf.free_product_wp(phr("z_wp"), zb),
            ),
        }
        argv, build = cases[name]
        kind = "et0l" if name == "et0l-propagating" else "phr"
        want = serialize_document(GrammarDocument(kind=kind, grammar=build()))
        code, out, _ = run_cli(capsys, "transform", name, *argv)
        assert (code, out) == (0, want)

    def test_transform_intersect_with_fsa_file(self, capsys, tmp_path):
        fsa = tmp_path / "astar_bstar.fsa"
        fsa.write_text((GOLDEN / "astar_bstar.fsa").read_text())
        out_doc = tmp_path / "meet.phrg"
        code, _, _ = run_cli(
            capsys,
            "transform",
            "intersect",
            "fixtures/dyck_phr",
            "--fsa",
            str(fsa),
            "-o",
            str(out_doc),
        )
        assert code == 0
        g = parse_document(out_doc.read_text()).phr()
        lim = Limits(max_steps=40, max_nodes=200, max_edges=5, max_results=200_000)
        res = enumerate_strings(g, lim)
        words = {w for w in res.words if len(w) <= 4}
        assert words == {("a", "b"), ("a", "a", "b", "b")}


class TestCopyLanguageFixture:
    def test_every_word_is_a_marked_copy(self):
        g = fixture("copy_dyck_K").phr()
        lim = Limits(max_steps=40, max_nodes=40, max_edges=8, max_results=200_000)
        res = enumerate_strings(g, lim)
        assert res.saturated
        words = set(res.words)
        assert words
        bar = {"a": "abar", "b": "bbar"}
        for w in words:
            assert len(w) % 2 == 0
            half = len(w) // 2
            first, second = w[:half], w[half:]
            assert is_dyck(first)
            assert tuple(bar[s] for s in first) == second
        assert ("a", "b", "abar", "bbar") in words
