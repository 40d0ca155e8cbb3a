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
from phrg.cli import main
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
