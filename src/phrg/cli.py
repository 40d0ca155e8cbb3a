"""Command-line interface.

Results go to stdout as JSON (graph sets, word sets, verdicts) or as
grammar/automaton/DOT text for commands whose output is itself a
document.  Exit codes: 0 on success, 1 for negative verdicts (a word not
found, a file that fails validation), 2 for unusable input.

Grammar files are looked up on disk first; a path like ``fixtures/NAME``
(or a bare fixture name) falls back to the built-in fixture registry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .dot import export_dot
from .engine import Limits, enumerate_language, enumerate_strings, member_string
from .fixtures import fixture, fixture_description, fixture_names
from .grammar import (
    ControlledPHRGrammar,
    ET0LGrammar,
    GrammarError,
    HRGrammar,
    PHRGrammar,
    trace_successors,
)
from .hypergraph import HypergraphError, from_json, to_json_obj, validate
from .textfmt import (
    GrammarDocument,
    ParseError,
    _parse_word,
    parse_document,
    parse_fsa,
    serialize_document,
)
from . import transforms
from .transforms import TransformError


class CliError(Exception):
    pass


def _load_document(path: str) -> GrammarDocument:
    p = Path(path)
    if p.exists():
        try:
            return parse_document(p.read_text())
        except ParseError as exc:
            raise CliError(f"{path}: {exc}") from None
    name = path
    if name.startswith("fixtures/"):
        name = name[len("fixtures/") :]
    if name in fixture_names():
        return fixture(name)
    raise CliError(f"no such file or fixture: {path}")


def _load_phr(path: str):
    doc = _load_document(path)
    return doc.phr()


def _load_plain_phr(path: str) -> PHRGrammar:
    g = _load_phr(path)
    if isinstance(g, ControlledPHRGrammar):
        raise CliError(f"{path}: this command needs an uncontrolled grammar")
    return g


def _load_fsa(path: str):
    p = Path(path)
    if not p.exists():
        raise CliError(f"no such file: {path}")
    try:
        return parse_fsa(p.read_text())
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(
        max_steps=args.max_steps,
        max_nodes=args.max_nodes,
        max_edges=args.max_edges,
        max_results=args.max_results,
    )


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    defaults = Limits()
    sub.add_argument("--max-steps", type=int, default=defaults.max_steps)
    sub.add_argument("--max-nodes", type=int, default=defaults.max_nodes)
    sub.add_argument("--max-edges", type=int, default=defaults.max_edges)
    sub.add_argument("--max-results", type=int, default=defaults.max_results)


def _parse_word_arg(text: str, labels: set[str]) -> tuple[str, ...]:
    if "," in text:
        return tuple(t for t in text.split(",") if t)
    return _parse_word(text, labels)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _cmd_validate(args: argparse.Namespace) -> int:
    # A file that cannot be parsed at all is unusable input (exit 2, the
    # error propagates); a parseable graph with violations is a negative
    # verdict (exit 1).
    p = Path(args.file)
    if p.suffix == ".json" and p.exists():
        h = from_json(p.read_text())
        violations = validate(h)
        _emit_json(
            {
                "format_version": 1,
                "valid": not violations,
                "violations": [
                    {"kind": v.kind, "subject": v.subject, "detail": v.detail}
                    for v in violations
                ],
            },
            args.output,
        )
        return 0 if not violations else 1
    _load_document(args.file)
    _emit_json({"format_version": 1, "valid": True, "violations": []}, args.output)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    g = _load_phr(args.file)
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    trace = tuple(t for t in args.trace.split(",") if t) if args.trace else ()
    graphs = trace_successors(g, grammar.start_graph(), trace)
    _emit_json(
        {
            "format_version": 1,
            "trace": list(trace),
            "graphs": [to_json_obj(h) for h in graphs],
        },
        args.output,
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    g = _load_phr(args.file)
    result = enumerate_language(g, _limits(args))
    _emit_json(
        {
            "format_version": 1,
            "graphs": [to_json_obj(h) for h in result.graphs],
            "exhaustive": result.exhaustive,
            "saturated": result.saturated,
            "steps": result.steps,
            "hit_node_bound": result.hit_node_bound,
            "hit_edge_bound": result.hit_edge_bound,
            "hit_result_budget": result.hit_result_budget,
        },
        args.output,
    )
    return 0


def _cmd_strings(args: argparse.Namespace) -> int:
    g = _load_phr(args.file)
    result = enumerate_strings(
        g, _limits(args), frozenset(args.empty_label or ())
    )
    _emit_json(
        {
            "format_version": 1,
            "words": [list(w) for w in result.words],
            "exhaustive": result.exhaustive,
            "saturated": result.saturated,
        },
        args.output,
    )
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    g = _load_phr(args.file)
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    word = _parse_word_arg(args.word, set(grammar.signature.labels))
    verdict = member_string(g, word, _limits(args))
    _emit_json(
        {
            "format_version": 1,
            "word": list(word),
            "verdict": verdict.verdict,
            "trace": list(verdict.trace) if verdict.trace is not None else None,
        },
        args.output,
    )
    return 0 if verdict.verdict == "yes" else 1


def _image_map(pairs: Sequence[str]) -> dict[str, PHRGrammar]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--image needs letter=file, got {pair!r}")
        letter, path = pair.split("=", 1)
        out[letter] = _load_plain_phr(path)
    return out


def _hom_map(pairs: Sequence[str]) -> dict[str, tuple[str, ...]]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--map needs letter=word, got {pair!r}")
        letter, text = pair.split("=", 1)
        out[letter] = _parse_word_arg(text, set())
    return out


def _cmd_transform(args: argparse.Namespace) -> int:
    name = args.name
    if name == "hr-to-phr":
        doc = _load_document(args.file)
        if not isinstance(doc.grammar, HRGrammar):
            raise CliError("hr-to-phr needs a kind hr document")
        result = transforms.hr_to_phr(doc.grammar)
    elif name == "et0l-to-phr":
        doc = _load_document(args.file)
        if not isinstance(doc.grammar, ET0LGrammar):
            raise CliError("et0l-to-phr needs a kind et0l document")
        result = transforms.et0l_to_phr(doc.grammar)
    elif name == "et0l-propagating":
        doc = _load_document(args.file)
        if not isinstance(doc.grammar, ET0LGrammar):
            raise CliError("et0l-propagating needs a kind et0l document")
        out = transforms.et0l_propagating(doc.grammar)
        _emit(
            serialize_document(GrammarDocument(kind="et0l", grammar=out)), args.output
        )
        return 0
    elif name == "remove-control":
        g = _load_phr(args.file)
        if not isinstance(g, ControlledPHRGrammar):
            raise CliError("remove-control needs a document with a control block")
        result = transforms.remove_control(g)
    elif name == "remove-unreachable":
        result = transforms.remove_unreachable(_load_plain_phr(args.file))
    elif name == "regular-to-phr":
        if not args.fsa:
            raise CliError("regular-to-phr needs --fsa")
        result = transforms.regular_to_phr(_load_fsa(args.fsa))
    elif name == "substitute":
        result = transforms.substitute(
            _load_plain_phr(args.file), _image_map(args.image or ())
        )
    elif name == "iterate-substitution":
        result = transforms.iterate_substitution(
            _load_plain_phr(args.file), _image_map(args.image or ())
        )
    elif name == "union":
        if not args.file2:
            raise CliError("union takes two grammar files")
        result = transforms.rational_union(
            _load_plain_phr(args.file), _load_plain_phr(args.file2)
        )
    elif name == "concat":
        if not args.file2:
            raise CliError("concat takes two grammar files")
        result = transforms.rational_concat(
            _load_plain_phr(args.file), _load_plain_phr(args.file2)
        )
    elif name == "plus":
        result = transforms.rational_plus(_load_plain_phr(args.file))
    elif name == "intersect":
        if not args.fsa:
            raise CliError("intersect needs --fsa")
        result = transforms.rational_intersect(
            _load_plain_phr(args.file), _load_fsa(args.fsa)
        )
    elif name == "apply-hom":
        result = transforms.apply_hom(
            _load_plain_phr(args.file), _hom_map(args.map or ()), mode=args.mode
        )
    elif name == "inverse-hom":
        result = transforms.inverse_hom(
            _load_plain_phr(args.file), _hom_map(args.map or ())
        )
    elif name == "free-product":
        if not args.file2:
            raise CliError("free-product takes two grammar files")
        result = transforms.free_product_wp(
            _load_plain_phr(args.file), _load_plain_phr(args.file2)
        )
    else:
        raise CliError(f"unknown transform {name!r}")
    _emit(serialize_document(GrammarDocument(kind="phr", grammar=result)), args.output)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    p = Path(args.file)
    if not p.exists():
        raise CliError(f"no such file: {args.file}")
    try:
        h = from_json(p.read_text())
    except HypergraphError as exc:
        raise CliError(f"{args.file}: {exc}") from None
    _emit(export_dot(h, name=p.stem), args.output)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.action == "list":
        _emit_json(
            {
                "format_version": 1,
                "fixtures": [
                    {"name": n, "description": fixture_description(n)}
                    for n in fixture_names()
                ],
            },
            args.output,
        )
        return 0
    if not args.fixture_name:
        raise CliError("fixtures emit needs a fixture name")
    try:
        doc = fixture(args.fixture_name)
    except KeyError:
        raise CliError(f"no fixture named {args.fixture_name!r}") from None
    _emit(serialize_document(doc), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phrg", description="parallel hyperedge replacement grammars"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, **kw) -> argparse.ArgumentParser:
        s = subs.add_parser(name, **kw)
        s.add_argument("-o", "--output", help="write to a file instead of stdout")
        return s

    s = sub("validate", help="check a grammar document or hypergraph JSON file")
    s.add_argument("file")

    s = sub("derive", help="apply a table trace to the start handle")
    s.add_argument("file")
    s.add_argument("--trace", default="", help="comma-separated table indices")

    s = sub("enumerate", help="enumerate derivable graphs within limits")
    s.add_argument("file")
    _add_limit_flags(s)

    s = sub("strings", help="enumerate derivable words within limits")
    s.add_argument("file")
    s.add_argument(
        "--empty-label",
        action="append",
        help="treat this label as spelling no letter (repeatable)",
    )
    _add_limit_flags(s)

    s = sub("member", help="search for a word's derivation")
    s.add_argument("file")
    s.add_argument("word")
    _add_limit_flags(s)

    s = sub("transform", help="apply a grammar construction")
    s.add_argument(
        "name",
        choices=[
            "hr-to-phr",
            "et0l-to-phr",
            "et0l-propagating",
            "remove-control",
            "remove-unreachable",
            "regular-to-phr",
            "substitute",
            "iterate-substitution",
            "union",
            "concat",
            "plus",
            "intersect",
            "apply-hom",
            "inverse-hom",
            "free-product",
        ],
    )
    s.add_argument("file", nargs="?", help="input grammar document")
    s.add_argument("file2", nargs="?", help="second grammar document")
    s.add_argument("--fsa", help="automaton file for regular-to-phr / intersect")
    s.add_argument(
        "--image",
        action="append",
        help="letter=grammar-file for substitutions (repeatable)",
    )
    s.add_argument(
        "--map",
        action="append",
        help="letter=word for homomorphisms (repeatable; empty word allowed)",
    )
    s.add_argument("--mode", choices=["rf", "general"], default="rf")

    s = sub("export-dot", help="render a hypergraph JSON file as DOT")
    s.add_argument("file")

    s = sub("fixtures", help="list or emit built-in grammars")
    s.add_argument("action", choices=["list", "emit"])
    s.add_argument("fixture_name", nargs="?")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "derive": _cmd_derive,
        "enumerate": _cmd_enumerate,
        "strings": _cmd_strings,
        "member": _cmd_member,
        "transform": _cmd_transform,
        "export-dot": _cmd_export_dot,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except (CliError, ParseError, GrammarError, TransformError, HypergraphError) as exc:
        print(f"phrg: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"phrg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
