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
from dataclasses import fields
from pathlib import Path
from typing import Callable, Optional, Sequence

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


def _read(path: Optional[str], parse: Callable, missing: str, fixtures: bool = False):
    """Parse a file named on the command line; every failure is a usage error.

    ``missing`` is the message for an absent path.  With ``fixtures``, a
    path that is not on disk may name a built-in fixture.
    """
    if not path:
        raise CliError(missing)
    p = Path(path)
    if p.exists():
        try:
            return parse(p.read_text())
        except (ParseError, HypergraphError) as exc:
            raise CliError(f"{path}: {exc}") from None
    name = path.removeprefix("fixtures/")
    if fixtures and name in fixture_names():
        return fixture(name)
    raise CliError(f"no such file{' or fixture' if fixtures else ''}: {path}")


def _document(path: Optional[str], missing: str) -> GrammarDocument:
    return _read(path, parse_document, missing, fixtures=True)


def _plain_phr(path: Optional[str], missing: str) -> PHRGrammar:
    g = _document(path, missing).phr()
    if isinstance(g, ControlledPHRGrammar):
        raise CliError(f"{path}: this command needs an uncontrolled grammar")
    return g


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(**{f.name: getattr(args, f.name) for f in fields(Limits)})


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    """One ``--max-...`` flag per ``Limits`` field, with its default; a
    negative budget is a usage error."""
    for f in fields(Limits):
        sub.add_argument("--" + f.name.replace("_", "-"), type=_budget, default=f.default)


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
    _emit(json.dumps({"format_version": 1, **obj}, indent=2) + "\n", out)


def _record(result, **converted) -> dict:
    """A result record's fields in declaration order; ``converted`` holds
    the JSON form of those whose values are not JSON already."""
    return {f.name: converted.get(f.name, getattr(result, f.name)) for f in fields(result)}


def _phr(args: argparse.Namespace):
    return _document(args.file, f"{args.command} needs an input file").phr()


def _cmd_validate(args: argparse.Namespace) -> int:
    # A file that cannot be parsed at all is unusable input (exit 2, named
    # by _read); a parseable graph with violations is a negative verdict
    # (exit 1).
    missing = f"{args.command} needs an input file"
    if Path(args.file).suffix == ".json":
        h = _read(args.file, from_json, missing)
        violations = validate(h)
        _emit_json(
            {
                "valid": not violations,
                "violations": [
                    {"kind": v.kind, "subject": v.subject, "detail": v.detail}
                    for v in violations
                ],
            },
            args.output,
        )
        return 0 if not violations else 1
    _document(args.file, missing)
    _emit_json({"valid": True, "violations": []}, args.output)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    g = _phr(args)
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    trace = tuple(t for t in args.trace.split(",") if t) if args.trace else ()
    graphs = trace_successors(g, grammar.start_graph(), trace)
    _emit_json(
        {
            "trace": list(trace),
            "graphs": [to_json_obj(h) for h in graphs],
        },
        args.output,
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_language(_phr(args), _limits(args))
    _emit_json(_record(result, graphs=[to_json_obj(h) for h in result.graphs]), args.output)
    return 0


def _cmd_strings(args: argparse.Namespace) -> int:
    result = enumerate_strings(
        _phr(args), _limits(args), frozenset(args.empty_label or ())
    )
    _emit_json(_record(result, words=[list(w) for w in result.words]), args.output)
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    g = _phr(args)
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    word = _parse_word_arg(args.word, set(grammar.signature.labels))
    verdict = member_string(g, word, _limits(args))
    trace = list(verdict.trace) if verdict.trace is not None else None
    _emit_json({"word": list(word), **_record(verdict, trace=trace)}, args.output)
    return 0 if verdict.verdict == "yes" else 1


def _image_map(pairs: Sequence[str]) -> dict[str, PHRGrammar]:
    out = {}
    for pair in pairs:
        letter, _, path = pair.partition("=")
        out[letter] = _plain_phr(path, f"--image needs letter=file, got {pair!r}")
    return out


def _hom_map(pairs: Sequence[str]) -> dict[str, tuple[str, ...]]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--map needs letter=word, got {pair!r}")
        letter, text = pair.split("=", 1)
        out[letter] = _parse_word_arg(text, set())
    return out


def _typed(args: argparse.Namespace, cls: type, need: str):
    """The input document's grammar, with its control if it has one,
    which must be a ``cls``; ``need`` says what to give instead."""
    doc = _document(args.file, f"{args.name} needs an input file")
    g = doc.phr() if doc.control else doc.grammar
    if not isinstance(g, cls):
        raise CliError(f"{args.name} needs {need}")
    return g


def _first(args: argparse.Namespace) -> PHRGrammar:
    return _plain_phr(args.file, f"{args.name} needs an input file")


def _second(args: argparse.Namespace) -> PHRGrammar:
    return _plain_phr(args.file2, f"{args.name} takes two grammar files")


def _fsa_arg(args: argparse.Namespace):
    return _read(args.fsa, parse_fsa, f"{args.name} needs --fsa")


# CLI name -> the construction applied to the parsed arguments
_TRANSFORMS = {
    "hr-to-phr": lambda a: transforms.hr_to_phr(_typed(a, HRGrammar, "a kind hr document")),
    "et0l-to-phr": lambda a: transforms.et0l_to_phr(
        _typed(a, ET0LGrammar, "a kind et0l document")
    ),
    "et0l-propagating": lambda a: transforms.et0l_propagating(
        _typed(a, ET0LGrammar, "a kind et0l document")
    ),
    "remove-control": lambda a: transforms.remove_control(
        _typed(a, ControlledPHRGrammar, "a document with a control block")
    ),
    "remove-unreachable": lambda a: transforms.remove_unreachable(_first(a)),
    "regular-to-phr": lambda a: transforms.regular_to_phr(_fsa_arg(a)),
    "substitute": lambda a: transforms.substitute(_first(a), _image_map(a.image or ())),
    "iterate-substitution": lambda a: transforms.iterate_substitution(
        _first(a), _image_map(a.image or ())
    ),
    "union": lambda a: transforms.rational_union(_first(a), _second(a)),
    "concat": lambda a: transforms.rational_concat(_first(a), _second(a)),
    "plus": lambda a: transforms.rational_plus(_first(a)),
    "intersect": lambda a: transforms.rational_intersect(_first(a), _fsa_arg(a)),
    "apply-hom": lambda a: transforms.apply_hom(
        _first(a), _hom_map(a.map or ()), mode=a.mode
    ),
    "inverse-hom": lambda a: transforms.inverse_hom(_first(a), _hom_map(a.map or ())),
    "free-product": lambda a: transforms.free_product_wp(_first(a), _second(a)),
}


def _cmd_transform(args: argparse.Namespace) -> int:
    result = _TRANSFORMS[args.name](args)
    kind = "et0l" if isinstance(result, ET0LGrammar) else "phr"
    _emit(serialize_document(GrammarDocument(kind=kind, grammar=result)), args.output)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    h = _read(args.file, from_json, "export-dot needs an input file")
    _emit(export_dot(h, name=Path(args.file).stem), args.output)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.action == "list":
        _emit_json(
            {
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

    def sub(name: str, handler: Callable, **kw) -> argparse.ArgumentParser:
        s = subs.add_parser(name, **kw)
        s.add_argument("-o", "--output", help="write to a file instead of stdout")
        s.set_defaults(handler=handler)
        return s

    s = sub("validate", _cmd_validate, help="check a grammar document or hypergraph JSON file")
    s.add_argument("file")

    s = sub("derive", _cmd_derive, help="apply a table trace to the start handle")
    s.add_argument("file")
    s.add_argument("--trace", default="", help="comma-separated table indices")

    s = sub("enumerate", _cmd_enumerate, help="enumerate derivable graphs within limits")
    s.add_argument("file")
    _add_limit_flags(s)

    s = sub("strings", _cmd_strings, help="enumerate derivable words within limits")
    s.add_argument("file")
    s.add_argument(
        "--empty-label",
        action="append",
        help="treat this label as spelling no letter (repeatable)",
    )
    _add_limit_flags(s)

    s = sub("member", _cmd_member, help="search for a word's derivation")
    s.add_argument("file")
    s.add_argument("word")
    _add_limit_flags(s)

    s = sub("transform", _cmd_transform, help="apply a grammar construction")
    s.add_argument("name", choices=_TRANSFORMS)
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

    s = sub("export-dot", _cmd_export_dot, help="render a hypergraph JSON file as DOT")
    s.add_argument("file")

    s = sub("fixtures", _cmd_fixtures, help="list or emit built-in grammars")
    s.add_argument("action", choices=["list", "emit"])
    s.add_argument("fixture_name", nargs="?")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ParseError, GrammarError, TransformError, HypergraphError, OSError) as exc:
        print(f"phrg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
