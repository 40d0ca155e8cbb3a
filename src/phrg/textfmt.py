"""Line-oriented text format for grammar documents and automata.

A grammar document holds one grammar (``kind phr``, ``hr`` or ``et0l``),
optionally a control automaton (parallel grammars only) and optional
``name``/``ref`` metadata lines.  The format is strict: unknown keywords,
unknown labels, arity mismatches and tables that are not left-total are
reported with line and column.  Serialization is canonical, so
parse(serialize(parse(text))) == parse(text), and it refuses any token
the format cannot spell (see ``_fault``).

Rule right-hand sides are written as literals::

    S -> str("ab")        a string graph; str("") is the one-node graph
    S -> handle(X)        the graph with a single X edge
    S -> empty(3)         three isolated external nodes; empty(0) is empty
    S -> {"nodes": ...}   inline JSON for anything else

A string literal with whitespace is a sequence of letters; without
whitespace it is a single letter if the whole text is a label of the
signature, otherwise one letter per character.

Each distinct rule line is parsed once per document; the tables that
repeat it share its ``Rule`` (see ``_DocParser._tables``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Container, Iterator, Optional

from .grammar import (
    AnyPHR,
    ControlAutomaton,
    ControlledPHRGrammar,
    ET0LGrammar,
    GrammarError,
    HRGrammar,
    PHRGrammar,
    Rule,
    Table,
    Word,
    WordForm,
    WordTable,
    _check_rules,
)
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    Signature,
    discrete_graph,
    from_json_obj,
    handle,
    string_graph,
    to_json_obj,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class GrammarDocument:
    kind: str
    grammar: PHRGrammar | HRGrammar | ET0LGrammar
    control: Optional[ControlAutomaton] = None
    name: Optional[str] = None
    ref: Optional[str] = None

    def phr(self) -> AnyPHR:
        """The document's grammar as a (possibly controlled) parallel one."""
        from .transforms import et0l_to_phr, hr_to_phr

        if self.kind == "phr":
            assert isinstance(self.grammar, PHRGrammar)
            if self.control is not None:
                return ControlledPHRGrammar(grammar=self.grammar, control=self.control)
            return self.grammar
        if self.kind == "hr":
            assert isinstance(self.grammar, HRGrammar)
            return hr_to_phr(self.grammar)
        assert isinstance(self.grammar, ET0LGrammar)
        return et0l_to_phr(self.grammar)


_STR_RE = re.compile(r'^str\("([^"]*)"\)$')
_HANDLE_RE = re.compile(r"^handle\(([^()\s]+)\)$")
_EMPTY_RE = re.compile(r"^empty\((\d+)\)$")

# What a keyword line holds after its keyword: one token, the rest of the
# line, a list of labels, or nothing (the line opens a block).
_TAKES = {
    "kind": "one",
    "order": "one",
    "start": "one",
    "table": "one",
    "name": "text",
    "ref": "text",
    "alphabet": "labels",
    "terminals": "labels",
    "nonterminals": "labels",
    "signature": "nothing",
    "rules": "nothing",
    "control": "nothing",
}
_AUTOMATON = ("state", "init", "final", "trans")
_KEYWORDS = set(_TAKES) | set(_AUTOMATON)


def _fault(kind: str, token: str) -> Optional[str]:
    """Why the format cannot write ``token`` as a ``kind``, or None.

    A label is nonempty and has no whitespace, no '/' and no leading '#'.
    A table index, a state or an automaton symbol is nonempty and has no
    whitespace.  A name or ref has no line break and no leading or
    trailing whitespace.  Parsing accepts every token these rules admit.
    """
    if kind in ("name", "ref"):
        if token != token.strip():
            return "must not start or end with whitespace"
        if len(token.splitlines()) > 1:
            return "must not contain a line break"
        return None
    if not token:
        return "must not be empty"
    if any(c.isspace() for c in token):
        return "must not contain whitespace"
    if kind == "label" and "/" in token:
        return "must not contain '/'"
    if kind == "label" and token.startswith("#"):
        return "must not start with '#'"
    return None


def _spelled(kind: str, token: str) -> str:
    """``token``, or ValueError naming it if the format cannot write it."""
    fault = _fault(kind, token)
    if fault is not None:
        raise ValueError(f"{kind} {token!r} {fault}")
    return token


def _lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped text, tokens) of each line that is neither
    blank nor a comment."""
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield no, stripped, stripped.split()


def _at(line: int, build, *args, **kwargs):
    """``build(*args, **kwargs)``, reporting a GrammarError at ``line``."""
    try:
        return build(*args, **kwargs)
    except GrammarError as exc:
        raise ParseError(str(exc), line) from None


def _parse_word(text: str, labels: Container[str]) -> Word:
    if text == "":
        return ()
    if any(c.isspace() for c in text):
        return tuple(text.split())
    if text in labels:
        return (text,)
    return tuple(text)


def _word_text(word: Word, labels: set[str]) -> Optional[str]:
    if any(a == "" or '"' in a or any(c.isspace() for c in a) for a in word):
        return None
    if len(word) == 0:
        return ""
    if len(word) == 1:
        return word[0]
    if all(len(a) == 1 for a in word) and "".join(word) not in labels:
        return "".join(word)
    return " ".join(word)


def _graph_literal(rule: Rule, labels: set[str]) -> str:
    """The literal that spells ``rule``'s right-hand side.  No graph fits
    two of the named literals, so the order of the tests only saves work:
    the memoized ``handle`` and ``discrete_graph`` first, the word form last."""
    h = rule.rhs
    if len(h.edges) == 1:
        e = h.edges[0]
        if h == handle(e.label, len(e.att)) and "(" not in e.label and ")" not in e.label:
            return f"handle({e.label})"
    if not h.edges and h == discrete_graph(len(h.nodes)):
        return f"empty({len(h.nodes)})"
    form = rule.form
    if form is not None and h == string_graph(form.word):
        text = _word_text(form.word, labels)
        if text is not None:
            return f'str("{text}")'
    return json.dumps(to_json_obj(h), separators=(",", ":"), sort_keys=True)


def _parse_graph_literal(text: str, sig: Signature, line: int) -> tuple[Hypergraph, dict]:
    """The graph a right-hand side literal spells, and what a ``Rule``
    caches about that graph which a str(), handle() or empty() literal
    already tells: its ``form`` and its ``arities``."""
    m = _STR_RE.match(text)
    if m:
        word = _parse_word(m.group(1), sig)
        known = {"form": WordForm(word, ()), "arities": frozenset((a, 2) for a in word)}
        return string_graph(word), known
    m = _HANDLE_RE.match(text)
    if m:
        label = m.group(1)
        if label not in sig:
            raise ParseError(f"unknown label {label!r} in handle()", line)
        arity = sig.arity(label)
        if arity == 2:
            form = WordForm((label,), ())
        else:
            form = WordForm((), (label,)) if arity == 0 else None
        return handle(label, arity), {"form": form, "arities": frozenset({(label, arity)})}
    m = _EMPTY_RE.match(text)
    if m:
        n = int(m.group(1))
        form = WordForm((), ()) if n == 0 else None
        return discrete_graph(n), {"form": form, "arities": frozenset()}
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON literal: {exc.msg}", line) from None
        try:
            return from_json_obj(obj), {}
        except HypergraphError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError(f"unrecognized right-hand side {text!r}", line)


def _rule_line(no: int, text: str) -> tuple[int, str, str]:
    """(line, left-hand side, right-hand side literal) of a rule line."""
    if " -> " not in text:
        raise ParseError(f"rule line needs ' -> ', got {text!r}", no)
    lhs, rhs = (part.strip() for part in text.split(" -> ", 1))
    if " " in lhs:
        raise ParseError(f"rule left-hand side must be one label, got {lhs!r}", no)
    return no, lhs, rhs


def _rule(sig: Signature, domain: set[str], no: int, lhs: str, rhs: str) -> Rule:
    graph, known = _parse_graph_literal(rhs, sig, no)
    rule = Rule(lhs, graph)
    vars(rule).update(known)  # as if its cached properties had run
    _at(no, _check_rules, (rule,), sig, domain)
    return rule


def _word_rule(symbols: set[str], no: int, lhs: str, rhs: str) -> tuple[str, Word]:
    if lhs not in symbols:
        raise ParseError(f"unknown symbol {lhs!r}", no)
    m = _STR_RE.match(rhs)
    if not m:
        raise ParseError(f"et0l right-hand sides must be str literals, got {rhs!r}", no)
    word = _parse_word(m.group(1), symbols)
    bad = [a for a in word if a not in symbols]
    if bad:
        raise ParseError(f"unknown symbols {bad} in word", no)
    return lhs, word


@dataclass
class _AutomatonLines:
    """The state, init, final and trans lines of an automaton, as read."""

    states: list[str] = field(default_factory=list)
    init: Optional[str] = None
    finals: list[str] = field(default_factory=list)
    trans: list[tuple[str, str, str]] = field(default_factory=list)

    def read(self, tokens: list[str], line: int) -> None:
        head = tokens[0]
        if head == "state":
            self.states += tokens[1:]
        elif head == "init":
            if self.init is not None:
                raise ParseError("duplicate init", line)
            if len(tokens) != 2:
                raise ParseError("'init' takes exactly one token", line)
            self.init = tokens[1]
        elif head == "final":
            self.finals += tokens[1:]
        else:
            if len(tokens) != 4:
                raise ParseError("trans takes exactly three tokens", line)
            self.trans.append((tokens[1], tokens[2], tokens[3]))

    def build(self, alphabet: list[str], line: int) -> ControlAutomaton:
        if self.init is None:
            raise ParseError("missing init", line)
        return _at(
            line,
            ControlAutomaton,
            states=tuple(self.states),
            alphabet=tuple(alphabet),
            transitions=tuple(self.trans),
            initial=self.init,
            finals=tuple(self.finals),
        )


class _DocParser:
    """Reads a grammar document's lines in one pass, then assembles it."""

    def __init__(self, text: str) -> None:
        self.lines = list(_lines(text))
        self.end = self.lines[-1][0] + 1 if self.lines else 1
        self.header: dict[str, tuple] = {}  # keyword -> (value, line)
        self.sig: dict[str, tuple[int, int]] = {}  # label -> (arity, line)
        self.tables: dict[str, tuple[int, list]] = {}  # index -> (line, rules)
        self.rules: Optional[tuple[int, list]] = None  # hr: (line, rules)
        self.control: Optional[tuple[int, _AutomatonLines]] = None

    def parse(self) -> GrammarDocument:
        body = None  # where the open block's lines go; self.sig for signature
        for no, text, tokens in self.lines:
            head = tokens[0]
            # a rule line may start with any label, keywords included
            if isinstance(body, list) and (
                head not in _KEYWORDS or len(tokens) > 2 and tokens[1] == "->"
            ):
                body.append(_rule_line(no, text))
            elif body is self.sig and head not in _KEYWORDS:
                self._sig_line(no, text)
            elif head in _AUTOMATON:
                if not isinstance(body, _AutomatonLines):
                    raise ParseError(f"{head!r} outside a control block", no)
                body.read(tokens, no)
            elif head in _TAKES:
                body = self._keyword_line(no, text, tokens)
            else:
                raise ParseError(f"unknown keyword {head!r}", no)
        return self._assemble()

    def _keyword_line(self, no: int, text: str, tokens: list[str]):
        """Reads one keyword line; returns the body of the block it opens."""
        head, takes = tokens[0], _TAKES[tokens[0]]
        if takes == "one" and len(tokens) != 2:
            raise ParseError(f"{head!r} takes exactly one token", no)
        if takes == "nothing" and len(tokens) > 1:
            raise ParseError(f"{head} takes no tokens on its own line", no)
        if head == "signature":
            if self.sig:
                raise ParseError("duplicate signature block", no)
            return self.sig
        if head == "table":
            if tokens[1] in self.tables:
                raise ParseError(f"duplicate table index {tokens[1]!r}", no)
            self.tables[tokens[1]] = (no, [])
            return self.tables[tokens[1]][1]
        if head == "rules":
            if self.rules is not None:
                raise ParseError("duplicate rules block", no)
            self.rules = (no, [])
            return self.rules[1]
        if head == "control":
            if self.control is not None:
                raise ParseError("duplicate control block", no)
            self.control = (no, _AutomatonLines())
            return self.control[1]
        if head in self.header:
            raise ParseError(f"duplicate {head}", no)
        if takes == "one":
            value = tokens[1]
        elif takes == "text":
            value = text[len(head) :].strip()
        else:
            value = tokens[1:]
            for label in value:
                if "/" in label:
                    raise ParseError(f"label {label!r} must not contain '/'", no)
        if head == "kind" and value not in ("phr", "hr", "et0l"):
            raise ParseError(f"unknown kind {value!r}", no, 6)
        if head == "order":
            try:
                value = int(value)
            except ValueError:
                message = f"order must be an integer, got {value!r}"
                raise ParseError(message, no) from None
        self.header[head] = (value, no)
        return None

    def _sig_line(self, no: int, text: str) -> None:
        if text.count("/") != 1 or " " in text:
            raise ParseError(f"signature entry must be label/arity, got {text!r}", no)
        label, arity_text = text.split("/")
        if not label:
            raise ParseError("empty label in signature", no)
        try:
            arity = int(arity_text)
        except ValueError:
            message = f"arity must be an integer, got {arity_text!r}"
            raise ParseError(message, no) from None
        if arity < 0:
            raise ParseError("arity must be nonnegative", no)
        if label in self.sig:
            raise ParseError(f"duplicate signature label {label!r}", no)
        self.sig[label] = (arity, no)

    # ------------------------------------------------------------ assembly

    def _need(self, keyword: str) -> tuple:
        if keyword not in self.header:
            raise ParseError(f"missing {keyword}", self.end)
        return self.header[keyword]

    def _assemble(self) -> GrammarDocument:
        kind = self.header.get("kind", ("phr",))[0]
        if kind != "phr" and self.control is not None:
            raise ParseError("control applies to phr documents only", self.control[0])
        if kind == "et0l":
            grammar, control = self._et0l(), None
        else:
            grammar, control = self._graph_grammar(kind)
        return GrammarDocument(
            kind=kind,
            grammar=grammar,
            control=control,
            name=self.header.get("name", (None,))[0],
            ref=self.header.get("ref", (None,))[0],
        )

    def _graph_grammar(
        self, kind: str
    ) -> tuple[PHRGrammar | HRGrammar, Optional[ControlAutomaton]]:
        """The phr or hr grammar and the control automaton, if any."""
        if not self.sig:
            raise ParseError("missing signature block", self.end)
        sig = Signature.of({label: arity for label, (arity, _) in self.sig.items()})
        labels, _ = self._need("terminals" if kind == "phr" else "nonterminals")
        start, start_line = self._need("start")
        max_arity = max((arity for _, arity in sig.arities), default=0)
        order = self.header.get("order", (max_arity,))[0]
        fields = dict(signature=sig, start=start, order=order)
        if kind == "hr":
            if self.tables:
                line = next(iter(self.tables.values()))[0]
                raise ParseError("an hr document uses a rules block, not tables", line)
            if self.rules is None:
                raise ParseError("missing rules block", self.end)
            # a nonterminal outside the signature is reported at the start line
            domain = {label for label in labels if label in sig}
            rules = tuple(_rule(sig, domain, *r) for r in self.rules[1])
            grammar = _at(start_line, HRGrammar, nonterminals=labels, rules=rules, **fields)
            return grammar, None
        if self.rules is not None:
            line = self.rules[0]
            raise ParseError("a phr document uses table blocks, not rules", line)
        tables = self._tables(Table, partial(_rule, sig, set(sig.labels)), sig.labels)
        grammar = _at(start_line, PHRGrammar, terminals=labels, tables=tables, **fields)
        if self.control is None:
            return grammar, None
        line, automaton = self.control
        return grammar, automaton.build(sorted(grammar.table_indices), line)

    def _et0l(self) -> ET0LGrammar:
        if self.sig:
            line = next(iter(self.sig.values()))[1]
            raise ParseError("an et0l document uses alphabet, not signature", line)
        alphabet, _ = self._need("alphabet")
        terminals, _ = self._need("terminals")
        start, start_line = self._need("start")
        tables = self._tables(WordTable, partial(_word_rule, set(alphabet)), alphabet)
        return _at(start_line, ET0LGrammar, alphabet, terminals, start, tables)

    def _tables(self, cls, resolve, scope) -> list:
        """Each table block as a ``cls`` over ``scope``, its rule lines
        resolved by ``resolve``, once per distinct line: every table that
        repeats a line takes the rule its first occurrence gave."""
        if not self.tables:
            raise ParseError("missing table block", self.end)
        resolved: dict[tuple[str, str], object] = {}

        def rule(no: int, lhs: str, rhs: str):
            found = resolved.get((lhs, rhs))
            if found is None:
                found = resolved[lhs, rhs] = resolve(no, lhs, rhs)
            return found

        return [
            (index, _at(line, cls, tuple(rule(*r) for r in entries), scope))
            for index, (line, entries) in self.tables.items()
        ]


def parse_document(text: str) -> GrammarDocument:
    return _DocParser(text).parse()


def serialize_document(doc: GrammarDocument) -> str:
    g = doc.grammar
    for label in g.alphabet if isinstance(g, ET0LGrammar) else g.signature.labels:
        _spelled("label", label)
    out = [f"kind {doc.kind}"]
    for key, value in (("name", doc.name), ("ref", doc.ref)):
        if value is not None:
            out.append(f"{key} {_spelled(key, value)}")
    if isinstance(g, ET0LGrammar):
        symbols = set(g.alphabet)
        out.append(" ".join(("alphabet", *g.alphabet)))
        out += [" ".join(("terminals", *g.terminals)), f"start {g.axiom}"]
        for index, t in g.tables:
            out.append(f"table {_spelled('table index', index)}")
            for lhs, word in t.rules:
                text = _word_text(word, symbols)
                if text is None:
                    raise ValueError(f"word {word!r} has letters unfit for str()")
                out.append(f'{lhs} -> str("{text}")')
        return "\n".join(out) + "\n"

    sig = g.signature
    labels = set(sig.labels)
    out += [f"order {g.order}", "signature"] + [f"{l}/{a}" for l, a in sig.arities]
    if isinstance(g, HRGrammar):
        out.append(" ".join(("nonterminals", *g.nonterminals)))
        out += [f"start {g.start}", "rules"]
        out += [f"{r.lhs} -> {_graph_literal(r, labels)}" for r in g.rules]
        return "\n".join(out) + "\n"

    assert isinstance(g, PHRGrammar)
    out += [" ".join(("terminals", *g.terminals)), f"start {g.start}"]
    for index, t in g.tables:
        out.append(f"table {_spelled('table index', index)}")
        out += [f"{r.lhs} -> {_graph_literal(r, labels)}" for r in t.rules]
    if doc.control is not None:
        out += ["control"] + _automaton_lines(doc.control)
    return "\n".join(out) + "\n"


def _automaton_lines(m: ControlAutomaton) -> list[str]:
    """The state, init, final and trans lines, shared by both formats."""
    for q in m.states:
        _spelled("state", q)
    for a in m.alphabet:
        _spelled("automaton symbol", a)
    return (
        [f"state {q}" for q in m.states]
        + [f"init {m.initial}"]
        + [f"final {q}" for q in m.finals]
        + [f"trans {q} {a} {p}" for q, a, p in m.transitions]
    )


def parse_fsa(text: str) -> ControlAutomaton:
    alphabet: list[str] = []
    m = _AutomatonLines()
    end = 1
    for no, _, tokens in _lines(text):
        end = no + 1
        if tokens[0] == "alphabet":
            alphabet += tokens[1:]
        elif tokens[0] in _AUTOMATON:
            m.read(tokens, no)
        else:
            raise ParseError(f"unknown keyword {tokens[0]!r}", no)
    return m.build(alphabet, end)


def serialize_fsa(m: ControlAutomaton) -> str:
    lines = _automaton_lines(m)
    return "\n".join([" ".join(("alphabet", *m.alphabet))] + lines) + "\n"
