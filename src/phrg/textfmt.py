"""Line-oriented text format for grammar documents and automata.

A grammar document holds one grammar (``kind phr``, ``hr`` or ``et0l``),
optionally a control automaton (parallel grammars only) and optional
``name``/``ref`` metadata lines.  The format is strict: unknown keywords,
unknown labels, arity mismatches and tables that are not left-total are
reported with line and column.  Serialization is canonical, so
parse(serialize(parse(text))) == parse(text).

Rule right-hand sides are written as literals::

    S -> str("ab")        a string graph; str("") is the one-node graph
    S -> handle(X)        the graph with a single X edge
    S -> empty(3)         three isolated external nodes; empty(0) is empty
    S -> {"nodes": ...}   inline JSON for anything else

A string literal with whitespace is a sequence of letters; without
whitespace it is a single letter if the whole text is a label of the
signature, otherwise one letter per character.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

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
    WordTable,
)
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    Signature,
    discrete_graph,
    extract_string,
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

_KEYWORDS = {
    "kind",
    "name",
    "ref",
    "order",
    "signature",
    "alphabet",
    "terminals",
    "nonterminals",
    "start",
    "table",
    "rules",
    "control",
    "state",
    "init",
    "final",
    "trans",
}


def _parse_word(text: str, labels: set[str]) -> Word:
    if text == "":
        return ()
    if any(c.isspace() for c in text):
        return tuple(text.split())
    if text in labels:
        return (text,)
    return tuple(text)


def _check_label(token: str, line: int, col: int) -> str:
    if "/" in token:
        raise ParseError(f"label {token!r} must not contain '/'", line, col)
    if '"' in token:
        raise ParseError(f"label {token!r} must not contain '\"'", line, col)
    return token


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


def _graph_literal(h: Hypergraph, labels: set[str]) -> str:
    word = extract_string(h)
    if word is not None and h == string_graph(word):
        text = _word_text(word, labels)
        if text is not None:
            return f'str("{text}")'
    if len(h.edges) == 1:
        e = h.edges[0]
        if h == handle(e.label, len(e.att)) and "(" not in e.label and ")" not in e.label:
            return f"handle({e.label})"
    if not h.edges and h == discrete_graph(len(h.nodes)):
        return f"empty({len(h.nodes)})"
    return json.dumps(to_json_obj(h), separators=(",", ":"), sort_keys=True)


def _parse_graph_literal(text: str, labels: set[str], line: int, col: int) -> Hypergraph:
    m = _STR_RE.match(text)
    if m:
        word = _parse_word(m.group(1), labels)
        return string_graph(word)
    m = _EMPTY_RE.match(text)
    if m:
        return discrete_graph(int(m.group(1)))
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON literal: {exc.msg}", line, col) from None
        try:
            return from_json_obj(obj)
        except HypergraphError as exc:
            raise ParseError(str(exc), line, col) from None
    raise ParseError(f"unrecognized right-hand side {text!r}", line, col)


@dataclass
class _Line:
    no: int
    text: str


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
        assert self.init is not None
        try:
            return ControlAutomaton(
                states=tuple(self.states),
                alphabet=tuple(alphabet),
                transitions=tuple(self.trans),
                initial=self.init,
                finals=tuple(self.finals),
            )
        except GrammarError as exc:
            raise ParseError(str(exc), line) from None


class _DocParser:
    def __init__(self, text: str) -> None:
        self.lines = [
            _Line(i + 1, raw)
            for i, raw in enumerate(text.splitlines())
            if raw.strip() and not raw.lstrip().startswith("#")
        ]
        self.kind: Optional[str] = None
        self.name: Optional[str] = None
        self.ref: Optional[str] = None
        self.order: Optional[tuple[int, int]] = None  # (value, line)
        self.sig_pairs: list[tuple[str, int, int]] = []  # label, arity, line
        self.alphabet: Optional[tuple[list[str], int]] = None
        self.terminals: Optional[tuple[list[str], int]] = None
        self.nonterminals: Optional[tuple[list[str], int]] = None
        self.start: Optional[tuple[str, int]] = None
        self.tables: list[tuple[str, int, list[tuple[int, str, str]]]] = []
        self.hr_rules: Optional[tuple[int, list[tuple[int, str, str]]]] = None
        self.control: Optional[_AutomatonLines] = None
        self.control_line = 0
        self.end_line = (self.lines[-1].no + 1) if self.lines else 1

    def fail(self, message: str, line: int, col: int = 1) -> ParseError:
        return ParseError(message, line, col)

    def parse(self) -> GrammarDocument:
        block: Optional[str] = None
        for ln in self.lines:
            stripped = ln.text.strip()
            tokens = stripped.split()
            head = tokens[0]
            # a rule line may start with any label, keywords included
            if block in ("table", "rules") and tokens[1:2] == ["->"]:
                self._rule_line(stripped, ln.no, block)
                continue
            if head not in _KEYWORDS:
                if block == "signature":
                    self._sig_line(stripped, ln.no)
                    continue
                if block in ("table", "rules"):
                    self._rule_line(stripped, ln.no, block)
                    continue
                raise self.fail(f"unknown keyword {head!r}", ln.no)
            if head in ("state", "init", "final", "trans"):
                if block != "control":
                    raise self.fail(f"{head!r} outside a control block", ln.no)
                assert self.control is not None
                self.control.read(tokens, ln.no)
                continue
            block = None
            if head == "kind":
                self._set_single("kind", self._one(tokens, ln.no), ln.no)
                if self.kind not in ("phr", "hr", "et0l"):
                    raise self.fail(f"unknown kind {self.kind!r}", ln.no, 6)
            elif head == "name":
                self._set_single("name", stripped[len("name") :].strip(), ln.no)
            elif head == "ref":
                self._set_single("ref", stripped[len("ref") :].strip(), ln.no)
            elif head == "order":
                value = self._one(tokens, ln.no)
                if self.order is not None:
                    raise self.fail("duplicate order", ln.no)
                try:
                    self.order = (int(value), ln.no)
                except ValueError:
                    raise self.fail(f"order must be an integer, got {value!r}", ln.no)
            elif head == "signature":
                if tokens[1:]:
                    raise self.fail("signature takes no tokens on its own line", ln.no)
                if self.sig_pairs:
                    raise self.fail("duplicate signature block", ln.no)
                block = "signature"
            elif head == "alphabet":
                if self.alphabet is not None:
                    raise self.fail("duplicate alphabet", ln.no)
                self.alphabet = ([_check_label(t, ln.no, 1) for t in tokens[1:]], ln.no)
            elif head == "terminals":
                if self.terminals is not None:
                    raise self.fail("duplicate terminals", ln.no)
                self.terminals = ([_check_label(t, ln.no, 1) for t in tokens[1:]], ln.no)
            elif head == "nonterminals":
                if self.nonterminals is not None:
                    raise self.fail("duplicate nonterminals", ln.no)
                self.nonterminals = (
                    [_check_label(t, ln.no, 1) for t in tokens[1:]],
                    ln.no,
                )
            elif head == "start":
                if self.start is not None:
                    raise self.fail("duplicate start", ln.no)
                self.start = (self._one(tokens, ln.no), ln.no)
            elif head == "table":
                index = self._one(tokens, ln.no)
                if index in {i for i, _, _ in self.tables}:
                    raise self.fail(f"duplicate table index {index!r}", ln.no)
                self.tables.append((index, ln.no, []))
                block = "table"
            elif head == "rules":
                if tokens[1:]:
                    raise self.fail("rules takes no tokens on its own line", ln.no)
                if self.hr_rules is not None:
                    raise self.fail("duplicate rules block", ln.no)
                self.hr_rules = (ln.no, [])
                block = "rules"
            elif head == "control":
                if tokens[1:]:
                    raise self.fail("control takes no tokens on its own line", ln.no)
                if self.control is not None:
                    raise self.fail("duplicate control block", ln.no)
                self.control = _AutomatonLines()
                self.control_line = ln.no
                block = "control"
        return self._assemble()

    def _one(self, tokens: list[str], line: int) -> str:
        if len(tokens) != 2:
            raise self.fail(f"{tokens[0]!r} takes exactly one token", line)
        return tokens[1]

    def _set_single(self, attr: str, value: str, line: int) -> None:
        if getattr(self, attr) is not None:
            raise self.fail(f"duplicate {attr}", line)
        setattr(self, attr, value)

    def _sig_line(self, text: str, line: int) -> None:
        if text.count("/") != 1 or " " in text:
            raise self.fail(
                f"signature entry must be label/arity, got {text!r}", line
            )
        label, arity_text = text.split("/")
        if not label:
            raise self.fail("empty label in signature", line)
        try:
            arity = int(arity_text)
        except ValueError:
            raise self.fail(f"arity must be an integer, got {arity_text!r}", line)
        if arity < 0:
            raise self.fail("arity must be nonnegative", line)
        if label in {l for l, _, _ in self.sig_pairs}:
            raise self.fail(f"duplicate signature label {label!r}", line)
        self.sig_pairs.append((label, arity, line))

    def _rule_line(self, text: str, line: int, block: str) -> None:
        if " -> " not in text:
            raise self.fail(f"rule line needs ' -> ', got {text!r}", line)
        lhs, rhs = text.split(" -> ", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not lhs or " " in lhs:
            raise self.fail(f"rule left-hand side must be one label, got {lhs!r}", line)
        if block == "table":
            self.tables[-1][2].append((line, lhs, rhs))
        else:
            assert self.hr_rules is not None
            self.hr_rules[1].append((line, lhs, rhs))

    # ------------------------------------------------------------ assembly

    def _need(self, value, what: str):
        if value is None:
            raise self.fail(f"missing {what}", self.end_line)
        return value

    def _build_signature(self) -> Signature:
        if not self.sig_pairs:
            raise self.fail("missing signature block", self.end_line)
        return Signature.of({l: a for l, a, _ in self.sig_pairs})

    def _resolve_rule(
        self, sig: Signature, lhs_domain: set[str], line: int, lhs: str, rhs_text: str
    ) -> Rule:
        labels = set(sig.labels)
        if lhs not in labels:
            raise self.fail(f"unknown label {lhs!r}", line)
        if lhs not in lhs_domain:
            raise self.fail(f"label {lhs!r} cannot head a rule here", line)
        m = _HANDLE_RE.match(rhs_text)
        if m:
            label = m.group(1)
            if label not in labels:
                raise self.fail(f"unknown label {label!r} in handle()", line)
            rhs = handle(label, sig)
        else:
            rhs = _parse_graph_literal(rhs_text, labels, line, 1)
        for e in rhs.edges:
            if e.label not in labels:
                raise self.fail(f"unknown label {e.label!r} in right-hand side", line)
            if len(e.att) != sig.arity(e.label):
                raise self.fail(
                    f"label {e.label!r} has arity {sig.arity(e.label)}, "
                    f"edge has {len(e.att)} tentacles",
                    line,
                )
        if len(rhs.ext) != sig.arity(lhs):
            raise self.fail(
                f"right-hand side has type {len(rhs.ext)}, "
                f"label {lhs!r} has arity {sig.arity(lhs)}",
                line,
            )
        return Rule(lhs, rhs)

    def _assemble(self) -> GrammarDocument:
        kind = self.kind or "phr"
        if kind == "phr":
            return self._assemble_phr()
        if kind == "hr":
            return self._assemble_hr()
        return self._assemble_et0l()

    def _assemble_phr(self) -> GrammarDocument:
        sig = self._build_signature()
        terminals, _ = self._need(self.terminals, "terminals")
        start, start_line = self._need(self.start, "start")
        if self.hr_rules is not None:
            raise self.fail("a phr document uses table blocks, not rules", self.hr_rules[0])
        if not self.tables:
            raise self.fail("missing table block", self.end_line)
        labels = set(sig.labels)
        tables = []
        for index, header_line, entries in self.tables:
            rules = tuple(
                self._resolve_rule(sig, labels, line, lhs, rhs)
                for line, lhs, rhs in entries
            )
            try:
                tables.append((index, Table(rules=rules, scope=sig.labels)))
            except GrammarError as exc:
                raise self.fail(str(exc), header_line) from None
        max_arity = max((sig.arity(l) for l in sig.labels), default=0)
        order = self.order[0] if self.order else max_arity
        try:
            grammar = PHRGrammar(
                signature=sig,
                terminals=tuple(terminals),
                start=start,
                tables=tuple(tables),
                order=order,
            )
        except GrammarError as exc:
            raise self.fail(str(exc), start_line) from None
        control = None
        if self.control is not None:
            if self.control.init is None:
                raise self.fail("control block missing init", self.control_line)
            indices = sorted(grammar.table_indices)
            control = self.control.build(indices, self.control_line)
            try:
                ControlledPHRGrammar(grammar=grammar, control=control)
            except GrammarError as exc:
                raise self.fail(str(exc), self.control_line) from None
        return GrammarDocument(
            kind="phr", grammar=grammar, control=control, name=self.name, ref=self.ref
        )

    def _assemble_hr(self) -> GrammarDocument:
        sig = self._build_signature()
        nonterminals, _ = self._need(self.nonterminals, "nonterminals")
        start, start_line = self._need(self.start, "start")
        if self.tables:
            raise self.fail("an hr document uses a rules block, not tables", self.tables[0][1])
        if self.control is not None:
            raise self.fail("control applies to phr documents only", self.control_line)
        rules_line, entries = self._need(self.hr_rules, "rules block")
        rules = tuple(
            self._resolve_rule(sig, set(nonterminals), line, lhs, rhs)
            for line, lhs, rhs in entries
        )
        max_arity = max((sig.arity(l) for l in sig.labels), default=0)
        order = self.order[0] if self.order else max_arity
        try:
            grammar = HRGrammar(
                signature=sig,
                nonterminals=tuple(nonterminals),
                start=start,
                rules=rules,
                order=order,
            )
        except GrammarError as exc:
            raise self.fail(str(exc), start_line) from None
        return GrammarDocument(kind="hr", grammar=grammar, name=self.name, ref=self.ref)

    def _assemble_et0l(self) -> GrammarDocument:
        if self.sig_pairs:
            raise self.fail(
                "an et0l document uses alphabet, not signature", self.sig_pairs[0][2]
            )
        if self.control is not None:
            raise self.fail("control applies to phr documents only", self.control_line)
        alphabet, _ = self._need(self.alphabet, "alphabet")
        terminals, _ = self._need(self.terminals, "terminals")
        start, start_line = self._need(self.start, "start")
        if not self.tables:
            raise self.fail("missing table block", self.end_line)
        symbols = set(alphabet)
        tables = []
        for index, header_line, entries in self.tables:
            rules = []
            for line, lhs, rhs_text in entries:
                if lhs not in symbols:
                    raise self.fail(f"unknown symbol {lhs!r}", line)
                m = _STR_RE.match(rhs_text)
                if not m:
                    raise self.fail(
                        f"et0l right-hand sides must be str literals, got {rhs_text!r}",
                        line,
                    )
                word = _parse_word(m.group(1), symbols)
                bad = [a for a in word if a not in symbols]
                if bad:
                    raise self.fail(f"unknown symbols {bad} in word", line)
                rules.append((lhs, word))
            try:
                tables.append((index, WordTable(rules=tuple(rules), scope=tuple(symbols))))
            except GrammarError as exc:
                raise self.fail(str(exc), header_line) from None
        try:
            grammar = ET0LGrammar(
                alphabet=tuple(alphabet),
                terminals=tuple(terminals),
                axiom=start,
                tables=tuple(tables),
            )
        except GrammarError as exc:
            raise self.fail(str(exc), start_line) from None
        return GrammarDocument(kind="et0l", grammar=grammar, name=self.name, ref=self.ref)


def parse_document(text: str) -> GrammarDocument:
    return _DocParser(text).parse()


def serialize_document(doc: GrammarDocument) -> str:
    g = doc.grammar
    names = g.alphabet if isinstance(g, ET0LGrammar) else g.signature.labels
    # empty, a line's leading "#", a signature entry's "/" or a token's
    # whitespace would change what the line says
    unfit = [
        l
        for l in names
        if l == "" or l.startswith("#") or "/" in l or any(c.isspace() for c in l)
    ]
    if unfit:
        raise ValueError(f"labels {unfit!r} cannot be written in the text format")
    out: list[str] = [f"kind {doc.kind}"]
    if doc.name is not None:
        out.append(f"name {doc.name}")
    if doc.ref is not None:
        out.append(f"ref {doc.ref}")
    if isinstance(g, ET0LGrammar):
        symbols = set(g.alphabet)
        out.append(("alphabet " + " ".join(g.alphabet)).rstrip())
        out.append(("terminals " + " ".join(g.terminals)).rstrip())
        out.append(f"start {g.axiom}")
        for index, t in g.tables:
            out.append(f"table {index}")
            for lhs, word in t.rules:
                text = _word_text(word, symbols)
                if text is None:
                    raise ValueError(f"word {word!r} has letters unfit for str()")
                out.append(f'{lhs} -> str("{text}")')
        return "\n".join(out) + "\n"

    sig = g.signature
    labels = set(sig.labels)
    out.append(f"order {g.order}")
    out.append("signature")
    out += [f"{l}/{a}" for l, a in sig.arities]
    if isinstance(g, HRGrammar):
        out.append(("nonterminals " + " ".join(g.nonterminals)).rstrip())
        out.append(f"start {g.start}")
        out.append("rules")
        out += [f"{r.lhs} -> {_graph_literal(r.rhs, labels)}" for r in g.rules]
        return "\n".join(out) + "\n"

    assert isinstance(g, PHRGrammar)
    out.append(("terminals " + " ".join(g.terminals)).rstrip())
    out.append(f"start {g.start}")
    for index, t in g.tables:
        out.append(f"table {index}")
        out += [f"{r.lhs} -> {_graph_literal(r.rhs, labels)}" for r in t.rules]
    if doc.control is not None:
        out.append("control")
        out += _automaton_lines(doc.control)
    return "\n".join(out) + "\n"


def _automaton_lines(m: ControlAutomaton) -> list[str]:
    """The state, init, final and trans lines, shared by both formats."""
    return (
        [f"state {q}" for q in m.states]
        + [f"init {m.initial}"]
        + [f"final {q}" for q in m.finals]
        + [f"trans {q} {a} {p}" for q, a, p in m.transitions]
    )


def parse_fsa(text: str) -> ControlAutomaton:
    alphabet: list[str] = []
    m = _AutomatonLines()
    last = 1
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        last = no
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head == "alphabet":
            alphabet += tokens[1:]
        elif head in ("state", "init", "final", "trans"):
            m.read(tokens, no)
        else:
            raise ParseError(f"unknown keyword {head!r}", no)
    if m.init is None:
        raise ParseError("missing init", last + 1)
    return m.build(alphabet, last + 1)


def serialize_fsa(m: ControlAutomaton) -> str:
    out = [("alphabet " + " ".join(m.alphabet)).rstrip()] + _automaton_lines(m)
    return "\n".join(out) + "\n"
