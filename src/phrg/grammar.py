"""Grammar types and single-step derivation operations.

The central type is the parallel hyperedge replacement grammar: a
signature, a set of terminal labels, a start label, and a finite family
of indexed rule tables.  A parallel step picks one table and rewrites
every edge of the current graph simultaneously with rules from it, so
each table must be left-total (at least one rule per label).  Sequential
hyperedge replacement grammars and tabled word grammars are carried as
separate types; the transformation module embeds both into the parallel
formalism.  A word table enters the parallel product only as its
``graph_table``, the table of its rules read as string-graph rules.

Derivation control is an automaton over table indices: a derivation
counts only if the sequence of applied table indices is accepted.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import inf, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .canonical import canonical_graph, canonical_key
from .hypergraph import (
    Hyperedge,
    Hypergraph,
    HypergraphError,
    Signature,
    _cached,
    _graph,
    extract_string,
    handle,
    replace,
    string_graph,
    validate,
)

Word = tuple[str, ...]
_T = TypeVar("_T")

_PRODUCT_GUARD = 10**6
_CHOICES_CACHE = 1024  # choice searches kept per rows object
_new = tuple.__new__  # builds a CodedForm without its Python-level __new__


class GrammarError(ValueError):
    """Raised for ill-formed grammars or misapplied derivation steps."""


class WordForm(NamedTuple):
    """A string graph plus nullary edges, kept as its word and its sorted
    nullary labels.  The pair determines the graph up to isomorphism, so a
    word form is its own key: derivations of a string-shaped grammar run on
    these without building graphs.  The search and ``et0l_step`` code them
    (see ``_Code``) and decode only their results."""

    word: Word
    flags: tuple[str, ...]

    def graph(self) -> Hypergraph:
        h = string_graph(self.word)
        flags = tuple(Hyperedge(f"f{i}", l, ()) for i, l in enumerate(self.flags))
        return Hypergraph(nodes=h.nodes, edges=h.edges + flags, ext=h.ext)


class CodedForm(NamedTuple):
    """A word form with each label coded as one character by ``code``: the
    form that a product on the word path takes."""

    word: str
    flags: str
    code: _Code

    def labels(self) -> frozenset[str]:
        return self.code.label_set(self.word + self.flags)


_SEP = "\0"  # ends the word of a coded key; below every label's code


class _Code:
    """One character per label: ``chr`` of 1 plus its rank among the sorted
    labels.  The search keys a word form by one ``str``, the coded word,
    ``_SEP`` and the coded flags, so a successor is one ``"".join``, its
    hash is cached and comparisons run over code points.  As ``_SEP`` sorts
    below every code, keys sort as the ``(word, flags)`` label tuples do:
    a word that is a prefix of another comes first.  It is the word path's codec."""

    def __init__(self, labels: Iterable[str]) -> None:
        self.names = tuple(sorted(set(labels)))
        self.chars = {l: chr(i) for i, l in enumerate(self.names, 1)}
        self._label_sets: dict[frozenset[str], frozenset[str]] = {}

    def encode(self, labels: Iterable[str]) -> str:
        return "".join(map(self.chars.__getitem__, labels))

    def decode(self, coded: str) -> Word:
        names = self.names
        return tuple([names[ord(c) - 1] for c in coded])

    def coded(self, form: WordForm) -> CodedForm:
        return CodedForm(self.encode(form.word), self.encode(form.flags), self)

    def key(self, word: Sequence[str], flags: Sequence[str] = ()) -> str:
        """The key of the word form ``(word, flags)``."""
        return self.encode(word) + _SEP + self.encode(flags)

    def start(self, grammar: PHRGrammar) -> tuple[str, CodedForm]:
        key = self.key((grammar.start,))
        return key, self.state(key)

    def state(self, key: str, succs: object = None) -> CodedForm:
        """The coded form of a key; ``succs`` is not read."""
        word, _, flags = key.partition(_SEP)
        return _new(CodedForm, (word, flags, self))

    def graphs(self, found: Iterable[str]) -> dict[bytes, Hypergraph]:
        graphs = (self.decoded(key).graph() for key in found)
        return {canonical_key(h): canonical_graph(h) for h in graphs}

    def words(self, found: Iterable[str], empty: frozenset[str]) -> Iterator[Word]:
        """The word of each key without nullary labels, less ``empty``;
        read off the key, with no ``WordForm`` built."""
        for key in found:
            word, _, flags = key.partition(_SEP)
            if not flags:
                yield tuple([a for a in self.decode(word) if a not in empty])

    def decoded(self, key: str) -> WordForm:
        word, _, flags = key.partition(_SEP)
        return WordForm(self.decode(word), self.decode(flags))

    def label_set(self, coded: str) -> frozenset[str]:
        """The labels of a coded string, decoded once per set of codes."""
        chars = frozenset(coded)
        found = self._label_sets.get(chars)
        if found is None:
            found = self._label_sets[chars] = frozenset(self.decode(chars))
        return found


def word_form(rhs: Hypergraph) -> Optional[WordForm]:
    """``rhs`` as a word form, or None when it is not one.

    Of type 2 that is a string graph (possibly of the empty word) plus
    nullary edges; of type 0, nullary edges alone, without nodes.
    """
    flags = tuple(sorted(e.label for e in rhs.edges if not e.att))
    if rhs.type == 0:
        nullary_only = len(flags) == len(rhs.edges) and not rhs.nodes
        return WordForm((), flags) if nullary_only else None
    path = rhs
    if flags:  # the graph without its nullary edges, still in normal form
        path = _graph(rhs.nodes, tuple(e for e in rhs.edges if e.att), rhs.ext)
    word = extract_string(path)
    return None if word is None else WordForm(word, flags)


def _reachable(seeds: Iterable[_T], successors: Callable[[_T], Iterable[_T]]) -> set[_T]:
    """The seeds and everything reachable from them along ``successors``,
    which is called once per item found, last found first."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for y in successors(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _fresh(used: set[str], base: str) -> str:
    """``base``, suffixed ``.2``, ``.3``, ... until it is unused; the result
    joins ``used``.  Construction labels (``@name``, barred ``~name``),
    subset names (``{p+q}``) and derived table indices all come from here,
    so a name that would collide with one in ``used`` gets ``.2``, ``.3``
    and so on."""
    name = base
    k = 2
    while name in used:
        name = f"{base}.{k}"
        k += 1
    used.add(name)
    return name


def _least_sizes(
    seeds: Iterable[str], rules: Iterable[tuple[str, Sequence[str]]]
) -> dict[str, int]:
    """The least size of a derivation from each label that has one: a seed
    has size 1, and a rule ``(lhs, labels)`` gives ``lhs`` the sum of the
    sizes of its labels, each occurrence counted.  A label with no finite
    size is left out, so the keys are the least set holding the seeds and
    the left-hand side of every rule whose labels all lie in it.

    Sums never fall below a summand, so sizes are final in the order they
    leave a heap: Knuth's generalization of Dijkstra's algorithm ("A
    generalization of Dijkstra's algorithm", IPL 1977), one pass over the
    rules."""
    heap = [(1, l) for l in seeds]
    waiting: dict[str, list[list]] = {}  # per label, the rules it still holds up
    for lhs, labels in rules:
        rule = [len(labels), 0, lhs]  # labels without a size yet, their sizes' sum
        if labels:
            for l in labels:
                waiting.setdefault(l, []).append(rule)
        else:
            heap.append((0, lhs))
    heapify(heap)
    least: dict[str, int] = {}
    while heap:
        size, l = heappop(heap)
        if l in least:
            continue
        least[l] = size
        for rule in waiting.pop(l, ()):
            rule[0] -= 1
            rule[1] += size
            if not rule[0] and rule[2] not in least:
                heappush(heap, (rule[1], rule[2]))
    return least


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: Hypergraph

    @_cached
    def key(self) -> bytes:
        """The right-hand side's canonical key, computed once per rule."""
        self.arities  # keys only a right-hand side found sound
        return canonical_key(self.rhs)

    @_cached
    def form(self) -> Optional[WordForm]:
        """The right-hand side's ``word_form``, computed once per rule."""
        return word_form(self.rhs)

    @_cached
    def arities(self) -> frozenset[tuple[str, int]]:
        """The ``(label, arity)`` pairs of the right-hand side's edges, found
        once per rule.  The rule's one structural check: it raises
        ``_invalid_rhs`` with every fault ``validate`` finds.  A sound graph
        conforms to a signature exactly when its pairs are among the signature's."""
        problems = validate(self.rhs)
        if problems:
            raise _invalid_rhs(self, problems)
        return frozenset((e.label, len(e.att)) for e in self.rhs.edges)


def is_identity_rule(rule: Rule) -> bool:
    """True when the rule rewrites a label to its own handle."""
    r = rule.rhs
    if len(r.edges) != 1:
        return False
    e = r.edges[0]
    return (
        e.label == rule.lhs
        and r.ext == e.att
        and len(set(e.att)) == len(e.att)
        and set(r.nodes) == set(e.att)
        and len(r.nodes) == len(e.att)
    )


def _sort_fields(obj: object, *fields: str) -> None:
    """Store each named field of a frozen dataclass as a sorted set."""
    for f in fields:
        object.__setattr__(obj, f, tuple(sorted(set(getattr(obj, f)))))


def _set_total(table: Table | WordTable, rules: tuple, lhs: set[str], word: str) -> None:
    """Store normalized ``rules`` and the sorted scope on a table, whose
    rules' left-hand sides ``lhs`` must be exactly its scope; ``word``
    prefixes the messages of a word table."""
    object.__setattr__(table, "rules", rules)
    _sort_fields(table, "scope")
    stray = lhs - set(table.scope)
    if stray:
        symbols = "symbols" if word else "labels"
        raise GrammarError(f"{word}rules for {symbols} outside scope: {sorted(stray)}")
    missing = set(table.scope) - lhs
    if missing:
        raise GrammarError(f"{word}table not left-total, no rules for: {sorted(missing)}")


def _by_lhs(scope: Sequence[str], pairs: Iterable[tuple[str, object]]) -> dict:
    out: dict[str, list] = {l: [] for l in scope}
    for l, x in pairs:
        out[l].append(x)
    return {l: tuple(xs) for l, xs in out.items()}


@dataclass(frozen=True)
class Table:
    """A left-total set of rules covering every label in ``scope``.

    Rule sets are normalized up to right-hand-side isomorphism: two rules
    with the same left-hand side and isomorphic right-hand sides count as
    one.  Successor sets are taken modulo isomorphism anyway, so this
    does not change any derived language.  A table holds its rules alone;
    the product reads them compiled as ``_Rows``.
    """

    rules: tuple[Rule, ...]
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        first: dict[tuple[str, bytes], Rule] = {}
        for r in self.rules:
            first.setdefault((r.lhs, r.key), r)
        rules = tuple(first[k] for k in sorted(first))
        _set_total(self, rules, {r.lhs for r in rules}, "")

    @_cached
    def by_label(self) -> dict[str, tuple[Rule, ...]]:
        return _by_lhs(self.scope, ((r.lhs, r) for r in self.rules))

    @_cached
    def rows(self) -> _Rows:
        """The table alone compiled for the product: coded over its scope
        and the labels of its right-hand sides, with every least size 0.  A
        grammar's search compiles its own (``PHRGrammar.live_tables``)."""
        code = _Code(chain(self.scope, *(r.rhs.labels() for r in self.rules)))
        return _Rows(self.rules, code, {})


class _Rows:
    """Rules compiled for the product: per label, its rules as product
    options, coded by ``code`` on the word path and sized by ``least``, the
    lower bound per label on the edges of a terminal graph derived from it
    (0 for a label it lacks); and the memo of their choice searches, which
    lives as long as this object."""

    def __init__(self, rules: Sequence[Rule], code: _Code, least: Mapping[str, float]) -> None:
        self.rules, self.code = rules, code
        opts: dict[str, list] = {}
        for r in rules:
            rhs = r.rhs
            size = sum([least.get(e.label, 0) for e in rhs.edges])
            opts.setdefault(r.lhs, []).append((len(rhs.edges), len(rhs.nodes) - rhs.type, size, r))
        # per label with a rule, its options on the graph path: (edges added,
        # nodes added, least size, rule), sorted by the first two with ties
        # kept in order; then the least of each of the first three
        self.graph_options: dict[str, tuple] = {}
        for l, row in opts.items():
            row.sort(key=itemgetter(0, 1))
            least_nodes, least_size = (min(o[k] for o in row) for k in (1, 2))
            self.graph_options[l] = (tuple(row), row[0][0], least_nodes, least_size)
        ref = weakref.ref(self)  # the memo, stored on the rows, must not keep them alive
        self.choices = lru_cache(maxsize=_CHOICES_CACHE)(lambda *key: _choices(ref(), *key))

    @_cached
    def coded_options(self) -> dict[str, tuple]:
        """Per label whose rules all have word forms, keyed by its character
        in ``code``: its rules as product options of the word path, in
        ``graph_options`` order, each rule's word coded (its whole form for
        ``flag_labels``)."""
        code, out = self.code, {}
        for l, (opts, *least) in self.graph_options.items():
            if all(r.form is not None for *_, r in opts):
                encode = code.coded if l in self.flag_labels else lambda f: code.encode(f.word)
                opts = tuple((de, dn, ds, encode(r.form)) for de, dn, ds, r in opts)
                out[code.chars[l]] = (opts, *least)
        return out

    @_cached
    def flag_labels(self) -> frozenset[str]:
        """Labels whose rules can add nullary edges."""
        return frozenset(r.lhs for r in self.rules if not all(e.att for e in r.rhs.edges))

    @_cached
    def active_labels(self) -> frozenset[str]:
        """Labels whose rewriting can change the graph."""
        return frozenset(
            l
            for l, (opts, *_) in self.graph_options.items()
            if not (len(opts) == 1 and is_identity_rule(opts[0][3]))
        )


def identity_table(sig: Signature) -> Table:
    return Table(
        rules=tuple(Rule(l, handle(l, sig)) for l in sig.labels),
        scope=sig.labels,
    )


def override_table(base: Table, overlay: Iterable[Rule]) -> Table:
    """Replace, per left-hand side, the base rules by the overlay's."""
    overlay = tuple(overlay)
    touched = {r.lhs for r in overlay}
    stray = touched - set(base.scope)
    if stray:
        raise GrammarError(f"overlay rules for labels outside scope: {sorted(stray)}")
    kept = tuple(r for r in base.rules if r.lhs not in touched)
    return Table(rules=kept + overlay, scope=base.scope)


def _check_order(order: int, sig: Signature) -> None:
    max_arity = max((sig.arity(l) for l in sig.labels), default=0)
    if order < max_arity:
        raise GrammarError(f"order {order} below maximal label arity {max_arity}")


def _set_tables(
    g: PHRGrammar | ET0LGrammar, labels: set[str], source: str, check: Callable
) -> None:
    """Give the grammar's tables string indices, which must be unique.  Each
    table must cover exactly ``labels``, those of the ``source``, before
    ``check(index, table)`` runs on it."""
    object.__setattr__(g, "tables", tuple((str(i), t) for i, t in g.tables))
    indices = [i for i, _ in g.tables]
    if len(set(indices)) != len(indices):
        raise GrammarError("duplicate table indices")
    for idx, table in g.tables:
        if set(table.scope) != labels:
            raise GrammarError(f"table {idx!r} scope differs from the {source}")
        check(idx, table)


def _invalid_rhs(rule: Rule, problems: Iterable) -> GrammarError:
    return GrammarError(
        f"rule for {rule.lhs!r}: invalid right-hand side: "
        + "; ".join(f"{v.kind}({v.subject}): {v.detail}" for v in problems)
    )


def _check_rules(rules: Iterable[Rule], sig: Signature, lhs_domain: set[str]) -> None:
    """Each rule's structure (``Rule.arities``), then its left-hand side,
    type and labels against ``sig``: a set test on the rule's cached pairs,
    with ``validate`` run again only to spell signature faults."""
    for r in rules:
        arities = r.arities
        if r.lhs not in lhs_domain:
            raise GrammarError(f"rule for label {r.lhs!r} outside its domain")
        if len(r.rhs.ext) != sig.arity(r.lhs):
            raise GrammarError(
                f"rule for {r.lhs!r}: right-hand side has type {len(r.rhs.ext)}, "
                f"label has arity {sig.arity(r.lhs)}"
            )
        if not arities <= sig.pairs:
            raise _invalid_rhs(r, validate(r.rhs, sig))


class _Answered:
    """A grammar object that keeps the answers of its searches."""

    @_cached
    def member_answers(self) -> dict:
        """The answer tables that the engine's searches leave on this
        object, by bounded budgets, for ``engine.member_string`` to read:
        a member query stores one at its own budgets, and
        ``enumerate_strings`` and ``enumerate_language`` one at their
        limits.  A table also answers a query whose budgets it covers: the
        same step, edge and result budgets, a size bound no larger, and
        the same node cap, or a larger one on a node-monotone grammar when
        the word fits the query's cap; then the query's search visits the
        table search's states that fit, with the same parents (see
        ``engine``).  A ``dataclasses.replace`` copy starts with none."""
        return {}


@dataclass(frozen=True)
class PHRGrammar(_Answered):
    signature: Signature
    terminals: tuple[str, ...]
    start: str
    tables: tuple[tuple[str, Table], ...]
    order: int

    def __post_init__(self) -> None:
        _sort_fields(self, "terminals")
        sig = self.signature
        for a in self.terminals:
            if a not in sig:
                raise GrammarError(f"terminal {a!r} not in signature")
        if self.start not in sig:
            raise GrammarError(f"start label {self.start!r} not in signature")
        _check_order(self.order, sig)
        labels = set(sig.labels)
        _set_tables(self, labels, "signature", lambda _, t: _check_rules(t.rules, sig, labels))

    @_cached
    def repetition_free(self) -> bool:
        return all(
            r.rhs.repetition_free for _, t in self.tables for r in t.rules
        )

    @_cached
    def node_monotone(self) -> bool:
        """No replacement can shrink the node count."""
        return all(
            len(r.rhs.nodes) >= r.rhs.type for _, t in self.tables for r in t.rules
        )

    @_cached
    def edge_monotone(self) -> bool:
        """No replacement can shrink the edge count."""
        return all(len(r.rhs.edges) >= 1 for _, t in self.tables for r in t.rules)

    @_cached
    def string_shaped(self) -> bool:
        """Every graph derived from the start handle is a word form.

        That holds when the start label has arity 2 and every label
        reachable from it has arity 2 or 0, with a ``word_form`` for each
        of its rules in every table: a string graph plus nullary edges for
        arity 2, nullary edges alone for arity 0.
        """
        sig = self.signature
        return sig.arity(self.start) == 2 and all(
            sig.arity(l) in (0, 2) and all(r.form is not None for r in t.by_label[l])
            for l in self.reachable
            for _, t in self.tables
        )

    @_cached
    def reachable(self) -> frozenset[str]:
        """Labels some derivation from the start handle can touch, over
        rule structure only."""
        return frozenset(
            _reachable(
                [self.start],
                lambda l: (
                    e.label
                    for _, t in self.tables
                    for r in t.by_label[l]
                    for e in r.rhs.edges
                ),
            )
        )

    @_cached
    def least_edges(self) -> dict[str, float]:
        """Per label, the least number of edges of a terminal graph derived
        from its handle, over rule structure only; ``inf`` when there is
        none.  A terminal's handle is such a graph, of one edge, but the
        terminal's rules count too: ``a -> ()`` gives ``a`` 0.

        The sizes ignore the synchronization of parallel steps and any
        control, taking every table's rules at once, so each is a lower
        bound.  A form's least size, the sum over its edges, never falls
        along a derivation (a rule's right-hand side sums to at least its
        left-hand side's size), and a terminal graph's is at most its
        edge count.  So a form whose least size exceeds an edge budget
        derives no terminal graph within it, and one of size ``inf`` none
        at all.  This is all the search knows of dead labels: it ends at
        once when the start's size exceeds its size bound, takes tables
        without the rules that hold an ``inf`` label (``live_tables``) and
        drops each product choice whose size exceeds the bound.  The bound
        is ``max_edges``, and in a member query, on every grammar, the
        word's length when lower: a form past it derives no string graph
        of the word.  A member query bounds edges by this alone (nodes by
        the word's length plus one on a node-monotone grammar).
        """
        rules = ((r.lhs, [e.label for e in r.rhs.edges]) for _, t in self.tables for r in t.rules)
        least = _least_sizes(self.terminals, rules)
        return {l: least.get(l, inf) for l in self.signature.labels}

    @_cached
    def live_tables(self) -> tuple[tuple[str, _Rows, frozenset[str]], ...]:
        """The tables as the search takes them: ``(index, rows, blocked)``.

        ``rows`` compiles the table's live rules, those with no label of
        size ``inf`` (see ``least_edges``), which tightens their least
        increments.  ``blocked``, the rest of the scope, keeps no row: a
        form holding such a label has no successor that can still become
        terminal, and the search takes no product for it (an empty row's
        unbounded least increment would set the edge flag).  The rows take
        the table's keyed and checked rules, so they key none, and labels
        are read off ``Rule.arities``.  Every table's rows code labels with
        the grammar's ``code``, not one of the table's narrower scope, so a
        coded form passes from table to table unchanged, and they size
        options by the grammar's ``least_edges``.  They and their choice
        memos live as long as this grammar object.
        """
        out = []
        least = self.least_edges
        for i, t in self.tables:
            live = tuple(r for r in t.rules if all(least[l] < inf for l, _ in r.arities))
            rows = _Rows(live, self.code, least)
            out.append((i, rows, frozenset(t.scope).difference(rows.graph_options)))
        return tuple(out)

    @_cached
    def code(self) -> _Code:
        """The code of the word path, over the signature's labels."""
        return _Code(self.signature.labels)

    @_cached
    def letters(self) -> frozenset[str]:
        """The terminals of arity 2: the letters a derived word may hold."""
        sig = self.signature
        return frozenset(a for a in self.terminals if sig.arity(a) == 2)

    @property
    def table_indices(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.tables)

    def table(self, index: str) -> Table:
        for i, t in self.tables:
            if i == index:
                return t
        raise GrammarError(f"no table with index {index!r}")

    def start_graph(self) -> Hypergraph:
        return canonical_graph(handle(self.start, self.signature))


@dataclass(frozen=True)
class HRGrammar:
    """A sequential hyperedge replacement grammar (one edge per step)."""

    signature: Signature
    nonterminals: tuple[str, ...]
    start: str
    rules: tuple[Rule, ...]
    order: int

    def __post_init__(self) -> None:
        _sort_fields(self, "nonterminals")
        sig = self.signature
        for n in self.nonterminals:
            if n not in sig:
                raise GrammarError(f"nonterminal {n!r} not in signature")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start label {self.start!r} not a nonterminal")
        _check_order(self.order, sig)
        _check_rules(self.rules, sig, set(self.nonterminals))

    @property
    def terminals(self) -> tuple[str, ...]:
        return tuple(l for l in self.signature.labels if l not in self.nonterminals)


@dataclass(frozen=True)
class WordTable:
    """A left-total set of word rules (tabled Lindenmayer style)."""

    rules: tuple[tuple[str, Word], ...]
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        rules = tuple(sorted(set((str(l), tuple(w)) for l, w in self.rules)))
        _set_total(self, rules, {l for l, _ in rules}, "word ")

    @_cached
    def by_symbol(self) -> dict[str, tuple[Word, ...]]:
        return _by_lhs(self.scope, self.rules)

    @_cached
    def graph_table(self) -> Table:
        """The rules read as string-graph rules: the table by which a word
        steps, and by which ``et0l_to_phr`` embeds the grammar."""
        return Table(tuple(Rule(l, string_graph(w)) for l, w in self.rules), self.scope)


@dataclass(frozen=True)
class ET0LGrammar:
    alphabet: tuple[str, ...]
    terminals: tuple[str, ...]
    axiom: str
    tables: tuple[tuple[str, WordTable], ...]

    def __post_init__(self) -> None:
        _sort_fields(self, "alphabet", "terminals")
        symbols = set(self.alphabet)
        if not set(self.terminals) <= symbols:
            raise GrammarError("terminals must be alphabet symbols")
        if self.axiom not in symbols:
            raise GrammarError(f"axiom {self.axiom!r} not in alphabet")

        def words(idx: str, t: WordTable) -> None:
            for l, w in t.rules:
                bad = [a for a in w if a not in symbols]
                if bad:
                    raise GrammarError(f"table {idx!r}, rule for {l!r}: unknown symbols {bad}")

        _set_tables(self, symbols, "alphabet", words)


@dataclass(frozen=True)
class ControlAutomaton:
    """A finite automaton over table indices (may be nondeterministic)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]
    initial: str
    finals: tuple[str, ...]

    def __post_init__(self) -> None:
        _sort_fields(self, "states", "alphabet", "transitions", "finals")
        states = set(self.states)
        if self.initial not in states:
            raise GrammarError(f"initial state {self.initial!r} unknown")
        if not set(self.finals) <= states:
            raise GrammarError("final states must be states")
        alphabet = set(self.alphabet)
        for q, a, p in self.transitions:
            if q not in states or p not in states:
                raise GrammarError(f"transition ({q!r},{a!r},{p!r}) uses unknown state")
            if a not in alphabet:
                raise GrammarError(f"transition on unknown symbol {a!r}")

    @_cached
    def _step_map(self) -> dict[tuple[str, str], frozenset[str]]:
        out: dict[tuple[str, str], set[str]] = {}
        for q, a, p in self.transitions:
            out.setdefault((q, a), set()).add(p)
        return {k: frozenset(v) for k, v in out.items()}

    def _next(self, subset: frozenset[str], a: str) -> frozenset[str]:
        """The states one ``a`` step from ``subset``; a symbol outside the
        alphabet has no transition, so it leads to the empty set."""
        return frozenset(p for q in subset for p in self._step_map.get((q, a), ()))

    def accepts(self, word: Sequence[str]) -> bool:
        current = frozenset({self.initial})
        for a in word:
            current = self._next(current, a)
        return not current.isdisjoint(self.finals)

    @_cached
    def live_states(self) -> frozenset[str]:
        """The states from which some word leads to a final state."""
        back: dict[str, list[str]] = {}
        for q, _, p in self.transitions:
            back.setdefault(p, []).append(q)
        return frozenset(_reachable(self.finals, lambda p: back.get(p, ())))

    @_cached
    def is_deterministic_complete(self) -> bool:
        return all(
            len(self._step_map.get((q, a), frozenset())) == 1
            for q in self.states
            for a in self.alphabet
        )

    def determinize_complete(self) -> "ControlAutomaton":
        """Subset construction; the result is deterministic and complete.
        Each reachable subset is named ``{p+q}`` through ``_fresh``.  It is
        built once per automaton object, so every search under this
        automaton steps the same automaton, with its step map and live
        states computed once."""
        if self.is_deterministic_complete:
            return self
        return self._determinized

    @_cached
    def _determinized(self) -> "ControlAutomaton":
        start = frozenset({self.initial})
        subsets = _reachable([start], lambda s: (self._next(s, a) for a in self.alphabet))
        used: set[str] = set()
        name = {
            s: _fresh(used, "{" + "+".join(sorted(s)) + "}")
            for s in sorted(subsets, key=sorted)
        }
        return ControlAutomaton(
            states=tuple(name.values()),
            alphabet=self.alphabet,
            transitions=tuple(
                (name[s], a, name[self._next(s, a)]) for s in subsets for a in self.alphabet
            ),
            initial=name[start],
            finals=tuple(name[s] for s in subsets if not s.isdisjoint(self.finals)),
        )

    def step(self, state: str, symbol: str) -> str:
        """Deterministic single step; only valid on det-complete automata."""
        targets = self._step_map.get((state, symbol), frozenset())
        if len(targets) != 1:
            raise GrammarError(
                f"automaton not deterministic-complete at ({state!r},{symbol!r})"
            )
        return next(iter(targets))


@dataclass(frozen=True)
class ControlledPHRGrammar(_Answered):
    grammar: PHRGrammar
    control: ControlAutomaton

    def __post_init__(self) -> None:
        have = set(self.control.alphabet)
        need = set(self.grammar.table_indices)
        if have != need:
            raise GrammarError(
                f"control alphabet {sorted(have)} differs from "
                f"table indices {sorted(need)}"
            )


AnyPHR = PHRGrammar | ControlledPHRGrammar


def split_control(g: AnyPHR) -> tuple[PHRGrammar, Optional[ControlAutomaton]]:
    if isinstance(g, ControlledPHRGrammar):
        return g.grammar, g.control.determinize_complete()
    return g, None


def direct_derivations(
    h: Hypergraph, rules: Iterable[Rule]
) -> tuple[tuple[str, Rule, Hypergraph], ...]:
    """All single-edge rewrites of ``h`` by the given rules.

    Entries are (edge id, rule, canonicalized successor).
    """
    rules = tuple(rules)
    out = []
    for e in h.edges:
        for r in rules:
            if r.lhs != e.label:
                continue
            if r.rhs.type != len(e.att):
                raise GrammarError(
                    f"rule for {r.lhs!r} has type {r.rhs.type}, "
                    f"edge {e.id!r} has arity {len(e.att)}"
                )
            out.append((e.id, r, canonical_graph(replace(h, {e.id: r.rhs}))))
    return tuple(out)


def parallel_budgeted(
    h: Hypergraph | CodedForm,
    table: Table | _Rows,
    max_nodes: float = inf,
    max_edges: float = inf,
    max_size: float = inf,
) -> tuple[dict, bool, bool]:
    """All parallel successors of ``h`` under ``table`` within budgets.

    ``table`` is a ``Table``, whose own ``rows`` the product reads, or the
    rows that a grammar compiled (``PHRGrammar.live_tables``); ``h`` is a
    ``Hypergraph`` or a ``CodedForm``, a word form coded by the rows'
    ``code``.  A label of ``h`` without a row raises ``GrammarError``.
    Returns (successors by key, node bound hit, edge bound hit); an
    edge-less graph is its own sole successor.  A graph's successors are
    canonical graphs keyed by canonical key, a coded form's are coded keys
    keyed by themselves.  Both paths take the edges stably sorted by label
    (the word path by code, the same order), the order in which a
    canonical graph numbers them (not its edge order, which sorts ids as
    strings: ``e10`` before ``e2``), so a coded form meets the same option
    lists in the same order as its canonical graph, and sets the same
    budget flags.

    The choices of one option per edge, and both flags, depend only on
    the sorted labels (a ``str`` of codes on the word path, a tuple on the
    graph path), the node count and the budgets: that is the key under
    which the rows' ``choices`` memoizes ``_choices`` per rows object (an
    error is not stored, so it recurs).  Word order and edge ids enter
    only here, where each choice becomes a successor in the order found,
    so successors, their order and the flags are those of a fresh search.
    A coded form's node count is exact in the search; a graph's leaf
    checks the replaced graph.  A choice whose least size (see
    ``PHRGrammar.least_edges``) exceeds ``max_size`` is dropped without a
    flag.  ``inf`` is no budget, and ``max_size`` is apart from ``max_edges``.
    """
    rows = table.rows if isinstance(table, Table) else table
    budgets = max_nodes, max_edges, max_size
    if isinstance(h, CodedForm):
        return _word_successors(h, rows, budgets)
    edges = sorted(h.edges, key=lambda e: e.label)
    labels = tuple([e.label for e in edges])
    choices, hit_nodes, hit_edges = rows.choices(labels, len(h.nodes), *budgets)
    found = {}
    for chosen in choices:
        result = replace(h, {e.id: r.rhs for e, r in zip(edges, chosen)})
        if len(result.nodes) > max_nodes:
            hit_nodes = True
        else:
            key = canonical_key(result)
            if key not in found:
                found[key] = canonical_graph(result)
    return found, hit_nodes, hit_edges


def _word_successors(h: CodedForm, rows: _Rows, budgets: tuple) -> tuple[dict, bool, bool]:
    """The word path of ``parallel_budgeted``, on a form and rows coded
    alike, within ``budgets`` (nodes, edges, size): the successors' keys,
    each keyed by itself."""
    edges = h.word + h.flags
    order = sorted(range(len(edges)), key=edges.__getitem__)
    labels = "".join([edges[j] for j in order])
    choices, hit_nodes, hit_edges = rows.choices(labels, len(h.word) + 1, *budgets)
    place = sorted(range(len(labels)), key=order.__getitem__)  # label-order positions
    join = itemgetter(*place[: len(h.word)], len(labels))  # the words in word order, _SEP
    flagged, names = rows.flag_labels, rows.code.names
    carry = [p for p, l in enumerate(labels) if names[ord(l) - 1] in flagged] if flagged else ()
    if carry:  # these positions hold whole coded forms
        keys = []
        for chosen in choices:
            words = [c[0] if p in carry else c for p, c in enumerate(chosen)]
            flags = "".join(sorted("".join([chosen[p][1] for p in carry])))
            keys.append("".join(join(words)) + flags)
    else:
        keys = list(map("".join, map(join, choices)))
    return dict(zip(keys, keys)), hit_nodes, hit_edges


def _no_row(rows: _Rows, label: str) -> GrammarError:
    """The error for a label without a row of product options."""
    if label in rows.graph_options:
        return GrammarError(f"rules for label {label!r} are not all word forms")
    return GrammarError(f"no rules for label {label!r} in table")


def _choices(
    rows: _Rows, labels: str | Word, nodes: int, max_nodes, max_edges, max_size
) -> tuple[tuple[tuple, ...], bool, bool]:
    """The choice search of ``parallel_budgeted`` over the rows'
    ``coded_options`` (the word path, whose ``labels`` are one ``str`` of
    codes) or ``graph_options`` (a tuple of labels), for a form with these
    sorted edge labels and ``nodes`` nodes: each choice of one option per
    edge within the budgets, in the order found, as its pieces in label
    order plus a trailing ``_SEP``; and the node and edge flags.

    Options come sorted by edge increment.  Each is checked against the
    counts chosen so far plus the least increments to come: edges first
    (past the budget no later option fits, and the edge flag is set), then
    least sizes (past the size bound ``max_size`` the choice is dead, see
    ``PHRGrammar.least_edges``, and is dropped without a flag), then
    nodes (past the budget a later option may fit).  A position with one
    option leaves the search, its increments added to the starting counts;
    its check could fail only at the first position, against the least
    totals, so it runs once up front.  Other checks sum the same
    increments as with every position searched, so the flags are the
    same.  With neither budget (both ``inf``) nothing prunes, so more than
    ``_PRODUCT_GUARD`` rule choices raise ``GrammarError`` at once.
    """
    word_path = isinstance(labels, str)
    options = rows.coded_options if word_path else rows.graph_options
    m = len(labels)
    chosen: list = [_SEP] * (m + 1)  # the last slot is joined after every word
    picked, at = [], []  # the rows with a choice, and their positions
    total_edges = total_size = 0
    for p, l in enumerate(labels):
        row = options.get(l)
        if row is None:
            raise _no_row(rows, rows.code.names[ord(l) - 1] if word_path else l)
        total_edges += row[1]
        nodes += row[2]
        total_size += row[3]
        if len(row[0]) == 1:
            chosen[p] = row[0][0][3]
        else:
            picked.append(row)
            at.append(p)
    if max_nodes == max_edges == inf and prod(len(r[0]) for r in picked) > _PRODUCT_GUARD:
        raise GrammarError("parallel successor set too large")
    if not at or at[0]:  # the first position is folded, or there is none
        if m and total_edges > max_edges:
            return (), False, True
        if total_size > max_size:
            return (), False, False
        if nodes > max_nodes:
            return (), True, False
    room_edges = max_edges - total_edges
    room_size = max_size - total_size
    room_nodes = max_nodes - nodes
    rooms = []  # the budgets less the least increments of every other position
    for _, de, dn, ds in picked:
        room_edges += de
        room_nodes += dn
        room_size += ds
        rooms.append((room_edges, room_size, room_nodes))

    out, hit_nodes, hit_edges = [], False, False
    k = len(picked)
    # added by the choices before i: edges, least sizes, nodes
    edges_to, sizes_to, nodes_to = [0] * (k + 1), [0] * (k + 1), [0] * (k + 1)
    rest = [iter(r[0]) for r in picked]  # the options of position i not tried yet
    i = 0
    while i >= 0:
        if i == k:
            out.append(tuple(chosen))
            i -= 1
            continue
        e, s, n = edges_to[i], sizes_to[i], nodes_to[i]
        room_e, room_s, room_n = rooms[i]
        for de, dn, ds, piece in rest[i]:
            if e + de > room_e:
                hit_edges = True
                i -= 1
                break  # options sorted by edge increment
            if s + ds > room_s:
                continue
            if n + dn > room_n:
                hit_nodes = True
                continue
            chosen[at[i]] = piece
            i += 1
            edges_to[i] = e + de
            sizes_to[i] = s + ds
            nodes_to[i] = n + dn
            if i < k:
                rest[i] = iter(picked[i][0])
            break
        else:
            i -= 1
    return tuple(out), hit_nodes, hit_edges


def parallel_successors(h: Hypergraph, table: Table) -> tuple[Hypergraph, ...]:
    """All parallel successors of ``h`` under ``table``, canonicalized."""
    found, _, _ = parallel_budgeted(h, table)
    return tuple(found[k] for k in sorted(found))


def trace_successors(
    g: AnyPHR, h: Hypergraph, trace: Sequence[str]
) -> tuple[Hypergraph, ...]:
    """All graphs reachable from ``h`` via exactly the given table trace.

    Control automata are not consulted here; use ``ControlAutomaton.accepts``
    to decide whether a trace counts.
    """
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    current = {canonical_key(h): canonical_graph(h)}
    for index in trace:
        table = grammar.table(index)
        nxt: dict[bytes, Hypergraph] = {}
        for key in sorted(current):
            nxt.update(parallel_budgeted(current[key], table)[0])
        current = nxt
    return tuple(current[k] for k in sorted(current))


def et0l_step(table: WordTable, word: Word) -> set[Word]:
    """All parallel rewrites of ``word`` by the word table: the word path
    of ``parallel_budgeted``, on the word coded by the code of the rows of
    the table's ``graph_table``, without nullary labels."""
    rows = table.graph_table.rows
    stray = set(word).difference(table.scope)
    if stray:  # a symbol the code may lack; every other has a row
        raise _no_row(rows, min(stray))
    code = rows.code
    found, _, _ = parallel_budgeted(CodedForm(code.encode(word), "", code), rows)
    return {code.decoded(key).word for key in found}
