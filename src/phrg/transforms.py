"""Language-preserving grammar constructions.

Each function here builds a new grammar whose derived (string) language
relates to its inputs in a stated way: embeddings of sequential
hyperedge replacement and of tabled word grammars, removal of derivation
control, substitution and iterated substitution of string languages into
terminal letters, the rational operations, intersection with a regular
word language, inverse homomorphisms, and the word problem of a free
product of groups given by grammars for their word problems.

String languages are always compared modulo the empty word.

Fresh labels are written ``@name`` and barred (tagged) copies ``~name``;
both prefixes are uniquified against every label in sight, so user
labels never collide with construction labels.  Subset names of a
determinized automaton and derived table indices come from the same
helper, ``_fresh``: a name that would collide gets ``.2``, ``.3`` and so on.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .grammar import (
    AnyPHR,
    ControlAutomaton,
    ControlledPHRGrammar,
    ET0LGrammar,
    HRGrammar,
    PHRGrammar,
    Rule,
    Table,
    Word,
    WordTable,
    _fresh,
    _least_fixpoint,
    _reachable,
    identity_table,
    is_identity_rule,
    override_table,
)
from .hypergraph import (
    Hyperedge,
    Hypergraph,
    Signature,
    disjoint_union,
    handle,
    string_graph,
)


class TransformError(ValueError):
    """Raised when a construction's preconditions are not met."""


# ------------------------------------------------------------- assembly


def _rebuild(
    g: PHRGrammar,
    sig: Signature,
    rules_of: Callable[[Table], Iterable[Rule]],
    **fields,
) -> PHRGrammar:
    """g over ``sig``, each table's rules given by ``rules_of``."""
    tables = tuple(
        (index, Table(rules=tuple(rules_of(t)), scope=sig.labels))
        for index, t in g.tables
    )
    return dataclasses.replace(g, signature=sig, tables=tables, **fields)


def _one_table(
    sig: Signature,
    terminals: Sequence[str],
    start: str,
    rules: Iterable[Rule],
    order: int = 2,
) -> PHRGrammar:
    """The grammar whose only table, ``"1"``, holds ``rules``."""
    table = Table(rules=tuple(rules), scope=sig.labels)
    return PHRGrammar(
        signature=sig,
        terminals=tuple(terminals),
        start=start,
        tables=(("1", table),),
        order=order,
    )


def _failure(sig: Signature, dead: Mapping[int, str]) -> Table:
    """The table sending every label to the dead label of its arity."""
    return Table(
        rules=tuple(
            Rule(l, handle(dead[sig.arity(l)], sig.arity(l))) for l in sig.labels
        ),
        scope=sig.labels,
    )


# ---------------------------------------------------- relabel and trim


def relabel_graph(h: Hypergraph, mapping: Mapping[str, str]) -> Hypergraph:
    return Hypergraph(
        nodes=h.nodes,
        edges=tuple(
            Hyperedge(e.id, mapping.get(e.label, e.label), e.att) for e in h.edges
        ),
        ext=h.ext,
    )


def relabel_grammar(g: PHRGrammar, mapping: Mapping[str, str]) -> PHRGrammar:
    """Rename labels (missing entries stay); must stay injective."""
    old = g.signature.labels
    new = [mapping.get(l, l) for l in old]
    if len(set(new)) != len(new):
        raise TransformError("relabelling collides two labels")
    sig = Signature.of(
        {mapping.get(l, l): g.signature.arity(l) for l in old}
    )
    return _rebuild(
        g,
        sig,
        lambda t: (
            Rule(mapping.get(r.lhs, r.lhs), relabel_graph(r.rhs, mapping))
            for r in t.rules
        ),
        terminals=tuple(mapping.get(a, a) for a in g.terminals),
        start=mapping.get(g.start, g.start),
    )


def remove_unreachable(g: AnyPHR) -> AnyPHR:
    """Drop labels no derivation from the start handle can ever touch.

    Reachability is over rule structure only (control cannot make an
    unreachable label reachable), so the derived language is unchanged.
    A controlled grammar keeps its control automaton as it is.
    """
    grammar = g.grammar if isinstance(g, ControlledPHRGrammar) else g
    reachable = grammar.reachable
    sig = Signature.of({l: grammar.signature.arity(l) for l in reachable})
    trimmed = _rebuild(
        grammar,
        sig,
        lambda t: (r for r in t.rules if r.lhs in reachable),
        terminals=tuple(a for a in grammar.terminals if a in reachable),
    )
    if isinstance(g, ControlledPHRGrammar):
        return dataclasses.replace(g, grammar=trimmed)
    return trimmed


# ------------------------------------------------------------ embeddings


def hr_to_phr(g: HRGrammar) -> PHRGrammar:
    """Embed a sequential grammar: one table, its rules plus identities.

    Identity rules let every edge idle, so each parallel step rewrites an
    arbitrary subset of edges; the derived language is unchanged.
    """
    return _one_table(
        g.signature,
        g.terminals,
        g.start,
        g.rules + identity_table(g.signature).rules,
        g.order,
    )


_ERASABLE_GUARD = 8
_TABLE_GUARD = 20_000


def et0l_propagating(g: ET0LGrammar) -> ET0LGrammar:
    """An equivalent (modulo the empty word) grammar with no erasing rules.

    Deleting erasable symbols at birth is only sound when the deleted
    symbol can erase along the *remaining* table sequence, so symbols of
    the new grammar are pairs (X, E): X is simulated, E is the set of
    symbols whose pending erasure the derivation still owes.  A step with
    source table i from commitment E to commitment E' exists when every
    symbol of E has an i-rule staying inside E'; a word decodes to plain
    terminals only when its commitment is empty.
    """
    if all(w for _, t in g.tables for _, w in t.rules):
        return g
    erasable = _least_fixpoint((), (r for _, t in g.tables for r in t.rules))
    if len(erasable) > _ERASABLE_GUARD:
        raise TransformError(
            f"{len(erasable)} erasable symbols; commitment sets would blow up"
        )
    er_sorted = tuple(sorted(erasable))
    subsets = [
        frozenset(c)
        for k in range(len(er_sorted) + 1)
        for c in itertools.combinations(er_sorted, k)
    ]

    def enc(e_set: frozenset[str]) -> str:
        return "+".join(sorted(e_set)) if e_set else "-"

    used = set(g.alphabet)
    start2 = _fresh(used, "@start")
    dead = _fresh(used, "@dead")
    sym = {(x, e): _fresh(used, f"@{x}|{enc(e)}") for x in g.alphabet for e in subsets}
    alphabet2 = tuple(sorted({start2, dead, *g.terminals, *sym.values()}))

    def fill(rules: list[tuple[str, Word]]) -> WordTable:
        have = {l for l, _ in rules}
        rules += [(x, (dead,)) for x in alphabet2 if x not in have]
        return WordTable(tuple(rules), alphabet2)

    tables2: list[tuple[str, WordTable]] = [
        ("init", fill([(start2, (sym[(g.axiom, frozenset())],))]))
    ]
    decode = [(sym[(a, frozenset())], (a,)) for a in g.terminals]
    tables2.append(("dec", fill(decode)))
    indices = {"init", "dec"}

    def images(w: Word, e_next: frozenset[str]) -> Iterator[Word]:
        """``w`` over the symbols committed to ``e_next``, each letter of
        ``e_next`` kept or dropped; the empty word is left out."""
        keep_or_drop = [(sym[(a, e_next)],) + ((None,) if a in e_next else ()) for a in w]
        for pick in itertools.product(*keep_or_drop):
            kept = tuple(filter(None, pick))
            if kept:
                yield kept

    def steps(e_set: frozenset[str]) -> Iterator[frozenset[str]]:
        """The commitments one step from ``e_set``, each step's table
        appended to ``tables2`` as it is found."""
        for index, t in g.tables:
            for e_next in subsets:
                if not all(any(set(w) <= e_next for w in t.by_symbol[x]) for x in e_set):
                    continue
                rules = [
                    (sym[(x, e_set)], v)
                    for x in g.alphabet
                    for v in sorted({v for w in t.by_symbol[x] for v in images(w, e_next)})
                ]
                name = _fresh(indices, f"t.{index}.{enc(e_set)}.{enc(e_next)}")
                tables2.append((name, fill(rules)))
                if len(tables2) > _TABLE_GUARD:
                    raise TransformError("commitment-set construction too large")
                yield e_next

    _reachable([frozenset()], steps)
    out = ET0LGrammar(
        alphabet=alphabet2,
        terminals=g.terminals,
        axiom=start2,
        tables=tuple(tables2),
    )
    return _trim_et0l(out)


def _trim_et0l(g: ET0LGrammar) -> ET0LGrammar:
    reachable = _reachable(
        [g.axiom],
        lambda x: (a for _, t in g.tables for w in t.by_symbol[x] for a in w),
    )
    keep = tuple(sorted(reachable))
    tables = tuple(
        (
            index,
            WordTable(
                rules=tuple(r for r in t.rules if r[0] in reachable), scope=keep
            ),
        )
        for index, t in g.tables
    )
    return ET0LGrammar(
        alphabet=keep,
        terminals=tuple(a for a in g.terminals if a in reachable),
        axiom=g.axiom,
        tables=tables,
    )


def et0l_to_phr(g: ET0LGrammar) -> PHRGrammar:
    """Embed a tabled word grammar as a string-graph grammar of order 2."""
    p = et0l_propagating(g)
    sig = Signature.of({a: 2 for a in p.alphabet})
    return PHRGrammar(
        signature=sig,
        terminals=p.terminals,
        start=p.axiom,
        tables=tuple((index, t.graph_table) for index, t in p.tables),
        order=2,
    )


def regular_to_phr(m: ControlAutomaton) -> PHRGrammar:
    """A string-graph grammar for L(M) (modulo the empty word).

    Right-linear: one nonterminal per state of the determinized
    automaton, one table.
    """
    if not m.alphabet:
        sig = Signature.of({"@start": 2})
        return _one_table(sig, (), "@start", [Rule("@start", handle("@start", 2))])
    d = m.determinize_complete()
    used = set(m.alphabet)
    nsym = {q: _fresh(used, f"@q{i}") for i, q in enumerate(d.states)}
    finals = set(d.finals)
    rules: list[Rule] = []
    for q in d.states:
        for a in d.alphabet:
            q2 = d.step(q, a)
            rules.append(Rule(nsym[q], string_graph((a, nsym[q2]))))
            if q2 in finals:
                rules.append(Rule(nsym[q], string_graph((a,))))
    sig = Signature.of({**{a: 2 for a in d.alphabet}, **{n: 2 for n in nsym.values()}})
    rules += [Rule(a, handle(a, 2)) for a in d.alphabet]
    return _one_table(sig, d.alphabet, nsym[d.initial], rules)


# -------------------------------------------------------- control removal


def remove_control(cg: ControlledPHRGrammar) -> PHRGrammar:
    """An uncontrolled grammar with the same derived language.

    The start rule spawns a state marker (a 0-ary edge) next to a copy of
    the start handle whose terminals are tagged; each new table simulates
    one old table on tagged labels and advances the marker; a final table
    erases an accepting marker and untags the terminals.  Underivable
    situations are routed to dead labels that can never become terminal,
    so exactly the controlled language survives.
    """
    g = cg.grammar
    d = cg.control.determinize_complete()
    terminals = set(g.terminals)
    used = set(g.signature.labels)
    state_sym = {q: _fresh(used, f"@q{i}") for i, q in enumerate(d.states)}
    bar = {a: _fresh(used, f"~{a}") for a in sorted(terminals)}
    start2 = _fresh(used, "@start")
    k = g.order
    dead = {j: _fresh(used, f"@dead{j}") for j in range(k + 1)}

    arities = {l: g.signature.arity(l) for l in g.signature.labels}
    arities.update({s: 0 for s in state_sym.values()})
    arities.update({bar[a]: g.signature.arity(a) for a in bar})
    arities[start2] = g.signature.arity(g.start)
    arities.update({dead[j]: j for j in dead})
    sig = Signature.of(arities)

    def barred(h: Hypergraph) -> Hypergraph:
        return relabel_graph(h, bar)

    empty = Hypergraph((), (), ())
    finals = set(d.finals)
    t0_rules = [
        Rule(
            start2,
            disjoint_union(
                barred(handle(g.start, g.signature)),
                handle(state_sym[d.initial], 0),
            ),
        )
    ]
    t0_rules += [Rule(state_sym[q], empty) for q in sorted(finals)]
    t0_rules += [Rule(bar[a], handle(a, g.signature)) for a in sorted(terminals)]
    t0 = override_table(_failure(sig, dead), t0_rules)

    index0 = "0"
    taken = {i for i, _ in g.tables}
    while index0 in taken:
        index0 = "." + index0
    base = identity_table(sig)
    tables: list[tuple[str, Table]] = [(index0, t0)]
    for index, t in g.tables:
        rules = [Rule(bar.get(r.lhs, r.lhs), barred(r.rhs)) for r in t.rules]
        rules += [
            Rule(state_sym[q], handle(state_sym[d.step(q, index)], 0))
            for q in d.states
        ]
        tables.append((index, override_table(base, rules)))

    return PHRGrammar(
        signature=sig,
        terminals=g.terminals,
        start=start2,
        tables=tuple(tables),
        order=k,
    )


# ----------------------------------------------------------- substitution


def _start_hygienic(g: PHRGrammar, used: set[str]) -> PHRGrammar:
    """Ensure the start never occurs in a right-hand side nor is terminal."""
    occurs = any(
        e.label == g.start for _, t in g.tables for r in t.rules for e in r.rhs.edges
    )
    used.update(g.signature.labels)
    if not occurs and g.start not in set(g.terminals):
        return g
    start2 = _fresh(used, "@start")
    arity = g.signature.arity(g.start)
    sig = g.signature.merged(Signature.of({start2: arity}))
    # A terminal start means the bare start handle is itself a 0-step
    # word of the language; copied rules only reach words needing a real
    # first step, so a unit rule keeps that word derivable.
    unit = (
        (Rule(start2, handle(g.start, arity)),)
        if g.start in set(g.terminals)
        else ()
    )
    return _rebuild(
        g,
        sig,
        lambda t: t.rules
        + tuple(Rule(start2, r.rhs) for r in t.rules if r.lhs == g.start)
        + unit,
        start=start2,
        order=max(g.order, arity),
    )


def _pad_terminals(g: PHRGrammar, target: Sequence[str]) -> PHRGrammar:
    """Extend the terminal alphabet to ``target`` with inert fresh letters."""
    if not set(g.terminals) <= set(target):
        raise TransformError("cannot pad: grammar already has terminals outside target")
    extra = [b for b in target if b not in g.signature]
    for b in target:
        if b in g.signature and g.signature.arity(b) != 2:
            raise TransformError(f"letter {b!r} has arity {g.signature.arity(b)}")
    sig = g.signature.merged(Signature.of({b: 2 for b in extra}))
    return _rebuild(
        g,
        sig,
        lambda t: t.rules + tuple(Rule(b, handle(b, 2)) for b in extra),
        terminals=tuple(sorted(target)),
    )


def _substitution_build(
    g: PHRGrammar, image_map: Mapping[str, PHRGrammar], with_restart: bool
) -> PHRGrammar:
    letters = sorted(image_map)
    missing = set(g.terminals) - set(letters)
    if missing:
        raise TransformError(f"no image for terminals: {sorted(missing)}")
    for a in set(letters) & set(g.signature.labels):
        if g.signature.arity(a) != 2:
            raise TransformError(f"substituted letter {a!r} must have arity 2")

    target = sorted({b for img in image_map.values() for b in img.terminals})
    used: set[str] = set(target)

    images: dict[str, PHRGrammar] = {}
    for a in letters:
        img = image_map[a]
        clash = {
            l: None
            for l in img.signature.labels
            if l in set(target) and l not in set(img.terminals)
        }
        if clash:
            tmp = set(used) | set(img.signature.labels)
            img = relabel_grammar(
                img, {l: _fresh(tmp, f"@{l}") for l in clash}
            )
            used |= tmp
        img = _start_hygienic(img, used)
        if img.signature.arity(img.start) != 2:
            raise TransformError(f"image for {a!r} must have a type-2 start")
        img = _pad_terminals(img, target)
        used.update(img.signature.labels)
        images[a] = img

    used.update(g.signature.labels)
    gmap = {
        l: _fresh(used, f"@{l}") for l in g.signature.labels if l in set(target)
    }
    host = relabel_grammar(g, gmap) if gmap else g

    bars = {
        a: {x: _fresh(used, f"~{a}.{x}") for x in images[a].signature.labels}
        for a in letters
    }
    k = max([g.order, 2] + [images[a].order for a in letters])
    dead = {j: _fresh(used, f"@dead{j}") for j in range(k + 1)}

    arities = {l: host.signature.arity(l) for l in host.signature.labels}
    arities.update(dict.fromkeys(target, 2))  # the host has no target letter left
    for a in letters:
        isig = images[a].signature
        for x in isig.labels:
            arities[bars[a][x]] = isig.arity(x)
    for j, f in dead.items():
        arities[f] = j
    sig = Signature.of(arities)

    base = identity_table(sig)
    failure = _failure(sig, dead)

    tables: list[tuple[str, Table]] = []
    for gi, (index, t) in enumerate(host.tables):
        tables.append((f"g.{gi}", override_table(base, t.rules)))

    switch = [
        Rule(gmap.get(a, a), handle(bars[a][images[a].start], 2))
        for a in sorted(set(g.terminals))
    ]
    tables.append(("sub", override_table(failure, switch)))

    for li, a in enumerate(letters):
        img = images[a]
        bm = bars[a]
        delay = Rule(bm[img.start], handle(bm[img.start], 2))
        for ti, (index, t) in enumerate(img.tables):
            overlay = [Rule(bm[r.lhs], relabel_graph(r.rhs, bm)) for r in t.rules]
            overlay.append(delay)
            tables.append((f"im.{li}.{ti}", override_table(base, overlay)))
        decode = []
        for x in img.signature.labels:
            if x == img.start:
                continue  # delayed starts survive decoding untouched
            if x in set(target):
                decode.append(Rule(bm[x], handle(x, 2)))
            else:
                ar = img.signature.arity(x)
                decode.append(Rule(bm[x], handle(dead[ar], ar)))
        tables.append((f"dec.{li}", override_table(base, decode)))

    if with_restart:
        restart = [
            Rule(b, handle(bars[b][images[b].start], 2)) for b in target
        ]
        tables.append(("restart", override_table(failure, restart)))

    return PHRGrammar(
        signature=sig,
        terminals=tuple(target),
        start=gmap.get(g.start, g.start),
        tables=tuple(tables),
        order=k,
    )


def substitute(g: PHRGrammar, spec: Mapping[str, PHRGrammar]) -> PHRGrammar:
    """Replace each terminal letter by a whole string language.

    ``spec`` maps every terminal of ``g`` to a grammar; the result
    derives every graph obtained from a graph of L(g) by substituting,
    per terminal edge, some string graph of that letter's image language.
    """
    return _substitution_build(g, spec, with_restart=False)


def iterate_substitution(g: PHRGrammar, spec: Mapping[str, PHRGrammar]) -> PHRGrammar:
    """Close L(g) under repeatedly applying the substitution.

    Every letter of the common image alphabet must itself have an image,
    since substituted letters may be substituted again.
    """
    target = {b for img in spec.values() for b in img.terminals}
    uncovered = target - set(spec)
    if uncovered:
        raise TransformError(
            f"iterated substitution needs images for: {sorted(uncovered)}"
        )
    return _substitution_build(g, spec, with_restart=True)


# ------------------------------------------------------- rational closure


def _k_host(words: Sequence[Word], letters: Sequence[str]) -> PHRGrammar:
    """A host grammar with language ``set(words)`` over ``letters``."""
    used = set(letters)
    start = _fresh(used, "@start")
    sig = Signature.of({start: 2, **{x: 2 for x in letters}})
    rules = [Rule(start, string_graph(w)) for w in words]
    rules += [Rule(x, handle(x, 2)) for x in letters]
    return _one_table(sig, letters, start, rules)


def rational_union(g1: PHRGrammar, g2: PHRGrammar) -> PHRGrammar:
    return substitute(
        _k_host([("X",), ("Y",)], ("X", "Y")), {"X": g1, "Y": g2}
    )


def rational_concat(g1: PHRGrammar, g2: PHRGrammar) -> PHRGrammar:
    return substitute(_k_host([("X", "Y")], ("X", "Y")), {"X": g1, "Y": g2})


def rational_plus(g: PHRGrammar) -> PHRGrammar:
    used = {"X"}
    start = _fresh(used, "@start")
    sig = Signature.of({start: 2, "X": 2})
    rules = (
        Rule(start, string_graph(("X",))),
        Rule(start, string_graph(("X", start))),
        Rule("X", handle("X", 2)),
    )
    return substitute(_one_table(sig, ("X",), start, rules), {"X": g})


# ---------------------------------------------------------- homomorphisms


def apply_hom(g: PHRGrammar, hom: Mapping[str, Sequence[str]], mode: str = "rf") -> PHRGrammar:
    """The image language h(L(g)), via singleton-word substitution.

    ``mode="rf"`` rejects erasing maps (they would introduce rules whose
    right-hand sides merge external nodes); ``mode="general"`` allows
    them.
    """
    mapping = {a: tuple(w) for a, w in hom.items()}
    if mode not in ("rf", "general"):
        raise TransformError(f"unknown mode {mode!r}")
    if mode == "rf" and any(not w for w in mapping.values()):
        raise TransformError('erasing homomorphism needs mode="general"')
    return substitute(
        g, {a: _k_host([w], sorted(set(w))) for a, w in mapping.items()}
    )


def _block_product(g: PHRGrammar, mapping: Mapping[str, Word]) -> PHRGrammar:
    """Words over the mapping's letters whose spelled images lie in L(g).

    The annotated product of g with the nondeterministic block automaton,
    which reads an image word from the hub state and guesses where each
    preimage letter's block ends: a letter edge inside a block decodes by
    merging its endpoints, and the edge finishing a block decodes to the
    block's preimage letter.  Runs start and end at the hub.
    """
    if g.signature.arity(g.start) != 2:
        raise TransformError("preimage needs a string grammar (type-2 start)")
    letters = sorted(mapping)
    gterm = set(g.terminals)
    hub = "hub"
    block_states = [hub]
    rel: dict[tuple[str, str], set[tuple[str, str | None]]] = {}
    for b in letters:
        word = mapping[b]
        if not all(a in gterm and g.signature.arity(a) == 2 for a in word):
            continue
        prev = hub
        for i, a in enumerate(word[:-1]):
            nxt = f"{b}.{i + 1}"
            block_states.append(nxt)
            rel.setdefault((prev, a), set()).add((nxt, None))
            prev = nxt
        rel.setdefault((prev, word[-1]), set()).add((hub, b))
    return remove_control(
        _annotated_product(g, block_states, hub, (hub,), rel, letters)
    )


def inverse_hom(g: PHRGrammar, hom: Mapping[str, Sequence[str]]) -> PHRGrammar:
    """The preimage language h^{-1}(L(g)), modulo the empty word.

    Letters with nonempty images are found by a block-automaton product
    with g; letters whose image is the empty word may then appear
    anywhere, which one substitution inserts around the found letters.
    """
    mapping = {a: tuple(w) for a, w in hom.items()}
    carriers = sorted(b for b, w in mapping.items() if w)
    erasers = tuple(sorted(b for b, w in mapping.items() if not w))
    if not carriers:
        used = set(mapping)
        start = _fresh(used, "@start")
        sig = Signature.of({start: 2, **{b: 2 for b in sorted(mapping)}})
        return _one_table(sig, sorted(mapping), start, identity_table(sig).rules)
    carried = _block_product(g, {b: mapping[b] for b in carriers})
    if not erasers:
        return carried
    images = {}
    for b in carriers:
        transitions = [("0", t, "0") for t in erasers]
        transitions += [("0", b, "1")]
        transitions += [("1", t, "1") for t in erasers]
        machine = ControlAutomaton(
            states=("0", "1"),
            alphabet=tuple(sorted({b, *erasers})),
            transitions=tuple(transitions),
            initial="0",
            finals=("1",),
        )
        images[b] = regular_to_phr(machine)
    return substitute(carried, images)


# ------------------------------------------------------ annotated product

_STATE_GUARD = 10**6


def _annotated_product(
    g: PHRGrammar,
    states: Sequence[str],
    initial: str,
    finals: Sequence[str],
    rel: Mapping[tuple[str, str], set[tuple[str, str | None]]],
    letters: Sequence[str],
) -> ControlledPHRGrammar:
    """Filter and decode the string language of g through a letter relation.

    ``rel`` maps (state, letter) to pairs (next state, output).  Every
    label of g is annotated with one state per tentacle, and each rule
    gets one instance per state assignment to its right-hand side's nodes
    under which every edge has an annotated label.  The start seeds an
    annotation from ``initial`` to one of ``finals``.  Table "0" decodes
    an annotated letter edge from q to q' to each output o with (q', o)
    in rel[(q, letter)]: to the letter o, or, when o is None, by merging
    its endpoints.  The control insists on at least one simulation step
    and exactly one final decoding step; ``letters`` are the terminals.

    A terminal of g that no table rewrites keeps only the annotations
    ``rel`` allows, since no other one could ever decode.  An annotated
    label left without any rule instance in some table, although g must
    rewrite it there, is routed in that table to a fresh dead label that
    never becomes terminal; it must not idle through that table.  The
    dead labels exist only when some label is left so.
    """
    active: set[str] = set()
    for _, t in g.tables:
        active |= t.active_labels
    inert = {
        a
        for a in g.terminals
        if g.signature.arity(a) == 2 and a not in active and a != g.start
    }

    used = set(g.signature.labels) | set(letters)
    enc: dict[tuple[str, tuple[str, ...]], str] = {}
    total = 0
    for x in g.signature.labels:
        ar = g.signature.arity(x)
        total += len(states) ** ar
        if total > _STATE_GUARD:
            raise TransformError("state-annotation blowup")
        for assignment in itertools.product(states, repeat=ar):
            if x in inert and not any(
                q == assignment[1] for q, _ in rel.get((assignment[0], x), ())
            ):
                continue
            enc[(x, assignment)] = _fresh(used, f"@{x}({'|'.join(assignment)})")

    def annotate(rule: Rule) -> list[Rule]:
        rhs = rule.rhs
        outer = dict.fromkeys(rhs.ext)  # distinct, in first-appearance order
        internal = [v for v in rhs.nodes if v not in outer]
        if len(states) ** len(internal) > _STATE_GUARD:
            raise TransformError("state-annotation blowup")
        out = []
        for ext_states in itertools.product(states, repeat=len(outer)):
            node_state = dict(zip(outer, ext_states))
            lhs = enc.get((rule.lhs, tuple([node_state[v] for v in rhs.ext])))
            if lhs is None:
                continue
            for inner in itertools.product(states, repeat=len(internal)):
                assign = {**node_state, **dict(zip(internal, inner))}
                labels = []
                for e in rhs.edges:
                    key = (e.label, tuple(assign[v] for v in e.att))
                    if key not in enc:
                        break
                    labels.append(enc[key])
                else:
                    edges = tuple(Hyperedge(e.id, lab, e.att) for e, lab in zip(rhs.edges, labels))
                    out.append(Rule(lhs, Hypergraph(rhs.nodes, edges, rhs.ext)))
        return out

    seeds = [
        Rule(g.start, handle(enc[(g.start, (initial, qf))], 2))
        for qf in finals
        if (g.start, (initial, qf)) in enc
    ]
    overlays = []
    for _, t in g.tables:
        overlay = list(seeds)
        for rule in t.rules:
            overlay += annotate(rule)
        overlays.append(overlay)
    arities = {name: len(s) for (_, s), name in enc.items()}
    stranded = [sorted(set(arities) - {r.lhs for r in o}) for o in overlays]
    dead = {
        ar: _fresh(used, f"@dead{ar}")
        for ar in sorted({arities[l] for lost in stranded for l in lost})
    }
    arities[g.start] = 2
    arities.update({name: ar for ar, name in dead.items()})
    arities.update(dict.fromkeys(letters, 2))
    sig = Signature.of(arities)
    base = identity_table(sig)

    decode = [
        Rule(enc[(a, (q, nq))], string_graph(()) if out is None else handle(out, 2))
        for (q, a), targets in rel.items()
        for nq, out in targets
        if (a, (q, nq)) in enc
    ]
    tables = [("0", override_table(base, decode))]
    for j, (overlay, lost) in enumerate(zip(overlays, stranded), start=1):
        overlay += [Rule(l, handle(dead[arities[l]], arities[l])) for l in lost]
        tables.append((str(j), override_table(base, overlay)))

    indices = [i for i, _ in tables]
    control = ControlAutomaton(
        states=("c0", "c1", "c2"),
        alphabet=tuple(indices),
        transitions=tuple(
            [("c0", i, "c1") for i in indices if i != "0"]
            + [("c1", i, "c1") for i in indices if i != "0"]
            + [("c1", "0", "c2")]
        ),
        initial="c0",
        finals=("c2",),
    )
    grammar = PHRGrammar(
        signature=sig,
        terminals=tuple(letters),
        start=g.start,
        tables=tuple(tables),
        order=max(g.order, 2),
    )
    return ControlledPHRGrammar(grammar=grammar, control=control)


# ----------------------------------------------------------- intersection


def rational_intersect_controlled(
    g: PHRGrammar, m: ControlAutomaton
) -> ControlledPHRGrammar:
    """Controlled grammar for L(g) with only words accepted by ``m``.

    The annotated product of g with the determinized automaton, whose
    relation steps each letter deterministically and decodes it to
    itself.  States are drawn only from those on some accepting path, so
    no annotation variant that could never take part in an accepted
    derivation is built.
    """
    if g.signature.arity(g.start) != 2:
        raise TransformError("intersection needs a string grammar (type-2 start)")
    d = m.determinize_complete()
    both = sorted(set(g.terminals) & set(m.alphabet))

    fwd = _reachable([d.initial], lambda q: (d.step(q, a) for a in d.alphabet))
    useful = tuple(sorted(fwd & d.live_states))

    rel = {
        (q, a): {(d.step(q, a), a)}
        for q in useful
        for a in both
        if g.signature.arity(a) == 2
    }
    return _annotated_product(g, useful, d.initial, d.finals, rel, both)


def rational_intersect(g: PHRGrammar, m: ControlAutomaton) -> PHRGrammar:
    """Uncontrolled grammar for the intersection, via control removal."""
    return remove_control(rational_intersect_controlled(g, m))


# ----------------------------------------------------------- free products


def free_product_wp(g1: PHRGrammar, g2: PHRGrammar) -> PHRGrammar:
    """Word problem of a free product from the factors' word problems.

    Expects grammars for the words equal to the identity in each factor,
    over disjoint letter alphabets.  A word over the union alphabet is
    trivial in the free product iff it reduces to the empty word by
    cutting out nonempty trivial factor words; equivalently, it is built
    from one factor word by repeatedly inserting trivial words at seams.
    A fresh start symbol derives either factor's start, and every letter
    edge a factor rule creates may carry an optional start-labelled
    flank on either side, so insertions are available at every seam when
    they are needed and absent otherwise.  No rule erases, so forms
    never shrink and bounded enumeration is complete up to the edge
    budget.
    """
    a1, a2 = set(g1.terminals), set(g2.terminals)
    if a1 & a2:
        raise TransformError("factor alphabets must be disjoint")
    for g in (g1, g2):
        if g.signature.arity(g.start) != 2:
            raise TransformError("factors must be string grammars (type-2 start)")

    used = set(g1.signature.labels) | set(g2.signature.labels)
    start = _fresh(used, "@start")

    def apart(g: PHRGrammar, which: str) -> PHRGrammar:
        mapping = {}
        for x in g.signature.labels:
            if x in g.terminals:
                mapping[x] = x
            else:
                mapping[x] = _fresh(used, f"@{which}.{x}")
        return relabel_grammar(g, mapping)

    h1 = apart(g1, "1")
    h2 = apart(g2, "2")
    letters = a1 | a2

    sig = Signature.of(
        {
            start: 2,
            **{x: h1.signature.arity(x) for x in h1.signature.labels},
            **{x: h2.signature.arity(x) for x in h2.signature.labels},
        }
    )
    base = identity_table(sig)

    def flanked(rule: Rule) -> list[Rule]:
        spots = [
            e.id for e in rule.rhs.edges if e.label in letters and len(e.att) == 2
        ]
        out = []
        for picks in itertools.product((0, 1, 2, 3), repeat=len(spots)):
            sides = dict(zip(spots, picks))
            nodes = list(rule.rhs.nodes)
            edges = []
            serial = 0
            for e in rule.rhs.edges:
                pick = sides.get(e.id, 0)
                if e.id not in sides or pick == 0:
                    edges.append(e)
                    continue
                u, v = e.att
                left, right = pick in (1, 3), pick in (2, 3)
                if left:
                    m = f"{e.id}.l{serial}"
                    serial += 1
                    nodes.append(m)
                    edges.append(Hyperedge(f"{e.id}.sl", start, (u, m)))
                    u = m
                if right:
                    m = f"{e.id}.r{serial}"
                    serial += 1
                    nodes.append(m)
                    edges.append(Hyperedge(f"{e.id}.sr", start, (m, v)))
                    v = m
                edges.append(Hyperedge(e.id, e.label, (u, v)))
            out.append(
                Rule(rule.lhs, Hypergraph(nodes=tuple(nodes), edges=tuple(edges), ext=rule.rhs.ext))
            )
        return out

    start_rules = [
        Rule(start, handle(start, 2)),
        Rule(start, handle(h1.start, 2)),
        Rule(start, handle(h2.start, 2)),
    ]

    tables: list[tuple[str, Table]] = []
    indices: set[str] = set()
    for i1, t1 in h1.tables:
        for i2, t2 in h2.tables:
            overlay: list[Rule] = list(start_rules)
            for t in (t1, t2):
                for rule in t.rules:
                    if is_identity_rule(rule):
                        overlay.append(rule)
                    else:
                        overlay += flanked(rule)
            tables.append((_fresh(indices, f"{i1}.{i2}"), override_table(base, overlay)))

    out = PHRGrammar(
        signature=sig,
        terminals=tuple(sorted(letters)),
        start=start,
        tables=tuple(tables),
        order=max(2, g1.order, g2.order),
    )
    return remove_unreachable(out)
