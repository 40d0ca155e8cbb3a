"""Built-in example grammars.

Each fixture is a grammar builder; ``fixture(name)`` returns a fresh
``GrammarDocument``.  These cover the main language families the test
suite exercises: an exponential graph family, a doubling string family,
bracket languages, a copy language that is not context-free, and word
problems of free groups and free products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .grammar import (
    AnyPHR,
    ControlAutomaton,
    ControlledPHRGrammar,
    ET0LGrammar,
    HRGrammar,
    PHRGrammar,
    Rule,
    Table,
    WordTable,
    identity_table,
    override_table,
)
from .hypergraph import Signature, disjoint_union, handle, hypergraph, string_graph
from .textfmt import GrammarDocument
from .transforms import et0l_to_phr, free_product_wp, hr_to_phr, relabel_grammar


def _fig5_squares() -> PHRGrammar:
    sig = Signature.of({"box": 0})
    double = disjoint_union(handle("box", 0), handle("box", 0))
    table = Table(rules=(Rule("box", double),), scope=sig.labels)
    return PHRGrammar(
        signature=sig,
        terminals=("box",),
        start="box",
        tables=(("1", table),),
        order=0,
    )


def _a_pow2_et0l() -> ET0LGrammar:
    return ET0LGrammar(
        alphabet=("a",),
        terminals=("a",),
        axiom="a",
        tables=(("1", WordTable(rules=(("a", ("a", "a")),), scope=("a",))),),
    )


def _words_hr(*words: str) -> HRGrammar:
    """The sequential grammar with one rule S -> w per word, in this order;
    every other letter is a terminal of arity 2."""
    letters = {a for w in words for a in w}
    return HRGrammar(
        signature=Signature.of(dict.fromkeys(letters, 2)),
        nonterminals=("S",),
        start="S",
        rules=tuple(Rule("S", string_graph(w)) for w in words),
        order=2,
    )


def _dyck_hr() -> HRGrammar:
    return _words_hr("ab", "aSb", "SS")


def _copy_dyck_K() -> PHRGrammar:
    """Words w tagged-copy(w) with w a bracket word; not context-free.

    A type-4 nonterminal W grows two tracks in lockstep: its external
    sequence is (track1 from, track1 to, track2 from, track2 to).  The
    start rule splices the two tracks into one path, so the second track
    is read right after the first.
    """
    sig = Signature.of(
        {"S": 2, "W": 4, "a": 2, "b": 2, "abar": 2, "bbar": 2}
    )
    start_rhs = hypergraph(
        nodes=["u", "m", "v"],
        edges=[("e", "W", ("u", "m", "m", "v"))],
        ext=("u", "v"),
    )
    pair_rhs = hypergraph(
        nodes=["x1", "x2", "p", "y1", "y2", "q"],
        edges=[
            ("e1", "a", ("x1", "p")),
            ("e2", "b", ("p", "x2")),
            ("e3", "abar", ("y1", "q")),
            ("e4", "bbar", ("q", "y2")),
        ],
        ext=("x1", "x2", "y1", "y2"),
    )
    nest_rhs = hypergraph(
        nodes=["x1", "x2", "p", "p2", "y1", "y2", "q", "q2"],
        edges=[
            ("e1", "a", ("x1", "p")),
            ("e2", "W", ("p", "p2", "q", "q2")),
            ("e3", "b", ("p2", "x2")),
            ("e4", "abar", ("y1", "q")),
            ("e5", "bbar", ("q2", "y2")),
        ],
        ext=("x1", "x2", "y1", "y2"),
    )
    chain_rhs = hypergraph(
        nodes=["x1", "x2", "m1", "y1", "y2", "m2"],
        edges=[
            ("e1", "W", ("x1", "m1", "y1", "m2")),
            ("e2", "W", ("m1", "x2", "m2", "y2")),
        ],
        ext=("x1", "x2", "y1", "y2"),
    )
    g = HRGrammar(
        signature=sig,
        nonterminals=("S", "W"),
        start="S",
        rules=(
            Rule("S", start_rhs),
            Rule("W", pair_rhs),
            Rule("W", nest_rhs),
            Rule("W", chain_rhs),
        ),
        order=4,
    )
    return hr_to_phr(g)


def _z_wp() -> PHRGrammar:
    """Word problem of the integers: words with equally many a and A."""
    return hr_to_phr(_words_hr("SS", "aSA", "ASa", "aA", "Aa"))


@lru_cache(maxsize=1)
def _f2_wp() -> PHRGrammar:
    z1 = _z_wp()
    return free_product_wp(z1, relabel_grammar(z1, {"a": "b", "A": "B"}))


def _z2_wp() -> PHRGrammar:
    """Word problem of the order-two group: even powers of a."""
    return hr_to_phr(_words_hr("SS", "aa", "aSa"))


def _dihedral_wp() -> PHRGrammar:
    z2a = _z2_wp()
    return free_product_wp(z2a, relabel_grammar(z2a, {"a": "b"}))


def _ctl(transitions: str, finals: str) -> ControlledPHRGrammar:
    """The appending grammar under a control automaton.

    Table 1 appends a, table 2 appends b and table 0 ends with b.  Each
    transition is spelled ``qap`` for q -a-> p, and the first one leaves
    the initial state.
    """
    sig = Signature.of({"s": 2, "a": 2, "b": 2})
    ids = identity_table(sig)
    tables = tuple(
        (i, override_table(ids, [Rule("s", string_graph(w))]))
        for i, w in (("1", "as"), ("2", "bs"), ("0", "b"))
    )
    trans = tuple(tuple(t) for t in transitions.split())
    control = ControlAutomaton(
        states=tuple({q for t in trans for q in (t[0], t[2])}),
        alphabet=("0", "1", "2"),
        transitions=trans,
        initial=trans[0][0],
        finals=tuple(finals),
    )
    g = PHRGrammar(signature=sig, terminals=("a", "b"), start="s", tables=tables, order=2)
    return ControlledPHRGrammar(grammar=g, control=control)


_BUILDERS: dict[str, tuple[str, Callable[[], AnyPHR | HRGrammar | ET0LGrammar]]] = {
    "fig5_squares": ("doubling family of 0-ary edges", _fig5_squares),
    "a_pow2_et0l": ("word grammar doubling a run of a", _a_pow2_et0l),
    "a_pow2": ("string graphs a^(2^n)", lambda: et0l_to_phr(_a_pow2_et0l())),
    "dyck_hr": ("balanced brackets, sequential grammar", _dyck_hr),
    "dyck_phr": ("balanced brackets, embedded", lambda: hr_to_phr(_dyck_hr())),
    "copy_dyck_K": ("bracket word followed by its tagged copy", _copy_dyck_K),
    "z_wp": ("words with equally many a and A", _z_wp),
    "f2_wp": ("word problem of the rank-2 free group", _f2_wp),
    "z2_wp": ("nonempty even powers of a", _z2_wp),
    "dihedral_wp": ("word problem of the infinite dihedral group", _dihedral_wp),
    "ctl_none": ("appending grammar, empty control", lambda: _ctl("q0q q1q q2q", "")),
    "ctl_all": (
        "appending grammar, unrestricted control",
        lambda: _ctl("q0q q1q q2q", "q"),
    ),
    "ctl_plus0": (
        "appending grammar, grow-then-stop control",
        lambda: _ctl("p1r p2r r1r r2r r0f", "f"),
    ),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def fixture_description(name: str) -> str:
    return _BUILDERS[name][0]


def fixture(name: str) -> GrammarDocument:
    if name not in _BUILDERS:
        raise KeyError(f"no fixture named {name!r}")
    g = _BUILDERS[name][1]()
    if isinstance(g, ControlledPHRGrammar):
        return GrammarDocument("phr", g.grammar, control=g.control, name=name)
    kind = {HRGrammar: "hr", ET0LGrammar: "et0l"}.get(type(g), "phr")
    return GrammarDocument(kind, g, name=name)
