"""The three benchmark workloads: seeded inputs, timed calls, oracle checks.

Each workload has four functions.  ``setup(seed, tracer)`` builds what
phrg receives and is timed as set-up.  ``plan(inputs, seed)`` picks the
queries and expected values with the oracles of ``tests/oracles.py``; it
is not timed.  ``run(inputs, plan, runner)`` makes every timed call
through ``runner.op`` and returns a JSON-able record of the outputs,
which ``check(inputs, plan, outputs)`` compares with the oracles.

A seed renames letters, states and nodes and picks which words are
queried; it never changes how much work a run does, so the spread
between seeds measures the machine, not the input.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

from phrg.canonical import canonical_key
from phrg.engine import Limits, enumerate_strings, member_string
from phrg.fixtures import fixture
from phrg.grammar import ControlAutomaton, PHRGrammar, Rule, Table
from phrg.hypergraph import Hyperedge, Hypergraph, Signature, handle, string_graph
from phrg.textfmt import GrammarDocument, parse_document, serialize_document
from phrg.transforms import (
    apply_hom,
    free_product_wp,
    hr_to_phr,
    inverse_hom,
    iterate_substitution,
    rational_concat,
    rational_intersect,
    rational_plus,
    rational_union,
    regular_to_phr,
    relabel_grammar,
    substitute,
)


class OpFailed(Exception):
    """An op raised or hit its wall-clock cap; the runner has counted it."""


# ------------------------------------------------------------ wordproblem

# The word problem of the integers, written as a sequential grammar; the
# free product of two renamed copies is the word problem of F2.
_Z_WP = """kind hr
order 2
signature
S/2
{g}/2
{G}/2
nonterminals S
start S
rules
S -> str("S S")
S -> str("{g} S {G}")
S -> str("{G} S {g}")
S -> str("{g} {G}")
S -> str("{G} {g}")
"""

WP_LIMITS = Limits(max_steps=40, max_nodes=40, max_edges=6, max_results=500_000)
WP_MAX_LEN = 6


def wordproblem_setup(seed: int, tracer) -> dict:
    rng = random.Random(seed)
    # two-character names so that every seed compares strings of one length
    x, y = rng.sample("abcdefghjkmnpqrtuvwxyz", 2)
    dx, dy = rng.randrange(10), rng.randrange(10)
    inverse = {}
    for c, d in ((x, dx), (y, dy)):
        inverse[f"{c}{d}"] = f"{c.upper()}{d}"
        inverse[f"{c.upper()}{d}"] = f"{c}{d}"
    gx, gy = f"{x}{dx}", f"{y}{dy}"
    doc = tracer.call("textfmt.parse", parse_document, _Z_WP.format(g=gx, G=inverse[gx]))
    z1 = tracer.call("transforms.build", hr_to_phr, doc.grammar)
    z2 = tracer.call(
        "transforms.build", relabel_grammar, z1, {gx: gy, inverse[gx]: inverse[gy]}
    )
    g = tracer.call("transforms.build", free_product_wp, z1, z2)
    return {"grammar": g, "inverse": inverse}


def wordproblem_plan(inputs: dict, seed: int) -> None:
    return None


def wordproblem_run(inputs: dict, plan, runner) -> dict:
    try:
        res = runner.op(
            "engine.search", enumerate_strings, inputs["grammar"], WP_LIMITS, sample=True
        )
    except OpFailed:
        return {}
    return {"words": [list(w) for w in res.words], "saturated": res.saturated}


def wordproblem_check(inputs: dict, plan, outputs: dict) -> list[str]:
    from oracles import all_words, free_trivial

    if not outputs:
        return []
    inverse = inputs["inverse"]
    want = {
        w for w in all_words(sorted(inverse), WP_MAX_LEN) if free_trivial(w, inverse)
    }
    got = {tuple(w) for w in outputs["words"]}
    problems = []
    if not outputs["saturated"]:
        problems.append("wordproblem: search not saturated")
    if got != want:
        problems.append(
            f"wordproblem: {len(got - want)} extra, {len(want - got)} missing words"
        )
    return problems


# ---------------------------------------------------------------- closure

DYCK_RULES = {"S": [("a", "b"), ("a", "S", "b"), ("S", "S")]}


def finite_language(letters, words) -> PHRGrammar:
    """A one-table grammar deriving exactly the given nonempty words."""
    sig = Signature.of({"S": 2, **{a: 2 for a in letters}})
    rules = [Rule("S", string_graph(tuple(w))) for w in words]
    rules += [Rule(a, handle(a, 2)) for a in letters]
    return PHRGrammar(
        signature=sig,
        terminals=tuple(letters),
        start="S",
        tables=(("1", Table(rules=tuple(rules), scope=sig.labels)),),
        order=2,
    )


def _automaton(rng, transitions, finals) -> ControlAutomaton:
    """The automaton over {a, b} with start state p, states renamed by ``rng``.

    The new names keep the order of the old ones, so the search explores
    states in the same order and takes the same time for every seed.
    """
    states = sorted({q for t in transitions for q in (t[0], t[2])} | {"p"})
    numbers = sorted(rng.sample(range(100, 1000), len(states)))
    names = {q: f"s{i}" for q, i in zip(states, numbers)}
    return ControlAutomaton(
        states=tuple(names.values()),
        alphabet=("a", "b"),
        transitions=tuple((names[q], a, names[r]) for q, a, r in transitions),
        initial=names["p"],
        finals=tuple(names[q] for q in finals),
    )


# Fixed shapes, so that every seed does the same work; the seed renames
# their states.  Each meets the Dyck language in at least one word.
_AUTOMATA = {
    "a*b*": ([("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")], ["p", "q"]),
    "(ab)*": ([("p", "a", "q"), ("q", "b", "p")], ["p"]),
    "aa(a|b)*": ([("p", "a", "q"), ("q", "a", "r"), ("r", "a", "r"), ("r", "b", "r")], ["r"]),
    "no bb": ([("p", "a", "p"), ("p", "b", "q"), ("q", "a", "p")], ["p", "q"]),
    "even a": ([("p", "a", "q"), ("q", "a", "p"), ("p", "b", "p"), ("q", "b", "q")], ["p"]),
}


def _intersect(dyck_hr, m):
    return rational_intersect(hr_to_phr(dyck_hr), m)


def _limits(max_edges, max_steps=40, max_nodes=200) -> Limits:
    return Limits(
        max_steps=max_steps, max_nodes=max_nodes, max_edges=max_edges, max_results=500_000
    )


class Case(NamedTuple):
    name: str
    build: Callable  # the construction, timed as transforms.build
    args: tuple
    limits: Limits
    keep: int  # longest word compared with the oracle
    alphabet: str
    nonmembers: bool  # also query sampled non-members


def closure_setup(seed: int, tracer) -> dict:
    rng = random.Random(seed)
    dyck_hr = fixture("dyck_hr").grammar
    dyck = fixture("dyck_phr").phr()
    automata = {name: _automaton(rng, *shape) for name, shape in _AUTOMATA.items()}
    even = ControlAutomaton(
        states=("s", "t"),
        alphabet=("a",),
        transitions=(("s", "a", "t"), ("t", "a", "s")),
        initial="s",
        finals=("s",),
    )
    ident = {"a": ("a",), "b": ("b",)}
    one = {a: finite_language((a,), [(a,)]) for a in ("a", "b")}
    ab = finite_language(("a", "b"), [("a", "b")])
    # Budgets follow tests/test_acceptance.py, one edge lower where a
    # search there takes more than a few seconds.
    cases = [
        Case(f"intersect {name}", _intersect, (dyck_hr, m), _limits(5, 30, 30), 4, "ab", True)
        for name, m in automata.items()
    ]
    cases += [
        Case("substitute identity", substitute, (dyck, one), _limits(5), 5, "ab", True),
        Case(
            "substitute finite",
            substitute,
            (
                finite_language(("a",), [("a",), ("a", "a")]),
                {"a": finite_language(("b",), [("b",), ("b", "b")])},
            ),
            _limits(4), 4, "b", True,
        ),
        Case(
            "iterate substitution",
            iterate_substitution,
            (
                finite_language(("a", "b"), [("a",)]),
                {"a": finite_language(("a", "b"), [("a",), ("b", "a", "b")]), "b": one["b"]},
            ),
            _limits(6, 30), 6, "ab", True,
        ),
        Case("union", rational_union, (one["a"], one["b"]), _limits(3), 3, "ab", True),
        Case(
            "concat",
            rational_concat,
            (finite_language(("a",), [("a",), ("a", "a")]), one["b"]),
            _limits(3), 3, "ab", True,
        ),
        Case("plus", rational_plus, (ab,), _limits(6), 6, "ab", True),
        Case("hom identity", apply_hom, (dyck, ident), _limits(5), 5, "ab", True),
        Case(
            "hom doubling",
            apply_hom,
            (fixture("a_pow2").phr(), {"a": ("b", "b")}),
            _limits(8, 12), 8, "b", True,
        ),
        Case("inverse identity", inverse_hom, (dyck, ident), _limits(6, 40, 60), 5, "ab", True),
        Case(
            "inverse blocks",
            inverse_hom,
            (regular_to_phr(even), {"x": ("a", "a")}),
            _limits(9, 40, 60), 4, "x", True,
        ),
        # non-members of this erasing preimage end in slow "unknown" verdicts
        Case(
            "inverse erasing",
            inverse_hom,
            (ab, {"x": ("a", "b"), "y": ()}),
            _limits(7, 40, 60), 3, "xy", False,
        ),
    ]
    return {"cases": cases, "automata": automata}


def _closure_oracles(inputs: dict) -> dict[str, set]:
    from oracles import (
        cfg_words,
        concat_sets,
        hom_image,
        iterate_subst_set,
        nfa_accepts,
        plus_set,
        preimage_words,
        subst_set,
    )

    dyck = {n: cfg_words(DYCK_RULES, "S", ("a", "b"), max_len=n) for n in (4, 5)}
    want = {
        f"intersect {name}": {
            w for w in dyck[4] if nfa_accepts(m.transitions, m.initial, m.finals, w)
        }
        for name, m in inputs["automata"].items()
    }
    ident = {"a": [("a",)], "b": [("b",)]}
    want["substitute identity"] = subst_set(dyck[5], ident)
    want["substitute finite"] = subst_set({("a",), ("a", "a")}, {"a": [("b",), ("b", "b")]})
    want["iterate substitution"] = iterate_subst_set(
        {("a",)}, {"a": [("a",), ("b", "a", "b")], "b": [("b",)]}, max_len=6
    )
    want["union"] = {("a",), ("b",)}
    want["concat"] = concat_sets({("a",), ("a", "a")}, {("b",)})
    want["plus"] = plus_set({("a", "b")}, 6)
    want["hom identity"] = hom_image(dyck[5], {"a": ("a",), "b": ("b",)})
    want["hom doubling"] = hom_image({("a",) * n for n in (1, 2, 4)}, {"a": ("b", "b")})
    want["inverse identity"] = preimage_words(
        ("a", "b"), {"a": ("a",), "b": ("b",)}, 5, dyck[5].__contains__
    )
    want["inverse blocks"] = preimage_words(
        ("x",), {"x": ("a", "a")}, 4, lambda w: set(w) == {"a"} and len(w) % 2 == 0
    )
    want["inverse erasing"] = preimage_words(
        ("x", "y"), {"x": ("a", "b"), "y": ()}, 3, lambda w: w == ("a", "b")
    )
    return want


# Member queries: every member up to this length, and this many sampled
# non-members of each length 1..3 (short enough that every verdict is fast).
QUERY_MEMBER_LEN = 4
QUERY_NONMEMBERS = 2


def closure_plan(inputs: dict, seed: int) -> dict:
    from oracles import all_words

    want = _closure_oracles(inputs)
    rng = random.Random(seed)
    queries = {}
    for case in inputs["cases"]:
        members = want[case.name]
        words = sorted(w for w in members if len(w) <= QUERY_MEMBER_LEN)
        if case.nonmembers:
            for n in (1, 2, 3):
                pool = [w for w in all_words(case.alphabet, n, n) if w not in members]
                words += rng.sample(pool, min(QUERY_NONMEMBERS, len(pool)))
        rng.shuffle(words)
        queries[case.name] = words
    return {"want": want, "queries": queries}


def closure_run(inputs: dict, plan: dict, runner) -> dict:
    out = {}
    for case in inputs["cases"]:
        try:
            g = runner.op("transforms.build", case.build, *case.args)
            text = runner.op(
                "textfmt.serialize", serialize_document, GrammarDocument(kind="phr", grammar=g)
            )
            g = runner.op("textfmt.parse", parse_document, text).grammar
            res = runner.op("engine.search", enumerate_strings, g, case.limits, sample=True)
            got = out[case.name] = {
                "words": [list(w) for w in res.words if len(w) <= case.keep],
                "saturated": res.saturated,
                "verdicts": {},
            }
            for w in plan["queries"][case.name]:
                v = runner.op("engine.search", member_string, g, w, case.limits, sample=True)
                got["verdicts"][" ".join(w)] = v.verdict
        except OpFailed:
            continue
    return out


def closure_check(inputs: dict, plan: dict, outputs: dict) -> list[str]:
    problems = []
    for name, got in outputs.items():
        want = plan["want"][name]
        words = {tuple(w) for w in got["words"]}
        if not got["saturated"]:
            problems.append(f"{name}: search not saturated")
        if words != want:
            problems.append(f"{name}: words {sorted(words)} != oracle {sorted(want)}")
        for text, verdict in got["verdicts"].items():
            # a non-member may honestly come back "unknown", never "yes"
            allowed = (
                ("yes",)
                if tuple(text.split()) in want
                else ("no-within-limits", "unknown")
            )
            if verdict not in allowed:
                problems.append(f"{name}: member {text!r} -> {verdict}")
    return problems


# ------------------------------------------------------------ canon_sweep

SWEEP_NODES = 3
SWEEP_EDGES = 3
FAMILY_MAX = 7  # the key of 7 symmetric components takes ~0.4 s
FAMILY_COPIES = 2


def _names(rng, n: int) -> list[str]:
    return [f"v{i}" for i in rng.sample(range(1000, 10000), n)]


def canon_sweep_setup(seed: int, tracer) -> dict:
    """Every graph with <= 3 nodes, <= 3 edges over a/2 and b/1 and an
    external sequence of <= 3 nodes, then the symmetric families: k
    isolated nodes and k disjoint b/1 loops, each in FAMILY_COPIES copies
    with different node names.  Node names are seeded."""
    rng = random.Random(seed)
    graphs = []
    for n in range(SWEEP_NODES + 1):
        slots = [("a", (u, v)) for u in range(n) for v in range(n)]
        slots += [("b", (u,)) for u in range(n)]
        edge_sets = [
            es
            for k in range(SWEEP_EDGES + 1)
            for es in itertools.combinations_with_replacement(slots, k)
        ]
        exts = [ext for k in range(4) for ext in itertools.product(range(n), repeat=k)]
        namings = [_names(rng, n) for _ in range(16)]
        for es in edge_sets:
            for ext in exts:
                name = rng.choice(namings)
                graphs.append(
                    Hypergraph(
                        nodes=tuple(name),
                        edges=tuple(
                            Hyperedge(f"e{i}", lab, tuple(name[u] for u in att))
                            for i, (lab, att) in enumerate(es)
                        ),
                        ext=tuple(name[u] for u in ext),
                    )
                )
    for k in range(1, FAMILY_MAX + 1):
        for _ in range(FAMILY_COPIES):
            name = _names(rng, k)
            graphs.append(Hypergraph(nodes=tuple(name), edges=(), ext=()))
            name = _names(rng, k)
            ids = [f"e{i}" for i in rng.sample(range(100), k)]
            graphs.append(
                Hypergraph(
                    nodes=tuple(name),
                    edges=tuple(Hyperedge(i, "b", (v,)) for i, v in zip(ids, name)),
                    ext=(),
                )
            )
    rng.shuffle(graphs)
    return {"graphs": graphs}


def canon_sweep_plan(inputs: dict, seed: int) -> None:
    return None


def canon_sweep_run(inputs: dict, plan, runner) -> dict:
    keys = []
    for g in inputs["graphs"]:
        try:
            keys.append(runner.op("canonical", canonical_key, g, sample=True).hex())
        except OpFailed:
            keys.append(None)
    return {"keys": keys}


def _ext_pattern(seq) -> tuple:
    first: dict = {}
    return tuple(first.setdefault(x, len(first)) for x in seq)


def _invariant(g) -> tuple:
    """Equal for isomorphic graphs; buckets the brute-force comparison."""
    inc: dict = {v: [] for v in g.nodes}
    for e in g.edges:
        for i, v in enumerate(e.att):
            inc[v].append((e.label, i))
    prof = {v: tuple(sorted(p)) for v, p in inc.items()}
    return (
        len(g.nodes),
        _ext_pattern(g.ext),
        tuple(sorted((e.label, _ext_pattern(e.att)) for e in g.edges)),
        tuple(sorted(prof.values())),
        tuple(prof[v] for v in g.ext),
    )


def canon_sweep_check(inputs: dict, plan, outputs: dict) -> list[str]:
    """Key equality must coincide with isomorphism: brute force within
    invariant buckets, and no key may be shared across buckets."""
    from oracles import brute_force_isomorphic

    buckets: dict = {}
    for g, k in zip(inputs["graphs"], outputs["keys"]):
        if k is not None:
            buckets.setdefault(_invariant(g), []).append((g, k))
    problems = []
    bucket_of_key: dict = {}
    for inv, members in buckets.items():
        for g, k in members:
            if bucket_of_key.setdefault(k, inv) != inv:
                problems.append(f"key shared across invariant buckets: {g}")
        for (g1, k1), (g2, k2) in itertools.combinations(members, 2):
            if (k1 == k2) != brute_force_isomorphic(g1, g2):
                problems.append(f"key equality wrong for {g1} and {g2}")
    return problems


WORKLOADS = {
    "wordproblem": {
        "setup": wordproblem_setup,
        "plan": wordproblem_plan,
        "run": wordproblem_run,
        "check": wordproblem_check,
    },
    "closure": {
        "setup": closure_setup,
        "plan": closure_plan,
        "run": closure_run,
        "check": closure_check,
    },
    "canon_sweep": {
        "setup": canon_sweep_setup,
        "plan": canon_sweep_plan,
        "run": canon_sweep_run,
        "check": canon_sweep_check,
    },
}

# Per-op wall-clock caps, about five times the slowest op seen on 2 CPUs.
CAP_S = {"wordproblem": 90.0, "closure": 20.0, "canon_sweep": 5.0}
