"""Canonical keys and isomorphism witnesses.

``golden/canonical.json`` pins, for each case of ``golden_cases()``, the
sha256 of every key, canonical graph and witness that ``golden_record``
writes for the case's graphs; the file is ``canonical_digests()`` dumped
as JSON.
"""

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrg import (
    canonical_graph,
    canonical_key,
    handle,
    hypergraph,
    is_isomorphic,
    isomorphism,
    string_graph,
    to_json,
)
from phrg.canonical import _canonical_data
from oracles import brute_force_isomorphic, canonical_reference


def renamed(h, node_map, edge_map):
    return hypergraph(
        nodes=[node_map[v] for v in h.nodes],
        edges=[
            (edge_map[e.id], e.label, tuple(node_map[v] for v in e.att))
            for e in h.edges
        ],
        ext=tuple(node_map[v] for v in h.ext),
    )


def test_key_invariant_under_renaming():
    h = hypergraph(
        nodes=["v1", "v2", "v3", "v4", "v5"],
        edges=[
            ("e1", "X", ("v1", "v2", "v3")),
            ("e4", "X", ("v3", "v5", "v4")),
            ("e3", "Y", ("v2", "v4")),
        ],
        ext=("v1", "v4"),
    )
    node_map = {"v1": "p", "v2": "q", "v3": "r", "v4": "s", "v5": "t"}
    edge_map = {"e1": "zz", "e4": "aa", "e3": "mm"}
    assert canonical_key(h) == canonical_key(renamed(h, node_map, edge_map))


def test_distinct_words_distinct_keys():
    g, h = string_graph("ab"), string_graph("ba")
    assert canonical_key(g) != canonical_key(h)
    assert not brute_force_isomorphic(g, h)


def test_witness_identity():
    h = string_graph("ab")
    w = isomorphism(h, h)
    assert w is not None
    for e in h.edges:
        target = w.edge(e.id)
        te = next(x for x in h.edges if x.id == target)
        assert te.label == e.label
        assert te.att == tuple(w.node(v) for v in e.att)
    assert tuple(w.node(v) for v in h.ext) == h.ext


def test_handle_matches_one_letter_string():
    w = isomorphism(handle("a", 2), string_graph("a"))
    assert w is not None


def test_label_difference_breaks_iso():
    assert isomorphism(string_graph("a"), string_graph("b")) is None
    assert not is_isomorphic(string_graph("a"), string_graph("b"))


def test_non_ascii_labels_have_keys():
    # the key escapes what is not ASCII; an ASCII key keeps its bytes
    assert canonical_key(string_graph(("ä", "a"))) != canonical_key(string_graph(("a", "ä")))
    assert canonical_key(string_graph(("ä",))) == canonical_key(handle("ä", 2))
    assert b"\\xe4" in canonical_key(string_graph(("ä",)))


def test_canonical_graph_is_stable():
    h = string_graph("aab")
    c = canonical_graph(h)
    assert canonical_key(c) == canonical_key(h)
    assert canonical_graph(c) == c


def all_small_graphs(max_nodes, max_edges, ext_cap):
    """Every graph over labels a (arity 2) and b (arity 1), up to ids."""
    for n in range(max_nodes + 1):
        nodes = [f"v{i}" for i in range(n)]
        shapes = [("a", (u, v)) for u in nodes for v in nodes]
        shapes += [("b", (u,)) for u in nodes]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(shapes, m):
                edges = [
                    (f"e{i}", lab, att) for i, (lab, att) in enumerate(combo)
                ]
                for elen in range(ext_cap + 1):
                    for ext in itertools.product(nodes, repeat=elen):
                        yield hypergraph(nodes=nodes, edges=edges, ext=ext)


GOLDEN = Path(__file__).parent / "golden" / "canonical.json"


def shuffled_copy(h, rng):
    """``h`` with node and edge names drawn at random; as a graph lists its
    nodes and edges sorted by name, this shuffles them too."""
    node_map = {v: f"w{i}" for v, i in zip(h.nodes, rng.sample(range(100), len(h.nodes)))}
    edge_map = {e.id: f"f{i}" for e, i in zip(h.edges, rng.sample(range(100), len(h.edges)))}
    return renamed(h, node_map, edge_map)


def isolated(k):
    return hypergraph(nodes=[f"v{i}" for i in range(k)], edges=[], ext=())


def loops(k):
    return hypergraph(
        nodes=[f"v{i}" for i in range(k)],
        edges=[(f"e{i}", "b", (f"v{i}",)) for i in range(k)],
        ext=(),
    )


def triangles(k, ext=()):
    """k disjoint directed a/2 triangles: v(3t) -> v(3t+1) -> v(3t+2) -> v(3t)."""
    return hypergraph(
        nodes=[f"v{i}" for i in range(3 * k)],
        edges=[
            (f"e{3 * t + j}", "a", (f"v{3 * t + j}", f"v{3 * t + (j + 1) % 3}"))
            for t in range(k)
            for j in range(3)
        ],
        ext=ext,
    )


def loops_and_two_cycles(k, j):
    """k a/2 loops and j directed a/2 two-cycles, all disjoint."""
    nodes = [f"v{i}" for i in range(k + 2 * j)]
    edges = [("a", (v, v)) for v in nodes[:k]]
    for u, v in zip(nodes[k::2], nodes[k + 1 :: 2]):
        edges += [("a", (u, v)), ("a", (v, u))]
    return hypergraph(
        nodes=nodes, edges=[(f"e{i}", lab, att) for i, (lab, att) in enumerate(edges)], ext=()
    )


def golden_cases() -> dict[str, list]:
    cases: dict[str, list] = {}
    for g in all_small_graphs(3, 3, 3):
        cases.setdefault(f"sweep {len(g.nodes)} nodes {len(g.edges)} edges", []).append(g)
    for k in range(1, 8):
        cases[f"isolated {k}"] = [isolated(k)]
        cases[f"loops {k}"] = [loops(k)]
    for k in range(2, 5):
        cases[f"triangles {k}"] = [triangles(k)]
        cases[f"triangles {k} ext"] = [triangles(k, ext=("v0", "v4"))]
    # node names fix the order in which the search meets the components
    for k, j in itertools.product(range(1, 4), repeat=2):
        name = f"loops {k} two-cycles {j}"
        rng = random.Random(name)
        cases[name] = [shuffled_copy(loops_and_two_cycles(k, j), rng) for _ in range(8)]
    return cases


def golden_record(g, rng) -> bytes:
    """The key, the canonical graph and a witness to a shuffled copy of ``g``."""
    w = isomorphism(g, shuffled_copy(g, rng))
    assert w is not None
    return canonical_key(g) + to_json(canonical_graph(g)).encode() + repr(w).encode()


def canonical_digests() -> dict[str, str]:
    digests = {}
    for name, graphs in golden_cases().items():
        rng = random.Random(name)
        h = hashlib.sha256()
        for g in graphs:
            h.update(golden_record(g, rng))
        digests[name] = h.hexdigest()
    return digests


def test_canonical_outputs_unchanged():
    assert canonical_digests() == json.loads(GOLDEN.read_text())


def test_keys_decide_isomorphism_small_sweep():
    # Smaller companion of the full acceptance sweep: 2 nodes, 2 edges.
    graphs = list(all_small_graphs(2, 2, 2))
    buckets = {}
    for g in graphs:
        buckets.setdefault(canonical_key(g), []).append(g)
    for members in buckets.values():
        rep = members[0]
        for other in members[1:]:
            assert brute_force_isomorphic(rep, other)
    profiles = {}
    for key, members in buckets.items():
        g = members[0]
        profile = (
            len(g.nodes),
            len(g.ext),
            tuple(sorted(e.label for e in g.edges)),
        )
        profiles.setdefault(profile, []).append(g)
    for group in profiles.values():
        for g, h in itertools.combinations(group, 2):
            assert not brute_force_isomorphic(g, h)


def test_key_invariant_under_node_order():
    # Nodes are indexed in name order, and a coloring the external
    # sequence makes discrete is scored at once, so every order must agree.
    for g in all_small_graphs(2, 2, 2):
        edge_map = {e.id: e.id for e in g.edges}
        keys = {
            canonical_key(renamed(g, dict(zip(g.nodes, names)), edge_map))
            for names in itertools.permutations(g.nodes)
        }
        assert keys == {canonical_key(g)}


def test_child_coloring_is_refined_to_a_stable_partition():
    # Two directed triangles, no external nodes: the root and the first
    # child are equitable but not discrete, so the second child coloring
    # (2c, 2c - 1 over four cells) must be refined; its values run up to
    # 6 on six nodes, so counting cells by its largest value mistakes it
    # for a discrete coloring and scores a wrong leaf.
    g = triangles(2)
    assert canonical_key(g) == (
        b"(6, (), (('a', (0, 2)), ('a', (1, 0)), ('a', (2, 1)),"
        b" ('a', (3, 5)), ('a', (4, 3)), ('a', (5, 4))))"
    )
    rng = random.Random("stable")
    six_cycle = hypergraph(
        nodes=[f"v{i}" for i in range(6)],
        edges=[(f"e{i}", "a", (f"v{i}", f"v{(i + 1) % 6}")) for i in range(6)],
        ext=(),
    )
    for other in [shuffled_copy(g, rng) for _ in range(8)] + [six_cycle]:
        assert (canonical_key(g) == canonical_key(other)) == brute_force_isomorphic(g, other)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_key_equality_matches_brute_force(data):
    pool = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=2,
        )
    )
    built = []
    for n, m in pool:
        nodes = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(m):
            lab = data.draw(st.sampled_from(["a", "b"]))
            if lab == "a":
                att = (
                    data.draw(st.sampled_from(nodes)),
                    data.draw(st.sampled_from(nodes)),
                )
            else:
                att = (data.draw(st.sampled_from(nodes)),)
            edges.append((f"e{i}", lab, att))
        elen = data.draw(st.integers(min_value=0, max_value=2))
        ext = tuple(data.draw(st.sampled_from(nodes)) for _ in range(elen))
        built.append(hypergraph(nodes=nodes, edges=edges, ext=ext))
    g, h = built
    assert (canonical_key(g) == canonical_key(h)) == brute_force_isomorphic(g, h)


@pytest.mark.parametrize(
    "family",
    [isolated(12), loops(12), triangles(4)],
    ids=["12 isolated nodes", "12 loops", "4 triangles"],
)
def test_symmetric_family_key_is_fast(family):
    # a fresh copy, so that no earlier call has cached its key
    g = shuffled_copy(family, random.Random("timed"))
    start = time.perf_counter()
    key = canonical_key(g)
    assert time.perf_counter() - start < 0.1
    assert key == canonical_key(family)
    assert isomorphism(g, family) is not None


@st.composite
def small_graphs(draw):
    """A graph with 1-3 nodes 0.. and up to 3 edges over a/2 and b/1."""
    n = draw(st.integers(min_value=1, max_value=3))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("a"), st.tuples(node, node)),
                st.tuples(st.just("b"), st.tuples(node)),
            ),
            max_size=3,
        )
    )
    return n, edges


@st.composite
def copies_of(draw, small):
    """A disjoint union of 1-3 copies of ``small`` (at most 7 nodes), with
    nodes and edges named at random and an external sequence of up to 2
    nodes."""
    n, small_edges = small
    k = draw(st.integers(min_value=1, max_value=min(3, 7 // n)))
    nodes = [(c, i) for c in range(k) for i in range(n)]
    edges = [
        (lab, tuple((c, u) for u in att)) for c in range(k) for lab, att in small_edges
    ]
    name = dict(zip(nodes, (f"v{i}" for i in draw(st.permutations(range(len(nodes)))))))
    ext = draw(st.lists(st.sampled_from(nodes), max_size=2))
    return hypergraph(
        nodes=[name[v] for v in nodes],
        edges=[
            (f"e{i}", lab, [name[u] for u in att])
            for i, (lab, att) in enumerate(draw(st.permutations(edges)))
        ],
        ext=[name[v] for v in ext],
    )


@st.composite
def symmetric_pairs(draw):
    """Two unions of copies, half the time of the same small graph."""
    first = draw(small_graphs())
    second = first if draw(st.booleans()) else draw(small_graphs())
    return draw(copies_of(first)), draw(copies_of(second))


@given(symmetric_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_key_equality_matches_brute_force_with_symmetry(pair, rng):
    g, h = pair
    assert (canonical_key(g) == canonical_key(h)) == brute_force_isomorphic(g, h)
    assert isomorphism(g, shuffled_copy(g, rng)) is not None


# cases whose search tree has too many leaves to walk unpruned in a test
UNPRUNED_TOO_SLOW = {
    "isolated 7",
    "loops 7",
    "triangles 4",
    "loops 2 two-cycles 3",
    "loops 3 two-cycles 3",
}


def test_canonical_data_matches_unpruned_search():
    # every graph of all_small_graphs(3, 3, 3) and the smaller symmetric
    # families, with the same node orders as the golden file
    for name, graphs in golden_cases().items():
        if name not in UNPRUNED_TOO_SLOW:
            for g in graphs:
                assert _canonical_data(g) == canonical_reference(g), name


@given(small_graphs().flatmap(copies_of))
@settings(max_examples=150, deadline=None)
def test_canonical_data_matches_unpruned_search_with_symmetry(g):
    assert _canonical_data(g) == canonical_reference(g)


def test_canonical_data_matches_unpruned_search_after_renaming():
    # random names make the order of h.nodes and h.edges differ from the
    # structure, as in the benchmark's sweep; every exit of _canonical_data
    # (discrete root, root refined to discrete, search) is met
    rng = random.Random(25)
    for g in all_small_graphs(3, 3, 3):
        h = shuffled_copy(g, rng)
        cert, order = _canonical_data(h)
        assert (cert, order) == canonical_reference(h)
        assert canonical_key(h) == ascii(cert).encode("ascii")


@pytest.mark.parametrize(
    "g, key, order",
    [
        (hypergraph(["a", "a"], [], ["a"]), b"(2, (1,), ())", (0, 1)),
        (
            hypergraph(["a", "a", "b", "b", "c"], [("e", "a", ("a", "b"))], []),
            b"(5, (), (('a', (3, 4)),))",
            (0, 2, 4, 1, 3),
        ),
        (
            hypergraph(
                ["a", "a", "b", "c"], [("e", "a", ("c", "b")), ("f", "a", ("b", "a"))], []
            ),
            b"(4, (), (('a', (1, 2)), ('a', (2, 3))))",
            (0, 3, 2, 1),
        ),
    ],
    ids=["discrete root", "refined root", "root refined to discrete"],
)
def test_duplicate_node_ids_keep_their_key(g, key, order):
    # a repeated id names its last index; the other copy is an isolated node
    assert canonical_key(g) == key
    assert _canonical_data(g)[1] == order


@pytest.mark.parametrize(
    "g",
    [
        hypergraph(["a"], [("e", "a", ("a", "z"))], ["a"]),
        hypergraph(["a", "b", "c"], [("e", "a", ("a", "z"))], []),
        hypergraph(["a"], [], ["z"]),
        hypergraph(["a", "b", "c"], [], ["z"]),
        hypergraph(
            ["a", "b", "c"],
            [("e", "a", ("a", "b")), ("f", "a", ("b", "c")), ("g", "b", ("z",))],
            [],
        ),
    ],
    ids=[
        "dangling attachment, discrete root",
        "dangling attachment, refined root",
        "dangling external node, discrete root",
        "dangling external node, refined root",
        "dangling attachment, root refined to discrete",
    ],
)
def test_dangling_reference_raises_key_error(g):
    with pytest.raises(KeyError):
        canonical_key(g)
