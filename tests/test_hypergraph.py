"""Hypergraph values: construction, replacement, encoding, validation."""

import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrg import (
    Hyperedge,
    Hypergraph,
    HypergraphError,
    Signature,
    canonical_graph,
    canonical_key,
    discrete_graph,
    disjoint_union,
    extract_string,
    from_json,
    from_json_obj,
    handle,
    hypergraph,
    replace,
    string_graph,
    to_json,
    validate,
)
from phrg.grammar import WordForm
from phrg.hypergraph import _edge, _graph, _numbered
from oracles import all_words, brute_force_isomorphic, union_find_classes

SIG = Signature.of({"X": 3, "Y": 2, "a": 2, "b": 2})


def fig_h():
    """Host graph: one ternary X edge and two Y edges sharing endpoints."""
    return hypergraph(
        nodes=["v1", "v2", "v3", "v4"],
        edges=[
            ("e1", "X", ("v1", "v2", "v3")),
            ("e2", "Y", ("v3", "v4")),
            ("e3", "Y", ("v2", "v4")),
        ],
        ext=("v1", "v4"),
    )


def fig_r():
    return hypergraph(
        nodes=["w1", "w2", "w3"],
        edges=[("f1", "X", ("w1", "w2", "w3"))],
        ext=("w1", "w3"),
    )


def fig_result():
    return hypergraph(
        nodes=["v1", "v2", "v3", "v4", "v5"],
        edges=[
            ("e1", "X", ("v1", "v2", "v3")),
            ("e4", "X", ("v3", "v5", "v4")),
            ("e3", "Y", ("v2", "v4")),
        ],
        ext=("v1", "v4"),
    )


class TestValidate:
    def test_well_formed(self):
        assert validate(fig_h(), SIG) == []

    def test_arity_mismatch(self):
        h = hypergraph(
            nodes=["u", "v"], edges=[("e", "X", ("u", "v"))], ext=()
        )
        problems = validate(h, SIG)
        assert len(problems) == 1
        assert problems[0].kind == "arity-mismatch"

    def test_dangling_ext(self):
        h = hypergraph(nodes=["u"], edges=[], ext=("u", "ghost"))
        problems = validate(h)
        assert len(problems) == 1
        assert problems[0].kind == "dangling-ref"
        assert "ghost" in problems[0].detail

    def test_unknown_label(self):
        h = hypergraph(nodes=["u", "v"], edges=[("e", "zz", ("u", "v"))], ext=())
        kinds = {p.kind for p in validate(h, SIG)}
        assert "unknown-label" in kinds


class TestStringGraph:
    def test_two_letters(self):
        g = string_graph("ab")
        assert len(g.nodes) == 3
        assert len(g.edges) == 2
        assert len(g.ext) == 2
        assert g.type == 2
        assert g.repetition_free

    def test_empty_word(self):
        g = string_graph(())
        assert len(g.nodes) == 1
        assert len(g.edges) == 0
        assert g.ext[0] == g.ext[1]
        assert g.type == 2
        assert not g.repetition_free

    def test_decode_inverts_encode(self):
        for w in all_words(("a", "b"), 4, min_len=0):
            assert extract_string(string_graph(w)) == w


class TestHandle:
    def test_arity_two_is_string_graph(self):
        assert canonical_key(handle("a", 2)) == canonical_key(string_graph("a"))

    def test_arity_zero(self):
        g = handle("box", 0)
        assert len(g.nodes) == 0
        assert len(g.edges) == 1
        assert g.ext == ()

    def test_arity_three(self):
        g = handle("X", SIG)
        assert len(g.nodes) == 3
        assert len(set(g.ext)) == 3

    def test_unknown_label(self):
        with pytest.raises(HypergraphError):
            handle("zz", SIG)


def assert_same(g, h):
    """Equal, with equal hashes, ``repr`` and canonical keys."""
    assert g == h
    assert hash(g) == hash(h)
    assert repr(g) == repr(h)
    assert canonical_key(g) == canonical_key(h)


class TestSharedConstructors:
    """``string_graph``, ``handle`` and ``discrete_graph`` build their parts
    in normal form and may share one graph between calls; what they return
    equals what the public constructor builds from the same parts."""

    @pytest.mark.parametrize(
        "word", ["", (), "a", "ab", ("a", "b"), ("ab", "c"), "abcdefghijk", tuple("xy" * 7)]
    )
    def test_string_graph(self, word):
        letters = tuple(word)
        n = len(letters)
        # 11+ letters: node "v10" sorts before "v2" and edge "e10" before "e2"
        public = Hypergraph(
            nodes=tuple(f"v{i}" for i in reversed(range(n + 1))),
            edges=tuple(
                Hyperedge(f"e{i + 1}", a, (f"v{i}", f"v{i + 1}")) for i, a in enumerate(letters)
            ),
            ext=("v0", f"v{n}"),
        )
        assert_same(string_graph(word), public)
        assert_same(string_graph(word), string_graph(letters))

    @pytest.mark.parametrize("arity", [0, 1, 2, 3, 11])
    def test_handle(self, arity):
        nodes = tuple(f"v{i + 1}" for i in range(arity))
        public = Hypergraph(nodes=nodes, edges=(Hyperedge("e", "X", nodes),), ext=nodes)
        assert_same(handle("X", arity), public)
        sig = Signature.of({"X": arity})
        assert_same(handle("X", sig), public)

    @pytest.mark.parametrize("n", [0, 1, 2, 11])
    def test_discrete_graph(self, n):
        nodes = tuple(f"v{i + 1}" for i in range(n))
        assert_same(discrete_graph(n), Hypergraph(nodes=nodes, edges=(), ext=nodes))

    def test_negative_arity_rejected(self):
        with pytest.raises(HypergraphError, match="negative arity for label 'a'"):
            handle("a", -2)

    def test_negative_node_count_rejected(self):
        with pytest.raises(HypergraphError, match="negative node count -3"):
            discrete_graph(-3)


CD = string_graph("cd")


class TestReplace:
    def test_ternary_edge_example(self):
        got = replace(fig_h(), {"e2": fig_r()})
        assert len(got.nodes) == 5
        assert len(got.edges) == 3
        assert brute_force_isomorphic(got, fig_result())
        assert canonical_key(got) == canonical_key(fig_result())

    def test_identity_replacement(self):
        h = handle("X", SIG)
        edge = h.edges[0].id
        got = replace(h, {edge: handle("X", SIG)})
        assert canonical_key(got) == canonical_key(h)

    def test_merging_image(self):
        # An image with no edges and a repeated external node glues the
        # replaced edge's two attachment nodes into one.
        host = string_graph("ab")
        merger = string_graph(())
        merged = replace(host, {host.edges[0].id: merger})
        items = list(host.nodes) + list(merger.nodes)
        pairs = [
            (host.edges[0].att[0], merger.ext[0]),
            (host.edges[0].att[1], merger.ext[1]),
        ]
        assert len(merged.nodes) == union_find_classes(items, pairs)
        assert len(merged.edges) == 1

    def test_ext_preserved_pointwise(self):
        # Node ids are renumbered by replace, so the claim is positional:
        # the i-th external node of the result is the class of the i-th
        # external node of the host.  With no merges the distinctness
        # pattern carries over exactly.
        host = fig_h()
        got = replace(host, {"e2": fig_r()})
        assert len(got.ext) == len(host.ext)
        host_pattern = [host.ext.index(v) for v in host.ext]
        got_pattern = [got.ext.index(v) for v in got.ext]
        assert got_pattern == host_pattern

    def test_type_mismatch(self):
        with pytest.raises(HypergraphError):
            replace(fig_h(), {"e2": fig_r().__class__(
                nodes=("z",), edges=(), ext=("z",)
            )})

    def test_unknown_edge(self):
        with pytest.raises(HypergraphError):
            replace(fig_h(), {"nope": fig_r()})

    @pytest.mark.parametrize("where", ["host", "image"])
    def test_repeated_node_id(self, where):
        # host nodes (a, a, b) once gave a and b one ordinal, so Y became a loop
        host = hypergraph(
            ["a", "a", "b"] if where == "host" else ["a", "b"],
            [("x", "X", ("a", "b")), ("y", "Y", ("b", "a"))],
            (),
        )
        image = string_graph("cd")
        if where == "image":
            image = Hypergraph(image.nodes + image.nodes[:1], image.edges, image.ext)
        with pytest.raises(HypergraphError, match="node id is repeated"):
            replace(host, {"x": image})

    def test_repeated_edge_id(self):
        # both edges x were once dropped, and the image glued at the last one
        host = hypergraph(
            ["a", "b", "c"], [("x", "X", ("a", "b")), ("x", "Y", ("b", "c"))], ()
        )
        with pytest.raises(HypergraphError, match="edge id is repeated"):
            replace(host, {"x": string_graph("cd")})

    @pytest.mark.parametrize(
        "edges, ext, image, where",
        [
            # a surviving host edge, the replaced edge, the host's ext
            ([("x", "X", ("a", "b")), ("y", "Y", ("b", "z"))], (), CD, "the host"),
            ([("x", "X", ("a", "z"))], (), CD, "the host"),
            ([("x", "X", ("a", "b"))], ("z",), CD, "the host"),
            # the image's ext, an image edge
            ([("x", "X", ("a", "b"))], (), Hypergraph(CD.nodes, CD.edges, ("z", "v2")), "x"),
            (
                [("x", "X", ("a", "b"))],
                (),
                Hypergraph(CD.nodes, CD.edges + (Hyperedge("f", "c", ("z",)),), CD.ext),
                "x",
            ),
        ],
        ids=["host edge", "replaced edge", "host ext", "image ext", "image edge"],
    )
    def test_missing_node(self, edges, ext, image, where):
        # a dangling attachment or external node once raised a bare KeyError
        host = hypergraph(["a", "b"], edges, ext)
        with pytest.raises(HypergraphError, match=f"node 'z' is missing from .*{where}"):
            replace(host, {"x": image})

    def test_empty_edge_id(self):
        # the image of edge "" once shared the host's node scope ("", v)
        edges = [("", "X", ("v0", "v1")), ("y", "Y", ("v1", "v2"))]
        host = hypergraph(["v0", "v1", "v2"], edges, ("v0", "v2"))
        named = hypergraph(["v0", "v1", "v2"], [("x", *edges[0][1:]), edges[1]], host.ext)
        assert replace(host, {"": string_graph("ab")}) == replace(named, {"x": string_graph("ab")})

    def test_output_pinned(self):
        # The exact graphs, names and order included, that replace returns
        # on 300 seeded well-formed cases, as one SHA-256 of their JSON.
        rng = random.Random(20)
        text = "".join(to_json(replace(*replace_case(rng))) for _ in range(300))
        assert hashlib.sha256(text.encode()).hexdigest() == REPLACE_DIGEST


# the digest of TestReplace.test_output_pinned's 300 results
REPLACE_DIGEST = "cd5ad79faf45da62e3e1f1390ddb46236558d234400fea6e51a32dd5b877fcc5"

EMPTY = {"nodes": [], "edges": [], "ext": []}

# The refusals that no other test reaches, each with its exact message.
REFUSALS = {
    "negative arity": (lambda: Signature.of({"a": -1}), "negative arity for label 'a'"),
    "two arities": (
        lambda: Signature((("a", 1), ("a", 2))), "label 'a' declared with arities 1 and 2"
    ),
    "merged two arities": (
        lambda: Signature.of({"a": 2}).merged(Signature.of({"a": 1})),
        "label 'a' declared with arities 1 and 2",
    ),
    "json not an object": (lambda: from_json_obj([]), "hypergraph JSON must be an object"),
    "json unknown keys": (
        lambda: from_json_obj({**EMPTY, "x": 1}), "unknown keys in hypergraph JSON: ['x']"
    ),
    "json version": (
        lambda: from_json_obj({**EMPTY, "format_version": 2}), "unsupported format_version 2"
    ),
    "json edge": (
        lambda: from_json_obj({**EMPTY, "edges": [{"id": "e"}]}),
        "each edge must be an object with exactly id, label, att",
    ),
    "json att": (
        lambda: from_json_obj({**EMPTY, "edges": [{"id": "e", "label": "a", "att": "u"}]}),
        "edge att must be a list",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message(case):
    build, message = REFUSALS[case]
    with pytest.raises(HypergraphError) as err:
        build()
    assert str(err.value) == message


def random_graph(rng, n_nodes, n_edges, ext_len):
    """Node ids drawn from v0..v99, so that "v10" sorts before "v9", and
    edge ids from x0..x999; labels carry their arity."""
    nodes = [f"v{i}" for i in rng.sample(range(100), n_nodes)]
    edges = []
    for i in rng.sample(range(1000), n_edges):
        att = tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)))
        edges.append((f"x{i}", f"{rng.choice('abX')}{len(att)}", att))
    return hypergraph(nodes, edges, [rng.choice(nodes) for _ in range(ext_len)])


def replace_case(rng):
    """A well-formed host and images for 1-3 of its edges: merging images
    ``string_graph("")`` for some binary edges, otherwise images whose
    external nodes may repeat and which may have internal nodes."""
    n = rng.randint(1, 8)
    host = random_graph(rng, n, rng.randint(1, 8), rng.randint(0, 3))
    images = {}
    for e in rng.sample(host.edges, min(len(host.edges), rng.randint(1, 3))):
        k = len(e.att)
        if k == 2 and rng.random() < 0.3:
            images[e.id] = string_graph("")
        else:
            img = random_graph(rng, rng.randint(max(k, 1), k + 3), rng.randint(0, 3), 0)
            ext = tuple(rng.choice(img.nodes) for _ in range(k))
            images[e.id] = Hypergraph(img.nodes, img.edges, ext)
    return host, images


def big_graph(rng):
    """A graph of 11-20 nodes and 11-20 edges: "v10" sorts before "v2"."""
    return random_graph(rng, rng.randint(11, 20), rng.randint(11, 20), rng.randint(0, 3))


VALUES = [
    fig_h(),
    string_graph("abcdefghijkl"),
    handle("X", 3),
    discrete_graph(0),
    big_graph(random.Random(5)),
    canonical_graph(big_graph(random.Random(6))),
]


class TestValueSemantics:
    """Graphs and edges are slotted frozen dataclasses that behave as the
    plain frozen dataclasses they replaced."""

    @pytest.mark.parametrize("h", VALUES)
    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]
    )
    def test_round_trip(self, h, clone):
        for x in (h, *h.edges):
            y = clone(x)
            assert (y, hash(y), repr(y)) == (x, hash(x), repr(x))

    def test_fields_replace_and_match_args(self):
        h, e = fig_h(), fig_h().edges[0]
        assert [f.name for f in dataclasses.fields(h)] == ["nodes", "edges", "ext"]
        assert [f.name for f in dataclasses.fields(e)] == ["id", "label", "att"]
        assert Hypergraph.__match_args__ == ("nodes", "edges", "ext")
        assert Hyperedge.__match_args__ == ("id", "label", "att")
        g = dataclasses.replace(h, nodes=("v9", "v1", "v2", "v3"), ext=[1])
        assert (g.nodes, g.edges, g.ext) == (("v1", "v2", "v3", "v9"), h.edges, ("1",))
        assert dataclasses.replace(e, att=["v3", 2]).att == ("v3", "2")
        match h:
            case Hypergraph(nodes, edges, ext):
                assert (nodes, edges, ext) == (h.nodes, h.edges, h.ext)

    @pytest.mark.parametrize("x", [fig_h(), fig_h().edges[0]])
    def test_frozen_without_dict_or_weakref(self, x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, dataclasses.fields(x)[0].name, "y")
        assert not hasattr(x, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(x)

    def test_positional_and_keyword_construction(self):
        e = Hyperedge("e1", "a", ("u", "v"))
        assert e == Hyperedge(id="e1", label="a", att=("u", "v"))
        h = Hypergraph(("v", "u"), (e,), ("u", "v"))
        assert h == Hypergraph(nodes=("u", "v"), edges=(e,), ext=("u", "v"))
        assert h.nodes == ("u", "v")

    def test_inputs_normalized(self):
        e = Hyperedge("e", "a", [1, "v"])
        assert e.att == ("1", "v") and isinstance(e.att, tuple)
        h = Hypergraph(nodes=[2, 10, "v", 1], edges=[Hyperedge("e2", "b", ()), e], ext=(10, 1))
        assert h.nodes == ("1", "10", "2", "v")
        assert [x.id for x in h.edges] == ["e", "e2"]
        assert h.ext == ("10", "1")
        assert isinstance(h.edges, tuple)

    def test_edge_ids_and_labels_normalized(self):
        e = Hyperedge(1, 2, ["u"])
        assert (e.id, e.label) == ("1", "2")
        assert e == Hyperedge("1", "2", ("u",))
        # mixed id types sort as strings instead of failing to compare
        h = hypergraph(["u"], [(1, "a", ["u"]), ("x", "a", ["u"])], [])
        assert [x.id for x in h.edges] == ["1", "x"]

    def test_int_edge_id_round_trips_through_json(self):
        h = hypergraph(["u", "v"], [(1, "a", ["u", "v"])], ["u", "v"])
        assert '"id": "1"' in to_json(h)
        assert from_json(to_json(h)) == h


def assert_rebuilt(h):
    """``h`` equals, hashes and prints as ``Hypergraph(...)`` of its fields:
    a slot left unset or a part out of normal form fails here."""
    edges = [Hyperedge(e.id, e.label, e.att) for e in reversed(h.edges)]
    g = Hypergraph(reversed(h.nodes), edges, h.ext)
    assert (h, hash(h), repr(h)) == (g, hash(g), repr(g))
    for e, f in zip(h.edges, g.edges):
        assert (e, hash(e), repr(e)) == (f, hash(f), repr(f))


class TestBuildersSkippingInit:
    """The builders that fill slots without ``Hypergraph.__init__`` return
    exactly what ``__init__`` builds from the same fields."""

    def test_edge_and_graph(self):
        rng = random.Random(1)
        for _ in range(50):
            h = big_graph(rng)
            edges = tuple(_edge(e.id, e.label, e.att) for e in h.edges)
            assert edges == h.edges
            assert_rebuilt(_graph(h.nodes, edges, h.ext))

    def test_numbered(self):
        rng = random.Random(2)
        for n in [0, 1, 2, 9, 10, 11, 12, 25, *(rng.randint(0, 30) for _ in range(40))]:
            m = rng.randint(0, 25) if n else rng.choice([0, 3])
            arity = (lambda: rng.randint(0, 3)) if n else (lambda: 0)
            edges = [
                (rng.choice("ab"), [rng.randrange(n) for _ in range(arity())]) for _ in range(m)
            ]
            ext = [rng.randrange(n) for _ in range(arity())]
            h = _numbered(n, edges, ext)
            assert_rebuilt(h)
            assert h == hypergraph(
                [f"n{i}" for i in range(n)],
                [(f"e{i}", l, [f"n{p}" for p in att]) for i, (l, att) in enumerate(edges)],
                [f"n{p}" for p in ext],
            )

    def test_replace_and_canonical_graph(self):
        rng = random.Random(3)
        cases = [replace_case(rng) for _ in range(100)]
        host = string_graph("abcdefghijkl")
        cases.append((host, {"e3": string_graph("xy"), "e11": string_graph("")}))
        for _ in range(30):
            host = big_graph(rng)
            targets = rng.sample(host.edges, 3)
            cases.append((host, {e.id: handle("Z", len(e.att)) for e in targets}))
        for host, images in cases:
            h = replace(host, images)
            assert_rebuilt(h)
            assert_rebuilt(canonical_graph(h))
            assert_rebuilt(canonical_graph(host))

    @pytest.mark.parametrize(
        "form", [((), ()), (("a",), ("f",)), (tuple("ab" * 6), tuple("fghijklmnopq"))]
    )
    def test_word_form_graph(self, form):
        assert_rebuilt(WordForm(*form).graph())


class TestDisjointUnion:
    def test_two_boxes(self):
        box = handle("box", 0)
        both = disjoint_union(box, box)
        assert len(both.nodes) == 0
        assert len(both.edges) == 2

    def test_unit(self):
        g = string_graph("ab")
        empty = hypergraph(nodes=[], edges=[], ext=[])
        got = disjoint_union(g, empty)
        assert canonical_key(got) == canonical_key(g)

    def test_node_counts_add(self):
        g, h = string_graph("ab"), fig_h()
        u = disjoint_union(g, h)
        assert len(u.nodes) == len(g.nodes) + len(h.nodes)
        assert len(u.edges) == len(g.edges) + len(h.edges)
        assert len(u.ext) == len(g.ext) + len(h.ext)


class TestExtractString:
    def test_plain_path(self):
        assert extract_string(string_graph(("a", "b"))) == ("a", "b")

    def test_non_path(self):
        assert extract_string(fig_h()) is None
        assert extract_string(handle("box", 0)) is None

    def test_empty_labels_skipped(self):
        g = string_graph(("a", "pad", "b"))
        assert extract_string(g, {"pad"}) == ("a", "b")
        assert extract_string(g) == ("a", "pad", "b")

    def test_branching_rejected(self):
        g = hypergraph(
            nodes=["u", "v", "w"],
            edges=[("e1", "a", ("u", "v")), ("e2", "a", ("u", "w"))],
            ext=("u", "v"),
        )
        assert extract_string(g) is None

    def test_cycles_rejected(self):
        loop = hypergraph(nodes=["u"], edges=[("e1", "a", ("u", "u"))], ext=("u", "u"))
        assert extract_string(loop) is None
        back = [("e1", "a", ("u", "v")), ("e2", "b", ("v", "u"))]
        assert extract_string(hypergraph(nodes=["u", "v"], edges=back, ext=("u", "v"))) is None

    def test_edgeless_graphs(self):
        assert extract_string(hypergraph(nodes=["v"], edges=[], ext=("v", "v"))) == ()
        assert extract_string(hypergraph(nodes=["u", "v"], edges=[], ext=("u", "v"))) is None
        assert extract_string(hypergraph(nodes=["u", "v"], edges=[], ext=("u", "u"))) is None

    def test_dangling_references_rejected(self):
        ab = [("e1", "a", ("u", "v"))]
        for nodes, edges, ext in (
            (["u", "v"], [("e1", "a", ("u", "w"))], ("u", "w")),
            (["u", "v"], ab + [("e2", "a", ("w", "u"))], ("u", "v")),
            (["u", "v"], ab + [("e2", "a", ("w", "x"))], ("u", "v")),
            (["u", "v"], ab, ("w", "v")),
            (["u"], [], ("w", "w")),
        ):
            g = hypergraph(nodes=nodes, edges=edges, ext=ext)
            assert extract_string(g) is None


# ------------------------------------------------------ property tests

node_ids = st.integers(min_value=0, max_value=3).map(lambda i: f"n{i}")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        label = draw(st.sampled_from(["Y", "a", "b"]))
        att = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
        edges.append((f"e{i}", label, att))
    ext_len = draw(st.integers(min_value=0, max_value=2))
    ext = tuple(draw(st.sampled_from(nodes)) for _ in range(ext_len))
    return hypergraph(nodes=nodes, edges=edges, ext=ext)


@st.composite
def rf_images(draw, arity):
    extra = draw(st.integers(min_value=0, max_value=2))
    nodes = [f"m{i}" for i in range(arity + extra)]
    edges = []
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        att = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
        edges.append((f"f{i}", draw(st.sampled_from(["a", "b"])), att))
    return hypergraph(nodes=nodes, edges=edges, ext=nodes[:arity])


@given(small_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_replace_node_count_formula(h, data):
    # Repetition-free images never merge nodes, so the size of the
    # result is exactly additive.
    if not h.edges:
        return
    targets = [e for e in h.edges if len(set(e.att)) == len(e.att)]
    if not targets:
        return
    e = data.draw(st.sampled_from(targets))
    image = data.draw(rf_images(len(e.att)))
    got = replace(h, {e.id: image})
    assert len(got.nodes) == len(h.nodes) + len(image.nodes) - len(e.att)
    assert got.ext == h.ext
    assert len(got.edges) == len(h.edges) - 1 + len(image.edges)


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_replace_batched_equals_sequential(h, data):
    proper = [e for e in h.edges if len(set(e.att)) == len(e.att)]
    if len(proper) < 2:
        return
    e1, e2 = proper[0], proper[1]
    img1 = data.draw(rf_images(len(e1.att)))
    img2 = data.draw(rf_images(len(e2.att)))
    combined = replace(h, {e1.id: img1, e2.id: img2})
    # replace renumbers ids, surviving host edges first in host order;
    # locate e2's survivor by that position before the second stage.
    first = replace(h, {e1.id: img1})
    survivors = [e for e in h.edges if e.id != e1.id]
    pos = next(i for i, e in enumerate(survivors) if e.id == e2.id)
    staged = replace(first, {first.edges[pos].id: img2})
    assert canonical_key(combined) == canonical_key(staged)


@given(st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=6))
def test_extract_inverts_string_graph(word):
    assert extract_string(string_graph(tuple(word))) == tuple(word)
