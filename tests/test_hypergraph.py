"""Hypergraph values: construction, replacement, encoding, validation."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrg import (
    Hyperedge,
    Hypergraph,
    HypergraphError,
    Signature,
    canonical_key,
    discrete_graph,
    disjoint_union,
    extract_string,
    handle,
    hypergraph,
    replace,
    string_graph,
    to_json,
    validate,
)
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

    def test_rejects_wrong_arity(self):
        with pytest.raises(HypergraphError):
            string_graph(("X",), SIG)


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
    """Equal, with equal hashes and canonical keys."""
    assert g == h
    assert hash(g) == hash(h)
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
