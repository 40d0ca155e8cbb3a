"""Canonical forms and isomorphism witnesses.

Isomorphism here is label-, tentacle-order- and external-sequence-
preserving: a bijection on nodes and one on edges commuting with
attachment, labelling and the external sequence pointwise.

The canonical key is computed by individualization-refinement.  The root
colors a node 0 if it is not external and 1 + its first position in the
external sequence otherwise.  At most one node that is not external makes
this coloring discrete: it is scored at once, the node that is not
external first, without incidence lists or a search.  Otherwise colors
are refined by the multiset of incident (label, tentacle position,
attached colors) signatures, building each edge's tuple of attached colors
once per round, until a round adds no cell, that is, to an equitable
coloring, and non-discrete colorings branch on every member of the first
non-singleton color class, skipping members in the orbit of an explored
one under the automorphisms met so far that fix the path.  Each discrete
coloring yields a certificate; the minimum certificate over all branches
is canonical, so two graphs get equal keys iff they are isomorphic.  The
last 1,024 graphs keep their certificate, node order and key bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hypergraph import Hypergraph, _numbered, _UnionFind

_Cert = tuple


@dataclass(frozen=True)
class IsoWitness:
    node_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str], ...]

    def node(self, v: str) -> str:
        return dict(self.node_map)[v]

    def edge(self, e: str) -> str:
        return dict(self.edge_map)[e]


def _rank(values: list) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def _refine(cs: list[int], incidence: list[list[tuple]], atts: list[tuple]) -> list[int]:
    """Refine ``cs`` until a round adds no cell; the coloring is then
    equitable, in dense ranks.  A discrete coloring is returned as is.
    ``incidence[v]`` holds (label rank, tentacle position, edge index) per
    tentacle at ``v``, and ``atts[e]`` is the attachment of edge ``e``."""
    cells = len(set(cs))  # a child coloring (2c, 2c - 1) is not dense
    while cells < len(cs):
        attached = [tuple([cs[u] for u in a]) for a in atts]
        cs = _rank([
            (c, tuple(sorted([(r, p, attached[e]) for r, p, e in inc])))
            for c, inc in zip(cs, incidence)
        ])
        if max(cs) + 1 == cells:
            break
        cells = max(cs) + 1
    return cs


def _canonical_data(h: Hypergraph) -> tuple[_Cert, tuple[int, ...]]:
    """Return (certificate, node order realizing it).

    The node order lists node indices (into ``h.nodes``) in certificate
    position order.
    """
    nodes = h.nodes
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    edges = [(e.label, tuple([idx[v] for v in e.att])) for e in h.edges]
    ext = tuple([idx[v] for v in h.ext])
    first: dict[int, int] = {}  # external node -> its first position
    for p, v in enumerate(ext):
        first.setdefault(v, p)

    def score(order: list[int]) -> tuple[_Cert, tuple[int, ...]]:
        """The certificate of a node order, and the order."""
        position = [0] * n
        for p, v in enumerate(order):
            position[v] = p
        cert: _Cert = (
            n,
            tuple([position[v] for v in ext]),
            tuple(sorted([(lab, tuple([position[u] for u in att])) for lab, att in edges])),
        )
        return cert, tuple(order)

    if len(first) >= n - 1:  # a discrete root: the node not external comes first
        return score([v for v in range(n) if v not in first] + list(first))

    # (label rank, tentacle position, edge index) per incidence of a node
    incidence: list[list[tuple]] = [[] for _ in range(n)]
    for e, (r, (_, att)) in enumerate(zip(_rank([lab for lab, _ in edges]), edges)):
        for pos, v in enumerate(att):
            incidence[v].append((r, pos, e))
    atts = [att for _, att in edges]
    colors = _refine([first.get(v, -1) + 1 for v in range(n)], incidence, atts)

    # best leaf so far: (certificate, node order, individualized path)
    best: list[tuple[_Cert, tuple[int, ...], tuple[int, ...]] | None] = [None]
    # automorphisms met so far, each as a list mapping node index to image
    gens: list[list[int]] = []

    def leaf(cs: list[int], path: tuple[int, ...]) -> int | None:
        """Score a discrete coloring; on an automorphism, return the depth
        of the common ancestor with the best leaf."""
        cert, order = score(sorted(range(n), key=cs.__getitem__))
        if best[0] is None or cert < best[0][0]:
            best[0] = (cert, order, path)
            return None
        if cert != best[0][0]:
            return None
        _, best_order, best_path = best[0]
        gamma = [0] * n
        for a, b in zip(order, best_order):
            gamma[a] = b
        gens.append(gamma)
        common = 0
        while path[common] == best_path[common]:
            common += 1
        return common

    def search(cs: list[int], path: tuple[int, ...]) -> int | None:
        """Search below the node reached by individualizing ``path``, with
        refined coloring ``cs``; return a depth above it to jump to, or None."""
        counts: dict[int, int] = {}
        for c in cs:
            counts[c] = counts.get(c, 0) + 1
        target = next((c for c in sorted(counts) if counts[c] > 1), None)
        if target is None:
            return leaf(cs, path)
        depth = len(path)
        orbits = _UnionFind(n)
        merged = 0
        explored: list[int] = []
        for v in range(n):
            if cs[v] != target:
                continue
            # orbits under the automorphisms met so far that fix the path
            for gamma in gens[merged:]:
                if all(gamma[u] == u for u in path):
                    for u in range(n):
                        orbits.union(u, gamma[u])
            merged = len(gens)
            if any(orbits.find(u) == orbits.find(v) for u in explored):
                continue
            explored.append(v)
            child = [c * 2 for c in cs]
            child[v] -= 1
            jump = search(_refine(child, incidence, atts), path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    search(colors, ())
    del search  # it refers to itself: free it now, not in a collection
    assert best[0] is not None
    return best[0][:2]


@lru_cache(maxsize=1024)
def _memo(h: Hypergraph) -> tuple[_Cert, tuple[int, ...], bytes]:
    """``_canonical_data(h)`` and the key bytes of its certificate."""
    cert, order = _canonical_data(h)
    return cert, order, ascii(cert).encode("ascii")  # repr, non-ASCII labels escaped


def canonical_key(h: Hypergraph) -> bytes:
    """A byte string equal for two graphs iff they are isomorphic."""
    return _memo(h)[2]


def canonical_graph(h: Hypergraph) -> Hypergraph:
    """A canonical representative, isomorphic to ``h``.

    Nodes are named ``n0..``, edges ``e0..``; structurally equal for
    isomorphic inputs.
    """
    n, ext, edge_cert = _memo(h)[0]
    return _numbered(n, edge_cert, ext)


def isomorphism(g: Hypergraph, h: Hypergraph) -> IsoWitness | None:
    """An explicit isomorphism g -> h, or None."""
    cg, og, _ = _memo(g)
    ch, oh, _ = _memo(h)
    if cg != ch:
        return None
    node_map = {g.nodes[a]: h.nodes[b] for a, b in zip(og, oh)}

    def edge_entries(graph: Hypergraph, order: tuple[int, ...]):
        pos = {graph.nodes[v]: p for p, v in enumerate(order)}
        entries = [
            ((e.label, tuple(pos[v] for v in e.att)), e.id) for e in graph.edges
        ]
        entries.sort()
        return entries

    ge = edge_entries(g, og)
    he = edge_entries(h, oh)
    edge_map = {}
    for (gk, gid), (hk, hid) in zip(ge, he):
        assert gk == hk
        edge_map[gid] = hid
    hg_edges = {e.id: e for e in h.edges}
    for e in g.edges:
        mate = hg_edges[edge_map[e.id]]
        assert mate.label == e.label
        assert mate.att == tuple(node_map[v] for v in e.att)
    assert tuple(node_map[v] for v in g.ext) == h.ext
    return IsoWitness(
        node_map=tuple(sorted(node_map.items())),
        edge_map=tuple(sorted(edge_map.items())),
    )


def is_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    return canonical_key(g) == canonical_key(h)
