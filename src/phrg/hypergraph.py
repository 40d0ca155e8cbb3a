"""Hypergraphs with ordered tentacles and a sequence of external nodes.

A hypergraph is a finite set of nodes plus a finite set of labelled
hyperedges; each hyperedge is attached to a sequence of nodes (its
tentacles, ordered), and the graph itself carries a sequence of external
nodes used as the interface when the graph is substituted for an edge.
The length of the external sequence is the graph's type.

Everything here is immutable; operations return new graphs.  Node and
edge identities are plain strings.  ``Hyperedge`` and ``Hypergraph`` are
slotted frozen dataclasses: each field is stored once, already in normal
form, and an instance has no ``__dict__`` and takes no weak reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

_GRAPH_CACHE = 1024  # string graphs, handles and discrete graphs kept, each
_set = object.__setattr__


class _cached:
    """A property computed on its first read and stored in the instance's
    ``__dict__``, where later reads find it before this descriptor:
    ``functools.cached_property`` without the lock that Python 3.11 takes
    on each first read.  A value stored beforehand, as by
    ``object.__setattr__`` on a frozen dataclass, is read as if computed."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj: object, owner: Optional[type] = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class HypergraphError(ValueError):
    """Raised when an operation receives structurally unusable input."""


@dataclass(frozen=True)
class Signature:
    """A finite ranked alphabet: labels with fixed arities."""

    arities: tuple[tuple[str, int], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        pairs = tuple(sorted((str(l), int(a)) for l, a in self.arities))
        index: dict[str, int] = {}
        for label, arity in pairs:
            if arity < 0:
                raise HypergraphError(f"negative arity for label {label!r}")
            if label in index and index[label] != arity:
                raise HypergraphError(
                    f"label {label!r} declared with arities {index[label]} and {arity}"
                )
            index[label] = arity
        object.__setattr__(self, "arities", tuple(sorted(index.items())))
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "Signature":
        return cls(tuple(mapping.items()))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.arities)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    @_cached
    def pairs(self) -> frozenset[tuple[str, int]]:
        """The ``(label, arity)`` pairs, as a set."""
        return frozenset(self.arities)

    def arity(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise HypergraphError(f"label {label!r} not in signature") from None

    def merged(self, other: "Signature") -> "Signature":
        return Signature(self.arities + other.arities)


@dataclass(frozen=True, slots=True, init=False)
class Hyperedge:
    id: str
    label: str
    att: tuple[str, ...]

    def __init__(self, id: str, label: str, att: Iterable[str]) -> None:
        _set(self, "id", str(id))
        _set(self, "label", str(label))
        _set(self, "att", tuple(map(str, att)))


@dataclass(frozen=True, slots=True, init=False)
class Hypergraph:
    """An immutable hypergraph.  ``ext`` is the external node sequence.

    Construction normalizes in one pass (nodes sorted, edges sorted by
    id) but does not reject malformed references; ``validate`` reports
    those as data so that broken inputs can be inspected rather than trapped.
    """

    nodes: tuple[str, ...]
    edges: tuple[Hyperedge, ...]
    ext: tuple[str, ...]

    def __init__(
        self, nodes: Iterable[str], edges: Iterable[Hyperedge], ext: Iterable[str]
    ) -> None:
        _set(self, "nodes", tuple(sorted(map(str, nodes))))
        _set(self, "edges", tuple(sorted(edges, key=attrgetter("id"))))
        _set(self, "ext", tuple(map(str, ext)))

    @property
    def type(self) -> int:
        return len(self.ext)

    @property
    def repetition_free(self) -> bool:
        return len(set(self.ext)) == len(self.ext)

    def labels(self) -> frozenset[str]:
        return frozenset(e.label for e in self.edges)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str


def hypergraph(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str, Sequence[str]]],
    ext: Sequence[str],
) -> Hypergraph:
    """Convenience constructor from (id, label, attachment) triples."""
    return Hypergraph(
        nodes=tuple(nodes),
        edges=tuple(Hyperedge(i, l, tuple(a)) for i, l, a in edges),
        ext=tuple(ext),
    )


def validate(h: Hypergraph, sig: Optional[Signature] = None) -> list[Violation]:
    """Check structural integrity and, if given, conformance to ``sig``.

    Returns a list of violations; an empty list means valid.
    """
    out: list[Violation] = []
    seen_nodes: set[str] = set()
    for v in h.nodes:
        if v in seen_nodes:
            out.append(Violation("duplicate-node", v, "node id occurs twice"))
        seen_nodes.add(v)
    node_set = set(h.nodes)
    seen_edges: set[str] = set()
    for e in h.edges:
        if e.id in seen_edges:
            out.append(Violation("duplicate-edge", e.id, "edge id occurs twice"))
        seen_edges.add(e.id)
        for v in e.att:
            if v not in node_set:
                out.append(
                    Violation("dangling-ref", e.id, f"attachment node {v!r} missing")
                )
        if sig is not None:
            if e.label not in sig:
                out.append(
                    Violation("unknown-label", e.id, f"label {e.label!r} not in signature")
                )
            elif sig.arity(e.label) != len(e.att):
                out.append(
                    Violation(
                        "arity-mismatch",
                        e.id,
                        f"label {e.label!r} has arity {sig.arity(e.label)}, "
                        f"attachment has length {len(e.att)}",
                    )
                )
    for i, v in enumerate(h.ext):
        if v not in node_set:
            out.append(Violation("dangling-ref", f"ext[{i}]", f"external node {v!r} missing"))
    return out


def _edge(id: str, label: str, att: tuple[str, ...]) -> Hyperedge:
    """A Hyperedge from a tuple of string nodes, without ``__init__``."""
    e = object.__new__(Hyperedge)
    _set(e, "id", id)
    _set(e, "label", label)
    _set(e, "att", att)
    return e


def _graph(
    nodes: tuple[str, ...], edges: tuple[Hyperedge, ...], ext: tuple[str, ...]
) -> Hypergraph:
    """A Hypergraph from parts already in its normal form (string nodes
    sorted, edges sorted by id, string ext), without ``__init__``."""
    h = object.__new__(Hypergraph)
    _set(h, "nodes", nodes)
    _set(h, "edges", edges)
    _set(h, "ext", ext)
    return h


def string_graph(word: Sequence[str] | str) -> Hypergraph:
    """The path graph spelling ``word``: n+1 nodes, one arity-2 edge per letter.

    The empty word gives the one-node graph whose two external nodes
    coincide; note that graph is not repetition-free.  Equal words may
    return one shared graph, immutable like every other.
    """
    return _string_graph(tuple(word))


@lru_cache(maxsize=_GRAPH_CACHE)
def _string_graph(letters: tuple[str, ...]) -> Hypergraph:
    n = len(letters)
    names = [f"v{i}" for i in range(n + 1)]
    edges = [_edge(f"e{i + 1}", a, (names[i], names[i + 1])) for i, a in enumerate(letters)]
    # sorted as __init__ sorts: "v10" before "v2", "e10" before "e2"
    edges.sort(key=attrgetter("id"))
    return _graph(tuple(sorted(names)), tuple(edges), (names[0], names[n]))


def handle(label: str, arity_or_sig: int | Signature) -> Hypergraph:
    """The graph with one ``label`` edge attached to fresh external nodes.

    Equal arguments may return one shared immutable graph.
    """
    arity = (
        arity_or_sig.arity(label)
        if isinstance(arity_or_sig, Signature)
        else int(arity_or_sig)
    )
    if arity < 0:
        raise HypergraphError(f"negative arity for label {label!r}")
    return _handle(label, arity)


@lru_cache(maxsize=_GRAPH_CACHE)
def _handle(label: str, arity: int) -> Hypergraph:
    nodes = tuple(f"v{i + 1}" for i in range(arity))
    return _graph(tuple(sorted(nodes)), (_edge("e", label, nodes),), nodes)


@lru_cache(maxsize=_GRAPH_CACHE)
def discrete_graph(n: int) -> Hypergraph:
    """n isolated nodes, all external.  Equal ``n`` may return one shared
    immutable graph."""
    if n < 0:
        raise HypergraphError(f"negative node count {n}")
    nodes = tuple(f"v{i + 1}" for i in range(n))
    return _graph(tuple(sorted(nodes)), (), nodes)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # ordinal order decides the representative
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def replace(host: Hypergraph, images: Mapping[str, Hypergraph]) -> Hypergraph:
    """Substitute a hypergraph for each selected edge simultaneously.

    For each edge id in ``images`` the edge is removed and its image is
    glued in, identifying the image's k-th external node with the edge's
    k-th attached node; the image's type must equal the edge's arity.
    ``_numbered`` names the result as it names ``canonical_graph``'s: node
    classes ``n0, ...`` by least ordinal (host nodes, then image nodes by
    replaced edge id), and edges ``e0, ...`` (surviving host edges, then
    image edges in that order).  Raises ``HypergraphError`` on an unknown
    edge id, an image of the wrong type, a node id repeated in the host or
    an image, an edge id repeated in the host, or a missing attachment or
    external node.
    """
    att = {e.id: e.att for e in host.edges}
    if len(att) < len(host.edges):
        raise HypergraphError("an edge id is repeated in the host")
    replaced = sorted(images)
    for eid in replaced:
        if eid not in att:
            raise HypergraphError(f"no edge with id {eid!r} in host")
        if images[eid].type != len(att[eid]):
            raise HypergraphError(
                f"edge {eid!r} has arity {len(att[eid])}, image has type {images[eid].type}"
            )
    parts = [(None, host)] + [(eid, images[eid]) for eid in replaced]  # None: the host
    scoped = [(scope, v) for scope, g in parts for v in g.nodes]
    ordinal = {sv: i for i, sv in enumerate(scoped)}
    if len(ordinal) < len(scoped):
        raise HypergraphError("a node id is repeated in the host or an image")

    def ordinal_of(scope: Optional[str], v: str) -> int:
        try:
            return ordinal[(scope, v)]
        except KeyError:
            where = "the host" if scope is None else f"the image of edge {scope!r}"
            raise HypergraphError(f"node {v!r} is missing from {where}") from None

    uf = _UnionFind(len(scoped))
    for eid in replaced:
        for x, v in zip(images[eid].ext, att[eid]):
            uf.union(ordinal_of(None, v), ordinal_of(eid, x))
    cls: dict[int, int] = {}  # class root -> its number, by least ordinal
    number = [cls.setdefault(uf.find(i), len(cls)) for i in range(len(scoped))]
    edges = [
        (e.label, [number[ordinal_of(scope, v)] for v in e.att])
        for scope, g in parts for e in g.edges if scope is not None or e.id not in images
    ]
    return _numbered(len(cls), edges, [number[ordinal_of(None, v)] for v in host.ext])


def _numbered(n: int, edges: Sequence[tuple[str, Sequence[int]]], ext: Sequence[int]) -> Hypergraph:
    """The graph on nodes ``n0 .. n{n-1}`` whose edge ``e{i}`` is the i-th
    ``(label, node indices)`` of ``edges``; ``ext`` holds node indices.
    ``replace`` and ``canonical_graph`` both name their result here."""
    names = [f"n{i}" for i in range(n)]
    es = [
        _edge(f"e{i}", label, tuple([names[p] for p in att]))
        for i, (label, att) in enumerate(edges)
    ]
    es.sort(key=attrgetter("id"))  # as __init__ sorts: "e10" before "e2"
    return _graph(tuple(sorted(names)), tuple(es), tuple([names[p] for p in ext]))


def disjoint_union(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Disjoint union; the external sequence is g's followed by h's."""
    return Hypergraph(
        nodes=tuple(f"l.{v}" for v in g.nodes) + tuple(f"r.{v}" for v in h.nodes),
        edges=tuple(
            Hyperedge(f"l.{e.id}", e.label, tuple(f"l.{v}" for v in e.att))
            for e in g.edges
        )
        + tuple(
            Hyperedge(f"r.{e.id}", e.label, tuple(f"r.{v}" for v in e.att))
            for e in h.edges
        ),
        ext=tuple(f"l.{v}" for v in g.ext) + tuple(f"r.{v}" for v in h.ext),
    )


def extract_string(
    h: Hypergraph, empty_labels: frozenset[str] | set[str] = frozenset()
) -> Optional[tuple[str, ...]]:
    """Read a word off a string graph; None when ``h`` is not one.

    ``h`` must be a simple path of arity-2 edges from the first external
    node to the second (the one-node graph with both external nodes equal
    yields the empty word).  Labels in ``empty_labels`` are read as no
    letter at all, so a path interleaved with such edges still extracts.
    """
    if h.type != 2:
        return None
    succ: dict[str, tuple[str, str]] = {}
    for e in h.edges:
        if len(e.att) != 2 or e.att[0] in succ:
            return None  # not binary, or out-degree above one
        succ[e.att[0]] = (e.label, e.att[1])
    start, end = h.ext
    word: list[str] = []
    seen = {start}
    cur = start
    while cur in succ:
        label, cur = succ[cur]
        if cur in seen:
            return None
        seen.add(cur)
        if label not in empty_labels:
            word.append(label)
    # the walk took len(seen) - 1 edges: any other edge or node is off the path
    if cur != end or not len(seen) == len(h.nodes) == len(h.edges) + 1:
        return None
    return tuple(word) if seen.issubset(h.nodes) else None


def to_json_obj(h: Hypergraph, include_version: bool = False) -> dict:
    obj: dict = {}
    if include_version:
        obj["format_version"] = 1
    obj["nodes"] = list(h.nodes)
    obj["edges"] = [
        {"id": e.id, "label": e.label, "att": list(e.att)} for e in h.edges
    ]
    obj["ext"] = list(h.ext)
    return obj


def from_json_obj(obj: object) -> Hypergraph:
    if not isinstance(obj, dict):
        raise HypergraphError("hypergraph JSON must be an object")
    allowed = {"format_version", "nodes", "edges", "ext"}
    unknown = set(obj) - allowed
    if unknown:
        raise HypergraphError(f"unknown keys in hypergraph JSON: {sorted(unknown)}")
    version = obj.get("format_version", 1)
    if version != 1:
        raise HypergraphError(f"unsupported format_version {version!r}")
    for key in ("nodes", "edges", "ext"):
        if key not in obj:
            raise HypergraphError(f"hypergraph JSON missing key {key!r}")
        if not isinstance(obj[key], list):
            raise HypergraphError(f"hypergraph JSON key {key!r} must be a list")
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, dict) or set(item) != {"id", "label", "att"}:
            raise HypergraphError(
                "each edge must be an object with exactly id, label, att"
            )
        if not isinstance(item["att"], list):
            raise HypergraphError("edge att must be a list")
        edges.append((str(item["id"]), str(item["label"]), [str(v) for v in item["att"]]))
    return hypergraph(
        [str(v) for v in obj["nodes"]], edges, [str(v) for v in obj["ext"]]
    )


def to_json(h: Hypergraph) -> str:
    return json.dumps(to_json_obj(h, include_version=True), indent=2) + "\n"


def from_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HypergraphError(f"invalid JSON: {exc}") from None
    return from_json_obj(obj)
