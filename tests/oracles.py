"""Independent reference implementations used to check derived values.

Everything here is deliberately naive: direct definitions, exhaustive
search, no sharing of code with the package under test beyond reading
the plain data fields of Hypergraph values.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Word = tuple[str, ...]


def all_words(alphabet: Sequence[str], max_len: int, min_len: int = 1) -> Iterator[Word]:
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


# --------------------------------------------------------- isomorphism

def brute_force_isomorphic(g, h) -> bool:
    """Try every node bijection; edges compared as multisets."""
    gn, hn = list(g.nodes), list(h.nodes)
    if len(gn) != len(hn) or len(g.edges) != len(h.edges):
        return False
    if len(g.ext) != len(h.ext):
        return False
    h_edge_multiset = sorted((e.label, e.att) for e in h.edges)
    for perm in itertools.permutations(hn):
        m = dict(zip(gn, perm))
        if tuple(m[v] for v in g.ext) != tuple(h.ext):
            continue
        mapped = sorted((e.label, tuple(m[v] for v in e.att)) for e in g.edges)
        if mapped == h_edge_multiset:
            return True
    return False


def canonical_reference(h) -> tuple[tuple, tuple[int, ...]]:
    """(certificate, node order) of ``h`` by plain individualization-
    refinement that follows every branch of the search tree.

    Nodes are numbered by their place in ``h.nodes``.  The root colors a
    node by the tuple of its positions in ``h.ext``.  A refinement round
    recolors every node by its color and the sorted (label, tentacle
    position, colors of the attachment) of its tentacles, ranked; rounds
    repeat until the number of colors stops growing.  The search
    individualizes, in turn, each node of the smallest color held by more
    than one node, giving it a color just below the rest of its cell, and
    refines.  A coloring with one node per color orders the nodes by color;
    its certificate is (node count, positions of the external sequence,
    sorted (label, positions of the attachment) of the edges).  The result
    is the least certificate, with the order of the first leaf reaching it.
    """
    n = len(h.nodes)
    index = {v: i for i, v in enumerate(h.nodes)}
    edges = [(e.label, tuple(index[v] for v in e.att)) for e in h.edges]
    ext = tuple(index[v] for v in h.ext)

    def ranked(values: list) -> list[int]:
        distinct = sorted(set(values))
        return [distinct.index(x) for x in values]

    def refine(colors: list[int]) -> list[int]:
        while True:
            finer = ranked([
                (colors[v], tuple(sorted(
                    (label, p, tuple(colors[u] for u in att))
                    for label, att in edges
                    for p, w in enumerate(att)
                    if w == v
                )))
                for v in range(n)
            ])
            if len(set(finer)) == len(set(colors)):
                return finer
            colors = finer

    leaves: list[tuple[tuple, tuple[int, ...]]] = []

    def search(colors: list[int]) -> None:
        shared = sorted(c for c in set(colors) if colors.count(c) > 1)
        if not shared:
            order = tuple(sorted(range(n), key=lambda v: colors[v]))
            position = {v: p for p, v in enumerate(order)}
            cert = (
                n,
                tuple(position[v] for v in ext),
                tuple(sorted((lab, tuple(position[u] for u in att)) for lab, att in edges)),
            )
            leaves.append((cert, order))
            return
        for v in range(n):
            if colors[v] == shared[0]:
                search(refine(ranked([(c, u != v) for u, c in enumerate(colors)])))

    search(refine(ranked([tuple(p for p, u in enumerate(ext) if u == v) for v in range(n)])))
    least = min(cert for cert, _ in leaves)
    return next(leaf for leaf in leaves if leaf[0] == least)


def union_find_classes(items: Sequence, pairs: Iterable[tuple]) -> int:
    """Number of equivalence classes after merging the given pairs."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in items})


# --------------------------------------------------- word language oracles

def cfg_words(
    rules: Mapping[str, Sequence[Word]],
    start: str,
    terminals: Sequence[str],
    max_len: int,
) -> set[Word]:
    """Bounded context-free enumeration by leftmost expansion.

    Only valid for rule sets whose right-hand sides are never shorter
    than one symbol (no erasing), so sentential forms longer than the
    length bound can be pruned.
    """
    term = set(terminals)
    for rhss in rules.values():
        for rhs in rhss:
            if len(rhs) == 0:
                raise ValueError("cfg_words cannot handle erasing rules")
    out: set[Word] = set()
    seen: set[Word] = set()
    stack: list[Word] = [(start,)]
    while stack:
        form = stack.pop()
        if form in seen or len(form) > max_len:
            continue
        seen.add(form)
        i = next((j for j, s in enumerate(form) if s not in term), None)
        if i is None:
            out.add(form)
            continue
        for rhs in rules[form[i]]:
            stack.append(form[:i] + tuple(rhs) + form[i + 1 :])
    return out


def is_dyck(word: Sequence[str], open_sym: str = "a", close_sym: str = "b") -> bool:
    depth = 0
    for s in word:
        if s == open_sym:
            depth += 1
        elif s == close_sym:
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def et0l_words(
    tables: Sequence[Mapping[str, Sequence[Word]]],
    axiom: str,
    terminals: Sequence[str],
    max_len: int,
    max_steps: int,
    work_len: int | None = None,
) -> set[Word]:
    """Bounded ET0L rewriting directly on words.

    Each step substitutes every letter simultaneously using one table.
    ``work_len`` bounds the intermediate forms kept on the frontier;
    erasing tables need slack above ``max_len`` to be exhaustive, so
    callers with erasing rules must pass it explicitly.
    """
    if work_len is None:
        work_len = max_len
    term = set(terminals)
    frontier: set[Word] = {(axiom,)}
    seen: set[Word] = set(frontier)
    out: set[Word] = set()

    def harvest(w: Word) -> None:
        if 0 < len(w) <= max_len and all(s in term for s in w):
            out.add(w)

    for w in frontier:
        harvest(w)
    for _ in range(max_steps):
        nxt: set[Word] = set()
        for w in frontier:
            for table in tables:
                options = [table[s] for s in w]
                if any(len(o) == 0 for o in options):
                    continue
                for pick in itertools.product(*options):
                    image = tuple(itertools.chain.from_iterable(pick))
                    if len(image) > work_len or image in seen:
                        continue
                    seen.add(image)
                    nxt.add(image)
                    harvest(image)
        if not nxt:
            break
        frontier = nxt
    return out


def nfa_accepts(
    transitions: Iterable[tuple[str, str, str]],
    initial: str,
    finals: Sequence[str],
    word: Sequence[str],
) -> bool:
    delta: dict[tuple[str, str], set[str]] = {}
    for q, a, r in transitions:
        delta.setdefault((q, a), set()).add(r)
    current = {initial}
    for a in word:
        current = set().union(*(delta.get((q, a), set()) for q in current))
        if not current:
            return False
    return bool(current & set(finals))


# ---------------------------------------------------- least sizes

def least_terminal_sizes(
    rules: Iterable[tuple[str, Sequence[str]]],
    terminals: Iterable[str],
    labels: Iterable[str],
) -> dict[str, float]:
    """Per label, the least number of edges of a terminal graph derived
    from its handle in the relaxed grammar: every rule ``(lhs, labels of
    its right-hand side)`` of every table applies to any edge at any
    time, and a terminal edge may also stay.  So it is the least size of
    a derivation tree, whose leaves are terminal edges (1 each) and whose
    inner nodes are rules; ``inf`` when there is no tree.

    Trees are taken by height, one level per round.  A least tree never
    needs a label twice on one path (the lower subtree may replace the
    upper one, which is no smaller), so after one round per label no tree
    is missing.
    """
    rules = [(lhs, list(rhs)) for lhs, rhs in rules]
    terminals = set(terminals)
    best = {l: float("inf") for l in labels}
    for _ in range(len(best) + 1):
        best = {
            l: min(
                [1 if l in terminals else float("inf")]
                + [sum(best[x] for x in rhs) for lhs, rhs in rules if lhs == l]
            )
            for l in best
        }
    return best


# ---------------------------------------------------- parallel product

def budgeted_product(
    rows: Sequence[Sequence[tuple]],
    start_nodes: int,
    leaf: Callable[[list], tuple],
    max_nodes: float = inf,
    max_edges: float = inf,
    size: Callable[[object], int] = lambda piece: 0,
    max_size: float = inf,
) -> tuple[dict, bool, bool]:
    """Every choice of one option per position, pruned by the budgets;
    ``inf`` is no budget.

    ``rows`` holds, per position, its options (edges added, nodes added,
    piece) in the order they are tried, sorted by edge increment.  Each
    option is checked against the increments chosen before it plus the
    least increments of the positions after it: edges first (past the
    budget, no later option of the position is tried), then the pieces'
    ``size`` against ``max_size`` (past it, the next option is tried and
    no flag is set), then nodes (past the budget, the next option
    is).  ``leaf(pieces)`` gives a full choice's (key, value, node
    count); the count is checked once more, and the first value per key
    is kept.  Returns (values by key, node budget hit, edge budget hit).
    """
    least_edges = [min(o[0] for o in opts) for opts in rows]
    least_nodes = [min(o[1] for o in opts) for opts in rows]
    least_sizes = [min(size(o[2]) for o in opts) for opts in rows]
    found: dict = {}
    hit = {"nodes": False, "edges": False}

    def choose(i: int, edges: int, nodes: int, pieces: list) -> None:
        if i == len(rows):
            key, value, count = leaf(pieces)
            if count > max_nodes:
                hit["nodes"] = True
            else:
                found.setdefault(key, value)
            return
        for de, dn, piece in rows[i]:
            if edges + de + sum(least_edges[i + 1 :]) > max_edges:
                hit["edges"] = True
                break
            chosen_size = sum(map(size, pieces + [piece])) + sum(least_sizes[i + 1 :])
            if chosen_size > max_size:
                continue
            if nodes + dn + sum(least_nodes[i + 1 :]) > max_nodes:
                hit["nodes"] = True
                continue
            choose(i + 1, edges + de, nodes + dn, pieces + [piece])

    choose(0, 0, start_nodes, [])
    return found, hit["nodes"], hit["edges"]


# ------------------------------------------------------- group oracles

def free_trivial(word: Sequence[str], inverse: Mapping[str, str]) -> bool:
    """Stack cancellation; handles self-inverse letters as well."""
    stack: list[str] = []
    for s in word:
        if stack and inverse[stack[-1]] == s:
            stack.pop()
        else:
            stack.append(s)
    return not stack


F2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
DIHEDRAL_INVERSE = {"a": "a", "b": "b"}


# ---------------------------------------------------- set-level oracles

def subst_set(words: Iterable[Word], images: Mapping[str, Iterable[Word]]) -> set[Word]:
    image_sets = {a: {tuple(w) for w in ws} for a, ws in images.items()}
    out: set[Word] = set()
    for w in words:
        parts = [image_sets[s] for s in w]
        for pick in itertools.product(*parts):
            out.add(tuple(itertools.chain.from_iterable(pick)))
    return out


def iterate_subst_set(
    words: Iterable[Word], images: Mapping[str, Iterable[Word]], max_len: int
) -> set[Word]:
    """Union of all substitution iterates, truncated to the length bound.

    Sound only for non-erasing images: then any word of length within
    the bound has all its ancestors within the bound too.
    """
    for a, ws in images.items():
        for w in ws:
            if len(w) == 0:
                raise ValueError(f"erasing image for {a!r}")
    current = {w for w in (tuple(x) for x in words) if len(w) <= max_len}
    while True:
        grown = {w for w in subst_set(current, images) if len(w) <= max_len}
        merged = current | grown
        if merged == current:
            return {w for w in current if w}
        current = merged


def concat_sets(a: Iterable[Word], b: Iterable[Word]) -> set[Word]:
    return {tuple(x) + tuple(y) for x in a for y in b}


def plus_set(a: Iterable[Word], max_len: int) -> set[Word]:
    base = {tuple(w) for w in a if 0 < len(w) <= max_len}
    out = set(base)
    while True:
        grown = {w for w in concat_sets(out, base) if len(w) <= max_len}
        merged = out | grown
        if merged == out:
            return out
        out = merged


def hom_image(words: Iterable[Word], mapping: Mapping[str, Word]) -> set[Word]:
    out = set()
    for w in words:
        image = tuple(itertools.chain.from_iterable(mapping[s] for s in w))
        if image:
            out.add(image)
    return out


def preimage_words(
    alphabet: Sequence[str],
    mapping: Mapping[str, Word],
    max_len: int,
    in_target: Callable[[Word], bool],
) -> set[Word]:
    out = set()
    for w in all_words(alphabet, max_len):
        image = tuple(itertools.chain.from_iterable(mapping[s] for s in w))
        if image and in_target(image):
            out.add(w)
    return out
