"""Member queries on one grammar object share their search's answers.

``member_string`` keeps, per grammar object and bounded budgets, the
trace of each key its search accepted and, once the search ended by
itself, the verdict of every other key; a table also answers a query
whose budgets it covers, such as a shorter word's.  An enumeration
leaves such a table at its limits too.  The reference is a copy of the
grammar (``fresh``) whose answers are cleared before each query, so
that each of its queries runs the whole search: verdicts and traces
must be equal.
"""

import dataclasses
import gc
import random
import types
from functools import lru_cache

import pytest

import phrg.engine
from phrg import (
    Limits,
    MemberVerdict,
    enumerate_language,
    enumerate_strings,
    extract_string,
    fixture,
    fixture_names,
    member_string,
)
from phrg.grammar import CodedForm, WordForm, split_control
from phrg.hypergraph import Hypergraph
from phrg.textfmt import parse_document
from oracles import DIHEDRAL_INVERSE, F2_INVERSE, all_words, free_trivial, is_dyck, nfa_accepts
from test_golden_constructions import _CLOSURE_AUTOMATA, AUTOMATA, CASES
from test_word_path import fresh, witnesses

LIMIT_SETS = (
    Limits(max_steps=5, max_nodes=10, max_edges=5, max_results=20_000),
    # a result budget that cuts many of these searches, so some words are unknown
    Limits(max_steps=8, max_nodes=40, max_edges=40, max_results=50),
)

FIXTURE_ORACLES = {
    "dyck_hr": is_dyck,
    "dyck_phr": is_dyck,
    "z_wp": lambda w: free_trivial(w, {"a": "A", "A": "a"}),
    "f2_wp": lambda w: free_trivial(w, F2_INVERSE),
    "z2_wp": lambda w: free_trivial(w, {"a": "a"}),
    "dihedral_wp": lambda w: free_trivial(w, DIHEDRAL_INVERSE),
}


def _accepts(m):
    return lambda w: nfa_accepts(m.transitions, m.initial, m.finals, w)


def _oracles() -> dict:
    """The membership oracle of each grammar that has one, by name."""
    oracles = dict(FIXTURE_ORACLES)
    for name, inside in FIXTURE_ORACLES.items():
        oracles[f"hom {name} identity"] = oracles[f"inverse {name} identity"] = inside
        for an, m in AUTOMATA.items():
            accepts = _accepts(m)
            oracles[f"intersect {name} {an}"] = lambda w, i=inside, a=accepts: i(w) and a(w)
    for name, (transitions, finals) in _CLOSURE_AUTOMATA.items():
        accepts = lambda w, t=transitions, f=finals: nfa_accepts(t, "p", f, w)
        oracles[f"closure intersect {name}"] = lambda w, a=accepts: is_dyck(w) and a(w)
    return {name: oracle for name, oracle in oracles.items() if name in GRAMMARS}


def grammar(name: str):
    if name in CASES:
        build, args, kwargs = CASES[name]
        return build(*args, **kwargs)
    return fixture(name).phr()


GRAMMARS = (*fixture_names(), *sorted(CASES))
ORACLES = _oracles()


def _queries(g) -> list:
    """Every word of 1-4 letters over up to three terminals, with the
    index of each limit set."""
    terminals = sorted(split_control(g)[0].terminals)[:3]
    return [(w, i) for w in all_words(terminals, 4) for i in range(len(LIMIT_SETS))]


@lru_cache(maxsize=None)
def _want(name: str) -> dict:
    """The verdict of each of ``_queries`` on the named grammar, each from
    a search of its own."""
    reference = fresh(grammar(name))
    want = {}
    for w, i in _queries(reference):
        reference.member_answers.clear()  # so that each query runs its whole search
        want[w, i] = member_string(reference, w, LIMIT_SETS[i])
    return want


@pytest.mark.parametrize("name", GRAMMARS)
def test_shared_answers_equal_fresh_searches(name):
    g = fresh(grammar(name))
    queries = _queries(g)
    want = _want(name)
    order = queries * 2
    random.Random(name).shuffle(order)
    for w, i in order:
        assert member_string(g, w, LIMIT_SETS[i]) == want[w, i], (w, LIMIT_SETS[i])
    for (w, i), verdict in want.items():
        if verdict.verdict == "yes":
            assert witnesses(g, w, verdict.trace, LIMIT_SETS[i])
            assert ORACLES.get(name, bool)(w), w


def test_some_words_are_left_unknown_by_the_cut():
    g = fresh(fixture("f2_wp").phr())
    verdicts = {member_string(g, w, LIMIT_SETS[1]).verdict for w in all_words("ABa", 4)}
    assert verdicts == {"yes", "no-within-limits", "unknown"}


def _reachable(root) -> list:
    """Every object reachable from ``root``, classes aside."""
    seen, stack, out = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        out.append(x)
        stack.extend(gc.get_referents(x))
    return out


@pytest.mark.parametrize("name", ["dyck_phr", "ctl_plus0", "copy_dyck_K"])
def test_answers_hold_keys_traces_and_verdicts_alone(name):
    g = fresh(fixture(name).phr())
    for w in all_words(sorted(split_control(g)[0].terminals)[:2], 3):
        for limits in LIMIT_SETS:
            member_string(g, w, limits)
    assert g.member_answers
    for limits in LIMIT_SETS:
        enumerate_strings(g, limits)
        enumerate_language(g, limits)
        assert g.member_answers[limits, limits.max_edges].rest is not None
    for (limits, size), answers in g.member_answers.items():
        assert type(limits) is Limits and type(size) is int
        assert set(vars(answers)) == {"traces", "rest"}
        assert answers.rest is None or answers.rest.verdict in ("no-within-limits", "unknown")
        for key, trace in answers.traces.items():
            assert type(key) in (str, bytes)
            assert type(trace) is tuple and all(type(i) is str for i in trace)
    forbidden = (Hypergraph, CodedForm, WordForm, phrg.engine._Search, types.GeneratorType)
    assert not [x for x in _reachable(g.member_answers) if isinstance(x, forbidden)]


class Interrupt(BaseException):
    """Raised inside a search, as a per-operation time cap does."""


@pytest.mark.parametrize(
    "name, aborted, asked",
    [
        ("dyck_phr", "aabb", "abab"),  # a member after another member
        ("dyck_phr", "baba", "aabb"),  # a member after a non-member
        ("ctl_plus0", "abab", "aaab"),
        pytest.param(
            "copy_dyck_K", ("a", "b", "bbar", "abar"), ("a", "b", "abar", "bbar"),
            id="copy_dyck_K-graph-path",
        ),
    ],
)
def test_a_search_that_raises_stores_nothing(monkeypatch, name, aborted, asked):
    g = fixture(name).phr()
    limits = LIMIT_SETS[0]
    want = member_string(fresh(g), asked, limits)
    real = phrg.engine.parallel_budgeted
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(phrg.engine, "parallel_budgeted", counted)
    member_string(fresh(g), aborted, limits)
    total = len(calls)
    assert total
    for k in range(1, total + 1):
        g = fresh(g)
        calls.clear()

        def raising(*args):
            calls.append(None)
            if len(calls) == k:
                raise Interrupt
            return real(*args)

        monkeypatch.setattr(phrg.engine, "parallel_budgeted", raising)
        with pytest.raises(Interrupt):
            member_string(g, aborted, limits)
        assert g.member_answers == {}
        monkeypatch.setattr(phrg.engine, "parallel_budgeted", real)
        assert member_string(g, asked, limits) == want, k


def test_a_copy_starts_without_answers():
    g = fixture("dyck_phr").phr()
    member_string(g, "ab", LIMIT_SETS[0])
    assert g.member_answers
    assert fresh(g).member_answers == {}
    assert member_string(fresh(g), "ab", LIMIT_SETS[0]) == MemberVerdict("yes", ("1",))


def _counting(monkeypatch) -> list:
    """Count the calls of ``parallel_budgeted`` in the engine."""
    real, calls = phrg.engine.parallel_budgeted, []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(phrg.engine, "parallel_budgeted", counted)
    return calls


def _fresh_verdict(g, word, limits: Limits) -> MemberVerdict:
    return member_string(fresh(g), word, limits)


@pytest.mark.parametrize("name, longest", [("dyck_phr", "aaaa"), ("f2_wp", "AAAA")])
def test_the_longest_word_decides_every_shorter_word(monkeypatch, name, longest):
    g = fresh(fixture(name).phr())
    limits = LIMIT_SETS[0]
    shorter = list(all_words(sorted(split_control(g)[0].terminals), len(longest) - 1))
    want = {w: _fresh_verdict(g, w, limits) for w in shorter}
    assert {v.verdict for v in want.values()} == {"yes", "no-within-limits"}
    assert member_string(g, longest, limits) == _fresh_verdict(g, longest, limits)
    calls = _counting(monkeypatch)
    for w in shorter:
        assert member_string(g, w, limits) == want[w], w
    assert calls == []


def test_an_unknown_rest_decides_no_shorter_word():
    g = fixture("f2_wp").phr()
    limits = LIMIT_SETS[1]
    long = fresh(g)
    assert member_string(long, "AAAA", limits).verdict == "unknown"
    [answers] = long.member_answers.values()
    assert answers.rest == MemberVerdict("unknown")  # the result budget cut the search
    refused = 0
    for w in all_words(sorted(split_control(g)[0].terminals), 3):
        want = _fresh_verdict(g, w, limits)
        h = fresh(g)
        h.member_answers.update(long.member_answers)
        assert member_string(h, w, limits) == want, w
        refused += want.verdict == "no-within-limits"
    assert refused


def test_node_caps_are_shared_only_on_node_monotone_grammars(monkeypatch):
    g = fresh(grammar("hom dyck_phr erasing"))
    assert not split_control(g)[0].node_monotone
    wide = Limits(max_steps=6, max_nodes=10, max_edges=5, max_results=20_000)
    narrow = dataclasses.replace(wide, max_nodes=4)
    want = {(w, L): _fresh_verdict(g, w, L) for w in ("b", "bb", "bbb") for L in (wide, narrow)}
    # the wide search derives bb; within 4 nodes a node cut hides it
    assert want["bb", wide].verdict == "yes" and want["bb", narrow].verdict == "unknown"
    assert member_string(g, "bbb", wide) == want["bbb", wide]
    calls = _counting(monkeypatch)
    for w in ("bb", "b"):
        assert member_string(g, w, wide) == want[w, wide], w
    assert calls == []
    for w in ("bbb", "bb", "b"):
        h = fresh(g)
        h.member_answers.update(g.member_answers)  # the wide tables alone
        calls.clear()
        assert member_string(h, w, narrow) == want[w, narrow], w
        assert calls, w


def test_a_word_past_the_node_cap_takes_no_trace_from_a_wider_table():
    g = fresh(fixture("dyck_phr").phr())
    assert split_control(g)[0].node_monotone
    wide = LIMIT_SETS[0]
    narrow = dataclasses.replace(wide, max_nodes=4)  # abab's graph has 5 nodes
    assert member_string(g, "abab", wide) == MemberVerdict("yes", ("1", "1"))
    want = _fresh_verdict(g, "abab", narrow)
    assert member_string(g, "abab", narrow) == want == MemberVerdict("no-within-limits")


def _words_of(enumeration, result) -> set:
    """The nonempty words of an enumeration's result."""
    if enumeration is enumerate_strings:
        return set(result.words)
    return {w for w in map(extract_string, result.graphs) if w}


ENUMERATIONS = [
    *(pytest.param(name, enumerate_strings, id=name) for name in GRAMMARS),
    pytest.param("copy_dyck_K", enumerate_language, id="copy_dyck_K-language-graph-path"),
    pytest.param("ctl_plus0", enumerate_language, id="ctl_plus0-language-controlled"),
]


@pytest.mark.parametrize("i", range(len(LIMIT_SETS)))
@pytest.mark.parametrize("name, enumeration", ENUMERATIONS)
def test_an_enumeration_leaves_the_answers_of_its_search(monkeypatch, name, enumeration, i):
    limits = LIMIT_SETS[i]
    g = fresh(grammar(name))
    words = _words_of(enumeration, enumeration(g, limits))
    tables = dict(g.member_answers)
    assert list(tables) == [(limits, limits.max_edges)]
    rest = tables[limits, limits.max_edges].rest
    assert rest is not None  # an enumeration runs to its end
    calls = _counting(monkeypatch)
    decided = 0
    for w, j in _queries(g):
        if j != i:
            continue
        g.member_answers.clear()
        g.member_answers.update(tables)  # the enumeration's table alone
        calls.clear()
        assert member_string(g, w, limits) == _want(name)[w, i], w
        # the table decides every word it accepted, and every other word
        # unless its rest is unknown, which holds only at its own budgets
        if w in words or rest.verdict == "no-within-limits":
            assert calls == [], w
            decided += 1
    assert decided or rest.verdict == "unknown"


@pytest.mark.parametrize(
    "name, enumeration, asked",
    [
        ("dyck_phr", enumerate_strings, "abab"),
        ("ctl_plus0", enumerate_strings, "aaab"),
        pytest.param(
            "copy_dyck_K", enumerate_language, ("a", "b", "abar", "bbar"),
            id="copy_dyck_K-graph-path",
        ),
    ],
)
def test_an_enumeration_that_raises_stores_nothing(monkeypatch, name, enumeration, asked):
    g = fixture(name).phr()
    limits = LIMIT_SETS[0]
    want = member_string(fresh(g), asked, limits)
    whole = enumeration(fresh(g), limits)
    real = phrg.engine.parallel_budgeted
    calls = _counting(monkeypatch)
    enumeration(fresh(g), limits)
    total = len(calls)
    assert total
    for k in range(1, total + 1):
        g = fresh(g)
        calls.clear()

        def raising(*args):
            calls.append(None)
            if len(calls) == k:
                raise Interrupt
            return real(*args)

        monkeypatch.setattr(phrg.engine, "parallel_budgeted", raising)
        with pytest.raises(Interrupt):
            enumeration(g, limits)
        assert g.member_answers == {}
        monkeypatch.setattr(phrg.engine, "parallel_budgeted", real)
        assert member_string(g, asked, limits) == want, k
        assert enumeration(g, limits) == whole, k


# Both tables derive a, under control states that are both final: the word's
# key is accepted twice, in one step.
TWO_FINALS = """\
kind phr
order 2
signature
S/2
a/2
terminals a
start S
table 1
S -> str("a")
a -> handle(a)
table 2
S -> str("a")
a -> handle(a)
control
state p f g
init p
final f g
trans p 1 f
trans p 2 g
"""


@pytest.mark.parametrize("enumeration", [enumerate_strings, enumerate_language])
def test_a_table_keeps_the_trace_of_a_keys_first_accepted_pair(enumeration):
    g = parse_document(TWO_FINALS).phr()
    limits = LIMIT_SETS[0]
    want = _fresh_verdict(g, "a", limits)
    assert want == MemberVerdict("yes", ("1",))
    enumeration(g, limits)
    assert member_string(g, "a", limits) == want
