"""Member queries on one grammar object share their search's answers.

``member_string`` keeps, per grammar object and bounded budgets, the
trace of each key its search accepted and, once the search ended by
itself, the verdict of every other key.  The reference is a copy of
the grammar (``fresh``) whose answers are cleared before each query, so
that each of its queries runs the whole search: verdicts and traces must
be equal.
"""

import gc
import random
import types

import pytest

import phrg.engine
from phrg import (
    Limits,
    MemberVerdict,
    fixture,
    fixture_names,
    member_string,
)
from phrg.grammar import CodedForm, WordForm, split_control
from phrg.hypergraph import Hypergraph
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


@pytest.mark.parametrize("name", GRAMMARS)
def test_shared_answers_equal_fresh_searches(name):
    g = fresh(grammar(name))
    terminals = sorted(split_control(g)[0].terminals)[:3]
    queries = [(w, i) for w in all_words(terminals, 4) for i in range(len(LIMIT_SETS))]
    reference = fresh(g)
    want = {}
    for w, i in queries:
        reference.member_answers.clear()  # so that each query runs its whole search
        want[w, i] = member_string(reference, w, LIMIT_SETS[i])
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
