"""Unit tests for the modal-literal algebra.

Counting facts are checked against an independent closed-form oracle
(computed here from first principles, not by calling the enumerator).
"""

import itertools
from sys import intern

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdkb.model import Grounding, subst_rml
from pdkb.rml import (BELIEF, POSSIBLE, Proposition, RML, RmlSpace, RmlTable,
                      RmlSyntaxError, downward_closure, enumerate_rmls,
                      format_rml, lit, negate, parse_rml, reduce_modalities,
                      upward_closure, wrap)

P = Proposition('p')
Q = Proposition('q')
AGENTS = ('1', '2', '3')


def chain_count(n_agents, depth):
    """Closed form for canonical modality chains of exact length depth:
    the first modality picks one of 2n (mode, agent) pairs, each later one
    picks a different agent, 2(n-1) options."""
    if depth == 0:
        return 1
    return 2 * n_agents * (2 * (n_agents - 1)) ** (depth - 1)


def space_size(n_props, n_agents, bound):
    # every chain carries one of n_props atoms at either polarity
    return 2 * n_props * sum(chain_count(n_agents, d) for d in range(bound + 1))


# ---------------------------------------------------------------------------
# hypothesis strategies

_agents = st.sampled_from(AGENTS)
_modes = st.sampled_from((BELIEF, POSSIBLE))


@st.composite
def rmls(draw, max_depth=4):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    mods = []
    for _ in range(depth):
        agent = draw(_agents)
        mods.append((draw(_modes), agent))
    atom = draw(st.sampled_from((P, Q)))
    negated = draw(st.booleans())
    return RML(tuple(mods), negated, atom)


# ---------------------------------------------------------------------------
# construction and reduction


def test_same_agent_runs_collapse_to_innermost_mode():
    # BB=B, PB=B, BP=P, PP=P
    assert reduce_modalities(((BELIEF, 'a'), (BELIEF, 'a'))) == ((BELIEF, 'a'),)
    assert reduce_modalities(((POSSIBLE, 'a'), (BELIEF, 'a'))) == ((BELIEF, 'a'),)
    assert reduce_modalities(((BELIEF, 'a'), (POSSIBLE, 'a'))) == ((POSSIBLE, 'a'),)
    assert reduce_modalities(((POSSIBLE, 'a'), (POSSIBLE, 'a'))) == ((POSSIBLE, 'a'),)


def test_reduction_happens_at_construction():
    r = RML(((BELIEF, 'a'), (POSSIBLE, 'a'), (BELIEF, 'b')), False, P)
    assert r.modalities == ((POSSIBLE, 'a'), (BELIEF, 'b'))
    assert r.depth == 2


def test_wrap_reduces_against_existing_chain():
    inner = wrap(BELIEF, 'a', lit(P))
    assert wrap(POSSIBLE, 'a', inner) == wrap(BELIEF, 'a', lit(P))
    assert wrap(BELIEF, 'b', inner).depth == 2


@given(rmls())
def test_reduction_is_idempotent(r):
    assert RML(r.modalities, r.negated, r.atom) == r
    assert reduce_modalities(r.modalities) == r.modalities


@given(rmls())
def test_no_adjacent_same_agent_after_reduction(r):
    agents = [a for _, a in r.modalities]
    assert all(x != y for x, y in zip(agents, agents[1:]))


# ---------------------------------------------------------------------------
# negation


def test_negate_flips_every_mode_and_the_polarity():
    r = wrap(BELIEF, 'a', wrap(POSSIBLE, 'b', lit(P)))
    n = negate(r)
    assert n.modalities == ((POSSIBLE, 'a'), (BELIEF, 'b'))
    assert n.negated


@given(rmls())
def test_negate_is_an_involution(r):
    assert negate(negate(r)) == r


@given(rmls())
def test_rml_never_equals_its_negation(r):
    assert negate(r) != r


# ---------------------------------------------------------------------------
# closures


def test_upward_closure_weakens_belief_subsets():
    r = wrap(BELIEF, '1', wrap(POSSIBLE, '2', wrap(BELIEF, '3', lit(P))))
    up = upward_closure(r)
    expected = {
        r,
        wrap(POSSIBLE, '1', wrap(POSSIBLE, '2', wrap(BELIEF, '3', lit(P)))),
        wrap(BELIEF, '1', wrap(POSSIBLE, '2', wrap(POSSIBLE, '3', lit(P)))),
        wrap(POSSIBLE, '1', wrap(POSSIBLE, '2', wrap(POSSIBLE, '3', lit(P)))),
    }
    assert up == expected


@given(rmls())
def test_upward_closure_size_and_membership(r):
    up = upward_closure(r)
    n_belief = sum(1 for m, _ in r.modalities if m == BELIEF)
    assert len(up) == 2 ** n_belief
    assert r in up


@given(rmls())
def test_closure_duality(r):
    # down(r) is the negation image of up(negate(r))
    assert downward_closure(r) == {negate(x) for x in upward_closure(negate(r))}
    assert r in downward_closure(r)


@given(rmls())
def test_downward_members_entail_upward_members(r):
    # everything in down(r) has r in its own upward closure
    for stronger in downward_closure(r):
        assert r in upward_closure(stronger)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize('bound,expected', [(0, 2), (1, 10), (2, 26)])
def test_space_sizes_one_prop_two_agents(bound, expected):
    space = RmlSpace([P], ['1', '2'], bound)
    out = enumerate_rmls(space)
    assert len(out) == expected
    assert expected == space_size(1, 2, bound)


@pytest.mark.parametrize('n_agents', [1, 2, 3])
@pytest.mark.parametrize('bound', [0, 1, 2, 3])
def test_space_sizes_match_closed_form(n_agents, bound):
    agents = AGENTS[:n_agents]
    space = RmlSpace([P, Q], agents, bound)
    assert len(enumerate_rmls(space)) == space_size(2, n_agents, bound)


def test_enumeration_is_sorted_and_duplicate_free():
    space = RmlSpace([P, Q], ['1', '2'], 2)
    out = enumerate_rmls(space)
    assert out == sorted(out)
    assert len(out) == len(set(out))


def test_space_membership():
    space = RmlSpace([P], ['1', '2'], 1)
    assert lit(P) in space
    assert wrap(BELIEF, '1', lit(P)) in space
    assert wrap(BELIEF, '1', wrap(BELIEF, '2', lit(P))) not in space
    assert lit(Q) not in space


# ---------------------------------------------------------------------------
# canonical constructors: what the algebra builds from canonical parts
# without reducing is what the reducing constructor builds from them


def assert_built_as(r, modalities, negated, atom):
    """r equals ``RML(modalities, negated, atom)`` with an equal hash and
    equal fields, its atom equals the reducing ``Proposition`` of the same
    parts, and every name in it is interned."""
    reduced = RML(modalities, negated, atom)
    assert r == reduced
    assert hash(r) == hash(reduced)
    assert (r.modalities, r.negated, r.atom) == \
        (reduced.modalities, reduced.negated, reduced.atom)
    assert type(r.negated) is bool
    atom = Proposition(atom.predicate, atom.args)
    assert r.atom == atom
    assert hash(r.atom) == hash(atom)
    assert (r.atom.predicate, r.atom.args) == (atom.predicate, atom.args)
    names = [a for _, a in r.modalities] + [r.atom.predicate, *r.atom.args]
    assert all(intern(name) is name for name in names)


@st.composite
def agents_and_rml(draw):
    """Two or three agents and an RML over them of depth at most 3."""
    agents = AGENTS[:draw(st.integers(min_value=2, max_value=3))]
    depth = draw(st.integers(min_value=0, max_value=3))
    mods = tuple((draw(_modes), draw(st.sampled_from(agents)))
                 for _ in range(depth))
    atom = draw(st.sampled_from((P, Q, Proposition('r', ('1', '2')))))
    return agents, RML(mods, draw(st.booleans()), atom)


def switched(rml, mode, to):
    """Every modality tuple of rml with any subset of its ``mode``
    modalities switched to ``to``."""
    return [tuple(choice) for choice in itertools.product(
        *[((m, a), (to, a)) if m == mode else ((m, a),)
          for m, a in rml.modalities])]


def assert_closure_built_as(closure, rml, mode, to):
    expected = {RML(mods, rml.negated, rml.atom): mods
                for mods in switched(rml, mode, to)}
    assert set(closure) == set(expected)
    for r in closure:
        assert_built_as(r, expected[r], rml.negated, rml.atom)


@given(agents_and_rml(), _modes, st.booleans())
def test_negate_wrap_and_lit_build_what_rml_builds(case, mode, negated):
    agents, r = case
    flipped = tuple((POSSIBLE if m == BELIEF else BELIEF, a)
                    for m, a in r.modalities)
    assert_built_as(negate(r), flipped, not r.negated, r.atom)
    # every agent, the outermost one included
    for agent in agents:
        assert_built_as(wrap(mode, agent, r), ((mode, agent),) + r.modalities,
                        r.negated, r.atom)
    assert_built_as(lit(r.atom, negated), (), negated, r.atom)


@given(agents_and_rml())
def test_closures_build_what_rml_builds(case):
    _, r = case
    assert_closure_built_as(upward_closure(r), r, BELIEF, POSSIBLE)
    assert_closure_built_as(downward_closure(r), r, POSSIBLE, BELIEF)


@given(agents_and_rml(), _modes)
def test_rml_table_builds_what_rml_builds(case, mode):
    agents, r = case
    table = RmlTable()
    assert table.intern(r) is r
    flipped = tuple((POSSIBLE if m == BELIEF else BELIEF, a)
                    for m, a in r.modalities)
    assert_built_as(table.negate(r), flipped, not r.negated, r.atom)
    for agent in agents:
        wrapped = table.wrap(mode, agent, r)
        assert_built_as(wrapped, ((mode, agent),) + r.modalities, r.negated,
                        r.atom)
        assert table.wrap(mode, agent, r) is wrapped
    assert_closure_built_as(table.upward_closure(r), r, BELIEF, POSSIBLE)


@pytest.mark.parametrize('n_agents', [2, 3])
@pytest.mark.parametrize('bound', [0, 1, 2, 3])
def test_enumeration_builds_what_rml_builds(n_agents, bound):
    for r in enumerate_rmls(RmlSpace([P, Q], AGENTS[:n_agents], bound)):
        assert_built_as(r, r.modalities, r.negated, r.atom)


@given(st.integers(min_value=2, max_value=3), _modes, _modes, st.booleans())
def test_substitution_builds_what_rml_builds(n_agents, m1, m2, negated):
    # [?a]<?b>r(?a,?b) and its other modes: at ?a = ?b the two modalities
    # reduce to one
    template = RML(((m1, '?a'), (m2, '?b')), negated,
                   Proposition('r', ('?a', '?b')))
    for a, b in itertools.product(AGENTS[:n_agents], repeat=2):
        assert_built_as(subst_rml(template, {'?a': a, '?b': b}),
                        ((m1, a), (m2, b)), negated, Proposition('r', (a, b)))


@given(agents_and_rml())
def test_renaming_builds_what_rml_builds(case):
    # renaming '1' to '3' and '2' to '1' in the argument slots of r
    _, rml = case
    renamed = Grounding({}, ()).renamed({'r': (0, 1)}, {'1': '3', '2': '1'})
    args = tuple({'1': '3', '2': '1'}[a] for a in rml.atom.args) \
        if rml.atom.predicate == 'r' else rml.atom.args
    assert_built_as(renamed._rename_rml(rml), rml.modalities, rml.negated,
                    Proposition(rml.atom.predicate, args))


# ---------------------------------------------------------------------------
# text form


def test_format_examples():
    r = wrap(BELIEF, 'a', wrap(POSSIBLE, 'b', lit(Proposition('secret', ('c',)), True)))
    assert format_rml(r) == 'B_a P_b !secret(c)'
    assert format_rml(lit(P)) == 'p'


def test_parse_examples():
    r = parse_rml('B_a P_b !secret(c)')
    assert r.modalities == ((BELIEF, 'a'), (POSSIBLE, 'b'))
    assert r.negated
    assert r.atom == Proposition('secret', ('c',))
    assert parse_rml('p') == lit(P)


def test_parse_rejects_garbage():
    for bad in ('', 'X_a p', 'B_a p q r(', 'B_a !'):
        with pytest.raises(RmlSyntaxError):
            parse_rml(bad)


@given(rmls())
def test_text_round_trip(r):
    assert parse_rml(format_rml(r)) == r


# ---------------------------------------------------------------------------
# ordering


@given(rmls(), rmls())
def test_total_order_is_consistent(a, b):
    assert (a < b) + (b < a) + (a == b) == 1
