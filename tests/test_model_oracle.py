"""The bounded model-enumeration oracle, and its agreement with the
syntactic reasoners at desk scale."""

import random

import pytest

from kripke import ScaleExceeded, oracle_consistent, oracle_entails
from pdkb.pekb import PEKB, closure, entails, is_consistent
from pdkb.rml import (BELIEF, POSSIBLE, Proposition, RmlSpace, enumerate_rmls,
                      lit, wrap)

P = Proposition('p')


def B(agent, r):
    return wrap(BELIEF, agent, r)


def Pos(agent, r):
    return wrap(POSSIBLE, agent, r)


def test_belief_chain_entails_possible_chain():
    base = PEKB([B('1', B('2', lit(P)))])
    assert oracle_entails(base, Pos('1', Pos('2', lit(P))), 4)


def test_empty_base_entails_nothing_contingent():
    assert not oracle_entails(PEKB(), Pos('1', Pos('2', lit(P))), 3)
    assert not oracle_entails(PEKB(), lit(P), 2)


def test_seriality_makes_belief_imply_possibility():
    # valid in every serial model, with no premises at all
    assert oracle_entails(PEKB([B('1', lit(P))]), Pos('1', lit(P)), 3)


def test_consistency_examples():
    assert oracle_consistent(PEKB([Pos('1', lit(P)), Pos('1', lit(P, True))]))
    assert not oracle_consistent(PEKB([B('1', lit(P)), Pos('1', lit(P, True))]))


def test_scale_guard():
    deep = B('1', B('2', B('1', lit(P))))
    with pytest.raises(ScaleExceeded):
        oracle_entails(PEKB(), deep, 3)
    with pytest.raises(ScaleExceeded):
        oracle_entails(PEKB(), lit(P), 9)
    many = [Proposition(c) for c in 'abcd']
    with pytest.raises(ScaleExceeded):
        oracle_consistent(PEKB([lit(a) for a in many]))
    with pytest.raises(ScaleExceeded):
        oracle_consistent(PEKB([lit(P)]), 0)


def test_triple_agreement_on_random_queries():
    """Structural entailment, closure membership, and the model oracle
    must agree; same for the two consistency tests."""
    space = enumerate_rmls(RmlSpace([P], ['1', '2'], 2))
    rng = random.Random(20210)
    checked = 0
    for _ in range(600):
        base = PEKB(rng.sample(space, rng.randint(0, 4)))
        assert is_consistent(base) == oracle_consistent(base, 3)
        if not is_consistent(base):
            continue
        query = rng.choice(space)
        structural = entails(base, query)
        member = query in closure(base).rmls
        semantic = oracle_entails(base, query, 3)
        assert structural == member == semantic, (base, query)
        checked += 1
    assert checked > 300
