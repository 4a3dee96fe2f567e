"""Unit tests for belief bases: closure, consistency, entailment, erasure,
update, and progression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdkb.pekb import (ConditionalEffect, InconsistentBase,
                       InconsistentResult, InconsistentUpdate, PEKB, closure,
                       entails, erase, is_consistent, negkb, prime, progress,
                       update)
from pdkb.rml import (BELIEF, POSSIBLE, Proposition, RML, RmlSpace,
                      enumerate_rmls, lit, negate, upward_closure, wrap)

P = Proposition('p')
Q = Proposition('q')


def B(agent, r):
    return wrap(BELIEF, agent, r)


def Pos(agent, r):
    return wrap(POSSIBLE, agent, r)


_space = enumerate_rmls(RmlSpace([P, Q], ['1', '2'], 2))
_rmls = st.sampled_from(_space)
_bases = st.frozensets(_rmls, max_size=5).map(PEKB)


# ---------------------------------------------------------------------------
# closure and prime


def test_closure_is_union_of_upward_closures():
    base = PEKB([B('1', lit(P)), Pos('2', lit(Q, True))])
    assert closure(base).rmls == (upward_closure(B('1', lit(P)))
                                  | upward_closure(Pos('2', lit(Q, True))))


@given(_bases)
def test_closure_is_idempotent(base):
    c = closure(base)
    assert closure(c) == c
    assert base.rmls <= c.rmls


@given(_bases)
def test_prime_of_closure_restores_maximal_elements(base):
    # closing then priming never loses information
    assert closure(prime(closure(base))) == closure(base)


def test_prime_drops_strictly_weaker_members():
    base = PEKB([B('1', lit(P)), Pos('1', lit(P))])
    assert prime(base).rmls == frozenset([B('1', lit(P))])


# ---------------------------------------------------------------------------
# consistency


def test_empty_base_is_consistent():
    assert is_consistent(PEKB())


def test_complementary_literals_are_inconsistent():
    assert not is_consistent(PEKB([lit(P), lit(P, True)]))
    assert is_consistent(PEKB([lit(P), lit(Q, True)]))


def test_belief_vs_possible_conflict():
    assert not is_consistent(PEKB([B('1', lit(P)), Pos('1', lit(P, True))]))
    assert not is_consistent(PEKB([B('1', lit(P)), B('1', lit(P, True))]))
    # two possibilities never clash with each other
    assert is_consistent(PEKB([Pos('1', lit(P)), Pos('1', lit(P, True))]))


def test_nested_conflict_is_found():
    base = PEKB([B('1', B('2', lit(P))), Pos('1', B('2', lit(P, True)))])
    assert not is_consistent(base)


def test_conflicts_are_scoped_per_agent():
    base = PEKB([B('1', lit(P)), B('2', lit(P, True))])
    assert is_consistent(base)


@given(_rmls)
def test_rml_with_its_negation_is_inconsistent(r):
    assert not is_consistent(PEKB([r, negate(r)]))


@given(_rmls)
def test_singleton_is_consistent(r):
    assert is_consistent(PEKB([r]))


@given(_bases)
def test_closed_set_is_consistent_exactly_without_a_negated_member(base):
    # progress checks its closed adds for consistency this way
    c = closure(base)
    assert is_consistent(c) == is_consistent(base)
    assert is_consistent(c) == (not any(negate(r) in c for r in c.rmls))


# ---------------------------------------------------------------------------
# entailment


def test_belief_entails_possible():
    base = PEKB([B('1', lit(P))])
    assert entails(base, Pos('1', lit(P)))
    assert not entails(base, Pos('1', lit(P, True)))


def test_nested_entailment():
    base = PEKB([B('1', B('2', lit(P)))])
    assert entails(base, Pos('1', Pos('2', lit(P))))
    assert entails(base, B('1', Pos('2', lit(P))))
    assert not entails(base, B('2', lit(P)))


def test_possible_source_only_supports_possible():
    base = PEKB([Pos('1', lit(P))])
    assert entails(base, Pos('1', lit(P)))
    assert not entails(base, B('1', lit(P)))


def test_conjunctive_queries_distribute():
    base = PEKB([B('1', lit(P)), B('2', lit(Q))])
    assert entails(base, [Pos('1', lit(P)), B('2', lit(Q))])
    assert not entails(base, [Pos('1', lit(P)), B('2', lit(Q, True))])


def test_entailment_from_inconsistent_base_is_rejected():
    with pytest.raises(InconsistentBase):
        entails(PEKB([lit(P), lit(P, True)]), lit(Q))


def test_entailment_from_an_inconsistent_plain_set_is_rejected():
    # one rule for every kind of base, not False for a list
    with pytest.raises(InconsistentBase):
        entails([lit(P), lit(P, True)], lit(Q))


@given(_bases, _rmls)
def test_entailment_equals_closure_membership(base, query):
    if not is_consistent(base):
        return
    assert entails(base, query) == (query in closure(base).rmls)


# ---------------------------------------------------------------------------
# erasure


def test_erase_worked_example():
    base = PEKB([B('1', B('2', B('3', lit(P))))])
    out = erase(base, PEKB([B('1', Pos('2', Pos('3', lit(P))))]))
    assert prime(out).rmls == frozenset([Pos('1', B('2', B('3', lit(P))))])


def test_erase_removes_the_whole_downward_closure():
    base = PEKB([B('1', lit(P))])
    out = erase(base, PEKB([Pos('1', lit(P))]))
    # removing the possibility also removes the stronger belief
    assert out.rmls == frozenset()


@given(_bases, _bases)
def test_erase_result_never_entails_erased_rmls(base, q):
    out = erase(base, q)
    for r in q:
        assert r not in out.rmls
    assert out.rmls <= closure(base).rmls


@given(_bases, _bases)
def test_erase_result_is_upward_closed(base, q):
    out = erase(base, q)
    assert closure(out) == out


@given(_bases, _bases, _bases)
def test_erasures_compose(base, a, b):
    # progress erases R, U and the negated adds in one call on this ground
    assert erase(erase(base, a), b) == erase(base, a.rmls | b.rmls)


# ---------------------------------------------------------------------------
# update


def test_update_overwrites_contradicting_beliefs():
    base = PEKB([B('1', lit(P))])
    out = update(base, PEKB([B('1', lit(P, True))]))
    assert B('1', lit(P, True)) in out.rmls
    assert B('1', lit(P)) not in out.rmls
    assert is_consistent(out)


def test_update_keeps_unrelated_beliefs():
    base = PEKB([B('1', lit(P)), B('2', lit(Q))])
    out = update(base, PEKB([B('1', lit(P, True))]))
    assert B('2', lit(Q)) in out.rmls


def test_update_with_inconsistent_argument_is_rejected():
    with pytest.raises(InconsistentUpdate):
        update(PEKB(), PEKB([lit(P), lit(P, True)]))


@given(_bases, _bases)
def test_update_success_postulate(base, q):
    # the update always holds afterwards
    if not is_consistent(q):
        return
    out = update(base, q)
    assert closure(q).rmls <= out.rmls


@given(_bases, _bases)
def test_update_preserves_consistency(base, q):
    if not is_consistent(base) or not is_consistent(q):
        return
    assert is_consistent(update(base, q))


# ---------------------------------------------------------------------------
# progression


def no_ak(atom):
    return False


def test_unconditional_add():
    out = progress(PEKB(), [ConditionalEffect((), B('1', lit(P)))], no_ak)
    assert entails(out, B('1', lit(P)))


def test_conditional_add_fires_only_when_condition_holds():
    eff = ConditionalEffect((B('1', lit(Q)),), B('1', lit(P)))
    held = progress(PEKB([B('1', lit(Q))]), [eff], no_ak)
    assert entails(held, B('1', lit(P)))
    refuted = progress(PEKB([B('1', lit(Q, True))]), [eff], no_ak)
    assert not entails(refuted, B('1', lit(P)))
    # condition refuted: the old belief survives untouched
    assert entails(refuted, B('1', lit(Q, True)))


def test_uncertain_firing_erases_the_negation():
    # condition unknown: neither the effect nor its negation afterwards
    eff = ConditionalEffect((B('1', lit(Q)),), B('1', lit(P)))
    base = PEKB([B('1', lit(P, True))])
    out = progress(base, [eff], no_ak)
    assert not entails(out, B('1', lit(P)))
    assert not entails(out, B('1', lit(P, True)))


def test_delete_effect_erases():
    eff = ConditionalEffect((), B('1', lit(P)), delete=True)
    out = progress(PEKB([B('1', lit(P))]), [eff], no_ak)
    assert not entails(out, B('1', lit(P)))
    # dropping the belief keeps the weaker possibility
    assert entails(out, Pos('1', lit(P)))
    eff2 = ConditionalEffect((), Pos('1', lit(P)), delete=True)
    out2 = progress(PEKB([B('1', lit(P))]), [eff2], no_ak)
    # deleting the possibility takes the stronger belief with it
    assert not entails(out2, B('1', lit(P)))
    assert not entails(out2, Pos('1', lit(P)))


def test_negative_condition_blocks_firing():
    eff = ConditionalEffect((), B('1', lit(P)), condition_neg=(B('1', lit(Q)),))
    out = progress(PEKB([B('1', lit(Q))]), [eff], no_ak)
    assert not entails(out, B('1', lit(P)))
    out2 = progress(PEKB(), [eff], no_ak)
    assert entails(out2, B('1', lit(P)))


def test_contradictory_simultaneous_adds_are_rejected():
    effs = [ConditionalEffect((), lit(P)), ConditionalEffect((), lit(P, True))]
    with pytest.raises(InconsistentResult):
        progress(PEKB(), effs, no_ak)


def test_effects_evaluate_against_the_pre_state():
    # the first effect's add must not enable the second in the same step
    effs = [ConditionalEffect((), B('1', lit(P))),
            ConditionalEffect((B('1', lit(P)),), B('1', lit(Q)))]
    out = progress(PEKB([B('1', lit(P, True))]), effs, no_ak)
    assert entails(out, B('1', lit(P)))
    assert not entails(out, B('1', lit(Q)))


@given(_bases)
def test_an_empty_outcome_leaves_the_state_as_it_was(base):
    # the erase-then-update step with nothing to erase or add
    full = update(erase(base, PEKB()), PEKB())
    assert progress(base, [], no_ak).rmls == full.rmls == closure(base).rmls


def p_is_ak(atom):
    return atom == P


_effects = st.builds(ConditionalEffect, st.frozensets(_rmls, max_size=2),
                     _rmls, st.booleans(), st.frozensets(_rmls, max_size=1))


@given(_bases, st.frozensets(_effects, max_size=4),
       st.sampled_from([no_ak, p_is_ak]))
def test_progress_is_erase_then_update(base, outcome, is_ak):
    # the paper's step, (p erase (R u U)) update Q, with R, U and Q read off
    # the outcome against the pre-state
    p = closure(base)
    removed = {ce.effect for ce in outcome if ce.delete and ce.fires(p)}
    uncertain = {negate(ce.effect) for ce in outcome
                 if not ce.delete and ce.uncertain(p, is_ak)}
    added = [ce.effect for ce in outcome if not ce.delete and ce.fires(p)]
    try:
        expected = update(erase(p, removed | uncertain), added)
    except InconsistentUpdate:
        with pytest.raises(InconsistentResult):
            progress(p, outcome, is_ak)
        return
    assert progress(p, outcome, is_ak) == expected
