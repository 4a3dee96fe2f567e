"""Semantic plan assessment, policy verification, and the cross-check."""

import os
import random

import pytest

from pdkb.compiler import (CompiledCondition, CompiledOperator,
                           apply_ancillary, compile_problem)
from pdkb.model import ALWAYS, ground
from pdkb.pekb import PEKB, ConditionalEffect, closure, progress
from pdkb.parser import desugar, parse_file, parse_text
from pdkb import validator as validator_mod
from pdkb.planner import apply, applicable, solve_andor
from pdkb.rml import RmlTable, parse_rml
from pdkb.validator import (INVALID, STRONG_VALID, WEAK_VALID, UnknownAction,
                            _compiled_state, assess_plan,
                            crosscheck_progression, expand_outcome,
                            precondition_holds, resolve_plan, state_key,
                            successors, verify_policy)

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')


def load(*parts):
    return desugar(parse_file(os.path.join(BENCH, *parts)))


@pytest.fixture(scope='module')
def envelope():
    return load('envelope', 'envelope.pdkbddl')


@pytest.fixture(scope='module')
def ask():
    return load('misc', 'ask.pdkbddl')


# ---------------------------------------------------------------------------
# plan assessment


def test_envelope_plan_is_strong_valid(envelope):
    result = assess_plan(envelope)
    assert result.verdict == STRONG_VALID
    assert len(result.witness.states) == 3
    assert len(result.witness.actions) == 2


def test_plan_longer_than_the_recursion_limit_is_assessed(long_coin_plan):
    prob = desugar(parse_file(long_coin_plan))
    result = assess_plan(prob)
    assert result.verdict == STRONG_VALID
    assert result.trajectories == 1
    assert len(result.witness.actions) == 1200


def test_reversed_envelope_plan_is_invalid():
    prob = load('envelope', 'envelope-reversed.pdkbddl')
    result = assess_plan(prob)
    assert result.verdict == INVALID
    assert 'goal' in result.witness.failure


def test_empty_plan_succeeds_when_goal_holds_initially(envelope):
    goal = envelope.goal_pos[0]
    assert goal not in closure(PEKB(envelope.initial))
    result = assess_plan(envelope, plan=[])
    assert result.verdict == INVALID
    trivial = load('misc', 'unsolvable.pdkbddl')
    # flip the goal to something already entailed
    trivial.goal_pos = ()
    assert assess_plan(trivial, plan=[]).verdict == STRONG_VALID


def test_inapplicable_step_names_itself():
    prob = load('misc', 'negation-removal.pdkbddl')
    result = assess_plan(prob, plan=[('check',)])
    assert result.verdict == INVALID
    assert 'step 0' in result.witness.failure
    assert 'check' in result.witness.failure


def test_unknown_plan_action_raises(envelope):
    with pytest.raises(UnknownAction):
        assess_plan(envelope, plan=[('teleport', 'bob')])


def test_nondeterministic_plan_is_weak_at_best(ask):
    result = assess_plan(ask, plan=[('ask',), ('report-yes',)])
    assert result.verdict == WEAK_VALID
    assert result.trajectories == 2


def test_sequential_plans_cannot_cover_both_branches(ask):
    # whichever report step matches the outcome, the other is inapplicable
    result = assess_plan(ask, plan=[('ask',), ('report-yes',),
                                    ('report-no',)])
    assert result.verdict == INVALID


# both effects fire at once, so the one step contradicts itself
CLASH = """
(define (domain d) (:agents a) (:predicates (p))
  (:action both :effect (and (p) (!p))))
(define (problem x) (:domain d) (:task valid_assessment) (:init ) (:goal (p))
  (:plan (both)))
"""


def test_an_inconsistent_step_fails_the_plan():
    result = assess_plan(desugar(parse_text(CLASH)))
    assert result.verdict == INVALID
    assert result.witness.failure == ('step 0: simultaneous effects add p '
                                      'and its negation')


# ---------------------------------------------------------------------------
# policy verification


def test_plan_induced_policy_is_strong_valid(envelope):
    # each state along the plan's one trajectory maps to its next action
    witness = assess_plan(envelope).witness
    policy = {state.rmls: action for state, action
              in zip(witness.states, witness.actions)}
    assert [a.label for a in policy.values()] == ['(check bob)',
                                                   '(check alice)']
    assert verify_policy(envelope, policy).verdict == STRONG_VALID


def ask_branches(ask):
    """The initial state of ask and its yes and no successors."""
    init = closure(PEKB(ask.initial))
    (do_ask,) = resolve_plan(ask, plan=[('ask',)])
    yes_state, no_state = successors(init, do_ask, ask.depth, ask.is_ak)
    if parse_rml('B_a raining') not in yes_state:
        yes_state, no_state = no_state, yes_state
    return init, yes_state, no_state


def test_branching_policy_covers_both_outcomes(ask):
    init, yes_state, no_state = ask_branches(ask)
    policy = {state_key(init): ('ask',),
              state_key(yes_state): ('report-yes',),
              state_key(no_state): ('report-no',)}
    assert verify_policy(ask, policy).verdict == STRONG_VALID


def test_policy_actions_may_be_compiled_operators(ask):
    init, yes_state, no_state = ask_branches(ask)
    ops = {op.name: op
           for op in compile_problem(ask, ground(ask)).operators}
    policy = {state_key(init): ops['ask'],
              state_key(yes_state): ops['report-yes'],
              state_key(no_state): ops['report-no']}
    assert verify_policy(ask, policy).verdict == STRONG_VALID
    policy[state_key(yes_state)] = ops['report-no']
    result = verify_policy(ask, policy)
    assert result.verdict == INVALID
    assert 'not applicable' in result.witness.failure


def test_a_closed_state_is_its_own_policy_key(ask):
    closed = closure(PEKB(ask.initial)).rmls
    assert closure(PEKB(closed)).rmls is closed
    assert closure(closed).rmls is closed
    assert state_key(PEKB(closed)) is closed
    # a set that closure grows gets a new frozenset, over the same RMLs
    belief = parse_rml('B_a raining')
    grown = closure(PEKB([belief])).rmls
    assert grown == {belief, parse_rml('P_a raining')}
    assert next(r for r in grown if r == belief) is belief


def test_partial_policy_is_invalid_with_witness(ask):
    init = closure(PEKB(ask.initial))
    policy = {state_key(init): ('ask',)}
    result = verify_policy(ask, policy)
    assert result.verdict == INVALID
    assert 'undefined' in result.witness.failure


def test_an_inconsistent_step_fails_the_policy():
    prob = desugar(parse_text(CLASH))
    init = closure(PEKB(prob.initial))
    result = verify_policy(prob, {state_key(init): ('both',)})
    assert result.verdict == INVALID
    assert result.witness.failure == ('simultaneous effects add p and its '
                                      'negation')


def test_looping_policy_that_never_exits_is_invalid():
    prob = load('misc', 'coin.pdkbddl')
    # flipping forever regardless of the result: no terminal success
    init = closure(PEKB(prob.initial))
    (flip,) = resolve_plan(prob, plan=[('flip',)])
    keys = {state_key(init)}
    frontier = [init]
    while frontier:
        state = frontier.pop()
        for nxt in successors(state, flip, prob.depth, prob.is_ak):
            if state_key(nxt) not in keys:
                keys.add(state_key(nxt))
                frontier.append(nxt)
    policy = {k: ('flip',) for k in keys}
    assert verify_policy(prob, policy).verdict == INVALID


def test_retry_policy_on_coin_is_strong_under_fairness():
    prob = load('misc', 'coin.pdkbddl')
    init = closure(PEKB(prob.initial))
    (flip,) = resolve_plan(prob, plan=[('flip',)])
    policy = {}
    frontier = [init]
    seen = {init}
    while frontier:
        state = frontier.pop()
        if parse_rml('heads') in state:
            continue
        policy[state_key(state)] = ('flip',)
        for nxt in successors(state, flip, prob.depth, prob.is_ak):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert verify_policy(prob, policy).verdict == STRONG_VALID


def _fixpoint_can_finish(succ_map, terminal_ok):
    """The can-finish fixpoint verify_policy ran before its backward walk:
    rescan every state until a pass adds none."""
    can_finish = set(terminal_ok)
    grew = True
    while grew:
        grew = False
        for state, nexts in succ_map.items():
            if state not in can_finish and any(n in can_finish
                                               for n in nexts):
                can_finish.add(state)
                grew = True
    return can_finish


def _damaged(policy, operators, goal):
    """The policy with one state left out, with one state's action swapped
    for another operator, and with the goal state its witness ends in
    given an action."""
    for state in sorted(policy, key=sorted):
        yield {s: a for s, a in policy.items() if s != state}
    for state in sorted(policy, key=sorted) + [goal]:
        for op in operators:
            if policy.get(state) is not op:
                yield {**policy, state: op}


def test_backward_walk_matches_the_old_fixpoint(monkeypatch, chain_problem):
    def outcome(result):
        witness = result.witness
        return (result.verdict, result.trajectories, witness.states,
                [a.label for a in witness.actions], witness.failure)

    verdicts = set()
    paths = [(chain_problem(55), False), (chain_problem(200), False)] + [
        (os.path.join(BENCH, 'misc', name + '.pdkbddl'), True)
        for name in ('coin', 'ask', 'lossy-3ag-2l')]
    for path, damage in paths:
        prob = desugar(parse_file(path))
        actions = ground(prob)
        cp = compile_problem(prob, actions)
        policy = solve_andor(cp).mapping
        result = verify_policy(prob, policy, ground_actions=actions)
        assert result.verdict == STRONG_VALID
        policies = [policy]
        if damage:
            goal = result.witness.states[-1].rmls
            policies += _damaged(policy, cp.operators, goal)
        for candidate in policies:
            new = verify_policy(prob, candidate, ground_actions=actions)
            with monkeypatch.context() as patch:
                patch.setattr(validator_mod, '_can_finish',
                              _fixpoint_can_finish)
                old = verify_policy(prob, candidate, ground_actions=actions)
            assert outcome(new) == outcome(old)
            verdicts.add(new.verdict)
    assert verdicts == {STRONG_VALID, WEAK_VALID, INVALID}


# ---------------------------------------------------------------------------
# semantic vs compiled progression cross-check


def test_crosscheck_is_deterministic(envelope):
    first = crosscheck_progression(envelope, 50, seed=3)
    second = crosscheck_progression(envelope, 50, seed=3)
    assert first == second
    assert first['cases'] == 50


def test_crosscheck_finds_no_divergence_on_grapevine():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    report = crosscheck_progression(prob, 200, seed=7)
    assert report['divergences'] == []
    assert report['cases'] == 200


def test_crosscheck_skips_every_case_of_a_problem_without_actions():
    prob = desugar(parse_text("""
(define (domain d) (:agents a) (:predicates (p)))
(define (problem x) (:domain d) (:init (p)) (:goal (p)))
"""))
    report = crosscheck_progression(prob, 20, seed=1)
    assert (report['cases'], report['skipped']) == (20, 20)
    assert report['divergences'] == []


# the depth-2 awareness divergence: bob's own awareness copy of his new
# belief turns, by uncertain firing, into a delete that never changes a
# state, and alice's awareness copy of that delete adds back what the
# semantic model's uncertain deletes erase
ENVELOPE_DIVERGENCE = ('after (check bob) the compiled step keeps '
                       'P_alice B_bob !secret and P_alice P_bob !secret, '
                       'which the semantic step erases')


@pytest.mark.xfail(strict=True, reason=ENVELOPE_DIVERGENCE)
def test_crosscheck_finds_no_divergence_on_the_envelope(envelope):
    report = crosscheck_progression(envelope, 500, seed=1)
    assert report['divergences'] == []


@pytest.mark.xfail(strict=True, reason=ENVELOPE_DIVERGENCE)
def test_check_bob_steps_alike_when_alice_doubts_bob(envelope):
    actions = ground(envelope)
    cp = compile_problem(envelope, actions)
    fluent_set = frozenset(cp.fluents)
    idx = [a.label for a in actions].index('(check bob)')
    state = closure(PEKB(rmls('P_alice B_bob !secret')))
    [semantic] = successors(state, actions[idx], envelope.depth,
                            envelope.is_ak)
    compiled = apply(_compiled_state(state, fluent_set), cp.operators[idx])
    assert compiled == _compiled_state(semantic, fluent_set)


def test_crosscheck_reports_closed_states(envelope):
    # the envelope divergence above gives divergent cases to minimise; each
    # reported core must be a state, so it equals its own closure
    report = crosscheck_progression(envelope, 500, seed=11)
    assert report['divergences']
    for divergence in report['divergences']:
        state = PEKB(map(parse_rml, divergence['state']))
        assert closure(state) == state, divergence['state']


def walk_compiled_and_semantic(prob, actions, cp, seed):
    """200 random applicable actions and outcomes, stepped in both models:
    the carried compiled state must stay the projection of the semantic
    one, and both must agree on which actions apply."""
    fluent_set = frozenset(cp.fluents)
    rng = random.Random(seed)
    state = closure(PEKB(prob.initial))
    compiled = cp.init
    assert compiled == _compiled_state(state, fluent_set)
    for _ in range(200):
        usable = [i for i, action in enumerate(actions)
                  if precondition_holds(state, action)]
        assert usable == [i for i, op in enumerate(cp.operators)
                          if applicable(compiled, op)]
        idx = rng.choice(usable)
        nexts = successors(state, actions[idx], prob.depth, prob.is_ak)
        out = rng.randrange(len(nexts))
        state = nexts[out]
        compiled = apply(compiled, cp.operators[idx], out)
        assert compiled == _compiled_state(state, fluent_set)


def test_compiled_state_carried_along_a_walk_stays_the_projection():
    # with awareness on, at depth 1
    prob = load('grapevine', 'prob-4ag-2g-1d.pdkbddl')
    actions = ground(prob)
    walk_compiled_and_semantic(prob, actions, compile_problem(prob, actions),
                               seed=1)


@pytest.fixture(scope='module')
def grapevine_2d():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    actions = ground(prob)
    return prob, actions, compile_problem(prob, actions)


@pytest.mark.parametrize('seed', range(4))
def test_depth_2_compiled_state_carried_along_a_walk_stays_the_projection(
        grapevine_2d, seed):
    # awareness copies nest here: a spurious uncertain delete in either
    # model would spread into the other agents' beliefs
    walk_compiled_and_semantic(*grapevine_2d, seed=seed)


# ---------------------------------------------------------------------------
# awareness expansion: the validator and the compiler apply one rule


def rmls(*texts):
    return [parse_rml(t) for t in texts]


def not_ak(atom):
    return False


def is_k(atom):
    return atom.predicate.startswith('k')


def awareness_copies(base, awareness, depth, is_ak=not_ak):
    """The awareness copies of one base effect, from the validator and
    from the compiler, as (condition, literal) pairs.

    The compiler's adds also hold closure-rule weakenings and copies of
    other ancillary effects, so its side keeps only the literals the
    validator spawned; it also returns the compiler's truncation record.
    """
    spawned = expand_outcome([base], awareness, depth, is_ak) - {base}
    semantic = {(CompiledCondition(ce.condition_pos, ce.condition_neg),
                 ce.effect) for ce in spawned}
    pair = (CompiledCondition(base.condition_pos, base.condition_neg),
            base.effect)
    outcome = ((frozenset(), frozenset([pair])) if base.delete
               else (frozenset([pair]), frozenset()))
    (adds, _), truncated = apply_ancillary(outcome, awareness, depth, is_ak,
                                           RmlTable())
    literals = {l for _, l in semantic}
    compiled = {(c, l) for c, l in adds if l in literals}
    return semantic, compiled, truncated


def test_awareness_of_a_conditional_add():
    base = ConditionalEffect(rmls('s1'), parse_rml('s2'),
                             condition_neg=rmls('t1'))
    semantic, compiled, _ = awareness_copies(base, {'1': ALWAYS}, 1)
    expected = {(CompiledCondition(rmls('B_1 s1', 'P_1 !t1')),
                 parse_rml('B_1 s2'))}
    assert semantic == expected
    assert compiled == expected


def test_awareness_of_a_delete_is_the_doubting_possibility():
    base = ConditionalEffect((), parse_rml('s1'), delete=True)
    semantic, compiled, _ = awareness_copies(base, {'2': ALWAYS}, 1)
    expected = {(CompiledCondition(), parse_rml('P_2 !s1'))}
    assert semantic == expected
    assert compiled == expected


def test_awareness_skips_deletes_of_the_agents_own_beliefs():
    base = ConditionalEffect((), parse_rml('B_2 s1'), delete=True)
    semantic, compiled, _ = awareness_copies(
        base, {'1': ALWAYS, '2': ALWAYS}, 2)
    expected = {(CompiledCondition(), parse_rml('P_1 P_2 !s1'))}
    assert semantic == expected
    assert compiled == expected


def test_awareness_condition_mu_is_believed_by_the_agent():
    base = ConditionalEffect((), parse_rml('s1'))
    semantic, compiled, _ = awareness_copies(
        base, {'1': parse_rml('t1')}, 1)
    expected = {(CompiledCondition(rmls('B_1 t1')), parse_rml('B_1 s1'))}
    assert semantic == expected
    assert compiled == expected


def test_awareness_passes_ak_conditions_through():
    base = ConditionalEffect(rmls('k1'), parse_rml('s1'),
                             condition_neg=rmls('k2'))
    semantic, compiled, _ = awareness_copies(base, {'1': ALWAYS}, 1,
                                             is_ak=is_k)
    expected = {(CompiledCondition(rmls('k1'), rmls('k2')),
                 parse_rml('B_1 s1'))}
    assert semantic == expected
    assert compiled == expected


def test_awareness_spawns_recursively_up_to_the_depth_bound():
    base = ConditionalEffect(rmls('t1'), parse_rml('s1'))
    semantic, compiled, truncated = awareness_copies(
        base, {'1': ALWAYS, '2': ALWAYS}, 2)
    expected = {(CompiledCondition(rmls(prefix + 't1')),
                 parse_rml(prefix + 's1'))
                for prefix in ('B_1 ', 'B_2 ', 'B_2 B_1 ', 'B_1 B_2 ')}
    assert semantic == expected
    assert compiled == expected
    # the depth-3 copies are cut, and the compiler records each cut
    assert ('1', CompiledCondition(rmls('B_2 B_1 t1')),
            parse_rml('B_2 B_1 s1'), False) in truncated


# ---------------------------------------------------------------------------
# uncertain firing: the validator and the compiler read AK atoms alike


@pytest.mark.parametrize('known', [False, True])
def test_a_false_always_known_condition_blocks_uncertain_firing(known):
    # the add needs k1 and agent 1's belief in t1; with t1 unknown it fires
    # uncertainly and erases the belief in !s1, but only while k1 holds:
    # an absent always-known atom is known false
    add = ConditionalEffect(rmls('k1', 'B_1 t1'), parse_rml('B_1 s1'))
    held = ['B_1 !s1', 'k1'] if known else ['B_1 !s1']
    state = closure(PEKB(rmls(*held)))
    semantic = progress(state, [add], is_k).rmls
    effect = (CompiledCondition(add.condition_pos), add.effect)
    outcome, _ = apply_ancillary((frozenset([effect]), frozenset()), {}, 1,
                                 is_k, RmlTable())
    op = CompiledOperator('op', (), CompiledCondition(), (outcome,))
    assert apply(state.rmls, op) == semantic
    assert (parse_rml('B_1 !s1') in semantic) is not known
