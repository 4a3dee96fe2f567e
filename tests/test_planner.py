"""Internal search, policy search, and the external planner adapter."""

import heapq
import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys
from collections import deque

import pytest

from pdkb.compiler import (CompiledCondition, CompiledOperator,
                           CompiledProblem, compile_problem)
from pdkb.model import ground
from pdkb.parser import desugar, parse_file, parse_text
from pdkb.planner import (DEFAULT_STATE_CAP, Packing, PlanInvalid,
                          PlanParseError, PlannerFailure,
                          PreconditionViolated, ResourceLimit, apply,
                          applicable, expand, goal_components,
                          parse_plan_file, relevant_operators, solve_andor,
                          solve_bfs, solve_external, successor,
                          successor_table, validate_plan)
from pdkb.rml import Proposition, format_rml, lit
from pdkb.validator import STRONG_VALID, assess_plan, verify_policy

from test_compiler import benchmark_problems, lossy_gossip_texts

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')


def compiled(*parts):
    prob = desugar(parse_file(os.path.join(BENCH, *parts)))
    return prob, compile_problem(prob, ground(prob))


@pytest.fixture(scope='module')
def envelope():
    return compiled('envelope', 'envelope.pdkbddl')


@pytest.fixture(scope='module')
def grapevine_2g():
    return compiled('grapevine', 'prob-4ag-2g-1d.pdkbddl')


# ---------------------------------------------------------------------------
# state transition


def test_apply_requires_the_precondition(envelope):
    _, cp = envelope
    prob2, cp2 = compiled('misc', 'negation-removal.pdkbddl')
    check = [op for op in cp2.operators if op.name == 'check'][0]
    assert not applicable(cp2.init, check)
    with pytest.raises(PreconditionViolated):
        apply(cp2.init, check)


def test_apply_evaluates_conditions_on_the_pre_state(envelope):
    _, cp = envelope
    check_bob = [op for op in cp.operators
                 if (op.name, op.args) == ('check', ('bob',))][0]
    succ = apply(cp.init, check_bob)
    from pdkb.rml import parse_rml
    assert parse_rml('B_bob secret') in succ
    assert parse_rml('P_bob !secret') not in succ
    # the secret itself is untouched
    assert parse_rml('secret') in succ


def test_add_wins_over_delete():
    # negation-removal's apply both deletes and re-adds nothing conflicting;
    # construct the race directly instead
    p = lit(Proposition('p'))
    cond = CompiledCondition()
    op = CompiledOperator('t', (), cond,
                          ((frozenset([(cond, p)]), frozenset([(cond, p)])),))
    assert p in apply(frozenset(), op)


# ---------------------------------------------------------------------------
# classical search


def test_bfs_finds_the_shortest_envelope_plan(envelope):
    _, cp = envelope
    plan = solve_bfs(cp)
    assert [op.label for op in plan] == ['(check bob)', '(check alice)']


def test_bfs_solves_negation_removal():
    _, cp = compiled('misc', 'negation-removal.pdkbddl')
    plan = solve_bfs(cp)
    assert [op.label for op in plan] == ['(apply)', '(check)']


def test_bfs_optimal_on_grapevine_2g(grapevine_2g):
    _, cp = grapevine_2g
    plan = solve_bfs(cp)
    assert len(plan) == 4


def test_bfs_proves_unsolvability():
    _, cp = compiled('misc', 'unsolvable.pdkbddl')
    assert solve_bfs(cp) is None


def test_bfs_respects_the_state_cap(grapevine_2g):
    _, cp = grapevine_2g
    with pytest.raises(ResourceLimit):
        solve_bfs(cp, max_states=5)


def test_bfs_empty_plan_when_goal_already_holds(envelope):
    prob, cp = envelope
    solved = CompiledProblem(cp.fluents, cp.init,
                             type(cp.goal)((), ()), cp.operators,
                             cp.flavor, cp.report)
    assert solve_bfs(solved) == []


def test_bfs_is_deterministic(grapevine_2g):
    _, cp = grapevine_2g
    first = [op.label for op in solve_bfs(cp)]
    second = [op.label for op in solve_bfs(cp)]
    assert first == second


# ---------------------------------------------------------------------------
# AND-OR search


def test_ask_domain_has_a_strong_policy():
    _, cp = compiled('misc', 'ask.pdkbddl')
    policy = solve_andor(cp)
    assert policy.classification == 'Strong'
    assert cp.init in policy.mapping
    assert policy.mapping[cp.init].name == 'ask'


def test_coin_is_only_strong_cyclic():
    _, cp = compiled('misc', 'coin.pdkbddl')
    assert solve_andor(cp).classification == 'StrongCyclic'
    assert solve_andor(cp, acyclic_only=True) is None


def test_unsolvable_has_no_policy():
    _, cp = compiled('misc', 'unsolvable.pdkbddl')
    assert solve_andor(cp) is None


def test_a_goal_initial_state_needs_an_empty_policy():
    prob = desugar(parse_text("""
(define (domain d) (:agents a) (:predicates {AK}(lit))
  (:action flip :effect (oneof (and (lit)) (and (!lit)))))
(define (problem x) (:domain d) (:init (lit)) (:goal (lit)))
"""))
    stats = {}
    policy = solve_andor(compile_problem(prob, ground(prob)), stats=stats)
    assert policy.classification == 'Strong'
    assert policy.mapping == {}
    assert stats['states'] == 1


# ---------------------------------------------------------------------------
# external adapter


def _stub(tmp_path, body):
    script = tmp_path / 'planner.sh'
    script.write_text('#!/bin/sh\n' + body + '\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_external_planner_round_trip(envelope, tmp_path):
    _, cp = envelope
    reference = solve_bfs(cp)
    plan_text = ''.join('(%s)\n' % '__'.join((op.name,) + op.args)
                        for op in reference)
    canned = tmp_path / 'canned.txt'
    canned.write_text(plan_text)
    script = _stub(tmp_path, 'cp %s "$3"' % canned)
    plan = solve_external(cp, script + ' {domain} {problem} {plan}')
    assert [op.label for op in plan] == [op.label for op in reference]


def test_external_planner_nonzero_exit(envelope, tmp_path):
    _, cp = envelope
    script = _stub(tmp_path, 'exit 7')
    with pytest.raises(PlannerFailure):
        solve_external(cp, script + ' {domain} {problem} {plan}')


def test_external_planner_missing_plan_file(envelope, tmp_path):
    _, cp = envelope
    script = _stub(tmp_path, 'exit 0')
    with pytest.raises(PlannerFailure):
        solve_external(cp, script + ' {domain} {problem} {plan}')


def test_external_template_must_have_placeholders(envelope):
    _, cp = envelope
    with pytest.raises(PlannerFailure):
        solve_external(cp, 'true')


def test_plan_file_parsing(envelope):
    _, cp = envelope
    plan = parse_plan_file('; comment\n(check__bob)\n\n(check alice)\n',
                           cp.operators)
    assert [op.label for op in plan] == ['(check bob)', '(check alice)']
    with pytest.raises(PlanParseError):
        parse_plan_file('check bob', cp.operators)
    with pytest.raises(PlanParseError):
        parse_plan_file('(frobnicate)', cp.operators)
    # the ``name__arg`` symbol takes no further arguments
    with pytest.raises(PlanParseError):
        parse_plan_file('(check__bob alice)', cp.operators)
    _, coin = compiled('misc', 'coin.pdkbddl')
    assert [op.label for op in parse_plan_file('(flip)', coin.operators)] \
        == ['(flip)']
    with pytest.raises(PlanParseError):
        parse_plan_file('(flip bogus extra)', coin.operators)


def test_plan_validation_names_the_failing_step():
    _, cp = compiled('misc', 'negation-removal.pdkbddl')
    check = [op for op in cp.operators if op.name == 'check'][0]
    apply_op = [op for op in cp.operators if op.name == 'apply'][0]
    with pytest.raises(PlanInvalid, match='step 0'):
        validate_plan(cp, [check, apply_op])
    with pytest.raises(PlanInvalid, match='goal'):
        validate_plan(cp, [apply_op])


# ---------------------------------------------------------------------------
# packed search behaviour


@pytest.mark.parametrize('goals,counts,plan', [
    ('2g', (8, 45, 2), ['(initialize)', '(move c l2 l1)', '(share a a l1)',
                        '(share b b l1)']),
    ('4g', (48, 233, 2), ['(initialize)', '(move a l1 l2)', '(move d l3 l2)',
                          '(share a a l2)', '(move b l1 l2)',
                          '(share b b l2)']),
    ('8g', (71, 325, 4), ['(initialize)', '(move c l2 l1)',
                          '(share c c l1)', '(move d l3 l2)',
                          '(move d l2 l1)', '(share a a l1)',
                          '(share b b l1)', '(share d d l1)']),
])
def test_bfs_plans_and_counts_on_grapevine(goals, counts, plan):
    # expanded and generated states, and goal groups
    _, cp = compiled('grapevine', 'prob-4ag-%s-1d.pdkbddl' % goals)
    stats = {}
    found = solve_bfs(cp, stats=stats)
    assert (stats['expanded'], stats['states'], stats['components']) \
        == counts
    assert [op.label for op in found] == plan


def test_bfs_counts_the_initial_state_when_it_is_a_goal(envelope):
    _, cp = envelope
    solved = CompiledProblem(cp.fluents, cp.init, type(cp.goal)((), ()),
                             cp.operators, cp.flavor, cp.report)
    stats = {}
    assert solve_bfs(solved, stats=stats) == []
    assert stats == {'expanded': 0, 'states': 1}


def _toy_problem(init, goal, operators, avoid=''):
    """A compiled problem over fluents ``g``, ``h``, ``x`` and ``y``
    whose goal holds the fluents ``goal`` and none of ``avoid``;
    ``operators`` maps a name to its precondition and its adds and
    deletes, each a list of ``(condition, fluent)`` pairs whose condition
    is ``(pos, neg)`` fluent names."""
    fluent = {name: lit(Proposition(name)) for name in 'ghxy'}

    def cond(pos=(), neg=()):
        return CompiledCondition([fluent[n] for n in pos],
                                 [fluent[n] for n in neg])

    def effects(pairs):
        return frozenset((cond(*c), fluent[n]) for c, n in pairs)

    ops = [CompiledOperator(name, (), cond(*pre),
                            ((effects(adds), effects(dels)),))
           for name, (pre, adds, dels) in operators.items()]
    return CompiledProblem(fluent.values(), [fluent[n] for n in init],
                           cond(goal, avoid), ops, 'classical', {})


def test_bfs_keeps_an_operator_that_blocks_a_harmful_delete():
    # finish adds h but deletes g unless x holds: only set-x, which adds
    # x and nothing any goal or precondition names, makes the plan work
    cp = _toy_problem('g', 'gh', {
        'set-x': ((), [((), 'x')], []),
        'finish': ((), [((), 'h')], [(((), 'x'), 'g')]),
    })
    packing = Packing(cp.fluents, cp.operators)
    assert relevant_operators(packing.operators,
                              packing.condition(cp.goal)) == [0, 1]
    stats = {}
    assert [op.name for op in solve_bfs(cp, stats=stats)] == \
        ['set-x', 'finish']
    assert stats['pruned'] == 0


def test_bfs_drops_an_operator_whose_adds_nothing_needs():
    cp = _toy_problem('', 'h', {
        'set-y': ((), [((), 'y')], []),
        'finish': ((), [((), 'h')], []),
    })
    packing = Packing(cp.fluents, cp.operators)
    assert relevant_operators(packing.operators,
                              packing.condition(cp.goal)) == [1]
    stats = {}
    assert [op.name for op in solve_bfs(cp, stats=stats)] == ['finish']
    assert stats == {'pruned': 1, 'components': 1, 'expanded': 1,
                     'states': 2}


def test_one_operator_that_can_make_two_goal_literals_true_joins_them():
    # both adds g and, when x holds, deletes y, so g and !y are one group
    # and h is another; finish completes a group at once, so A* takes it
    # first
    cp = _toy_problem('y', 'gh', {
        'set-x': ((), [((), 'x')], []),
        'both': ((), [((), 'g')], [(('x',), 'y')]),
        'finish': ((), [((), 'h')], []),
    }, avoid='y')
    packing = Packing(cp.fluents, cp.operators)
    goal = packing.condition(cp.goal)
    g, h, y = (packing.encode([f])
               for f in sorted(cp.goal.pos | cp.goal.neg, key=format_rml))
    assert sorted(goal_components(packing.operators, goal)) \
        == sorted([(g, y), (h, 0)])
    stats = {}
    plan = solve_bfs(cp, stats=stats)
    assert [op.name for op in plan] == ['finish', 'set-x', 'both']
    assert stats['components'] == 2
    assert len(reference_bfs(cp, DEFAULT_STATE_CAP, {})) == len(plan)


def reference_step(state, op, outcome_index=0):
    """Frozenset successor: every effect's condition tested on its own."""
    adds, dels = op.outcomes[outcome_index]
    fired_dels = {l for cond, l in dels if cond.satisfied(state)}
    fired_adds = {l for cond, l in adds if cond.satisfied(state)}
    return frozenset((state - fired_dels) | fired_adds)


@pytest.fixture(scope='module')
def grapevine_2g_2d():
    # compiled with awareness: 897 distinct effect conditions
    return compiled('grapevine', 'prob-4ag-2g-2d.pdkbddl')


@pytest.fixture(scope='module')
def coin():
    return compiled('misc', 'coin.pdkbddl')


@pytest.fixture(scope='module')
def ask():
    return compiled('misc', 'ask.pdkbddl')


@pytest.fixture(scope='module')
def negation_removal():
    # the one benchmark problem with a negative precondition
    return compiled('misc', 'negation-removal.pdkbddl')


@pytest.mark.parametrize('name', ['grapevine_2g_2d', 'coin', 'ask',
                                  'negation_removal'])
def test_packed_step_matches_the_frozenset_rule_on_a_random_walk(name,
                                                                 request):
    _, cp = request.getfixturevalue(name)
    packing = Packing(cp.fluents, cp.operators)
    table = successor_table(packing.operators)
    # fluents that no precondition reads and no outcome reads or writes:
    # flipping them keeps every memo key of the successor table and
    # changes the state
    keyed = 0
    for pre_pos, pre_neg, outcomes in packing.operators:
        keyed |= pre_pos | pre_neg
        for _, adds, dels, groups in outcomes:
            keyed |= adds | dels
            for pos, neg, a, d in groups:
                keyed |= pos | neg | a | d
    free = ((1 << len(packing.fluents)) - 1) & ~keyed
    assert free

    def direct(packed):
        state = packing.decode(packed)
        return [(i, tuple(successor(packed, o)
                          for o in packing.operators[i].outcomes))
                for i, op in enumerate(cp.operators)
                if applicable(state, op)]

    rng = random.Random(7)
    state = cp.init
    for _ in range(200):
        usable = [i for i, op in enumerate(cp.operators)
                  if applicable(state, op)]
        packed = packing.encode(state)
        assert expand(table, packed) == direct(packed)
        assert expand(table, packed ^ free) == direct(packed ^ free)
        entries = {idx: outs for run_mask, usable_at in table
                   for idx, _, outs in usable_at[packed & run_mask]}
        assert list(entries) == usable
        if not usable:
            state = cp.init
            continue
        for idx in usable:
            op = cp.operators[idx]
            packed_op = packing.operators[idx]
            for out, (mask, deltas) in enumerate(entries[idx]):
                expected = reference_step(state, op, out)
                assert packing.decode(successor(
                    packed, packed_op.outcomes[out])) == expected
                # a zero delta is exactly a self-loop
                assert (deltas[packed & mask] == 0) == (expected == state)
        op = cp.operators[rng.choice(usable)]
        out = rng.randrange(len(op.outcomes))
        assert apply(state, op, out) == reference_step(state, op, out)
        state = apply(state, op, out)


_BENCHMARK_PROBLEMS = benchmark_problems()


@pytest.mark.parametrize('name', sorted(_BENCHMARK_PROBLEMS))
def test_compiled_problems_are_closed_over_their_fluents(name):
    # Packing numbers only cp.fluents, so every literal of the compiled
    # problem must be one of them
    prob = _BENCHMARK_PROBLEMS[name]()
    cp = compile_problem(prob, ground(prob))
    used = set(cp.init) | cp.goal.pos | cp.goal.neg
    for op in cp.operators:
        used |= op.precondition.pos | op.precondition.neg
        for outcome in op.outcomes:
            for effects in outcome:
                for cond, f in effects:
                    used |= cond.pos | cond.neg
                    used.add(f)
    assert used <= set(cp.fluents)


def test_each_distinct_outcome_is_packed_once(grapevine_2g_2d):
    _, cp = grapevine_2g_2d
    packing = Packing(cp.fluents, cp.operators)
    packed = {}
    for op, packed_op in zip(cp.operators, packing.operators):
        for outcome, packed_outcome in zip(op.outcomes, packed_op.outcomes):
            assert packed.setdefault(id(outcome),
                                     packed_outcome) is packed_outcome
    assert (len(cp.operators), len(packed)) == (133, 61)
    assert len({id(outcome) for packed_op in packing.operators
                for outcome in packed_op.outcomes}) == 61


def reference_packing(fluents, op):
    """``op`` packed outcome by outcome from its frozensets: its
    precondition masks, then per outcome the mask of every bit it reads or
    writes, the unconditional add and delete masks and the set of
    ``(cond_pos, cond_neg, adds, dels)`` entries, one per distinct
    condition."""
    index = {f: i for i, f in enumerate(fluents)}

    def encode(literals):
        return sum(1 << index[f] for f in literals)

    outcomes = []
    for outcome in op.outcomes:
        groups = {}
        for kind, effects in enumerate(outcome):
            for cond, f in effects:
                groups.setdefault(cond, [0, 0])[kind] |= 1 << index[f]
        mask = adds = dels = 0
        entries = set()
        for cond, (a, d) in groups.items():
            pos, neg = encode(cond.pos), encode(cond.neg)
            mask |= pos | neg | a | d
            if pos | neg:
                entries.add((pos, neg, a, d))
            else:
                adds, dels = a, d
        outcomes.append((mask, adds, dels, entries))
    return (encode(op.precondition.pos), encode(op.precondition.neg),
            outcomes)


@pytest.mark.parametrize('depth', [None, 2])
@pytest.mark.parametrize('name', sorted(_BENCHMARK_PROBLEMS))
def test_packing_from_the_template_matches_packing_the_sets(name, depth):
    prob = _BENCHMARK_PROBLEMS[name]()
    if depth is not None:
        prob.depth = depth
    cp = compile_problem(prob, ground(prob))
    packing = Packing(cp.fluents, cp.operators)
    for op, packed in zip(cp.operators, packing.operators):
        pre_pos, pre_neg, outcomes = reference_packing(cp.fluents, op)
        assert (packed.pre_pos, packed.pre_neg) == (pre_pos, pre_neg), op
        assert [(mask, adds, dels, set(entries))
                for mask, adds, dels, entries in packed.outcomes] \
            == outcomes, op


def reference_bfs(cp, max_states, stats):
    """Breadth-first search without the successor table: every
    operator's precondition tested at every expansion, and the first
    outcome of each applicable one stepped by ``successor``."""
    packing = Packing(cp.fluents, cp.operators)
    init = packing.encode(cp.init)
    goal_pos, goal_neg = packing.condition(cp.goal)

    def is_goal(state):
        return state & goal_pos == goal_pos and not state & goal_neg

    if is_goal(init):
        stats.update(expanded=0, states=1)
        return []
    seen = {init: None}
    frontier = deque([init])
    expanded = 0
    while frontier:
        state = frontier.popleft()
        expanded += 1
        for idx, (pre_pos, pre_neg, outcomes) in enumerate(
                packing.operators):
            if state & pre_pos != pre_pos or state & pre_neg:
                continue
            succ = successor(state, outcomes[0])
            if succ in seen:
                continue
            seen[succ] = state, idx
            stats.update(expanded=expanded, states=len(seen))
            if is_goal(succ):
                plan = []
                while seen[succ] is not None:
                    succ, idx = seen[succ]
                    plan.append(cp.operators[idx])
                return plan[::-1]
            if len(seen) > max_states:
                raise ResourceLimit('state cap', stats)
            frontier.append(succ)
    stats.update(expanded=expanded, states=len(seen))
    return None


def reference_astar(cp, max_states, stats, edges=None):
    """A* without the successor table: every operator's precondition
    tested at every expansion, and the first outcome of each applicable
    one stepped by ``successor``. States leave the queue in ``(g + h,
    h)`` order, first in first out within a key, where ``h`` counts the
    goal groups with a false literal; the groups are joined on literal
    sets whenever one first outcome adds or deletes literals of two.
    ``edges``, when given, receives every generated ``(state,
    successor)`` pair that is no self-loop."""
    packing = Packing(cp.fluents, cp.operators)
    init = packing.encode(cp.init)
    groups = [{(True, f)} for f in cp.goal.pos] \
        + [{(False, f)} for f in cp.goal.neg]
    for op in cp.operators:
        adds, dels = op.outcomes[0]
        made = {(True, f) for _, f in adds} | {(False, f) for _, f in dels}
        joined = [group for group in groups if group & made]
        if joined:
            groups = [group for group in groups if not group & made]
            groups.append(set().union(*joined))
    masks = [(packing.encode(f for holds, f in group if holds),
              packing.encode(f for holds, f in group if not holds))
             for group in groups]

    def bound(state):
        return sum(state & pos != pos or state & neg != 0
                   for pos, neg in masks)

    if not bound(init):
        stats.update(expanded=0, states=1)
        return []
    stats['components'] = len(groups)
    parents = {init: None}
    cost = {init: 0}
    ties = itertools.count()
    queue = [(bound(init), bound(init), next(ties), init)]
    expanded = 0
    while queue:
        f, h, _, state = heapq.heappop(queue)
        if f - h > cost[state]:
            continue
        expanded += 1
        g = f - h + 1
        for idx, (pre_pos, pre_neg, outcomes) in enumerate(
                packing.operators):
            if state & pre_pos != pre_pos or state & pre_neg:
                continue
            succ = successor(state, outcomes[0])
            if succ == state:
                continue
            if edges is not None:
                edges.append((state, succ))
            if succ in cost and cost[succ] <= g:
                continue
            parents[succ] = state, idx
            cost[succ] = g
            stats.update(expanded=expanded, states=len(parents))
            h = bound(succ)
            if not h:
                plan = []
                while parents[succ] is not None:
                    succ, idx = parents[succ]
                    plan.append(cp.operators[idx])
                return plan[::-1]
            if len(parents) > max_states:
                raise ResourceLimit('state cap', stats)
            heapq.heappush(queue, (g + h, h, next(ties), succ))
    stats.update(expanded=expanded, states=len(parents))
    return None


def _classical_inputs():
    """(path under benchmarks/, flavor) of every classical problem there,
    and of coin and lossy-3ag-2l compiled classical, so that the classical
    search takes their first outcomes."""
    inputs = []
    for name in sorted(_BENCHMARK_PROBLEMS):
        path = os.path.join(BENCH, name)
        if os.path.exists(path):
            with open(path, encoding='utf-8') as handle:
                if 'oneof' not in handle.read():
                    inputs.append((name, None))
    return inputs + [('misc/coin.pdkbddl', 'classical'),
                     ('misc/lossy-3ag-2l.pdkbddl', 'classical')]


def _bfs_outcome(search, cp, max_states):
    """The plan's labels (or None) and the stats, or 'cap' and the stats
    the state cap raised with."""
    stats = {}
    try:
        plan = search(cp, max_states=max_states, stats=stats)
    except ResourceLimit as info:
        return 'cap', info.stats
    return None if plan is None else [op.label for op in plan], stats


def _kept(cp):
    """``cp`` with only the operators ``relevant_operators`` keeps."""
    packing = Packing(cp.fluents, cp.operators)
    kept = relevant_operators(packing.operators,
                              packing.condition(cp.goal))
    return CompiledProblem(cp.fluents, cp.init, cp.goal,
                           [cp.operators[idx] for idx in kept],
                           cp.flavor, cp.report)


def _without(stats, *keys):
    return {key: value for key, value in stats.items() if key not in keys}


@pytest.mark.parametrize('name,flavor', _classical_inputs())
def test_bfs_matches_the_search_without_the_table(name, flavor):
    prob = _BENCHMARK_PROBLEMS[name]()
    cp = compile_problem(prob, ground(prob), flavor=flavor)
    kept = _kept(cp)
    plan, stats = _bfs_outcome(solve_bfs, cp, DEFAULT_STATE_CAP)
    assert (plan, _without(stats, 'pruned')) \
        == _bfs_outcome(reference_astar, kept, DEFAULT_STATE_CAP)
    # the state cap raises at the same count with the same stats
    for cap in (0, stats['states'] // 2):
        plan_at_cap, stats_at_cap = _bfs_outcome(solve_bfs, cp, cap)
        assert (plan_at_cap, _without(stats_at_cap, 'pruned')) \
            == _bfs_outcome(reference_astar, kept, cap)
    # pruning and the bound keep the search optimal: breadth-first search
    # over all operators gives a plan of the same length, or none
    unpruned, _ = _bfs_outcome(reference_bfs, cp, DEFAULT_STATE_CAP)
    assert (unpruned is None) == (plan is None)
    if plan is not None:
        assert len(unpruned) == len(plan)


@pytest.mark.parametrize('name,flavor', _classical_inputs())
def test_the_goal_component_bound_is_consistent(name, flavor):
    # on every edge the search generates, and 0 exactly at goal states
    prob = _BENCHMARK_PROBLEMS[name]()
    kept = _kept(compile_problem(prob, ground(prob), flavor=flavor))
    packing = Packing(kept.fluents, kept.operators)
    goal_pos, goal_neg = goal = packing.condition(kept.goal)
    groups = goal_components(packing.operators, goal)

    def bound(state):
        return sum(state & pos != pos or state & neg != 0
                   for pos, neg in groups)

    edges = []
    reference_astar(kept, DEFAULT_STATE_CAP, {}, edges)
    for state, succ in edges:
        assert bound(state) <= 1 + bound(succ)
    for state in {state for edge in edges for state in edge}:
        assert (bound(state) == 0) \
            == (state & goal_pos == goal_pos and not state & goal_neg)


@pytest.mark.parametrize('name', ['envelope', 'coin', 'ask',
                                  'negation_removal'])
def test_one_goal_group_searches_breadth_first(name, request):
    _, cp = request.getfixturevalue(name)
    plan, stats = _bfs_outcome(solve_bfs, cp, DEFAULT_STATE_CAP)
    assert stats['components'] == 1
    assert (plan, _without(stats, 'pruned', 'components')) \
        == _bfs_outcome(reference_bfs, _kept(cp), DEFAULT_STATE_CAP)


def _goal_subsets(directory):
    """Paths of depth-1 gossip problems in ``directory`` whose goals are
    seeded subsets of two or three of the 8-goal problem's beliefs, each
    asked as it is, believed false, or as a negated possibility."""
    with open(os.path.join(BENCH, 'grapevine', 'prob-4ag-8g-1d.pdkbddl'),
              encoding='utf-8') as handle:
        beliefs = re.findall(r'\[(\w+)\]\(secret (\w+)\)', handle.read())
    forms = ('[%s](secret %s)', '[%s](!secret %s)',
             '(not <%s>(!secret %s))')
    grapevine = os.path.abspath(os.path.join(BENCH, 'grapevine'))
    rng = random.Random(5)
    paths = []
    for case in range(12):
        goal = ' '.join(rng.choice(forms) % belief for belief
                        in rng.sample(beliefs, rng.randint(2, 3)))
        path = os.path.join(directory, 'subset-%d.pdkbddl' % case)
        with open(path, 'w', encoding='utf-8') as handle:
            handle.write(
                '{include:%s/domain-4ag.pdkbddl}\n(define (problem subset)'
                ' {include:%s/problem-setup-1d.pdkbddl} (:depth 1)'
                ' (:goal %s))\n' % (grapevine, grapevine, goal))
        paths.append(path)
    return paths


def test_astar_plans_are_optimal_and_strong_valid(tmp_path):
    # the goal subsets re-queue states reached again more cheaply; lossy
    # gossip is searched on its first outcomes, where every message
    # arrives, so its plans are assessed on the problem without the lost
    # outcome
    cases = []
    for name, text in lossy_gossip_texts(range(1, 21)):
        prob = desugar(parse_text(text))
        certain = desugar(parse_text(text.replace('(oneof', '(and', 1)))
        cases.append((prob, certain))
    for path in _goal_subsets(tmp_path):
        prob = desugar(parse_file(path))
        cases.append((prob, prob))
    for prob, certain in cases:
        cp = compile_problem(prob, ground(prob), flavor='classical')
        kept = _kept(cp)
        stats = {}
        plan = solve_bfs(cp, stats=stats)
        assert ([op.label for op in plan], _without(stats, 'pruned')) \
            == _bfs_outcome(reference_astar, kept, DEFAULT_STATE_CAP)
        assert len(plan) == len(reference_bfs(kept, DEFAULT_STATE_CAP, {}))
        steps = [(op.name,) + op.args for op in plan]
        assert assess_plan(certain, plan=steps).verdict == STRONG_VALID


def _mapping(policy):
    return {frozenset(map(format_rml, state)): op.label
            for state, op in policy.mapping.items()}


def test_andor_policies_on_coin_and_ask(coin, ask):
    assert _mapping(solve_andor(coin[1])) == {
        frozenset(): '(flip)', frozenset(['!heads']): '(flip)'}
    expected = {
        frozenset(['B_a raining', 'P_a raining']): '(report-yes)',
        frozenset(['B_a !raining', 'P_a !raining']): '(report-no)',
        frozenset(['P_a !raining', 'P_a raining']): '(ask)'}
    assert _mapping(solve_andor(ask[1])) == expected
    assert _mapping(solve_andor(ask[1], acyclic_only=True)) == expected


# solved in this order in one process, each must equal a solve in a fresh
# interpreter: no memo of the successor table may outlive its search
_SEARCHES = [(('grapevine', 'prob-4ag-8g-1d.pdkbddl'), 'bfs'),
             (('grapevine', 'prob-4ag-2g-1d.pdkbddl'), 'bfs'),
             (('misc', 'lossy-3ag-2l.pdkbddl'), 'and-or'),
             (('misc', 'coin.pdkbddl'), 'and-or')]

_FRESH_SOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_planner import search_summary
print(json.dumps(search_summary(*json.loads(sys.argv[2]))))
"""


def search_summary(parts, search):
    """The plan or policy of a fresh compile, and the search's stats, as
    JSON values."""
    _, cp = compiled(*parts)
    stats = {}
    if search == 'bfs':
        return [op.label for op in solve_bfs(cp, stats=stats)], stats
    policy = solve_andor(cp, stats=stats)
    return (sorted([sorted(state), label]
                   for state, label in _mapping(policy).items()),
            policy.classification, stats)


def test_no_memo_outlives_a_search():
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [os.path.join(HERE, '..', 'src')]
        + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    in_turn = [search_summary(parts, search) for parts, search in _SEARCHES]
    for (parts, search), found in zip(_SEARCHES, in_turn):
        proc = subprocess.run(
            [sys.executable, '-c', _FRESH_SOLVE, HERE,
             json.dumps([parts, search])],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(json.dumps(found)) == json.loads(proc.stdout)


_TRAP = """
(define (domain trap)
    (:agents a)
    (:types )
    (:predicates (heads) (ok))

    ; may break the coin for good
    (:action gamble
        :derive-condition   never
        :precondition       (and (ok))
        :effect             (oneof (and (heads)) (and (!ok)))
    )

    (:action flip
        :derive-condition   never
        :precondition       (and (ok))
        :effect             (oneof (and (heads)) (and (!heads)))
    )
)

(define (problem trap-prob)
    (:domain trap)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (ok))
    (:goal (heads))
)
"""


def test_strong_cyclic_search_drops_actions_that_may_dead_end():
    # the first regression takes gamble, whose lost outcome is a dead end;
    # the second, inside the shrunk region, must take flip
    prob = desugar(parse_text(_TRAP))
    stats = {}
    policy = solve_andor(compile_problem(prob, ground(prob)), stats=stats)
    assert _mapping(policy) == {frozenset(['ok']): '(flip)',
                                frozenset(['ok', '!heads']): '(flip)'}
    assert policy.classification == 'StrongCyclic' and stats['rounds'] == 2


def test_andor_reports_its_graph_size(coin, ask):
    # coin: the strong phase expands 2 and discovers 3 states over 1 pair
    # (flip at !heads may land on its own state), then the strong-cyclic
    # phase expands 2 and discovers 3 over 2 pairs
    stats = {}
    solve_andor(coin[1], stats=stats)
    assert stats == {'expanded': 4, 'states': 6, 'edges': 3, 'rounds': 1}
    _, cp = ask
    stats = {}
    solve_andor(cp, stats=stats)
    assert stats == {'expanded': 3, 'states': 5, 'edges': 3, 'rounds': 0}
    with pytest.raises(ResourceLimit) as info:
        solve_andor(cp, max_states=1)
    assert info.value.stats['states'] == 2


# ---------------------------------------------------------------------------
# the full-graph search, kept as the oracle of the envelope search


def _reachable_graph(ops, init):
    """Forward-reachable packed states, in breadth-first order, and
    their (op index, successor tuple) edges."""
    edges = {init: None}
    frontier = deque([init])
    while frontier:
        state = frontier.popleft()
        outgoing = []
        for idx, (pre_pos, pre_neg, outcomes) in enumerate(ops):
            if state & pre_pos != pre_pos or state & pre_neg:
                continue
            succs = tuple(successor(state, o) for o in outcomes)
            outgoing.append((idx, succs))
            for succ in succs:
                if succ not in edges:
                    edges[succ] = None
                    frontier.append(succ)
        edges[state] = outgoing
    return edges


def oracle_classification(cp, acyclic_only=False):
    """Classification by a strong, then a strong-cyclic regression over
    the whole reachable graph, the region shrinking to the solved states
    until it stops changing."""
    packing = Packing(cp.fluents, cp.operators)
    init = packing.encode(cp.init)
    goal_pos, goal_neg = packing.condition(cp.goal)
    edges = _reachable_graph(packing.operators, init)
    goals = {s for s in edges
             if s & goal_pos == goal_pos and not s & goal_neg}
    preds = {}
    for state in edges:
        if state not in goals:
            for _, succs in edges[state]:
                for t in set(succs):
                    preds.setdefault(t, []).append((state, succs))

    def regress(inside, strong):
        solved = set(goals)
        queue = deque(goals)
        while queue:
            for state, succs in preds.get(queue.popleft(), ()):
                if state not in solved and state in inside and all(
                        s in (solved if strong else inside) for s in succs):
                    solved.add(state)
                    queue.append(state)
        return solved

    if init in regress(edges, True):
        return 'Strong'
    if acyclic_only:
        return None
    region = set(edges)
    while True:
        solved = regress(region, False)
        if solved == region:
            break
        region = solved
    return 'StrongCyclic' if init in solved else None


def _oracle_inputs():
    """(name, text) of the misc FOND problems, the trap and the generated
    lossy-gossip problems of seeds 1-3."""
    texts = [('trap', _TRAP)]
    for name in ('coin', 'ask', 'unsolvable', 'lossy-3ag-2l'):
        with open(os.path.join(BENCH, 'misc', name + '.pdkbddl'),
                  encoding='utf-8') as handle:
            texts.append((name, handle.read()))
    return texts + lossy_gossip_texts()


_ORACLE_INPUTS = _oracle_inputs()


def _reached(cp, mapping):
    """States reached from init when every mapped state takes its action."""
    reached = set()
    stack = [cp.init]
    while stack:
        state = stack.pop()
        if state not in reached:
            reached.add(state)
            op = mapping.get(state)
            if op is not None:
                stack.extend(apply(state, op, i)
                             for i in range(len(op.outcomes)))
    return reached


@pytest.mark.parametrize('text', [text for _, text in _ORACLE_INPUTS],
                         ids=[name for name, _ in _ORACLE_INPUTS])
def test_envelope_search_classifies_as_the_full_graph_search(text):
    prob = desugar(parse_text(text))
    cp = compile_problem(prob, ground(prob))
    for acyclic_only in (False, True):
        policy = solve_andor(cp, acyclic_only=acyclic_only)
        found = policy.classification if policy else None
        assert found == oracle_classification(cp, acyclic_only)
        if policy is not None:
            # closed from init: exactly the reached non-goal states
            assert set(policy.mapping) == {
                s for s in _reached(cp, policy.mapping)
                if not cp.goal.satisfied(s)}
            assert verify_policy(prob, policy.mapping).verdict \
                == STRONG_VALID


def test_four_agent_lossy_gossip_is_solved_within_20000_states():
    # the full-graph search hit this cap after 20,001 states
    prob, cp = compiled('misc', 'lossy-4ag-3l.pdkbddl')
    policy = solve_andor(cp, max_states=20_000)
    assert policy.classification == 'StrongCyclic'
    assert verify_policy(prob, policy.mapping).verdict == STRONG_VALID
