"""Compiled encoding: ancillary effect cascades, counts, and emission."""

import hashlib
import os
import re

import pytest

from pdkb import compiler
from pdkb.compiler import (CompiledCondition, CompiledOperator,
                           CompiledProblem, NonRootRML, _derive,
                           apply_ancillary, compile_problem, emit_domain,
                           emit_fluent_map, emit_pddl, emit_problem,
                           emit_report, encode_base, fluent_symbol)
from pdkb.model import ALWAYS, GroundAction, GroundingReport, ground
from pdkb.parser import ParseError, desugar, parse_file, parse_text
from pdkb.rml import Proposition, RmlTable, lit, parse_rml, wrap

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')

S1 = Proposition('s1')
T1 = Proposition('t1')


def rml(text):
    return parse_rml(text)


def cond(pos=(), neg=()):
    return CompiledCondition(pos, neg)


def expand(adds=(), dels=(), awareness=None, depth=2):
    outcome, _ = apply_ancillary((frozenset(adds), frozenset(dels)),
                                 awareness or {}, depth, lambda atom: False,
                                 RmlTable())
    return outcome


# ---------------------------------------------------------------------------
# golden cascades


def test_add_belief_cascades_to_possibility_and_deletes():
    adds, dels = expand(adds=[(cond(), rml('B_2 s1'))])
    assert adds == {(cond(), rml('B_2 s1')), (cond(), rml('P_2 s1'))}
    assert dels == {(cond(), rml('P_2 !s1')), (cond(), rml('B_2 !s1'))}


def test_deleting_a_possibility_deletes_the_belief_too():
    adds, dels = expand(dels=[(cond(), rml('P_1 !s2'))])
    assert adds == set()
    assert dels == {(cond(), rml('P_1 !s2')), (cond(), rml('B_1 !s2'))}


def test_uncertain_firing_spawns_negatively_conditioned_deletes():
    c = cond(pos=[rml('B_2 t1')])
    u = cond(neg=[rml('P_2 !t1')])
    adds, dels = expand(adds=[(c, rml('B_2 s1'))])
    assert adds == {(c, rml('B_2 s1')), (c, rml('P_2 s1'))}
    assert dels == {(c, rml('P_2 !s1')), (c, rml('B_2 !s1')),
                    (u, rml('P_2 !s1')), (u, rml('B_2 !s1'))}


def test_awareness_of_a_delete_adds_the_doubting_possibility():
    adds, dels = expand(dels=[(cond(neg=[rml('!t1')]), rml('!s1'))],
                        awareness={'2': ALWAYS})
    assert (cond(pos=[rml('P_2 t1')]), rml('P_2 s1')) in adds


# ---------------------------------------------------------------------------
# awareness details


def test_introspection_exception_skips_own_belief_deletes():
    base_del = (cond(), rml('B_2 s1'))
    adds2, _ = expand(dels=[base_del], awareness={'2': ALWAYS})
    assert adds2 == set()
    adds1, _ = expand(dels=[base_del], awareness={'1': ALWAYS})
    assert (cond(), rml('P_1 P_2 !s1')) in adds1


def test_awareness_condition_wraps_in_belief():
    c = cond(pos=[rml('s1')])
    adds, _ = expand(adds=[(c, rml('s2'))], awareness={'1': ALWAYS})
    assert (cond(pos=[rml('B_1 s1')]), rml('B_1 s2')) in adds


def test_awareness_respects_the_depth_bound():
    adds, _ = expand(adds=[(cond(), rml('B_2 s1'))],
                     awareness={'1': ALWAYS}, depth=1)
    assert not any(l.depth > 1 for _, l in adds)


def test_ak_effects_are_exempt_from_ancillary_rules():
    is_ak = lambda atom: atom.predicate == 'k'
    outcome = (frozenset([(cond(), lit(Proposition('k')))]), frozenset())
    (adds, dels), _ = apply_ancillary(outcome, {'1': ALWAYS}, 2, is_ak,
                                      RmlTable())
    assert adds == {(cond(), lit(Proposition('k')))}
    assert dels == set()


# ---------------------------------------------------------------------------
# whole-problem compilation


def load(*parts):
    return desugar(parse_file(os.path.join(BENCH, *parts)))


def compiled(*parts, **kwargs):
    prob = load(*parts)
    return prob, compile_problem(prob, ground(prob), **kwargs)


def test_envelope_fluent_space_and_init():
    prob, cp = compiled('envelope', 'envelope.pdkbddl')
    assert len(cp.fluents) == 26
    assert len(cp.init) == 13
    assert cp.flavor == 'classical'
    assert cp.goal.pos == {rml('B_bob B_alice secret')}


def test_oneof_yields_fond_flavor():
    prob, cp = compiled('misc', 'coin.pdkbddl')
    assert cp.flavor == 'fond'
    assert len(cp.operators[0].outcomes) == 2


def test_flavor_override_keeps_singleton_outcomes():
    prob, cp = compiled('misc', 'negation-removal.pdkbddl', flavor='fond')
    assert cp.flavor == 'fond'
    assert all(len(op.outcomes) == 1 for op in cp.operators)


def test_report_counts_are_consistent():
    prob, cp = compiled('envelope', 'envelope.pdkbddl')
    r = cp.report
    assert r['fluents'] == r['fluents_regular'] + r['fluents_ak']
    assert r['operators'] == len(cp.operators)
    assert r['version'] == 1


def test_emission_is_deterministic():
    first = compiled('envelope', 'envelope.pdkbddl')[1]
    second = compiled('envelope', 'envelope.pdkbddl')[1]
    assert emit_domain(first, 'd') == emit_domain(second, 'd')
    assert emit_problem(first, 'd', 'p') == emit_problem(second, 'd', 'p')
    assert emit_fluent_map(first) == emit_fluent_map(second)
    assert emit_report(first) == emit_report(second)


def test_fluent_map_round_trips():
    _, cp = compiled('envelope', 'envelope.pdkbddl')
    lines = emit_fluent_map(cp).strip().split('\n')
    assert len(lines) == len(cp.fluents)
    for line, fluent in zip(lines, cp.fluents):
        symbol, text = line.split('\t')
        assert parse_rml(text) == fluent


def test_each_fluent_symbol_is_formatted_once_per_compiled_problem(
        monkeypatch):
    prob, cp = compiled('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    calls = count_calls(monkeypatch, 'fluent_symbol')
    for _ in range(2):
        emit_domain(cp, prob.domain_name)
        emit_problem(cp, prob.domain_name, prob.problem_name)
        emit_fluent_map(cp)
    assert calls[0] == len(cp.fluents) == 478


def test_a_hand_built_problem_emits_in_table_and_rank_orders():
    # the fluent table is out of ``RML.sort_key`` order: ``fluents.map``
    # and ``:predicates`` keep the table's order, while ``:init`` and the
    # goal list the fluents by rank, x !x y B_a x P_b q(c)
    y, bx, not_x, x, pbq = map(rml, ['y', 'B_a x', '!x', 'x', 'P_b q(c)'])
    op = CompiledOperator('act', (), cond(), (
        (frozenset({(cond(), y)}), frozenset({(cond(), not_x)})),))
    cp = CompiledProblem([y, bx, not_x, x, pbq], [bx, y, x],
                         cond([pbq, y], [bx, not_x]), [op], 'classical', {})
    assert emit_fluent_map(cp) == ('y\ty\nb_a_x\tB_a x\nnot_x\t!x\nx\tx\n'
                                   'p_b_q__c\tP_b q(c)\n')
    assert emit_problem(cp, 'd', 'p') == (
        '(define (problem p)\n  (:domain d)\n  (:init\n'
        '    (x)\n    (y)\n    (b_a_x)\n  )\n'
        '  (:goal (and (y) (p_b_q__c) (not (not_x)) (not (b_a_x))))\n)\n')
    predicates = emit_domain(cp, 'd').split('(:predicates\n')[1]
    assert predicates.startswith('    (y)\n    (b_a_x)\n    (not_x)\n'
                                 '    (x)\n    (p_b_q__c)\n  )\n')


def parsable_benchmarks():
    """Every file under ``benchmarks/`` that parses on its own."""
    found = []
    for kind in sorted(os.listdir(BENCH)):
        for name in sorted(os.listdir(os.path.join(BENCH, kind))):
            try:
                parse_file(os.path.join(BENCH, kind, name))
            except ParseError:
                continue
            found.append((kind, name))
    return found


@pytest.mark.parametrize('parts', parsable_benchmarks(), ids='/'.join)
def test_every_compiled_rml_is_the_fluent_table_object(parts):
    # RMLs outside the table, such as negated always-known atoms, never
    # appear: requiring their absence is vacuous, so they are dropped
    _, cp = compiled(*parts)
    table = {id(f) for f in cp.fluents}
    rmls = [*cp.init, *cp.goal.pos, *cp.goal.neg]
    for op in cp.operators:
        rmls += [*op.precondition.pos, *op.precondition.neg]
        for adds, dels in op.outcomes:
            for c, l in adds | dels:
                rmls += [*c.pos, *c.neg, l]
    strays = [r for r in rmls if id(r) not in table]
    assert not strays, '%d of %d RMLs are copies' % (len(strays), len(rmls))


@pytest.mark.parametrize('parts, effects, spawned, pruned, truncated', [
    (('envelope', 'envelope.pdkbddl'), 192, 188, 0, 144),
    (('grapevine', 'prob-4ag-2g-1d.pdkbddl'), 2393, 1932, 0, 6912),
    (('grapevine', 'prob-4ag-2g-2d.pdkbddl'), 23129, 22668, 0, 62208),
    (('misc', 'lossy-3ag-2l.pdkbddl'), 361, 279, 0, 648),
])
def test_compile_counters_are_pinned(parts, effects, spawned, pruned,
                                     truncated):
    _, cp = compiled(*parts)
    assert sum(len(adds) + len(dels) for op in cp.operators
               for adds, dels in op.outcomes) == effects
    assert cp.report['spawned_ancillary_effects'] == spawned
    assert cp.report['pruned_effects'] == pruned
    assert cp.report['truncated_effects'] == truncated


ONE_ACTION = """
(define (domain one)
    (:agents a b)
    (:predicates (p) (q) (r))
    (:action act
        :derive-condition always
        :parameters       ()
        :precondition     (and)
        :effect           %s
    )
)
(define (problem one-1)
    (:domain one)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (!p) (!q) (!r))
    (:goal (and (q)))
)
"""


def compile_one(effect):
    prob = desugar(parse_text(ONE_ACTION % effect))
    return compile_problem(prob, ground(prob))


def test_cut_copies_that_outcomes_share_count_once():
    # both outcomes add [a](p), whose cut copies count once per operator;
    # counted per outcome they would read 24
    cp = compile_one('(oneof (and [a](p) (q)) (and [a](p) (r)))')
    assert cp.flavor == 'fond'
    assert cp.report['truncated_effects'] == 20


def test_never_firing_effects_are_pruned():
    # the condition requires p both held and absent, so the add of q and
    # the negation rule's delete of !q under it never fire
    cp = compile_one('(when (and (p) (not (p))) (q))')
    assert cp.report['pruned_effects'] == 2
    assert '(when (and (p) (not (p)))' not in emit_domain(cp, 'one')


# the boundary of the fluent table on input that ``validate_model`` would
# reject: ``zed`` is no object, so no RML over ``near(zed)`` is a fluent;
# ``other`` has the shape that ``act`` has when its condition is kept
UNKNOWN_OBJECT = """
(define (domain edge)
    (:agents a b)
    (:types loc)
    (:predicates (p) (q) (near ?l - loc))
    (:action act
        :derive-condition %s
        :parameters       ()
        :precondition     (and)
        :effect           %s
    )
    (:action other
        :derive-condition never
        :parameters       ()
        :precondition     (and)
        :effect           (when (and (p) (not (near l1))) (q))
    )
)
(define (problem edge-1)
    (:domain edge)
    (:objects l1 - loc)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (!p) (!q) (!near l1))
    (:goal (and (q)))
)
"""


def unvalidated(derive_condition, effect):
    return desugar(parse_text(UNKNOWN_OBJECT % (derive_condition, effect)))


def test_awareness_condition_outside_the_table_is_rejected():
    prob = unvalidated('(near zed)', '(q)')
    with pytest.raises(NonRootRML, match='awareness condition near'):
        compile_problem(prob, ground(prob))


# ``go``'s parameter is a ``thing`` in a ``loc`` slot, which
# ``validate_model`` would reject: ``l1`` is both, so ``(go l1)`` is in the
# fluent table, and ``(go t2)``, of the same shape, is not
LATER_OPERATOR_OUTSIDE = """
(define (domain moves)
    (:agents a)
    (:types loc thing)
    (:predicates (at ?l - loc))
    (:action go
        :derive-condition always
        :parameters       (?x - thing)
        :precondition     (and)
        :effect           (and (at ?x))
    )
)
(define (problem moves-1)
    (:domain moves)
    (:objects l1 - loc l1 t2 - thing)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (at l1))
    (:goal (and (at l1)))
)
"""


def test_every_operator_of_a_shape_is_checked_against_the_table():
    prob = desugar(parse_text(LATER_OPERATOR_OUTSIDE))
    actions = ground(prob)
    assert [a.label for a in actions] == ['(go l1)', '(go t2)']
    compile_problem(prob, actions[:1])
    with pytest.raises(NonRootRML,
                       match=r'effect at\(t2\) is outside the fluent space'):
        compile_problem(prob, actions)


def test_negative_condition_outside_the_table_is_dropped():
    prob = unvalidated('never', '(when (and (p) (not (near zed))) (q))')
    cp = compile_problem(prob, ground(prob))
    (adds, dels), = cp.operators[0].outcomes
    assert adds == {(cond(pos=[rml('p')]), rml('q'))}
    assert dels == {(cond(pos=[rml('p')]), rml('!q')),
                    (cond(neg=[rml('!p')]), rml('!q'))}
    assert_matches_per_operator(prob, ground(prob))


# ---------------------------------------------------------------------------
# the semi-naive fixpoint against the round-robin one


def round_robin_ancillary(outcome, awareness, depth, is_ak, table):
    """``_derive`` reapplied to all effects until nothing changes: the
    reference for the semi-naive ``apply_ancillary``."""
    adds, dels = map(set, outcome)
    truncated = set()
    while True:
        before = (len(adds), len(dels))
        derived_adds, derived_dels = _derive(adds, dels, awareness, depth,
                                             is_ak, table, truncated)
        adds |= derived_adds
        dels |= derived_dels
        if (len(adds), len(dels)) == before:
            break
    return (frozenset(adds), frozenset(dels)), truncated


def base_operators(prob, actions):
    """Each ground action encoded on its own as a pre-ancillary operator
    over the fluent table, without operator shapes: the reference for the
    compiler's shape walk. A negative condition outside the table is
    dropped."""
    fluents, _, _ = encode_base(prob)
    canonical = {f: f for f in fluents}

    def split(pos, neg):
        return CompiledCondition([canonical[r] for r in pos],
                                 [canonical[r] for r in neg if r in canonical])

    operators = []
    for action in actions:
        outcomes = []
        for outcome in action.outcomes:
            adds, dels = set(), set()
            for ce in outcome:
                (dels if ce.delete else adds).add(
                    (split(ce.condition_pos, ce.condition_neg),
                     canonical[ce.effect]))
            outcomes.append((frozenset(adds), frozenset(dels)))
        pre = split(action.precondition_pos, action.precondition_neg)
        operators.append(CompiledOperator(action.name, action.args, pre,
                                          tuple(outcomes)))
    return operators


def unaware(actions):
    """The ground actions with empty awareness maps, which make no
    awareness copies."""
    return [GroundAction(a.name, a.args, a.precondition_pos,
                         a.precondition_neg, {}, a.outcomes)
            for a in actions]


@pytest.mark.parametrize('aware', [True, False])
@pytest.mark.parametrize('parts', [
    ('envelope', 'envelope.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-1d.pdkbddl'),
    ('misc', 'lossy-3ag-2l.pdkbddl'),
    ('misc', 'coin.pdkbddl'),
    ('misc', 'ask.pdkbddl'),
])
def test_semi_naive_fixpoint_matches_round_robin(parts, aware):
    prob = load(*parts)
    actions = ground(prob) if aware else unaware(ground(prob))
    base_ops = base_operators(prob, actions)
    for action, op in zip(actions, base_ops):
        for outcome in op.outcomes:
            args = (outcome, action.awareness, prob.depth, prob.is_ak)
            expected = round_robin_ancillary(*args, RmlTable())
            assert apply_ancillary(*args, RmlTable()) == expected, op


# ---------------------------------------------------------------------------
# one closure per operator shape, renamed for the other operators of it


def reference_prune(outcome, fluent_set):
    """An (adds, dels) outcome without the effects whose condition never
    holds (positive and negative fluents overlap, or a positive one is no
    fluent) and with the negative conditions that are no fluent trimmed,
    and the number of effects dropped."""
    kept = []
    dropped = 0
    for effects in outcome:
        out = set()
        for cond, l in effects:
            if cond.pos & cond.neg or not cond.pos <= fluent_set:
                dropped += 1
            else:
                out.add((CompiledCondition(cond.pos, cond.neg & fluent_set),
                         l))
        kept.append(frozenset(out))
    return tuple(kept), dropped


def assert_matches_per_operator(prob, actions):
    """compile_problem's operators and counts equal expanding and pruning
    each operator on its own, the reference for the shared and renamed
    expansions."""
    cp = compile_problem(prob, actions)
    fluents, _, _ = encode_base(prob)
    base_ops = base_operators(prob, actions)
    fluent_set = frozenset(fluents)
    counts = {'spawned': 0, 'truncated': 0, 'pruned': 0}
    assert len(cp.operators) == len(base_ops)
    for action, op, got in zip(actions, base_ops, cp.operators):
        table = RmlTable()
        expected = []
        truncated = set()
        for outcome in op.outcomes:
            expanded, cut = apply_ancillary(outcome, action.awareness,
                                            prob.depth, prob.is_ak, table)
            truncated |= cut
            counts['spawned'] += (sum(map(len, expanded))
                                  - sum(map(len, outcome)))
            kept, dropped = reference_prune(expanded, fluent_set)
            counts['pruned'] += dropped
            expected.append(kept)
        counts['truncated'] += len(truncated)
        assert (got.name, got.args) == (op.name, op.args)
        assert got.precondition == op.precondition
        assert got.outcomes == tuple(expected), op
    assert cp.report['spawned_ancillary_effects'] == counts['spawned']
    assert cp.report['pruned_effects'] == counts['pruned']
    assert cp.report['truncated_effects'] == counts['truncated']


@pytest.mark.parametrize('aware', [True, False])
@pytest.mark.parametrize('parts', [
    ('envelope', 'envelope.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-1d.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-2d.pdkbddl'),
    ('misc', 'lossy-3ag-2l.pdkbddl'),
    ('misc', 'coin.pdkbddl'),
    ('misc', 'ask.pdkbddl'),
    ('grapevine', 'prob-4ag-8g-1d.pdkbddl'),
    ('misc', 'lossy-4ag-3l.pdkbddl'),
    ('envelope', 'envelope-reversed.pdkbddl'),
    ('misc', 'negation-removal.pdkbddl'),
    ('misc', 'unsolvable.pdkbddl'),
])
def test_shared_expansions_match_per_operator_ones(parts, aware):
    prob = load(*parts)
    assert_matches_per_operator(
        prob, ground(prob) if aware else unaware(ground(prob)))


# operators of one shape that a renaming of propositions could confuse:
# ``tell``'s condition holds two ``here`` atoms, equal when ?a is ?as, and
# its speaker's secret sits beside the speaker's own modality; ``go`` binds
# ?l1 and ?l2 equal too; ``watching`` is an awareness atom that no effect
# mentions; ``flip``'s outcomes share their atoms
HAZARDS = """
(define (domain hazards)
    (:agents a b)
    (:types loc)
    (:predicates (secret ?agent) (here ?agent - agent ?l - loc)
                 (lit ?l - loc) {AK}(watching ?agent - agent ?l - loc))
    (:action go
        :derive-condition always
        :parameters       (?a - agent ?l1 ?l2 - loc)
        :precondition     (and)
        :effect           (and (here ?a ?l2) (!here ?a ?l1))
    )
    (:action tell
        :derive-condition (watching $agent$ ?l)
        :parameters       (?a ?as - agent ?l - loc)
        :precondition     (and)
        :effect           (and (when (and (lit ?l) (here ?a ?l) (here ?as ?l)
                                          [?a](secret ?a))
                                     [?as](secret ?a))
                               (when (not (here ?as ?l)) [?a](!secret ?as)))
    )
    (:action flip
        :derive-condition (here $agent$ ?l1)
        :parameters       (?l1 ?l2 - loc)
        :precondition     (and)
        :effect           (oneof (and (lit ?l1) (!lit ?l2))
                                 (and (!lit ?l1) (lit ?l2) [a](lit ?l1)))
    )
)
(define (problem hazards-1)
    (:domain hazards)
    (:objects l1 l2 - loc)
    (:depth 2)
    (:task valid_generation)
    (:init-type complete)
    (:init (here a l1) (here b l2) (!lit l1) (!lit l2) (watching a l1))
    (:goal (and [b](secret a)))
)
"""


def count_calls(monkeypatch, name):
    """Count the calls to ``compiler.<name>`` from here on."""
    calls = [0]
    function = getattr(compiler, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(compiler, name, counted)
    return calls


@pytest.mark.parametrize('aware', [True, False])
def test_renamed_expansions_match_per_operator_ones(monkeypatch, aware):
    prob = desugar(parse_text(HAZARDS))
    actions = ground(prob) if aware else unaware(ground(prob))
    closures = count_calls(monkeypatch, 'apply_ancillary')
    assert_matches_per_operator(prob, actions)
    # 8 shapes (2 of ``go``, 4 of ``tell``, 2 of ``flip`` with two
    # outcomes each) run 10 closures for the 24 outcomes of 20 operators;
    # the other outcomes are renamed closures
    assert (len(actions), closures[0]) == (20, 10)


def test_one_closure_per_operator_shape(monkeypatch):
    # move with distinct and with equal locations, share, fib and
    # initialize: 5 shapes among the 61 distinct (base outcomes,
    # awareness) pairs
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    actions = ground(prob)
    closures = count_calls(monkeypatch, 'apply_ancillary')
    compile_problem(prob, actions)
    assert closures[0] == 5


def test_one_walk_per_distinct_ground_action(monkeypatch):
    # ``_shape`` and ``_instantiate`` run once per distinct (outcomes,
    # awareness) pair, not once per operator
    prob = load('grapevine', 'prob-4ag-2g-1d.pdkbddl')
    actions = ground(prob)
    walks = count_calls(monkeypatch, '_shape')
    compile_problem(prob, actions)
    assert (len(actions), walks[0]) == (133, 61)


# ---------------------------------------------------------------------------
# one grounding per value of the parameters that the effects read


def shares_outcomes(first, second):
    return all(x is y for x, y in zip(first.outcomes, second.outcomes))


def test_bindings_the_effects_cannot_tell_apart_share_their_outcomes():
    # share's acting agent ?a is read only by its precondition
    prob = load('grapevine', 'prob-4ag-2g-1d.pdkbddl')
    actions = ground(prob)
    by_label = {a.label: a for a in actions}
    assert shares_outcomes(by_label['(share a b l1)'],
                           by_label['(share c b l1)'])
    assert not shares_outcomes(by_label['(share a b l1)'],
                               by_label['(share a c l1)'])
    assert len({id(o) for a in actions for o in a.outcomes}) == 61
    cp = compile_problem(prob, actions)
    ops = {op.label: op for op in cp.operators}
    assert ops['(share a b l1)'].outcomes is ops['(share c b l1)'].outcomes


READ_PARAMETER = """
(define (domain d) (:agents a b) (:types loc)
  (:predicates (p) (q ?l - loc) {AK}(at ?ag - agent ?l - loc))
  (:action act :derive-condition %s :parameters (?ag - agent ?l - loc)
               :precondition (and) :effect %s))
(define (problem x) (:domain d) (:objects l1 l2 - loc) (:depth 1)
  (:init ) (:goal (p)))
"""


@pytest.mark.parametrize('derive, effect, read', [
    ('never', '(when (q ?l) (p))', 1),
    ('never', '[?ag](p)', 0),
    ('(at $agent$ ?l)', '(p)', 1),
], ids=['when-condition', 'modality', 'derive-condition'])
def test_a_parameter_the_effects_read_keeps_its_bindings_apart(
        derive, effect, read):
    prob = desugar(parse_text(READ_PARAMETER % (derive, effect)))
    actions = {a.args: a for a in ground(prob)}
    assert len(actions) == 4
    for args, action in actions.items():
        for other_args, other in actions.items():
            if other_args[read] != args[read]:
                assert (action.outcomes, action.awareness) != \
                    (other.outcomes, other.awareness), (args, other_args)
            else:
                assert shares_outcomes(action, other), (args, other_args)
                assert action.awareness == other.awareness


def test_a_shared_grounding_counts_its_truncated_effects_per_action():
    prob = desugar(parse_text("""
(define (domain d) (:agents a b) (:predicates (p) (q))
  (:action act :parameters (?x - agent) :precondition [?x](q)
               :effect (and [a][b](p) (p))))
(define (problem x) (:domain d) (:depth 1) (:init ) (:goal (p)))
"""))
    report = GroundingReport()
    first, second = ground(prob, report)
    assert first.precondition_pos != second.precondition_pos
    assert shares_outcomes(first, second)
    assert report.truncated_effects == 2


# two actions with the same effect: anyone may see ``tell``, only those at
# ?l see ``whisper``
SAME_EFFECT_OTHER_AWARENESS = """
(define (domain rumour)
    (:agents a b)
    (:types loc)
    (:predicates (secret) {AK}(at ?agent - agent ?l - loc))
    (:action tell
        :derive-condition always
        :parameters       (?l - loc)
        :precondition     (and)
        :effect           (and (secret))
    )
    (:action whisper
        :derive-condition (at $agent$ ?l)
        :parameters       (?l - loc)
        :precondition     (and)
        :effect           (and (secret))
    )
)
(define (problem rumour-1)
    (:domain rumour)
    (:objects l1 - loc)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (at a l1) (!secret))
    (:goal (and [b](secret)))
)
"""


def test_awareness_is_part_of_the_expansion_key():
    prob = desugar(parse_text(SAME_EFFECT_OTHER_AWARENESS))
    actions = ground(prob)
    base_ops = base_operators(prob, actions)
    assert [a.name for a in actions] == ['tell', 'whisper']
    assert base_ops[0].outcomes == base_ops[1].outcomes
    tell, whisper = compile_problem(prob, actions).operators
    assert tell.outcomes != whisper.outcomes
    at_l1 = cond(pos=[rml('at(b,l1)')])
    assert (cond(), rml('B_b secret')) in tell.outcomes[0][0]
    assert (at_l1, rml('B_b secret')) in whisper.outcomes[0][0]


# ---------------------------------------------------------------------------
# the artifacts, byte for byte

# sha256 of what ``pdkb compile`` writes. A change that alters the emitted
# text on purpose updates these and says why in CHANGES.md.
ARTIFACT_DIGESTS = {
    ('envelope', 'envelope.pdkbddl'): {
        'domain.pddl': '46e97a9cbd05639a801d528e92c8ba07'
                       '7eae34873fc7d821ea93bde6c5ff5965',
        'problem.pddl': '52049191f6cdd4737762872e9b589a93'
                        'bd5276a9e7617832e80b64c904a93b68',
        'fluents.map': 'beba22896f8783be4bb3e32e81ff4d87'
                       '1325b5af619ca994bbfabdc34512437d',
        'compile-report.json': '62974bb9257418f6ed8b67f9da2df29b'
                               '3f69e9ad3c6c7886f5b7cf918a6af3aa',
    },
    # AK at(...) atoms beside the depth-0 fluents exercise the rank order
    ('grapevine', 'prob-4ag-2g-1d.pdkbddl'): {
        'domain.pddl': 'ec97a103343be019ede2b09dcfea1016'
                       'bace97b19b665b5c4880b7d944fce35c',
        'problem.pddl': '17e8a251d61a7eb12682895026679d5b'
                        'd62f0d3a16b72695006e97bc3f972a40',
        'fluents.map': '8032d0ca8685f956e891fe78b48a0efc'
                       '1b1f44b8c62bb9f0e0084fc3258850bf',
        'compile-report.json': '1472d6c920ea8dd873728d9857fd1083'
                               '2dbefe62f7f0e7ff05638cd39367ce19',
    },
    # depth 2: operators that differ only in the acting agent share one
    # expansion and its outcome objects
    ('grapevine', 'prob-4ag-2g-2d.pdkbddl'): {
        'domain.pddl': 'b52f4c2e906579de445496dfc79651d5'
                       'a3295741d01bdd3812600f01666edc69',
        'problem.pddl': 'b0148e7b12da37564e6e60b51848bd63'
                        'fb022781a2a8f8889db2a84938c01ff8',
        'fluents.map': '1c942ebb042c8f7d9f18a12518e653fd'
                       '9f73cd1389d9b2baf473d5cc9c2b8929',
        'compile-report.json': '9a65c9c08cd078d2a74d6c43109614df'
                               '081bacd36f00a6f8dc745624701e4d8e',
    },
    # FOND: shared outcomes inside ``oneof`` branches
    ('misc', 'lossy-3ag-2l.pdkbddl'): {
        'domain.pddl': 'dfeaa42f00796c0aea9dd99e79166f60'
                       'f58ace4caf9df34bcb86d30498ea0644',
        'problem.pddl': '6aec4b8db3d9040da6ee0849a8cc5dba'
                        '297ba12ddfc132e3f6e90eb3c71d2562',
        'fluents.map': 'bdbb799bbecbf17cfbf8ed37df406f10'
                       'bb4257a3aa6b80da5824d4c7d7ec7fc5',
        'compile-report.json': 'a5a675655b22e0c645a4de64cf1670eb'
                               'b77c3e9fe9084c936cdc0365643ddcc3',
    },
    ('misc', 'coin.pdkbddl'): {
        'domain.pddl': '5876efdb2a2206c6e06b60d40b1eabf0'
                       '38f543bce350dd5d5848f86f4e0eb79a',
        'problem.pddl': '1521b4f0cce05d0701692a5dee26cb76'
                        'c1a71e19d188fd6ea2b1a89197f87d9d',
        'fluents.map': '561384c0486bc930a3027fba0de66ce6'
                       'e39087e0a116056ef2ee162c311b4ab1',
        'compile-report.json': 'ed0b4382d28fc00d995e0f01ac9b6266'
                               '0298961a36e9fc7ef1a91b7b5c71c0ef',
    },
}


@pytest.mark.parametrize('parts', sorted(ARTIFACT_DIGESTS))
def test_artifact_digests_are_pinned(tmp_path, parts):
    prob = load(*parts)
    report = GroundingReport()
    actions = ground(prob, report)
    cp = compile_problem(prob, actions,
                         truncated_ground=report.truncated_effects)
    paths = emit_pddl(cp, str(tmp_path), prob.domain_name, prob.problem_name)
    digests = {}
    for name, path in paths.items():
        with open(path, 'rb') as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    assert digests == ARTIFACT_DIGESTS[parts]


# ---------------------------------------------------------------------------
# the emitted domain, read back


def read_sexpr(text):
    """The one top-level form of text as nested lists of atoms."""
    stack = [[]]
    for token in re.findall(r'[()]|[^\s()]+', text):
        if token == '(':
            stack.append([])
        elif token == ')':
            form = stack.pop()
            stack[-1].append(form)
        else:
            stack[-1].append(token)
    (form,) = stack[0]
    return form


def read_literal(form):
    """(polarity, symbol) of ``(x)`` or ``(not (x))``."""
    if form[0] == 'not':
        ((symbol,),) = form[1:]
        return False, symbol
    (symbol,) = form
    return True, symbol


def read_condition(form):
    assert form[0] == 'and'
    literals = [read_literal(item) for item in form[1:]]
    return (frozenset(s for positive, s in literals if positive),
            frozenset(s for positive, s in literals if not positive))


def read_outcome(form):
    """An outcome's (condition pos, condition neg, is add, literal) set;
    each distinct condition must head exactly one ``when``, and
    unconditional effects stand bare."""
    assert form[0] == 'and'
    effects = set()
    conditions = []
    for item in form[1:]:
        if item[0] == 'when':
            condition = read_condition(item[1])
            assert condition != (frozenset(), frozenset())
            conditions.append(condition)
            body = item[2]
            assert body[0] == 'and' and len(body) > 1
            literals = body[1:]
        else:
            condition = (frozenset(), frozenset())
            literals = [item]
        for literal in literals:
            effects.add(condition + read_literal(literal))
    assert len(conditions) == len(set(conditions))
    return effects


def read_domain(text):
    """(action name, precondition, outcome effect sets) per action."""
    actions = []
    for form in read_sexpr(text)[4:]:
        assert form[0] == ':action'
        fields = dict(zip(form[2::2], form[3::2]))
        effect = fields[':effect']
        outcomes = effect[1:] if effect[0] == 'oneof' else [effect]
        actions.append((form[1], read_condition(fields[':precondition']),
                        [read_outcome(o) for o in outcomes]))
    return actions


def symbols(fluents):
    return frozenset(fluent_symbol(f) for f in fluents)


@pytest.mark.parametrize('parts', [
    ('envelope', 'envelope.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-1d.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-2d.pdkbddl'),
    ('misc', 'coin.pdkbddl'),
])
def test_emitted_domain_reads_back_as_the_compiled_operators(parts):
    prob, cp = compiled(*parts)
    expected = []
    for op in cp.operators:
        outcomes = []
        for adds, dels in op.outcomes:
            outcomes.append({
                (symbols(c.pos), symbols(c.neg), is_add, fluent_symbol(l))
                for effects, is_add in ((adds, True), (dels, False))
                for c, l in effects})
        name = '__'.join((op.name,) + op.args)
        pre = (symbols(op.precondition.pos), symbols(op.precondition.neg))
        expected.append((name, pre, outcomes))
    assert read_domain(emit_domain(cp, prob.domain_name)) == expected
