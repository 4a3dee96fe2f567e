"""Grounding: shared and renamed groundings against an eager reference."""

import re
from itertools import product

import pytest

from pdkb.compiler import NonRootRML, compile_problem
from pdkb.model import (AGENT_VAR, ALWAYS, NEVER, DepthExceeded,
                        GroundingReport, ground, subst_rml)
from pdkb.parser import desugar, parse_text
from pdkb.pekb import ConditionalEffect

from test_compiler import assert_matches_per_operator, benchmark_problems


def eager_ground(problem):
    """Every binding's preconditions, awareness and outcomes substituted on
    its own, with the truncated-effect count: the reference for the shared
    and renamed groundings of ``ground``."""
    actions = []
    truncated = 0
    for schema in problem.schemas:
        names = [var for var, _ in schema.parameters]
        for values in product(*[problem.objects_of_type(typ)
                                for _, typ in schema.parameters]):
            binding = dict(zip(names, values))
            pre = [[subst_rml(c, binding) for c in side] for side in
                   (schema.precondition_pos, schema.precondition_neg)]
            for c in pre[0] + pre[1]:
                if c.depth > problem.depth:
                    raise DepthExceeded(
                        'precondition %s of %s exceeds depth %d'
                        % (c, schema.name, problem.depth))
            mu = schema.derive_condition
            awareness = {} if mu == NEVER else {
                agent: ALWAYS if mu == ALWAYS
                else subst_rml(mu, {**binding, AGENT_VAR: agent})
                for agent in problem.agents}
            outcomes = []
            for templates in schema.outcomes:
                effects = []
                for tpl in templates:
                    quantified = [var for var, _ in tpl.quantified]
                    for ext in product(*[problem.objects_of_type(typ)
                                         for _, typ in tpl.quantified]):
                        full = {**binding, **dict(zip(quantified, ext))}
                        effect = subst_rml(tpl.effect, full)
                        pos = [subst_rml(c, full) for c in tpl.condition_pos]
                        neg = [subst_rml(c, full) for c in tpl.condition_neg]
                        if max(r.depth for r in [effect] + pos + neg) \
                                > problem.depth:
                            truncated += 1
                            continue
                        effects.append(ConditionalEffect(
                            pos, effect, delete=tpl.delete,
                            condition_neg=neg))
                outcomes.append(tuple(effects))
            args = tuple(values)
            actions.append((schema.name, args, frozenset(pre[0]),
                            frozenset(pre[1]), awareness, tuple(outcomes)))
    return actions, truncated


def assert_matches_eager(problem):
    """``ground``'s actions, their awareness and outcomes built from the
    shared or renamed grounding on first read, equal the eager reference,
    and so does the truncated count."""
    try:
        expected, truncated = eager_ground(problem)
    except DepthExceeded as exc:
        message = '^%s$' % re.escape(str(exc))
        with pytest.raises(DepthExceeded, match=message):
            ground(problem)
        return
    report = GroundingReport()
    actions = ground(problem, report)
    got = [(a.name, a.args, a.precondition_pos, a.precondition_neg,
            a.awareness, a.outcomes) for a in actions]
    assert len(got) == len(expected)
    for action, reference in zip(got, expected):
        assert action == reference, action[:2]
    assert report.truncated_effects == truncated


_PROBLEMS = benchmark_problems()


@pytest.mark.parametrize('depth', [0, 1, 2])
@pytest.mark.parametrize('name', sorted(_PROBLEMS))
def test_materialized_groundings_match_the_eager_reference(name, depth):
    problem = _PROBLEMS[name]()
    problem.depth = depth
    assert_matches_eager(problem)


def patterns(actions):
    """The number of binding patterns: one first grounding each."""
    return len({id(a.grounding.first) for a in actions})


@pytest.mark.parametrize('name, counts', [
    ('grapevine/prob-4ag-2g-1d.pdkbddl', (133, 61, 5)),
    ('grapevine/prob-4ag-2g-2d.pdkbddl', (133, 61, 5)),
])
def test_grapevine_bindings_fall_into_five_patterns(name, counts):
    actions = ground(_PROBLEMS[name]())
    assert (len(actions), len({id(a.grounding) for a in actions}),
            patterns(actions)) == counts


# ---------------------------------------------------------------------------
# one case per part of the pattern key: without that part, a later binding
# would be renamed from a first one that it does not rename to

KEY_PART = """
(define (domain d)
    (:agents a b)
    (:types loc)
    (:predicates (p) (near ?l - loc) (friend ?x - agent))
    (:action act
        :derive-condition %s
        :parameters       %s
        :precondition     (and)
        :effect           %s
    )
)
(define (problem x)
    (:domain d)
    (:objects l1 l2 - loc)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (!p) (!near l1) (!near l2) (!friend a) (!friend b))
    (:goal (and (p)))
)
"""


@pytest.mark.parametrize('derive, parameters, effect', [
    ('never', '(?l - loc)', '(forall ?m - loc (when (near ?m) (near ?l)))'),
    ('never', '(?l - loc)', '(when (near l1) (near ?l))'),
    ('(friend $agent$)', '(?x - agent)', '(friend ?x)'),
    ('never', '(?x - agent)', '[?x](p)'),
    ('never', '(?l ?m - loc)', '(and (near ?l) (!near ?m))'),
], ids=['quantified-variable', 'constant', 'agent-placeholder', 'modality',
        'two-parameters'])
def test_each_part_of_the_pattern_key(derive, parameters, effect):
    # each case has two bindings or two classes of them, that one part of
    # the key tells apart
    problem = desugar(parse_text(KEY_PART % (derive, parameters, effect)))
    actions = ground(problem)
    assert patterns(actions) == 2
    assert_matches_eager(problem)
    assert_matches_per_operator(problem, ground(problem))


def test_atoms_of_one_predicate_at_two_arities_are_renamed_alike():
    # input that ``validate_model`` would reject: ``near`` takes one
    # argument, so the two-argument condition, outside the fluent table,
    # is dropped, and the renaming has no second argument of (near ?l)
    problem = desugar(parse_text(KEY_PART % (
        'never', '(?l ?m - loc)',
        '(and (when (not (near ?l ?m)) (p)) (near ?l))')))
    assert patterns(ground(problem)) == 2
    assert_matches_eager(problem)
    assert_matches_per_operator(problem, ground(problem))


def test_equal_and_unequal_parameters_in_one_slot_are_two_patterns():
    problem = desugar(parse_text(KEY_PART % (
        'never', '(?l ?m - loc)', '(and (near ?l) (!near ?m))')))
    first = {a.args: a.grounding.first for a in ground(problem)}
    assert first[('l1', 'l1')] is first[('l2', 'l2')]
    assert first[('l1', 'l2')] is first[('l2', 'l1')]
    assert first[('l1', 'l1')] is not first[('l1', 'l2')]


# an object declared under two types, which ``validate_model`` would
# reject: ``l1`` is both a ``loc`` and a ``thing``, so ``at(l1)`` is a
# fluent and ``at(t2)`` is not, and the two bindings of ``go`` are two
# patterns
TWO_TYPES = """
(define (domain moves)
    (:agents a)
    (:types loc thing)
    (:predicates (p) (at ?l - loc))
    (:action go
        :derive-condition always
        :parameters       (?x - thing)
        :precondition     (and)
        :effect           %s
    )
)
(define (problem moves-1)
    (:domain moves)
    (:objects %s)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init (at l1) (!p))
    (:goal (and (p)))
)
"""


@pytest.mark.parametrize('objects', ['l1 - loc l1 t2 - thing',
                                     'l1 - loc t2 l1 - thing'])
def test_an_effect_outside_the_fluent_table_is_rejected(objects):
    problem = desugar(parse_text(TWO_TYPES % ('(and (at ?x))', objects)))
    actions = ground(problem)
    assert patterns(actions) == 2
    assert_matches_eager(problem)
    with pytest.raises(NonRootRML,
                       match=r'^effect at\(t2\) is outside the fluent space$'):
        compile_problem(problem, actions)


@pytest.mark.parametrize('objects', ['l1 - loc l1 t2 - thing',
                                     'l1 - loc t2 l1 - thing'])
def test_a_negative_condition_outside_the_fluent_table_is_dropped(objects):
    problem = desugar(parse_text(TWO_TYPES % ('(when (not (at ?x)) (p))',
                                              objects)))
    actions = ground(problem)
    assert patterns(actions) == 2
    assert_matches_eager(problem)
    assert_matches_per_operator(problem, ground(problem))


# ---------------------------------------------------------------------------
# preconditions


def test_the_first_precondition_past_the_bound_is_named():
    # (act a a) reduces to depth 1; (act a b) is the first past the bound
    problem = desugar(parse_text("""
(define (domain d) (:agents a b) (:predicates (p))
  (:action act :parameters (?x ?y - agent) :precondition [?x][?y](p)
               :effect (p)))
(define (problem x) (:domain d) (:depth 1) (:init ) (:goal (p)))
"""))
    with pytest.raises(DepthExceeded,
                       match=r'^precondition B_a B_b p of act exceeds '
                             r'depth 1$'):
        ground(problem)


def test_bindings_that_agree_on_a_precondition_share_its_rml():
    problem = desugar(parse_text("""
(define (domain d) (:agents a b) (:types loc)
  (:predicates (p) (near ?l - loc))
  (:action act :parameters (?x - agent ?l - loc) :precondition [?x](p)
               :effect (near ?l)))
(define (problem x) (:domain d) (:objects l1 l2 - loc) (:depth 1)
  (:init ) (:goal (p)))
"""))
    by_args = {a.args: a for a in ground(problem)}
    [first], [second] = (by_args['a', 'l1'].precondition_pos,
                         by_args['a', 'l2'].precondition_pos)
    assert first is second
