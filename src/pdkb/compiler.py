"""Compilation of ground nested-belief problems to classical/FOND PDDL.

Fluents are identified with canonical RMLs: one fluent per RML in the
depth-bounded space over the regular propositions, plus one fluent per
always-known (AK) atom. The whole state is the root agent's perspective,
so an RML fluent being true means the root believes that RML.

The ancillary rules derive extra conditional effects until fixpoint, all
five in one step, ``_derive``; always-known effects have no consequences:
  closure         an add entails adds of everything it entails
  negation        an add deletes the negated literal
  contrapositive  a delete also deletes everything entailing the literal
  uncertain       an add whose condition is not believed false deletes the
                  negated literal; an always-known atom in the condition
                  is believed false when it is absent, so it stays a
                  positive condition
  awareness       per aware agent, nested-belief copies of adds/deletes

Each ``compile_problem`` call does each piece of work once:
  - one ``RmlTable`` serves all of the call's operators: it interns the
    RMLs that the rules derive, so set and dict hits compare by identity,
    and memoises ``negate``, ``wrap`` and ``upward_closure``;
  - the fixpoint is semi-naive: ``_derive`` maps each effect to its
    consequences on its own, so ``apply_ancillary`` feeds each round only
    the effects that are new since the last round;
  - each operator *shape* runs the closure once, and each distinct
    (outcomes, awareness) pair of the ground actions, which
    ``model.ground`` shares between bindings, is walked and instantiated
    once. ``_shape`` is the one walk over a ground action: it maps every
    RML of its effects, their conditions and its awareness conditions to
    the fluent-table object, numbers the propositions by first
    occurrence, and returns the outcomes over those positions in
    ``_template``'s format, with the awareness and the predicate of each
    position; modalities, polarity, ``delete`` and the agents stay. On a
    shape's first pair ``_instantiate`` of that template gives the base
    outcomes, ``apply_ancillary`` closes each, ``_prune`` drops the
    effects that never fire, and ``_template`` keeps the result over
    proposition positions with its spawned, truncated and pruned counts.
    Every pair, the first included, then takes its outcomes from
    ``_instantiate`` with its own propositions put in, so identical
    operators share outcome objects and ``planner.Packing`` and
    ``emit_domain`` handle each once. This is sound:
      * two actions of one shape differ by an injective renaming of
        propositions that keeps predicates, and the five rules and the
        depth cut read a proposition only through equality and the
        ``is_ak`` of its predicate, so the renaming commutes with the
        closure and keeps the sizes that the counts count;
      * every RML of an operator's closure is in the fluent table, so
        ``_instantiate`` finds each there: ``_shape`` checks the base
        RMLs of every pair; closure, negation, the contrapositive and
        uncertain firing keep an RML's depth and atom and change only
        modes and polarity; awareness copies wrap in a known agent's
        belief and are cut past the depth bound;
      * pruning tests only whether a condition's positive and negative
        fluents overlap, which an injective renaming keeps, so pruning
        the template prunes every operator of the shape.
    The 133 operators of a four-agent grapevine problem have 61 pairs
    and 5 shapes: ``move`` with distinct and with equal locations,
    ``share``, ``fib`` and ``initialize``;
  - emission sorts by fluent rank, the position in ``sorted(fluents)``;
    the first emit of a compiled problem makes the ranks and the fluent
    symbols and keeps them on it for every emitter. Each outcome's
    effects are grouped by condition: the unconditional ones bare, then
    one ``(when C (and e1 e2 ...))`` per distinct condition. Each distinct
    outcome's text is made once per ``emit_domain`` and joined into the
    domain as a line of its own, never copied per operator.
The memos are locals of their call; only the emission order is kept.
"""

import itertools
import json

from .model import ALWAYS, GroundAction
from .pekb import PEKB, closure
from .rml import (BELIEF, RML, RmlSpace, RmlTable, enumerate_rmls,
                  format_rml, is_regular, lit)

CLASSICAL = 'classical'
FOND = 'fond'

REPORT_VERSION = 1


class NonRootRML(Exception):
    """An initial, condition, effect or awareness RML is outside the
    fluent space."""


class CompiledCondition:
    """Positive and negative fluent sets guarding an effect."""

    __slots__ = ('pos', 'neg', '_hash')

    def __init__(self, pos=(), neg=()):
        self.pos = frozenset(pos)
        self.neg = frozenset(neg)
        self._hash = hash((self.pos, self.neg))

    def __eq__(self, other):
        return (isinstance(other, CompiledCondition)
                and self.pos == other.pos and self.neg == other.neg)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return 'Cond<+%s -%s>' % (sorted(map(str, self.pos)),
                                  sorted(map(str, self.neg)))

    def satisfied(self, state):
        return self.pos <= state and not self.neg & state


class CompiledOperator:
    """A ground operator over fluents.

    outcomes: tuple of (adds, dels), each a frozenset of
    (CompiledCondition, fluent RML) pairs.
    """

    __slots__ = ('name', 'args', 'precondition', 'outcomes')

    def __init__(self, name, args, precondition, outcomes):
        self.name = name
        self.args = tuple(args)
        self.precondition = precondition
        self.outcomes = tuple(outcomes)

    label = GroundAction.label

    def __repr__(self):
        return 'CompiledOperator%s' % self.label


class CompiledProblem:
    __slots__ = ('fluents', 'init', 'goal', 'operators', 'flavor', 'report',
                 '_order')

    def __init__(self, fluents, init, goal, operators, flavor, report):
        self.fluents = tuple(fluents)
        self.init = frozenset(init)
        self.goal = goal
        self.operators = tuple(operators)
        self.flavor = flavor
        self.report = report
        self._order = None  # made by the first ``_emission_order``


# ---------------------------------------------------------------------------
# base encoding


def fluent_space(problem):
    """The ordered fluent table: regular RMLs then AK atoms."""
    regular = enumerate_rmls(RmlSpace(problem.regular_propositions,
                                      problem.agents, problem.depth))
    ak = [lit(p) for p in problem.ak_propositions]
    return tuple(regular) + tuple(sorted(ak, key=RML.sort_key))


def _fluent(canonical, rml, what):
    """The fluent-table object equal to ``rml``; ``NonRootRML``, naming
    ``rml`` as ``what``, when the table has none."""
    fluent = canonical.get(rml)
    if fluent is None:
        raise NonRootRML('%s %s is outside the fluent space' % (what, rml))
    return fluent


def _split_condition(pos, neg, canonical):
    """Positive and negative condition RMLs as lists of fluent-table
    objects. A positive one outside the table raises ``NonRootRML``. The
    parser has already moved negated always-known atoms to the other side,
    so a negative one outside the table comes only from unvalidated input,
    such as an unknown object: it is never held, and requiring its absence
    is vacuous, so it is dropped."""
    return ([_fluent(canonical, rml, 'condition') for rml in pos],
            [canonical[rml] for rml in neg if rml in canonical])


def encode_base(problem):
    """The fluent table, the initial state and the goal. Every RML of the
    state and the goal is the object in the table: an initial RML or a
    positive goal condition outside it raises ``NonRootRML``, and a negative
    goal condition outside it is dropped. The parser drops ``(!ak)`` from
    the initial state, so no initial RML is a negated always-known atom."""
    fluents = fluent_space(problem)
    canonical = {f: f for f in fluents}
    init = {_fluent(canonical, rml, 'initial RML')
            for rml in closure(PEKB(problem.initial))}
    goal = CompiledCondition(*_split_condition(problem.goal_pos,
                                               problem.goal_neg, canonical))
    return fluents, init, goal


# ---------------------------------------------------------------------------
# ancillary rules


def _believed_condition(table, agent, pos, neg, mu, depth, is_ak):
    """An effect's condition and awareness condition mu as the agent
    believes them, or None when a wrapped literal exceeds the depth bound.
    AK atoms pass through unwrapped."""
    out_pos = set()
    out_neg = set()
    if mu != ALWAYS:
        pos = itertools.chain(pos, (mu,))
    for c in pos:
        if is_regular(is_ak, c):
            c = table.wrap(BELIEF, agent, c)
            if c.depth > depth:
                return None
        out_pos.add(c)
    for c in neg:
        if not is_regular(is_ak, c):
            out_neg.add(c)
            continue
        c = table.negate(table.wrap(BELIEF, agent, c))
        if c.depth > depth:
            return None
        out_pos.add(c)
    return out_pos, out_neg


def aware_copies(table, awareness, pos, neg, effect, delete, depth, is_ak):
    """Conditioned mutual awareness of one conditional effect.

    Yields (agent, condition, literal) for each aware agent: the agent's
    copy is an add of literal under condition, a (pos, neg) pair, or lies
    past the depth bound when both are None. An aware agent comes to
    believe an added literal and to consider a deleted one's negation
    possible. ``table`` is the caller's ``RmlTable``.
    """
    if not is_regular(is_ak, effect):
        return
    outer = effect.modalities[0][1] if effect.modalities else None
    for agent, mu in awareness.items():
        # introspection exception: agents do not observe changes to
        # beliefs about their own beliefs
        if delete and outer == agent:
            continue
        # wrapping adds a modality unless the agent's own is outermost;
        # most copies lie past the bound and are cut before anything of
        # them is built
        if effect.depth + (outer != agent) > depth:
            yield agent, None, None
            continue
        nested = table.wrap(BELIEF, agent, effect)
        if delete:
            nested = table.negate(nested)
        yield (agent, _believed_condition(table, agent, pos, neg, mu, depth,
                                          is_ak), nested)


def _derive(adds, dels, awareness, depth, is_ak, table, truncated):
    """The consequences of a batch of effects under all five ancillary
    rules, as (adds, dels) sets; awareness copies past the depth bound go
    into ``truncated`` as (agent, condition, literal, delete) instead."""
    negate = table.negate
    closure_of = table.upward_closure
    out_adds = set()
    out_dels = set()
    for delete, effects in ((False, adds), (True, dels)):
        for cond, l in effects:
            if not is_regular(is_ak, l):
                continue
            if delete:
                # contrapositive
                for weaker in closure_of(negate(l)):
                    out_dels.add((cond, negate(weaker)))
            else:
                # closure, negation, then uncertain firing
                for weaker in closure_of(l):
                    out_adds.add((cond, weaker))
                negated = negate(l)
                out_dels.add((cond, negated))
                pos = [c for c in cond.pos if not is_regular(is_ak, c)]
                neg = [negate(c) for c in cond.pos if is_regular(is_ak, c)]
                out_dels.add((CompiledCondition(pos, cond.neg.union(neg)),
                              negated))
            # awareness
            for agent, believed, nested in aware_copies(
                    table, awareness, cond.pos, cond.neg, l, delete, depth,
                    is_ak):
                if believed is None:
                    truncated.add((agent, cond, l, delete))
                else:
                    out_adds.add((CompiledCondition(*believed), nested))
    return out_adds, out_dels


def apply_ancillary(outcome, awareness, depth, is_ak, table):
    """One (adds, dels) outcome closed under the ancillary rules, and the
    awareness copies that the depth bound cut. Semi-naive: each round feeds
    ``_derive`` only the effects that are new since the last round."""
    adds, dels = map(set, outcome)
    truncated = set()
    new_adds, new_dels = adds, dels
    while new_adds or new_dels:
        derived_adds, derived_dels = _derive(new_adds, new_dels, awareness,
                                             depth, is_ak, table, truncated)
        new_adds = derived_adds - adds
        new_dels = derived_dels - dels
        adds |= new_adds
        dels |= new_dels
    return (frozenset(adds), frozenset(dels)), truncated


def _prune(outcome):
    """An (adds, dels) outcome without the effects whose condition never
    holds, because it requires a fluent both held and absent, and the
    number dropped; the outcome itself when nothing is dropped."""
    dropped = sum(1 for effects in outcome for cond, _ in effects
                  if cond.pos & cond.neg)
    if not dropped:
        return outcome, 0
    return tuple(frozenset([(cond, l) for cond, l in effects
                            if not cond.pos & cond.neg])
                 for effects in outcome), dropped


# ---------------------------------------------------------------------------
# driver


def _unreduced_style_count(problem):
    """Fluent count under unreduced modality sequences with AK atoms
    counted at both polarities (an alternative bookkeeping style kept in
    the report for comparison)."""
    n = len(problem.agents)
    seqs = sum((2 * n) ** k for k in range(problem.depth + 1))
    return (2 * len(problem.regular_propositions) * seqs
            + 2 * len(problem.ak_propositions))


def _number(memo, item):
    """``item``'s index in ``memo``, numbering a new item next."""
    i = memo.get(item)
    if i is None:
        i = memo[item] = len(memo)
    return i


def _shape(action, canonical):
    """The shape of a ground action and its propositions in order of first
    occurrence.

    One walk maps every RML of the action to its object in the fluent
    table ``canonical``: an awareness condition, a positive condition or an
    effect outside it raises ``NonRootRML``, and a negative condition
    outside it, never held, is dropped. The shape is the action's outcomes
    in ``_template``'s format over the propositions' positions, its
    awareness as (agent, ``ALWAYS`` or RML index) pairs and the predicate
    of each position. Two actions of one shape differ only by the
    injective, predicate-keeping renaming that maps the first's
    propositions to the second's, position by position."""
    rmls = {}
    conditions = {}

    def number(rml, what):
        return _number(rmls, _fluent(canonical, rml, what))

    awareness = tuple([(agent, mu if mu == ALWAYS
                        else number(mu, 'awareness condition'))
                       for agent, mu in action.awareness.items()])
    outcomes = []
    for outcome in action.outcomes:
        effects = ([], [])
        for ce in outcome:
            pos, neg = _split_condition(
                sorted(ce.condition_pos, key=_condition_order),
                sorted(ce.condition_neg, key=_condition_order), canonical)
            c = (tuple(sorted([_number(rmls, f) for f in pos])),
                 tuple(sorted([_number(rmls, f) for f in neg])))
            effects[ce.delete].append((_number(conditions, c),
                                       number(ce.effect, 'effect')))
        outcomes.append(tuple(map(tuple, effects)))
    atoms = {}
    rml_keys = tuple([(f.modalities, f.negated, _number(atoms, f.atom))
                      for f in rmls])
    template = rml_keys, tuple(conditions), tuple(outcomes)
    return ((template, awareness, tuple([p.predicate for p in atoms])),
            tuple(atoms))


def _condition_order(rml):
    """What a renaming keeps comes first, so that operators of one shape
    mostly number their conditions alike; any order is sound."""
    return (rml.atom.predicate, rml.modalities, rml.negated, rml.atom.args)


def _template(closures, props):
    """Outcome closures with every proposition replaced by its position in
    ``props``: the distinct RMLs as (modalities, negated, position), the
    distinct conditions as (pos, neg) tuples of RML indices, and each
    closure's (adds, dels) as (condition index, RML index) pairs."""
    rmls = {}
    conditions = {}
    effects = [tuple(tuple([(_number(conditions, c), _number(rmls, l))
                            for c, l in effs]) for effs in closure)
               for closure in closures]
    condition_keys = [(tuple([_number(rmls, r) for r in c.pos]),
                       tuple([_number(rmls, r) for r in c.neg]))
                      for c in conditions]
    position = {p: i for i, p in enumerate(props)}
    rml_keys = [(r.modalities, r.negated, position[r.atom]) for r in rmls]
    return rml_keys, condition_keys, effects


def _instantiate(template, props, index):
    """A ``_template`` with ``props`` in the proposition positions; each
    RML is the fluent-table object found through ``index``."""
    rml_keys, condition_keys, effects = template
    rmls = [index[modalities, negated, props[i]]
            for modalities, negated, i in rml_keys]
    conditions = [CompiledCondition([rmls[i] for i in pos],
                                    [rmls[i] for i in neg])
                  for pos, neg in condition_keys]
    # built from a set, a frozenset's table fits its size; built from a
    # list, it keeps the slack of its growth, a third more on depth 2
    return tuple(tuple(frozenset({(conditions[c], rmls[l]) for c, l in effs})
                       for effs in closure) for closure in effects)


def compile_problem(problem, ground_actions, flavor=None,
                    truncated_ground=0):
    fluents, init, goal = encode_base(problem)
    canonical = {f: f for f in fluents}
    table = RmlTable(fluents)
    index = {(f.modalities, f.negated, f.atom): f for f in fluents}
    counters = {'spawned': 0, 'truncated': 0, 'pruned': 0}
    # shape -> (its first pair's pruned closures as a ``_template``, their
    # counts); (outcomes, awareness) -> (outcomes, counts)
    shapes, instances = {}, {}
    operators = []
    for action in ground_actions:
        pre = CompiledCondition(*_split_condition(
            action.precondition_pos, action.precondition_neg, canonical))
        key = action.outcomes, tuple(action.awareness.items())
        if key not in instances:
            shape, props = _shape(action, canonical)
            if shape not in shapes:
                closures = []
                counts = {'spawned': 0, 'pruned': 0}
                # a copy that several outcomes cut counts once
                cut = set()
                for outcome in _instantiate(shape[0], props, index):
                    expanded, outcome_cut = apply_ancillary(
                        outcome, action.awareness, problem.depth,
                        problem.is_ak, table)
                    cut |= outcome_cut
                    counts['spawned'] += (sum(map(len, expanded))
                                          - sum(map(len, outcome)))
                    kept, dropped = _prune(expanded)
                    counts['pruned'] += dropped
                    closures.append(kept)
                counts['truncated'] = len(cut)
                shapes[shape] = _template(closures, props), counts
            template, counts = shapes[shape]
            instances[key] = _instantiate(template, props, index), counts
        outcomes, counts = instances[key]
        for name, n in counts.items():
            counters[name] += n
        operators.append(CompiledOperator(action.name, action.args, pre,
                                          outcomes))

    if flavor is None:
        flavor = CLASSICAL if all(len(op.outcomes) == 1
                                  for op in operators) else FOND
    n_ak = len(problem.ak_propositions)
    report = {
        'version': REPORT_VERSION,
        'flavor': flavor,
        'depth': problem.depth,
        'agents': len(problem.agents),
        'fluents': len(fluents),
        'fluents_regular': len(fluents) - n_ak,
        'fluents_ak': n_ak,
        'fluents_unreduced_style': _unreduced_style_count(problem),
        'operators': len(operators),
        'spawned_ancillary_effects': counters['spawned'],
        'pruned_effects': counters['pruned'],
        'truncated_effects': counters['truncated'] + truncated_ground,
    }
    return CompiledProblem(fluents, init, goal, operators, flavor, report)


# ---------------------------------------------------------------------------
# emission


def fluent_symbol(rml):
    """Deterministic PDDL-safe name, reversible via fluents.map."""
    parts = []
    for mode, agent in rml.modalities:
        parts.append('%s_%s' % (mode.lower(), agent))
    if rml.negated:
        parts.append('not')
    atom = rml.atom.predicate
    if rml.atom.args:
        atom += '__' + '__'.join(rml.atom.args)
    parts.append(atom)
    return '_'.join(parts)


def operator_symbol(op):
    """PDDL action name of an operator or ground action: its name and
    arguments joined by ``__``; plan files are read back through it."""
    return '__'.join((op.name,) + op.args)


def _emission_order(cp):
    """Each fluent's rank, its position in ``sorted(cp.fluents)``, and the
    fluent symbols by rank, so that ordering by ranks is ordering by
    ``RML.sort_key``. The first emit of ``cp`` makes them and keeps them
    on it; compiling and solving never do."""
    if cp._order is None:
        ordered = sorted(cp.fluents, key=RML.sort_key)
        cp._order = ({f: i for i, f in enumerate(ordered)},
                     [fluent_symbol(f) for f in ordered])
    return cp._order


def _condition_text(cond, rank, names):
    """A condition's sort key, its positive then its negative fluent ranks,
    and its PDDL text."""
    pos = sorted([rank[f] for f in cond.pos])
    neg = sorted([rank[f] for f in cond.neg])
    items = ['(%s)' % names[i] for i in pos]
    items += ['(not (%s))' % names[i] for i in neg]
    return (pos, neg), '(and %s)' % ' '.join(items)


def _emit_effects(outcome, rank, names):
    """An (adds, dels) outcome's effects as PDDL lines, grouped by
    condition in condition-rank order: the unconditional ones bare, then one
    ``(when C (and ...))`` per distinct condition. Each group lists deletes
    then adds, each by literal rank."""
    adds, dels = outcome
    groups = {}
    for kind, effects in enumerate((dels, adds)):
        for cond, l in effects:
            groups.setdefault(cond, []).append((kind, rank[l]))
    lines = []
    for ((pos, neg), text), members in sorted(
            (_condition_text(cond, rank, names), members)
            for cond, members in groups.items()):
        body = [('(%s)' if kind else '(not (%s))') % names[i]
                for kind, i in sorted(members)]
        if pos or neg:
            lines.append('      (when %s (and %s))' % (text, ' '.join(body)))
        else:
            lines.extend('      ' + item for item in body)
    return '\n'.join(lines)


def emit_domain(cp, domain_name):
    rank, names = _emission_order(cp)
    # operators that share an expansion share its outcome objects, so each
    # distinct outcome is formatted once and then found by identity
    texts = {}

    def effect_text(outcome):
        if outcome not in texts:
            texts[outcome] = _emit_effects(outcome, rank, names)
        return texts[outcome]

    reqs = ':strips :negative-preconditions :conditional-effects'
    if cp.flavor == FOND:
        reqs += ' :non-deterministic'
    lines = ['(define (domain %s)' % domain_name,
             '  (:requirements %s)' % reqs,
             '  (:predicates']
    for f in cp.fluents:
        lines.append('    (%s)' % names[rank[f]])
    lines.append('  )')
    for op in cp.operators:
        lines.append('  (:action %s' % operator_symbol(op))
        lines.append('    :parameters ()')
        lines.append('    :precondition %s'
                     % _condition_text(op.precondition, rank, names)[1])
        # each effect text is one line of its own, so that no operator
        # makes a copy of it
        if cp.flavor == FOND and len(op.outcomes) > 1:
            lines.append('    :effect (oneof')
            for outcome in op.outcomes:
                lines += ['    (and', effect_text(outcome), '    )']
        else:
            lines += ['    :effect (and', effect_text(op.outcomes[0])]
        lines += ['    )', '  )']
    lines += [')', '']
    return '\n'.join(lines)


def emit_problem(cp, domain_name, problem_name):
    rank, names = _emission_order(cp)
    lines = ['(define (problem %s)' % problem_name,
             '  (:domain %s)' % domain_name,
             '  (:init']
    for i in sorted([rank[f] for f in cp.init]):
        lines.append('    (%s)' % names[i])
    lines.append('  )')
    lines += ['  (:goal %s)' % _condition_text(cp.goal, rank, names)[1],
              ')', '']
    return '\n'.join(lines)


def emit_fluent_map(cp):
    rank, names = _emission_order(cp)
    out = ['%s\t%s' % (names[rank[f]], format_rml(f)) for f in cp.fluents]
    out.append('')
    # an empty table is one empty line
    return '\n'.join(out) or '\n'


def emit_report(cp):
    return json.dumps(cp.report, indent=2, sort_keys=True) + '\n'


def emit_pddl(cp, out_dir, domain_name, problem_name):
    """Write the four artifact files; byte-deterministic."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    artifacts = {
        'domain.pddl': emit_domain(cp, domain_name),
        'problem.pddl': emit_problem(cp, domain_name, problem_name),
        'fluents.map': emit_fluent_map(cp),
        'compile-report.json': emit_report(cp),
    }
    for name, text in artifacts.items():
        path = os.path.join(out_dir, name)
        with open(path, 'w', encoding='utf-8') as handle:
            handle.write(text)
        paths[name] = path
    return paths
