"""In-memory problem model: action schemas, problems, and grounding.

Templates reuse the RML structure with variable tokens (``?x`` for schema
parameters and quantified variables, ``$agent$`` inside awareness
conditions) in agent slots and atom arguments. Grounding substitutes
bindings and expands quantifiers deterministically.

Always-known (AK) atoms appear as depth-0 RMLs over the AK propositions;
a negated AK atom in a condition means the atom must be absent, and a
negated AK effect is a delete.
"""

from itertools import chain, product

from .pekb import ConditionalEffect
from .rml import Proposition, RML

GENERATION = 'valid_generation'
ASSESSMENT = 'valid_assessment'

ALWAYS = 'always'
NEVER = 'never'

AGENT_VAR = '$agent$'


class UnknownSymbol(Exception):
    pass


class DepthExceeded(Exception):
    pass


class Diagnostic:
    """One validation finding."""

    __slots__ = ('severity', 'location', 'message')

    def __init__(self, severity, location, message):
        self.severity = severity
        self.location = location
        self.message = message

    @property
    def is_error(self):
        return self.severity == 'error'

    def __repr__(self):
        return '%s at %s: %s' % (self.severity, self.location, self.message)


class EffectTemplate:
    """One conditional effect of a schema, possibly under forall quantifiers.

    quantified:     tuple of (variable, type) pairs from enclosing foralls
    condition_pos:  RML templates that must hold for the effect to fire
    condition_neg:  RML templates that must not hold
    effect:         the RML template added (delete=False) or erased
    """

    __slots__ = ('quantified', 'condition_pos', 'condition_neg', 'effect',
                 'delete')

    def __init__(self, effect, condition_pos=(), condition_neg=(),
                 quantified=(), delete=False):
        self.quantified = tuple(quantified)
        self.condition_pos = tuple(condition_pos)
        self.condition_neg = tuple(condition_neg)
        self.effect = effect
        self.delete = bool(delete)

    def __repr__(self):
        return 'EffectTemplate(%r, pos=%r, neg=%r, forall=%r, delete=%r)' % (
            self.effect, self.condition_pos, self.condition_neg,
            self.quantified, self.delete)


class EpistemicActionSchema:
    """A parameterized action with awareness condition and outcomes.

    derive_condition is 'always', 'never', or an atom template that may
    mention schema parameters and the observer placeholder $agent$.
    outcomes is a tuple of effect-template tuples; more than one outcome
    makes the action nondeterministic.
    """

    __slots__ = ('name', 'parameters', 'precondition_pos', 'precondition_neg',
                 'derive_condition', 'outcomes')

    def __init__(self, name, parameters, precondition_pos, precondition_neg,
                 derive_condition, outcomes):
        self.name = name
        self.parameters = tuple(parameters)
        self.precondition_pos = tuple(precondition_pos)
        self.precondition_neg = tuple(precondition_neg)
        self.derive_condition = derive_condition
        self.outcomes = tuple(tuple(out) for out in outcomes)

    def __repr__(self):
        return 'EpistemicActionSchema(%r)' % (self.name,)


class GroundAction:
    """A fully instantiated action.

    awareness maps each potentially aware agent to 'always' or a ground RML
    condition; agents with a 'never' derive-condition are absent.
    """

    __slots__ = ('name', 'args', 'precondition_pos', 'precondition_neg',
                 'awareness', 'outcomes')

    def __init__(self, name, args, precondition_pos, precondition_neg,
                 awareness, outcomes):
        self.name = name
        self.args = tuple(args)
        self.precondition_pos = frozenset(precondition_pos)
        self.precondition_neg = frozenset(precondition_neg)
        self.awareness = dict(awareness)
        self.outcomes = tuple(tuple(out) for out in outcomes)

    @property
    def label(self):
        if self.args:
            return '(%s %s)' % (self.name, ' '.join(self.args))
        return '(%s)' % self.name

    def __repr__(self):
        return 'GroundAction%s' % self.label


class RPMEPProblem:
    """A ground-able planning problem over nested-belief fluents.

    Construction enumerates every ground proposition once, ordered by
    predicate name and then by argument tuple: ``regular_propositions``
    and ``ak_propositions`` hold the regular and the always-known ones.
    They depend only on the agents, the objects and the predicates, which
    must not change after construction; ``depth``, the initial state and
    the goal may.
    """

    __slots__ = ('domain_name', 'problem_name', 'agents', 'types',
                 'objects', 'predicates', 'schemas', 'initial', 'goal_pos',
                 'goal_neg', 'depth', 'task', 'plan', 'warnings',
                 'regular_propositions', 'ak_propositions')

    def __init__(self, domain_name, problem_name, agents, types, objects,
                 predicates, schemas, initial, goal_pos, goal_neg, depth,
                 task, plan=None, warnings=()):
        self.domain_name = domain_name
        self.problem_name = problem_name
        self.agents = tuple(agents)
        self.types = tuple(types)
        # objects: tuple of (name, type); agents are implicitly objects of
        # type 'agent'
        self.objects = tuple(objects)
        # predicates: name -> (arg type tuple, ak flag)
        self.predicates = dict(predicates)
        self.schemas = tuple(schemas)
        self.initial = tuple(initial)
        self.goal_pos = tuple(goal_pos)
        self.goal_neg = tuple(goal_neg)
        self.depth = depth
        self.task = task
        self.plan = tuple(plan) if plan is not None else None
        self.warnings = tuple(warnings)
        sides = ([], [])
        for name in sorted(self.predicates):
            arg_types, ak = self.predicates[name]
            sides[bool(ak)].extend(
                Proposition(name, args)
                for args in product(*map(self.objects_of_type, arg_types)))
        self.regular_propositions, self.ak_propositions = map(tuple, sides)

    def objects_of_type(self, typ):
        if typ == 'agent':
            return self.agents
        return tuple(name for name, t in self.objects if t == typ)

    def is_ak(self, atom):
        entry = self.predicates.get(atom.predicate)
        return entry is not None and entry[1]


def _subst_term(term, binding):
    if term.startswith('?') or term == AGENT_VAR:
        try:
            return binding[term]
        except KeyError:
            raise UnknownSymbol('unbound variable %s' % term)
    return term


def _terms(rml):
    return [agent for _, agent in rml.modalities] + list(rml.atom.args)


def subst_rml(template, binding):
    """Instantiate a template RML under a variable binding."""
    mods = tuple((mode, _subst_term(agent, binding))
                 for mode, agent in template.modalities)
    atom = Proposition(template.atom.predicate,
                       tuple(_subst_term(a, binding)
                             for a in template.atom.args))
    return RML(mods, template.negated, atom)


def _bindings(problem, parameters):
    """Every binding of the typed variables, the first varying slowest."""
    names = [var for var, _ in parameters]
    return [dict(zip(names, values)) for values in
            product(*[problem.objects_of_type(typ) for _, typ in parameters])]


def _instantiate_effects(problem, templates, binding, truncated):
    effects = []
    for tpl in templates:
        for ext in _bindings(problem, tpl.quantified):
            full = dict(binding, **ext)
            effect = subst_rml(tpl.effect, full)
            if effect.depth > problem.depth:
                truncated.append(effect)
                continue
            pos = tuple(subst_rml(c, full) for c in tpl.condition_pos)
            neg = tuple(subst_rml(c, full) for c in tpl.condition_neg)
            if any(c.depth > problem.depth for c in pos + neg):
                truncated.append(effect)
                continue
            effects.append(ConditionalEffect(pos, effect, delete=tpl.delete,
                                             condition_neg=neg))
    return tuple(effects)


class GroundingReport:
    """Counters produced as a side effect of grounding."""

    __slots__ = ('truncated_effects',)

    def __init__(self):
        self.truncated_effects = 0


def _read_parameters(schema):
    """The parameters in a modality or argument slot of the derive
    condition, an effect or a when-condition. This is sound: bindings that
    agree on them substitute these templates alike, and the depth cut
    reads only the results, so they ground the same awareness, outcomes
    and truncated count; a quantified variable that shadows one only
    makes the key finer."""
    mu = schema.derive_condition
    templates = [mu] if isinstance(mu, RML) else []
    for tpl in chain(*schema.outcomes):
        templates += (tpl.effect,) + tpl.condition_pos + tpl.condition_neg
    read = {term for rml in templates for term in _terms(rml)}
    return [var for var, _ in schema.parameters if var in read]


def ground(problem, report=None):
    """All ground actions of the problem, in deterministic order. The
    bindings of a schema that agree on its ``_read_parameters`` share one
    grounding of the awareness and the outcomes, objects included, and
    its truncated count, which ``report`` adds once per action."""
    if report is None:
        report = GroundingReport()
    actions = []
    for schema in problem.schemas:
        read = _read_parameters(schema)
        shared = {}
        for binding in _bindings(problem, schema.parameters):
            pre_pos = tuple(subst_rml(c, binding)
                            for c in schema.precondition_pos)
            pre_neg = tuple(subst_rml(c, binding)
                            for c in schema.precondition_neg)
            for c in pre_pos + pre_neg:
                if c.depth > problem.depth:
                    raise DepthExceeded(
                        'precondition %s of %s exceeds depth %d'
                        % (c, schema.name, problem.depth))
            key = tuple([binding[var] for var in read])
            if key not in shared:
                mu = schema.derive_condition
                awareness = {agent: mu if mu == ALWAYS else subst_rml(
                    mu, dict(binding, **{AGENT_VAR: agent}))
                    for agent in problem.agents if mu != NEVER}
                truncated = []
                outcomes = tuple(
                    _instantiate_effects(problem, out, binding, truncated)
                    for out in schema.outcomes)
                shared[key] = awareness, outcomes, len(truncated)
            awareness, outcomes, truncated = shared[key]
            report.truncated_effects += truncated
            args = tuple(binding[var] for var, _ in schema.parameters)
            actions.append(GroundAction(schema.name, args, pre_pos, pre_neg,
                                        awareness, outcomes))
    return actions


def _check_symbols(problem, rml, location, diagnostics, bound=()):
    """Unknown names, wrong arity, constant arguments that are no object
    of their type, and variables outside ``bound`` (variable -> type) or
    of another type than their slot."""
    def error(message):
        diagnostics.append(Diagnostic('error', location, message))

    def check(term, typ, unknown):
        if term in bound and bound[term] != typ:
            error('%s is of type %s, not %s, in %s'
                  % (term, bound[term], typ, rml))
        elif not term.startswith('?') and term != AGENT_VAR \
                and term not in problem.objects_of_type(typ):
            error(unknown)

    for term in _terms(rml):
        if (term.startswith('?') or term == AGENT_VAR) and term not in bound:
            error('unbound variable %s in %s' % (term, rml))
    entry = problem.predicates.get(rml.atom.predicate)
    if entry is None:
        error('unknown predicate %s' % rml.atom.predicate)
        return
    arg_types, ak = entry
    if len(arg_types) != len(rml.atom.args):
        error('predicate %s expects %d arguments, got %d'
              % (rml.atom.predicate, len(arg_types), len(rml.atom.args)))
    else:
        for arg, typ in zip(rml.atom.args, arg_types):
            check(arg, typ, 'unknown object %s of type %s in %s'
                  % (arg, typ, rml))
    if ak and rml.modalities:
        error('always-known atom %s may not appear under belief modalities'
              % rml.atom)
    for _, agent in rml.modalities:
        check(agent, 'agent', 'unknown agent %s' % agent)


def validate_model(problem):
    """Well-formedness diagnostics; errors make the problem unusable."""
    diagnostics = list(problem.warnings)

    def error(location, message):
        diagnostics.append(Diagnostic('error', location, message))

    seen = set()
    for name, _ in problem.objects:
        if name in seen:
            error('problem', 'object %s is declared more than once' % name)
        seen.add(name)

    def check_bounded(rmls, location, bound=()):
        # effects deeper than the bound are truncated at grounding; init,
        # goal and preconditions must lie within it
        for rml in rmls:
            _check_symbols(problem, rml, location, diagnostics, bound)
            if rml.depth > problem.depth:
                error(location, '%s exceeds depth bound %d'
                      % (rml, problem.depth))

    check_bounded(problem.initial, 'init')
    check_bounded(problem.goal_pos + problem.goal_neg, 'goal')
    for schema in problem.schemas:
        loc = 'action %s' % schema.name
        params = dict(schema.parameters)
        check_bounded(schema.precondition_pos + schema.precondition_neg, loc,
                     params)
        if schema.derive_condition not in (ALWAYS, NEVER):
            _check_symbols(problem, schema.derive_condition, loc,
                           diagnostics, {**params, AGENT_VAR: 'agent'})
        for outcome in schema.outcomes:
            for tpl in outcome:
                bound = {**params, **dict(tpl.quantified)}
                for c in (tpl.effect,) + tpl.condition_pos + tpl.condition_neg:
                    _check_symbols(problem, c, loc, diagnostics, bound)
                # constraint: AK-changing effects may only watch AK atoms
                if problem.is_ak(tpl.effect.atom):
                    for c in tpl.condition_pos + tpl.condition_neg:
                        c_pred = problem.predicates.get(c.atom.predicate)
                        if c_pred and not c_pred[1]:
                            error(loc, 'effect on always-known %s conditioned '
                                  'on regular %s' % (tpl.effect.atom, c))
    if problem.task == ASSESSMENT and problem.plan is None:
        error('problem', 'assessment task without a (:plan ...)')
    if problem.depth < 0:
        error('problem', 'depth bound must be non-negative, not %d'
              % problem.depth)
    return diagnostics
