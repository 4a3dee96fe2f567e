"""In-memory problem model: action schemas, problems, and grounding.

Templates reuse the RML structure with variable tokens (``?x`` for schema
parameters and quantified variables, ``$agent$`` inside awareness
conditions) in agent slots and atom arguments. Grounding substitutes
bindings and expands quantifiers deterministically.

Always-known (AK) atoms appear as depth-0 RMLs over the AK propositions;
a negated AK atom in a condition means the atom must be absent, and a
negated AK effect is a delete.

``ground`` substitutes each schema once per *binding pattern*, not once
per binding: bindings that agree on the parameters the awareness and the
effects read share one ``Grounding``, and of those groundings only the
first of each pattern is built. Every other one is a renaming of it,
built only when something reads it; the validator does, the compiler
does not, as it walks each pattern once and renames propositions. The
133 actions of a four-agent grapevine problem make 61 groundings in 5
patterns, so 5 are built, where each of the 61 was. ``ground`` gives the
soundness argument.
"""

from itertools import chain, product
from sys import intern

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


class Grounding:
    """The awareness and the outcomes of one binding of a schema, which
    every binding with the same values of the ``_read_parameters`` shares.

    ``first`` is the grounding of the first binding of the same binding
    pattern (see ``ground``), the grounding itself for that binding. A
    later one holds only a renaming of ``first``'s proposition arguments:
    ``slots`` maps a predicate to the argument positions that only
    parameters fill, and ``values`` maps the first binding's parameter
    values to this one's. Its awareness and outcomes are ``first``'s with
    every atom renamed, built when first read and kept, so the bindings
    that share it share their outcome objects too.
    """

    __slots__ = ('first', '_slots', '_values', '_awareness', '_outcomes')

    def __init__(self, awareness, outcomes):
        self.first = self
        self._slots = {}
        self._values = {}
        self._awareness = awareness
        self._outcomes = outcomes

    def renamed(self, slots, values):
        """A grounding of this one's pattern under a renaming; nothing of
        it is built."""
        other = Grounding(None, None)
        other.first = self
        other._slots = slots
        other._values = values
        return other

    def rename(self, atom):
        """An atom of ``first``'s grounding as this grounding has it."""
        positions = self._slots.get(atom.predicate)
        if not positions:
            return atom
        args = list(atom.args)
        for i in positions:
            if i < len(args):
                args[i] = self._values[args[i]]
        return Proposition._of(atom.predicate, tuple(args))

    def _rename_rml(self, rml):
        return RML._of(rml.modalities, rml.negated, self.rename(rml.atom))

    @property
    def awareness(self):
        if self._awareness is None:
            self._awareness = {
                agent: mu if mu == ALWAYS else self._rename_rml(mu)
                for agent, mu in self.first.awareness.items()}
        return self._awareness

    @property
    def outcomes(self):
        if self._outcomes is None:
            rename = self._rename_rml
            self._outcomes = tuple(
                tuple([ConditionalEffect(map(rename, ce.condition_pos),
                                         rename(ce.effect), delete=ce.delete,
                                         condition_neg=map(rename,
                                                           ce.condition_neg))
                       for ce in outcome])
                for outcome in self.first.outcomes)
        return self._outcomes


class GroundAction:
    """A fully instantiated action.

    awareness maps each potentially aware agent to 'always' or a ground RML
    condition; agents with a 'never' derive-condition are absent. Both it
    and the outcomes are read from ``grounding``, which ``ground`` shares
    between bindings and builds only when read; a hand-built action is
    the first of its own pattern, under the identity renaming.
    """

    __slots__ = ('name', 'args', 'precondition_pos', 'precondition_neg',
                 'grounding')

    def __init__(self, name, args, precondition_pos, precondition_neg,
                 awareness, outcomes):
        self._set(name, args, precondition_pos, precondition_neg,
                  Grounding(dict(awareness),
                            tuple(tuple(out) for out in outcomes)))

    def _set(self, name, args, precondition_pos, precondition_neg,
             grounding):
        self.name = name
        self.args = tuple(args)
        self.precondition_pos = frozenset(precondition_pos)
        self.precondition_neg = frozenset(precondition_neg)
        self.grounding = grounding

    @classmethod
    def _of(cls, name, args, precondition_pos, precondition_neg, grounding):
        """An action over a grounding that ``ground`` made."""
        action = cls.__new__(cls)
        action._set(name, args, precondition_pos, precondition_neg,
                    grounding)
        return action

    @property
    def awareness(self):
        return self.grounding.awareness

    @property
    def outcomes(self):
        return self.grounding.outcomes

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
        # names are interned once here, so that substitution and renaming
        # build canonical RMLs from them as they are
        self.agents = tuple([intern(str(a)) for a in agents])
        self.types = tuple(types)
        # objects: tuple of (name, type); agents are implicitly objects of
        # type 'agent'
        self.objects = tuple([(intern(str(name)), typ)
                              for name, typ in objects])
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
            predicate = intern(str(name))
            sides[bool(ak)].extend(
                Proposition._of(predicate, args)
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
    """Instantiate a template RML under a variable binding to names of the
    problem. The result is canonical as built unless the binding makes two
    adjacent agents equal, and only then is it reduced."""
    mods = tuple([(mode, _subst_term(agent, binding))
                  for mode, agent in template.modalities])
    atom = Proposition._of(template.atom.predicate,
                           tuple([_subst_term(a, binding)
                                  for a in template.atom.args]))
    for i in range(1, len(mods)):
        if mods[i - 1][1] == mods[i][1]:
            return RML(mods, template.negated, atom)
    return RML._of(mods, template.negated, atom)


def _values(problem, parameters):
    """Every tuple of values of the typed variables, the first varying
    slowest."""
    return product(*[problem.objects_of_type(typ) for _, typ in parameters])


def _bindings(problem, parameters):
    """Every binding of the typed variables, in ``_values`` order."""
    names = [var for var, _ in parameters]
    return [dict(zip(names, values))
            for values in _values(problem, parameters)]


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
    """The parameters that the derive condition, an effect or a
    when-condition read, in schema order, and where they read them: the
    set of those in a modality slot, and for each atom slot, a (predicate,
    argument position) pair, the set of its fillers. A filler is a
    parameter's name, or None for a constant, ``$agent$`` or a quantified
    variable, also one that shadows a parameter. Bindings that agree on
    the read parameters substitute these templates alike, so they ground
    the same awareness, outcomes and truncated count."""
    params = {var for var, _ in schema.parameters}
    mu = schema.derive_condition
    scoped = [(mu, set())] if isinstance(mu, RML) else []
    for tpl in chain(*schema.outcomes):
        shadowed = {var for var, _ in tpl.quantified}
        scoped += [(rml, shadowed) for rml in
                   (tpl.effect,) + tpl.condition_pos + tpl.condition_neg]
    modal, slots = set(), {}
    for rml, shadowed in scoped:
        own = params - shadowed
        modal.update(agent for _, agent in rml.modalities if agent in own)
        for i, term in enumerate(rml.atom.args):
            slots.setdefault((rml.atom.predicate, i), set()).add(
                term if term in own else None)
    read = modal.union(*slots.values())
    return [var for var, _ in schema.parameters if var in read], modal, slots


def _binding_patterns(problem, schema):
    """The read parameters of the schema, the pattern key of their values
    and the slots that a renaming between bindings of one pattern changes,
    as ``Grounding.renamed`` takes them: predicate -> the argument
    positions that only parameters fill.

    The key has four parts: the value of each read parameter in a
    modality slot; the value of each read parameter that shares an atom
    slot with a constant, ``$agent$`` or a quantified variable; the
    equality partition of all read values; and, for each parameter in a
    slot that only parameters fill, whether its value is an object of the
    slot's type. See ``ground`` for why it suffices."""
    read, modal, slots = _read_parameters(schema)
    fixed = set(modal)
    renamed = {}
    typed = []
    for (predicate, i), fillers in slots.items():
        if None in fillers:
            fixed |= fillers
            continue
        renamed.setdefault(predicate, []).append(i)
        entry = problem.predicates.get(predicate)
        if entry is not None and i < len(entry[0]):
            members = frozenset(problem.objects_of_type(entry[0][i]))
            typed += [(read.index(var), members) for var in sorted(fillers)]
    fixed = [read.index(var) for var in read if var in fixed]

    def key(values):
        return (tuple([values[i] for i in fixed]),
                tuple([values.index(v) for v in values]),
                tuple([values[i] in members for i, members in typed]))

    return read, key, {p: tuple(positions) for p, positions in
                       renamed.items()}


def ground(problem, report=None):
    """All ground actions of the problem, in deterministic order.

    The bindings of a schema that agree on its ``_read_parameters`` share
    one ``Grounding`` of the awareness and the outcomes, and its truncated
    count, which ``report`` adds once per action. Only the first binding
    of each *binding pattern*, the key of ``_binding_patterns``, is
    grounded; every later one gets a renaming of that grounding, which
    builds nothing until read. On a four-agent grapevine problem the 133
    actions make 61 groundings of 5 patterns: ``move`` with distinct and
    with equal locations, ``share``, ``fib`` and ``initialize``.

    This is sound. Take a first binding b1 and a later one b2 of one
    pattern, and on each atom slot define a map s. On a slot that only
    parameters fill, s maps b1's value of each of them to b2's: it is
    well defined and injective because the equality partitions agree,
    and every argument of b1's grounding in such a slot is one of those
    values. On any other slot s is the identity, which is right because
    its parameters' values are in the key and its other fillers,
    constants, ``$agent$`` and quantified variables, take the same values
    under both bindings, in the same order. A modality holds a keyed
    parameter or such a filler, so the modalities agree. So b2's
    grounding is, RML for RML and in the same order, b1's with s applied
    to every atom's arguments; as the modalities agree, so do the depth
    cut and with it the truncated count. s is injective and keeps
    predicates, so the compiler's renaming argument carries over to the
    closures. As the slot-type bits agree, an RML of b2 is in the fluent
    table exactly when its preimage in b1 is, so ``NonRootRML`` and the
    dropping of negative conditions outside the table fall alike across
    a pattern.

    Each distinct precondition RML is built once per schema, keyed on the
    values of the parameters that its template reads, and its depth is
    checked when it is first built."""
    if report is None:
        report = GroundingReport()
    actions = []
    for schema in problem.schemas:
        read, pattern, slots = _binding_patterns(problem, schema)
        templates = schema.precondition_pos + schema.precondition_neg
        pre_reads = [[var for var, _ in schema.parameters
                      if var in _terms(tpl)] for tpl in templates]
        n_pos = len(schema.precondition_pos)
        built = {}
        shared = {}
        firsts = {}
        names = [var for var, _ in schema.parameters]
        for args in _values(problem, schema.parameters):
            binding = dict(zip(names, args))
            pre = []
            fresh = []
            for i, tpl in enumerate(templates):
                pre_key = (i,) + tuple([binding[var] for var in pre_reads[i]])
                c = built.get(pre_key)
                if c is None:
                    c = built[pre_key] = subst_rml(tpl, binding)
                    fresh.append(c)
                pre.append(c)
            for c in fresh:
                if c.depth > problem.depth:
                    raise DepthExceeded(
                        'precondition %s of %s exceeds depth %d'
                        % (c, schema.name, problem.depth))
            values = tuple([binding[var] for var in read])
            if values not in shared:
                key = pattern(values)
                if key in firsts:
                    first, truncated, first_values = firsts[key]
                    grounding = first.renamed(
                        slots, dict(zip(first_values, values)))
                else:
                    mu = schema.derive_condition
                    awareness = {agent: mu if mu == ALWAYS else subst_rml(
                        mu, dict(binding, **{AGENT_VAR: agent}))
                        for agent in problem.agents if mu != NEVER}
                    cut = []
                    outcomes = tuple(
                        _instantiate_effects(problem, out, binding, cut)
                        for out in schema.outcomes)
                    grounding = Grounding(awareness, outcomes)
                    truncated = len(cut)
                    firsts[key] = grounding, truncated, values
                shared[values] = grounding, truncated
            grounding, truncated = shared[values]
            report.truncated_effects += truncated
            actions.append(GroundAction._of(schema.name, args, pre[:n_pos],
                                            pre[n_pos:], grounding))
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
        # goal and preconditions must lie within it, unless the bound is
        # negative, which is then the one error named
        for rml in rmls:
            _check_symbols(problem, rml, location, diagnostics, bound)
            if rml.depth > problem.depth >= 0:
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
