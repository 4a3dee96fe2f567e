"""PDKBDDL front end.

The language is a PDDL-like s-expression format with belief prefixes
``[ag]`` (belief) and ``<ag>`` (possibility), ``{AK}`` predicate markers,
``{include:file}`` composition, ``(!p)`` shorthand negation, and
``:derive-condition`` awareness annotations.

Includes are spliced into the token stream before tree building, with each
token keeping its own source and offset so diagnostics point at the real
file, line and column; the line and column are worked out only when a
diagnostic reads them. Tree building folds markers into the element they
prefix. Symbols are case-insensitive and normalized to lower case.
"""

import bisect
import os
import re

from .model import (ALWAYS, ASSESSMENT, GENERATION, NEVER, Diagnostic,
                    EffectTemplate, EpistemicActionSchema, RPMEPProblem,
                    UnknownSymbol, _bindings, subst_rml)
from .pekb import is_consistent
from .rml import BELIEF, POSSIBLE, Proposition, RML, lit


class ParseError(Exception):
    """Syntax or structural error, with source position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos:
            message = '%s:%d:%d: %s' % (pos[0], pos[1], pos[2], message)
        super().__init__(message)


class IncludeCycle(ParseError):
    pass


class SemanticError(Exception):
    """Raised when desugaring hits error diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__('; '.join(str(d) for d in diagnostics
                                   if d.is_error))


class Source:
    """A scanned text and its file name. The start of each line is found
    when a position is first asked for, so a text that parses without a
    diagnostic never counts its lines."""

    __slots__ = ('filename', 'text', '_line_starts')

    def __init__(self, filename, text):
        self.filename = filename
        self.text = text
        self._line_starts = None

    def position(self, offset):
        """``(filename, line, column)`` of an offset; lines count from 1
        and columns from 0."""
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0] + [
                m.end() for m in re.finditer('\n', self.text)]
        line = bisect.bisect(starts, offset)
        return (self.filename, line, offset - starts[line - 1])


class Token:
    __slots__ = ('kind', 'value', 'source', 'offset')

    # kinds: 'lp', 'rp', 'sym', 'modal' (value (mode, agent)), 'ak',
    # 'include' (value the included path)

    def __init__(self, kind, value, source, offset):
        self.kind = kind
        self.value = value
        self.source = source
        self.offset = offset

    @property
    def pos(self):
        """``(filename, line, column)``, worked out from the offset."""
        return self.source.position(self.offset)

    def __repr__(self):
        return 'Token(%s, %r)' % (self.kind, self.value)


# One alternative per token kind, each after the blanks that precede it,
# so the scan never retries the alternatives at a blank. ``skip`` is a
# comment or the end of the text: after the blanks some alternative always
# matches, so ``\s*`` never gives a blank back and trailing blanks are
# scanned once, not once per blank. The last two alternatives only ever
# raise.
_TOKEN_RE = re.compile(r"""
    \s*
    (?:
      (?P<skip> ;[^\n]* | \Z )
    | (?P<lp> \( )
    | (?P<rp> \) )
    | (?P<modal> \[[^\]]*\] | <[^>]*> )
    | (?P<marker> \{[^}]*\} )
    | (?P<sym> [^\s()\[\]<>{};]+ )
    | (?P<unterminated> [\[<{] )
    | (?P<unexpected> \S )
    )
""", re.VERBOSE)


def tokenize(text, filename='<string>'):
    """Tokens of ``text``, each at its offset in one ``Source``."""
    source = Source(filename, text)
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == 'skip':
            continue
        word = match.group(kind)
        offset = match.start(kind)
        if kind in ('sym', 'lp', 'rp'):
            tokens.append(Token(kind, word.lower(), source, offset))
        elif kind == 'modal':
            name = word[1:-1].strip().lower()
            if not name:
                raise ParseError('empty belief marker',
                                 source.position(offset))
            mode = BELIEF if word[0] == '[' else POSSIBLE
            tokens.append(Token(kind, (mode, name), source, offset))
        elif kind == 'marker':
            if word.lower() == '{ak}':
                tokens.append(Token('ak', word, source, offset))
            elif word.lower().startswith('{include:'):
                # include splice happens in tokenize_file; a bare include
                # here means tokenize was called on raw text
                tokens.append(Token('include', word[9:-1].strip(), source,
                                    offset))
            else:
                raise ParseError('unknown marker %s' % word,
                                 source.position(offset))
        elif word == '{':
            raise ParseError('unterminated { marker', source.position(offset))
        elif kind == 'unterminated':
            raise ParseError('unterminated %r belief marker' % word,
                             source.position(offset))
        else:
            raise ParseError('unexpected character %r' % word,
                             source.position(offset))
    return tokens


def tokenize_file(path, _stack=None):
    """Tokenize a file, splicing {include:...} token streams in place."""
    path = os.path.abspath(path)
    stack = _stack or ()
    if path in stack:
        raise IncludeCycle('include cycle through %s' % path,
                           (path, 0, 0))
    with open(path, encoding='utf-8') as handle:
        text = handle.read()
    out = []
    for token in tokenize(text, path):
        if token.kind == 'include':
            child = os.path.join(os.path.dirname(path), token.value)
            if not os.path.exists(child):
                raise ParseError('include not found: %s' % token.value,
                                 token.pos)
            out.extend(tokenize_file(child, stack + (path,)))
        else:
            out.append(token)
    return out


def _dangling(run):
    """A ``ParseError`` at the first marker of a run that prefixes no
    element, if ``run`` is one."""
    if run:
        raise ParseError('dangling %s marker' % (
            '{AK}' if run[0].kind == 'ak' else 'belief'), run[0].pos)


def _build_trees(tokens):
    """Nest the token stream into lists on parentheses. A run of belief or
    ``{AK}`` markers folds into one list with the element it prefixes as
    that element is appended: ``[a] <b> (p)`` becomes ``[[a], <b>, (p)]``.
    Only such a folded node begins with a marker."""
    stack = [([], [])]  # (elements, pending marker run) per open list
    for token in tokens:
        if token.kind == 'lp':
            stack.append(([], []))
        elif token.kind in ('modal', 'ak'):
            stack[-1][1].append(token)
        else:
            node = token
            if token.kind == 'rp':
                if len(stack) == 1:
                    raise ParseError('unbalanced )', token.pos)
                node, run = stack.pop()
                _dangling(run)
            items, run = stack[-1]
            if run:
                node = run + [node]
                run.clear()
            items.append(node)
    if len(stack) > 1:
        raise ParseError('missing )', tokens[-1].pos if tokens else None)
    _dangling(stack[0][1])
    return stack[0][0]


class Ast:
    """Parsed source: the top-level (define ...) trees."""

    __slots__ = ('units',)

    def __init__(self, units):
        self.units = list(units)


def parse(tokens):
    trees = _build_trees(tokens)
    for tree in trees:
        if not isinstance(tree, list) or not tree \
                or getattr(tree[0], 'value', None) != 'define':
            raise ParseError('expected (define ...) at top level', _pos(tree))
    return Ast(trees)


def parse_file(path):
    return parse(tokenize_file(path))


def parse_text(text, filename='<string>'):
    tokens = tokenize(text, filename)
    if any(t.kind == 'include' for t in tokens):
        raise ParseError('includes require file-based parsing')
    return parse(tokens)


# ---------------------------------------------------------------------------
# desugaring


def _sym(node, what='symbol'):
    if not isinstance(node, Token) or node.kind != 'sym':
        raise ParseError('expected %s' % what, _pos(node))
    return node.value


def _field(tree, i, what):
    """The symbol ``tree[i]``; a missing one is an error at the tree."""
    if i >= len(tree):
        raise ParseError('expected %s' % what, _pos(tree))
    return _sym(tree[i], what)


def _pos(node):
    if isinstance(node, Token):
        return node.pos
    for item in node:
        return _pos(item)
    return None


def _typed_list(nodes, default_type):
    """Parse `a b - t c d - u` name/type runs."""
    out = []
    pending = []
    it = iter(nodes)
    for node in it:
        word = _sym(node, 'name or -')
        if word == '-':
            typ = next(it, None)
            if typ is None:
                raise ParseError('expected type name', node.pos)
            typ = _sym(typ, 'type name')
            out.extend((name, typ) for name in pending)
            pending = []
        else:
            pending.append(word)
    for name in pending:
        if name.startswith('?agent') or name == 'agent':
            out.append((name, 'agent'))
        else:
            out.append((name, default_type))
    return out


def _atom_template(tree):
    """(pred args) or (!pred args) -> (negated, Proposition template)."""
    if not tree or not isinstance(tree[0], Token):
        raise ParseError('expected an atom', _pos(tree))
    name = _sym(tree[0], 'predicate')
    negated = name.startswith('!')
    if negated:
        name = name[1:]
    if not name:
        raise ParseError('empty predicate name', tree[0].pos)
    args = tuple(_sym(a, 'atom argument') for a in tree[1:])
    return negated, Proposition(name, args)


def _walk(node, effect=False, mods=(), quant=(), cond_pos=(), cond_neg=()):
    """Flatten a formula into (quantifiers, when_pos, when_neg, negated, rml)
    literals: ``negated`` is an outer ``not`` and ``rml`` the RML template
    under it, whose own polarity is the ``(!p)`` shorthand's.

    Handles ``and``, ``forall ?v [- type]``, ``not``, stacked belief
    markers and, in an effect outside any belief marker or ``not``,
    ``(when C E)``: C's literals join the when-conditions of E's literals.
    Quantifiers are (variable, type) pairs, outermost first; anywhere else
    ``when`` reads as an atom.
    """
    if isinstance(node, Token):
        raise ParseError('expected an effect formula' if effect
                         else 'expected a formula', node.pos)
    items = list(node)
    while items and isinstance(items[0], Token) and items[0].kind == 'modal':
        mods += (items[0].value,)
        effect = False
        items = items[1:]
    if not items:
        raise ParseError('empty formula', _pos(node))
    head = items[0]
    word = head.value if isinstance(head, Token) and head.kind == 'sym' \
        else None
    if word is None:
        if isinstance(head, Token) and head.kind == 'ak':
            raise ParseError('misplaced {AK} marker: only a :predicates '
                             'declaration takes it', head.pos)
        # a bare nested list, e.g. ((p))
        if len(items) == 1:
            return _walk(head, effect, mods, quant, cond_pos, cond_neg)
        raise ParseError('cannot parse formula', _pos(node))
    if word == 'and':
        return [t for child in items[1:]
                for t in _walk(child, effect, mods, quant, cond_pos,
                               cond_neg)]
    if word == 'forall':
        var = _field(items, 1, 'quantified variable')
        rest = items[2:]
        typ = 'agent'
        if rest and isinstance(rest[0], Token) and rest[0].value == '-':
            typ = _field(rest, 1, 'type name')
            rest = rest[2:]
        quant += ((var, typ),)
        return [t for child in rest
                for t in _walk(child, effect, mods, quant, cond_pos,
                               cond_neg)]
    if word == 'not':
        args = items[1:]
        if len(args) != 1:
            raise ParseError('(not ...) takes one formula', head.pos)
        literals = _walk(args[0], False, mods, quant, cond_pos, cond_neg)
        if any(negated for _, _, _, negated, _ in literals):
            raise ParseError('nested (not (not ...))', head.pos)
        return [(q, pos, neg, True, rml) for q, pos, neg, _, rml in literals]
    if word == 'when' and effect:
        args = items[1:]
        if len(args) != 2:
            raise ParseError('(when cond effect)', head.pos)
        pos, neg = _condition(args[0], 'when conditions', head)
        return _walk(args[1], True, mods, quant, cond_pos + tuple(pos),
                     cond_neg + tuple(neg))
    negated, atom = _atom_template(items)
    return [(quant, cond_pos, cond_neg, False, RML(mods, negated, atom))]


def _condition(node, where, at):
    """(positive, negative) RML templates of a formula without forall; a
    forall is an error at the node ``at``."""
    pos_rmls, neg_rmls = [], []
    for quant, _, _, negated, rml in _walk(node):
        if quant:
            raise ParseError('forall not allowed in %s' % where, _pos(at))
        (neg_rmls if negated else pos_rmls).append(rml)
    return pos_rmls, neg_rmls


_KNOWN = {
    'domain': {':agents', ':types', ':constants', ':predicates', ':action'},
    'problem': {':domain', ':objects', ':projection', ':task', ':init-type',
                ':init', ':goal', ':plan', ':depth'},
    'action': {':parameters', ':precondition', ':effect',
               ':derive-condition'}}


def _section_map(body, kind, allowed_multi=()):
    """Group the (:key ...) children of a domain or problem body; a key
    outside ``_KNOWN[kind]`` is an error."""
    sections = {}
    for item in body:
        if not isinstance(item, list) or not item \
                or not isinstance(item[0], Token) or item[0].kind != 'sym' \
                or not item[0].value.startswith(':'):
            raise ParseError('expected a (:section ...)', _pos(item))
        key = item[0].value
        if key not in _KNOWN[kind]:
            raise ParseError('unknown %s section %s' % (kind, key),
                             item[0].pos)
        if key in sections and key not in allowed_multi:
            raise ParseError('duplicate %s' % key, item[0].pos)
        sections.setdefault(key, []).append(item)
    return sections


def _parse_action(tree, predicates):
    """The action's ``EpistemicActionSchema``: its precondition and its
    effects are lowered (``_lower_condition``, ``_lower_effect``) against
    ``predicates`` as they are read."""
    name = _field(tree, 1, 'action name')
    fields = {}
    it = iter(tree[2:])
    for node in it:
        key = _sym(node, 'action field')
        if key not in _KNOWN['action']:
            raise ParseError('unknown field %s in action %s' % (key, name),
                             node.pos)
        if key in fields:
            raise ParseError('duplicate %s' % key, node.pos)
        fields[key] = next(it, None)
        if fields[key] is None:
            raise ParseError('%s has no value' % key, node.pos)
    derive = fields.get(':derive-condition')
    if derive is None:
        derive_condition = NEVER
    elif isinstance(derive, Token):
        word = _sym(derive, 'derive condition')
        if word not in (ALWAYS, NEVER):
            raise ParseError('derive-condition must be always, never, or an '
                             'atom', derive.pos)
        derive_condition = word
    else:
        negated, atom = _atom_template(derive)
        if negated:
            raise ParseError('derive-condition atom cannot be negated',
                             _pos(derive))
        derive_condition = lit(atom)
    parameters = _typed_list(fields.get(':parameters') or [], 'object')
    pre_pos, pre_neg = (), ()
    if fields.get(':precondition') is not None:
        pre_pos, pre_neg = _lower_condition(predicates, *_condition(
            fields[':precondition'], 'preconditions', tree))
    walked = [[]]
    effect = fields.get(':effect')
    if effect is not None:
        branches = [effect]
        if isinstance(effect, list) and effect \
                and isinstance(effect[0], Token) and effect[0].value == 'oneof':
            branches = effect[1:]
        walked = [_walk(b, effect=True) for b in branches]
    outcomes = [[_lower_effect(predicates, *literal, tree)
                 for literal in branch] for branch in walked]
    return EpistemicActionSchema(name, parameters, pre_pos, pre_neg,
                                 derive_condition, outcomes)


def desugar(ast):
    """Lower a parsed source to an RPMEPProblem.

    Raises SemanticError when structural errors are found; parse-and-ignore
    constructs produce warning diagnostics on the problem.
    """
    warnings = []
    domain_tree = None
    problem_tree = None
    for unit in ast.units:
        header = unit[1] if len(unit) > 1 else None
        if not isinstance(header, list) or not header:
            raise ParseError('expected (domain name) or (problem name)',
                             _pos(unit))
        kind = _sym(header[0], 'define kind')
        if kind == 'domain':
            domain_tree = unit
        elif kind == 'problem':
            problem_tree = unit
        else:
            raise ParseError('unknown define kind %s' % kind, _pos(header))
    if domain_tree is None:
        raise SemanticError([Diagnostic('error', 'input',
                                        'no (define (domain ...)) found')])

    domain_name = _field(domain_tree[1], 1, 'domain name')
    sections = _section_map(domain_tree[2:], 'domain',
                            allowed_multi=(':action',))
    agents = tuple(_sym(t, 'agent name')
                   for t in sections.get(':agents', [[None]])[0][1:])
    types = tuple(_sym(t, 'type name')
                  for t in sections.get(':types', [[None]])[0][1:])

    constants = tuple(_typed_list(
        sections.get(':constants', [[None]])[0][1:], 'object'))

    predicates = {}
    for node in sections.get(':predicates', [[None]])[0][1:]:
        ak = isinstance(node, list) and bool(node) \
            and isinstance(node[0], Token) and node[0].kind == 'ak'
        if ak:
            node = node[1]
        if not isinstance(node, list) or not node:
            raise ParseError('expected (predicate ...) declaration',
                             _pos(node) if node else _pos(domain_tree))
        name = _sym(node[0], 'predicate name')
        params = _typed_list(node[1:], 'object')
        predicates[name] = (tuple(t for _, t in params), ak)

    schemas = [_parse_action(tree, predicates)
               for tree in sections.get(':action', [])]

    # problem side
    problem_name = 'anonymous'
    objects = constants
    depth = 1
    task = GENERATION
    plan = None
    psections = {}
    if problem_tree is not None:
        problem_name = _field(problem_tree[1], 1, 'problem name')
        psections = _section_map(problem_tree[2:], 'problem')
        if ':domain' in psections:
            declared = _field(psections[':domain'][0], 1, 'domain name')
            if declared != domain_name:
                warnings.append(Diagnostic(
                    'warning', 'problem',
                    'problem references domain %s, found %s'
                    % (declared, domain_name)))
        if ':objects' in psections:
            objects += tuple(_typed_list(psections[':objects'][0][1:],
                                         'object'))
        if ':depth' in psections:
            word = _field(psections[':depth'][0], 1, 'depth')
            try:
                depth = int(word)
            except ValueError:
                raise ParseError('depth must be an integer, not %s' % word,
                                 _pos(psections[':depth'][0][1]))
        if ':task' in psections:
            task = _field(psections[':task'][0], 1, 'task')
            if task not in (GENERATION, ASSESSMENT):
                raise ParseError('unknown task %s' % task,
                                 _pos(psections[':task'][0]))
        if ':init-type' in psections:
            init_type = _field(psections[':init-type'][0], 1, 'init type')
            if init_type != 'complete':
                raise SemanticError([Diagnostic(
                    'error', 'problem',
                    'unsupported init-type %s (only complete)' % init_type)])
        if ':projection' in psections:
            warnings.append(Diagnostic(
                'warning', 'problem', '(:projection ...) is ignored'))
        if ':plan' in psections:
            plan = []
            for step in psections[':plan'][0][1:]:
                if not isinstance(step, list):
                    raise ParseError('plan step must be (action args)',
                                     _pos(step))
                plan.append(tuple(_sym(s, 'plan symbol') for s in step))

    problem = RPMEPProblem(domain_name, problem_name, agents, types,
                           objects, predicates, schemas, (), (), (), depth,
                           task, plan=plan, warnings=warnings)
    if ':init' in psections:
        literals, _ = _expand_ground(problem, psections[':init'][0][1:],
                                     allow_negative=False)
        if not is_consistent(literals):
            clash = next(r for i, r in enumerate(literals)
                         if not is_consistent(literals[:i + 1]))
            raise SemanticError([Diagnostic(
                'error', 'init', 'inconsistent initial state: %s '
                'contradicts the literals before it' % clash)])
        # complete initialisation already makes an absent always-known
        # atom false, so (!ak) is dropped
        problem.initial, _ = _lower_condition(predicates, literals, ())
    if ':goal' in psections:
        problem.goal_pos, problem.goal_neg = _lower_condition(
            predicates, *_expand_ground(problem, psections[':goal'][0][1:],
                                        allow_negative=True))
    return problem


def _lower_condition(predicates, pos_literals, neg_literals):
    """The (present, absent) sides of a condition, goal or initial state.
    An always-known atom is held only positively, so (!ak) moves to the
    absent side as ak, and (not (!ak)) to the present side."""
    sides = ([], [])
    for side, literals in enumerate((pos_literals, neg_literals)):
        for rml in literals:
            entry = predicates.get(rml.atom.predicate)
            if entry and entry[1] and rml.negated and not rml.modalities:
                sides[1 - side].append(lit(rml.atom))
            else:
                sides[side].append(rml)
    return tuple(sides[0]), tuple(sides[1])


def _lower_effect(predicates, quant, cond_pos, cond_neg, delete, rml, at):
    """The ``EffectTemplate`` of a walked effect literal; an invalid one is
    an error at the node ``at``."""
    cond_pos, cond_neg = _lower_condition(predicates, cond_pos, cond_neg)
    entry = predicates.get(rml.atom.predicate)
    if entry and entry[1] and not rml.modalities:
        # AK atoms have no negative fluent: (!ak) deletes the positive atom
        if rml.negated:
            if delete:
                raise ParseError('(not (!%s)) is not a valid effect'
                                 % rml.atom.predicate, _pos(at))
            delete = True
            rml = lit(rml.atom)
    return EffectTemplate(rml, cond_pos, cond_neg, quantified=quant,
                          delete=delete)


def _expand_ground(problem, nodes, allow_negative):
    """Expand init/goal formulas (foralls over declared sets) to ground
    RMLs; returns the (positive, negative) lists, negative being those
    under an outer ``not``."""
    sides = ([], [])
    for node in nodes:
        for quant, _, _, negated, template in _walk(node):
            for binding in _bindings(problem, quant):
                try:
                    rml = subst_rml(template, binding)
                except UnknownSymbol as exc:
                    raise SemanticError([Diagnostic(
                        'error', 'goal' if allow_negative else 'init',
                        str(exc))])
                if negated and not allow_negative:
                    raise SemanticError([Diagnostic(
                        'error', 'init',
                        'negative literal %s not allowed here' % rml)])
                sides[negated].append(rml)
    return sides
