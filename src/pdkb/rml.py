"""Restricted modal literals and their NNF algebra.

An RML is a chain of per-agent belief (B) or possibility (P) modalities over a
possibly negated ground proposition. RMLs are kept in negation normal form and
canonical (no two adjacent modalities share an agent), so the standard
same-agent reduction equivalences apply implicitly.
"""

import itertools
import re
from sys import intern

BELIEF = 'B'
POSSIBLE = 'P'


class Proposition:
    """A ground atom: predicate symbol plus object arguments."""

    __slots__ = ('predicate', 'args', '_hash')

    def __init__(self, predicate, args=()):
        self.predicate = intern(str(predicate))
        self.args = tuple(intern(str(a)) for a in args)
        self._hash = hash((self.predicate, self.args))

    def __eq__(self, other):
        if not isinstance(other, Proposition):
            return False
        return self.predicate == other.predicate and self.args == other.args

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.predicate, self.args) < (other.predicate, other.args)

    def __str__(self):
        if self.args:
            return '%s(%s)' % (self.predicate, ','.join(self.args))
        return self.predicate

    def __repr__(self):
        return 'Proposition(%r, %r)' % (self.predicate, self.args)


def reduce_modalities(modalities):
    """Collapse each maximal run of same-agent modalities to one modality.

    The surviving mode is the mode of the innermost (rightmost) element of
    the run: BB=B, PB=B, BP=P, PP=P.
    """
    out = []
    for mode, agent in modalities:
        if out and out[-1][1] == agent:
            out[-1] = (mode, agent)
        else:
            out.append((mode, agent))
    return tuple(out)


class RML:
    """A canonical restricted modal literal.

    modalities: tuple of (mode, agent) pairs, outermost first
    negated:    polarity of the terminal propositional literal
    atom:       the Proposition at the end of the chain
    """

    __slots__ = ('modalities', 'negated', 'atom', '_hash')

    def __init__(self, modalities, negated, atom):
        mods = reduce_modalities(tuple((m, intern(str(a))) for m, a in modalities))
        self.modalities = mods
        self.negated = bool(negated)
        self.atom = atom
        self._hash = hash((mods, self.negated, atom))

    @property
    def depth(self):
        return len(self.modalities)

    def __eq__(self, other):
        if not isinstance(other, RML):
            return False
        return (self.modalities == other.modalities
                and self.negated == other.negated
                and self.atom == other.atom)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        agents = tuple(a for _, a in self.modalities)
        modes = tuple(m for m, _ in self.modalities)
        return (self.depth, agents, modes, self.atom.predicate,
                self.atom.args, self.negated)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return format_rml(self)

    def __repr__(self):
        return 'RML<%s>' % format_rml(self)


def lit(atom, negated=False):
    """Depth-0 RML for a proposition."""
    return RML((), negated, atom)


def wrap(mode, agent, rml):
    """Prefix one modality, reducing against the existing chain."""
    return RML(((mode, agent),) + rml.modalities, rml.negated, rml.atom)


def negate(rml):
    """NNF negation: flip every modality's mode and the polarity."""
    flipped = tuple((POSSIBLE if m == BELIEF else BELIEF, a)
                    for m, a in rml.modalities)
    return RML(flipped, not rml.negated, rml.atom)


def is_regular(is_ak, rml):
    """Whether the belief rules apply to rml: it has a modality or its atom
    is not always known (``is_ak(atom)``). An always-known atom is held
    only positively, so it is believed false exactly when it is absent."""
    return bool(rml.modalities) or not is_ak(rml.atom)


def _switch_closure(rml, mode, to):
    """rml with any subset of its ``mode`` modalities switched to ``to``."""
    positions = [i for i, (m, _) in enumerate(rml.modalities) if m == mode]
    out = set()
    for r in range(len(positions) + 1):
        for subset in itertools.combinations(positions, r):
            mods = list(rml.modalities)
            for i in subset:
                mods[i] = (to, mods[i][1])
            out.add(RML(tuple(mods), rml.negated, rml.atom))
    return out


def upward_closure(rml):
    """All RMLs entailed by rml: weaken any subset of B modalities to P.

    Self-inclusive; size is 2 ** (number of B modalities).
    """
    return _switch_closure(rml, BELIEF, POSSIBLE)


def downward_closure(rml):
    """All RMLs that entail rml: strengthen any subset of P modalities to
    B, which is the negate-image of the upward closure of the negation."""
    return _switch_closure(rml, POSSIBLE, BELIEF)


class RmlTable:
    """Interned RMLs with memoised ``negate``, ``wrap`` and
    ``upward_closure``.

    The table returns one object per distinct RML, so set and dict hits on
    its results compare by identity. It caches for as long as its owner
    keeps it (one compile, one outcome expansion), never across calls.
    """

    __slots__ = ('_rmls', '_negate', '_wrap', '_upward')

    def __init__(self, rmls=()):
        self._rmls = {r: r for r in rmls}
        self._negate = {}
        self._wrap = {}
        self._upward = {}

    def intern(self, rml):
        return self._rmls.setdefault(rml, rml)

    def negate(self, rml):
        out = self._negate.get(rml)
        if out is None:
            out = self._negate[rml] = self.intern(negate(rml))
        return out

    def wrap(self, mode, agent, rml):
        key = (mode, agent, rml)
        out = self._wrap.get(key)
        if out is None:
            out = self._wrap[key] = self.intern(wrap(mode, agent, rml))
        return out

    def upward_closure(self, rml):
        """The upward closure as a tuple, in no particular order."""
        out = self._upward.get(rml)
        if out is None:
            out = self._upward[rml] = tuple(
                self.intern(r) for r in upward_closure(rml))
        return out


class RmlSpace:
    """The finite space of canonical RMLs over given propositions, agents,
    and a depth bound."""

    def __init__(self, propositions, agents, depth_bound):
        if depth_bound < 0:
            raise ValueError('depth bound must be non-negative')
        self.propositions = tuple(sorted(set(propositions)))
        self.agents = tuple(sorted(set(intern(str(a)) for a in agents)))
        self.depth_bound = depth_bound

    def __contains__(self, rml):
        return (rml.depth <= self.depth_bound
                and rml.atom in set(self.propositions)
                and all(a in set(self.agents) for _, a in rml.modalities))


def _chains(agents, depth):
    """All canonical modality chains of exactly the given length."""
    if depth == 0:
        yield ()
        return
    for chain in _chains(agents, depth - 1):
        for agent in agents:
            if chain and chain[-1][1] == agent:
                continue
            for mode in (BELIEF, POSSIBLE):
                yield chain + ((mode, agent),)


def enumerate_rmls(space):
    """Every canonical RML of depth <= the bound, in a fixed total order."""
    out = []
    for depth in range(space.depth_bound + 1):
        for chain in _chains(space.agents, depth):
            for atom in space.propositions:
                for negated in (False, True):
                    out.append(RML(chain, negated, atom))
    return sorted(out, key=RML.sort_key)


def format_rml(rml):
    """Human-readable text form, e.g. ``B_a P_b !secret(c)``."""
    parts = ['%s_%s' % (m, a) for m, a in rml.modalities]
    atom = str(rml.atom)
    parts.append(('!' if rml.negated else '') + atom)
    return ' '.join(parts)


_MODALITY_RE = re.compile(r'^([BP])_(\w+)$')
_ATOM_RE = re.compile(r'^(!?)([A-Za-z_]\w*)(?:\(([^()]*)\))?$')


class RmlSyntaxError(ValueError):
    pass


def parse_rml(text):
    """Parse the text form produced by format_rml."""
    tokens = text.split()
    if not tokens:
        raise RmlSyntaxError('empty RML')
    mods = []
    for tok in tokens[:-1]:
        m = _MODALITY_RE.match(tok)
        if not m:
            raise RmlSyntaxError('bad modality %r in %r' % (tok, text))
        mods.append((m.group(1), m.group(2)))
    m = _ATOM_RE.match(tokens[-1])
    if not m:
        raise RmlSyntaxError('bad atom %r in %r' % (tokens[-1], text))
    negated = m.group(1) == '!'
    args = ()
    if m.group(3):
        args = tuple(a.strip() for a in m.group(3).split(',') if a.strip())
    return RML(tuple(mods), negated, Proposition(m.group(2), args))
