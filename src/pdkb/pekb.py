"""Proper epistemic knowledge bases and their update machinery.

A PEKB is a finite set of RMLs. Internally we keep PEKBs deductively
(upward) closed, and the closure answers every question: a consistent
base entails an RML exactly when its closure holds it, and a progression
step is one erasure followed by a union. Prime reduction (``prime``) is a
presentation operation.
"""

from .rml import (POSSIBLE, RML, downward_closure, is_regular, negate,
                  upward_closure)


class InconsistentBase(Exception):
    """Raised when an operation requires a consistent PEKB."""


class InconsistentUpdate(Exception):
    """Raised when the update argument is internally inconsistent."""


class InconsistentResult(Exception):
    """Raised when simultaneous effects add an RML and its negation."""


class PEKB:
    """An immutable set of RMLs with a closed-form flag."""

    __slots__ = ('rmls', 'closed', '_hash')

    def __init__(self, rmls=(), closed=False):
        self.rmls = frozenset(rmls)
        self.closed = closed
        self._hash = hash(self.rmls)

    def __eq__(self, other):
        return isinstance(other, PEKB) and self.rmls == other.rmls

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(sorted(self.rmls, key=RML.sort_key))

    def __len__(self):
        return len(self.rmls)

    def __contains__(self, rml):
        return rml in self.rmls

    def __repr__(self):
        return 'PEKB{%s}' % ', '.join(str(r) for r in self)


def closure(p):
    """Upward-closed version of p; p's own frozenset if already closed."""
    if isinstance(p, PEKB):
        if p.closed:
            return p
        rmls = p.rmls
    else:
        rmls = frozenset(p)
    out = set(rmls)
    for rml in rmls:
        out |= upward_closure(rml)
    return PEKB(rmls if len(out) == len(rmls) else out, closed=True)


def negkb(p):
    """The negation image of every RML in p."""
    rmls = p.rmls if isinstance(p, PEKB) else p
    return PEKB({negate(r) for r in rmls})


def prime(p):
    """Keep only maximal (prime) elements: drop anything strictly entailed
    by another member."""
    rmls = set(p.rmls if isinstance(p, PEKB) else p)
    out = set(rmls)
    for rml in rmls:
        for weaker in upward_closure(rml):
            if weaker != rml:
                out.discard(weaker)
    return PEKB(out)


def is_consistent(p):
    """Satisfiability of a PEKB under KD_n. A set of RMLs is consistent
    exactly when each pair of its members is, and two RMLs r1 and r2
    contradict each other when they share the atom and the agent sequence,
    have opposite polarities, and at no position both have a P modality.
    Then negate(r1) has r2's polarity and a B only where r1 has a P, where
    r2 has a B, so it is in closure(r2): an upward-closed set is consistent
    exactly when no member's negation is a member."""
    rmls = p.rmls if isinstance(p, PEKB) else p
    shapes = {}   # modalities -> (agent sequence, bitmask of P positions)
    masks = {}
    for rml in rmls:
        mods = rml.modalities
        if mods not in shapes:
            shapes[mods] = (tuple([agent for _, agent in mods]), sum(
                [1 << i for i, (mode, _) in enumerate(mods)
                 if mode == POSSIBLE]))
        agents, mask = shapes[mods]
        masks.setdefault((rml.negated, rml.atom, agents), set()).add(mask)
    for (negated, atom, agents), possible in masks.items():
        if negated:
            for other in masks.get((False, atom, agents), ()):
                if any(not mask & other for mask in possible):
                    return False
    return True


def entails(p, query):
    """KD_n entailment of a conjunction of RMLs (one RML or any iterable of
    them) from a base p, a PEKB or any iterable of RMLs: each query RML must
    be in ``closure(p)``. Raises ``InconsistentBase`` when p is inconsistent,
    whatever its kind."""
    p = p if isinstance(p, PEKB) else PEKB(p)
    if not is_consistent(p):
        raise InconsistentBase('entailment from an inconsistent base')
    closed = closure(p).rmls
    if isinstance(query, RML):
        query = [query]
    return all(q in closed for q in query)


def erase(p, q):
    """Belief erasure: the upward closure of p minus the downward closure
    of q; apply prime() for presentation. The result is upward closed: if
    r is kept and r entails s, then s is in closure(p), and s entailing a
    member of q would make r entail it too, so s is kept. Hence erasing a
    and then b is erasing a | b."""
    down = set()
    q_rmls = q.rmls if isinstance(q, PEKB) else q
    for rml in q_rmls:
        down |= downward_closure(rml)
    return PEKB(closure(p).rmls - down, closed=True)


def update(p, q):
    """Belief update: erase the negation of q, then join q's closure."""
    q = q if isinstance(q, PEKB) else PEKB(q)
    if not is_consistent(q):
        raise InconsistentUpdate('update argument is inconsistent')
    return PEKB(erase(p, negkb(q)).rmls | closure(q).rmls, closed=True)


class ConditionalEffect:
    """A conditional effect (gamma, phi) of an action outcome.

    condition_pos: RMLs that must be believed for the effect to fire
    condition_neg: RMLs that must not be believed
    effect:        the RML added (delete=False) or removed (delete=True)
    """

    __slots__ = ('condition_pos', 'condition_neg', 'effect', 'delete',
                 '_hash')

    def __init__(self, condition_pos, effect, delete=False, condition_neg=()):
        self.condition_pos = frozenset(condition_pos)
        self.condition_neg = frozenset(condition_neg)
        self.effect = effect
        self.delete = delete
        self._hash = hash((self.condition_pos, self.condition_neg, effect,
                           delete))

    def fires(self, p):
        return (all(r in p for r in self.condition_pos)
                and not any(r in p for r in self.condition_neg))

    def uncertain(self, p, is_ak):
        """True when the condition is not believed false: no
        negative-condition RML and no negation of a positive one is in p.
        An always-known atom (``is_ak(atom)``) is held only positively, so
        a positive one must itself be in p."""
        return (all(negate(r) not in p if is_regular(is_ak, r) else r in p
                    for r in self.condition_pos)
                and not any(r in p for r in self.condition_neg))

    def __eq__(self, other):
        return (isinstance(other, ConditionalEffect)
                and self.effect == other.effect and self.delete == other.delete
                and self.condition_pos == other.condition_pos
                and self.condition_neg == other.condition_neg)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        arrow = 'del' if self.delete else 'add'
        return 'CE<%s %s if +%s -%s>' % (
            arrow, self.effect,
            sorted(map(str, self.condition_pos)),
            sorted(map(str, self.condition_neg)))


def progress(p, outcome, is_ak):
    """Progression of one deterministic outcome (a set of conditional
    effects) applied to a closed consistent PEKB state.

    Adds, deletes, and uncertain-firing deletes are all evaluated against
    the pre-state. The step is (p erase (R u U)) update Q, Q the closed
    adds: as erasures compose (``erase``), one erasure of R u U u -Q joined
    with Q, where the loop below is the update's consistency check on the
    closed Q (``is_consistent``). R, U and -Q are given by bare literals,
    the fired ones, negated for U and -Q, as erase discards everything that
    entails them and nothing weaker: deleting a belief keeps the matching
    possibility, and r entails negate(e) just when e entails negate(r).
    An add fires uncertainly while its condition is not believed false
    (``ConditionalEffect.uncertain``): an always-known atom
    (``is_ak(atom)``) in its positive condition must be in p.
    """
    p = closure(p)
    if not outcome:
        # nothing fires, so the erasure and the union below return p as is
        return p
    adds = set()
    erased = set()
    for ce in outcome:
        if ce.delete:
            if ce.fires(p):
                erased.add(ce.effect)
        else:
            if ce.fires(p):
                adds |= upward_closure(ce.effect)
                erased.add(negate(ce.effect))
            if ce.uncertain(p, is_ak):
                erased.add(negate(ce.effect))
    for rml in adds:
        if negate(rml) in adds:
            # the first clashing RML in sort order, so that the message
            # does not depend on the set's hash order
            clash = min((r for r in adds if negate(r) in adds),
                        key=RML.sort_key)
            raise InconsistentResult(
                'simultaneous effects add %s and its negation' % clash)
    return PEKB(erase(p, erased).rmls | adds, closed=True)
