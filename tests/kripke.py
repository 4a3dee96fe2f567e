"""Bounded Kripke-model oracle for validating the syntactic reasoners.

Enumerates every pointed serial model with at most ``max_worlds`` worlds, up
to equivalence at the observable depth (RML queries here never exceed depth
2, so a world beyond the pointed one is fully described by its valuation
plus, per agent, the set of valuations among its successors). The oracle is
deliberately independent of the PEKB machinery: truth is evaluated directly
from the satisfaction clauses.
"""

import itertools
from functools import lru_cache

from pdkb.rml import BELIEF, RmlSpace, enumerate_rmls

_COST_CAP = 5_000_000


class ScaleExceeded(Exception):
    """The requested signature is beyond desk scale."""


_W0 = object()  # marker: the pointed world appearing as its own successor


def _lit_true(valuation, negated, atom):
    return (atom in valuation) != negated


def _eval_chain(chain, negated, atom, val0, s0, here):
    """Truth of a modality chain at one world.

    here is either _W0 or a profile (valuation, per-agent successor
    valuation sets); s0 maps agents to the pointed world's successor list.
    """
    if not chain:
        if here is _W0:
            return _lit_true(val0, negated, atom)
        return _lit_true(here[0], negated, atom)
    (mode, agent), rest = chain[0], chain[1:]
    if here is _W0:
        succs = s0[agent]
        results = (_eval_chain(rest, negated, atom, val0, s0, s) for s in succs)
    else:
        # A profile only records successor valuations, enough for the
        # depth-1 remainder of a depth-2 query.
        vals = here[1][agent]
        results = (_lit_true(v, negated, atom) for v in vals)
    if mode == BELIEF:
        return all(results)
    return any(results)


@lru_cache(maxsize=64)
def _mask_table(props, agents, max_worlds):
    """All achievable truth masks over the full depth-2 RML space of the
    signature, at the pointed world of a serial model with at most
    max_worlds worlds. Returns (rml index tuple, frozenset of masks)."""
    rmls = tuple(enumerate_rmls(RmlSpace(props, agents, 2)))
    valuations = [frozenset(c) for r in range(len(props) + 1)
                  for c in itertools.combinations(props, r)]
    profiles = []
    for val in valuations:
        nonempty = [frozenset(c) for r in range(1, len(valuations) + 1)
                    for c in itertools.combinations(valuations, r)]
        for assignment in itertools.product(nonempty, repeat=len(agents)):
            profiles.append((val, dict(zip(agents, assignment))))

    n_extra = max_worlds - 1
    n_profile_sets = sum(1 for r in range(n_extra + 1)
                         for _ in itertools.combinations(range(len(profiles)), r)
                         ) if len(profiles) ** max(n_extra, 1) < _COST_CAP else _COST_CAP
    cost = len(valuations) * n_profile_sets * (2 ** (n_extra + 1)) ** len(agents)
    if cost > _COST_CAP:
        raise ScaleExceeded('model space too large: ~%d configurations' % cost)

    masks = set()
    for val0 in valuations:
        for r in range(n_extra + 1):
            for chosen in itertools.combinations(profiles, r):
                present = frozenset([val0]) | {p[0] for p in chosen}
                if not all(a_set <= present
                           for _, a in chosen for a_set in a.values()):
                    continue
                worlds = (_W0,) + chosen
                subsets = [c for k in range(1, len(worlds) + 1)
                           for c in itertools.combinations(worlds, k)]
                for s0_choice in itertools.product(subsets, repeat=len(agents)):
                    s0 = dict(zip(agents, s0_choice))
                    mask = 0
                    for i, rml in enumerate(rmls):
                        if _eval_chain(rml.modalities, rml.negated, rml.atom,
                                       val0, s0, _W0):
                            mask |= 1 << i
                    masks.add(mask)
    return rmls, frozenset(masks)


def _model_masks(rmls, max_worlds):
    """After the bound checks both oracles share: the bit of each of
    ``rmls`` and the truth masks of the models within the bound."""
    if max_worlds < 1:
        raise ScaleExceeded('need at least one world')
    if any(r.depth > 2 for r in rmls):
        raise ScaleExceeded('oracle handles depth <= 2 only')
    props = frozenset(r.atom for r in rmls)
    if len(props) > 3:
        raise ScaleExceeded('oracle handles at most 3 propositions')
    if max_worlds > 4:
        raise ScaleExceeded('oracle handles at most 4 worlds')
    agents = frozenset(a for r in rmls for _, a in r.modalities)
    if not agents:
        agents = frozenset(['i'])
    rml_index, masks = _mask_table(tuple(sorted(props)),
                                   tuple(sorted(agents)), max_worlds)
    pos = {r: i for i, r in enumerate(rml_index)}
    return [1 << pos[r] for r in rmls], masks


def oracle_entails(p, query, max_worlds=3):
    """Semantic entailment check by bounded model enumeration.

    Returns False iff some serial pointed model within the bound satisfies
    every RML of p together with the negation of the query.
    """
    p_rmls = sorted(set(p.rmls if hasattr(p, 'rmls') else p))
    bits, masks = _model_masks(p_rmls + [query], max_worlds)
    q_bit = bits.pop()
    p_bits = sum(bits)
    return not any(mask & p_bits == p_bits and not mask & q_bit
                   for mask in masks)


def oracle_consistent(p, max_worlds=3):
    """True iff some serial pointed model within the bound satisfies p."""
    p_rmls = sorted(set(p.rmls if hasattr(p, 'rmls') else p))
    bits, masks = _model_masks(p_rmls, max_worlds)
    p_bits = sum(bits)
    return any(mask & p_bits == p_bits for mask in masks)
