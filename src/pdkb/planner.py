"""Desk-scale solvers over compiled problems.

Blind breadth-first search for the classical flavor, AND-OR search with
strong / strong-cyclic acceptance for the nondeterministic flavor, and a
subprocess adapter for external planners.

The AND-OR search grows an envelope of explored states one breadth-first
layer at a time from the initial state, leaving goal states unexpanded,
and after each layer regresses breadth-first from the goal states over
predecessor lists: a state joins the solved set through the first action
whose successors are all solved (strong) or all inside the current
region (strong-cyclic), once one of them is solved, and keeps that
action. Unexpanded frontier states are unsolved and outside the region.
The queue order makes distance layers, so every chosen action has a
successor one layer closer to the goal and the policy reaches it. A
strong-cyclic regression repeats, shrinking the region to the goals and
the states it solved, until the region stops changing. The search stops
at the first layer that solves the initial state, and fails only once
the reachable space is exhausted. A strong phase runs first over the
state-action pairs with no outcome equal to their own state, which an
acyclic policy never uses, then a strong-cyclic phase over all pairs.
The policy keeps only the states its actions reach from the initial
state, as in PRP's partial policies (Muise, McIlraith and Beck, ICAPS
2012); the growing envelope follows LAO* (Hansen and Zilberstein, AIJ
2001).

Both searches run on packed states: a state is a Python int whose bit i
is ``cp.fluents[i]``. Each search packs the operators once (``Packing``):
precondition masks, and per distinct outcome the mask of every bit it
reads or writes, the unconditional add/delete masks and one entry per
distinct effect condition, so a condition is tested once per state
however many effects it guards. ``fired`` is the one rule for the masks
an outcome applies, and ``successor`` the one step.

Each search builds one successor table (``successor_table``), the packed
analogue of Fast Downward's successor generator (Helmert, JAIR 2006), and
both searches and plan reconstruction step through it. Each distinct
outcome memoises the XOR delta ``successor ^ state`` on ``state & mask``;
the key is exact because the mask holds every bit the outcome reads or
writes, so a step is ``state ^ delta``, a miss asks ``successor``, and a zero
delta is a self-loop. Applicability is factored over runs of consecutive
operators, each grown until its precondition bits would pass
``RUN_BITS``; a run memoises ``state & run_mask`` to its applicable
operators.

Breadth-first search steps the first outcome of each operator, the
determinization that ``emit_domain`` writes for the classical flavor,
and searches only the operators that can help reach the goal, as
classical planners drop irrelevant operators before they search (Nebel,
Dimopoulos and Koehler, ECP 1997). ``relevant_operators`` is a
polarity-aware fixpoint on packed masks: it grows the literals that must
stay true (``pos``) or false (``neg``) from the goal and every
precondition, through the conditions of the effects that help them (add
a ``pos`` or delete a ``neg`` literal) and, the other way round, of those
that harm them, since an operator can help by blocking a harmful
conditional delete; an operator with no helpful effect is dropped. A
dropped operator never leaves a state better for the goal, and every
kept operator preserves "better", so removing the dropped operators from
any plan leaves a plan no longer: optimality and solvability are
unchanged (the proof is in ``relevant_operators``). On the depth-1
gossip problems it drops the 48 ``fib`` operators of 133, which only
make agents believe the secret false, and on the 8-goal problem the
search expands 3,739 states and generates 13,297 where all 133 operators
gave 14,434 and 73,622. Its table there fills 1,111 delta keys over 49
outcomes (236 over 52 on ``prob-4ag-2g-2d``) and 520 applicability keys
over 4 runs. One comprehension per expansion keeps the non-zero deltas
whose successor is unseen, and only those reach the loop that records
parents and tests the goal. It records each state's parent state only,
and recovers the operator at plan reconstruction by expanding the parent
again.

RML frozensets remain at the edges: parsing, emission, the frozenset
``apply`` (which packs, steps and decodes) and the states of a returned
``Policy.mapping``.
"""

import itertools
import os
import re
from collections import deque, namedtuple

from .compiler import emit_pddl, operator_symbol

DEFAULT_STATE_CAP = 2_000_000

STRONG = 'Strong'
STRONG_CYCLIC = 'StrongCyclic'


class PreconditionViolated(Exception):
    pass


class ResourceLimit(Exception):
    def __init__(self, message, stats=None):
        self.stats = stats or {}
        super().__init__(message)


class PlannerFailure(Exception):
    pass


class PlanParseError(Exception):
    pass


class PlanInvalid(Exception):
    pass


# ---------------------------------------------------------------------------
# packed states


PackedOperator = namedtuple('PackedOperator', 'pre_pos pre_neg outcomes')


class Packing:
    """A bit numbering of fluents, and operators packed against it.

    Bit i is ``fluents[i]``, which must hold every literal of the
    operators, as ``cp.fluents`` holds every literal of a compiled problem.

    ``operators`` holds one ``PackedOperator`` per operator. Operators
    that share an outcome share its packed form, a ``(mask, adds, dels,
    groups)`` tuple: every bit the outcome reads or writes (its condition
    literals and its adds and deletes), the unconditional add and delete
    masks, then one ``(cond_pos, cond_neg, adds, dels)`` entry per
    distinct condition.
    """

    __slots__ = ('fluents', 'index', 'operators')

    def __init__(self, fluents, operators):
        self.fluents = tuple(fluents)
        self.index = {f: i for i, f in enumerate(self.fluents)}
        packed = {}
        self.operators = []
        for op in operators:
            for outcome in op.outcomes:
                if outcome not in packed:
                    packed[outcome] = self._outcome(outcome)
            self.operators.append(PackedOperator(
                *self.condition(op.precondition),
                tuple(packed[outcome] for outcome in op.outcomes)))

    def condition(self, cond):
        """(pos, neg) masks of a CompiledCondition."""
        return self.encode(cond.pos), self.encode(cond.neg)

    def _outcome(self, outcome):
        index = self.index
        groups = {}
        for kind, effects in enumerate(outcome):
            for cond, f in effects:
                groups.setdefault(cond, [0, 0])[kind] |= 1 << index[f]
        mask = adds = dels = 0
        entries = []
        for cond, (a, d) in groups.items():
            pos, neg = self.condition(cond)
            mask |= pos | neg | a | d
            if pos | neg:
                entries.append((pos, neg, a, d))
            else:
                adds, dels = a, d
        return mask, adds, dels, tuple(entries)

    def encode(self, state):
        return sum(1 << self.index[f] for f in state)

    def decode(self, packed):
        fluents = self.fluents
        return frozenset(fluents[i] for i, c in enumerate(reversed(
            bin(packed))) if c == '1')


def fired(state, outcome):
    """The (adds, dels) masks a packed outcome applies at a state: its
    unconditional masks and those of every condition group that holds
    there."""
    _, adds, dels, groups = outcome
    for pos, neg, a, d in groups:
        if state & pos == pos and not state & neg:
            adds |= a
            dels |= d
    return adds, dels


def successor(state, outcome):
    """Packed successor, without checking the precondition: conditions are
    evaluated against the pre-state, and an add wins over a simultaneous
    delete of the same fluent."""
    adds, dels = fired(state, outcome)
    return (state & ~dels) | adds


# Precondition bits per run of the successor table: a run's memo holds at
# most 2**RUN_BITS keys. With 16 the gossip problems split into 6 runs;
# 8 (16 runs) made breadth-first search on them about 15% slower.
RUN_BITS = 16


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``."""

    __slots__ = ('compute',)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def successor_table(ops):
    """The successor table of one search over the packed operators
    ``ops``: a tuple of ``(run_mask, usable)`` runs of consecutive
    operators, where ``usable[state & run_mask]`` holds one ``(op index,
    first, outs)`` entry per applicable operator of the run in index
    order. ``outs`` holds one ``(mask, deltas)`` pair per outcome and
    ``first`` is ``outs[0]``; ``state ^ deltas[state & mask]`` is the
    successor. Each distinct packed outcome has one ``deltas`` memo, and
    a miss takes the one step, ``successor`` (see the module
    docstring)."""
    deltas = {}
    runs = []
    for idx, (pre_pos, pre_neg, outcomes) in enumerate(ops):
        for outcome in outcomes:
            if id(outcome) not in deltas:
                deltas[id(outcome)] = _Memo(
                    lambda key, outcome=outcome:
                    successor(key, outcome) ^ key)
        outs = tuple((outcome[0], deltas[id(outcome)])
                     for outcome in outcomes)
        bits = pre_pos | pre_neg
        if not runs or (runs[-1][0] | bits).bit_count() > RUN_BITS:
            runs.append([0, []])
        runs[-1][0] |= bits
        runs[-1][1].append((pre_pos, pre_neg, (idx, outs[0], outs)))
    table = []
    for run_mask, rows in runs:
        table.append((run_mask, _Memo(
            lambda key, rows=tuple(rows):
            tuple(entry for pos, neg, entry in rows
                  if key & pos == pos and not key & neg))))
    return tuple(table)


def relevant_operators(ops, goal):
    """Indices of the packed operators ``ops`` that breadth-first search
    keeps for the goal's ``(pos, neg)`` masks: a polarity-aware relevance
    fixpoint over the first outcomes, the determinization that search
    steps (after Nebel, Dimopoulos and Koehler, ECP 1997).

    ``pos`` starts as the goal's and every precondition's positive bits,
    and ``neg`` as their negative bits. An effect group (its condition,
    with the unconditional group's empty) is helpful when it adds a
    ``pos`` bit or deletes a ``neg`` bit, and adds its condition's
    positive bits to ``pos`` and negative bits to ``neg``. It is harmful
    when it deletes a ``pos`` bit or adds a ``neg`` bit, and adds its
    condition the other way round, negative bits to ``pos`` and positive
    bits to ``neg``: an operator can help by blocking a harmful
    conditional delete. An operator is kept when a group of its first
    outcome, conditional or not, adds a ``pos`` bit or deletes a ``neg``
    bit.

    Pruning keeps breadth-first search optimal. Say ``s >= s'`` when
    every ``pos`` fluent of ``s'`` is in ``s`` and every ``neg`` fluent
    absent from ``s'`` is absent from ``s``. Then:

    - an operator applicable at ``s'`` applies at ``s``, since its
      precondition lies in ``pos`` and ``neg``, and stepping both keeps
      ``s >= s'``: a helpful group that fires at ``s'`` fires at ``s``,
      and a harmful group that fires at ``s`` fires at ``s'``, so every
      ``pos`` add and ``neg`` delete of ``s'`` happens at ``s``, and
      every ``pos`` delete and ``neg`` add of ``s`` happens at ``s'``;
      with add winning over delete, a ``pos`` fluent deleted at ``s``
      is deleted at ``s'`` and kept there only by a helpful add, which
      fires at ``s`` too;
    - a dropped operator ``o`` adds no ``pos`` fluent and deletes no
      ``neg`` one, so ``s >= o(s)``.

    By induction over a plan, removing its dropped operators leaves a
    state ``>=`` the original at every step, so the goal (in ``pos``
    and ``neg``) still holds at the end: the shorter sequence is a plan,
    and solvability and the optimal length are unchanged."""
    def groups(outcome):
        _, adds, dels, conditional = outcome
        return ((0, 0, adds, dels),) + conditional

    pos, neg = goal
    for pre_pos, pre_neg, _ in ops:
        pos |= pre_pos
        neg |= pre_neg
    firsts = {id(outcomes[0]): outcomes[0] for _, _, outcomes in ops}
    effects = [group for outcome in firsts.values()
               for group in groups(outcome)]
    while True:
        before = pos, neg
        for cond_pos, cond_neg, adds, dels in effects:
            if adds & pos or dels & neg:
                pos |= cond_pos
                neg |= cond_neg
            if dels & pos or adds & neg:
                pos |= cond_neg
                neg |= cond_pos
        if (pos, neg) == before:
            return [idx for idx, (_, _, outcomes) in enumerate(ops)
                    if any(adds & pos or dels & neg
                           for _, _, adds, dels in groups(outcomes[0]))]


def expand(table, state):
    """A packed state's ``(op index, successor tuple)`` pairs under a
    successor table, one per applicable operator in index order, one
    successor per outcome."""
    return [(idx, tuple([state ^ deltas[state & mask]
                         for mask, deltas in outs]))
            for run_mask, usable in table
            for idx, _, outs in usable[state & run_mask]]


def applicable(state, op):
    """Whether an operator applies at a frozenset state. The benchmark's
    policy replay still steps frozensets; this goes once that replay runs
    on packed states (ROADMAP item 8, after item 1)."""
    return op.precondition.satisfied(state)


def apply(state, op, outcome_index=0):
    """Successor of a frozenset state under an applicable operator, by the
    packed rule over a numbering of the state's and the operator's own
    literals. It goes with ``applicable`` (ROADMAP item 8)."""
    if not applicable(state, op):
        raise PreconditionViolated('%s not applicable' % op.label)
    literals = set(state) | op.precondition.pos | op.precondition.neg
    for outcome in op.outcomes:
        for cond, f in itertools.chain(*outcome):
            literals |= cond.pos | cond.neg | {f}
    packing = Packing(literals, (op,))
    outcome = packing.operators[0].outcomes[outcome_index]
    return packing.decode(successor(packing.encode(state), outcome))


class Policy:
    """State-to-operator mapping with its acceptance classification."""

    __slots__ = ('mapping', 'classification')

    def __init__(self, mapping, classification):
        self.mapping = dict(mapping)
        self.classification = classification


def _pack_problem(cp):
    """The packing of a problem, its packed initial state and goal masks."""
    packing = Packing(cp.fluents, cp.operators)
    return packing, packing.encode(cp.init), packing.condition(cp.goal)


def solve_bfs(cp, max_states=DEFAULT_STATE_CAP, stats=None):
    """Shortest plan (operator list) or None when the reachable space is
    exhausted without reaching the goal, searched over the operators
    ``relevant_operators`` keeps. ``stats`` receives the expanded and the
    generated (``states``) counts, and the number of operators dropped
    (``pruned``) once the initial state is not a goal."""
    if stats is None:
        stats = {}
    packing, init, goal = _pack_problem(cp)
    goal_pos, goal_neg = goal
    if init & goal_pos == goal_pos and not init & goal_neg:
        stats['expanded'] = 0
        stats['states'] = 1
        return []
    kept = relevant_operators(packing.operators, goal)
    stats['pruned'] = len(packing.operators) - len(kept)
    table = successor_table([packing.operators[idx] for idx in kept])
    operators = [cp.operators[idx] for idx in kept]
    seen = {init: None}
    frontier = deque([init])
    expanded = 0
    try:
        while frontier:
            state = frontier.popleft()
            expanded += 1
            # first outcomes only, as emit_domain writes the classical
            # flavor; a zero delta is a self-loop
            fresh = [succ for run_mask, usable in table
                     for _, (mask, deltas), _ in usable[state & run_mask]
                     if (delta := deltas[state & mask])
                     and (succ := state ^ delta) not in seen]
            for succ in dict.fromkeys(fresh):
                seen[succ] = state
                if succ & goal_pos == goal_pos and not succ & goal_neg:
                    return _plan(operators, table, seen, succ)
                if len(seen) > max_states:
                    raise ResourceLimit('state cap %d exceeded' % max_states,
                                        stats)
                frontier.append(succ)
        return None
    finally:
        stats['expanded'] = expanded
        stats['states'] = len(seen)


def _plan(operators, table, parents, state):
    """The operators that led breadth-first search to ``state``: at each
    parent, the first operator whose first outcome yields the child, which
    is the one that discovered it."""
    plan = []
    while parents[state] is not None:
        parent = parents[state]
        plan.append(operators[next(idx for idx, succs
                                   in expand(table, parent)
                                   if succs[0] == state)])
        state = parent
    plan.reverse()
    return plan


def _regress(goals, preds, inside, strong):
    """Breadth-first from the goals over predecessor lists: a state inside
    ``inside`` joins through its first action whose successors are all
    solved (strong) or all inside, once one of them is solved; that
    successor lies one layer closer to the goal. Returns the solved
    non-goal states' (op index, successors) choices."""
    solved = set(goals)
    choice = {}
    queue = deque(goals)
    while queue:
        for state, idx, succs in preds.get(queue.popleft(), ()):
            if state not in solved and state in inside and all(
                    s in (solved if strong else inside) for s in succs):
                solved.add(state)
                choice[state] = idx, succs
                queue.append(state)
    return choice


def _envelope(table, init, goal, strong, max_states, stats):
    """Choices that solve ``init``, grown one breadth-first layer of
    packed states at a time, or None once the reachable space is
    exhausted. Goal states are not expanded; after each layer the
    regression runs on the expanded states, and the unexpanded frontier
    counts as unsolved and outside the region. ``strong`` keeps only the
    state-action pairs with no outcome equal to their own state and
    regresses once; otherwise all pairs take part and strong-cyclic
    regressions shrink the region until it stops changing."""
    goal_pos, goal_neg = goal
    if init & goal_pos == goal_pos and not init & goal_neg:
        stats['states'] += 1
        return {}
    goals = {}
    preds = {}
    expanded = set()
    seen = {init}
    layer = [init]
    n_edges = 0
    try:
        while layer:
            frontier = []
            for state in layer:
                expanded.add(state)
                for idx, succs in expand(table, state):
                    if strong and state in succs:
                        continue
                    n_edges += 1
                    entry = (state, idx, succs)
                    for succ in dict.fromkeys(succs):
                        preds.setdefault(succ, []).append(entry)
                        if succ in seen:
                            continue
                        if len(seen) > max_states:
                            raise ResourceLimit(
                                'state cap %d exceeded' % max_states, stats)
                        seen.add(succ)
                        if succ & goal_pos == goal_pos \
                                and not succ & goal_neg:
                            goals[succ] = None
                        else:
                            frontier.append(succ)
            if goals:
                if strong:
                    choice = _regress(goals, preds, expanded, True)
                else:
                    region = expanded | goals.keys()
                    stats['rounds'] = 0
                    while True:
                        choice = _regress(goals, preds, region, False)
                        stats['rounds'] += 1
                        if len(choice) + len(goals) == len(region):
                            break
                        region = goals.keys() | choice.keys()
                if init in choice:
                    return choice
            layer = frontier
        return None
    finally:
        stats['expanded'] += len(expanded)
        stats['states'] += len(seen)
        stats['edges'] += n_edges


def solve_andor(cp, max_states=DEFAULT_STATE_CAP, acyclic_only=False,
                stats=None):
    """Strong or strong-cyclic policy over the states its actions reach
    from the initial state, or None once the reachable space holds none.

    A strong phase searches the state-action pairs that have no outcome
    equal to their own state (an acyclic policy never uses another);
    unless ``acyclic_only``, a strong-cyclic phase over all pairs
    follows when it fails. ``stats`` receives the expanded and the
    discovered (``states``) counts and the state-action pairs
    (``edges``), each summed over the phases that ran, and ``rounds``,
    the strong-cyclic regressions of the envelope that decided (0 for a
    strong policy). ``max_states`` caps the states each phase
    discovers."""
    if stats is None:
        stats = {}
    stats.update(expanded=0, states=0, edges=0, rounds=0)
    packing, init, goal = _pack_problem(cp)
    table = successor_table(packing.operators)
    for strong in (True,) if acyclic_only else (True, False):
        choice = _envelope(table, init, goal, strong, max_states, stats)
        if choice is None:
            continue
        mapping = {}
        queue = deque([init])
        while queue:
            state = queue.popleft()
            if state in choice and state not in mapping:
                idx, succs = mapping[state] = choice[state]
                queue.extend(succs)
        return Policy({packing.decode(s): cp.operators[i]
                       for s, (i, _) in mapping.items()},
                      STRONG if strong else STRONG_CYCLIC)
    return None


_PLAN_LINE = re.compile(r'^\(\s*([^\s()]+)((?:\s+[^\s()]+)*)\s*\)$')


def parse_plan_file(text, operators):
    """Decode a plan file into ``operators`` (compiled operators or ground
    actions): one ``(name arg ...)`` or ``(name__arg__...)`` step per line,
    ``;`` starting a comment; the second form takes no arguments."""
    by_symbol = {operator_symbol(op).lower(): op for op in operators}
    by_parts = {(op.name,) + op.args: op for op in operators}
    plan = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(';', 1)[0].strip()
        if not line:
            continue
        m = _PLAN_LINE.match(line)
        if not m:
            raise PlanParseError('line %d: cannot parse %r' % (lineno, raw))
        head = m.group(1).lower()
        args = tuple(m.group(2).lower().split())
        op = by_parts.get((head,) + args)
        if op is None and not args:
            op = by_symbol.get(head)
        if op is None:
            raise PlanParseError('line %d: unknown action %r'
                                 % (lineno, line))
        plan.append(op)
    return plan


def validate_plan(cp, plan):
    """Replay a classical plan on packed states, packing its distinct
    operators once; raises PlanInvalid on any violation."""
    ops = list(dict.fromkeys(plan))
    packing = Packing(cp.fluents, ops)
    packed = dict(zip(ops, packing.operators))
    state = packing.encode(cp.init)
    for step_no, op in enumerate(plan):
        pre_pos, pre_neg, outcomes = packed[op]
        if state & pre_pos != pre_pos or state & pre_neg:
            raise PlanInvalid('step %d: %s not applicable'
                              % (step_no, op.label))
        state = successor(state, outcomes[0])
    goal_pos, goal_neg = packing.condition(cp.goal)
    if state & goal_pos != goal_pos or state & goal_neg:
        raise PlanInvalid('goal not satisfied after %d steps' % len(plan))


def solve_external(cp, command_template, timeout=None,
                   domain_name='compiled', problem_name='compiled'):
    """Run an external planner via a {domain}/{problem}/{plan} command
    template, decode, and validate the returned plan."""
    # imported here, so that loading the package (and every command but
    # an external solve) does not pay for them
    import subprocess
    import tempfile
    for placeholder in ('{domain}', '{problem}', '{plan}'):
        if placeholder not in command_template:
            raise PlannerFailure('command template must contain %s'
                                 % placeholder)
    with tempfile.TemporaryDirectory(prefix='pdkb-ext-') as workdir:
        paths = emit_pddl(cp, workdir, domain_name, problem_name)
        plan_path = os.path.join(workdir, 'plan.txt')
        command = (command_template
                   .replace('{domain}', paths['domain.pddl'])
                   .replace('{problem}', paths['problem.pddl'])
                   .replace('{plan}', plan_path))
        try:
            proc = subprocess.run(command, shell=True, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise PlannerFailure('external planner timed out')
        if proc.returncode != 0:
            raise PlannerFailure('external planner exited %d: %s'
                                 % (proc.returncode,
                                    proc.stderr.strip()[:500]))
        if not os.path.exists(plan_path):
            raise PlannerFailure('external planner wrote no plan file')
        with open(plan_path, encoding='utf-8') as handle:
            plan = parse_plan_file(handle.read(), cp.operators)
        validate_plan(cp, plan)
        return plan
