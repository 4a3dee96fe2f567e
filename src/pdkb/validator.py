"""Semantic plan and policy validation by direct PEKB progression.

Plans and policies run on full PEKB states via ``progress``, after each
outcome is expanded with the compiler's awareness rule (``aware_copies``)
at the RML level; a policy is keyed by a state's RML set, as a planner's
``Policy.mapping`` is. The cross-check harness replays random action
outcomes, awareness copies included, through both the semantic pipeline
and the planner's packed ``successor``, and reports any divergence.
"""

from .compiler import aware_copies, compile_problem
from .model import ground
from .pekb import (PEKB, ConditionalEffect, InconsistentResult, closure,
                   is_consistent, prime, progress)
from .planner import Packing, ResourceLimit, successor
from .rml import RmlTable, format_rml

STRONG_VALID = 'StrongValid'
WEAK_VALID = 'WeakValid'
INVALID = 'Invalid'

# caps the trajectories assess_plan enumerates and the states verify_policy
# reaches; there is no depth cap
DEFAULT_MAX_BRANCHES = 10_000


class UnknownAction(Exception):
    pass


class Trajectory:
    """A sequence of PEKB states with the actions between them."""

    __slots__ = ('states', 'actions', 'failure')

    def __init__(self, states, actions, failure=None):
        self.states = tuple(states)
        self.actions = tuple(actions)
        self.failure = failure

    def labels(self):
        return [a.label for a in self.actions]

    def __repr__(self):
        body = ' '.join(self.labels()) or '<empty>'
        if self.failure:
            return 'Trajectory[%s | %s]' % (body, self.failure)
        return 'Trajectory[%s]' % body


class VerificationResult:
    __slots__ = ('verdict', 'witness', 'trajectories')

    def __init__(self, verdict, witness=None, trajectories=0):
        self.verdict = verdict
        self.witness = witness
        self.trajectories = trajectories

    def __repr__(self):
        return 'VerificationResult(%s)' % self.verdict


# ---------------------------------------------------------------------------
# awareness expansion at the RML level


def expand_outcome(outcome, awareness, depth, is_ak):
    """One outcome's conditional effects plus all awareness-derived ones.

    Each aware agent's copy of an effect (``aware_copies``) is an add that
    spawns copies in turn, until the depth bound cuts them off.
    """
    table = RmlTable()
    seen = set(outcome)
    frontier = list(outcome)
    while frontier:
        fresh = []
        for ce in frontier:
            for _, believed, nested in aware_copies(
                    table, awareness, ce.condition_pos, ce.condition_neg,
                    ce.effect, ce.delete, depth, is_ak):
                if believed is None:
                    continue
                cand = ConditionalEffect(believed[0], nested,
                                         condition_neg=believed[1])
                if cand not in seen:
                    seen.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return seen


# ---------------------------------------------------------------------------
# stepping


def precondition_holds(state, action):
    return (all(r in state for r in action.precondition_pos)
            and not any(r in state for r in action.precondition_neg))


def _step(state, action, outcome, depth, is_ak):
    """The progression of ``state`` by one outcome of a ground action, its
    awareness copies included: the one semantic step."""
    expanded = expand_outcome(outcome, action.awareness, depth, is_ak)
    return progress(state, expanded, is_ak)


def successors(state, action, depth, is_ak):
    """All progression results of a ground action, one per outcome."""
    return [_step(state, action, outcome, depth, is_ak)
            for outcome in action.outcomes]


def goal_holds(problem, state):
    return (all(r in state for r in problem.goal_pos)
            and not any(r in state for r in problem.goal_neg))


def _action_index(ground_actions):
    return {(a.name,) + a.args: a for a in ground_actions}


def resolve_plan(problem, plan=None, ground_actions=None):
    """Plan steps as GroundActions; steps come from the problem when not
    given explicitly."""
    if ground_actions is None:
        ground_actions = ground(problem)
    if plan is None:
        plan = problem.plan
    if plan is None:
        raise UnknownAction('no plan to assess')
    index = _action_index(ground_actions)
    resolved = []
    for step in plan:
        if not isinstance(step, tuple):
            resolved.append(step)
            continue
        action = index.get(tuple(step))
        if action is None:
            raise UnknownAction('no ground action %s' % (step,))
        resolved.append(action)
    return resolved


# ---------------------------------------------------------------------------
# plan assessment


def assess_plan(problem, plan=None, ground_actions=None):
    """Enumerate every trajectory of the plan and aggregate verdicts.

    StrongValid: all trajectories complete and end in the goal.
    WeakValid: some do. Invalid: none do; an inapplicable step or an
    inconsistent progression is a failed trajectory, not an exception.
    """
    actions = resolve_plan(problem, plan, ground_actions)
    init = closure(PEKB(problem.initial))
    successes = []
    failures = []
    count = 0
    # depth-first, outcomes in order: the first success and the first
    # failure are those of a recursive walk, without its stack limit
    stack = [(init, [init], [])]
    while stack:
        state, states, taken = stack.pop()
        count += 1
        if count > DEFAULT_MAX_BRANCHES:
            raise ResourceLimit('trajectory cap %d exceeded'
                                % DEFAULT_MAX_BRANCHES)
        step = len(taken)
        if step == len(actions):
            if goal_holds(problem, state):
                successes.append(Trajectory(states, taken))
            else:
                failures.append(Trajectory(states, taken,
                                           'goal not satisfied'))
            continue
        action = actions[step]
        if not precondition_holds(state, action):
            failures.append(Trajectory(states, taken,
                                       'step %d: %s not applicable'
                                       % (step, action.label)))
            continue
        try:
            nexts = successors(state, action, problem.depth, problem.is_ak)
        except InconsistentResult as exc:
            failures.append(Trajectory(states, taken,
                                       'step %d: %s' % (step, exc)))
            continue
        for nxt in reversed(nexts):
            stack.append((nxt, states + [nxt], taken + [action]))
    total = len(successes) + len(failures)
    if not failures and successes:
        return VerificationResult(STRONG_VALID, successes[0], total)
    if successes:
        return VerificationResult(WEAK_VALID, successes[0], total)
    return VerificationResult(INVALID, failures[0] if failures else None,
                              total)


# ---------------------------------------------------------------------------
# policy verification


def state_key(state):
    """Policy lookup key of a PEKB state: its closure's RML set. The
    benchmark still keys its policies by it; it goes with the frozenset
    step layer (ROADMAP item 8, after item 1)."""
    return closure(state).rmls


def _discovery_path(parent, state, failure=None):
    """The trajectory that first reached ``state``, from its parents."""
    states, actions = [state], []
    while parent[state] is not None:
        state, action = parent[state]
        states.append(state)
        actions.append(action)
    return Trajectory(reversed(states), reversed(actions), failure)


def _can_finish(succ_map, terminal_ok):
    """The states that can still reach a terminal success: one backward
    walk over predecessor lists from the terminal successes."""
    preds = {}
    for state, nexts in succ_map.items():
        for nxt in nexts:
            preds.setdefault(nxt, []).append(state)
    can_finish = set(terminal_ok)
    stack = list(terminal_ok)
    while stack:
        for prev in preds.get(stack.pop(), ()):
            if prev not in can_finish:
                can_finish.add(prev)
                stack.append(prev)
    return can_finish


def verify_policy(problem, policy, ground_actions=None):
    """Exhaustively execute a policy keyed by a state's RML set, whose
    actions (tuples, GroundActions or CompiledOperators) match by name+args.

    Undefined at a goal state ends the trajectory successfully; undefined
    anywhere else fails it. Cycles are accepted under the fairness
    reading: StrongValid requires every reachable state to have some path
    to a terminal success and no reachable failure. Witnesses are the
    paths on which the search first reached their last state.
    """
    if ground_actions is None:
        ground_actions = ground(problem)
    index = _action_index(ground_actions)
    init = closure(PEKB(problem.initial))

    succ_map = {}
    terminal_ok = []
    failures = []
    parent = {init: None}
    frontier = [init]
    while frontier:
        state = frontier.pop()
        chosen = policy.get(state.rmls)
        if chosen is None:
            if goal_holds(problem, state):
                terminal_ok.append(state)
            else:
                failures.append((state, 'policy undefined off the goal'))
            continue
        if not isinstance(chosen, tuple):
            chosen = (chosen.name,) + chosen.args
        chosen = index.get(chosen)
        if chosen is None or not precondition_holds(state, chosen):
            label = chosen.label if chosen is not None else '<unknown>'
            failures.append((state, 'policy action %s not applicable'
                             % label))
            continue
        try:
            nexts = successors(state, chosen, problem.depth, problem.is_ak)
        except InconsistentResult as exc:
            failures.append((state, str(exc)))
            continue
        succ_map[state] = nexts
        for nxt in nexts:
            if nxt not in parent:
                if len(parent) > DEFAULT_MAX_BRANCHES:
                    raise ResourceLimit('policy state cap %d exceeded'
                                        % DEFAULT_MAX_BRANCHES)
                parent[nxt] = (state, chosen)
                frontier.append(nxt)

    if failures:
        state, failure = failures[0]
        return VerificationResult(
            INVALID, _discovery_path(parent, state, failure), len(parent))
    if not terminal_ok:
        witness = Trajectory([init], [], 'no trajectory reaches the goal')
        return VerificationResult(INVALID, witness, len(parent))
    can_finish = _can_finish(succ_map, terminal_ok)
    witness = _discovery_path(parent, terminal_ok[0])
    if all(s in can_finish for s in parent):
        return VerificationResult(STRONG_VALID, witness, len(parent))
    return VerificationResult(WEAK_VALID, witness, len(parent))


# ---------------------------------------------------------------------------
# semantic vs compiled cross-check


def _compiled_state(pekb_state, fluent_set):
    return frozenset(r for r in closure(pekb_state).rmls if r in fluent_set)


def _random_state(rng, pool, max_size=4):
    while True:
        size = rng.randint(0, max_size)
        sample = rng.sample(pool, min(size, len(pool)))
        if is_consistent(PEKB(sample)):
            return closure(PEKB(sample))


def crosscheck_progression(problem, n_cases, seed):
    """Random (state, action, outcome) triples through both pipelines.

    Semantic side: ``_step``, the progression by the outcome and its
    awareness copies that ``successors`` takes. Compiled side: the operator
    compiled as ``pdkb compile`` compiles it, applied to the projected
    state. Reports every divergence with a greedily minimized state.
    """
    import random  # only this harness draws random cases
    ground_actions = ground(problem)
    cp = compile_problem(problem, ground_actions)
    packing = Packing(cp.fluents, cp.operators)
    fluent_set = frozenset(cp.fluents)
    pool = sorted(fluent_set)
    rng = random.Random(seed)
    divergences = []
    # a problem without actions has no case to draw, so all are skipped
    skipped = 0 if ground_actions else n_cases

    def run_case(state, a_idx, o_idx):
        """(semantic projection, compiled successor) or None if skipped."""
        action = ground_actions[a_idx]
        try:
            sem = _step(state, action, action.outcomes[o_idx], problem.depth,
                        problem.is_ak)
        except InconsistentResult:
            return None
        packed = packing.encode(_compiled_state(state, fluent_set))
        outcome = packing.operators[a_idx].outcomes[o_idx]
        return (_compiled_state(sem, fluent_set),
                packing.decode(successor(packed, outcome)))

    for case in range(n_cases - skipped):
        state = _random_state(rng, pool)
        a_idx = rng.randrange(len(ground_actions))
        o_idx = rng.randrange(len(ground_actions[a_idx].outcomes))
        pair = run_case(state, a_idx, o_idx)
        if pair is None:
            skipped += 1
            continue
        sem_proj, comp_succ = pair
        if sem_proj == comp_succ:
            continue
        # greedy minimization: drop prime members of the state while the
        # closure of the rest still diverges, so the core is a closed state
        kept, core = prime(state).rmls, state
        for rml in sorted(kept):
            smaller = closure(PEKB(kept - {rml}))
            trial = run_case(smaller, a_idx, o_idx)
            if trial is not None and trial[0] != trial[1]:
                kept, core = kept - {rml}, smaller
        final = run_case(core, a_idx, o_idx)
        divergences.append({
            'case': case,
            'action': ground_actions[a_idx].label,
            'outcome': o_idx,
            'state': [format_rml(r) for r in sorted(core.rmls)],
            'semantic': [format_rml(r) for r in sorted(final[0])],
            'compiled': [format_rml(r) for r in sorted(final[1])],
        })
    return {
        'version': 1,
        'cases': n_cases,
        'seed': seed,
        'skipped': skipped,
        'divergences': divergences,
    }
