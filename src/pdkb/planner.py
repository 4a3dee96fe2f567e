"""Desk-scale solvers over compiled problems.

Blind breadth-first search for the classical flavor, AND-OR search with
strong / strong-cyclic acceptance for the nondeterministic flavor, and a
subprocess adapter for external planners. No speed claims: correctness and
determinism only.
"""

import os
import re
import subprocess
import tempfile
from collections import deque

from .compiler import emit_domain, emit_problem

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


def applicable(state, op):
    return op.precondition.satisfied(state)


def step(state, op, outcome_index=0):
    """Successor state, without checking the precondition; conditions are
    evaluated against the pre-state, and an add wins over a simultaneous
    delete of the same fluent."""
    adds, dels = op.outcomes[outcome_index]
    fired_dels = {l for cond, l in dels if cond.satisfied(state)}
    fired_adds = {l for cond, l in adds if cond.satisfied(state)}
    return frozenset((state - fired_dels) | fired_adds)


def apply(state, op, outcome_index=0):
    """Successor state of an applicable operator."""
    if not applicable(state, op):
        raise PreconditionViolated('%s not applicable' % op.label)
    return step(state, op, outcome_index)


def goal_satisfied(cp, state):
    return cp.goal.satisfied(state)


class Policy:
    """State-to-operator mapping with its acceptance classification."""

    __slots__ = ('mapping', 'classification')

    def __init__(self, mapping, classification):
        self.mapping = dict(mapping)
        self.classification = classification


def solve_bfs(cp, max_states=DEFAULT_STATE_CAP, stats=None):
    """Shortest plan (operator list) or None when the reachable space is
    exhausted without reaching the goal."""
    if stats is None:
        stats = {}
    init = cp.init
    if goal_satisfied(cp, init):
        stats['expanded'] = 0
        return []
    seen = {init: None}
    frontier = deque([init])
    expanded = 0
    while frontier:
        state = frontier.popleft()
        expanded += 1
        for idx, op in enumerate(cp.operators):
            if not applicable(state, op):
                continue
            succ = step(state, op)
            if succ in seen:
                continue
            seen[succ] = (state, idx)
            if goal_satisfied(cp, succ):
                stats['expanded'] = expanded
                stats['states'] = len(seen)
                plan = []
                cur = succ
                while seen[cur] is not None:
                    prev, op_idx = seen[cur]
                    plan.append(cp.operators[op_idx])
                    cur = prev
                plan.reverse()
                return plan
            if len(seen) > max_states:
                raise ResourceLimit('state cap %d exceeded' % max_states,
                                    {'expanded': expanded,
                                     'states': len(seen)})
            frontier.append(succ)
    stats['expanded'] = expanded
    stats['states'] = len(seen)
    return None


def _reachable_graph(cp, max_states):
    """Forward-reachable states and their (op index, successor tuple)
    edges."""
    init = cp.init
    edges = {}
    frontier = deque([init])
    edges[init] = None
    order = [init]
    while frontier:
        state = frontier.popleft()
        outgoing = []
        for idx, op in enumerate(cp.operators):
            if not applicable(state, op):
                continue
            succs = tuple(step(state, op, i)
                          for i in range(len(op.outcomes)))
            outgoing.append((idx, succs))
            for succ in succs:
                if succ not in edges:
                    if len(edges) > max_states:
                        raise ResourceLimit(
                            'state cap %d exceeded' % max_states)
                    edges[succ] = None
                    order.append(succ)
                    frontier.append(succ)
        edges[state] = outgoing
    return order, edges


def solve_andor(cp, max_states=DEFAULT_STATE_CAP, acyclic_only=False):
    """Strong or strong-cyclic policy over the reachable space, or None."""
    order, edges = _reachable_graph(cp, max_states)
    goals = {s for s in order if goal_satisfied(cp, s)}

    # strong (acyclic) backward fixpoint
    solved = set(goals)
    choice = {}
    changed = True
    while changed:
        changed = False
        for state in order:
            if state in solved:
                continue
            for idx, succs in edges[state]:
                if all(s in solved for s in succs):
                    solved.add(state)
                    choice[state] = idx
                    changed = True
                    break
    if cp.init in solved:
        return Policy({s: cp.operators[i] for s, i in choice.items()},
                      STRONG)
    if acyclic_only:
        return None

    # strong cyclic: start from every applicable pair and prune pairs that
    # may step outside the winning region
    pairs = {s: {idx for idx, _ in edges[s]} for s in order
             if s not in goals}
    while True:
        # winning region: goal-reaching via remaining pairs
        win = set(goals)
        grew = True
        while grew:
            grew = False
            for state in order:
                if state in win or state not in pairs:
                    continue
                for idx, succs in edges[state]:
                    if idx in pairs[state] and any(s in win for s in succs):
                        win.add(state)
                        grew = True
                        break
        dropped = False
        for state in order:
            if state not in pairs:
                continue
            keep = set()
            for idx, succs in edges[state]:
                if idx in pairs[state] and all(s in win or s in goals
                                               for s in succs):
                    keep.add(idx)
            if keep != pairs[state]:
                pairs[state] = keep
                dropped = True
        if not dropped:
            if cp.init not in win and cp.init not in goals:
                return None
            mapping = {}
            for state in order:
                if state in pairs and pairs[state] and state in win:
                    mapping[state] = cp.operators[min(pairs[state])]
            return Policy(mapping, STRONG_CYCLIC)


_PLAN_LINE = re.compile(r'^\(\s*([^\s()]+)((?:\s+[^\s()]+)*)\s*\)$')


def _operator_symbol(op):
    if op.args:
        return '%s__%s' % (op.name, '__'.join(op.args))
    return op.name


def parse_plan_file(text, operators):
    """Decode an external planner's plan file into operators."""
    by_symbol = {_operator_symbol(op).lower(): op for op in operators}
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
        op = by_parts.get((head,) + args) or by_symbol.get(head)
        if op is None:
            raise PlanParseError('line %d: unknown action %r'
                                 % (lineno, line))
        plan.append(op)
    return plan


def validate_plan(cp, plan):
    """Replay a classical plan; raises PlanInvalid on any violation."""
    state = cp.init
    for step_no, op in enumerate(plan):
        if not applicable(state, op):
            raise PlanInvalid('step %d: %s not applicable'
                              % (step_no, op.label))
        state = apply(state, op)
    if not goal_satisfied(cp, state):
        raise PlanInvalid('goal not satisfied after %d steps' % len(plan))
    return state


def solve_external(cp, command_template, workdir=None, timeout=None,
                   domain_name='compiled', problem_name='compiled'):
    """Run an external planner via a {domain}/{problem}/{plan} command
    template, decode, and validate the returned plan."""
    for placeholder in ('{domain}', '{problem}', '{plan}'):
        if placeholder not in command_template:
            raise PlannerFailure('command template must contain %s'
                                 % placeholder)
    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix='pdkb-ext-')
        workdir = own_dir.name
    try:
        domain_path = os.path.join(workdir, 'domain.pddl')
        problem_path = os.path.join(workdir, 'problem.pddl')
        plan_path = os.path.join(workdir, 'plan.txt')
        with open(domain_path, 'w', encoding='utf-8') as handle:
            handle.write(emit_domain(cp, domain_name))
        with open(problem_path, 'w', encoding='utf-8') as handle:
            handle.write(emit_problem(cp, domain_name, problem_name))
        command = (command_template
                   .replace('{domain}', domain_path)
                   .replace('{problem}', problem_path)
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
    finally:
        if own_dir is not None:
            own_dir.cleanup()
