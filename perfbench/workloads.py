"""The benchmark's workloads: one batch of problems each, closed loop.

Every workload runs its batch through the library pipeline behind
``pdkb solve`` / ``pdkb compile`` (parser -> model -> compiler ->
planner -> validator), with a span around each call into those modules.
``run`` is the timed part and only calls the toolchain; ``check`` reads
the outputs afterwards, outside the timed section, and ``finish`` makes
the checks that need the whole run.

A problem is *failed* when its output is missing or wrong: the toolchain
reported a failure (no plan or policy, an exception, a semantic verdict
other than StrongValid), or a check found a wrong output. Outputs the
toolchain passed as valid but a check rejects are also listed in
``Batch.wrong``; any such entry makes the run incorrect. So is a missing
output on ``lossy-gossip-fond``: its problems are solvable by
construction and most of them already fail with a known defect, so a
missing policy there would otherwise read as that defect.
"""

import json
import os
import random
import sys
import traceback
from collections import Counter

from pdkb.compiler import (compile_problem, emit_domain, emit_fluent_map,
                           emit_problem, emit_report)
from pdkb.model import GroundingReport, ground
from pdkb.parser import desugar, parse_file, parse_text
from pdkb.pekb import PEKB
from pdkb.planner import applicable, apply, solve_andor, solve_bfs
from pdkb.validator import (STRONG_VALID, assess_plan,
                            crosscheck_progression, state_key, verify_policy)

import lossy_gossip
from spans import NoTrace

GRAPEVINE = os.path.join('benchmarks', 'grapevine')
MISC = os.path.join('benchmarks', 'misc')

# plan lengths pinned by the acceptance tests
D1_PLAN_LENGTHS = {'prob-4ag-2g-1d': 4, 'prob-4ag-4g-1d': 6,
                   'prob-4ag-8g-1d': 8}
D2_PROBLEM = 'prob-4ag-2g-2d'
D2_FLUENTS = 478
D2_OPERATORS = 133
CROSSCHECK_CASES = 500


class Batch:
    """Outcome of one batch: problem counts, layer counts, and whether
    each problem got the expected StrongValid verdict (False when it got
    no verdict at all)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.counts = Counter()
        self.verdicts = []

    def fail(self, pid, reason, wrong=False):
        self.failed += 1
        if wrong:
            self.wrong.append('%s: %s' % (pid, reason))
        print('failed %s: %s' % (pid, reason), file=sys.stderr)


def _front_end(tr, pid, source, text=False):
    """parse -> desugar -> ground -> compile, as ``pdkb compile`` does."""
    with tr.span('parser.parse', pid):
        ast = parse_text(source, pid) if text else parse_file(source)
    with tr.span('parser.desugar', pid):
        problem = desugar(ast)
    report = GroundingReport()
    with tr.span('model.ground', pid):
        actions = ground(problem, report)
    with tr.span('compiler.compile', pid):
        cp = compile_problem(problem, actions,
                             truncated_ground=report.truncated_effects)
    return problem, actions, cp


def _count_compile(counts, actions, cp, report):
    counts['model.ground_actions'] += len(actions)
    counts['compiler.fluents'] += len(cp.fluents)
    counts['compiler.operators'] += len(cp.operators)
    counts['compiler.effects'] += sum(len(adds) + len(dels)
                                      for op in cp.operators
                                      for adds, dels in op.outcomes)
    counts['compiler.spawned'] += report['spawned_ancillary_effects']
    counts['compiler.pruned'] += report['pruned_effects']
    counts['compiler.truncated'] += report['truncated_effects']


def _pddl_bytes(problem, cp):
    return (len(emit_domain(cp, problem.domain_name).encode())
            + len(emit_problem(cp, problem.domain_name,
                               problem.problem_name).encode()))


def _guarded(batch, pid, step, wrong=False):
    """Run one problem's pipeline; an exception from the toolchain is a
    failed problem, reported with its traceback, not a crashed run.
    ``wrong`` also makes it a wrong output."""
    batch.attempted += 1
    try:
        return step()
    except Exception:  # the batch goes on with its next problem
        traceback.print_exc()
        batch.fail(pid, 'toolchain raised', wrong=wrong)
        return None


class GossipSolve:
    """Depth-1 gossip, solved with BFS and assessed semantically."""

    def __init__(self, seed):
        self.paths = [os.path.join(GRAPEVINE, name + '.pdkbddl')
                      for name in sorted(D1_PLAN_LENGTHS)]
        random.Random(seed).shuffle(self.paths)
        self.pddl_bytes = None

    def run(self, tr):
        batch = Batch()
        outputs = []
        for path in self.paths:
            pid = os.path.basename(path)[:-len('.pdkbddl')]
            with tr.span('bench.problem', pid):
                out = _guarded(batch, pid, lambda: self._solve(tr, pid, path))
            outputs.append((pid, out))
        return batch, outputs

    @staticmethod
    def _solve(tr, pid, path):
        problem, actions, cp = _front_end(tr, pid, path)
        stats = {}
        with tr.span('planner.search', pid):
            plan = solve_bfs(cp, stats=stats)
        result = None
        if plan is not None:
            steps = [(op.name,) + op.args for op in plan]
            with tr.span('validator.assess', pid):
                result = assess_plan(problem, plan=steps,
                                     ground_actions=actions)
        return problem, actions, cp, stats, plan, result

    def check(self, batch, outputs):
        total = 0
        for pid, out in outputs:
            if out is None:
                batch.verdicts.append(False)
                continue
            problem, actions, cp, stats, plan, result = out
            _count_compile(batch.counts, actions, cp, cp.report)
            batch.counts['planner.expanded'] += stats.get('expanded', 0)
            batch.counts['planner.generated'] += stats.get('states', 0)
            if self.pddl_bytes is None:
                total += _pddl_bytes(problem, cp)
            if plan is None:
                batch.verdicts.append(False)
                batch.fail(pid, 'no plan')
                continue
            batch.verdicts.append(result.verdict == STRONG_VALID)
            if result.verdict != STRONG_VALID:
                batch.fail(pid, 'plan verdict %s' % result.verdict)
            elif len(plan) != D1_PLAN_LENGTHS[pid]:
                batch.fail(pid, 'plan length %d, expected %d'
                           % (len(plan), D1_PLAN_LENGTHS[pid]), wrong=True)
        if self.pddl_bytes is None:
            self.pddl_bytes = total

    def finish(self):
        return []


class GossipCompile:
    """Depth-2 gossip through ``pdkb compile``: compile and emit PDDL."""

    def __init__(self, seed):
        self.path = os.path.join(GRAPEVINE, D2_PROBLEM + '.pdkbddl')
        self.crosscheck_seed = seed
        self.fluent_maps = []
        self.problem = None
        self.pddl_bytes = None

    def run(self, tr):
        batch = Batch()
        pid = D2_PROBLEM
        with tr.span('bench.problem', pid):
            out = _guarded(batch, pid, lambda: self._compile(tr, pid))
        return batch, [(pid, out)]

    def _compile(self, tr, pid):
        problem, actions, cp = _front_end(tr, pid, self.path)
        with tr.span('compiler.emit', pid):
            domain = emit_domain(cp, problem.domain_name).encode()
            task = emit_problem(cp, problem.domain_name,
                                problem.problem_name).encode()
            fluent_map = emit_fluent_map(cp).encode()
            report = emit_report(cp)
        return problem, actions, cp, domain, task, fluent_map, report

    def check(self, batch, outputs):
        for pid, out in outputs:
            if out is None:
                continue
            problem, actions, cp, domain, task, fluent_map, report = out
            report = json.loads(report)
            _count_compile(batch.counts, actions, cp, report)
            self.problem = problem
            self.pddl_bytes = len(domain) + len(task)
            self.fluent_maps.append(fluent_map)
            if (report['fluents'], report['operators']) != (D2_FLUENTS,
                                                            D2_OPERATORS):
                batch.fail(pid, '%d fluents and %d operators, expected %d '
                           'and %d' % (report['fluents'], report['operators'],
                                       D2_FLUENTS, D2_OPERATORS), wrong=True)
            elif fluent_map != self.fluent_maps[0]:
                batch.fail(pid, 'fluents.map differs between compiles',
                           wrong=True)

    def finish(self):
        """Run-level checks: a second compile when the run had only one,
        and the semantic-vs-compiled cross-check."""
        if self.problem is None:
            return []
        wrong = []
        if len(self.fluent_maps) == 1:
            extra, outputs = self.run(NoTrace())
            self.check(extra, outputs)
            wrong += extra.wrong
        report = crosscheck_progression(self.problem, CROSSCHECK_CASES,
                                        seed=self.crosscheck_seed)
        if report['divergences']:
            wrong.append('%s: crosscheck found %d divergences'
                         % (D2_PROBLEM, len(report['divergences'])))
        return wrong


class LossyGossipFond:
    """Generated lossy-gossip FOND problems plus misc/coin and misc/ask,
    solved with AND-OR search and verified policy-wide."""

    def __init__(self, seed):
        self.sources = [(name, text, True)
                        for name, text in lossy_gossip.generate(seed)]
        self.sources += [(name, os.path.join(MISC, name + '.pdkbddl'), False)
                         for name in ('coin', 'ask')]
        self.pddl_bytes = None

    def run(self, tr):
        batch = Batch()
        outputs = []
        for pid, source, text in self.sources:
            with tr.span('bench.problem', pid):
                out = _guarded(batch, pid,
                               lambda: self._solve(tr, pid, source, text),
                               wrong=True)
            outputs.append((pid, out))
        return batch, outputs

    @staticmethod
    def _solve(tr, pid, source, text):
        problem, actions, cp = _front_end(tr, pid, source, text)
        with tr.span('planner.search', pid):
            policy = solve_andor(cp)
        result = None
        if policy is not None:
            with tr.span('validator.key', pid):
                semantic = {state_key(PEKB(state)): (op.name,) + op.args
                            for state, op in policy.mapping.items()}
            with tr.span('validator.verify', pid):
                result = verify_policy(problem, semantic,
                                       ground_actions=actions)
        return problem, actions, cp, policy, result

    def check(self, batch, outputs):
        total = 0
        for pid, out in outputs:
            if out is None:
                batch.verdicts.append(False)
                continue
            problem, actions, cp, policy, result = out
            _count_compile(batch.counts, actions, cp, cp.report)
            if self.pddl_bytes is None:
                total += _pddl_bytes(problem, cp)
            if policy is None:
                batch.verdicts.append(False)
                batch.fail(pid, 'no policy', wrong=True)
                continue
            batch.counts['planner.policy_states'] += len(policy.mapping)
            batch.counts['validator.verify_states'] += result.trajectories
            valid = result.verdict == STRONG_VALID
            batch.verdicts.append(valid)
            if valid != compiled_policy_valid(cp, policy.mapping):
                batch.fail(pid, 'verify_policy says %s, the compiled '
                           'encoding disagrees' % result.verdict, wrong=True)
            elif not valid:
                batch.fail(pid, '%s policy verified %s'
                           % (policy.classification, result.verdict))
        if self.pddl_bytes is None:
            self.pddl_bytes = total

    def finish(self):
        return []


def compiled_policy_valid(cp, mapping):
    """The policy's verdict on the compiled encoding, by the rules of
    ``verify_policy``: a state without an action must be a goal, every
    chosen action must apply, and every reachable state must still be
    able to reach a goal."""
    successors = {}
    terminal = set()
    seen = {cp.init}
    stack = [cp.init]
    while stack:
        state = stack.pop()
        op = mapping.get(state)
        if op is None:
            if not cp.goal.satisfied(state):
                return False
            terminal.add(state)
            continue
        if not applicable(state, op):
            return False
        nexts = [apply(state, op, i) for i in range(len(op.outcomes))]
        successors[state] = nexts
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    finishing = set(terminal)
    grew = bool(finishing)
    while grew:
        grew = False
        for state, nexts in successors.items():
            if state not in finishing and any(n in finishing for n in nexts):
                finishing.add(state)
                grew = True
    return bool(terminal) and finishing == seen


WORKLOADS = {
    'gossip-solve-d1': GossipSolve,
    'gossip-compile-d2': GossipCompile,
    'lossy-gossip-fond': LossyGossipFond,
}
