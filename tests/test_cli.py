"""Exit codes of the pdkb command line."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import types

import pytest

from pdkb import planner as planner_mod
from pdkb import validator as validator_mod
from pdkb.cli import (EXIT_DIAGNOSTICS, EXIT_FALSE, EXIT_INVALID, EXIT_OK,
                      EXIT_PLANNER_FAILURE, EXIT_UNSOLVABLE, main)

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')
COIN = os.path.join(BENCH, 'misc', 'coin.pdkbddl')
ENVELOPE = os.path.join(BENCH, 'envelope', 'envelope.pdkbddl')
SRC = os.path.join(HERE, '..', 'src')


def _invoke(args):
    """Run ``pdkb ARGS`` in-process with stdout and stderr captured into
    one buffer; the exception is the ``SystemExit`` of a non-zero exit."""
    buffer = io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(buffer):
        try:
            main(args)
        except SystemExit as exc:
            if exc.code:
                code, exception = exc.code, exc
    return types.SimpleNamespace(exit_code=code, output=buffer.getvalue(),
                                 exception=exception)


def _solve_report(tmp_path, *parts):
    result = _invoke(['solve', os.path.join(BENCH, *parts),
                      '--out', str(tmp_path)])
    with open(tmp_path / 'solve-report.json', encoding='utf-8') as handle:
        return result, json.load(handle)


def test_validate_past_the_trajectory_cap_exits_unsolvable(tmp_path):
    # 14 coin flips give 2 ** 14 trajectories, past the cap of 10,000
    with open(os.path.join(BENCH, 'misc', 'coin.pdkbddl'),
              encoding='utf-8') as handle:
        text = handle.read()
    text = text.replace('valid_generation', 'valid_assessment')
    text = text.replace('(:goal (heads))',
                        '(:goal (heads))\n    (:plan %s)' % ('(flip) ' * 14))
    problem = tmp_path / 'coin-14.pdkbddl'
    problem.write_text(text, encoding='utf-8')
    result = _invoke(['validate', str(problem)])
    assert result.exit_code == EXIT_UNSOLVABLE
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines()[-1].startswith('error: ')


def test_solve_past_the_state_cap_exits_unsolvable(tmp_path):
    problem = os.path.join(BENCH, 'grapevine', 'prob-4ag-2g-1d.pdkbddl')
    result = _invoke(['solve', problem, '--max-states', '5',
                      '--out', str(tmp_path)])
    assert result.exit_code == EXIT_UNSOLVABLE
    assert isinstance(result.exception, SystemExit)
    with open(tmp_path / 'solve-report.json', encoding='utf-8') as handle:
        report = json.load(handle)
    assert 'state cap' in report['error']


def test_solve_reports_the_operators_breadth_first_search_pruned(tmp_path):
    # the 48 fib operators only make agents believe the secret false
    result, report = _solve_report(tmp_path, 'grapevine',
                                   'prob-4ag-2g-1d.pdkbddl')
    assert result.exit_code == EXIT_OK, result.output
    assert report['operators_pruned'] == 48
    assert (report['states_expanded'], report['states_generated']) \
        == (24, 115)


def test_validate_a_plan_longer_than_the_recursion_limit(long_coin_plan):
    result = _invoke(['validate', long_coin_plan])
    assert result.exit_code == EXIT_OK


def test_solve_with_max_states_zero_exits_unsolvable(tmp_path):
    problem = os.path.join(BENCH, 'grapevine', 'prob-4ag-2g-1d.pdkbddl')
    result = _invoke(['solve', problem, '--max-states', '0',
                      '--out', str(tmp_path)])
    assert result.exit_code == EXIT_UNSOLVABLE
    with open(tmp_path / 'solve-report.json', encoding='utf-8') as handle:
        assert 'state cap 0' in json.load(handle)['error']


@pytest.mark.parametrize('parts,check,message', [
    (('grapevine', 'prob-4ag-2g-1d.pdkbddl'), 'assess_plan',
     'trajectory cap 10000 exceeded'),
    (('misc', 'ask.pdkbddl'), 'verify_policy',
     'policy state cap 10000 exceeded'),
])
def test_solve_exits_unsolvable_on_a_validator_cap(tmp_path, monkeypatch,
                                                   parts, check, message):
    def capped(*args, **kwargs):
        raise planner_mod.ResourceLimit(message)

    monkeypatch.setattr(validator_mod, check, capped)
    result, report = _solve_report(tmp_path, *parts)
    assert result.exit_code == EXIT_UNSOLVABLE
    assert isinstance(result.exception, SystemExit)
    assert report['error'] == message
    assert report['verify_time'] >= 0
    assert 'verdict' not in report


def test_solve_past_the_policy_state_cap_exits_unsolvable(tmp_path,
                                                         monkeypatch):
    # the policy for misc/ask reaches 5 states
    monkeypatch.setattr(validator_mod, 'DEFAULT_MAX_BRANCHES', 2)
    result, report = _solve_report(tmp_path, 'misc', 'ask.pdkbddl')
    assert result.exit_code == EXIT_UNSOLVABLE
    assert report['error'] == 'policy state cap 2 exceeded'


def test_solve_verifies_a_policy_longer_than_fifty_steps(tmp_path,
                                                         chain_problem):
    result = _invoke(['solve', chain_problem(55),
                      '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_OK, result.output
    with open(tmp_path / 'out' / 'solve-report.json',
              encoding='utf-8') as handle:
        report = json.load(handle)
    assert report['policy_classification'] == 'StrongCyclic'
    assert report['policy_size'] == 54
    assert report['verdict'] == 'StrongValid'


@pytest.mark.parametrize('parts,solver', [
    (('grapevine', 'prob-4ag-2g-1d.pdkbddl'), 'bfs'),
    (('misc', 'ask.pdkbddl'), 'and-or'),
])
def test_solve_reports_the_search_counts(tmp_path, parts, solver):
    result, report = _solve_report(tmp_path, *parts)
    assert result.exit_code == EXIT_OK
    assert report['solver'] == solver
    assert 0 < report['states_expanded'] <= report['states_generated']
    assert report['verify_time'] >= 0


@pytest.mark.parametrize('parts', [('grapevine', 'prob-4ag-2g-1d.pdkbddl'),
                                   ('misc', 'ask.pdkbddl')])
def test_solve_timings_survive_a_wall_clock_step_back(tmp_path, monkeypatch,
                                                      parts):
    # the wall clock runs backwards a second per reading; the durations
    # come from the monotonic clock
    clock = itertools.count(1e9, -1.0)
    monkeypatch.setattr(time, 'time', lambda: next(clock))
    result, report = _solve_report(tmp_path, *parts)
    assert result.exit_code == EXIT_OK
    for field in ('wall_time', 'verify_time'):
        assert isinstance(report[field], float) and report[field] >= 0


@pytest.mark.parametrize('parts,edges,rounds', [
    (('misc', 'ask.pdkbddl'), 3, 0),
    (('misc', 'lossy-3ag-2l.pdkbddl'), 207, 2),
])
def test_solve_reports_and_or_edges_and_rounds(tmp_path, parts, edges,
                                               rounds):
    result, report = _solve_report(tmp_path, *parts)
    assert result.exit_code == EXIT_OK
    assert (report['edges'], report['rounds']) == (edges, rounds)


def test_solve_verifies_a_strong_cyclic_policy(tmp_path):
    result, report = _solve_report(tmp_path, 'misc', 'lossy-3ag-2l.pdkbddl')
    assert result.exit_code == EXIT_OK
    assert report['policy_classification'] == 'StrongCyclic'
    assert report['verdict'] == 'StrongValid'


SURFACE = """
(define (domain d) (:agents a) (:types loc) (:constants home - loc)
  (:predicates {AK}(lit) {AK}(at ?l - loc) (p) (q))
%s)
(define (problem x) (:domain d) (:objects %s) (:depth 1)
  (:init %s) (:goal %s))
"""


@pytest.mark.parametrize('actions, init, goal, classification', [
    # a belief marker prefixes an action field directly
    ('(:action tell :derive-condition always :effect [a](p))', '',
     '[a](p)', None),
    ('(:action tell :derive-condition always :effect (p))'
     '(:action use :derive-condition always :precondition <a>(p)'
     ' :effect (q))', '', '(q)', None),
    # (!lit) in a complete initial state says what its absence says
    ('(:action flip :effect (oneof (and (lit)) (and (!lit))))', '(!lit)',
     '(lit)', 'StrongCyclic'),
    ('(:action flip :effect (oneof (and (lit)) (and (!lit))))'
     '(:action look :derive-condition always :precondition (lit)'
     ' :effect [a](p))', '(!lit)', '[a](p)', 'StrongCyclic'),
    # a domain constant is an object of the problem
    ('(:action go :parameters (?l - loc) :effect (at ?l))', '(at l1)',
     '(at home)', None),
], ids=['prefixed-effect', 'prefixed-precondition', 'negated-ak-init',
        'negated-ak-init-prefixed-effect', 'constant'])
def test_surface_forms_solve_and_verify(tmp_path, actions, init, goal,
                                        classification):
    path = tmp_path / 'surface.pdkbddl'
    path.write_text(SURFACE % (actions, 'l1 - loc', init, goal),
                    encoding='utf-8')
    result = _invoke(['solve', str(path), '--out', str(tmp_path / 'out')])
    with open(tmp_path / 'out' / 'solve-report.json',
              encoding='utf-8') as handle:
        report = json.load(handle)
    assert result.exit_code == EXIT_OK, result.output
    assert report['verdict'] == 'StrongValid'
    assert report.get('policy_classification') == classification


@pytest.mark.xfail(strict=True, reason='after (check bob) the compiled step '
                   'keeps P_alice B_bob !secret, which the semantic step '
                   'erases, so the Strong 2-state policy verifies Invalid')
def test_solve_verifies_the_envelope_policy(tmp_path):
    result = _invoke([
        'solve', os.path.join(BENCH, 'envelope', 'envelope.pdkbddl'),
        '--flavor', 'fond', '--out', str(tmp_path)])
    assert result.exit_code == EXIT_OK


def test_solve_exits_invalid_on_a_policy_that_never_reaches_the_goal(
        tmp_path, monkeypatch):
    solve_andor = planner_mod.solve_andor

    def ask_forever(cp, **kwargs):
        policy = solve_andor(cp, **kwargs)
        ask = next(op for op in cp.operators if op.name == 'ask')
        return planner_mod.Policy({s: ask for s in policy.mapping},
                                  policy.classification)

    monkeypatch.setattr(planner_mod, 'solve_andor', ask_forever)
    result, report = _solve_report(tmp_path, 'misc', 'ask.pdkbddl')
    assert result.exit_code == EXIT_INVALID
    assert report['verdict'] == 'Invalid'


def test_solve_exits_unsolvable_when_no_plan_exists(tmp_path):
    result, report = _solve_report(tmp_path, 'misc', 'unsolvable.pdkbddl')
    assert result.exit_code == EXIT_UNSOLVABLE
    assert report['result'] == 'Unsolvable'


def test_solve_from_a_goal_state_is_an_empty_strong_policy(tmp_path):
    path = tmp_path / 'at-goal.pdkbddl'
    path.write_text(SURFACE % ('(:action flip :effect (oneof (and (lit)) '
                               '(and (!lit))))', '', '(lit)', '(lit)'),
                    encoding='utf-8')
    result = _invoke(['solve', str(path), '--out', str(tmp_path / 'out')])
    with open(tmp_path / 'out' / 'solve-report.json',
              encoding='utf-8') as handle:
        report = json.load(handle)
    assert result.exit_code == EXIT_OK, result.output
    assert report['solver'] == 'and-or'
    assert report['policy_classification'] == 'Strong'
    assert report['policy_size'] == 0
    assert report['states_generated'] == 1
    assert report['verdict'] == 'StrongValid'


def _compile_report(tmp_path, *args):
    result = _invoke(['compile'] + list(args)
                     + ['--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_OK, result.output
    with open(tmp_path / 'out' / 'compile-report.json',
              encoding='utf-8') as handle:
        return json.load(handle)


def test_compile_truncates_effects_past_the_depth_bound(tmp_path):
    # at depth 1 grounding drops the depth-2 effect and the effect under a
    # depth-2 when-condition; no awareness copy adds a truncation
    path = tmp_path / 'deep.pdkbddl'
    path.write_text("""
(define (domain d) (:agents a b) (:predicates (p) (q))
  (:action act :effect (and [a][b](p) (when [a][b](q) (p)) (q))))
(define (problem x) (:domain d) (:depth 1) (:init ) (:goal (q)))
""", encoding='utf-8')
    report = _compile_report(tmp_path, str(path))
    assert report['truncated_effects'] == 2


def test_depth_override_recompiles_at_the_given_depth(tmp_path):
    report = _compile_report(
        tmp_path, os.path.join(BENCH, 'grapevine', 'prob-4ag-2g-1d.pdkbddl'),
        '--depth-override', '2')
    assert report['depth'] == 2
    assert (report['fluents'], report['operators']) == (478, 133)


# ---------------------------------------------------------------------------
# input diagnostics exit 2, never 1 (the "answered false" code)


def _belief_base(tmp_path, text):
    path = tmp_path / 'kb.txt'
    path.write_text(text, encoding='utf-8')
    return str(path)


def _last_line(result):
    return result.output.strip().splitlines()[-1]


def test_query_answers_false_with_exit_one(tmp_path):
    kb = _belief_base(tmp_path, 'B_a p\n')
    result = _invoke(['query', kb, 'B_b p'])
    assert result.exit_code == EXIT_FALSE
    assert result.output.strip() == 'false'


def test_query_on_an_inconsistent_base_is_a_diagnostic(tmp_path):
    kb = _belief_base(tmp_path, 'B_a p\nP_a !p\n')
    result = _invoke(['query', kb, 'B_a p'])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert _last_line(result) == 'error: belief base is inconsistent'


def test_query_syntax_error_is_a_diagnostic(tmp_path):
    kb = _belief_base(tmp_path, 'B_a p\n')
    result = _invoke(['query', kb, 'B_a (p'])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert _last_line(result).startswith('error: bad atom')


@pytest.mark.parametrize('command', [['query'], ['closure']])
def test_malformed_belief_base_line_is_a_diagnostic(tmp_path, command):
    kb = _belief_base(tmp_path, '# comment\nB_a p\nB_a (p\n')
    args = command + [kb] + (['B_a p'] if command == ['query'] else [])
    result = _invoke(args)
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert _last_line(result).startswith('error: %s:3: bad atom' % kb)


@pytest.mark.parametrize('line, message', [
    ('oops', 'expected key=value'),
    ('depth=x', "depth must be an integer, not 'x'"),
    ('max_states=lots', "max_states must be an integer, not 'lots'"),
    ('timeout=abc', "timeout must be a number, not 'abc'"),
    ('flavor=bogus', "flavor must be classical, fond or auto, not 'bogus'"),
    ('root=a', "unknown key 'root'"),
])
def test_config_file_errors_are_diagnostics(tmp_path, line, message):
    config = tmp_path / 'solve.cfg'
    config.write_text('# settings\nflavor=auto\n%s\n' % line,
                      encoding='utf-8')
    result = _invoke([
        'solve', os.path.join(BENCH, 'misc', 'coin.pdkbddl'),
        '--config', str(config), '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == 'error: %s:3: %s' % (config, message)


def test_config_file_numbers_reach_the_solver(tmp_path):
    config = tmp_path / 'solve.cfg'
    config.write_text('max_states = 5\ntimeout = 2.5\n', encoding='utf-8')
    problem = os.path.join(BENCH, 'grapevine', 'prob-4ag-2g-1d.pdkbddl')
    result = _invoke(['solve', problem, '--config',
                      str(config), '--out', str(tmp_path)])
    assert result.exit_code == EXIT_UNSOLVABLE
    with open(tmp_path / 'solve-report.json', encoding='utf-8') as handle:
        assert 'state cap' in json.load(handle)['error']


def test_config_file_names_the_output_directory(tmp_path):
    config = tmp_path / 'compile.cfg'
    config.write_text('out = %s\nplanner_cmd = true\n' % (tmp_path / 'o'),
                      encoding='utf-8')
    result = _invoke([
        'compile', os.path.join(BENCH, 'misc', 'coin.pdkbddl'),
        '--config', str(config)])
    assert result.exit_code == EXIT_OK
    assert (tmp_path / 'o' / 'domain.pddl').exists()


# the exit code of each source's planner command names the one that ran
PLANNER_EXITS = {'flag': 11, 'config': 12, 'env': 13}


@pytest.mark.parametrize('sources, winner', [
    (('flag', 'config', 'env'), 'flag'),
    (('flag', 'env'), 'flag'),
    (('config', 'env'), 'config'),
    (('env',), 'env'),
])
def test_planner_command_order_is_flag_config_environment(
        tmp_path, monkeypatch, sources, winner):
    templates = {source: 'exit %d; : {domain} {problem} {plan}' % code
                 for source, code in PLANNER_EXITS.items()}
    config = tmp_path / 'solve.cfg'
    config.write_text('planner_cmd = %s\n' % templates['config']
                      if 'config' in sources else '', encoding='utf-8')
    monkeypatch.setenv('PDKB_PLANNER_CMD', templates['env'])
    args = ['solve', COIN, '--config', str(config),
            '--out', str(tmp_path / 'out')]
    if 'flag' in sources:
        args += ['--planner-cmd', templates['flag']]
    result = _invoke(args)
    assert result.exit_code == EXIT_PLANNER_FAILURE
    with open(tmp_path / 'out' / 'solve-report.json',
              encoding='utf-8') as handle:
        assert json.load(handle)['error'] == (
            'external planner exited %d: ' % PLANNER_EXITS[winner])


def test_solve_has_no_root_option(tmp_path):
    result = _invoke([
        'solve', os.path.join(BENCH, 'envelope', 'envelope.pdkbddl'),
        '--root', 'a', '--out', str(tmp_path)])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert 'unrecognized arguments: --root' in result.output.lower()


MISSING = 'missing.pdkbddl'


@pytest.mark.parametrize('args', [
    ['compile', MISSING],
    ['solve', MISSING],
    ['validate', MISSING],
    ['solve', COIN, '--config', MISSING],
    ['validate', ENVELOPE, '--plan', MISSING],
    ['query', MISSING, 'B_a p'],
    ['closure', MISSING],
    ['solve', COIN, '--flavor', 'bogus'],
    ['solve', COIN, '--depth-override', 'x'],
    ['solve', COIN, '--max-states', 'x'],
    ['solve', COIN, '--timeout', 'x'],
    # no abbreviation stands for --max-states
    ['solve', COIN, '--max', '5'],
    ['bogus'],
    [],
])
def test_usage_errors_exit_2(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = _invoke(args)
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert 'usage:' in result.output.lower()


COMMON = ['--config', '--depth-override', '--out']


@pytest.mark.parametrize('command, options', [
    ('compile', ['--flavor'] + COMMON),
    ('solve', ['--flavor', '--planner-cmd', '--timeout', '--max-states',
               '--acyclic-only'] + COMMON),
    ('validate', ['--plan'] + COMMON),
    ('query', []),
    ('closure', ['--prime']),
])
def test_each_command_help_names_its_options(command, options):
    result = _invoke([command, '--help'])
    assert result.exit_code == EXIT_OK
    for option in options + ['--help']:
        assert option in result.output


@pytest.mark.parametrize('text, position, message', [
    ('(define)', (1, 1), 'expected (domain name) or (problem name)'),
    ('(define (domain))', (1, 9), 'expected domain name'),
    ('(define (domain x) (:action))', (1, 20), 'expected action name'),
    ('(define (domain x)) (define (problem))', (1, 29),
     'expected problem name'),
    ('(define (domain x) (:predicates (p))\n'
     '  (:action a :effect (forall)))', (2, 22),
     'expected quantified variable'),
    ('(define (domain x)) (define (problem p) (:objects a -))', (1, 52),
     'expected type name'),
    ('(define (domain x)) (define (problem p) (:depth two))', (1, 48),
     'depth must be an integer, not two'),
    ('(define (domain x) ([a] p))', (1, 20), 'expected a (:section ...)'),
    ('(define (domain x) (:predicates {AK}(k))\n'
     '  (:action a :effect (not (!k))))', (2, 3),
     '(not (!k)) is not a valid effect'),
    ('(define (domain x) (:action a :efect (p)))', (1, 30),
     'unknown field :efect in action a'),
    ('(define (domain x) (:action a :effect (p) :effect (q)))', (1, 42),
     'duplicate :effect'),
    ('(define (domain x) (:action a :effect))', (1, 30),
     ':effect has no value'),
    # the scanner's own diagnostics
    ('(define (domain x) [a (p))', (1, 19),
     "unterminated '[' belief marker"),
    ('(define (domain x) <a (p))', (1, 19),
     "unterminated '<' belief marker"),
    ('(define (domain x) {AK (p))', (1, 19), 'unterminated { marker'),
    ('(define (domain x) [ ] (p))', (1, 19), 'empty belief marker'),
    ('(define (domain x) {foo} (p))', (1, 19), 'unknown marker {foo}'),
    ('(define (domain x) ] (p))', (1, 19), "unexpected character ']'"),
    # a top-level form that is no (define ...) names its first token
    ('((define (domain x)))', (1, 2), 'expected (define ...) at top level'),
    # a belief marker that spans a line break moves later tokens down
    ('(define (domain x)\n  (:predicates (p))\n'
     '  (:action a :effect ([a\n] p) (q r)))', (4, 6),
     'expected action field'),
])
def test_malformed_input_is_a_positioned_diagnostic(tmp_path, text,
                                                    position, message):
    path = tmp_path / 'bad.pdkbddl'
    path.write_text(text + '\n', encoding='utf-8')
    result = _invoke(['compile', str(path),
                      '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == 'error: %s:%d:%d: %s' % (
        (path,) + position + (message,))


UNBOUND_OR_DEEP = """
(define (domain d) (:agents a b) (:predicates (q ?x - agent))
  (:action act :derive-condition always :parameters (?x - agent)
               :precondition %s :effect %s))
(define (problem p) (:domain d) (:depth 2) (:task valid_generation)
  (:init-type complete) (:init ) (:goal %s))
"""


@pytest.mark.parametrize('pre, effect, goal, message', [
    ('(and)', '(q ?x)', '(q ?y)', 'error at goal: unbound variable ?y'),
    ('(and)', '(q ?y)', '(q a)',
     'error at action act: unbound variable ?y in q(?y)'),
    ('(and)', '(when (q ?z) (q ?x))', '(q a)',
     'error at action act: unbound variable ?z in q(?z)'),
    ('(q ?w)', '(q ?x)', '(q a)',
     'error at action act: unbound variable ?w in q(?w)'),
    ('(not [a][b][a](q a))', '(q ?x)', '(q a)',
     'error at action act: B_a B_b B_a q(a) exceeds depth bound 2'),
    # an argument that is no declared object of its type
    ('(and)', '(q ?x)', '[b](q zz)',
     'error at goal: unknown object zz of type agent in B_b q(zz)'),
    ('(and)', '(when (q zz) (q ?x))', '(q a)',
     'error at action act: unknown object zz of type agent in q(zz)'),
    ('(and)', '(zz)', '(q a)', 'error at action act: unknown predicate zz'),
    ('(and)', '(q a b)', '(q a)',
     'error at action act: predicate q expects 1 arguments, got 2'),
])
def test_unbound_variables_and_deep_preconditions_are_diagnostics(
        tmp_path, pre, effect, goal, message):
    path = tmp_path / 'bad.pdkbddl'
    path.write_text(UNBOUND_OR_DEEP % (pre, effect, goal), encoding='utf-8')
    result = _invoke(['compile', str(path),
                      '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == message


def test_an_always_known_effect_under_a_regular_condition_is_a_diagnostic(
        tmp_path):
    path = tmp_path / 'bad.pdkbddl'
    path.write_text("""
(define (domain d) (:agents a) (:predicates {AK}(k) (p ?x - agent))
  (:action act :effect (when (p a) (k))))
(define (problem x) (:domain d) (:init ) (:goal (k)))
""", encoding='utf-8')
    result = _invoke(['compile', str(path), '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == ('error at action act: effect on '
                                  'always-known k conditioned on regular '
                                  'p(a)')


@pytest.mark.parametrize('command', ['compile', 'solve'])
@pytest.mark.parametrize('source', ['file', 'override'])
def test_a_negative_depth_is_a_diagnostic(tmp_path, command, source):
    # in the file, no init or goal RML lies past the bound; on coin, the
    # goal does, and the bound is still the error reported
    if source == 'file':
        path = tmp_path / 'negative.pdkbddl'
        path.write_text("""
(define (domain d) (:agents a) (:predicates (p)) (:action act :effect (p)))
(define (problem x) (:domain d) (:depth -1) (:init ) (:goal (and)))
""", encoding='utf-8')
        args = [str(path)]
    else:
        args = [COIN, '--depth-override', '-1']
    result = _invoke([command] + args + ['--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == ('error at problem: depth bound must be '
                                  'non-negative, not -1')


@pytest.mark.parametrize('parts', [('misc', 'coin.pdkbddl'),
                                   ('grapevine', 'prob-4ag-2g-1d.pdkbddl')])
def test_a_negative_depth_is_the_one_error_named(tmp_path, parts):
    # every goal, init and precondition RML lies past a negative bound;
    # none is named, only the bound
    result = _invoke(['compile', os.path.join(BENCH, *parts),
                      '--depth-override', '-1', '--out', str(tmp_path)])
    assert result.exit_code == EXIT_DIAGNOSTICS
    errors = [line for line in result.output.splitlines()
              if line.startswith('error')]
    assert errors == ['error at problem: depth bound must be non-negative, '
                      'not -1']


ILL_TYPED = """
(define (domain d) (:agents a b) (:types loc thing)
  (:predicates (at ?l - loc) (q ?x - agent))
  (:action act :derive-condition %s :parameters (?x - thing)
               :precondition (and) :effect %s))
(define (problem p) (:domain d) (:objects l1 - loc t1 - thing) (:depth 1)
  (:task valid_generation) (:init-type complete) (:init ) (:goal (at l1)))
"""


@pytest.mark.parametrize('command', ['compile', 'solve'])
@pytest.mark.parametrize('derive, effect, message', [
    ('never', '(at ?x)',
     'error at action act: ?x is of type thing, not loc, in at(?x)'),
    ('never', '(forall ?y - thing (at ?y))',
     'error at action act: ?y is of type thing, not loc, in at(?y)'),
    ('never', '(and [?x](at l1))',
     'error at action act: ?x is of type thing, not agent, in B_?x at(l1)'),
    ('(at $agent$)', '(q a)',
     'error at action act: $agent$ is of type agent, not loc, '
     'in at($agent$)'),
])
def test_ill_typed_variables_are_diagnostics(tmp_path, command, derive,
                                             effect, message):
    path = tmp_path / 'bad.pdkbddl'
    path.write_text(ILL_TYPED % (derive, effect), encoding='utf-8')
    result = _invoke([command, str(path), '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == message


@pytest.mark.parametrize('text, position, message', [
    ('(define (domain x) (:predicates (p) {AK}))', (1, 36),
     'dangling {AK} marker'),
    ('(define (domain x) (:action a :effect (and (p) {AK})))', (1, 47),
     'dangling {AK} marker'),
    ('(define (domain x) (:action a :effect (and (p) [a])))', (1, 47),
     'dangling belief marker'),
])
def test_dangling_marker_is_a_positioned_diagnostic(tmp_path, text,
                                                    position, message):
    test_malformed_input_is_a_positioned_diagnostic(tmp_path, text,
                                                    position, message)


@pytest.mark.parametrize('text, position, message', [
    ('(define (domain x))\n)', (2, 0), 'unbalanced )'),
    # the last token is where the parentheses run out
    ('(define (domain x)\n  (:predicates (p))', (2, 18), 'missing )'),
    ('(define (domain x)) [a]', (1, 20), 'dangling belief marker'),
    # a run of markers is named at its first
    ('(define (domain x) (:predicates (p) [a] <b>))', (1, 36),
     'dangling belief marker'),
    # a stray ) is found before a dangling marker at the top level
    ('(define (domain x)) [a] )', (1, 24), 'unbalanced )'),
], ids=['unbalanced', 'missing', 'after-last-list', 'run-two-deep',
        'unbalanced-first'])
def test_tree_building_errors_are_positioned_diagnostics(tmp_path, text,
                                                         position, message):
    test_malformed_input_is_a_positioned_diagnostic(tmp_path, text,
                                                    position, message)


@pytest.mark.parametrize('text, position', [
    ('(define (domain x) (:action a :effect (and {AK}(p))))', (1, 43)),
    ('(define (domain x) (:action a :effect {AK}(p)))', (1, 38)),
    ('(define (domain x) (:predicates (p))) '
     '(define (problem y) (:domain x) (:goal {AK}(p)))', (1, 77)),
], ids=['in-and', 'whole-effect', 'goal'])
def test_misplaced_ak_marker_is_named_at_its_position(tmp_path, text,
                                                      position):
    test_malformed_input_is_a_positioned_diagnostic(
        tmp_path, text, position,
        'misplaced {AK} marker: only a :predicates declaration takes it')


@pytest.mark.parametrize('command', ['compile', 'solve'])
@pytest.mark.parametrize('objects, init, message', [
    ('home - loc', '', 'error at problem: object home is declared more '
     'than once'),
    ('l1 l1 - loc', '', 'error at problem: object l1 is declared more '
     'than once'),
    ('', '(p) (!p)', 'error at init: inconsistent initial state: !p '
     'contradicts the literals before it'),
    ('', '(lit) (!lit)', 'error at init: inconsistent initial state: !lit '
     'contradicts the literals before it'),
    ('', '[a](p) <a>(!p)', 'error at init: inconsistent initial state: '
     'P_a !p contradicts the literals before it'),
], ids=['constant-and-object', 'object-twice', 'init-clash',
        'ak-init-clash', 'belief-init-clash'])
def test_duplicate_objects_and_inconsistent_init_are_diagnostics(
        tmp_path, command, objects, init, message):
    path = tmp_path / 'bad.pdkbddl'
    path.write_text(SURFACE % ('(:action go :effect (p))', objects, init,
                               '(p)'), encoding='utf-8')
    result = _invoke([command, str(path), '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result) == message


# ---------------------------------------------------------------------------
# plan files: validate --plan reads what solve writes and what an external
# planner writes



def _validate_plan(tmp_path, text):
    plan = tmp_path / 'plan.txt'
    plan.write_text(text, encoding='utf-8')
    return _invoke(['validate', ENVELOPE,
                    '--plan', str(plan)]), str(plan)


def test_validate_reads_the_plan_that_solve_wrote(tmp_path):
    out = tmp_path / 'out'
    solved = _invoke(['solve', ENVELOPE, '--out', str(out)])
    assert solved.exit_code == EXIT_OK
    result = _invoke(['validate', ENVELOPE, '--plan',
                      str(out / 'plan.txt')])
    assert result.exit_code == EXIT_OK
    assert _last_line(result) == 'verdict: StrongValid'


@pytest.mark.parametrize('text', [
    '(check__bob)\n(check__alice)\n',
    '; written by hand\n(CHECK bob)   ; the first look\n\n(check alice)\n',
])
def test_validate_reads_both_plan_forms(tmp_path, text):
    result, _ = _validate_plan(tmp_path, text)
    assert result.exit_code == EXIT_OK
    assert _last_line(result) == 'verdict: StrongValid'


@pytest.mark.parametrize('text, line', [
    ('(check bob)\n; aside\n(teleport bob)\n', 3),
    ('(check__carol)\n', 1),
    ('check bob\n', 1),
    ('(check bob)\n(check__alice bob)\n', 2),
])
def test_validate_names_the_bad_plan_line(tmp_path, text, line):
    result, plan = _validate_plan(tmp_path, text)
    assert result.exit_code == EXIT_DIAGNOSTICS
    assert isinstance(result.exception, SystemExit)
    assert _last_line(result).startswith('error: %s: line %d: '
                                         % (plan, line))


def test_validate_writes_its_report_into_the_output_directory(tmp_path):
    result = _invoke(['validate', ENVELOPE, '--out', str(tmp_path / 'out')])
    assert result.exit_code == EXIT_OK
    assert _last_line(result) == 'verdict: StrongValid'
    assert '"verdict"' not in result.output
    with open(tmp_path / 'out' / 'validate-report.json',
              encoding='utf-8') as handle:
        report = json.load(handle)
    assert report['verdict'] == 'StrongValid'
    assert [step['action'] for step in report['witness']['steps']] == [
        '(check bob)', '(check alice)']


def test_the_contradiction_message_does_not_depend_on_the_hash_seed(
        tmp_path):
    # (p) and (!p) added by one step: each process must name the same RML
    path = tmp_path / 'clash.pdkbddl'
    path.write_text("""
(define (domain d) (:agents a) (:predicates (p))
  (:action both :effect (and (p) (!p))))
(define (problem x) (:domain d) (:task valid_assessment) (:init ) (:goal (p))
  (:plan (both)))
""", encoding='utf-8')
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [SRC] + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    failures = set()
    for seed in range(8):
        env['PYTHONHASHSEED'] = str(seed)
        proc = subprocess.run(
            [sys.executable, '-m', 'pdkb.cli', 'validate', str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        failures.add(json.loads(proc.stdout)['witness']['failure'])
    assert failures == {'step 0: simultaneous effects add p and its negation'}


# ---------------------------------------------------------------------------
# belief-base closure


@pytest.mark.parametrize('flags, lines', [
    ([], ['B_a p', 'P_a p', 'B_a B_b q', 'B_a P_b q', 'P_a B_b q',
          'P_a P_b q']),
    (['--prime'], ['B_a p', 'B_a B_b q']),
], ids=['closed', 'prime'])
def test_closure_prints_the_closed_or_the_prime_form(tmp_path, flags, lines):
    kb = _belief_base(tmp_path, 'B_a p\nB_a B_b q\n')
    result = _invoke(['closure'] + flags + [kb])
    assert result.exit_code == EXIT_OK
    assert result.output.splitlines() == lines
