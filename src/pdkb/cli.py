"""Command-line entry point for the nested-belief planning pipeline.

Subcommands: compile, solve, validate, query, closure. Machine-readable
output goes to files or stdout; human summaries go to stderr. Exit codes:
0 success, 1 false query, 2 input diagnostics, 3 unsolvable or a resource
cap hit, 4 external planner failure, 5 weakly-valid-only plan or
policy, 6 invalid plan or policy.
"""

import functools
import json
import os
import sys
import time

import click

from . import planner as planner_mod
from . import validator as validator_mod
from .compiler import FOND, compile_problem, emit_pddl
from .model import GroundingReport, ground, validate_model
from .parser import (IncludeCycle, ParseError, SemanticError, desugar,
                     parse_file)
from .pekb import PEKB, closure, entails, is_consistent, prime
from .rml import RmlSyntaxError, format_rml, parse_rml

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_DIAGNOSTICS = 2
EXIT_UNSOLVABLE = 3
EXIT_PLANNER_FAILURE = 4
EXIT_WEAK_ONLY = 5
EXIT_INVALID = 6

PLANNER_CMD_ENV = 'PDKB_PLANNER_CMD'


def _info(message):
    click.echo(message, err=True)


FLAVORS = ('classical', 'fond', 'auto')


def _flavor(value):
    if value not in FLAVORS:
        raise ValueError(value)
    return value


# every config key: its parser and what the value must be
_CONFIG_TYPES = {'depth': (int, 'an integer'),
                 'max_states': (int, 'an integer'),
                 'timeout': (float, 'a number'),
                 'flavor': (_flavor, 'classical, fond or auto'),
                 'planner_cmd': (str, 'text'),
                 'out': (str, 'text')}


def load_config(path):
    """key=value config lines; '#' starts a comment. A malformed line, an
    unknown key, a non-numeric depth, max_states or timeout, or an unknown
    flavor is an input diagnostic."""
    config = {}
    if path is None:
        return config
    with open(path, encoding='utf-8') as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            if '=' not in line:
                sys.exit(_diagnose('%s:%d: expected key=value'
                                   % (path, lineno)))
            key, value = (part.strip() for part in line.split('=', 1))
            if key not in _CONFIG_TYPES:
                sys.exit(_diagnose('%s:%d: unknown key %r'
                                   % (path, lineno, key)))
            parse, kind = _CONFIG_TYPES[key]
            try:
                config[key] = parse(value)
            except ValueError:
                sys.exit(_diagnose('%s:%d: %s must be %s, not %r'
                                   % (path, lineno, key, kind, value)))
    return config


def _effective(config, **flags):
    """Config file values overridden by flags, then by the environment."""
    merged = dict(config)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    env_cmd = os.environ.get(PLANNER_CMD_ENV)
    if env_cmd and not merged.get('planner_cmd'):
        merged['planner_cmd'] = env_cmd
    return merged


def _load_problem(path, depth_override=None):
    """Parse and desugar, translating failures into exit-2 diagnostics."""
    try:
        problem = desugar(parse_file(path))
    except (ParseError, IncludeCycle, RmlSyntaxError) as exc:
        raise SystemExit(_diagnose(str(exc)))
    except SemanticError as exc:
        for diag in exc.diagnostics:
            _info(str(diag))
        raise SystemExit(EXIT_DIAGNOSTICS)
    if depth_override is not None:
        problem.depth = int(depth_override)
    diagnostics = validate_model(problem)
    errors = [d for d in diagnostics if d.is_error]
    for diag in diagnostics:
        _info(str(diag))
    if errors:
        raise SystemExit(EXIT_DIAGNOSTICS)
    return problem


def _diagnose(message):
    _info('error: %s' % message)
    return EXIT_DIAGNOSTICS


def _write_json(path, payload):
    with open(path, 'w', encoding='utf-8') as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write('\n')


def _compile(problem, flavor):
    report = GroundingReport()
    actions = ground(problem, report)
    cp = compile_problem(problem, actions,
                         flavor=None if flavor in (None, 'auto') else flavor,
                         truncated_ground=report.truncated_effects)
    return actions, cp


def _load_pekb(path):
    rmls = []
    with open(path, encoding='utf-8') as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            try:
                rmls.append(parse_rml(line))
            except RmlSyntaxError as exc:
                sys.exit(_diagnose('%s:%d: %s' % (path, lineno, exc)))
    return PEKB(rmls)


def _state_diff(prev, cur):
    return {
        'added': [format_rml(r) for r in sorted(cur.rmls - prev.rmls)],
        'removed': [format_rml(r) for r in sorted(prev.rmls - cur.rmls)],
    }


def _trajectory_payload(traj):
    if traj is None:
        return None
    steps = []
    for i, action in enumerate(traj.actions):
        steps.append({
            'action': action.label,
            'diff': _state_diff(traj.states[i], traj.states[i + 1]),
        })
    return {'steps': steps, 'failure': traj.failure}


@click.group()
def main():
    """Nested-belief planning: compile, solve, and validate."""


_common = [
    click.option('--config', 'config_path', type=click.Path(exists=True),
                 default=None, help='key=value config file'),
    click.option('--depth-override', type=int, default=None),
    click.option('--out', default=None, help='output directory'),
]


def _with_common(fn):
    for deco in reversed(_common):
        fn = deco(fn)
    return fn


@main.command('compile')
@click.argument('input_path', type=click.Path(exists=True))
@click.option('--flavor', type=click.Choice(FLAVORS), default=None)
@_with_common
def cmd_compile(input_path, flavor, config_path, depth_override, out):
    """Compile a .pdkbddl problem to classical/FOND PDDL artifacts."""
    config = _effective(load_config(config_path), flavor=flavor,
                        depth=depth_override, out=out)
    problem = _load_problem(input_path, config.get('depth'))
    _, cp = _compile(problem, config.get('flavor'))
    out_dir = config.get('out') or '%s-out' % os.path.splitext(input_path)[0]
    emit_pddl(cp, out_dir, problem.domain_name, problem.problem_name)
    _info('compiled %s: %d fluents, %d operators (%s) -> %s'
          % (problem.problem_name, len(cp.fluents), len(cp.operators),
             cp.flavor, out_dir))
    sys.exit(EXIT_OK)


@main.command('solve')
@click.argument('input_path', type=click.Path(exists=True))
@click.option('--flavor', type=click.Choice(FLAVORS), default=None)
@click.option('--planner-cmd', default=None,
              help='external planner template with {domain} {problem} '
                   '{plan}')
@click.option('--timeout', type=float, default=None,
              help='external planner timeout in seconds')
@click.option('--max-states', type=int, default=None)
@click.option('--acyclic-only', is_flag=True, default=False)
@_with_common
def cmd_solve(input_path, flavor, planner_cmd, timeout, max_states,
              acyclic_only, config_path, depth_override, out):
    """Compile and solve; the plan is validated semantically before
    success is reported."""
    config = _effective(load_config(config_path), flavor=flavor,
                        planner_cmd=planner_cmd, timeout=timeout,
                        max_states=max_states, depth=depth_override,
                        out=out)
    problem = _load_problem(input_path, config.get('depth'))
    actions, cp = _compile(problem, config.get('flavor'))
    out_dir = config.get('out') or '%s-out' % os.path.splitext(input_path)[0]
    os.makedirs(out_dir, exist_ok=True)
    report = {'version': 1, 'problem': problem.problem_name,
              'flavor': cp.flavor, 'fluents': len(cp.fluents),
              'operators': len(cp.operators)}
    message, code = _solve(report, problem, actions, cp, config, out_dir,
                           acyclic_only)
    _write_json(os.path.join(out_dir, 'solve-report.json'), report)
    _info(message)
    sys.exit(code)


def _solve(report, problem, actions, cp, config, out_dir, acyclic_only):
    """Search, verify the plan or policy semantically and write it to
    ``out_dir``; fills ``report`` and returns the summary line and the
    exit code."""
    cap = config.get('max_states')
    if cap is None:
        cap = planner_mod.DEFAULT_STATE_CAP
    started = time.perf_counter()
    template = config.get('planner_cmd')
    stats = {}
    try:
        if template:
            report['solver'] = 'external'
            plan = planner_mod.solve_external(
                cp, template, timeout=config.get('timeout'),
                domain_name=problem.domain_name,
                problem_name=problem.problem_name)
            policy = None
        elif cp.flavor == FOND:
            report['solver'] = 'and-or'
            policy = planner_mod.solve_andor(cp, max_states=cap,
                                             acyclic_only=acyclic_only,
                                             stats=stats)
            plan = None
        else:
            report['solver'] = 'bfs'
            plan = planner_mod.solve_bfs(cp, max_states=cap, stats=stats)
            policy = None
    except (planner_mod.PlannerFailure, planner_mod.PlanParseError,
            planner_mod.PlanInvalid) as exc:
        report['error'] = str(exc)
        report['wall_time'] = time.perf_counter() - started
        return 'external planner failed: %s' % exc, EXIT_PLANNER_FAILURE
    except planner_mod.ResourceLimit as exc:
        report.update(_search_counts(exc.stats))
        report['error'] = str(exc)
        report['wall_time'] = time.perf_counter() - started
        return 'search limit hit: %s' % exc, EXIT_UNSOLVABLE
    report['wall_time'] = time.perf_counter() - started
    if report['solver'] != 'external':
        report.update(_search_counts(stats))

    if plan is None and policy is None:
        report['result'] = 'Unsolvable'
        return 'unsolvable: %s' % problem.problem_name, EXIT_UNSOLVABLE

    if plan is not None:
        report['result'] = 'plan'
        report['plan_length'] = len(plan)
        steps = [(op.name,) + op.args for op in plan]
        check = functools.partial(validator_mod.assess_plan, problem,
                                  plan=steps)
    else:
        report['result'] = 'policy'
        report['policy_classification'] = policy.classification
        report['policy_size'] = len(policy.mapping)
        check = functools.partial(validator_mod.verify_policy, problem,
                                  policy.mapping)
    started = time.perf_counter()
    try:
        verdict = check(ground_actions=actions).verdict
    except planner_mod.ResourceLimit as exc:
        report['error'] = str(exc)
        return 'validation limit hit: %s' % exc, EXIT_UNSOLVABLE
    finally:
        report['verify_time'] = time.perf_counter() - started
    report['verdict'] = verdict

    if plan is not None:
        with open(os.path.join(out_dir, 'plan.txt'), 'w',
                  encoding='utf-8') as handle:
            for op in plan:
                handle.write('%s\n' % op.label)
        return ('plan of length %d (%s) -> %s'
                % (len(plan), verdict, out_dir), _verdict_exit(verdict))

    payload = {'classification': policy.classification, 'states': []}
    for state in sorted(policy.mapping, key=sorted):
        payload['states'].append({
            'state': sorted(str(f) for f in state),
            'action': policy.mapping[state].label,
        })
    _write_json(os.path.join(out_dir, 'policy.json'), payload)
    return ('%s policy over %d states (%s) -> %s'
            % (policy.classification, len(policy.mapping), verdict,
               out_dir), _verdict_exit(verdict))


def _verdict_exit(verdict):
    """Exit code of a semantic verdict on a plan or a policy."""
    return {validator_mod.STRONG_VALID: EXIT_OK,
            validator_mod.WEAK_VALID: EXIT_WEAK_ONLY}.get(verdict,
                                                          EXIT_INVALID)


def _search_counts(stats):
    """Report fields of a search's ``stats``: the AND-OR search also
    reports its state-action pairs and strong-cyclic rounds."""
    counts = {'states_expanded': stats.get('expanded', 0),
              'states_generated': stats.get('states', 0)}
    counts.update((key, stats[key]) for key in ('edges', 'rounds')
                  if key in stats)
    return counts


@main.command('validate')
@click.argument('input_path', type=click.Path(exists=True))
@click.option('--plan', 'plan_path', type=click.Path(exists=True),
              default=None, help='plan file overriding the (:plan) block')
@_with_common
def cmd_validate(input_path, plan_path, config_path, depth_override, out):
    """Assess a plan against the goal by semantic progression."""
    config = _effective(load_config(config_path), depth=depth_override,
                        out=out)
    problem = _load_problem(input_path, config.get('depth'))
    actions = ground(problem)
    plan = None
    if plan_path is not None:
        with open(plan_path, encoding='utf-8') as handle:
            try:
                plan = planner_mod.parse_plan_file(handle.read(), actions)
            except planner_mod.PlanParseError as exc:
                sys.exit(_diagnose('%s: %s' % (plan_path, exc)))
    elif problem.plan is None:
        sys.exit(_diagnose('assessment requires a (:plan ...) block or '
                           '--plan file'))
    try:
        result = validator_mod.assess_plan(problem, plan=plan,
                                           ground_actions=actions)
    except validator_mod.UnknownAction as exc:
        sys.exit(_diagnose(str(exc)))
    except planner_mod.ResourceLimit as exc:
        _info('error: validation limit hit: %s' % exc)
        sys.exit(EXIT_UNSOLVABLE)
    payload = {
        'version': 1,
        'problem': problem.problem_name,
        'verdict': result.verdict,
        'trajectories': result.trajectories,
        'witness': _trajectory_payload(result.witness),
    }
    if config.get('out'):
        os.makedirs(config['out'], exist_ok=True)
        _write_json(os.path.join(config['out'], 'validate-report.json'),
                    payload)
    else:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    _info('verdict: %s' % result.verdict)
    sys.exit(_verdict_exit(result.verdict))


@main.command('query')
@click.argument('state_path', type=click.Path(exists=True))
@click.argument('query_text')
def cmd_query(state_path, query_text):
    """Does the belief-base file entail the query (a comma-separated RML
    conjunction)? Prints true/false; exit 0/1, or 2 on a syntax error."""
    base = _load_pekb(state_path)
    try:
        rmls = [parse_rml(part) for part in query_text.split(',')
                if part.strip()]
    except RmlSyntaxError as exc:
        sys.exit(_diagnose(str(exc)))
    if not is_consistent(base):
        sys.exit(_diagnose('belief base is inconsistent'))
    verdict = entails(base, rmls)
    click.echo('true' if verdict else 'false')
    sys.exit(EXIT_OK if verdict else EXIT_FALSE)


@main.command('closure')
@click.argument('state_path', type=click.Path(exists=True))
@click.option('--prime', 'prime_form', is_flag=True, default=False,
              help='print the reduced (prime) form instead')
def cmd_closure(state_path, prime_form):
    """Print the deductive closure of a belief-base file, one RML per
    line."""
    base = _load_pekb(state_path)
    result = prime(closure(base)) if prime_form else closure(base)
    for rml in sorted(result.rmls):
        click.echo(format_rml(rml))
    sys.exit(EXIT_OK)


if __name__ == '__main__':
    main()
