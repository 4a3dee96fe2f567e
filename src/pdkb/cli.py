"""Command-line entry point for the nested-belief planning pipeline.

Subcommands: compile, solve, validate, query, closure. Machine-readable
output goes to files or stdout; human summaries go to stderr. Exit codes:
0 success, 1 false query, 2 input diagnostics or a usage error (an
unknown option or command, a missing file, a bad option value), 3
unsolvable or a resource cap hit, 4 external planner failure, 5
weakly-valid-only plan or policy, 6 invalid plan or policy.
"""

import argparse
import functools
import json
import os
import sys
import time

from . import planner as planner_mod
from . import validator as validator_mod
from .compiler import FOND, compile_problem, emit_pddl
from .model import GroundingReport, ground, validate_model
from .parser import (IncludeCycle, ParseError, SemanticError, desugar,
                     parse_file)
from .pekb import PEKB, InconsistentBase, closure, entails, prime
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
    print(message, file=sys.stderr)


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
    with open(path, encoding='utf-8') as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            if '=' not in line:
                raise SystemExit(_diagnose('%s:%d: expected key=value'
                                           % (path, lineno)))
            key, value = (part.strip() for part in line.split('=', 1))
            if key not in _CONFIG_TYPES:
                raise SystemExit(_diagnose('%s:%d: unknown key %r'
                                           % (path, lineno, key)))
            parse, kind = _CONFIG_TYPES[key]
            try:
                config[key] = parse(value)
            except ValueError:
                raise SystemExit(_diagnose('%s:%d: %s must be %s, not %r' % (
                    path, lineno, key, kind, value)))
    return config


def _effective(config_path, flags):
    """The config file's values overridden by the flags that are set; the
    environment's planner command applies only when neither sets one."""
    config = load_config(config_path) if config_path else {}
    config.update((key, value) for key, value in flags.items()
                  if value is not None)
    env_cmd = os.environ.get(PLANNER_CMD_ENV)
    if env_cmd and not config.get('planner_cmd'):
        config['planner_cmd'] = env_cmd
    return config


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
    for diag in diagnostics:
        _info(str(diag))
    if any(d.is_error for d in diagnostics):
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
                raise SystemExit(_diagnose('%s:%d: %s'
                                           % (path, lineno, exc)))
    return PEKB(rmls)


def _state_diff(prev, cur):
    return {
        'added': [format_rml(r) for r in sorted(cur.rmls - prev.rmls)],
        'removed': [format_rml(r) for r in sorted(prev.rmls - cur.rmls)],
    }


def _trajectory_payload(traj):
    if traj is None:
        return None
    steps = [{'action': action.label, 'diff': _state_diff(prev, cur)}
             for action, prev, cur in zip(traj.actions, traj.states,
                                          traj.states[1:])]
    return {'steps': steps, 'failure': traj.failure}


def cmd_compile(input_path, config):
    """Compile a .pdkbddl problem to classical/FOND PDDL artifacts."""
    problem = _load_problem(input_path, config.get('depth'))
    _, cp = _compile(problem, config.get('flavor'))
    out_dir = config.get('out') or '%s-out' % os.path.splitext(input_path)[0]
    emit_pddl(cp, out_dir, problem.domain_name, problem.problem_name)
    _info('compiled %s: %d fluents, %d operators (%s) -> %s'
          % (problem.problem_name, len(cp.fluents), len(cp.operators),
             cp.flavor, out_dir))
    return EXIT_OK


def cmd_solve(input_path, acyclic_only, config):
    """Compile and solve; the plan is validated semantically before
    success is reported."""
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
    return code


def _solve(report, problem, actions, cp, config, out_dir, acyclic_only):
    """Search, verify the plan or policy semantically and write it to
    ``out_dir``; fills ``report`` and returns the summary line and the
    exit code."""
    cap = config.get('max_states', planner_mod.DEFAULT_STATE_CAP)
    started = time.perf_counter()
    template = config.get('planner_cmd')
    stats = {}
    plan = policy = None
    try:
        if template:
            report['solver'] = 'external'
            plan = planner_mod.solve_external(
                cp, template, timeout=config.get('timeout'),
                domain_name=problem.domain_name,
                problem_name=problem.problem_name)
        elif cp.flavor == FOND:
            report['solver'] = 'and-or'
            policy = planner_mod.solve_andor(cp, max_states=cap,
                                             acyclic_only=acyclic_only,
                                             stats=stats)
        else:
            report['solver'] = 'bfs'
            plan = planner_mod.solve_bfs(cp, max_states=cap, stats=stats)
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
    """Report fields of a search's ``stats``: the classical search (A*
    with the goal-component bound; breadth-first when the goal is one
    group) also reports the operators it pruned and the goal groups of
    its bound, the AND-OR search its state-action pairs and strong-cyclic
    rounds."""
    counts = {'states_expanded': stats.get('expanded', 0),
              'states_generated': stats.get('states', 0)}
    counts.update((field, stats[key]) for key, field
                  in (('pruned', 'operators_pruned'),
                      ('components', 'goal_components'), ('edges', 'edges'),
                      ('rounds', 'rounds'))
                  if key in stats)
    return counts


def cmd_validate(input_path, plan_path, config):
    """Assess a plan against the goal by semantic progression."""
    problem = _load_problem(input_path, config.get('depth'))
    actions = ground(problem)
    plan = None
    if plan_path is not None:
        with open(plan_path, encoding='utf-8') as handle:
            try:
                plan = planner_mod.parse_plan_file(handle.read(), actions)
            except planner_mod.PlanParseError as exc:
                return _diagnose('%s: %s' % (plan_path, exc))
    elif problem.plan is None:
        return _diagnose('assessment requires a (:plan ...) block or '
                         '--plan file')
    try:
        result = validator_mod.assess_plan(problem, plan=plan,
                                           ground_actions=actions)
    except validator_mod.UnknownAction as exc:
        return _diagnose(str(exc))
    except planner_mod.ResourceLimit as exc:
        _info('error: validation limit hit: %s' % exc)
        return EXIT_UNSOLVABLE
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
        print(json.dumps(payload, indent=2, sort_keys=True))
    _info('verdict: %s' % result.verdict)
    return _verdict_exit(result.verdict)


def cmd_query(state_path, query_text):
    """Does the belief-base file entail the query (a comma-separated RML
    conjunction)? Prints true/false; exit 0/1, or 2 on a syntax error."""
    base = _load_pekb(state_path)
    try:
        rmls = [parse_rml(part) for part in query_text.split(',')
                if part.strip()]
    except RmlSyntaxError as exc:
        return _diagnose(str(exc))
    try:
        verdict = entails(base, rmls)
    except InconsistentBase:
        return _diagnose('belief base is inconsistent')
    print('true' if verdict else 'false')
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_closure(state_path, prime_form):
    """Print a belief-base file's deductive closure, one RML per line."""
    base = _load_pekb(state_path)
    result = prime(closure(base)) if prime_form else closure(base)
    for rml in sorted(result.rmls):
        print(format_rml(rml))
    return EXIT_OK


def _existing(path):
    """Type of a path argument: a missing path is a usage error."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError("'%s' does not exist" % path)
    return path


def _parser():
    """One subparser per command; compile, solve and validate share their
    input path and three flags through one parent parser."""
    helpful = argparse.ArgumentParser(add_help=False)
    helpful.add_argument('--help', action='help',
                         help='show this message and exit')
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('input_path', type=_existing)
    common.add_argument('--config', dest='config_path', metavar='FILE',
                        type=_existing, help='key=value config file')
    common.add_argument('--depth-override', dest='depth', type=int)
    common.add_argument('--out', help='output directory')
    parser = argparse.ArgumentParser(prog='pdkb', description=main.__doc__,
                                     parents=[helpful], add_help=False,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(metavar='COMMAND', required=True)

    def command(name, run, *parents):
        sub = commands.add_parser(name, parents=(helpful,) + parents,
                                  help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    sub = command('compile', cmd_compile, common)
    sub.add_argument('--flavor', choices=FLAVORS)
    sub = command('solve', cmd_solve, common)
    sub.add_argument('--flavor', choices=FLAVORS)
    sub.add_argument('--planner-cmd', help='external planner template with '
                     '{domain} {problem} {plan}')
    sub.add_argument('--timeout', type=float,
                     help='external planner timeout in seconds')
    sub.add_argument('--max-states', type=int)
    sub.add_argument('--acyclic-only', action='store_true')
    sub = command('validate', cmd_validate, common)
    sub.add_argument('--plan', dest='plan_path', metavar='FILE',
                     type=_existing,
                     help='plan file overriding the (:plan) block')
    sub = command('query', cmd_query)
    sub.add_argument('state_path', type=_existing)
    sub.add_argument('query_text')
    sub = command('closure', cmd_closure)
    sub.add_argument('state_path', type=_existing)
    sub.add_argument('--prime', dest='prime_form', action='store_true',
                     help='print the reduced (prime) form instead')
    return parser


def main(argv=None):
    """Nested-belief planning: compile, solve, and validate."""
    args = vars(_parser().parse_args(argv))
    run = args.pop('run')
    if 'config_path' in args:
        flags = {key: args.pop(key) for key in _CONFIG_TYPES if key in args}
        args['config'] = _effective(args.pop('config_path'), flags)
    sys.exit(run(**args))


if __name__ == '__main__':
    main()
