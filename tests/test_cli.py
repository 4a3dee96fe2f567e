"""Exit codes of the pdkb command line."""

import json
import os

import pytest
from click.testing import CliRunner

from pdkb import planner as planner_mod
from pdkb.cli import EXIT_INVALID, EXIT_OK, EXIT_UNSOLVABLE, main

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')


def _solve_report(tmp_path, *parts):
    result = CliRunner().invoke(main, ['solve', os.path.join(BENCH, *parts),
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
    result = CliRunner().invoke(main, ['validate', str(problem)])
    assert result.exit_code == EXIT_UNSOLVABLE
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines()[-1].startswith('error: ')


def test_solve_past_the_state_cap_exits_unsolvable(tmp_path):
    problem = os.path.join(BENCH, 'grapevine', 'prob-4ag-2g-1d.pdkbddl')
    result = CliRunner().invoke(main, ['solve', problem, '--max-states', '5',
                                       '--out', str(tmp_path)])
    assert result.exit_code == EXIT_UNSOLVABLE
    assert isinstance(result.exception, SystemExit)
    with open(tmp_path / 'solve-report.json', encoding='utf-8') as handle:
        report = json.load(handle)
    assert 'state cap' in report['error']


def test_validate_a_plan_longer_than_the_recursion_limit(long_coin_plan):
    result = CliRunner().invoke(main, ['validate', long_coin_plan])
    assert result.exit_code == EXIT_OK


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


def test_solve_verifies_a_strong_cyclic_policy(tmp_path):
    result, report = _solve_report(tmp_path, 'misc', 'lossy-3ag-2l.pdkbddl')
    assert result.exit_code == EXIT_OK
    assert report['policy_classification'] == 'StrongCyclic'
    assert report['verdict'] == 'StrongValid'


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
