"""The demos run to completion against the checkout's sources."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), '..')
DEMOS = os.path.join(ROOT, 'demos')


@pytest.mark.parametrize('name', sorted(
    name for name in os.listdir(DEMOS) if name.endswith(('.py', '.sh'))))
def test_demo_exits_0(name):
    path = os.path.join(DEMOS, name)
    command = [sys.executable if name.endswith('.py') else 'sh', path]
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [os.path.join(ROOT, 'src')]
        + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
