"""Problem files shared by several test modules."""

import os
import re

import pytest

BENCH = os.path.join(os.path.dirname(__file__), '..', 'benchmarks')


@pytest.fixture
def long_coin_plan(tmp_path):
    """misc/coin with a flip that always lands heads, assessed on a plan of
    1,200 flips: longer than the interpreter's recursion limit."""
    with open(os.path.join(BENCH, 'misc', 'coin.pdkbddl'),
              encoding='utf-8') as handle:
        text = handle.read()
    text, n = re.subn(r'\(oneof \(and \(heads\)\)\s*\(and \(!heads\)\)\)',
                      '(heads)', text)
    assert n == 1
    text = text.replace('valid_generation', 'valid_assessment')
    text = text.replace('(:goal (heads))',
                        '(:goal (heads))\n    (:plan %s)' % ('(flip) ' * 1200))
    path = tmp_path / 'coin-1200.pdkbddl'
    path.write_text(text, encoding='utf-8')
    return str(path)
