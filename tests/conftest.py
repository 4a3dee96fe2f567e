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


@pytest.fixture
def chain_problem(tmp_path):
    """Writes a FOND walk along n always-known stations s0 .. s(n-1), where
    each step either moves on or leaves the state as it was, and returns
    its path."""
    def write(n):
        steps = ''.join(
            '  (:action go%d :derive-condition never :precondition (s%d)\n'
            '    :effect (oneof (and (!s%d) (s%d)) (and)))\n'
            % (i, i, i, i + 1) for i in range(n - 1))
        path = tmp_path / ('chain-%d.pdkbddl' % n)
        path.write_text(
            '(define (domain chain) (:agents a)\n  (:predicates %s)\n%s)\n'
            '(define (problem walk) (:domain chain) (:depth 1)\n'
            '  (:task valid_generation) (:init-type complete) (:init (s0))\n'
            '  (:goal (s%d)))\n'
            % (' '.join('{AK}(s%d)' % i for i in range(n)), steps, n - 1),
            encoding='utf-8')
        return str(path)
    return write
