"""Planning with uncertain outcomes.

Two small nondeterministic domains. Asking about the weather splits the
world into two belief states, and a branching policy handles both, so
the solution is classified Strong. A coin flip can land badly forever,
so the best retry policy is only StrongCyclic: it succeeds under the
fairness assumption that every outcome eventually occurs. Each policy
is checked against the semantic model; the demo exits non-zero unless
both verify StrongValid.
"""

import os
import sys

from pdkb.compiler import compile_problem
from pdkb.model import ground
from pdkb.parser import desugar, parse_file
from pdkb.planner import solve_andor
from pdkb.validator import STRONG_VALID, verify_policy

BENCH = os.path.join(os.path.dirname(__file__), '..', 'benchmarks')

for name in ('ask', 'coin'):
    prob = desugar(parse_file(os.path.join(BENCH, 'misc',
                                           name + '.pdkbddl')))
    cp = compile_problem(prob, ground(prob))
    policy = solve_andor(cp)
    print('%s: policy over %d states, classified %s'
          % (name, len(policy.mapping), policy.classification))
    verdict = verify_policy(prob, policy.mapping).verdict
    print('    semantic verification:', verdict)
    if verdict != STRONG_VALID:
        sys.exit('%s: the policy verifies %s, not %s'
                 % (name, verdict, STRONG_VALID))
    if name == 'coin':
        print('    (an acyclic-only search finds nothing:',
              solve_andor(cp, acyclic_only=True), ')')
