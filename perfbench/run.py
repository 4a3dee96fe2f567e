"""Benchmark of the pdkb toolchain. Run from the repository root:

    python3 perfbench/run.py --workload gossip-solve-d1 --seed 1 \\
        --seconds 35 --trace 0

The workload's batch of problems runs closed-loop in this one process,
one problem after another, until the next batch would overrun
``--seconds`` (at least one batch). With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced batches, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.
Human-readable lines come first; the last line of standard output is one
JSON object with the result. See README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from spans import NoTrace, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, 'src')
SETUP_REPEATS = 11

END_TO_END = [('setup_s', 's'), ('wall_s', 's'), ('peak_rss_mb', 'MiB'),
              ('solved_frac', 'fraction'), ('pddl_bytes', 'bytes')]

TIMED_LAYER = ['parser.parse', 'parser.desugar', 'model.ground',
               'compiler.compile', 'compiler.emit', 'planner.search',
               'validator.assess', 'validator.key', 'validator.verify']
COUNTED_LAYER = ['model.ground_actions', 'compiler.fluents',
                 'compiler.operators', 'compiler.effects',
                 'compiler.spawned', 'compiler.pruned', 'compiler.truncated',
                 'planner.expanded', 'planner.generated',
                 'planner.policy_states', 'validator.verify_states']
LAYERS = ['parser', 'model', 'compiler', 'planner', 'validator', 'bench']
PER_LAYER = (
    [(name + '_s', 's') for name in TIMED_LAYER]
    + [(name, 'count') for name in COUNTED_LAYER]
    + [(layer + '.self_s', 's') for layer in LAYERS]
    + [('planner.states_per_s', '1/s'), ('validator.verdict_ok', 'fraction'),
       ('trace.wall_s', 's'), ('trace.overhead_s', 's'),
       ('trace.batches', 'count')])


def _fail(message):
    print('error: %s' % message, file=sys.stderr)
    sys.exit(2)


def load_workloads():
    """Import pdkb from this checkout's ``src`` and nowhere else, then the
    workloads that call it."""
    for needed in ('src/pdkb/__init__.py', 'benchmarks/grapevine',
                   'benchmarks/misc'):
        if not os.path.exists(os.path.join(ROOT, needed)):
            _fail('%s not found; run from the repository root' % needed)
    sys.path.insert(0, SRC)
    import pdkb
    if os.path.dirname(os.path.abspath(pdkb.__file__)) != \
            os.path.join(SRC, 'pdkb'):
        _fail('pdkb imported from %s, not from %s' % (pdkb.__file__, SRC))
    import workloads
    return workloads.WORKLOADS


def measure_setup(repeats):
    """Wall times of fresh interpreters importing ``pdkb.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, '-c', 'import pdkb.cli']
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_batch(workload, tracer):
    """One timed batch, then its untimed checks: (batch, wall seconds)."""
    gc.collect()
    with tracer.span('bench.batch'):
        start = time.perf_counter()
        batch, outputs = workload.run(tracer)
        wall = time.perf_counter() - start
    workload.check(batch, outputs)
    return batch, wall


def run_loop(seconds, one_round):
    """Call ``one_round`` until the next round would overrun ``seconds``,
    judged by the median round so far; always at least one round."""
    start = time.perf_counter()
    durations = []
    results = []
    while True:
        began = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def end_to_end(workload, seconds):
    """End-to-end metrics with tracing off: (batches, metric values)."""
    # one untimed import fills the bytecode cache; the timed imports are
    # split around the batches so that they sample the machine twice
    measure_setup(1)
    setup = measure_setup(SETUP_REPEATS // 2 + 1)
    runs = run_loop(seconds, lambda: run_batch(workload, NoTrace()))
    setup += measure_setup(SETUP_REPEATS // 2)
    batches = [batch for batch, _ in runs]
    attempted = sum(b.attempted for b in batches)
    metrics = {
        'setup_s': statistics.median(setup),
        'wall_s': statistics.median(wall for _, wall in runs),
        'peak_rss_mb': resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        'solved_frac': (attempted - sum(b.failed for b in batches))
                       / attempted,
        'pddl_bytes': workload.pddl_bytes,
    }
    print('wall_s is the median of %d batches' % len(runs))
    return batches, metrics


def per_layer(workload, seconds, spans_path):
    """Per-layer metrics from traced batches, each paired with an untraced
    one for the overhead: (batches, metric values)."""
    tracers = []

    def pair():
        tracer = Tracer()
        tracers.append(tracer)
        # alternate which side goes first, so that a slower first batch
        # does not read as tracing overhead
        if len(tracers) % 2:
            untraced = run_batch(workload, NoTrace())
            return untraced, run_batch(workload, tracer)
        traced = run_batch(workload, tracer)
        return run_batch(workload, NoTrace()), traced

    origin = time.perf_counter()
    pairs = run_loop(seconds, pair)
    traced = [batch for _, (batch, _) in pairs]
    totals = [tracer.totals() for tracer in tracers]
    metrics = {}
    for name in TIMED_LAYER:
        metrics[name + '_s'] = _median(d.get(name, 0.0) for d, _ in totals)
    for name in COUNTED_LAYER:
        metrics[name] = _median(b.counts[name] for b in traced)
    for layer in LAYERS:
        metrics[layer + '.self_s'] = _median(s.get(layer, 0.0)
                                             for _, s in totals)
    search = metrics['planner.search_s']
    metrics['planner.states_per_s'] = (
        metrics['planner.generated'] / search if search else 0.0)
    verdicts = [ok for b in traced for ok in b.verdicts]
    metrics['validator.verdict_ok'] = (sum(verdicts) / len(verdicts)
                                       if verdicts else 0.0)
    metrics['trace.wall_s'] = _median(wall for _, (_, wall) in pairs)
    metrics['trace.overhead_s'] = metrics['trace.wall_s'] - _median(
        wall for (_, wall), _ in pairs)
    metrics['trace.batches'] = len(pairs)

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, 'w', encoding='utf-8') as handle:
        json.dump([{'batch': i, 'spans': tracer.records(origin)}
                   for i, tracer in enumerate(tracers)], handle)
    print('spans written to %s' % os.path.relpath(spans_path, ROOT))
    return [b for p in pairs for b, _ in p], metrics


def _median(values):
    return statistics.median(list(values))


def main():
    parser = argparse.ArgumentParser(description='pdkb benchmark')
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = load_workloads()
    if args.workload not in workloads:
        _fail('unknown workload %r; choose from %s'
              % (args.workload, ', '.join(workloads)))
    workload = workloads[args.workload](args.seed)
    if args.trace:
        spans_path = os.path.join(ROOT, 'perfbench', 'out', 'spans-%s-seed%d'
                                  '.json' % (args.workload, args.seed))
        batches, values = per_layer(workload, args.seconds, spans_path)
        units = PER_LAYER
    else:
        batches, values = end_to_end(workload, args.seconds)
        units = END_TO_END
    wrong = [w for b in batches for w in b.wrong] + workload.finish()
    for message in wrong:
        print('wrong output: %s' % message, file=sys.stderr)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    print('%s: %d problems attempted, %d failed (failed_frac %.4f)'
          % (args.workload, attempted, failed, failed / attempted))
    for name, unit in units:
        print('  %-28s %16.6g %s' % (name, values[name], unit))
    print(json.dumps({
        'correct': not wrong,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': values[name], 'unit': unit}
                    for name, unit in units},
    }))


if __name__ == '__main__':
    main()
