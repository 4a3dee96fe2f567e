"""Seeded generator of lossy-gossip FOND problems.

Each instance is a 3-agent grapevine over a corridor of locations in
which sharing a secret is nondeterministic: ``share`` either informs every
listener at the location or has no effect at all (a lost message). The
seed picks where the agents start and which two beliefs the goal asks
for; the toolchain receives only the generated ``.pdkbddl`` text.

Why these sizes: the AND-OR search builds the whole reachable graph, so
the location count sets the work (2 / 3 / 4 locations take roughly 0.3 /
1.2 / 3.2 s of search on one vCPU of a 2-vCPU virtual machine). Three
agents keep the largest instance near 200 MiB of peak memory; four
agents have been observed to exhaust 3 GB.

Run directly to write one seed's instances for inspection:
    python3 perfbench/lossy_gossip.py --seed 1 --out some/dir
"""

import argparse
import os
import random

AGENTS = ('a', 'b', 'c')
LOCATION_COUNTS = (2, 3, 4)

_TEMPLATE = """\
(define (domain lossy-grapevine)
    (:agents {agents})
    (:types loc)
    (:predicates
            (secret ?agent)
        {{AK}}(at ?agent - agent ?l - loc)
        {{AK}}(connected ?l1 ?l2 - loc)
        {{AK}}(initialized)
    )

    (:action move
        :derive-condition   always
        :parameters         (?a - agent ?l1 ?l2 - loc)
        :precondition       (and (at ?a ?l1) (connected ?l1 ?l2)
                                 (initialized))
        :effect             (and (at ?a ?l2) (!at ?a ?l1))
    )

    ; the message either reaches every listener here or is lost
    (:action share
        :derive-condition   (at $agent$ ?l)
        :parameters         (?a ?as - agent ?l - loc)
        :precondition       (and (at ?a ?l) (initialized)
                                 [?a](secret ?as))
        :effect             (oneof
                                (and (forall ?a2 - agent
                                        (when (and (at ?a2 ?l)
                                                   <?a2>(secret ?as))
                                              [?a2](secret ?as))))
                                (and))
    )

    (:action initialize
        :derive-condition   never
        :precondition       (and)
        :effect             (and (initialized)
                                 (forall ?ag - agent [?ag](secret ?ag)))
    )
)

(define (problem {name})
    (:domain lossy-grapevine)
    (:objects {locations} - loc)
    (:depth 1)
    (:task valid_generation)
    (:init-type complete)
    (:init
        {connections}
        {placement}
        (forall ?ag - agent
          (forall ?s - agent
            (and <?ag>(secret ?s) <?ag>(!secret ?s))))
    )
    (:goal {goal})
)
"""


def instance(rng, n_locations):
    """(name, text) of one instance drawn from ``rng``."""
    locations = ['l%d' % i for i in range(1, n_locations + 1)]
    connections = []
    for here, there in zip(locations, locations[1:]):
        connections += ['(connected %s %s)' % (here, there),
                        '(connected %s %s)' % (there, here)]
    placement = ['(at %s %s)' % (agent, rng.choice(locations))
                 for agent in AGENTS]
    # beliefs about another agent's secret: never true initially, and
    # reachable only through at least one successful share
    pairs = [(who, whose) for who in AGENTS for whose in AGENTS
             if who != whose]
    goal = ['[%s](secret %s)' % pair for pair in rng.sample(pairs, 2)]
    name = 'lossy-3ag-%dl' % n_locations
    return name, _TEMPLATE.format(
        agents=' '.join(AGENTS), name=name, locations=' '.join(locations),
        connections='\n        '.join(connections),
        placement='\n        '.join(placement), goal=' '.join(goal))


def generate(seed):
    """One instance per location count, all drawn from ``seed``."""
    rng = random.Random(seed)
    return [instance(rng, n) for n in LOCATION_COUNTS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--out', required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, text in generate(args.seed):
        with open(os.path.join(args.out, name + '.pdkbddl'), 'w',
                  encoding='utf-8') as handle:
            handle.write(text)


if __name__ == '__main__':
    main()
