"""Parser and problem-model behavior on the benchmark corpus."""

import bisect
import glob
import hashlib
import os
import re

import pytest

from pdkb import parser
from pdkb.model import ALWAYS, GroundingReport, ground, validate_model
from pdkb.parser import (IncludeCycle, ParseError, SemanticError, desugar,
                         parse_file, parse_text, tokenize)
from pdkb.pekb import PEKB, closure
from pdkb.rml import BELIEF, POSSIBLE, format_rml, lit, parse_rml

import test_cli
from test_compiler import benchmark_problems, lossy_gossip_texts

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, '..', 'benchmarks')


def bench(*parts):
    return os.path.join(BENCH, *parts)


def load(*parts):
    return desugar(parse_file(bench(*parts)))


ALL_BENCHMARKS = [
    ('grapevine', 'prob-4ag-2g-2d.pdkbddl'),
    ('grapevine', 'prob-4ag-2g-1d.pdkbddl'),
    ('grapevine', 'prob-4ag-4g-1d.pdkbddl'),
    ('grapevine', 'prob-4ag-8g-1d.pdkbddl'),
    ('envelope', 'envelope.pdkbddl'),
    ('envelope', 'envelope-reversed.pdkbddl'),
    ('misc', 'negation-removal.pdkbddl'),
    ('misc', 'coin.pdkbddl'),
    ('misc', 'ask.pdkbddl'),
    ('misc', 'unsolvable.pdkbddl'),
]


# ---------------------------------------------------------------------------
# parsing


def pretty_print(ast):
    """Serialize back to parseable text (canonical layout)."""
    def emit(node):
        if isinstance(node, list):
            text = ' '.join(emit(x) for x in node)
            # markers folded with the element they prefix: no parentheses
            if node and getattr(node[0], 'kind', None) in ('modal', 'ak'):
                return text
            return '(%s)' % text
        if node.kind == 'modal':
            mode, agent = node.value
            return '[%s]' % agent if mode == BELIEF else '<%s>' % agent
        if node.kind == 'ak':
            return '{AK}'
        return node.value
    return '\n'.join('(%s)' % ' '.join(emit(x) for x in unit)
                     for unit in ast.units)


def signature(ast):
    """Position-free structural form, for round-trip comparison."""
    def strip(node):
        if isinstance(node, list):
            return tuple(strip(x) for x in node)
        return (node.kind, node.value)
    return tuple(strip(u) for u in ast.units)


@pytest.mark.parametrize('parts', ALL_BENCHMARKS, ids=lambda p: p[-1])
def test_round_trip(parts):
    ast = parse_file(bench(*parts))
    again = parse_text(pretty_print(ast))
    assert signature(ast) == signature(again)


def test_include_cycle_detected(tmp_path):
    a = tmp_path / 'a.pdkbddl'
    b = tmp_path / 'b.pdkbddl'
    a.write_text('{include:b.pdkbddl}\n')
    b.write_text('{include:a.pdkbddl}\n')
    with pytest.raises(IncludeCycle):
        parse_file(str(a))


def test_include_splices_relative_to_file(tmp_path):
    sub = tmp_path / 'sub'
    sub.mkdir()
    (sub / 'inner.pdkbddl').write_text('(:depth 1)')
    (tmp_path / 'outer.pdkbddl').write_text(
        '(define (problem p) (:domain d) {include:sub/inner.pdkbddl} '
        '(:task valid_generation) (:init-type complete) (:init ) '
        '(:goal (g)))')
    ast = parse_file(str(tmp_path / 'outer.pdkbddl'))
    assert '(:depth 1)' in pretty_print(ast)


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        parse_text('(define (domain d) (:agents a) (:predicates (p))')


# ---------------------------------------------------------------------------
# the scanner, against one that works out every token's position as it
# scans: the scanner this one replaced


_REFERENCE_RE = re.compile(r"""
      (?P<comment> ;[^\n]* )
    | (?P<lp> \( )
    | (?P<rp> \) )
    | (?P<modal> \[[^\]]*\] | <[^>]*> )
    | (?P<marker> \{[^}]*\} )
    | (?P<sym> [^\s()\[\]<>{};]+ )
    | (?P<unterminated> [\[<{] )
    | (?P<unexpected> \S )
""", re.VERBOSE)


def reference_scan(text, filename):
    """Every token's ``(kind, value, pos)``, or the message of the
    ``ParseError`` that the scan raises."""
    line_starts = [0] + [m.end() for m in re.finditer('\n', text)]
    tokens = []
    for match in _REFERENCE_RE.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == 'comment':
            continue
        offset = match.start()
        line = bisect.bisect(line_starts, offset)
        pos = (filename, line, offset - line_starts[line - 1])
        if kind in ('sym', 'lp', 'rp'):
            tokens.append((kind, word.lower(), pos))
        elif kind == 'modal':
            name = word[1:-1].strip().lower()
            if not name:
                return str(ParseError('empty belief marker', pos))
            mode = BELIEF if word[0] == '[' else POSSIBLE
            tokens.append((kind, (mode, name), pos))
        elif kind == 'marker':
            if word.lower() == '{ak}':
                tokens.append(('ak', word, pos))
            elif word.lower().startswith('{include:'):
                tokens.append(('include', word[9:-1].strip(), pos))
            else:
                return str(ParseError('unknown marker %s' % word, pos))
        elif word == '{':
            return str(ParseError('unterminated { marker', pos))
        elif kind == 'unterminated':
            return str(ParseError('unterminated %r belief marker' % word,
                                  pos))
        else:
            return str(ParseError('unexpected character %r' % word, pos))
    return tokens


def scan(text, filename):
    try:
        return [(t.kind, t.value, t.pos) for t in tokenize(text, filename)]
    except ParseError as exc:
        return str(exc)


def source_texts(module):
    """The module's constant source texts, templates included, and the
    ``text`` argument of every parametrized case in it."""
    texts = [value for name, value in sorted(vars(module).items())
             if name.isupper() and isinstance(value, str)
             and '(define' in value]
    for test in vars(module).values():
        for mark in getattr(test, 'pytestmark', ()):
            names = [n.strip() for n in mark.args[0].split(',')] \
                if mark.name == 'parametrize' else []
            if 'text' in names:
                i = names.index('text')
                texts += [case[i] if len(names) > 1 else case
                          for case in mark.args[1]]
    return texts


BENCHMARK_FILES = sorted(glob.glob(os.path.join(BENCH, '*', '*.pdkbddl')))

# the malformed inputs of this module, written out, edge cases of the
# scanner, and every source text of the command-line tests
SCANNED = [
    '(define (domain d) (:agents a) (:predicates (p))',
    '{include:b.pdkbddl}\n', '(define (domain x))\n)',
    '(define (domain d) (:agents a) (:predicates (p))\n'
    '  (:action a :effect (p))))\n',
    # blanks and comments at the edges, other line ends, other blanks
    '', '  \n\t ', '; only a comment', '(p) ; no line end',
    '(define\r\n  (domain d))\r\n', '(p)\f\v\u00a0\u2003(q)\n\n  ',
    '\n\n   ] (p)', '(p)\n  {AK', '(p)\n\n    <a (q)',
] + [text + '\n' for text in source_texts(test_cli)]


@pytest.mark.parametrize('path', BENCHMARK_FILES,
                         ids=lambda p: os.path.basename(p))
def test_benchmark_tokens_are_positioned_as_scanned_eagerly(path):
    with open(path, encoding='utf-8') as handle:
        text = handle.read()
    expected = reference_scan(text, path)
    assert isinstance(expected, list) and expected
    assert scan(text, path) == expected


@pytest.mark.parametrize('text', SCANNED)
def test_test_inputs_are_positioned_as_scanned_eagerly(text):
    assert scan(text, 'bad.pdkbddl') == reference_scan(text, 'bad.pdkbddl')


@pytest.mark.parametrize('text', SCANNED + [
    pytest.param('(p)' + ' ' * 100000, id='trailing-blanks')])
def test_the_scan_never_retries_at_a_blank(text):
    # the pattern matches where its last match ended, so the scan never
    # retries from the next offset; one that failed after trailing blanks
    # would retry from each of them, in time quadratic in their number
    end = 0
    while end < len(text):
        match = parser._TOKEN_RE.match(text, end)
        assert match is not None and match.end() > end
        end = match.end()


def test_the_positioned_diagnostic_cases_are_among_the_scanned_inputs():
    [mark] = test_cli.test_malformed_input_is_a_positioned_diagnostic \
        .pytestmark
    assert {text + '\n' for text, _, _ in mark.args[1]} <= set(SCANNED)


def test_parsing_the_benchmarks_works_out_no_position(monkeypatch):
    # a position is worked out only for a diagnostic
    calls = []
    position = parser.Source.position

    def counted(self, offset):
        calls.append(offset)
        return position(self, offset)

    monkeypatch.setattr(parser.Source, 'position', counted)
    problems = benchmark_problems()
    for name in sorted(problems):
        problems[name]()
    assert len(problems) > 10
    assert calls == []
    with pytest.raises(ParseError, match=r'^stray\.pdkbddl:2:0: '
                                         r'unbalanced \)$'):
        parse_text('(define (domain x))\n)', 'stray.pdkbddl')
    assert len(calls) == 1


def test_a_stray_paren_in_an_included_file_is_named_in_that_file(tmp_path):
    domain = tmp_path / 'domain.pdkbddl'
    domain.write_text('(define (domain d) (:agents a) (:predicates (p))\n'
                      '  (:action act :effect (p))))\n')
    (tmp_path / 'problem.pdkbddl').write_text(
        '{include:domain.pdkbddl}\n'
        '(define (problem x) (:domain d) (:init ) (:goal (p)))\n')
    with pytest.raises(ParseError) as info:
        parse_file(str(tmp_path / 'problem.pdkbddl'))
    assert str(info.value) == '%s:2:28: unbalanced )' % domain


def test_comments_and_case_are_normalized():
    ast = parse_text('(DEFINE (Domain D) ; a comment\n (:AGENTS A B))')
    assert 'define' in pretty_print(ast)
    assert 'A' not in pretty_print(ast)


# ---------------------------------------------------------------------------
# desugaring


def test_envelope_problem_shape():
    prob = load('envelope', 'envelope.pdkbddl')
    assert prob.agents == ('alice', 'bob')
    assert prob.depth == 2
    assert prob.plan == (('check', 'bob'), ('check', 'alice'))
    assert prob.goal_pos == (parse_rml('B_bob B_alice secret'),)
    assert not prob.goal_neg


def test_envelope_initial_closure_has_13_rmls():
    prob = load('envelope', 'envelope.pdkbddl')
    assert len(closure(PEKB(prob.initial))) == 13


def test_grapevine_modal_goal():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    assert parse_rml('B_b B_c !secret(a)') in prob.goal_pos
    assert parse_rml('B_c secret(a)') in prob.goal_pos


def test_unsupported_init_type_is_rejected():
    text = """
    (define (domain d) (:agents a) (:predicates (p))
      (:action x :derive-condition never :precondition (and)
                 :effect (and (p))))
    (define (problem pr) (:domain d) (:depth 1)
      (:task valid_generation) (:init-type unknowns) (:init ) (:goal (p)))
    """
    with pytest.raises(SemanticError):
        desugar(parse_text(text))


def test_projection_yields_warning_not_error():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    diagnostics = validate_model(prob)
    assert any('projection' in d.message for d in diagnostics)
    assert not any(d.is_error for d in diagnostics)


def test_negated_belief_precondition_lands_on_the_negative_side():
    prob = load('misc', 'negation-removal.pdkbddl')
    check = [s for s in prob.schemas if s.name == 'check'][0]
    assert parse_rml('P_a !p') in check.precondition_neg


MARKED = """
(define (domain d) (:agents a) (:types loc) (:constants home - loc)
  (:predicates {AK}(lit) (p) (q))
  (:action act :precondition %s :effect %s))
(define (problem x) (:domain d) (:objects l1 - loc) (:init %s) (:goal (q)))
"""


def test_a_marker_prefixes_an_action_field_as_it_does_a_conjunct():
    bare = desugar(parse_text(MARKED % ('<a>(p)', '[a](q)', '')))
    wrapped = desugar(parse_text(MARKED % ('(and <a>(p))', '(and [a](q))',
                                           '')))
    (act,), (wrapped_act,) = bare.schemas, wrapped.schemas
    assert act.precondition_pos == (parse_rml('P_a p'),)
    assert repr(act.outcomes) == repr(wrapped_act.outcomes)
    assert act.outcomes[0][0].effect == parse_rml('B_a q')


def test_init_lowers_negated_always_known_atoms_and_reads_constants():
    prob = desugar(parse_text(MARKED % ('(p)', '(q)', '(p) (!lit)')))
    assert prob.initial == (parse_rml('p'),)
    assert prob.objects == (('home', 'loc'), ('l1', 'loc'))


# ---------------------------------------------------------------------------
# grounding


def test_grapevine_grounding_counts():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    actions = ground(prob)
    assert len(actions) == 133
    shares = [a for a in actions if a.name == 'share']
    assert len(shares) == 48


def test_share_awareness_and_effects():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    actions = {(a.name,) + a.args: a for a in ground(prob)}
    share = actions[('share', 'a', 'a', 'l1')]
    assert share.awareness == {ag: lit(parse_rml('at(%s,l1)' % ag).atom)
                               for ag in 'abcd'}
    assert len(share.outcomes) == 1
    assert len(share.outcomes[0]) == 4


def test_move_awareness_is_unconditional():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    actions = {(a.name,) + a.args: a for a in ground(prob)}
    move = actions[('move', 'a', 'l1', 'l2')]
    assert move.awareness == {ag: ALWAYS for ag in 'abcd'}
    # both effects touch always-known atoms
    assert all(not ce.effect.modalities for ce in move.outcomes[0])


def test_never_awareness_is_empty():
    prob = load('misc', 'coin.pdkbddl')
    (flip,) = ground(prob)
    assert flip.awareness == {}
    assert len(flip.outcomes) == 2


def test_grounding_is_deterministic():
    prob = load('grapevine', 'prob-4ag-2g-2d.pdkbddl')
    labels = [a.label for a in ground(prob)]
    assert labels == [a.label for a in ground(prob)]


def _ground_digest(prob):
    """sha256 over every ground action (name, args, preconditions,
    awareness and each outcome's effects in order), then the initial state
    and the goal."""
    def rmls(items):
        return sorted(format_rml(r) for r in items)

    digest = hashlib.sha256()
    for a in ground(prob):
        awareness = sorted((agent, cond if isinstance(cond, str)
                            else format_rml(cond))
                           for agent, cond in a.awareness.items())
        outcomes = [[(rmls(ce.condition_pos), rmls(ce.condition_neg),
                      format_rml(ce.effect), ce.delete) for ce in outcome]
                    for outcome in a.outcomes]
        digest.update(repr((a.name, a.args, rmls(a.precondition_pos),
                            rmls(a.precondition_neg), awareness,
                            outcomes)).encode())
        digest.update(b'\n')
    digest.update(repr((rmls(prob.initial), rmls(prob.goal_pos),
                        rmls(prob.goal_neg))).encode())
    return digest.hexdigest()


_LOSSY_GOSSIP = dict(lossy_gossip_texts())

# every problem under benchmarks/ and the generated lossy-gossip problems;
# envelope-reversed differs from envelope in its plan alone
GROUND_DIGESTS = {
    'envelope/envelope-reversed.pdkbddl':
        '6ce22b123884defcbfaaaa4f98e4ea30a841eed67016f53f8b0cb72befc2b1dc',
    'envelope/envelope.pdkbddl':
        '6ce22b123884defcbfaaaa4f98e4ea30a841eed67016f53f8b0cb72befc2b1dc',
    'grapevine/prob-4ag-2g-1d.pdkbddl':
        '0f6bbd5c8eb023db55e67f7d76e7c8a6ad5282b356219f45e84bcecdb039cef0',
    'grapevine/prob-4ag-2g-2d.pdkbddl':
        '2a37a2d7b8524e9b03ebc5c4ab0e415e7bb5dc62335cf6ec17c64c66426b90e2',
    'grapevine/prob-4ag-4g-1d.pdkbddl':
        '7d5315871ba1384ad9d200024a78cf027c00d9ead4454c15829b9580f1629553',
    'grapevine/prob-4ag-8g-1d.pdkbddl':
        'ece100cfeea603be82d403c840b187bd72097bd3fddf4bb3312f4570ac93195b',
    'misc/ask.pdkbddl':
        '9f5401f484d204aceffe0b5e771d8c01f54e1093aeffc3f3dba93bf3b10e3406',
    'misc/coin.pdkbddl':
        '4be0c82fdb22ee667788e180ee7f8ee62074aa46182d3f30a27a8740270205db',
    'misc/lossy-3ag-2l.pdkbddl':
        '0c2edc90e3d04104fd49ff8daccfead2d81e825708ddd669c30ad7654bf978f8',
    'misc/lossy-4ag-3l.pdkbddl':
        'b8e0ea53fac23a1364a55c74fda94a43f39315931f2327382d870f922990e2f3',
    'misc/negation-removal.pdkbddl':
        'db59a50c751ae7ea3405e7609452b507145deab635b776a6c74377e147ab7c6f',
    'misc/unsolvable.pdkbddl':
        '9de30b6540bcd06c1b5f9555bb5fddb66a135e76a7df0f9e5997d8b7ab0fc798',
    'seed1-lossy-3ag-2l':
        '0c2edc90e3d04104fd49ff8daccfead2d81e825708ddd669c30ad7654bf978f8',
    'seed1-lossy-3ag-3l':
        'f7af16cfed93bc9fd33ebc7d6a3d51e33152112b0b41a5d73bb849f0bff84363',
    'seed1-lossy-3ag-4l':
        'e06f6242c11086473c07c0de87b6f5749ec8e73e9f7c2825f70eb07727479727',
    'seed2-lossy-3ag-2l':
        'e719de29ea026372044a5813cd12e000499cd3473e9b70af6b59592022be5b5e',
    'seed2-lossy-3ag-3l':
        '2bc46694332da79b0c048dcaa1d36e17adaebec225e3f73382e50f0a7cc96927',
    'seed2-lossy-3ag-4l':
        'f765cde79f681ad7a8e1724928884fac1a8ce586b14d3d3c03a55dffc092a080',
    'seed3-lossy-3ag-2l':
        'fdd4097d97dd9669661e8df5d9eb27ab12e15d44a2383d7d2b36546acfa3a2bc',
    'seed3-lossy-3ag-3l':
        'b0608626ab5bb2e19c4aee0947e5c0df5053d409165968cf3182b88724278872',
    'seed3-lossy-3ag-4l':
        '04d31f417edc7aecbb8da0f3075fc35539f522431de2f355f0c4c30cbbc0a035',
}


def test_every_benchmark_problem_has_a_ground_digest():
    problems = set()
    for kind in os.listdir(BENCH):
        for name in os.listdir(bench(kind)):
            with open(bench(kind, name), encoding='utf-8') as handle:
                if '(define (problem' in handle.read():
                    problems.add('%s/%s' % (kind, name))
    assert problems == {k for k in GROUND_DIGESTS if '/' in k}


@pytest.mark.parametrize('name', sorted(GROUND_DIGESTS))
def test_ground_digests_are_pinned(name):
    if '/' in name:
        prob = load(*name.split('/'))
    else:
        prob = desugar(parse_text(_LOSSY_GOSSIP[name]))
    assert _ground_digest(prob) == GROUND_DIGESTS[name]


def test_deep_effects_are_truncated_and_counted():
    prob = load('grapevine', 'prob-4ag-2g-1d.pdkbddl')
    report = GroundingReport()
    ground(prob, report)
    assert prob.depth == 1
    # share's nested-belief conditions survive at depth 1, so nothing is
    # cut at grounding time for this domain
    assert report.truncated_effects == 0


# ---------------------------------------------------------------------------
# model validation


def _desugar(text):
    return desugar(parse_text(text))


def test_assessment_without_plan_is_an_error():
    prob = _desugar("""
    (define (domain d) (:agents a) (:predicates (p))
      (:action x :derive-condition never :precondition (and)
                 :effect (and (p))))
    (define (problem pr) (:domain d) (:depth 1)
      (:task valid_assessment) (:init-type complete) (:init ) (:goal (p)))
    """)
    assert any(d.is_error and 'plan' in d.message
               for d in validate_model(prob))


def test_ak_atom_under_modality_is_an_error():
    prob = _desugar("""
    (define (domain d) (:agents a) (:predicates (p) {AK}(k))
      (:action x :derive-condition never :precondition (and)
                 :effect (and (p))))
    (define (problem pr) (:domain d) (:depth 1)
      (:task valid_generation) (:init-type complete) (:init [a](k))
      (:goal (p)))
    """)
    assert any(d.is_error for d in validate_model(prob))


def test_init_deeper_than_bound_is_an_error():
    prob = _desugar("""
    (define (domain d) (:agents a b) (:predicates (p))
      (:action x :derive-condition never :precondition (and)
                 :effect (and (p))))
    (define (problem pr) (:domain d) (:depth 1)
      (:task valid_generation) (:init-type complete) (:init [a][b](p))
      (:goal (p)))
    """)
    assert any(d.is_error for d in validate_model(prob))


def test_clean_problem_has_no_errors():
    prob = load('envelope', 'envelope.pdkbddl')
    assert not any(d.is_error for d in validate_model(prob))
