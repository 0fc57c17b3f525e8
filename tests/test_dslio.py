import json
import math

import pytest

from boskit.circuit import Circuit, GateSpec, check_static
from boskit.dslio import (DocumentAlignmentError, DocumentError,
                          DocumentKeyError, DocumentSyntaxError,
                          DocumentTypeError, parse_circuit, parse_input,
                          parse_pairs, parse_pmf, pmf_entries,
                          serialize_circuit, serialize_input, serialize_pmf,
                          serialize_shots)
from boskit.engine import prob_fn
from boskit.gates import GateType

from oracles import circuit_corpus

REFERENCE_DOC = """
{
  "modes": 2,
  "posn": [{"name": "MG", "modes": [0, 1]}],
  "config": [{"name": "MG", "theta": 0.7853981634, "phi": 2.0943951024}]
}
"""

EMPTY_THREE_MODE = (
    "{\n"
    '  "modes": 3,\n'
    '  "posn": [],\n'
    '  "config": []\n'
    "}\n"
)


def test_parse_reference_mixer_document():
    circuit = parse_circuit(REFERENCE_DOC)
    assert circuit.n_modes == 2
    gate, = circuit.gates
    assert gate.gate_type is GateType.MIXER
    assert gate.modes == (0, 1)
    assert gate.params[0] == pytest.approx(math.pi / 4, abs=1e-9)
    assert gate.params[1] == pytest.approx(2 * math.pi / 3, abs=1e-9)


def test_round_trip_on_random_circuits():
    for circuit in circuit_corpus(seed=67, count=200, max_modes=5, max_gates=5,
                                  min_modes=1):
        assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_serialize_empty_circuit_golden():
    assert serialize_circuit(Circuit(3)) == EMPTY_THREE_MODE


def test_serialize_is_canonical_and_idempotent():
    circuit = parse_circuit(REFERENCE_DOC)
    once = serialize_circuit(circuit)
    assert serialize_circuit(parse_circuit(once)) == once


def test_serialize_reals_round_trip_exactly():
    circuit = Circuit(2, (GateSpec(GateType.MIXER, (0, 1),
                                   (math.pi / 4, 2 * math.pi / 3)),))
    text = serialize_circuit(circuit)
    reparsed = parse_circuit(text)
    assert reparsed.gates[0].params == (math.pi / 4, 2 * math.pi / 3)
    doc = json.loads(text)
    assert doc["config"][0]["theta"] == math.pi / 4


@pytest.mark.parametrize("text, error", [
    ('{"modes": 2, "posn": [', DocumentSyntaxError),
    ('{"modes": 2, "posn": []}', DocumentKeyError),              # missing config
    ('{"modes": 2, "posn": [], "config": [], "extra": 1}', DocumentKeyError),
    ('{"modes": 2.5, "posn": [], "config": []}', DocumentTypeError),
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1.5]}], '
     '"config": [{"name": "MG", "theta": 0, "phi": 0}]}', DocumentTypeError),
    ('{"modes": 2, "posn": [{"name": "XX", "modes": [0, 1]}], '
     '"config": [{"name": "XX", "theta": 0, "phi": 0}]}', DocumentTypeError),
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": "big", "phi": 0}]}', DocumentTypeError),
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": 0, "phi": 1' + "0" * 400 + '}]}',
     DocumentTypeError),                                         # beyond a double
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": []}', DocumentAlignmentError),                   # length mismatch
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "P", "phi": 0}]}', DocumentAlignmentError),
    ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": 0}]}', DocumentKeyError),  # phi missing
    ('{"modes": 2, "posn": [{"name": "P", "modes": [0]}], '
     '"config": [{"name": "P", "phi": 0, "theta": 1}]}', DocumentKeyError),
    ('[1, 2]', DocumentTypeError),
])
def test_malformed_circuit_documents_are_rejected(text, error):
    with pytest.raises(error):
        parse_circuit(text)
    # every rejection must come through the documented hierarchy
    with pytest.raises(DocumentError):
        parse_circuit(text)


def test_alignment_error_names_the_index():
    doc = ('{"modes": 2, '
           '"posn": [{"name": "P", "modes": [0]}, {"name": "MG", "modes": [0, 1]}], '
           '"config": [{"name": "P", "phi": 0}, {"name": "P", "phi": 0}]}')
    with pytest.raises(DocumentAlignmentError, match="gate 1"):
        parse_circuit(doc)


def test_parse_leaves_circuit_rules_to_check_static():
    doc = ('{"modes": 2, "posn": [{"name": "MG", "modes": [0, 0]}], '
           '"config": [{"name": "MG", "theta": 0, "phi": 0}]}')
    circuit = parse_circuit(doc)
    assert circuit.gates[0].modes == (0, 0)
    assert [v.rule for v in check_static(circuit, (1, 1)).violations] == ["R2"]


def test_parse_input_literals():
    assert parse_input("[1, 1, 0]") == (1, 1, 0)
    assert parse_input(serialize_input((2, 0, 3))) == (2, 0, 3)


@pytest.mark.parametrize("text", ["[1, -1]", "[1.5]", "[]", '{"a": 1}', "[1,"])
def test_parse_input_rejections(text):
    with pytest.raises(DocumentError):
        parse_input(text)


@pytest.mark.parametrize("parse, text", [
    (parse_input, "[" + "1" * 5000 + "]"),
    (parse_circuit, '{"modes": 2, "posn": [{"name": "P", "modes": [0]}], '
                    '"config": [{"name": "P", "phi": 1' + "0" * 5000 + "}]}"),
    (parse_pmf, '[{"state": [1], "prob": 1' + "0" * 5000 + "}]"),
    (parse_pairs, '[{"input": [' + "2" * 4301 + '], "target": []}]'),
], ids=["input", "circuit", "pmf", "pairs"])
def test_integers_past_the_digit_limit_are_syntax_errors(parse, text):
    with pytest.raises(DocumentSyntaxError, match="4300 digits"):
        parse(text)


def test_pmf_report_order_puts_bunched_states_first():
    hom = prob_fn(Circuit(2, (GateSpec(GateType.MIXER, (0, 1),
                                       (math.pi / 4, 0.0)),)), (1, 1))
    order = [state for state, _ in pmf_entries(hom)]
    assert set(order[:2]) == {(2, 0), (0, 2)}
    assert order[2] == (1, 1)
    text = serialize_pmf(hom)
    lines = text.splitlines()
    assert lines[-2].startswith('  {"retained_mass":')


def test_pmf_round_trip():
    pmf = {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
    assert parse_pmf(serialize_pmf(pmf)) == pmf


def test_thresholded_empty_pmf_round_trips():
    hom = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (math.pi / 4, 0.0)),))
    pmf = prob_fn(hom, (1, 1), threshold=0.6)
    assert pmf == {}
    assert parse_pmf(serialize_pmf(pmf)) == {}


@pytest.mark.parametrize("target", ['[]', '[{"retained_mass": 0}]'])
def test_parse_pairs_refuses_an_empty_target(target):
    with pytest.raises(DocumentError, match="target"):
        parse_pairs(f'[{{"input": [1, 0], "target": {target}}}]')


@pytest.mark.parametrize("text", [
    '[{"state": [1], "prob": 1.5}]',
    '[{"state": [1], "prob": 0.5}, {"state": [1], "prob": 0.5}]',
    '[{"state": [-1], "prob": 1.0}]',
    '[{"prob": 1.0}]',
    '[]',
])
def test_parse_pmf_rejections(text):
    with pytest.raises(DocumentError):
        parse_pmf(text)


def test_parse_pairs():
    text = ('[{"input": [1, 0], "target": [{"state": [0, 1], "prob": 1.0}]},'
            ' {"input": [0, 1], "target": [{"state": [0, 1], "prob": 1}]}]')
    pairs = parse_pairs(text)
    assert pairs == [((1, 0), {(0, 1): 1.0}), ((0, 1), {(0, 1): 1.0})]
    with pytest.raises(DocumentError):
        parse_pairs('[{"input": [1, 0]}]')


def test_serialize_shots_lines():
    assert serialize_shots(((1, 0, 2), (0, 1, 2))) == "1,0,2\n0,1,2\n"
