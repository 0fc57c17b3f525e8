"""Library inputs are checked once, where they enter, by the rules in `boskit.fock`.

Counts and seeds follow `is_occupation`, reals `is_real`, pmf values
`is_probability` and Fock states `is_state`, in the library and in the
documents alike.  A value that breaks its rule raises ValueError (or
StaticSemanticsError, for gate parameters; DocumentError, for documents)
before any evaluation; it is never coerced, and no TypeError or
OverflowError escapes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boskit.dslio
import boskit.engine
import boskit.optimizer
import boskit.sampler
from boskit.circuit import Circuit, GateSpec, StaticSemanticsError
from boskit.dslio import DocumentTypeError, parse_input, parse_pairs, parse_pmf
from boskit.engine import PermanentSizeError, output_amplitude, prob_fn
from boskit.gates import GateType
from boskit.optimizer import OptProblem, opt_config, opt_structure
from boskit.sampler import ShotRecord, empirical_pmf, sample

TEMPLATE = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (0.0, 0.0)),))
HOM = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (math.pi / 4, 0.0)),))
PAIRS = (((1, 0), {(0, 1): 1.0}),)
OPTIMUM = [math.pi / 2, 0.0]  # zero loss: training stops after one evaluation
PMF = {(2, 0): 0.5, (0, 2): 0.5}


@pytest.mark.parametrize("problem, init_params, named", [
    (OptProblem(TEMPLATE, PAIRS, n_train=2.5), None, "n_train"),
    (OptProblem(TEMPLATE, PAIRS, n_train=True), None, "n_train"),
    (OptProblem(TEMPLATE, PAIRS, step_size=math.nan), None, "step_size"),
    (OptProblem(TEMPLATE, PAIRS, step_size=math.inf), None, "step_size"),
    (OptProblem(TEMPLATE, PAIRS, seed=1.5), None, "seed"),
    (OptProblem(TEMPLATE, PAIRS, seed=True), None, "seed"),
    (OptProblem(TEMPLATE, PAIRS, seed=1.5), OPTIMUM, "seed"),
    (OptProblem(TEMPLATE, (((1, 0), {(1, 0): math.nan}),)), None, "target"),
    (OptProblem(TEMPLATE, (((1, 0), {(1, 0): -0.5, (0, 1): 1.5}),)), None, "target"),
    (OptProblem(TEMPLATE, (((1, 0), {(1.5, 0): 1.0}),)), None, "target"),
])
def test_opt_config_refuses_bad_settings_seeds_and_targets(problem, init_params, named):
    with pytest.raises(ValueError, match=named) as err:
        opt_config(problem, init_params=init_params)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("init_params", [["0.5", "0"], [True, False], [0.5, 10 ** 400]])
def test_opt_config_checks_pinned_params_as_given(init_params):
    with pytest.raises(StaticSemanticsError) as err:
        opt_config(OptProblem(TEMPLATE, PAIRS, n_train=3), init_params=init_params)
    assert {v.rule for v in err.value.diagnostics.violations} == {"R4"}


@pytest.mark.parametrize("args, kwargs, named", [
    ((2, 1.5), {}, "n_gates_max"),
    ((2, 1), {"n_restarts": True}, "n_restarts"),
    ((2.5, 1), {}, "modes"),
    ((2, 1), {"seed": 1.5}, "seed"),
])
def test_opt_structure_refuses_non_integer_counts(args, kwargs, named):
    with pytest.raises(ValueError, match=named) as err:
        opt_structure(*args, PAIRS, n_train=2, **kwargs)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("n_modes, n_gates_max, pairs, refusal", [
    (10 ** 400, 1, PAIRS, StaticSemanticsError),  # no pair's input has that many modes
    (10 ** 400, 1, (), ValueError),
    (2, 10 ** 400, PAIRS, ValueError),
    (2, 2 ** 64, PAIRS, ValueError),
    (2, 2 ** 53, PAIRS, ValueError),
], ids=["n_modes 10**400", "n_modes 10**400 without pairs", "n_gates_max 10**400",
        "n_gates_max 2**64", "n_gates_max 2**53"])
def test_opt_structure_refuses_counts_it_cannot_draw_before_drawing(
        n_modes, n_gates_max, pairs, refusal, monkeypatch):
    monkeypatch.setattr(boskit.optimizer, "_random_structure", None)  # any draw fails
    with pytest.raises(refusal) as err:
        opt_structure(n_modes, n_gates_max, pairs, n_train=2)
    assert type(err.value) is refusal


@pytest.mark.parametrize("n_shots, seed", [(3, 1.5), (3, True), (True, 0), (2.0, 0)])
def test_sample_refuses_non_integer_counts_and_seeds(n_shots, seed):
    with pytest.raises(ValueError, match="n_shots" if seed == 0 else "seed"):
        sample(PMF, n_shots, seed)


@pytest.mark.parametrize("n_shots", [True, 1.0, 0])
def test_empirical_pmf_refuses_a_bad_shot_count(n_shots):
    # A record's count is the number of its shots, so a bad count can only
    # be asked of `sample`, which refuses it before any record is made.
    with pytest.raises(ValueError, match="n_shots"):
        empirical_pmf(sample(PMF, n_shots, 0))
    with pytest.raises(TypeError):
        ShotRecord(((1, 0),), 0, n_shots)


def test_empirical_pmf_refuses_an_empty_record():
    with pytest.raises(ValueError, match="no shots"):
        empirical_pmf(ShotRecord((), 0))


@pytest.mark.parametrize("pmf", [
    {(1.5, 0): 1.0},
    {(1, 0): 0.5, (1,): 0.5},
    {(True, 0): 1.0},
    {(-1, 2): 1.0},
    {(): 1.0},
    {"ab": 1.0},
    {5: 1.0},
])
def test_sample_refuses_keys_that_are_not_states_over_one_mode_count(pmf):
    with pytest.raises(ValueError, match="Fock states"):
        sample(pmf, 3, 0)


@pytest.mark.parametrize("parse, text", [
    (parse_pmf, '[{"state": [1, 0], "prob": 0.5}, {"state": [1], "prob": 0.5}]'),
    (parse_pmf, '[{"state": [], "prob": 0.5}]'),
    (parse_pairs, '[{"input": [1, 0], "target": [{"state": [1, 0, 0], "prob": 1.0}]}]'),
])
def test_documents_refuse_states_over_the_wrong_mode_count(parse, text):
    with pytest.raises(DocumentTypeError, match="state"):
        parse(text)


STATE_REFUSALS = {
    "output_amplitude": (boskit.engine,
                         lambda: output_amplitude(np.eye(2), (1, 0), (0, 1))),
    "opt_config": (boskit.optimizer, lambda: train(init_params=OPTIMUM)),
    "sample": (boskit.sampler, lambda: sample(PMF, 3, 0)),
    "parse_input": (boskit.dslio, lambda: parse_input("[1, 0]")),
    "parse_pmf": (boskit.dslio, lambda: parse_pmf('[{"state": [1, 0], "prob": 1.0}]')),
    "parse_pairs": (boskit.dslio, lambda: parse_pairs(
        '[{"input": [1, 0], "target": [{"state": [0, 1], "prob": 1.0}]}]')),
}


@pytest.mark.parametrize("entry", sorted(STATE_REFUSALS))
def test_every_state_entry_defers_to_the_one_rule(entry, monkeypatch):
    module, call = STATE_REFUSALS[entry]
    call()  # a valid state passes
    monkeypatch.setattr(module, "is_state", lambda s, n_modes: False)
    with pytest.raises(ValueError):
        call()


# A numpy count beside a Python int past int64: the photon total is taken
# over Python ints, so it is refused by the limit instead of overflowing.
MIXED_TOTAL = (np.int64(3), 10 ** 400)
TOTALS = {
    "prob_fn": lambda: prob_fn(Circuit(2, ()), MIXED_TOTAL),
    "output_amplitude input": lambda: output_amplitude(np.eye(2), MIXED_TOTAL, (1, 0)),
    "output_amplitude output": lambda: output_amplitude(np.eye(2), (1, 0), MIXED_TOTAL),
    "opt_config input": lambda: train(pairs=((MIXED_TOTAL, {(0, 1): 1.0}),)),
}


@pytest.mark.parametrize("entry", sorted(TOTALS))
def test_a_photon_total_past_int64_is_refused_by_the_limit(entry):
    with pytest.raises(PermanentSizeError, match="limited to 30 photons") as err:
        TOTALS[entry]()
    assert len(str(err.value)) < 80


NOT_SEQUENCES = (5, None, 1.5, np.int64(1), np.array(3), {1, 0}, b"\x01\x00")
NON_SEQUENCE_ENTRIES = {
    "prob_fn": lambda s: prob_fn(Circuit(2, ()), s),
    "output_amplitude input": lambda s: output_amplitude(np.eye(2), s, (1, 0)),
    "output_amplitude output": lambda s: output_amplitude(np.eye(2), (1, 0), s),
    "opt_config input": lambda s: train(pairs=((s, {(0, 1): 1.0}),)),
}


@pytest.mark.parametrize("state", NOT_SEQUENCES, ids=repr)
@pytest.mark.parametrize("entry", sorted(NON_SEQUENCE_ENTRIES))
def test_a_state_that_is_not_a_sequence_is_a_value_error(entry, state):
    with pytest.raises(ValueError, match="sequence") as err:
        NON_SEQUENCE_ENTRIES[entry](state)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("state", [[1, 1], np.array([1, 1]), (np.int64(1), 1)], ids=repr)
def test_any_sequence_of_counts_is_a_state(state):
    assert prob_fn(HOM, state) == prob_fn(HOM, (1, 1))
    assert output_amplitude(np.eye(2), state, (1, 1)) == 1


def test_prob_fn_refuses_a_string_threshold():
    with pytest.raises(ValueError, match=r"got '0\.5'"):
        prob_fn(HOM, (1, 1), threshold="0.5")


# Any value at all.  Valid counts stay small where a count has no upper
# bound, since a large valid one only makes the call run long.
NOT_A_COUNT = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=2),
    st.complex_numbers(max_magnitude=2), st.fractions(max_denominator=8),
    st.sampled_from([-10 ** 400, np.float64(0.5), np.bool_(True), [1], (0.5,)]))
COUNTS = st.one_of(st.integers(-2, 4), st.just(np.int64(3)), NOT_A_COUNT)
ANY_VALUE = st.one_of(COUNTS, st.sampled_from([10 ** 400, 2 ** 64, np.uint64(2 ** 64 - 1)]))


def train(n_train=2, step_size=0.25, seed=0, pairs=PAIRS, init_params=None):
    return opt_config(OptProblem(TEMPLATE, pairs, n_train, step_size, seed), init_params)


def search(n_modes=2, n_gates_max=1, n_restarts=1, seed=0):
    return opt_structure(n_modes, n_gates_max, PAIRS, n_restarts, seed, n_train=2)


SLOTS = {
    "opt_config n_train": (COUNTS, lambda v: train(n_train=v, init_params=OPTIMUM)),
    "opt_config step_size": (ANY_VALUE, lambda v: train(step_size=v)),
    "opt_config seed": (ANY_VALUE, lambda v: train(seed=v)),
    "opt_config init_params": (ANY_VALUE, lambda v: train(init_params=[v, 0.0])),
    "opt_config target": (ANY_VALUE, lambda v: train(pairs=(((1, 0), {(0, 1): v}),))),
    "opt_structure n_modes": (ANY_VALUE, lambda v: search(n_modes=v)),
    "opt_structure n_gates_max": (ANY_VALUE, lambda v: search(n_gates_max=v)),
    "opt_structure n_restarts": (COUNTS, lambda v: search(n_restarts=v)),
    "opt_structure seed": (ANY_VALUE, lambda v: search(n_restarts=2, seed=v)),
    "sample n_shots": (COUNTS, lambda v: sample(PMF, v, 0)),
    "sample seed": (ANY_VALUE, lambda v: sample(PMF, 3, v)),
    "prob_fn threshold": (ANY_VALUE, lambda v: prob_fn(HOM, (1, 1), threshold=v)),
}


@pytest.mark.parametrize("slot", sorted(SLOTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_value_in_a_scalar_slot_runs_or_raises_value_error(slot, data):
    values, call = SLOTS[slot]
    value = data.draw(values)
    try:
        call(value)
    except ValueError:  # StaticSemanticsError and the resource errors included
        pass


# Any hashable value as a pmf key or Fock state: tuples of any entries,
# strings, and the entries themselves, which are not sequences.  Entries
# include huge integers, which pass `is_occupation`, beside numpy counts.
ENTRIES = st.one_of(
    st.integers(-2, 4), st.just(np.int64(3)), st.floats(), st.booleans(), st.none(),
    st.text(max_size=2), st.complex_numbers(max_magnitude=2),
    st.sampled_from([-10 ** 400, 10 ** 400, np.float64(0.5), np.bool_(True), (0.5,)]))
KEYS = st.one_of(st.lists(ENTRIES, max_size=4).map(tuple), st.text(max_size=3), ENTRIES)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["state", "prob", "input", "target",
                                         "retained_mass", "x"]), inner, max_size=3)),
    max_leaves=12)


def pmf_doc(state) -> list:
    return [{"state": [1, 0], "prob": 0.5}, {"state": state, "prob": 0.5}]


def pair_doc(input_state, target_state) -> str:
    return json.dumps([{"input": input_state,
                        "target": [{"state": target_state, "prob": 1.0}]}])


STATE_SLOTS = {
    "sample key": (KEYS, lambda k: sample({k: 1.0}, 3, 0)),
    "sample second key": (KEYS, lambda k: sample({(1, 0): 0.5, k: 0.5}, 3, 0)),
    "output_amplitude input": (KEYS, lambda k: output_amplitude(np.eye(2), k, (1, 0))),
    "output_amplitude output": (KEYS, lambda k: output_amplitude(np.eye(2), (0, 1), k)),
    "prob_fn input": (KEYS, lambda k: prob_fn(Circuit(2, ()), k)),
    "opt_config input": (KEYS, lambda k: train(pairs=((k, {(0, 1): 1.0}),))),
    "opt_config target": (KEYS, lambda k: train(pairs=(((1, 0), {k: 1.0}),))),
    "parse_input": (JSON, lambda v: parse_input(json.dumps(v))),
    "parse_pmf": (JSON, lambda v: parse_pmf(json.dumps(v))),
    "parse_pmf state": (JSON, lambda v: parse_pmf(json.dumps(pmf_doc(v)))),
    "parse_pairs": (JSON, lambda v: parse_pairs(json.dumps(v))),
    "parse_pairs input": (JSON, lambda v: parse_pairs(pair_doc(v, [1, 0]))),
    "parse_pairs target state": (JSON, lambda v: parse_pairs(pair_doc([1, 0], v))),
}


@pytest.mark.parametrize("slot", sorted(STATE_SLOTS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_value_in_a_state_slot_runs_or_raises_value_error(slot, data):
    values, call = STATE_SLOTS[slot]
    value = data.draw(values)
    try:
        call(value)
    except ValueError:  # DocumentError included
        pass
