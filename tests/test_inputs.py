"""Library inputs are checked once, where they enter, by the rules in `boskit.fock`.

Counts and seeds follow `is_occupation`, reals `is_real` and pmf values
`is_probability`.  A value that breaks its rule raises ValueError (or
StaticSemanticsError, for gate parameters) before any evaluation; it is
never coerced, and no TypeError or OverflowError escapes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boskit.circuit import Circuit, GateSpec, StaticSemanticsError
from boskit.engine import prob_fn
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


@pytest.mark.parametrize("n_shots, seed", [(3, 1.5), (3, True), (True, 0), (2.0, 0)])
def test_sample_refuses_non_integer_counts_and_seeds(n_shots, seed):
    with pytest.raises(ValueError, match="n_shots" if seed == 0 else "seed"):
        sample(PMF, n_shots, seed)


@pytest.mark.parametrize("n_shots", [True, 1.0, 0])
def test_empirical_pmf_refuses_a_bad_shot_count(n_shots):
    with pytest.raises(ValueError, match="n_shots"):
        empirical_pmf(ShotRecord(((1, 0),), 0, n_shots))


def test_prob_fn_refuses_a_string_threshold():
    with pytest.raises(ValueError, match=r"got '0\.5'"):
        prob_fn(HOM, (1, 1), threshold="0.5")


# Any value at all.  Valid counts stay small: no count has an upper bound,
# so a large valid one only makes the call run long, and `opt_structure`
# still overflows on an n_modes or n_gates_max beyond the double range
# (ROADMAP item 5, "Other unbounded inputs").
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
    "opt_structure n_modes": (COUNTS, lambda v: search(n_modes=v)),
    "opt_structure n_gates_max": (COUNTS, lambda v: search(n_gates_max=v)),
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
