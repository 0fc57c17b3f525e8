import math

import numpy as np
import pytest

import boskit.circuit
import boskit.engine
import boskit.gates
import boskit.optimizer
from boskit.circuit import Circuit, GateSpec, StaticSemanticsError
from boskit.engine import distance_l2, distance_tv, prob_fn
from boskit.gates import GateType
from boskit.optimizer import (FD_STEP, NonFiniteObjectiveError, OptProblem, fd_gradient,
                              opt_config, opt_structure)
from boskit.sampler import rng_from_seed


def mixer_template():
    return Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (0.0, 0.0)),))


TRANSMIT_PAIRS = (((1, 0), {(0, 1): 1.0}),)
CLASSIFIER_PAIRS = (((1, 0), {(1, 0): 1.0}),
                    ((0, 1), {(0, 1): 1.0}))


def transmit_objective(theta, phi=0.0):
    circuit = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (theta, phi)),))
    return distance_tv(prob_fn(circuit, (1, 0)), {(0, 1): 1.0})


def test_random_start_is_one_scalar_draw_per_parameter():
    template = Circuit(3, (GateSpec(GateType.PHASE, (0,), (0.0,)),
                           GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (0, 1),
                                    (0.0, 0.0, 0.5, 0.5)),
                           GateSpec(GateType.MIXER_LOSSY_CORRELATED, (1, 2), (0.0, 0.0, 0.5))))
    pairs = (((1, 0, 0), {(1, 0, 0): 1.0}),)
    for seed in range(20):
        rng = rng_from_seed(seed)
        expected = []
        for gate in template.gates:
            for param in gate.gate_type.params:  # etas over [0, 1], angles over [0, 2pi)
                u = rng.random()
                expected.append(param.lo + (param.hi - param.lo) * u
                                if math.isfinite(param.hi) else 2.0 * math.pi * u)
        result = opt_config(OptProblem(template, pairs, n_train=1, seed=seed))
        assert [p for gate in result.config.gates for p in gate.params] == expected


def test_grid_search_confirms_transmission_optimum():
    # independent check that theta = pi/2 is the best single-mixer setting
    grid = np.linspace(0.0, math.pi, 361)
    losses = [transmit_objective(t) for t in grid]
    assert grid[int(np.argmin(losses))] == pytest.approx(math.pi / 2, abs=0.01)


def test_already_optimal_initialisation_stops_immediately():
    problem = OptProblem(mixer_template(), TRANSMIT_PAIRS, n_train=100, seed=0)
    result = opt_config(problem, init_params=[math.pi / 2, 0.0])
    assert len(result.loss_history) == 1
    assert result.final_loss < 1e-9


def test_single_mixer_transmission_recovery():
    problem = OptProblem(mixer_template(), TRANSMIT_PAIRS,
                         n_train=500, step_size=0.25, seed=7)
    result = opt_config(problem)
    theta = result.config.gates[0].params[0]
    assert result.final_loss < 0.01
    assert min(abs((theta % math.pi) - math.pi / 2),
               math.pi - abs((theta % math.pi) - math.pi / 2)) < 0.05
    assert len(result.loss_history) <= 500


def test_two_pair_classifier_learns_identity_mixer():
    problem = OptProblem(mixer_template(), CLASSIFIER_PAIRS,
                         n_train=500, step_size=0.25, seed=11)
    result = opt_config(problem)
    theta = result.config.gates[0].params[0]
    assert result.final_loss < 0.02
    distance_to_zero = min(theta % math.pi, math.pi - theta % math.pi)
    assert distance_to_zero < 0.1


def test_loss_history_is_reproducible_and_monotone():
    problem = OptProblem(mixer_template(), TRANSMIT_PAIRS,
                         n_train=50, step_size=0.2, seed=21)
    first = opt_config(problem)
    second = opt_config(problem)
    assert first.loss_history == second.loss_history
    running_min = np.minimum.accumulate(first.loss_history)
    assert all(a >= b for a, b in zip(running_min, running_min[1:]))
    assert first.final_loss == first.loss_history[-1]


def test_final_loss_matches_recomputed_objective():
    problem = OptProblem(mixer_template(), TRANSMIT_PAIRS,
                         n_train=40, step_size=0.2, seed=3)
    result = opt_config(problem)
    recomputed = distance_tv(prob_fn(result.config, (1, 0)), {(0, 1): 1.0})
    assert abs(recomputed - result.final_loss) < 1e-12


def test_fd_gradient_matches_external_central_difference():
    h = FD_STEP
    theta0 = 0.9

    def objective(values):
        return transmit_objective(values[0])

    internal = fd_gradient(objective, np.array([theta0]),
                           np.array([-np.inf]), np.array([np.inf]))
    external = (transmit_objective(theta0 + h)
                - transmit_objective(theta0 - h)) / (2 * h)
    assert abs(internal[0] - external) < 1e-6
    # sanity: the estimate tracks the analytic derivative of cos^2(theta)
    assert internal[0] == pytest.approx(-math.sin(2 * theta0), abs=1e-4)


def test_fd_gradient_respects_bounds():
    def square(values):
        return float(values[0] ** 2)

    grad = fd_gradient(square, np.array([1.0]), np.array([0.0]), np.array([1.0]))
    # probe clipped at the upper bound: one-sided difference, still ~2
    assert grad[0] == pytest.approx(2.0, abs=1e-3)


def test_etas_stay_clamped_during_training():
    template = Circuit(2, (GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1),
                                    (0.0, 0.0, 0.5)),))
    problem = OptProblem(template, TRANSMIT_PAIRS, n_train=120,
                         step_size=0.3, seed=2)
    result = opt_config(problem)
    eta = result.config.gates[0].params[2]
    assert 0.0 <= eta <= 1.0


def test_opt_problem_validation():
    # OptProblem is plain data: construction never raises, opt_config checks
    for problem in (OptProblem(mixer_template(), ()),
                    OptProblem(mixer_template(), TRANSMIT_PAIRS, objective="kl")):
        with pytest.raises(ValueError):
            opt_config(problem)
    problem = OptProblem(mixer_template(), (((1, 1, 1), {(1, 1, 1): 1.0}),))
    with pytest.raises(StaticSemanticsError):
        opt_config(problem)


def test_pinned_params_are_checked_before_any_evaluation(monkeypatch):
    template = Circuit(2, (GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1),
                                    (0.0, 0.0, 0.5)),))
    problem = OptProblem(template, TRANSMIT_PAIRS, n_train=5)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated before the pinned parameters were checked")

    monkeypatch.setattr(boskit.optimizer, "_evaluate", no_evaluation)
    for pinned in ([0.1, 0.2, 1.5], [math.nan, 0.2, 0.5]):
        with pytest.raises(StaticSemanticsError) as err:
            opt_config(problem, init_params=pinned)
        assert [v.rule for v in err.value.diagnostics.violations] == ["R4"]


# The train-lossy benchmark workload: a 3-mode 2xMGL2 template and a teacher.
TRAIN_TEMPLATE = Circuit(3, (
    GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1), (0.0, 0.0, 0.5)),
    GateSpec(GateType.MIXER_LOSSY_CORRELATED, (1, 2), (0.0, 0.0, 0.5)),
))
TRAIN_TEACHER = Circuit(3, (
    GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1), (0.4, 1.0, 0.8)),
    GateSpec(GateType.MIXER_LOSSY_CORRELATED, (1, 2), (1.2, 0.3, 0.6)),
))
TRAIN_PAIRS = tuple((inp, prob_fn(TRAIN_TEACHER, inp)) for inp in ((1, 1, 0), (0, 1, 1)))


def test_validation_runs_once_at_the_boundary(check_calls):
    prob_fn(TRAIN_TEACHER, (1, 1, 0))
    assert len(check_calls) == 1

    for n_train in (1, 4):
        problem = OptProblem(TRAIN_TEMPLATE, TRAIN_PAIRS, n_train=n_train, objective="l2")
        for init_params in (None, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]):
            check_calls.clear()
            result = opt_config(problem, init_params=init_params)
            assert len(result.loss_history) == n_train
            assert len(check_calls) <= len(TRAIN_PAIRS) + 1


def test_gate_parameters_are_checked_once_per_gate(monkeypatch):
    calls = []
    original = boskit.gates.param_violations

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (boskit.gates, boskit.circuit, boskit.engine, boskit.optimizer):
        if hasattr(module, "param_violations"):
            monkeypatch.setattr(module, "param_violations", counted)

    gates = []
    for k in range(6):
        gates.append(GateSpec(GateType.PHASE, (k % 3,), (0.3 * k,)))
        if k % 2:
            gates.append(GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (0, 1),
                                  (0.2 * k, 0.1, 0.7, 0.9)))
        else:
            gates.append(GateSpec(GateType.MIXER_LOSSY_CORRELATED, (1, 2),
                                  (0.2 * k, 0.1, 0.8)))
    lossy = Circuit(3, tuple(gates))
    assert len(lossy.gates) == 12
    prob_fn(lossy, (1, 0, 1))
    assert len(calls) == 12

    counts = []
    for n_train in (1, 4):
        calls.clear()
        opt_config(OptProblem(TRAIN_TEMPLATE, TRAIN_PAIRS, n_train=n_train, objective="l2"))
        counts.append(len(calls))
    assert counts == [len(TRAIN_PAIRS) * len(TRAIN_TEMPLATE.gates)] * 2


def test_non_finite_objective_is_reported(monkeypatch):
    monkeypatch.setitem(boskit.optimizer.OBJECTIVES, "tv", lambda p, q: math.nan)
    with pytest.raises(NonFiniteObjectiveError):
        opt_config(OptProblem(mixer_template(), TRANSMIT_PAIRS))


def test_structure_search_with_no_gates_allowed():
    result = opt_structure(2, 0, TRANSMIT_PAIRS, n_restarts=3, seed=5)
    assert result.config.gates == ()
    expected = distance_tv({(1, 0): 1.0}, {(0, 1): 1.0})
    assert result.final_loss == pytest.approx(expected)


def test_structure_search_recovers_mixer_placement():
    result = opt_structure(2, 1, TRANSMIT_PAIRS, n_restarts=8, seed=5,
                           n_train=150, step_size=0.25)
    assert result.final_loss < 0.05


def test_more_restarts_never_hurt():
    losses = [opt_structure(2, 1, TRANSMIT_PAIRS, n_restarts=n, seed=5,
                            n_train=60, step_size=0.25).final_loss
              for n in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_stacked_gradient_equals_fd_gradient_bit_for_bit():
    # opt_config evaluates each iteration's probes as one stack; the public
    # scalar fd_gradient over prob_fn is its oracle, compared with ==.
    problem = OptProblem(TRAIN_TEMPLATE, TRAIN_PAIRS, objective="l2")
    inputs = [inp for inp, _ in TRAIN_PAIRS]
    lower, upper = boskit.optimizer._param_bounds(TRAIN_TEMPLATE)

    def objective(values):
        circuit = boskit.optimizer._with_params(TRAIN_TEMPLATE, values.tolist())
        return float(sum(distance_l2(prob_fn(circuit, inp), target)
                         for inp, target in TRAIN_PAIRS))

    losses = boskit.optimizer._make_losses(problem, inputs)
    # interior, and with the etas on their bounds (clipped, one-sided probes)
    for x in ([0.4, 1.0, 0.8, 1.2, 0.3, 0.6], [0.4, 1.0, 1.0, 1.2, 0.3, 0.0]):
        x = np.array(x)
        stacked = boskit.optimizer._fd_gradient(losses, x, lower, upper)
        assert stacked.tolist() == fd_gradient(objective, x, lower, upper).tolist()
        assert losses([x]) == [objective(x)]
