"""Derivative-free training of circuit parameters toward target pmfs.

The loop treats the pmf evaluation as a black box: estimate the gradient
of the summed pmf distance by central finite differences, take a fixed
step, and keep the step only when it does not worsen the objective, so
the recorded loss history never increases and the returned parameters
are the best seen.  Several (input, target) pairs may share one
parameter set, which trains the circuit as a classifier.

`OptProblem` is plain data that `opt_config` checks once; the objective
then calls the engine's `_evaluate` on parameters clipped into range.
Each iteration's 2P probes are evaluated as one stack: every probe is
assembled with the scalar gate builders, and `_evaluate` runs once per
pair over the stacked matrices.  `fd_gradient` is the scalar form of the
same rule, one objective call per probe, and gives the same gradient bit
for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import Circuit, GateSpec, _assemble, check_static, check_structure
from .engine import _evaluate, distance_l2, distance_tv
from .fock import (FockState, Pmf, is_occupation, is_probability, is_real, is_state,
                   state_tuple)
from .gates import GateType
from .sampler import rng_from_seed

FD_STEP = 1e-4
STOP_LOSS = 1e-6

OBJECTIVES: dict[str, Callable[[Pmf, Pmf], float]] = {
    "tv": distance_tv,
    "l2": distance_l2,
}


class NonFiniteObjectiveError(ArithmeticError):
    """The training objective evaluated to NaN or infinity."""


@dataclass(frozen=True)
class OptProblem:
    """Template (gate types/positions fixed) and training pairs; `opt_config` checks it."""

    circuit_template: Circuit
    pairs: tuple[tuple[FockState, Pmf], ...]
    n_train: int = 200
    step_size: float = 0.25
    seed: int = 0
    objective: str = "tv"


@dataclass(frozen=True)
class OptResult:
    config: Circuit
    loss_history: tuple[float, ...]
    final_loss: float


def _param_bounds(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Per-parameter (lower, upper), from the gate table's ranges."""
    params = [p for gate in circuit.gates for p in gate.gate_type.params]
    return np.array([p.lo for p in params]), np.array([p.hi for p in params])


def _with_params(template: Circuit, values: Sequence) -> Circuit:
    gates = []
    at = 0
    for gate in template.gates:
        k = len(gate.params)
        gates.append(GateSpec(gate.gate_type, gate.modes, tuple(values[at:at + k])))
        at += k
    return Circuit(template.n_modes, tuple(gates))


def _fd_gradient(losses: Callable[[list[np.ndarray]], list[float]], x: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Central differences at `x`, with every probe's loss from one call of `losses`.

    Parameter i is probed FD_STEP either side, clipped into its bounds,
    and its quotient uses the actual separation; a parameter whose probes
    coincide gets no probe and a zero gradient.
    """
    probes, spans = [], []
    for i in range(len(x)):
        x_plus, x_minus = x.copy(), x.copy()
        x_plus[i] = min(x[i] + FD_STEP, upper[i])
        x_minus[i] = max(x[i] - FD_STEP, lower[i])
        span = x_plus[i] - x_minus[i]
        if span:
            probes += [x_plus, x_minus]
            spans.append((i, span))
    grad = np.zeros_like(x)
    if probes:
        values = losses(probes)
        for k, (i, span) in enumerate(spans):
            grad[i] = (values[2 * k] - values[2 * k + 1]) / span
    return grad


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Central-difference gradient estimate, clipping probes into bounds.

    Interior parameters get exact central differences with step FD_STEP;
    at a bound the probe is clipped and the difference quotient uses
    the actual probe separation.  One `fn` call per probe: the scalar
    form of the gradient `opt_config` takes over one stack of probes,
    equal to it bit for bit.
    """
    return _fd_gradient(lambda points: [fn(p) for p in points], x, lower, upper)


def _make_losses(problem: OptProblem, inputs: list[FockState]
                 ) -> Callable[[list[np.ndarray]], list[float]]:
    """The objective at each of a list of parameter vectors, in one evaluation per pair.

    Each vector is assembled with the scalar gate builders; the matrices
    are stacked, `_evaluate` runs once per pair over the stack, and each
    vector's distances are summed in pair order.
    """
    distance = OBJECTIVES[problem.objective]
    template = problem.circuit_template
    targets = [target for _, target in problem.pairs]

    def losses(points: list[np.ndarray]) -> list[float]:
        us = np.stack([_assemble(_with_params(template, x.tolist())) for x in points])
        per_pair = [_evaluate(us, template.n_modes, inp) for inp in inputs]
        values = []
        for k in range(len(points)):
            loss = sum(distance(pmfs[k], target) for pmfs, target in zip(per_pair, targets))
            if not math.isfinite(loss):
                raise NonFiniteObjectiveError(f"objective evaluated to {loss}")
            values.append(float(loss))
        return values

    return losses


def opt_config(problem: OptProblem,
               init_params: Sequence[float] | None = None) -> OptResult:
    """Learn gate parameters for the template that reproduce the target pmfs.

    Parameters start uniformly at random (angles over [0, 2pi), etas
    over [0, 1]) from the problem seed unless `init_params` pins them.
    Each iteration records the current loss and stops early once it
    falls below 1e-6; `final_loss` is the last recorded entry and equals
    the objective of the returned configuration.

    The problem and any pinned `init_params` (as given) are checked once,
    before any evaluation; the objective then assembles without
    re-checking gate parameters and compares each target with the full,
    unthresholded pmf.
    """
    template, n_train, step = problem.circuit_template, problem.n_train, problem.step_size
    if not problem.pairs:
        raise ValueError("at least one (input, target) pair is required")
    if not (is_occupation(n_train) and n_train >= 1):
        raise ValueError(f"n_train must be a positive integer, got {n_train!r}")
    if not (is_real(step) and 0.0 < step < math.inf):
        raise ValueError(f"step_size must be finite and positive, got {step!r}")
    if problem.objective not in OBJECTIVES:
        raise ValueError(
            f"objective must be one of {sorted(OBJECTIVES)}, got {problem.objective!r}")
    rng = rng_from_seed(problem.seed)
    inputs = [state_tuple(inp) for inp, _ in problem.pairs]
    for inp, (_, target) in zip(inputs, problem.pairs):
        check_static(template, inp).raise_if_violated()
        for state, p in target.items():
            if not (is_state(state, template.n_modes) and is_probability(p)):
                raise ValueError(f"target entry {state!r}: {p!r} is not a probability "
                                 f"of a {template.n_modes}-mode occupation tuple")

    losses = _make_losses(problem, inputs)
    lower, upper = _param_bounds(template)
    if init_params is not None:
        if len(init_params) != len(lower):
            raise ValueError(f"expected {len(lower)} parameters, got {len(init_params)}")
        check_structure(_with_params(template, init_params)).raise_if_violated()
        params = np.array(init_params, dtype=float)
    else:  # uniform over each bounded range; unbounded angles over [0, 2pi)
        span = upper - lower
        bounded = np.isfinite(span)
        params = (np.where(bounded, lower, 0.0)
                  + np.where(bounded, span, 2.0 * math.pi) * rng.random(len(lower)))

    [loss] = losses([params])
    history = [loss]
    for _ in range(n_train - 1):
        if loss < STOP_LOSS or len(params) == 0:
            break
        grad = _fd_gradient(losses, params, lower, upper)
        candidate = np.clip(params - step * grad, lower, upper)
        [candidate_loss] = losses([candidate])
        if candidate_loss <= loss:  # keep best-seen parameters
            params, loss = candidate, candidate_loss
        history.append(loss)
    return OptResult(config=_with_params(template, params.tolist()),
                     loss_history=tuple(history),
                     final_loss=history[-1])


def _random_structure(n_modes: int, n_gates_max: int,
                      rng: np.random.Generator) -> Circuit:
    """Uniform random gate count, types, and mode placements; zero params."""
    def pick(n: int) -> int:
        return min(int(rng.random() * n), n - 1)

    gate_types = list(GateType)
    n_gates = pick(n_gates_max + 1)
    gates = []
    for _ in range(n_gates):
        gate_type = gate_types[pick(len(gate_types))]
        modes = [pick(n_modes)]
        if gate_type.n_modes == 2:
            second = pick(n_modes - 1)
            modes.append(second if second < modes[0] else second + 1)
        gates.append(GateSpec(gate_type, tuple(modes),
                              (0.0,) * len(gate_type.param_names)))
    return Circuit(n_modes, tuple(gates))


def opt_structure(n_modes: int, n_gates_max: int,
                  pairs: Sequence[tuple[FockState, Pmf]],
                  n_restarts: int = 8, seed: int = 0,
                  n_train: int = OptProblem.n_train,
                  step_size: float = OptProblem.step_size,
                  objective: str = OptProblem.objective) -> OptResult:
    """Random-restart search over gate counts and placements.

    Each restart draws a candidate structure from its own (seed, restart)
    stream and trains it with `opt_config`; the best trained result wins.
    Restart streams are independent of `n_restarts`, so enlarging the
    budget can only improve the returned loss.  The counts and every
    pair's input are checked before the first draw.  A gate count is drawn
    as `int(rng.random() * (n_gates_max + 1))`, which reaches every count
    only while `n_gates_max` lies below 2**53.
    """
    if not (is_occupation(n_modes) and n_modes >= 2):
        raise ValueError(f"structure search needs at least 2 modes, got {n_modes!r}")
    if not (is_occupation(n_gates_max) and n_gates_max < 2 ** 53):
        raise ValueError(f"n_gates_max must be a non-negative integer below 2**53, "
                         f"got {n_gates_max!r}")
    if not (is_occupation(n_restarts) and n_restarts >= 1):
        raise ValueError(f"n_restarts must be a positive integer, got {n_restarts!r}")
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("at least one (input, target) pair is required")
    for inp, _ in pairs:
        check_static(Circuit(n_modes), state_tuple(inp)).raise_if_violated()
    best: OptResult | None = None
    for restart in range(n_restarts):
        rng = rng_from_seed(seed, stream=restart + 1)
        template = _random_structure(n_modes, n_gates_max, rng)
        problem = OptProblem(circuit_template=template, pairs=pairs,
                             n_train=n_train, step_size=step_size,
                             seed=(int(seed) + restart) % 2 ** 64, objective=objective)
        result = opt_config(problem)
        if best is None or result.final_loss < best.final_loss:
            best = result
    return best
