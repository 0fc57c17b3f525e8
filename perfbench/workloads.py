"""The benchmark workloads: seeded inputs, the timed call, and its checks.

Every input comes from numpy generators keyed by (seed, workload, call
index), so a seed fixes the whole run and boskit only sees the generated
circuits, states and documents.  Each call gets fresh inputs: the
structure (mode counts, gate counts, photon numbers) is the same on
every call and seed, only the parameter values change.

The timed call goes through a `boskit` package attribute
(`boskit.prob_fn`, `boskit.opt_config`, `boskit.cli.main`) so the
tracer's wrappers see it.
`check` runs outside the timed region and returns an error message, or
None when the output is correct.  The untimed warm-up call gets input
`make(WARMUP)`, which no timed call shares, so a result kept from the
warm-up cannot pass a check.
"""

import importlib.util
import json
import math
import re
import resource
import time
from collections import Counter
from pathlib import Path

import numpy as np

import boskit
import boskit.cli
from boskit import Circuit, GateSpec, GateType, OptProblem

MASS_TOL = 1e-9
ORACLE_TOL = 1e-10
LOSS_RTOL = 1e-12
WARMUP = 2 ** 31  # input index of the untimed warm-up; no timed call reaches it
ORACLE_CALLS = (1, 2, 3)  # checked against the oracle; one per eval-bunched input

LOSSY = (GateType.MIXER_LOSSY_CORRELATED, GateType.MIXER_LOSSY_UNCORRELATED)


def _gate(rng, gate_type: GateType, modes) -> GateSpec:
    params = []
    for name in gate_type.param_names:
        if name.startswith("eta"):
            params.append(rng.uniform(0.6, 0.95))
        elif name == "theta":
            params.append(rng.uniform(0.0, math.pi / 2))
        else:
            params.append(rng.uniform(0.0, 2 * math.pi))
    return GateSpec(gate_type, tuple(modes), tuple(params))


def _brick_mesh(n_modes: int, layers: int) -> list[tuple[int, int]]:
    return [(a, a + 1) for layer in range(layers)
            for a in range(layer % 2, n_modes - 1, 2)]


def _pmf_error(pmf, n_modes: int, n_photons: int, lossless: bool):
    mass = math.fsum(pmf.values())
    if not abs(mass - 1.0) <= MASS_TOL:
        return f"pmf mass {mass!r} is not 1"
    for state, p in pmf.items():
        total = sum(state)
        if (len(state) != n_modes or not p >= 0.0 or total > n_photons
                or (lossless and total != n_photons)):
            return f"bad pmf entry {state}: {p!r} for {n_photons} input photons"
    return None


def _reference_gate(gate: GateSpec) -> np.ndarray:
    """The gate's matrix from its definition, written apart from boskit.gates.

    MG is [[t, r], [-r*, t]] with t = cos(theta), r = e^{-i phi} sin(theta).
    MGL1 is blockdiag(MG, I) after a real coupler (sqrt(eta), sqrt(1-eta))
    from each observed arm k to loss mode 2+k; MGL2 is
    [[a MG, b MG], [-b MG, a MG]] with a = sqrt(eta), b = sqrt(1-eta).
    """
    p = gate.params
    if gate.gate_type is GateType.PHASE:
        return np.array([[np.exp(1j * p[0])]])
    t, r = np.cos(p[0]), np.exp(-1j * p[1]) * np.sin(p[0])
    mixer = np.array([[t, r], [-np.conj(r), t]])
    if gate.gate_type is GateType.MIXER:
        return mixer
    if gate.gate_type is GateType.MIXER_LOSSY_CORRELATED:
        a, b = np.sqrt(p[2]), np.sqrt(1.0 - p[2])
        return np.kron(np.array([[a, b], [-b, a]]), mixer)
    u = np.eye(4, dtype=complex)
    u[:2, :2] = mixer
    for arm, eta in enumerate(p[2:]):
        coupler = np.eye(4)
        a, b = np.sqrt(eta), np.sqrt(1.0 - eta)
        coupler[np.ix_([arm, arm + 2], [arm, arm + 2])] = [[a, b], [-b, a]]
        u = u @ coupler
    return u


def _reference_transfer_matrix(circuit: Circuit) -> np.ndarray:
    """Transfer matrix composed with numpy, apart from boskit.circuit.

    Each lossy gate owns the next two loss modes after the observed ones,
    in gate order; the first gate listed acts first.
    """
    n_lossy = sum(g.gate_type in LOSSY for g in circuit.gates)
    total = circuit.n_modes + 2 * n_lossy
    u = np.eye(total, dtype=complex)
    next_loss = circuit.n_modes
    for gate in circuit.gates:
        modes = list(gate.modes)
        if gate.gate_type in LOSSY:
            modes += [next_loss, next_loss + 1]
            next_loss += 2
        embedded = np.eye(total, dtype=complex)
        embedded[np.ix_(modes, modes)] = _reference_gate(gate)
        u = embedded @ u
    return u


def _load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _l2(p, q) -> float:
    return math.sqrt(math.fsum((p.get(s, 0.0) - q.get(s, 0.0)) ** 2
                               for s in set(p) | set(q)))


def kernel_ladder(seed: int, sizes=(12, 14, 16), repeats: int = 3) -> dict:
    """Median seconds of `boskit.engine.permanent` on seeded n x n matrices."""
    times = {}
    for n in sizes:
        rng = np.random.default_rng([seed, 99, n])
        matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            value = boskit.engine.permanent(matrix)
            samples.append(time.perf_counter() - start)
            if not np.isfinite(value):
                raise ArithmeticError(f"permanent of size {n} is {value}")
        times[n] = sorted(samples)[repeats // 2]
    return times


REF_MATRIX = (np.random.default_rng(0).standard_normal((5, 5))
              + 1j * np.random.default_rng(1).standard_normal((5, 5)))


def _laplace_permanent(matrix: np.ndarray) -> complex:
    if len(matrix) == 1:
        return complex(matrix[0, 0])
    rest = matrix[1:]
    return sum(matrix[0, j] * _laplace_permanent(np.delete(rest, j, axis=1))
               for j in range(len(matrix)))


def reference_seconds() -> float:
    """Seconds of a fixed computation that shares no code with boskit.

    The unit "ref" of run.py's latency metrics, timed beside each call to
    divide out the host's speed: a Laplace-expansion permanent of a fixed
    5 x 5 matrix, about 200 small numpy calls driven by Python recursion,
    the same mix of interpreter and numpy work as a call into boskit, in
    about 2 ms.
    """
    start = time.perf_counter()
    _laplace_permanent(REF_MATRIX)
    return time.perf_counter() - start


class Workload:
    """One workload: `make(i)` builds call i's input, `call` is timed."""

    stream = 0

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream, *key])

    def make(self, i: int):
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, i: int, x, out):
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report(self) -> dict:
        """Workload-specific figures printed beside the metrics."""
        return {}


class EvalWorkload(Workload):
    """`prob_fn` calls; calls ORACLE_CALLS are also checked against the oracle."""

    n_modes = 0
    lossless = True

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.oracles = _load_oracles(root)
        self.oracle_pending = set(ORACLE_CALLS)  # a traced replay skips them

    def call(self, x):
        circuit, input_state = x
        return boskit.prob_fn(circuit, input_state)

    def check(self, i, x, pmf):
        circuit, input_state = x
        error = _pmf_error(pmf, self.n_modes, sum(input_state), self.lossless)
        if error is None and i in self.oracle_pending:
            self.oracle_pending.discard(i)
            u = _reference_transfer_matrix(circuit)
            extended = input_state + (0,) * (len(u) - circuit.n_modes)
            expected = self.oracles.brute_force_pmf(u, extended, circuit.n_modes)
            worst = max(abs(pmf.get(s, 0.0) - expected.get(s, 0.0))
                        for s in set(pmf) | set(expected))
            if not worst <= ORACLE_TOL:
                error = f"call {i} differs from brute_force_pmf by {worst!r}"
        return error


class EvalLossy(EvalWorkload):
    """4-mode MG mesh then 6 lossy mixers: 16 extended modes, 3 photons."""

    stream = 1
    n_modes = 4
    lossless = False
    MESH = ((0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2))
    INPUT = (1, 1, 1, 0)

    def make(self, i):
        rng = self.rng(i)
        gates = [_gate(rng, GateType.MIXER, pair) for pair in self.MESH]
        for k in range(6):
            a = int(rng.integers(self.n_modes - 1))
            gates.append(_gate(rng, LOSSY[k % 2], (a, a + 1)))
        return Circuit(self.n_modes, tuple(gates)), self.INPUT


class EvalBunched(EvalWorkload):
    """5-mode lossless MG+P mesh, 6 photons: size-6 permanents, 210 states.

    Five modes rather than six keep the permanent size and shrink the
    basis from 462 to 210 states, so a run holds enough calls for p90.
    """

    stream = 2
    n_modes = 5
    INPUTS = ((2, 1, 1, 1, 1), (2, 2, 2, 0, 0), (3, 3, 0, 0, 0))

    def make(self, i):
        rng = self.rng(i)
        gates = [_gate(rng, GateType.MIXER, pair)
                 for pair in _brick_mesh(self.n_modes, self.n_modes)]
        gates += [_gate(rng, GateType.PHASE, (m,)) for m in range(self.n_modes)]
        return Circuit(self.n_modes, tuple(gates)), self.INPUTS[i % len(self.INPUTS)]


class TrainLossy(Workload):
    """`opt_config` on a 3-mode 2xMGL2 template toward a seeded teacher."""

    stream = 3
    N_TRAIN = 4
    PAIR_INPUTS = ((1, 1, 0), (0, 1, 1))
    PLACEMENT = ((0, 1), (1, 2))

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        gate_type = GateType.MIXER_LOSSY_CORRELATED
        zeros = (0.0,) * len(gate_type.param_names)
        self.template = Circuit(3, tuple(GateSpec(gate_type, modes, zeros)
                                         for modes in self.PLACEMENT))
        self.final_losses = []

    def make(self, i):
        rng = self.rng(i)
        teacher = Circuit(3, tuple(_gate(rng, g.gate_type, g.modes)
                                   for g in self.template.gates))
        pairs = tuple((inp, boskit.prob_fn(teacher, inp)) for inp in self.PAIR_INPUTS)
        return OptProblem(circuit_template=self.template, pairs=pairs,
                          n_train=self.N_TRAIN, step_size=0.25,
                          seed=int(rng.integers(2 ** 63)), objective="l2")

    def call(self, problem):
        return boskit.opt_config(problem)

    def check(self, i, problem, result):
        history = result.loss_history
        if any(b > a for a, b in zip(history, history[1:])):
            return f"loss history increases: {history}"
        if result.final_loss != history[-1]:
            return f"final loss {result.final_loss!r} is not the last of {history}"
        loss = math.fsum(_l2(boskit.prob_fn(result.config, inp), target)
                         for inp, target in problem.pairs)
        if not abs(loss - result.final_loss) <= LOSS_RTOL * max(1.0, loss):
            return f"final loss {result.final_loss!r} but the config scores {loss!r}"
        self.final_losses.append(result.final_loss)
        return None

    def report(self):
        if not self.final_losses:
            return {}
        return {"final_loss": float(np.median(self.final_losses))}


class CliSample(Workload):
    """`boskit sample` through the CLI entry point, in this process.

    Calling `boskit.cli.main` here rather than `python -m boskit` in a
    child keeps interpreter start and the imports out of the call: on a
    shared host they vary from run to run by more than any in-process
    reference can divide out, and `setup_s` already measures them.
    """

    stream = 4
    SHOTS = 100_000
    SAMPLE_TV = 0.02  # 100000 correct shots land within about 0.006 in TV
    INPUT = (2, 1, 0)
    SHOT_LINE = re.compile(r"(\d+),(\d+),(\d+)")

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        rng = self.rng()
        gates = [_gate(rng, GateType.MIXER, (0, 1)),
                 _gate(rng, GateType.MIXER_LOSSY_UNCORRELATED, (1, 2)),
                 _gate(rng, GateType.MIXER_LOSSY_CORRELATED, (0, 1))]
        self.circuit_path = out_dir / "cli-sample.bosc"
        self.input_path = out_dir / "cli-sample.bosin"
        self.shots_path = out_dir / "cli-sample.boshots"
        self.circuit_path.write_text(_circuit_document(3, gates), encoding="utf-8")
        self.input_path.write_text(str(list(self.INPUT)), encoding="utf-8")
        u = _reference_transfer_matrix(Circuit(3, tuple(gates)))
        self.expected = _load_oracles(root).brute_force_pmf(
            u, self.INPUT + (0,) * (len(u) - 3), 3)

    def make(self, i):
        return ["sample", str(self.circuit_path), str(self.input_path),
                "--shots", str(self.SHOTS), "--seed", str(int(self.rng(i).integers(2 ** 32))),
                "--out", str(self.shots_path)]

    def call(self, argv):
        # Outputs of an earlier call must not pass for this one's.
        self.shots_path.unlink(missing_ok=True)
        return boskit.cli.main(argv)

    def check(self, i, argv, returncode):
        if returncode != 0:
            return f"exit code {returncode}"
        if not self.shots_path.exists():
            return "no shots file written"
        lines = self.shots_path.read_text(encoding="utf-8").split("\n")
        if lines.pop() != "" or len(lines) != self.SHOTS:
            return f"shots file has {len(lines)} lines, expected {self.SHOTS}"
        frequencies = {}
        for line, count in Counter(lines).items():
            match = self.SHOT_LINE.fullmatch(line)
            if match is None or sum(map(int, match.groups())) > sum(self.INPUT):
                return f"malformed shot line {line!r}"
            frequencies[tuple(map(int, match.groups()))] = count / self.SHOTS
        tv = 0.5 * math.fsum(abs(frequencies.get(s, 0.0) - self.expected.get(s, 0.0))
                             for s in set(frequencies) | set(self.expected))
        if not tv <= self.SAMPLE_TV:
            return f"shot frequencies are {tv!r} in TV from brute_force_pmf"
        return None


def _circuit_document(n_modes: int, gates) -> str:
    """Circuit document written with the standard json module, not dslio."""
    posn = [{"name": g.gate_type.value, "modes": list(g.modes)} for g in gates]
    config = [{"name": g.gate_type.value, **dict(zip(g.gate_type.param_names, g.params))}
              for g in gates]
    return json.dumps({"modes": n_modes, "posn": posn, "config": config})


WORKLOADS = {
    "eval-lossy": EvalLossy,
    "eval-bunched": EvalBunched,
    "train-lossy": TrainLossy,
    "cli-sample": CliSample,
}
