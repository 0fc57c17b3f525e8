"""Bit-exactness manifest: corpus pmfs and training runs, hashed, against a committed file.

`tests/golden/corpus.sha256` holds one line per circuit of `circuit_corpus`
seeds 1-4 (100 circuits each, 2-4 modes, up to 6 gates, 0-4 photons):
corpus seed, index, input, and the SHA-256 of
`repr(list(prob_fn(c, input).items()))`, so key order and every bit of
every probability are pinned.  Its `opt` section holds one line per
training problem of `training_runs` (train-lossy-style 2xMGL2 problems,
`tv` runs, MGL1 and lossless templates, parameters pinned at an eta
bound, and structure searches): `opt`, index, kind, objective, and the
SHA-256 of `repr((loss_history, config))`.  The hashes depend on LAPACK's QR and on
libm, so the header names the numpy version and BLAS the file was written
with; a mismatch on another platform is told apart from a regression by
comparing it with `platform()`.

Regenerate both sections (only for a deliberate behaviour change, said in
CHANGES.md):

    PYTHONPATH=src python tests/test_corpus_manifest.py
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from boskit.circuit import Circuit, GateSpec
from boskit.engine import prob_fn
from boskit.gates import GateType
from boskit.optimizer import OptProblem, opt_config, opt_structure
from boskit.sampler import rng_from_seed
from oracles import circuit_corpus

MANIFEST = Path(__file__).parent / "golden" / "corpus.sha256"
SEEDS = (1, 2, 3, 4)


def platform() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def manifest_lines() -> list[str]:
    lines = []
    for seed in SEEDS:
        inputs = rng_from_seed(seed, stream=1)
        for index, circuit in enumerate(circuit_corpus(seed=seed, count=100,
                                                       max_modes=4, max_gates=6)):
            photons = inputs.integers(circuit.n_modes, size=int(inputs.integers(5)))
            state = tuple(int(n) for n in np.bincount(photons, minlength=circuit.n_modes))
            digest = hashlib.sha256(
                repr(list(prob_fn(circuit, state).items())).encode()).hexdigest()
            lines.append(f"{seed} {index} [{','.join(map(str, state))}] {digest}")
    return lines


MGL1, MGL2 = GateType.MIXER_LOSSY_UNCORRELATED, GateType.MIXER_LOSSY_CORRELATED
# The train-lossy benchmark's template: 3 modes, 2xMGL2, 6 parameters.
TRAIN = Circuit(3, tuple(GateSpec(MGL2, modes, (0.0, 0.0, 0.5))
                         for modes in ((0, 1), (1, 2))))
MIXED = Circuit(3, (GateSpec(MGL1, (0, 1), (0.0, 0.0, 0.5, 0.5)),
                    GateSpec(GateType.MIXER, (1, 2), (0.0, 0.0)),
                    GateSpec(GateType.PHASE, (2,), (0.0,))))
LOSSLESS = Circuit(3, (GateSpec(GateType.MIXER, (0, 1), (0.0, 0.0)),
                       GateSpec(GateType.MIXER, (1, 2), (0.0, 0.0)),
                       GateSpec(GateType.PHASE, (0,), (0.0,))))
# (kind, template, inputs, objective, n_train, count)
KINDS = (("train", TRAIN, ((1, 1, 0), (0, 1, 1)), "l2", 4, 20),
         ("train", TRAIN, ((1, 1, 0), (0, 1, 1)), "tv", 6, 3),
         ("mgl1", MIXED, ((1, 0, 1), (2, 0, 0)), "l2", 6, 2),
         ("mgl1", MIXED, ((1, 0, 1), (0, 2, 1)), "tv", 6, 2),
         ("lossless", LOSSLESS, ((1, 1, 0),), "tv", 6, 1))


def _teacher(template: Circuit, rng) -> Circuit:
    """The template with parameters drawn as the train-lossy benchmark draws them."""
    gates = []
    for gate in template.gates:
        params = []
        for param in gate.gate_type.params:
            if param.hi == 1.0:
                params.append(float(rng.uniform(0.6, 0.95)))
            elif param.name == "theta":
                params.append(float(rng.uniform(0.0, math.pi / 2)))
            else:
                params.append(float(rng.uniform(0.0, 2 * math.pi)))
        gates.append(GateSpec(gate.gate_type, gate.modes, tuple(params)))
    return Circuit(template.n_modes, tuple(gates))


def training_runs():
    """(kind, objective, thunk) for each training problem of the `opt` section."""
    rng = rng_from_seed(5, stream=2)
    runs = []
    for kind, template, inputs, objective, n_train, count in KINDS:
        for _ in range(count):
            teacher = _teacher(template, rng)
            problem = OptProblem(template, tuple((i, prob_fn(teacher, i)) for i in inputs),
                                 n_train, 0.25, int(rng.integers(2 ** 63)), objective)
            runs.append((kind, objective, lambda p=problem: opt_config(p)))
    pairs = tuple((i, prob_fn(_teacher(TRAIN, rng), i)) for i in ((1, 1, 0), (0, 1, 1)))
    problem = OptProblem(TRAIN, pairs, 5, 0.25, 0, "l2")
    for pinned in ([0.3, 0.2, 1.0, 0.5, 0.1, 0.0], [1.2, 0.4, 0.0, 0.9, 2.0, 1.0]):
        runs.append(("pinned", "l2", lambda p=pinned: opt_config(problem, p)))
    for seed in (1, 2):
        runs.append(("structure", "tv", lambda s=seed: opt_structure(
            3, 4, pairs, n_restarts=2, seed=s, n_train=5, objective="tv")))
    return runs


def training_lines() -> list[str]:
    lines = []
    for index, (kind, objective, run) in enumerate(training_runs()):
        result = run()
        digest = hashlib.sha256(
            repr((result.loss_history, result.config)).encode()).hexdigest()
        lines.append(f"opt {index} {kind} {objective} {digest}")
    return lines


def write() -> None:
    header = [
        "# seed index input sha256(repr(list(prob_fn(circuit, input).items())))",
        f"# {platform()}",
    ]
    opt_header = ["# opt index kind objective sha256(repr((loss_history, config)))"]
    MANIFEST.write_text("\n".join(header + manifest_lines() + opt_header + training_lines())
                        + "\n", encoding="utf-8")


def _section(opt: bool) -> tuple[list[str], str]:
    text = MANIFEST.read_text(encoding="utf-8").splitlines()
    return ([line for line in text
             if not line.startswith("#") and line.startswith("opt ") == opt], text[1][2:])


def test_corpus_pmfs_match_the_manifest():
    expected, written = _section(opt=False)
    actual = manifest_lines()
    assert len(actual) == len(expected) == 400
    differ = [want.rsplit(" ", 1)[0] for want, got in zip(expected, actual) if want != got]
    assert not differ, (f"{len(differ)} corpus pmf(s) moved: {differ}; manifest "
                        f"written with {written}, running {platform()}")


def test_training_runs_match_the_manifest():
    expected, written = _section(opt=True)
    actual = training_lines()
    assert len(actual) == len(expected) == 32
    differ = [want.rsplit(" ", 1)[0] for want, got in zip(expected, actual) if want != got]
    assert not differ, (f"{len(differ)} training run(s) moved: {differ}; manifest "
                        f"written with {written}, running {platform()}")


if __name__ == "__main__":
    write()
