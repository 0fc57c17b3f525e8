"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Seeds are fixed: corpus 53/101, sampler 42, optimizer 7
(transmission) and 11 (classifier).
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from boskit.circuit import Circuit, GateSpec, assemble_transfer_matrix
from boskit.dslio import (DocumentAlignmentError, DocumentKeyError,
                          DocumentSyntaxError, DocumentTypeError,
                          parse_circuit, serialize_circuit)
from boskit.circuit import StaticSemanticsError, check_structure
from boskit.engine import distance_tv, permanent, pmf_mass, prob_fn
from boskit.gates import GateType, gate_matrix
from boskit.optimizer import OptProblem, opt_config
from boskit.sampler import empirical_pmf, rng_from_seed, sample

from oracles import LOSSLESS_TYPES, circuit_corpus, naive_permanent

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

HOM = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (math.pi / 4, 0.0)),))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_reference_mixer_matrix():
    reference = np.array([
        [0.70710678 + 0.0j, -0.35355339 - 0.61237244j],
        [0.35355339 - 0.61237244j, 0.70710678 + 0.0j],
    ])
    mixer = gate_matrix(GateType.MIXER, (math.pi / 4, 2 * math.pi / 3))
    defect = np.max(np.abs(mixer - reference))
    report(1, "reference mixer matrix", defect < 1e-8, f"max defect {defect:.2e}")


def test_criterion_2_hong_ou_mandel_bunching():
    pmf = prob_fn(HOM, (1, 1))
    ok = (pmf[(1, 1)] <= 1e-12
          and abs(pmf[(2, 0)] - 0.5) <= 1e-12
          and abs(pmf[(0, 2)] - 0.5) <= 1e-12)
    report(2, "Hong-Ou-Mandel bunching", ok,
           f"P[1,1]={pmf[(1, 1)]:.2e}, P[2,0]={pmf[(2, 0)]:.12f}")


def test_criterion_3_permanent_against_oracle():
    rng = rng_from_seed(23)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = rng.random((n, n)) + 1j * rng.random((n, n)) - (0.5 + 0.5j)
        expected = naive_permanent(m)
        worst = max(worst, abs(permanent(m) - expected) / abs(expected))
    factorials_exact = all(
        permanent(np.ones((n, n))) == math.factorial(n) for n in range(1, 8))
    report(3, "permanent vs naive-expansion oracle",
           worst <= 1e-10 and factorials_exact,
           f"worst relative error {worst:.2e}")


def _lossless_corpus_with_inputs():
    rng = rng_from_seed(47)
    for circuit in circuit_corpus(seed=53, count=200, max_modes=4,
                                  max_gates=4, gate_types=LOSSLESS_TYPES):
        n_photons = int(rng.integers(1, 4))
        input_state = tuple(int(n) for n in rng.multinomial(
            n_photons, [1 / circuit.n_modes] * circuit.n_modes))
        yield circuit, input_state, n_photons


def test_criterion_4_normalisation_and_conservation():
    worst_mass = 0.0
    conserved = True
    for circuit, input_state, n_photons in _lossless_corpus_with_inputs():
        pmf = prob_fn(circuit, input_state)
        worst_mass = max(worst_mass, abs(pmf_mass(pmf) - 1.0))
        conserved &= all(sum(state) == n_photons for state in pmf)
    report(4, "lossless normalisation and photon conservation",
           worst_mass <= 1e-9 and conserved,
           f"200 circuits, worst |mass-1| {worst_mass:.2e}")


def test_criterion_5_loss_limits():
    worst = 0.0
    for theta, phi in ((0.8, 1.9), (math.pi / 4, 0.0), (2.4, 4.1)):
        ideal = prob_fn(Circuit(2, (GateSpec(GateType.MIXER, (0, 1),
                                             (theta, phi)),)), (1, 1))
        no_loss_1 = prob_fn(Circuit(2, (GateSpec(
            GateType.MIXER_LOSSY_UNCORRELATED, (0, 1),
            (theta, phi, 1.0, 1.0)),)), (1, 1))
        no_loss_2 = prob_fn(Circuit(2, (GateSpec(
            GateType.MIXER_LOSSY_CORRELATED, (0, 1),
            (theta, phi, 1.0)),)), (1, 1))
        for lossless in (no_loss_1, no_loss_2):
            for state in set(ideal) | set(lossless):
                worst = max(worst, abs(lossless.get(state, 0.0)
                                       - ideal.get(state, 0.0)))
    full_loss_1 = prob_fn(Circuit(2, (GateSpec(
        GateType.MIXER_LOSSY_UNCORRELATED, (0, 1), (0.8, 1.9, 0.0, 0.0)),)),
        (2, 1))
    full_loss_2 = prob_fn(Circuit(2, (GateSpec(
        GateType.MIXER_LOSSY_CORRELATED, (0, 1), (0.8, 1.9, 0.0)),)), (2, 1))
    vacuum_ok = (abs(full_loss_1[(0, 0)] - 1.0) <= 1e-9
                 and abs(full_loss_2[(0, 0)] - 1.0) <= 1e-9)
    report(5, "lossy-gate limits", worst <= 1e-9 and vacuum_ok,
           f"worst no-loss deviation {worst:.2e}")


def test_criterion_6_transfer_matrices_unitary():
    worst = 0.0
    for circuit in circuit_corpus(seed=101, count=200, max_modes=5, max_gates=6):
        u = assemble_transfer_matrix(circuit)
        worst = max(worst, np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    report(6, "transfer-matrix unitarity over 200-circuit corpus",
           worst <= 1e-10, f"worst defect {worst:.2e}")


def test_criterion_7_sampler_consistency():
    exact = prob_fn(HOM, (1, 1))
    freqs = empirical_pmf(sample(exact, 100_000, seed=42))
    tv = distance_tv(freqs, exact)
    ok = (abs(freqs[(2, 0)] - 0.5) < 0.01
          and abs(freqs[(0, 2)] - 0.5) < 0.01
          and tv < 0.02)
    report(7, "sampler consistency at 1e5 shots", ok,
           f"freqs {freqs[(2, 0)]:.4f}/{freqs[(0, 2)]:.4f}, TV {tv:.4f}")


def test_criterion_8_optimizer_recovery():
    template = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (0.0, 0.0)),))

    transmit = opt_config(OptProblem(
        template, (((1, 0), {(0, 1): 1.0}),),
        n_train=500, step_size=0.25, seed=7))
    theta = transmit.config.gates[0].params[0] % math.pi
    theta_error = min(abs(theta - math.pi / 2), math.pi - abs(theta - math.pi / 2))
    transmit_ok = (transmit.final_loss < 0.01 and theta_error < 0.05
                   and len(transmit.loss_history) <= 500)

    classify = opt_config(OptProblem(
        template, (((1, 0), {(1, 0): 1.0}), ((0, 1), {(0, 1): 1.0})),
        n_train=500, step_size=0.25, seed=11))
    classify_ok = (classify.final_loss < 0.02
                   and len(classify.loss_history) <= 500)

    report(8, "optimizer recovery (seeds 7/11)", transmit_ok and classify_ok,
           f"transmission TV {transmit.final_loss:.2e} theta err "
           f"{theta_error:.3f}; classifier TV {classify.final_loss:.2e}")


MALFORMED_DOCUMENTS = [
    ("json syntax", '{"modes": 2, "posn": [', DocumentSyntaxError),
    ("missing top-level key", '{"modes": 2, "posn": []}', DocumentKeyError),
    ("unknown key", '{"modes": 2, "posn": [], "config": [], "x": 0}',
     DocumentKeyError),
    ("missing param key",
     '{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": 0}]}', DocumentKeyError),
    ("non-integer mode",
     '{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1.5]}], '
     '"config": [{"name": "MG", "theta": 0, "phi": 0}]}', DocumentTypeError),
    ("non-real parameter",
     '{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": "x", "phi": 0}]}', DocumentTypeError),
    ("unknown gate type",
     '{"modes": 2, "posn": [{"name": "ZZ", "modes": [0]}], '
     '"config": [{"name": "ZZ", "phi": 0}]}', DocumentTypeError),
    ("posn/config length mismatch",
     '{"modes": 2, "posn": [{"name": "P", "modes": [0]}], "config": []}',
     DocumentAlignmentError),
    ("gate-type alignment",
     '{"modes": 2, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "P", "phi": 0}]}', DocumentAlignmentError),
    ("duplicate modes",
     '{"modes": 2, "posn": [{"name": "MG", "modes": [0, 0]}], '
     '"config": [{"name": "MG", "theta": 0, "phi": 0}]}', StaticSemanticsError),
    ("mode out of range",
     '{"modes": 1, "posn": [{"name": "MG", "modes": [0, 1]}], '
     '"config": [{"name": "MG", "theta": 0, "phi": 0}]}', StaticSemanticsError),
]


def test_criterion_9_round_trip_and_rejection():
    round_trip_ok = all(
        parse_circuit(serialize_circuit(c)) == c
        for c in circuit_corpus(seed=67, count=200, max_modes=5, max_gates=5,
                                min_modes=1))
    rejected = 0
    for name, text, error in MALFORMED_DOCUMENTS:
        try:
            # the parser rejects document errors; the static rules reject the rest
            check_structure(parse_circuit(text)).raise_if_violated()
        except error:
            rejected += 1
        except Exception:  # wrong class counts as failure
            pass
    report(9, "document round-trip and rejection",
           round_trip_ok and rejected == len(MALFORMED_DOCUMENTS),
           f"200 round-trips, {rejected}/{len(MALFORMED_DOCUMENTS)} "
           f"malformed classes rejected")


def test_criterion_10_cli_golden_runs(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "boskit", *args],
                              capture_output=True, text=True)

    check = run("check", str(FIXTURES / "hom.bosc"), str(FIXTURES / "hom.bosin"))
    check_ok = check.returncode == 0 and check.stdout == "OK\n"

    pmf_out = tmp_path / "hom.bospmf"
    evaled = run("eval", str(FIXTURES / "hom.bosc"), str(FIXTURES / "hom.bosin"),
                 "--out", str(pmf_out))
    eval_ok = (evaled.returncode == 0
               and evaled.stdout == (GOLDEN / "eval_stdout.txt").read_text()
               and pmf_out.read_bytes() == (GOLDEN / "hom.bospmf").read_bytes())

    shots_out = tmp_path / "hom.boshots"
    sampled = run("sample", str(FIXTURES / "hom.bosc"), str(FIXTURES / "hom.bosin"),
                  "--shots", "20", "--seed", "7", "--out", str(shots_out))
    sample_ok = (sampled.returncode == 0 and shots_out.read_bytes()
                 == (GOLDEN / "hom_seed7.boshots").read_bytes())

    learned_out = tmp_path / "learned.bosc"
    trace_out = tmp_path / "trace.csv"
    optimized = run("optimize", str(FIXTURES / "template.bosc"),
                    str(FIXTURES / "transmit_pairs.json"),
                    "--iters", "200", "--seed", "7",
                    "--out", str(learned_out), "--trace", str(trace_out))
    optimize_ok = (optimized.returncode == 0
                   and optimized.stdout == (GOLDEN / "optimize_stdout.txt").read_text()
                   and learned_out.read_bytes() == (GOLDEN / "learned.bosc").read_bytes()
                   and trace_out.read_bytes() == (GOLDEN / "trace.csv").read_bytes())

    report(10, "CLI golden-file runs byte-identical",
           check_ok and eval_ok and sample_ok and optimize_ok,
           f"check={check_ok} eval={eval_ok} sample={sample_ok} "
           f"optimize={optimize_ok}")
