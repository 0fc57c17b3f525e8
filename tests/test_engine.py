import math

import numpy as np
import pytest

import boskit.engine
import boskit.fock
from boskit.circuit import Circuit, GateSpec, StaticSemanticsError, assemble_transfer_matrix
from boskit.engine import (PermanentSizeError, distance_l2, distance_tv,
                           output_amplitude, permanent, pmf_mass, prob_fn)
from boskit.fock import EnumerationCapError, enumerate_fock_states
from boskit.gates import GateType, gate_matrix
from boskit.sampler import rng_from_seed

from oracles import (LOSSLESS_TYPES, brute_force_pmf, circuit_corpus,
                     naive_permanent, random_circuit)

LOSSY_TYPES = (GateType.MIXER_LOSSY_UNCORRELATED, GateType.MIXER_LOSSY_CORRELATED)


def mixer_circuit(theta, phi=0.0):
    return Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (theta, phi)),))


HOM = mixer_circuit(math.pi / 4)


# --- permanent -------------------------------------------------------------

def test_permanent_trivial_cases():
    assert permanent(np.zeros((0, 0))) == 1
    assert permanent(np.array([[2.5 - 1j]])) == 2.5 - 1j
    assert permanent(np.array([[1, 2], [3, 4]])) == pytest.approx(10)


@pytest.mark.parametrize("n", range(1, 8))
def test_permanent_all_ones_is_factorial(n):
    ones = np.ones((n, n))
    assert naive_permanent(ones) == pytest.approx(math.factorial(n))
    assert permanent(ones) == pytest.approx(math.factorial(n), rel=1e-12)


def test_permanent_matches_naive_oracle():
    rng = rng_from_seed(23)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = rng.random((n, n)) + 1j * rng.random((n, n)) - (0.5 + 0.5j)
        expected = naive_permanent(m)
        got = permanent(m)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_permanent_rejects_bad_shapes():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(PermanentSizeError):
        permanent(np.ones((31, 31)))


@pytest.mark.parametrize("n", range(8))
def test_batched_kernel_equals_permanent_bit_for_bit(n):
    rng = rng_from_seed(67 + n)
    for size in (1, 2, 5, 33):
        stack = (rng.standard_normal((size, n, n))
                 + 1j * rng.standard_normal((size, n, n)))
        batched = boskit.engine._permanents(stack)
        assert batched.shape == (size,)
        for matrix, value in zip(stack, batched):
            assert complex(value) == permanent(matrix)


def test_permanent_size_is_checked_before_the_loop(monkeypatch):
    def no_steps(n):
        raise AssertionError(f"started a {n}-column Gray-code loop")

    monkeypatch.setattr(boskit.engine, "_gray_code", no_steps)
    # 31 photons in one mode: one output state, a 31 x 31 permanent (2^31 steps)
    with pytest.raises(PermanentSizeError):
        prob_fn(Circuit(1), (31,))
    with pytest.raises(PermanentSizeError):
        permanent(np.ones((31, 31)))


def test_photon_total_is_checked_before_any_per_photon_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("did per-photon work before checking the photon total")

    for name in ("_mode_repeats", "_factorial_product", "enumerate_fock_states"):
        monkeypatch.setattr(boskit.engine, name, no_work)
    # 10^5 photons: unchecked, the gathered stack alone would need ~149 TiB
    with pytest.raises(PermanentSizeError):
        prob_fn(HOM, (100_000, 0))
    with pytest.raises(PermanentSizeError):
        output_amplitude(np.eye(2), (100_000, 0), (0, 100_000))


# --- output_amplitude ------------------------------------------------------

def test_amplitude_identity_matrix():
    eye = np.eye(2, dtype=complex)
    assert output_amplitude(eye, (1, 0), (1, 0)) == pytest.approx(1)
    assert output_amplitude(eye, (1, 0), (0, 1)) == pytest.approx(0)


def test_amplitude_hom_coincidence_vanishes():
    u = gate_matrix(GateType.MIXER, (math.pi / 4, 0.0))
    assert abs(output_amplitude(u, (1, 1), (1, 1))) < 1e-12


def test_amplitude_rejects_mismatches():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        output_amplitude(eye, (1, 0, 0), (1, 0))
    with pytest.raises(ValueError):
        output_amplitude(eye, (1, 0), (1, 1))
    with pytest.raises(ValueError):
        output_amplitude(np.ones((2, 3)), (1, 0), (1, 0))
    with pytest.raises(ValueError):
        output_amplitude(np.ones((3, 2)), (1, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        output_amplitude(np.zeros((0, 0)), (), ())
    with pytest.raises(ValueError):
        output_amplitude(eye, (1, -1), (0, 0))
    # fractional and boolean occupations break R5, as they do for prob_fn
    with pytest.raises(ValueError):
        output_amplitude(eye, (1.9, 0), (1, 0))
    with pytest.raises(ValueError):
        output_amplitude(eye, (0.5, 0.5), (0, 0))
    with pytest.raises(ValueError):
        output_amplitude(eye, (True, 0), (1, 0))


# --- prob_fn ---------------------------------------------------------------

def test_hom_bunching_pmf():
    # frozen from the brute-force amplitude-expansion oracle
    pmf = prob_fn(HOM, (1, 1))
    assert set(pmf) == {(2, 0), (1, 1), (0, 2)}
    assert pmf[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert pmf[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert pmf[(1, 1)] <= 1e-12


def test_prob_fn_matches_brute_force_oracle():
    for circuit in circuit_corpus(seed=31, count=25, max_modes=3, max_gates=3):
        u = assemble_transfer_matrix(circuit)
        input_state = (1,) * circuit.n_modes
        expected = brute_force_pmf(u, input_state + (0,) * circuit.n_loss_modes,
                                   circuit.n_modes)
        got = prob_fn(circuit, input_state)
        assert set(got) == set(expected)
        for state, p in expected.items():
            assert got[state] == pytest.approx(p, abs=1e-10)


def test_prob_fn_sums_output_amplitudes_bit_for_bit():
    # prob_fn batches the amplitude loop; on lossless circuits summing the
    # checked public amplitudes in enumeration order must give the very
    # same floats.  Lossy circuits go through loss-mode compression, which
    # changes the rounding but not the key set.
    rng = rng_from_seed(61)
    lossless = lossy = 0
    for circuit in circuit_corpus(seed=59, count=40, max_modes=4, max_gates=3):
        n_photons = int(rng.integers(0, 4))
        input_state = tuple(int(n) for n in rng.multinomial(
            n_photons, [1 / circuit.n_modes] * circuit.n_modes))
        u = assemble_transfer_matrix(circuit)
        extended_input = input_state + (0,) * circuit.n_loss_modes
        expected = {}
        for extended_output in enumerate_fock_states(n_photons, circuit.n_total_modes):
            key = extended_output[:circuit.n_modes]
            amp = output_amplitude(u, extended_input, extended_output)
            expected[key] = expected.get(key, 0.0) + abs(amp) ** 2
        got = prob_fn(circuit, input_state)
        if circuit.n_loss_modes == 0:
            assert got == expected
            lossless += 1
        else:
            assert list(got) == list(expected)
            assert all(abs(got[k] - p) <= 1e-14 for k, p in expected.items())
            lossy += 1
    assert lossless >= 10 and lossy >= 10


def _redrawn(circuit: Circuit, rng) -> Circuit:
    """The circuit with fresh parameters, so the transfer matrix keeps its layout."""
    return Circuit(circuit.n_modes, tuple(
        GateSpec(g.gate_type, g.modes,
                 tuple(float(rng.random()) * (1.0 if p.hi == 1.0 else 2 * math.pi)
                       for p in g.gate_type.params))
        for g in circuit.gates))


def test_stacked_evaluation_equals_one_matrix_at_a_time():
    # The optimizer evaluates each iteration's probes as one (K, M, M)
    # stack; every pmf must be the one its matrix gives alone, bit for bit
    # and key order included, however the stack is blocked.
    rng = rng_from_seed(73)
    cases = []
    for circuit in circuit_corpus(seed=79, count=30, max_modes=4, max_gates=5):
        photons = rng.integers(circuit.n_modes, size=int(rng.integers(4)))
        cases.append((circuit, tuple(int(n) for n in np.bincount(
            photons, minlength=circuit.n_modes)), int(rng.integers(2, 7))))
    # 4 photons, d = 3 occupied modes: a 6-mode compressed basis of 126
    # states, so 12 probes need 1512 > _BLOCK matrices and two blocks
    crossing = Circuit(3, (GateSpec(GateType.MIXER, (0, 1), (0.3, 0.2)),
                           GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (1, 2),
                                    (0.5, 0.1, 0.8, 0.6)),
                           GateSpec(GateType.MIXER, (0, 2), (0.9, 0.4)),
                           GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1), (0.7, 0.3, 0.7)),
                           GateSpec(GateType.MIXER, (1, 2), (1.1, 0.5))))
    cases.append((crossing, (2, 1, 1), 12))
    assert 12 * len(enumerate_fock_states(4, 6)) > boskit.engine._BLOCK
    for circuit, input_state, k in cases:
        us = np.stack([assemble_transfer_matrix(_redrawn(circuit, rng)) for _ in range(k)])
        stacked = boskit.engine._evaluate(us, circuit.n_modes, input_state)
        alone = [boskit.engine._evaluate(u[np.newaxis], circuit.n_modes, input_state)[0]
                 for u in us]
        assert [list(pmf.items()) for pmf in stacked] == [list(pmf.items()) for pmf in alone]


def test_compressed_loss_modes_match_brute_force_oracle():
    # 6-8 lossy gates own 12-16 loss modes, far more than the <= 3
    # occupied input modes, so compression drops most of them
    rng = rng_from_seed(71)
    for _ in range(8):
        circuit = random_circuit(rng, 3, int(rng.integers(6, 9)), LOSSY_TYPES)
        n_photons = int(rng.integers(1, 4))
        input_state = tuple(int(n) for n in rng.multinomial(n_photons, [1 / 3] * 3))
        u = assemble_transfer_matrix(circuit)
        expected = brute_force_pmf(u, input_state + (0,) * circuit.n_loss_modes, 3)
        got = prob_fn(circuit, input_state)
        assert set(got) == set(expected)
        for state, p in expected.items():
            assert abs(got[state] - p) <= 1e-12


def test_basis_spans_observed_plus_compressed_loss_modes(monkeypatch):
    calls = []

    def recording(n_photons, n_modes):
        calls.append(n_modes)
        return enumerate_fock_states(n_photons, n_modes)

    monkeypatch.setattr(boskit.engine, "enumerate_fock_states", recording)
    mesh = [GateSpec(GateType.MIXER, modes, (0.4, 0.2))
            for modes in ((0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2))]
    lossy = [GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1), (0.3, 0.1, 0.8)),
             GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (1, 2), (0.5, 0.2, 0.9, 0.7))]
    # the eval-lossy structure: 4 modes, 6 lossy mixers (L = 12), d = 3
    eval_lossy = Circuit(4, tuple(mesh + lossy * 3))
    one_lossy = Circuit(3, (lossy[0],))  # L = 2 < d = 3
    cases = [(eval_lossy, (1, 1, 1, 0), 4 + 3),
             (eval_lossy, (2, 0, 0, 0), 4 + 1),
             (eval_lossy, (0, 0, 0, 0), 4 + 0),
             (one_lossy, (1, 1, 1), 3 + 2),
             (Circuit(4, tuple(mesh)), (1, 1, 1, 0), 4)]
    for circuit, input_state, n_modes in cases:
        calls.clear()
        pmf = prob_fn(circuit, input_state)
        assert calls == [n_modes]
        assert pmf_mass(pmf) == pytest.approx(1.0, abs=1e-12)
    assert eval_lossy.n_total_modes == 16


def test_lossless_limit_of_uncorrelated_equals_ideal():
    lossy = Circuit(2, (GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (0, 1),
                                 (0.8, 1.9, 1.0, 1.0)),))
    ideal = mixer_circuit(0.8, 1.9)
    p_lossy = prob_fn(lossy, (1, 1))
    p_ideal = prob_fn(ideal, (1, 1))
    for state in set(p_lossy) | set(p_ideal):
        assert p_lossy.get(state, 0.0) == pytest.approx(
            p_ideal.get(state, 0.0), abs=1e-12)


def test_full_loss_concentrates_on_vacuum():
    c = Circuit(2, (GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1),
                             (0.8, 1.9, 0.0)),))
    pmf = prob_fn(c, (2, 1))
    assert pmf[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert pmf_mass(pmf) == pytest.approx(1.0, abs=1e-9)


def test_normalisation_and_conservation_lossless_corpus():
    rng = rng_from_seed(47)
    for circuit in circuit_corpus(seed=53, count=200, max_modes=4,
                                  max_gates=4, gate_types=LOSSLESS_TYPES):
        n_photons = int(rng.integers(1, 4))
        input_state = tuple(int(n) for n in
                            rng.multinomial(n_photons, [1 / circuit.n_modes]
                                            * circuit.n_modes))
        pmf = prob_fn(circuit, input_state)
        assert pmf_mass(pmf) == pytest.approx(1.0, abs=1e-9)
        assert all(sum(state) == n_photons for state in pmf)
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in pmf.values())


def test_lossy_pmf_sums_to_one_with_smaller_totals():
    c = Circuit(2, (
        GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (0, 1), (0.7, 0.2, 0.6, 0.9)),
        GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1), (1.1, 0.4, 0.5)),
    ))
    pmf = prob_fn(c, (1, 2))
    assert pmf_mass(pmf) == pytest.approx(1.0, abs=1e-9)
    totals = {sum(state) for state, p in pmf.items() if p > 1e-12}
    assert totals == {0, 1, 2, 3}


def test_threshold_drops_entries_without_changing_retained():
    base = prob_fn(HOM, (1, 1))
    seen_sizes = []
    for threshold in (0.0, 0.1, 0.6):
        pmf = prob_fn(HOM, (1, 1), threshold=threshold)
        assert all(p >= threshold for p in pmf.values())
        for state, p in pmf.items():
            assert p == base[state]
        seen_sizes.append(len(pmf))
    assert seen_sizes == sorted(seen_sizes, reverse=True)
    assert seen_sizes[-1] == 0  # both 0.5 entries fall below 0.6


def test_phase_gate_leaves_probabilities_unchanged():
    with_phase = Circuit(2, (GateSpec(GateType.PHASE, (0,), (1.3,)),
                             GateSpec(GateType.MIXER, (0, 1), (0.7, 0.4)),))
    without = Circuit(2, (GateSpec(GateType.PHASE, (0,), (0.0,)),
                          GateSpec(GateType.MIXER, (0, 1), (0.7, 0.4)),))
    p1 = prob_fn(with_phase, (1, 0))
    p2 = prob_fn(without, (1, 0))
    for state in set(p1) | set(p2):
        assert p1.get(state, 0.0) == pytest.approx(p2.get(state, 0.0), abs=1e-12)


def test_prob_fn_rejects_malformed_and_oversized(monkeypatch):
    with pytest.raises(StaticSemanticsError):
        prob_fn(mixer_circuit(0.5), (1, 1, 1))

    def no_states(*args):
        raise AssertionError("built states before checking the cap")

    monkeypatch.setattr(boskit.fock, "_fill_states", no_states)
    # 30 photons in 40 modes: C(69, 39) ~ 3e19 states, far above the 10^7 cap
    with pytest.raises(EnumerationCapError):
        prob_fn(Circuit(40), (1,) * 30 + (0,) * 10)


@pytest.mark.parametrize("threshold", [1.0, -0.1, math.nan])
def test_prob_fn_threshold_validation(threshold):
    with pytest.raises(ValueError, match="threshold must lie in"):
        prob_fn(HOM, (1, 1), threshold=threshold)


# --- distances -------------------------------------------------------------

def test_distance_tv_basic():
    p = {(1,): 1.0}
    q = {(0,): 1.0}
    assert distance_tv(p, p) == 0.0
    assert distance_tv(p, q) == 1.0
    assert distance_tv({(1,): 0.5, (0,): 0.5}, {(1,): 1.0}) == pytest.approx(0.5)


def test_distance_l2_basic():
    assert distance_l2({(1,): 1.0}, {(1,): 1.0}) == 0.0
    assert distance_l2({(1,): 1.0}, {(0,): 1.0}) == pytest.approx(math.sqrt(2))


def test_distance_rejects_mode_count_mismatch():
    with pytest.raises(ValueError):
        distance_tv({(1,): 1.0}, {(1, 0): 1.0})
