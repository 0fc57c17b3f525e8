import math

import numpy as np
import pytest

from boskit.circuit import (Circuit, GateSpec, StaticSemanticsError,
                            assemble_transfer_matrix, check_static,
                            check_structure, loss_mode_layout)
from boskit.gates import GateType, gate_matrix

from oracles import ALL_TYPES, circuit_corpus


def mg(m0, m1, theta=0.5, phi=0.3):
    return GateSpec(GateType.MIXER, (m0, m1), (theta, phi))


def test_check_static_accepts_well_formed():
    c = Circuit(2, (mg(0, 1),))
    assert check_static(c, (1, 1)).ok


def test_r1_input_length():
    c = Circuit(3, (mg(0, 1),))
    diags = check_static(c, (1, 1))
    assert not diags.ok
    assert [v.rule for v in diags.violations] == ["R1"]


def test_r2_duplicate_modes():
    c = Circuit(2, (GateSpec(GateType.MIXER, (0, 0), (0.5, 0.3)),))
    diags = check_static(c, (1, 1))
    assert [v.rule for v in diags.violations] == ["R2"]
    assert diags.violations[0].gate_index == 0


def test_r2_wrong_mode_count():
    c = Circuit(2, (GateSpec(GateType.PHASE, (0, 1), (0.5,)),))
    assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R2"]


def test_r3_mode_out_of_range():
    c = Circuit(2, (mg(0, 2),))
    assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R3"]
    # modes that are not non-negative integers are refused, not truncated
    for modes in ((0, 1.9), (True, 0)):
        c = Circuit(2, (mg(*modes),))
        assert c.gates[0].modes == modes
        assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R3"]
        assert [v.rule for v in check_structure(c).violations] == ["R3"]
    assert [v.rule for v in check_structure(Circuit(2.5)).violations] == ["R3"]
    bad_count = Circuit("2", (GateSpec(GateType.PHASE, (0,), (0.1,)),))
    assert [v.rule for v in check_structure(bad_count).violations] == ["R3"]
    assert "R3" in {v.rule for v in check_static(Circuit(2.5), (1, 1)).violations}


def test_r4_param_arity_and_range():
    c = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (0.5,)),))
    assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R4"]
    c = Circuit(2, (GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 1),
                             (0.5, 0.3, 1.5)),))
    assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R4"]
    c = Circuit(2, (GateSpec(GateType.MIXER, (0, 1), (math.nan, 0.0)),))
    assert [v.rule for v in check_static(c, (1, 1)).violations] == ["R4"]
    # values that are not real numbers are refused, not converted
    for value in ("0.5", True, 1 + 0j):
        c = Circuit(1, (GateSpec(GateType.PHASE, (0,), (value,)),))
        assert c.gates[0].params == (value,)
        assert [v.rule for v in check_static(c, (1,)).violations] == ["R4"]
        assert [v.rule for v in check_structure(c).violations] == ["R4"]
        with pytest.raises(ValueError, match="must be a real number"):
            gate_matrix(GateType.PHASE, (value,))
    c = Circuit(1, (GateSpec(GateType.PHASE, (0,), (np.float64(0.5),)),
                    GateSpec(GateType.PHASE, (0,), (1,))))
    assert check_structure(c).ok


def test_r5_negative_and_fractional_input():
    c = Circuit(2, (mg(0, 1),))
    assert [v.rule for v in check_static(c, (1, -1)).violations] == ["R5"]
    assert [v.rule for v in check_static(c, (1.5, 1)).violations] == ["R5"]


def test_check_static_collects_multiple_violations():
    c = Circuit(2, (GateSpec(GateType.MIXER, (0, 0), (0.5,)),))
    rules = {v.rule for v in check_static(c, (1,)).violations}
    assert rules == {"R1", "R2", "R4"}


def test_assemble_mode_order_is_conjugation_by_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    forward = assemble_transfer_matrix(Circuit(2, (mg(0, 1, 0.7, 1.2),)))
    flipped = assemble_transfer_matrix(Circuit(2, (mg(1, 0, 0.7, 1.2),)))
    assert np.allclose(flipped, swap @ forward @ swap, rtol=0, atol=1e-10)
    # a full-reflection mixer on non-adjacent modes leaves the middle one alone
    corners = assemble_transfer_matrix(Circuit(3, (mg(0, 2, math.pi / 2, 0.0),)))
    expected = np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=complex)
    assert np.allclose(corners, expected, rtol=0, atol=1e-10)


def test_assemble_empty_circuit_is_identity():
    assert np.allclose(assemble_transfer_matrix(Circuit(3)), np.eye(3),
                       rtol=0, atol=1e-10)


def test_assemble_single_mixer_reproduces_reference():
    c = Circuit(2, (mg(0, 1, math.pi / 4, 2 * math.pi / 3),))
    assert np.allclose(assemble_transfer_matrix(c),
                       gate_matrix(GateType.MIXER, (math.pi / 4, 2 * math.pi / 3)),
                       rtol=0, atol=1e-10)


def test_assemble_angle_addition():
    # two successive mixers at theta compose like one mixer at 2*theta
    twice = Circuit(2, (mg(0, 1, math.pi / 4, 0.0), mg(0, 1, math.pi / 4, 0.0)))
    once = Circuit(2, (mg(0, 1, math.pi / 2, 0.0),))
    assert np.allclose(assemble_transfer_matrix(twice),
                       assemble_transfer_matrix(once), rtol=0, atol=1e-10)


def test_assemble_order_matters():
    g1 = mg(0, 1, 0.7, 0.0)
    g2 = GateSpec(GateType.PHASE, (0,), (1.1,))
    ab = assemble_transfer_matrix(Circuit(2, (g1, g2)))
    ba = assemble_transfer_matrix(Circuit(2, (g2, g1)))
    assert not np.allclose(ab, ba, rtol=0, atol=1e-10)
    assert np.allclose(assemble_transfer_matrix(Circuit(2, (g1,))),
                       gate_matrix(GateType.MIXER, (0.7, 0.0)), rtol=0, atol=1e-10)


def test_assemble_rejects_malformed():
    with pytest.raises(StaticSemanticsError) as err:
        assemble_transfer_matrix(Circuit(2, (mg(0, 0),)))
    assert not err.value.diagnostics.ok
    with pytest.raises(StaticSemanticsError):
        assemble_transfer_matrix(Circuit(2.5))


def test_loss_mode_layout_and_dimension():
    c = Circuit(3, (
        mg(0, 1),
        GateSpec(GateType.MIXER_LOSSY_UNCORRELATED, (1, 2), (0.1, 0.2, 0.9, 0.8)),
        GateSpec(GateType.MIXER_LOSSY_CORRELATED, (0, 2), (0.1, 0.2, 0.5)),
    ))
    assert c.n_loss_modes == 4
    assert loss_mode_layout(c) == [(), (3, 4), (5, 6)]
    assert assemble_transfer_matrix(c).shape == (7, 7)


def test_corpus_transfer_matrices_unitary():
    for circuit in circuit_corpus(seed=101, count=200, max_modes=5,
                                  max_gates=6, gate_types=ALL_TYPES):
        assert check_structure(circuit).ok
        u = assemble_transfer_matrix(circuit)
        n = circuit.n_modes + 2 * sum(
            1 for g in circuit.gates if g.gate_type.n_loss_modes)
        assert u.shape == (n, n)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10
