import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boskit.gates import GateType, gate_matrix

MGL1 = GateType.MIXER_LOSSY_UNCORRELATED
MGL2 = GateType.MIXER_LOSSY_CORRELATED

# Printed reference output for the MG matrix at (pi/4, 2*pi/3), 8 decimals.
MIXER_REFERENCE = np.array([
    [0.70710678 + 0.0j, -0.35355339 - 0.61237244j],
    [0.35355339 - 0.61237244j, 0.70710678 + 0.0j],
])

ANGLES = [k * math.pi / 6 for k in range(13)]  # 0 .. 2*pi
ETAS = [0.0, 0.25, 0.5, 0.75, 1.0]


def unitary_defect(u):
    return np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))


def test_mixer_matches_reference_output():
    assert np.max(np.abs(gate_matrix(GateType.MIXER, (math.pi / 4, 2 * math.pi / 3))
                         - MIXER_REFERENCE)) < 1e-8


@pytest.mark.parametrize("phi, expected", [
    (0.0, 1.0 + 0.0j),
    (math.pi, -1.0 + 0.0j),
    (math.pi / 2, 0.0 + 1.0j),
])
def test_phase_gate_values(phi, expected):
    m = gate_matrix(GateType.PHASE, (phi,))
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - expected) < 1e-12
    assert abs(abs(m[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 1.3, 5.0])
def test_mixer_theta_zero_is_identity(phi):
    assert np.allclose(gate_matrix(GateType.MIXER, (0.0, phi)), np.eye(2),
                       rtol=0, atol=1e-10)


def test_mixer_full_reflection():
    assert np.allclose(gate_matrix(GateType.MIXER, (math.pi / 2, 0.0)),
                       np.array([[0, 1], [-1, 0]], dtype=complex), rtol=0, atol=1e-10)


@pytest.mark.parametrize("theta", ANGLES)
@pytest.mark.parametrize("phi", [0.0, math.pi / 3, 1.7])
def test_mixer_amplitudes_normalised(theta, phi):
    m = gate_matrix(GateType.MIXER, (theta, phi))
    assert abs(abs(m[0, 0]) ** 2 + abs(m[0, 1]) ** 2 - 1.0) < 1e-12


def test_gate_builders_reject_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            gate_matrix(GateType.PHASE, (bad,))
        with pytest.raises(ValueError):
            gate_matrix(GateType.MIXER, (bad, 0.0))
        with pytest.raises(ValueError):
            gate_matrix(MGL2, (0.0, bad, 1.0))


@pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan])
def test_lossy_builders_reject_bad_transmissivity(eta):
    with pytest.raises(ValueError):
        gate_matrix(MGL1, (0.3, 0.1, eta, 0.5))
    with pytest.raises(ValueError):
        gate_matrix(MGL1, (0.3, 0.1, 0.5, eta))
    with pytest.raises(ValueError):
        gate_matrix(MGL2, (0.3, 0.1, eta))


@pytest.mark.parametrize("theta", ANGLES)
@pytest.mark.parametrize("phi", [0.0, 2 * math.pi / 3])
@pytest.mark.parametrize("eta", ETAS)
def test_lossy_gates_unitary_over_grid(theta, phi, eta):
    assert unitary_defect(gate_matrix(MGL1, (theta, phi, eta, 1 - eta))) < 1e-10
    assert unitary_defect(gate_matrix(MGL2, (theta, phi, eta))) < 1e-10


angle = st.floats(min_value=-1e6, max_value=1e6)
eta = st.floats(min_value=0.0, max_value=1.0)


@given(theta=angle, phi=angle, eta1=eta, eta2=eta)
def test_all_builders_unitary_for_arbitrary_parameters(theta, phi, eta1, eta2):
    assert unitary_defect(gate_matrix(GateType.PHASE, (phi,))) < 1e-10
    assert unitary_defect(gate_matrix(GateType.MIXER, (theta, phi))) < 1e-10
    assert unitary_defect(gate_matrix(MGL1, (theta, phi, eta1, eta2))) < 1e-10
    assert unitary_defect(gate_matrix(MGL2, (theta, phi, eta1))) < 1e-10


@pytest.mark.parametrize("theta, phi", [(0.4, 1.1), (math.pi / 4, 2 * math.pi / 3)])
def test_uncorrelated_no_loss_limit(theta, phi):
    u = gate_matrix(MGL1, (theta, phi, 1.0, 1.0))
    expected = np.eye(4, dtype=complex)
    expected[:2, :2] = gate_matrix(GateType.MIXER, (theta, phi))
    assert np.allclose(u, expected, rtol=0, atol=1e-10)


def test_uncorrelated_full_loss_empties_observed_block():
    u = gate_matrix(MGL1, (0.7, 0.3, 0.0, 0.0))
    assert np.max(np.abs(u[:2, :2])) < 1e-12


def test_uncorrelated_half_loss_unitary():
    u = gate_matrix(MGL1, (math.pi / 4, 0.0, 0.5, 0.5))
    assert unitary_defect(u) < 1e-10


def test_correlated_no_loss_limit():
    m = gate_matrix(GateType.MIXER, (0.9, 0.2))
    u = gate_matrix(MGL2, (0.9, 0.2, 1.0))
    assert np.allclose(u[:2, :2], m, rtol=0, atol=1e-10)
    assert np.max(np.abs(u[:2, 2:])) < 1e-12
    assert np.max(np.abs(u[2:, :2])) < 1e-12
    assert np.allclose(u[2:, 2:], m, rtol=0, atol=1e-10)


def test_correlated_full_loss_empties_observed_block():
    u = gate_matrix(MGL2, (0.9, 0.2, 0.0))
    assert np.max(np.abs(u[:2, :2])) < 1e-12


def test_correlated_observed_block_scales_reference():
    # sqrt(0.36) = 0.6 exactly, so the observed block is 0.6 x the
    # reference mixer matrix
    u = gate_matrix(MGL2, (math.pi / 4, 2 * math.pi / 3, 0.36))
    assert np.max(np.abs(u[:2, :2] - 0.6 * MIXER_REFERENCE)) < 1e-8


def test_gate_matrix_dispatch_and_arity():
    assert np.allclose(gate_matrix(GateType.PHASE, (0.0,)), np.eye(1),
                       rtol=0, atol=1e-10)
    assert gate_matrix(MGL2, (0.1, 0.2, 0.9)).shape == (4, 4)
    with pytest.raises(ValueError):
        gate_matrix(GateType.MIXER, (0.1,))
    with pytest.raises(ValueError):
        gate_matrix(GateType.PHASE, (0.1, 0.2))
    for t in GateType:
        assert GateType(t.value) is t
        assert t.param_names == tuple(p.name for p in t.params)
        p = tuple(0.3 if math.isfinite(param.hi) else 1.1 for param in t.params)
        u = t.build(*p)
        assert u.tobytes() == gate_matrix(t, p).tobytes()
        assert u.shape == (t.n_modes + t.n_loss_modes,) * 2
