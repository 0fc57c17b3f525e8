"""Per-gate transfer matrices for the four gate types.

Gate matrices map input-mode amplitudes to output-mode amplitudes
(column index = input mode, row index = output mode).  The two lossy
mixer variants are 4x4: rows/columns 0-1 are the observed modes, 2-3
are the unobserved loss modes that the circuit assembler allocates.
`GateType` is the one table of what each gate type is: each member
carries its mode counts, its parameters with their ranges, and its
matrix builder.  The builders check nothing; `gate_matrix`, the one
public builder, runs `param_violations` once and then builds.  Mode
placement is the circuit's concern: `boskit.circuit` owns the R2 and R3
rules.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import is_real


@dataclass(frozen=True)
class Param:
    """A gate parameter's name and the closed range its value must lie in."""

    name: str
    lo: float = -math.inf
    hi: float = math.inf


def _phase(phi: float) -> np.ndarray:
    """P: 1x1 phase-shifter matrix [e^{i phi}]."""
    return np.array([[np.exp(1j * phi)]], dtype=complex)


def _mixer(theta: float, phi: float) -> np.ndarray:
    """MG: 2x2 mixer (beam-splitter) matrix.

    Transmission amplitude t = cos(theta), reflection amplitude
    r = e^{-i phi} sin(theta), arranged as [[t, r], [-r*, t]].
    """
    t = math.cos(theta)
    r = np.exp(-1j * phi) * math.sin(theta)
    return np.array([[t, r], [-np.conj(r), t]], dtype=complex)


def _loss_coupler(eta: float, observed: int, loss: int) -> np.ndarray:
    """4x4 identity with a real beam splitter on (observed, loss)."""
    a = math.sqrt(eta)
    b = math.sqrt(1.0 - eta)
    u = np.eye(4, dtype=complex)
    u[observed, observed] = a
    u[observed, loss] = b
    u[loss, observed] = -b
    u[loss, loss] = a
    return u


def _mixer_lossy_uncorrelated(theta: float, phi: float,
                              eta1: float, eta2: float) -> np.ndarray:
    """MGL1: 4x4 mixer with independent per-arm loss.

    Each observed arm passes through its own loss coupler before the
    ideal mixer: arm 0 couples to loss mode 2 with transmissivity eta1,
    arm 1 to loss mode 3 with eta2.  The result is
    blockdiag(M, I_2) . L1 . L2, unitary for any parameters in range.
    """
    mixer = np.eye(4, dtype=complex)
    mixer[:2, :2] = _mixer(theta, phi)
    return mixer @ _loss_coupler(eta1, 0, 2) @ _loss_coupler(eta2, 1, 3)


def _mixer_lossy_correlated(theta: float, phi: float, eta: float) -> np.ndarray:
    """MGL2: 4x4 mixer whose two arms lose photons through one shared process.

    Block form [[a M, b M], [-b M, a M]] with a = sqrt(eta),
    b = sqrt(1 - eta) and M the ideal mixer: the surviving and lost
    light both pass through the same mixing process, so the loss is
    maximally correlated between the arms.  Unitary because
    a^2 + b^2 = 1 and M is unitary.
    """
    m = _mixer(theta, phi)
    a = math.sqrt(eta)
    b = math.sqrt(1.0 - eta)
    u = np.empty((4, 4), dtype=complex)
    u[:2, :2] = a * m
    u[:2, 2:] = b * m
    u[2:, :2] = -b * m
    u[2:, 2:] = a * m
    return u


class GateType(enum.Enum):
    """Gate vocabulary and gate table; values are the names used in circuit documents.

    Each member carries `n_modes` (observed modes it acts on),
    `n_loss_modes` (private unobserved modes it introduces), `params`,
    `param_names` and `build`, the unchecked matrix builder.  Angles are
    unbounded; the etas are transmissivities and lie in [0, 1].
    """

    n_modes: int
    n_loss_modes: int
    params: tuple[Param, ...]
    param_names: tuple[str, ...]
    build: Callable[..., np.ndarray]

    def __new__(cls, name: str, n_modes: int, n_loss_modes: int,
                params: tuple[Param, ...], build: Callable[..., np.ndarray]):
        member = object.__new__(cls)
        member._value_ = name
        member.n_modes = n_modes
        member.n_loss_modes = n_loss_modes
        member.params = params
        member.param_names = tuple(p.name for p in params)
        member.build = build
        return member

    PHASE = ("P", 1, 0, (Param("phi"),), _phase)
    MIXER = ("MG", 2, 0, (Param("theta"), Param("phi")), _mixer)
    MIXER_LOSSY_UNCORRELATED = (
        "MGL1", 2, 2, (Param("theta"), Param("phi"),
                       Param("eta1", 0.0, 1.0), Param("eta2", 0.0, 1.0)),
        _mixer_lossy_uncorrelated)
    MIXER_LOSSY_CORRELATED = (
        "MGL2", 2, 2, (Param("theta"), Param("phi"), Param("eta", 0.0, 1.0)),
        _mixer_lossy_correlated)


def param_violations(gate_type: GateType, values: Sequence[float]) -> list[str]:
    """Why `values` is not a valid parameter list for `gate_type` (empty if it is)."""
    params = gate_type.params
    if len(values) != len(params):
        return [f"{gate_type.value} takes {len(params)} parameter(s) "
                f"({', '.join(gate_type.param_names)}), got {len(values)}"]
    found = []
    for param, value in zip(params, values):
        if not is_real(value):
            found.append(f"parameter {param.name} must be a real number, got {value!r}")
        elif not math.isfinite(value):
            found.append(f"parameter {param.name} must be finite, got {value}")
        elif not param.lo <= value <= param.hi:
            found.append(f"parameter {param.name} must lie in "
                         f"[{param.lo:g}, {param.hi:g}], got {value}")
    return found


def gate_matrix(gate_type: GateType, params: tuple[float, ...]) -> np.ndarray:
    """Build the matrix for `gate_type` from its parameter list.

    Each gate type's matrix is defined on its builder, `gate_type.build`.
    Raises ValueError, naming the first problem `param_violations`
    finds, on a wrong parameter count, a value that is not a real
    number, or an out-of-range value.
    """
    problems = param_violations(gate_type, params)
    if problems:
        raise ValueError(problems[0])
    return gate_type.build(*params)
