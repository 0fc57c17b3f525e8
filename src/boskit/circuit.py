"""Circuits: gate placement, static well-formedness checks, transfer matrix.

A Circuit is an ordered list of gates on a fixed number of observed
modes; list order is temporal order (the first gate acts first).  Lossy
gates each own two private loss modes, allocated in gate order after the
observed modes, so the assembled transfer matrix acts on
n_modes + 2 * (number of lossy gates) modes in a reproducible layout.

Circuits are plain data and may be constructed in malformed states;
`check_static` and its input-independent subset `check_structure` are
the one home of the rules R1-R5 (R3 and R4 included: `GateSpec` keeps
modes and params as given) and return diagnostics instead of raising.
The public `assemble_transfer_matrix` runs `check_structure` and raises
`StaticSemanticsError` carrying its diagnostics; the internal
`_assemble` assumes a circuit that has already passed those checks.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import is_occupation
from .gates import GateType, param_violations


@dataclass(frozen=True)
class GateSpec:
    """A gate type with its observed-mode positions and parameter values."""

    gate_type: GateType
    modes: tuple[int, ...]
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True)
class Circuit:
    n_modes: int
    gates: tuple[GateSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def n_loss_modes(self) -> int:
        return sum(g.gate_type.n_loss_modes for g in self.gates)

    @property
    def n_total_modes(self) -> int:
        return self.n_modes + self.n_loss_modes


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    gate_index: int = -1  # -1 when the violation is not tied to one gate

    def __str__(self):
        where = f" (gate {self.gate_index})" if self.gate_index >= 0 else ""
        return f"{self.rule}{where}: {self.message}"


@dataclass(frozen=True)
class StaticDiagnostics:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        """Raise StaticSemanticsError carrying these diagnostics unless ok."""
        if self.violations:
            raise StaticSemanticsError(self)


class StaticSemanticsError(ValueError):
    """Raised by operations whose meaning is undefined on malformed circuits."""

    def __init__(self, diagnostics: StaticDiagnostics):
        self.diagnostics = diagnostics
        lines = "; ".join(str(v) for v in diagnostics.violations)
        super().__init__(f"static semantics violated: {lines}")


def _structural_violations(circuit: Circuit) -> list[Violation]:
    found: list[Violation] = []
    count_ok = is_occupation(circuit.n_modes) and circuit.n_modes >= 1
    if not count_ok:
        found.append(Violation(
            "R3", f"circuit must have a positive integer number of modes, "
                  f"got {circuit.n_modes}"))
    for i, gate in enumerate(circuit.gates):
        arity = gate.gate_type.n_modes
        if len(gate.modes) != arity or len(set(gate.modes)) != len(gate.modes):
            found.append(Violation(
                "R2",
                f"{gate.gate_type.value} must act on exactly {arity} distinct "
                f"mode(s), got {list(gate.modes)}", i))
        for m in gate.modes:
            if not is_occupation(m) or (count_ok and m >= circuit.n_modes):
                found.append(Violation(
                    "R3",
                    f"mode index {m} is not an integer in [0, {circuit.n_modes})", i))
        found.extend(Violation("R4", problem, i)
                     for problem in param_violations(gate.gate_type, gate.params))
    return found


def check_static(circuit: Circuit, input_state: Sequence[int]) -> StaticDiagnostics:
    """Run all static well-formedness rules; never raises.

    Rules: R1 input length equals the mode count; R2 gates act on the
    right number of distinct modes; R3 the mode count is a positive
    integer and every mode index an integer in range; R4
    parameter arity, and each parameter a finite real number (not a
    bool) within its gate type's range; R5 input
    occupations are non-negative integers.
    """
    found = _structural_violations(circuit)
    if len(input_state) != circuit.n_modes:
        found.append(Violation(
            "R1",
            f"input has {len(input_state)} mode(s) but the circuit has "
            f"{circuit.n_modes}"))
    for m, n in enumerate(input_state):
        if not is_occupation(n):
            found.append(Violation(
                "R5",
                f"input occupation for mode {m} must be a non-negative "
                f"integer, got {n!r}"))
    return StaticDiagnostics(tuple(found))


def check_structure(circuit: Circuit) -> StaticDiagnostics:
    """Input-independent subset of `check_static` (rules R2-R4)."""
    return StaticDiagnostics(tuple(_structural_violations(circuit)))


def loss_mode_layout(circuit: Circuit) -> list[tuple[int, ...]]:
    """Loss-mode indices per gate, allocated in gate order after the observed modes."""
    layout = []
    next_free = circuit.n_modes
    for gate in circuit.gates:
        k = gate.gate_type.n_loss_modes
        layout.append(tuple(range(next_free, next_free + k)))
        next_free += k
    return layout


def assemble_transfer_matrix(circuit: Circuit) -> np.ndarray:
    """Compose the gate matrices into the circuit transfer matrix.

    Returns an M x M unitary with M = n_modes + 2 * (lossy gate count);
    gates compose right-to-left so the first listed gate acts first.
    Runs `check_structure` first and raises StaticSemanticsError if the
    circuit is malformed.
    """
    check_structure(circuit).raise_if_violated()
    return _assemble(circuit)


def _assemble(circuit: Circuit) -> np.ndarray:
    """Transfer matrix of a circuit that passed `check_structure`.

    R4 has already checked every gate's parameters, so each matrix comes
    straight from its gate type's unchecked builder.  A k-mode gate
    changes only the k rows it touches, so only those are updated.
    """
    u = np.eye(circuit.n_total_modes, dtype=complex)
    for gate, loss_modes in zip(circuit.gates, loss_mode_layout(circuit)):
        rows = list(gate.modes + loss_modes)
        u[rows] = gate.gate_type.build(*gate.params) @ u[rows]
    return u
