"""Concrete file syntax: circuit, input, pmf, and shot documents.

Circuit documents keep gate positions and gate configurations as two
parallel lists (the split the abstract grammar uses), and the parser is
the one place where their alignment is checked before both are fused
into in-memory GateSpec records:

    {
      "modes": 2,
      "posn": [
        {"name": "MG", "modes": [0, 1]}
      ],
      "config": [
        {"name": "MG", "theta": 0.78539816339744828, "phi": 2.0943951023931953}
      ]
    }

Parsers check documents only; the circuit rules R1-R5, R3's mode
ranges included, belong to `boskit.circuit.check_static`.

Serialisation is canonical: fixed key order, 2-space indentation, reals
printed with 17 significant digits so every double round-trips exactly.

Conventional extensions: .bosc (circuit), .bosin (input), .bospmf (pmf),
.boshots (shots).
"""

import json
import sys
from typing import Sequence

from .circuit import Circuit, GateSpec
from .fock import FockState, Pmf, is_probability, is_real, is_state
from .gates import GateType


class DocumentError(ValueError):
    """Base class for all circuit/input/pmf document problems."""


class DocumentSyntaxError(DocumentError):
    """The document is not well-formed JSON."""


class DocumentKeyError(DocumentError):
    """A required key is missing or an unknown key is present."""


class DocumentTypeError(DocumentError):
    """A value has the wrong type (e.g. a non-integer mode index)."""


class DocumentAlignmentError(DocumentError):
    """posn and config disagree about gate types or lengths."""


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"malformed {what} document at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentSyntaxError(f"{what} document is nested too deeply") from None
    except ValueError:  # Python's digit limit on integer literals
        raise DocumentSyntaxError(
            f"{what} document has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def _require_keys(obj: dict, required: Sequence[str], where: str) -> None:
    for key in required:
        if key not in obj:
            raise DocumentKeyError(f"{where}: missing key '{key}'")
    for key in obj:
        if key not in required:
            raise DocumentKeyError(f"{where}: unknown key '{key}'")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentTypeError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_real(value, where: str) -> float:
    # Integer literals widen to reals; booleans and out-of-range integers do not.
    if not is_real(value):
        raise DocumentTypeError(f"{where}: expected a real number, got {value!r}")
    return float(value)


def _occupations(value, where: str, n_modes: int | None = None) -> FockState:
    """A JSON array that passes `is_state` over `n_modes` modes (by default,
    over its own length), as a Fock state."""
    state = tuple(value) if isinstance(value, list) else ()
    if not is_state(state, len(state) if n_modes is None else n_modes):
        raise DocumentTypeError(
            f"{where} must be an array of {n_modes or 'one or more'} "
            f"non-negative integers")
    return state


def _gate_type(name, where: str) -> GateType:
    try:
        return GateType(name)
    except ValueError:
        raise DocumentTypeError(
            f"{where}: gate type must be one of {sorted(t.value for t in GateType)}, "
            f"got {name!r}") from None


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit document and fuse posn/config into a Circuit.

    Document problems raise a DocumentError subclass (syntax, key, type,
    or alignment); R1-R5 are left to `check_static`.
    """
    doc = _load_json(text, "circuit")
    if not isinstance(doc, dict):
        raise DocumentTypeError("circuit document must be a JSON object")
    _require_keys(doc, ("modes", "posn", "config"), "circuit")
    n_modes = _as_int(doc["modes"], "'modes'")
    posn, config = doc["posn"], doc["config"]
    if not isinstance(posn, list) or not isinstance(config, list):
        raise DocumentTypeError("'posn' and 'config' must be arrays")
    if len(posn) != len(config):
        raise DocumentAlignmentError(
            f"posn lists {len(posn)} gate(s) but config lists {len(config)}")

    gates = []
    for i, (p_entry, c_entry) in enumerate(zip(posn, config)):
        if not isinstance(p_entry, dict) or not isinstance(c_entry, dict):
            raise DocumentTypeError(f"gate {i}: posn/config entries must be objects")
        _require_keys(p_entry, ("name", "modes"), f"posn[{i}]")
        gate_type = _gate_type(p_entry["name"], f"posn[{i}]")
        if not isinstance(p_entry["modes"], list):
            raise DocumentTypeError(f"posn[{i}]: 'modes' must be an array")
        modes = tuple(_as_int(m, f"posn[{i}].modes") for m in p_entry["modes"])

        if "name" not in c_entry:
            raise DocumentKeyError(f"config[{i}]: missing key 'name'")
        config_type = _gate_type(c_entry["name"], f"config[{i}]")
        if config_type is not gate_type:
            raise DocumentAlignmentError(
                f"gate {i}: posn says {gate_type.value} but config says "
                f"{config_type.value}")
        _require_keys(c_entry, ("name",) + gate_type.param_names, f"config[{i}]")
        params = tuple(_as_real(c_entry[name], f"config[{i}].{name}")
                       for name in gate_type.param_names)
        gates.append(GateSpec(gate_type, modes, params))

    return Circuit(n_modes, tuple(gates))


def _real(value: float) -> str:
    """17 significant digits: exact round-trip for doubles."""
    return f"{float(value):.17g}"


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical circuit document; a pure function of the circuit value."""
    posn_lines = []
    config_lines = []
    for gate in circuit.gates:
        modes = ", ".join(str(m) for m in gate.modes)
        posn_lines.append(f'{{"name": "{gate.gate_type.value}", "modes": [{modes}]}}')
        params = ", ".join(f'"{name}": {_real(value)}'
                           for name, value in zip(gate.gate_type.param_names,
                                                  gate.params))
        config_lines.append(f'{{"name": "{gate.gate_type.value}", {params}}}')

    def block(lines: list[str]) -> str:
        if not lines:
            return "[]"
        inner = ",\n    ".join(lines)
        return f"[\n    {inner}\n  ]"

    return (
        "{\n"
        f'  "modes": {circuit.n_modes},\n'
        f'  "posn": {block(posn_lines)},\n'
        f'  "config": {block(config_lines)}\n'
        "}\n"
    )


def parse_input(text: str) -> FockState:
    """Parse an input document: a JSON array of non-negative integers."""
    return _occupations(_load_json(text, "input"), "input")


def serialize_input(state: FockState) -> str:
    return "[" + ", ".join(str(n) for n in state) + "]\n"


def pmf_entries(pmf: Pmf) -> list[tuple[FockState, float]]:
    """Report order: descending probability, then descending state."""
    return sorted(pmf.items(),
                  key=lambda kv: (-kv[1],) + tuple(-n for n in kv[0]))


def serialize_pmf(pmf: Pmf) -> str:
    """Pmf document: (state, prob) entries plus a retained-mass footer."""
    lines = [
        f'{{"state": [{", ".join(str(n) for n in state)}], "prob": {_real(p)}}}'
        for state, p in pmf_entries(pmf)
    ]
    lines.append(f'{{"retained_mass": {_real(sum(pmf.values()))}}}')
    return "[\n  " + ",\n  ".join(lines) + "\n]\n"


def _parse_pmf_entries(doc, where: str, n_modes: int | None = None) -> Pmf:
    """Pmf entries whose states share one mode count: `n_modes`, or the first state's.

    The array must hold at least one entry, but a retained-mass footer
    alone is the empty pmf that thresholding can leave.
    """
    if not isinstance(doc, list) or not doc:
        raise DocumentTypeError(f"{where} must be a non-empty JSON array")
    pmf: Pmf = {}
    for entry in doc:
        if not isinstance(entry, dict):
            raise DocumentTypeError(f"{where}: entries must be objects")
        if set(entry) == {"retained_mass"}:
            continue
        _require_keys(entry, ("state", "prob"), where)
        state = _occupations(entry["state"], f"{where}.state", n_modes)
        n_modes = len(state)
        prob = _as_real(entry["prob"], f"{where}.prob")
        if not is_probability(prob):
            raise DocumentTypeError(f"{where}: probability {prob} outside [0, 1]")
        if state in pmf:
            raise DocumentTypeError(f"{where}: duplicate state {list(state)}")
        pmf[state] = prob
    return pmf


def parse_pmf(text: str) -> Pmf:
    """Parse a pmf document (the retained-mass footer is ignored)."""
    return _parse_pmf_entries(_load_json(text, "pmf"), "pmf")


def parse_pairs(text: str) -> list[tuple[FockState, Pmf]]:
    """Parse training pairs: array of {"input": [...], "target": [...]}."""
    doc = _load_json(text, "pairs")
    if not isinstance(doc, list) or not doc:
        raise DocumentTypeError("pairs document must be a non-empty JSON array")
    pairs = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise DocumentTypeError(f"pairs[{i}] must be an object")
        _require_keys(entry, ("input", "target"), f"pairs[{i}]")
        state = _occupations(entry["input"], f"pairs[{i}].input")
        target = _parse_pmf_entries(entry["target"], f"pairs[{i}].target", len(state))
        if not target:
            raise DocumentTypeError(f"pairs[{i}].target lists no states")
        pairs.append((state, target))
    return pairs


def serialize_shots(shots: Sequence[FockState]) -> str:
    """One comma-separated occupation list per line."""
    return "".join(",".join(str(n) for n in shot) + "\n" for shot in shots)
