"""Exact output distributions for photons through a circuit.

The probability of seeing output pattern S given input pattern T through
an M-mode transfer matrix U is |Perm(U_{S,T})|^2 / (prod_i s_i! prod_j t_j!)
where U_{S,T} repeats row i of U s_i times and column j t_j times.  The
pmf enumerates every output pattern with the input's photon total over
the extended (observed + loss) modes, then marginalises the loss modes
by summing probabilities over their occupations.

The public entries `prob_fn` and `output_amplitude` validate their
arguments; the internal `_evaluate` assumes checked input and returns
the full pmf.  The one evaluation setting is `prob_fn`'s `threshold`.
"""

import math

import numpy as np

from .circuit import Circuit, _assemble, check_static
from .fock import FockState, Pmf, enumerate_fock_states, is_occupation

# Permanents are O(2^n * n); anything larger than this is intractable here.
MAX_PERMANENT_SIZE = 30


class PermanentSizeError(ValueError):
    """The matrix is too large for exact permanent evaluation."""


_FACTORIALS = tuple(math.factorial(n) for n in range(21))


def permanent(matrix: np.ndarray) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code subset updates.

    Runs in O(2^n * n); the permanent of the empty 0x0 matrix is 1.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n > MAX_PERMANENT_SIZE:
        raise PermanentSizeError(
            f"matrix of size {n} exceeds the {MAX_PERMANENT_SIZE} limit")
    if n == 0:
        return 1 + 0j
    # perm(A) = sum over non-empty column subsets S of
    # (-1)^(n - |S|) prod_i sum_{j in S} a_ij; the Gray code changes one
    # column per step so the row sums update in O(n).
    row_sums = np.zeros(n, dtype=complex)
    total = 0 + 0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += matrix[:, j]
        else:
            row_sums -= matrix[:, j]
        gray = new_gray
        sign = 1 if (gray.bit_count() & 1) == (n & 1) else -1
        total += sign * np.prod(row_sums)
    return complex(total)


def _mode_repeats(state: FockState) -> list[int]:
    """[0,2,1] -> [1,1,2]: one index per photon."""
    idx: list[int] = []
    for mode, n in enumerate(state):
        idx.extend([mode] * n)
    return idx


def _factorial_product(state: FockState) -> int:
    prod = 1
    for n in state:
        prod *= _FACTORIALS[n] if n < len(_FACTORIALS) else math.factorial(n)
    return prod


def output_amplitude(u: np.ndarray, input_state: FockState,
                     output_state: FockState) -> complex:
    """Checked transition amplitude from `input_state` to `output_state` through `u`.

    Both states must be non-empty sequences of non-negative integer
    occupations (the R5 rule), as long as `u` is square, with equal totals.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"output_amplitude needs a square matrix, got shape {u.shape}")
    input_state = tuple(input_state)
    output_state = tuple(output_state)
    for state in (input_state, output_state):
        if not state:
            raise ValueError("a Fock state needs at least one mode")
        if not all(is_occupation(n) for n in state):
            raise ValueError(
                f"occupations must be non-negative integers, got {state}")
    if len(input_state) != u.shape[0] or len(output_state) != u.shape[0]:
        raise ValueError(
            f"states of lengths {len(input_state)}/{len(output_state)} do not "
            f"match a {u.shape[0]}-mode matrix")
    if sum(input_state) != sum(output_state):
        raise ValueError(
            f"photon totals differ: {sum(input_state)} in, "
            f"{sum(output_state)} out")
    sub = u[np.ix_(_mode_repeats(output_state), _mode_repeats(input_state))]
    norm = math.sqrt(_factorial_product(input_state) * _factorial_product(output_state))
    return permanent(sub) / norm


def prob_fn(circuit: Circuit, input_state, *, threshold: float = 0.0) -> Pmf:
    """Exact output pmf of `input_state` through `circuit`.

    The input is extended with vacuum on the loss modes, every extended
    output pattern with the same photon total is evaluated, and loss
    modes are marginalised away, so the keys are observed-mode patterns
    whose totals may fall below the input total when photons are lost.
    Entries below `threshold` are dropped after the full computation and
    the rest are not renormalised; with the default 0 the probabilities
    sum to 1.

    Raises ValueError unless 0 <= threshold < 1, then runs `check_static`
    once, raising StaticSemanticsError on a malformed circuit/input pair,
    and raises EnumerationCapError when the output basis is too large.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    input_state = tuple(input_state)
    check_static(circuit, input_state).raise_if_violated()
    pmf = _evaluate(_assemble(circuit), circuit.n_modes, input_state)
    if threshold > 0.0:
        pmf = {state: p for state, p in pmf.items() if p >= threshold}
    return pmf


def _evaluate(u: np.ndarray, n_observed: int, input_state: FockState) -> Pmf:
    """The full pmf from the transfer matrix `u` of a checked circuit; checks nothing.

    `input_state` covers the first `n_observed` modes; the rest are loss modes.
    """
    cols = _mode_repeats(input_state)
    input_factorials = _factorial_product(input_state)
    pmf: Pmf = {}
    for extended_output in enumerate_fock_states(len(cols), u.shape[0]):
        rows = _mode_repeats(extended_output)
        norm = math.sqrt(input_factorials * _factorial_product(extended_output))
        amp = permanent(u[np.ix_(rows, cols)]) / norm
        observed = extended_output[:n_observed]
        pmf[observed] = pmf.get(observed, 0.0) + abs(amp) ** 2
    return pmf


def pmf_mass(pmf: Pmf) -> float:
    """Total retained probability mass."""
    return float(sum(pmf.values()))


def distance_tv(p: Pmf, q: Pmf) -> float:
    """Total variation distance between two pmfs over the same mode count."""
    _check_same_mode_count(p, q)
    states = set(p) | set(q)
    return 0.5 * sum(abs(p.get(s, 0.0) - q.get(s, 0.0)) for s in states)


def distance_l2(p: Pmf, q: Pmf) -> float:
    """Euclidean distance between two pmfs over the same mode count."""
    _check_same_mode_count(p, q)
    states = set(p) | set(q)
    return math.sqrt(sum((p.get(s, 0.0) - q.get(s, 0.0)) ** 2 for s in states))


def _check_same_mode_count(p: Pmf, q: Pmf) -> None:
    lengths = {len(s) for s in p} | {len(s) for s in q}
    if len(lengths) > 1:
        raise ValueError(f"pmfs are keyed over different mode counts: {sorted(lengths)}")
