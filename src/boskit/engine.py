"""Exact output distributions for photons through a circuit.

The probability of seeing output pattern S given input pattern T through
an M-mode transfer matrix U is |Perm(U_{S,T})|^2 / (prod_i s_i! prod_j t_j!)
where U_{S,T} repeats row i of U s_i times and column j t_j times.  The
pmf enumerates every output pattern with the input's photon total over
the extended (observed + loss) modes, then marginalises the loss modes
by summing probabilities over their occupations.

`_evaluate` does that exactly, with two savings:

- Loss-mode compression.  Only the columns of U for the d input modes
  that hold photons enter a permanent.  Their L loss rows are replaced
  by R from their QR factorisation.  This is exact: a unitary acting on
  traced-out modes leaves the marginal unchanged, and the rows below R
  are zero.  The basis then spans n_observed + min(L, d) modes instead
  of n_observed + L.  Lossless circuits (L = 0) skip this step.
- Batched permanents.  Every output's submatrix takes the same columns,
  so the submatrices of up to `_BLOCK` outputs are stacked and
  `_permanents` runs one Gray-code Ryser pass over the (B, n, n) stack.
  `permanent` is the same kernel on a stack of one.
- Stacked evaluation.  `_evaluate` takes a (K, M, M) stack of transfer
  matrices that share one layout (the optimizer's finite-difference
  probes; `prob_fn` passes a stack of one).  The basis, its row indices
  and its norms are built once per stack, one stacked QR compresses
  every matrix's loss rows, and each permanent pass covers K x B
  submatrices, with B = _BLOCK // K outputs per block so that no stack
  exceeds `_BLOCK` matrices when K <= `_BLOCK`.  Each matrix's pmf is
  the one it gives alone, bit for bit.

Each probability keeps the arithmetic of abs(permanent(sub) / norm) ** 2:
the real and imaginary parts are divided by the norm separately, np.hypot
(the libm hypot behind Python's complex abs) takes the magnitude, and
Python's float ** 2 squares it as the loss modes are folded in
enumeration order.  Lossless pmfs are therefore bit-identical to summing
`output_amplitude` over the basis; lossy pmfs differ from that sum by
rounding only.

The public entries `prob_fn` and `output_amplitude` validate their
arguments; the internal `_evaluate` checks only the photon total and
returns the full pmfs.  Photon totals are summed over Python ints, so a
numpy count beside a huge Python int is refused by the limit rather than
overflowing.  The one evaluation setting is `prob_fn`'s `threshold`.
"""

import math

import numpy as np

from .circuit import Circuit, _assemble, check_static
from .fock import FockState, Pmf, enumerate_fock_states, is_real, is_state, state_tuple

# Permanents are O(2^n * n); anything larger than this is intractable here.
MAX_PERMANENT_SIZE = 30


class PermanentSizeError(ValueError):
    """The matrix is too large for exact permanent evaluation."""


# Outputs per batched permanent pass: bounds the (B, n, n) stacks at
# B * 30 * 30 complex entries however large the basis.
_BLOCK = 1024

_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_PERMANENT_SIZE + 1))


def permanent(matrix: np.ndarray) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code subset updates.

    Runs in O(2^n * n); the permanent of the empty 0x0 matrix is 1.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {matrix.shape}")
    return complex(_permanents(matrix[np.newaxis])[0])


def _check_permanent_size(n: int) -> None:
    if n > MAX_PERMANENT_SIZE:
        raise PermanentSizeError(
            f"exact permanents are limited to {MAX_PERMANENT_SIZE} photons (matrix rows)")


def _photon_total(state: FockState) -> int:
    """Photon total of a state of checked counts, summed over Python ints.

    Checked against MAX_PERMANENT_SIZE before any per-photon work.
    """
    total = sum(map(int, state))  # numpy counts: no int64 overflow
    _check_permanent_size(total)
    return total


def _permanents(stack: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack of complex matrices, in one Gray-code pass.

    Each slice gets exactly the arithmetic of a stack of one, so
    `permanent` and the batched engine agree bit for bit.
    """
    n = stack.shape[1]
    _check_permanent_size(n)
    if n == 0:
        return np.ones(len(stack), dtype=complex)
    # columns[j] holds column j of every matrix as a contiguous (B, n) block
    columns = list(np.ascontiguousarray(stack.transpose(2, 0, 1)))
    row_sums = np.zeros(stack.shape[:2], dtype=complex)
    total = np.zeros(len(stack), dtype=complex)
    for j, added, positive in _gray_code(n):
        if added:
            row_sums += columns[j]
        else:
            row_sums -= columns[j]
        if positive:
            total += np.multiply.reduce(row_sums, axis=1)
        else:
            total -= np.multiply.reduce(row_sums, axis=1)
    return total


def _gray_code(n: int):
    """Ryser's steps over the non-empty column subsets of an n x n matrix.

    perm(A) = sum over non-empty column subsets S of
    (-1)^(n - |S|) prod_i sum_{j in S} a_ij.  The reflected Gray code
    changes one column j per step, so the row sums update in O(n); yields
    j, whether j joins the subset, and whether the subset's sign is +1.
    """
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        gray = new_gray
        yield (changed.bit_length() - 1, gray & changed,
               (gray.bit_count() & 1) == (n & 1))


def _mode_repeats(state: FockState) -> list[int]:
    """[0,2,1] -> [1,1,2]: one index per photon."""
    idx: list[int] = []
    for mode, n in enumerate(state):
        idx.extend([mode] * n)
    return idx


def _factorial_product(state: FockState) -> int:
    prod = 1
    for n in state:
        prod *= _FACTORIALS[n]  # n <= MAX_PERMANENT_SIZE: totals are checked first
    return prod


def output_amplitude(u: np.ndarray, input_state: FockState,
                     output_state: FockState) -> complex:
    """Checked transition amplitude from `input_state` to `output_state` through `u`.

    `u` must be square and both states, as sequences, must pass `is_state`
    over its mode count, with equal totals.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"output_amplitude needs a square matrix, got shape {u.shape}")
    input_state = state_tuple(input_state)
    output_state = state_tuple(output_state)
    for state in (input_state, output_state):
        if not is_state(state, u.shape[0]):
            raise ValueError(f"{state} is not a Fock state of a {u.shape[0]}-mode matrix")
    n_in, n_out = _photon_total(input_state), _photon_total(output_state)
    if n_in != n_out:
        raise ValueError(f"photon totals differ: {n_in} in, {n_out} out")
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

    Raises ValueError unless `threshold` is a real in [0, 1), then runs
    `check_static` once (StaticSemanticsError); PermanentSizeError and
    EnumerationCapError come before any output state is built.
    """
    if not (is_real(threshold) and 0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must lie in [0, 1), got {threshold!r}")
    input_state = state_tuple(input_state)
    check_static(circuit, input_state).raise_if_violated()
    [pmf] = _evaluate(_assemble(circuit)[np.newaxis], circuit.n_modes, input_state)
    if threshold > 0.0:
        pmf = {state: p for state, p in pmf.items() if p >= threshold}
    return pmf


def _evaluate(us: np.ndarray, n_observed: int, input_state: FockState) -> list[Pmf]:
    """The full pmf of each transfer matrix in the (K, M, M) stack `us`.

    The matrices are of checked circuits with one layout: `input_state`
    covers the first `n_observed` modes, the rest are loss modes.  Only its
    photon total is checked, before any per-photon work.  The basis, its
    row indices and its norms are built once for the whole stack.
    """
    n = _photon_total(input_state)
    occupied = [mode for mode, count in enumerate(input_state) if count]
    v = us[:, :, occupied]
    if us.shape[1] > n_observed:  # compress the loss modes
        v = np.concatenate(
            (v[:, :n_observed], np.linalg.qr(v[:, n_observed:], mode="r")), axis=1)
    cols = _mode_repeats([input_state[mode] for mode in occupied])
    input_factorials = _factorial_product(input_state)
    outputs = enumerate_fock_states(n, v.shape[1])
    pmfs: list[Pmf] = [{} for _ in us]
    step = max(1, _BLOCK // len(us))  # at most _BLOCK matrices per stack
    for start in range(0, len(outputs), step):
        block = outputs[start:start + step]
        rows = np.array([_mode_repeats(state) for state in block], dtype=np.intp)
        subs = v[:, rows[:, :, np.newaxis], cols]
        perms = _permanents(subs.reshape(len(us) * len(block), n, n)).reshape(len(us), -1)
        norms = np.array([math.sqrt(input_factorials * _factorial_product(state))
                          for state in block])
        # abs(permanent(sub) / norm) ** 2, operation for operation
        magnitudes = np.hypot(perms.real / norms, perms.imag / norms).tolist()
        observed = [state[:n_observed] for state in block]
        for pmf, row in zip(pmfs, magnitudes):
            for key, magnitude in zip(observed, row):
                pmf[key] = pmf.get(key, 0.0) + magnitude ** 2
    return pmfs


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
