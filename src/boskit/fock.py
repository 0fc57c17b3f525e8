"""Shared value types: Fock states, complex matrices, probability mass functions.

A Fock state is a tuple of per-mode photon counts.  Matrices are plain
complex128 numpy arrays.  A pmf is a dict mapping Fock states to
probabilities; it may sum to less than 1 after thresholding.  The one
rule per kind of library input lives here too, applied once where the
input enters; there are four: `is_occupation` (counts, seeds), `is_real`,
`is_probability` and `is_state` (Fock states, in the library and in
documents alike).  `state_tuple` turns a library state into the tuple
these rules judge, refusing a value that is not a sequence.
"""

import math
import numbers
import sys
from collections.abc import Sequence

import numpy as np

FockState = tuple[int, ...]
Pmf = dict[FockState, float]

# Refuse to enumerate output bases beyond this many states.
ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """The requested Fock basis is larger than ENUMERATION_CAP."""


def is_occupation(n) -> bool:
    """Whether `n` is a valid photon count: a non-negative integer, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


def is_real(x) -> bool:
    """Whether `x` is a real number in the double range (nan and inf count), not a bool."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and not (isinstance(x, int) and abs(x) > sys.float_info.max))


def is_probability(p) -> bool:
    """Whether `p` is a real in [0, 1], allowing 1e-9 of rounding above 1."""
    return is_real(p) and 0.0 <= p <= 1.0 + 1e-9


def is_state(s, n_modes: int) -> bool:
    """Whether `s` is a Fock state over `n_modes >= 1` modes: a tuple of that
    length whose entries all pass `is_occupation`."""
    return (isinstance(s, tuple) and n_modes >= 1 and len(s) == n_modes
            and all(map(is_occupation, s)))


def state_tuple(s) -> tuple:
    """`s` as a tuple for the state rules to judge; ValueError, not TypeError,
    when `s` is not a sequence (a 1-D or higher numpy array counts as one, and
    bytes, whose items would pass as counts, do not)."""
    if (isinstance(s, (bytes, bytearray))
            or not (isinstance(s, Sequence) or (isinstance(s, np.ndarray) and s.ndim > 0))):
        raise ValueError(f"a Fock state must be a sequence of photon counts, got {s!r}")
    return tuple(s)


def enumerate_fock_states(n_photons: int, n_modes: int) -> list[FockState]:
    """All length-`n_modes` Fock states with `n_photons` photons in total.

    States are returned in lexicographically descending order, e.g.
    ``enumerate_fock_states(2, 2) == [(2, 0), (1, 1), (0, 2)]``.  This ordering is
    the package-wide convention for reports and sampling.

    Raises
    ------
    EnumerationCapError
        If the basis size C(n_photons + n_modes - 1, n_modes - 1)
        exceeds ENUMERATION_CAP; raised before any state is built.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    count = math.comb(n_photons + n_modes - 1, n_modes - 1)
    if count > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{count} output states exceed the enumeration cap of {ENUMERATION_CAP}")
    out: list[FockState] = []
    _fill_states(n_photons, n_modes, (), out)
    return out


def _fill_states(n: int, m: int, prefix: FockState, out: list[FockState]) -> None:
    if m == 1:
        out.append(prefix + (n,))
        return
    for k in range(n, -1, -1):
        _fill_states(n - k, m - 1, prefix + (k,), out)
