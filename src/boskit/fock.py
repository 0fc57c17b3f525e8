"""Shared value types: Fock states, complex matrices, probability mass functions.

A Fock state is a tuple of per-mode photon counts.  Matrices are plain
complex128 numpy arrays.  A pmf is a dict mapping Fock states to
probabilities; it may sum to less than 1 after thresholding.
"""

import math
from typing import Iterable, Sequence

import numpy as np

FockState = tuple[int, ...]
Pmf = dict[FockState, float]

# Tolerance for entrywise matrix equality throughout the package.
MAT_TOL = 1e-10

# Refuse to enumerate output bases beyond this many states by default.
DEFAULT_ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """The requested Fock basis is larger than the configured cap."""


def as_fock_state(occupations: Iterable[int]) -> FockState:
    """Normalise a sequence of occupation numbers to a FockState tuple."""
    state = tuple(int(n) for n in occupations)
    if len(state) < 1:
        raise ValueError("a Fock state needs at least one mode")
    if any(n < 0 for n in state):
        raise ValueError(f"occupation numbers must be non-negative, got {state}")
    return state


def fock_total(state: Sequence[int]) -> int:
    """Total photon number of a Fock state."""
    return sum(state)


def enumerate_fock_states(n_photons: int, n_modes: int,
                cap: int = DEFAULT_ENUMERATION_CAP) -> list[FockState]:
    """All length-`n_modes` Fock states with `n_photons` photons in total.

    States are returned in lexicographically descending order, e.g.
    ``enumerate_fock_states(2, 2) == [(2, 0), (1, 1), (0, 2)]``.  This ordering is
    the package-wide convention for reports and sampling.

    Raises
    ------
    EnumerationCapError
        If the basis size C(n_photons + n_modes - 1, n_modes - 1)
        exceeds `cap`.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    count = math.comb(n_photons + n_modes - 1, n_modes - 1)
    if count > cap:
        raise EnumerationCapError(
            f"{count} output states exceed the enumeration cap of {cap}")
    out: list[FockState] = []
    _fill_states(n_photons, n_modes, (), out)
    return out


def _fill_states(n: int, m: int, prefix: FockState, out: list[FockState]) -> None:
    if m == 1:
        out.append(prefix + (n,))
        return
    for k in range(n, -1, -1):
        _fill_states(n - k, m - 1, prefix + (k,), out)


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float = MAT_TOL) -> bool:
    """Entrywise equality within `tol` (max absolute difference)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True
