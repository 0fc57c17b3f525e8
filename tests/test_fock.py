import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boskit.fock import (EnumerationCapError, as_fock_state,
                         enumerate_fock_states, fock_total, matrices_close)

from oracles import count_states


@pytest.mark.parametrize("state, total", [
    ((0, 0, 0), 0),
    ((1, 1), 2),
    ((3, 0, 2, 1), 6),
])
def test_fock_total(state, total):
    assert fock_total(state) == total


def test_as_fock_state_rejects_bad_states():
    with pytest.raises(ValueError):
        as_fock_state([])
    with pytest.raises(ValueError):
        as_fock_state([1, -1])


def test_enumerate_zero_photons():
    assert enumerate_fock_states(0, 3) == [(0, 0, 0)]


def test_enumerate_two_photons_two_modes():
    assert enumerate_fock_states(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_three_photons_four_modes_count():
    # frozen from the recursive counting oracle (= C(6, 3))
    states = enumerate_fock_states(3, 4)
    assert len(states) == 20
    assert len(states) == count_states(3, 4)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("m", range(1, 7))
def test_enumerate_counts_match_oracle(n, m):
    states = enumerate_fock_states(n, m)
    assert len(states) == count_states(n, m)
    assert len(set(states)) == len(states)
    assert all(len(s) == m and sum(s) == n for s in states)


@given(n=st.integers(0, 5), m=st.integers(1, 5))
@settings(max_examples=40)
def test_enumerate_is_descending(n, m):
    states = enumerate_fock_states(n, m)
    assert states == sorted(states, reverse=True)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_fock_states(4, 4, cap=10)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_fock_states(1, 0)
    with pytest.raises(ValueError):
        enumerate_fock_states(-1, 2)


def test_matrices_close_tolerance():
    a = np.eye(2, dtype=complex)
    assert matrices_close(a, a + 1e-12)
    assert not matrices_close(a, a + 1e-8)
    assert not matrices_close(a, np.eye(3))
