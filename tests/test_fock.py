import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boskit.fock
from boskit.engine import output_amplitude
from boskit.fock import (EnumerationCapError, enumerate_fock_states, is_occupation,
                         is_probability, is_real, is_state)

from oracles import count_states


def test_occupation_rule_rejects_bad_states():
    # a Fock state is a non-empty tuple of non-negative integer occupations
    assert all(is_occupation(n) for n in (0, 1, np.int64(3)))
    assert not any(is_occupation(n) for n in (-1, True, 1.0))
    assert is_state((1, 0), 2) and is_state((np.int64(2),), 1)
    assert not any(is_state(s, 2) for s in ((1,), (1, 0, 0), [1, 0], (1.5, 0),
                                            (True, 0), (-1, 2), "ab"))
    assert not is_state((), 0)
    with pytest.raises(ValueError):
        output_amplitude(np.zeros((0, 0)), [], [])
    with pytest.raises(ValueError):
        output_amplitude(np.eye(2), [1, -1], [0, 0])


def test_real_and_probability_rules():
    assert all(is_real(x) for x in (0, -3, 2.5, math.nan, math.inf, np.float32(1),
                                    np.int64(2), Fraction(1, 3), 10 ** 300))
    assert not any(is_real(x) for x in (True, np.True_, "0.5", 1j, None, 10 ** 400))
    assert all(is_probability(p) for p in (0, 1, 0.25, 1.0 + 1e-9, np.float64(0.5)))
    assert not any(is_probability(p) for p in (-0.5, 1.5, math.nan, True, "0.5"))


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


def test_enumeration_cap(monkeypatch):
    def no_states(*args):
        raise AssertionError("built states before checking the cap")

    monkeypatch.setattr(boskit.fock, "_fill_states", no_states)
    # C(79, 39) ~ 5e22 states, far above the 10^7 cap
    with pytest.raises(EnumerationCapError):
        enumerate_fock_states(40, 40)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_fock_states(1, 0)
    with pytest.raises(ValueError):
        enumerate_fock_states(-1, 2)
