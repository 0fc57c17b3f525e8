import math
import statistics

import pytest

from boskit.circuit import Circuit, GateSpec
from boskit.engine import distance_tv, prob_fn
from boskit.gates import GateType
from boskit.sampler import ShotRecord, empirical_pmf, rng_from_seed, sample

HOM_PMF = prob_fn(Circuit(2, (GateSpec(GateType.MIXER, (0, 1),
                                       (math.pi / 4, 0.0)),)), (1, 1))


def test_degenerate_pmf_yields_constant_shots():
    record = sample({(1, 0): 1.0}, 50, seed=3)
    assert record.shots == ((1, 0),) * 50
    assert record.n_shots == 50 and record.seed == 3


def test_sampling_is_deterministic_per_seed():
    a = sample(HOM_PMF, 1000, seed=9)
    b = sample(HOM_PMF, 1000, seed=9)
    c = sample(HOM_PMF, 1000, seed=10)
    assert a == b
    assert a.shots != c.shots


def test_hom_frequencies_concentrate():
    # binomial 6 sigma at 1e5 shots is ~0.0095
    record = sample(HOM_PMF, 100_000, seed=42)
    freqs = empirical_pmf(record)
    assert abs(freqs[(2, 0)] - 0.5) < 0.01
    assert abs(freqs[(0, 2)] - 0.5) < 0.01
    assert distance_tv(freqs, HOM_PMF) < 0.02


def test_shots_stay_inside_support():
    pmf = {(2, 0): 0.3, (1, 1): 0.0, (0, 2): 0.6}  # un-normalised on purpose
    record = sample(pmf, 5000, seed=8)
    assert set(record.shots) <= set(pmf)
    assert (1, 1) not in set(record.shots)  # zero-probability state never drawn


def test_empirical_pmf_counts():
    assert empirical_pmf(ShotRecord(((1, 0),), 0)) == {(1, 0): 1.0}
    two = empirical_pmf(ShotRecord(((1, 0), (0, 1)), 0))
    assert two == {(1, 0): 0.5, (0, 1): 0.5}


def test_empirical_pmf_mass_is_one():
    record = sample(HOM_PMF, 12345, seed=5)
    assert sum(empirical_pmf(record).values()) == pytest.approx(1.0, abs=1e-12)


def test_empirical_distance_shrinks_with_shots():
    medians = []
    for n_shots in (100, 1000, 10_000, 100_000):
        distances = [distance_tv(empirical_pmf(sample(HOM_PMF, n_shots, seed)),
                                 HOM_PMF)
                     for seed in range(20)]
        medians.append(statistics.median(distances))
    assert medians == sorted(medians, reverse=True)
    assert medians[-1] < 0.02


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample({}, 10, seed=0)
    with pytest.raises(ValueError):
        sample({(1,): 0.0}, 10, seed=0)
    for bad in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError):
            sample({(1, 0): bad, (0, 1): 0.5}, 5, seed=1)
    with pytest.raises(ValueError):
        sample(HOM_PMF, 0, seed=0)
    with pytest.raises(ValueError):
        sample(HOM_PMF, 10, seed=-1)


def test_rng_streams_are_independent():
    a = rng_from_seed(7, stream=0).random(4).tolist()
    b = rng_from_seed(7, stream=1).random(4).tolist()
    assert a != b
