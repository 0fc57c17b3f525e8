"""Draw detection shots from a pmf and rebuild empirical distributions.

Sampling is inverse-CDF over the states in lexicographically descending
order, driven by uniform doubles from a Philox counter-based generator,
so a (pmf, n_shots, seed) triple always reproduces the same shots.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fock import FockState, Pmf, is_occupation, is_state

MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class ShotRecord:
    shots: tuple[FockState, ...]
    seed: int

    @property
    def n_shots(self) -> int:
        return len(self.shots)


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); the package-wide PRNG."""
    if not (is_occupation(seed) and seed <= MAX_SEED):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(pmf: Pmf, n_shots: int, seed: int) -> ShotRecord:
    """Draw `n_shots` i.i.d. states from `pmf` renormalised to sum 1.

    The keys of `pmf` must pass `is_state` over one mode count.
    """
    if not (is_occupation(n_shots) and n_shots >= 1):
        raise ValueError(f"n_shots must be a positive integer, got {n_shots!r}")
    first = next(iter(pmf), ())
    n_modes = len(first) if isinstance(first, tuple) else 0
    if not all(is_state(s, n_modes) for s in pmf):
        raise ValueError("pmf keys must be Fock states over one mode count")
    states = sorted(pmf, reverse=True)
    weights = np.array([pmf[s] for s in states], dtype=float)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("pmf weights must be finite and non-negative")
    total = weights.sum()
    if not states or total <= 0.0:
        raise ValueError("cannot sample from a pmf with no probability mass")
    cdf = np.cumsum(weights / total)
    cdf[-1] = 1.0  # guard against rounding drift in the last bin
    draws = rng_from_seed(seed).random(n_shots)
    indices = np.searchsorted(cdf, draws, side="right")
    shots = tuple(states[i] for i in indices)
    return ShotRecord(shots=shots, seed=seed)


def empirical_pmf(record: ShotRecord) -> Pmf:
    """Relative frequencies of the recorded shots."""
    if not record.shots:
        raise ValueError("cannot estimate a pmf from a record with no shots")
    counts = Counter(record.shots)
    return {state: count / record.n_shots for state, count in counts.items()}
