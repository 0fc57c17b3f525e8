"""Bit-exactness manifest: every corpus pmf, hashed, against a committed file.

`tests/golden/corpus.sha256` holds one line per circuit of `circuit_corpus`
seeds 1-4 (100 circuits each, 2-4 modes, up to 6 gates, 0-4 photons):
corpus seed, index, input, and the SHA-256 of
`repr(list(prob_fn(c, input).items()))`, so key order and every bit of
every probability are pinned.  The hashes depend on LAPACK's QR and on
libm, so the header names the numpy version and BLAS the file was written
with; a mismatch on another platform is told apart from a regression by
comparing it with `platform()`.

Regenerate (only for a deliberate behaviour change, said in CHANGES.md):

    PYTHONPATH=src python tests/test_corpus_manifest.py
"""

import hashlib
from pathlib import Path

import numpy as np

from boskit.engine import prob_fn
from boskit.sampler import rng_from_seed
from oracles import circuit_corpus

MANIFEST = Path(__file__).parent / "golden" / "corpus.sha256"
SEEDS = (1, 2, 3, 4)


def platform() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def manifest_lines() -> list[str]:
    lines = []
    for seed in SEEDS:
        inputs = rng_from_seed(seed, stream=1)
        for index, circuit in enumerate(circuit_corpus(seed=seed, count=100,
                                                       max_modes=4, max_gates=6)):
            photons = inputs.integers(circuit.n_modes, size=int(inputs.integers(5)))
            state = tuple(int(n) for n in np.bincount(photons, minlength=circuit.n_modes))
            digest = hashlib.sha256(
                repr(list(prob_fn(circuit, state).items())).encode()).hexdigest()
            lines.append(f"{seed} {index} [{','.join(map(str, state))}] {digest}")
    return lines


def write() -> None:
    header = [
        "# seed index input sha256(repr(list(prob_fn(circuit, input).items())))",
        f"# {platform()}",
    ]
    MANIFEST.write_text("\n".join(header + manifest_lines()) + "\n", encoding="utf-8")


def test_corpus_pmfs_match_the_manifest():
    text = MANIFEST.read_text(encoding="utf-8").splitlines()
    expected = [line for line in text if not line.startswith("#")]
    actual = manifest_lines()
    assert len(actual) == len(expected) == 400
    differ = [want.rsplit(" ", 1)[0] for want, got in zip(expected, actual) if want != got]
    assert not differ, (f"{len(differ)} corpus pmf(s) moved: {differ}; manifest "
                        f"written with {text[1][2:]}, running {platform()}")


if __name__ == "__main__":
    write()
