"""Exact simulation, sampling, and training of lossy interferometer circuits.

Build circuits from phase shifters, mixers, and two lossy mixer
variants; compute exact output-photon distributions through matrix
permanents; draw reproducible detection shots; and fit gate parameters
(or whole gate layouts) to target distributions.  Circuits, inputs,
pmfs, and shots all have canonical file formats, and the same surface
is scriptable through the `boskit` command.

The package namespace holds the names a script needs to build, check,
evaluate, sample and train a circuit; everything else (`gate_matrix`,
Fock-state enumeration, the PRNG helper) is imported from its
submodule.
"""

from .circuit import (Circuit, GateSpec, StaticSemanticsError,
                      assemble_transfer_matrix, check_static)
from .engine import (PermanentSizeError, distance_l2, distance_tv,
                     output_amplitude, permanent, pmf_mass, prob_fn)
from .fock import EnumerationCapError
from .gates import GateType
from .optimizer import (NonFiniteObjectiveError, OptProblem, OptResult,
                        opt_config, opt_structure)
from .sampler import empirical_pmf, sample

__all__ = [
    "Circuit", "GateSpec", "StaticSemanticsError", "assemble_transfer_matrix",
    "check_static",
    "PermanentSizeError", "distance_l2", "distance_tv", "output_amplitude",
    "permanent", "pmf_mass", "prob_fn",
    "EnumerationCapError",
    "GateType",
    "NonFiniteObjectiveError", "OptProblem", "OptResult", "opt_config",
    "opt_structure",
    "empirical_pmf", "sample",
]

__version__ = "0.1.0"
