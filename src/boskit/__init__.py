"""Exact simulation, sampling, and training of lossy interferometer circuits.

Build circuits from phase shifters, mixers, and two lossy mixer
variants; compute exact output-photon distributions through matrix
permanents; draw reproducible detection shots; and fit gate parameters
(or whole gate layouts) to target distributions.  Circuits, inputs,
pmfs, and shots all have canonical file formats, and the same surface
is scriptable through the `boskit` command.
"""

from .circuit import (Circuit, GateSpec, StaticDiagnostics, StaticSemanticsError,
                      Violation, assemble_transfer_matrix, check_static,
                      check_structure)
from .engine import (EvalOptions, PermanentSizeError, distance_l2, distance_tv,
                     output_amplitude, permanent, pmf_mass, prob_fn)
from .fock import (EnumerationCapError, FockState, Pmf, as_fock_state,
                   enumerate_fock_states, fock_total, matrices_close)
from .gates import (GateType, gate_matrix, gate_mixer,
                    gate_mixer_lossy_correlated, gate_mixer_lossy_uncorrelated,
                    gate_phase)
from .optimizer import (NonFiniteObjectiveError, OptProblem, OptResult,
                        fd_gradient, opt_config, opt_structure)
from .sampler import ShotRecord, empirical_pmf, rng_from_seed, sample

__all__ = [
    "Circuit", "GateSpec", "StaticDiagnostics", "StaticSemanticsError",
    "Violation", "assemble_transfer_matrix", "check_static", "check_structure",
    "EvalOptions", "PermanentSizeError", "distance_l2", "distance_tv",
    "output_amplitude", "permanent", "pmf_mass", "prob_fn",
    "EnumerationCapError", "FockState", "Pmf", "as_fock_state",
    "enumerate_fock_states", "fock_total", "matrices_close",
    "GateType", "gate_matrix", "gate_mixer", "gate_mixer_lossy_correlated",
    "gate_mixer_lossy_uncorrelated", "gate_phase",
    "NonFiniteObjectiveError", "OptProblem", "OptResult", "fd_gradient",
    "opt_config", "opt_structure",
    "ShotRecord", "empirical_pmf", "rng_from_seed", "sample",
]

__version__ = "0.1.0"
