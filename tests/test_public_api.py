import boskit

PUBLIC = [
    "Circuit", "EnumerationCapError", "GateSpec", "GateType",
    "NonFiniteObjectiveError", "OptProblem", "OptResult", "PermanentSizeError",
    "StaticSemanticsError", "assemble_transfer_matrix", "check_static",
    "distance_l2", "distance_tv", "empirical_pmf", "opt_config",
    "opt_structure", "output_amplitude", "permanent", "pmf_mass", "prob_fn",
    "sample",
]


def test_public_api():
    assert sorted(boskit.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(boskit, name) is not None
