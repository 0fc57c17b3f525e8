"""The benchmark's workloads still build, run and pass their own checks.

`perfbench/workloads.py` reads boskit's public names (`GateType.value`,
`param_names`, `OptProblem` fields, `cli.main`); this runs each workload
once so that a change to one of them fails here, not only in a benchmark
run.  Call index 0 is outside `ORACLE_CALLS`, so the slow oracle check is
skipped.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_check(name, tmp_path):
    assert 0 not in workloads.ORACLE_CALLS
    workload = workloads.WORKLOADS[name](ROOT, 1, tmp_path)
    x = workload.make(0)
    assert workload.check(0, x, workload.call(x)) is None
