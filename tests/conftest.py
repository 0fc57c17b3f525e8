import os
from pathlib import Path

import pytest

import boskit.circuit
import boskit.cli
import boskit.dslio
import boskit.engine
import boskit.optimizer


@pytest.fixture(autouse=True, scope="session")
def cli_children_import_this_boskit():
    """Let `python -m boskit` child processes import the package under test."""
    src = str(Path(boskit.circuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture
def check_calls(monkeypatch) -> list[str]:
    """Record every check_static/check_structure call, at every binding."""
    calls: list[str] = []
    for name in ("check_static", "check_structure"):
        original = getattr(boskit.circuit, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (boskit.circuit, boskit.cli, boskit.dslio, boskit.engine,
                       boskit.optimizer):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
