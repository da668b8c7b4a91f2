"""The benchmark tracer names package functions by string; a renamed function
would leave its layer metric reading 0 without any error.  This checks every
name against the package, without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module_name, attr",
                         [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name}.{attr} does not resolve"
    assert callable(owner)
