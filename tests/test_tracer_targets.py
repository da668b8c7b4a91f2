"""The benchmark tracer names package functions by string; a renamed function
would leave its layer metric reading 0 without any error.  This checks every
name against the package, that the installed tracer counts the pairs of the
coefficient path, and that traced CLI runs finish with their spans."""

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


TRACER = _load_tracer()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("module_name, attr",
                         [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name}.{attr} does not resolve"
    assert callable(owner)


def test_tracer_counts_the_coefficient_path():
    # a run object without n_pairs would raise inside every traced iteration
    from swapcool import experiments, network

    with TRACER.Tracer("coeffs") as tracer:
        experiments.coeffs_dataset([2, 4, 8])
    assert tracer.counts["network.accumulated_pairs"] == sum(
        network.build_improved_schedule(m).n_pairs for m in (2, 4, 8)) == 239
    assert "network.accumulate" in {span[2] for span in tracer.spans}


@pytest.mark.parametrize("argv, spans", [
    (["schedule", "--m", "2", "--tournament", "2"],
     {"network.schedule_json", "experiments.serialize"}),
    (["coeffs", "--m", "2,4"], {"experiments.serialize"}),
], ids=["schedule", "coeffs"])
def test_traced_cli_runs_finish(tmp_path, argv, spans):
    # the tracer's wrappers see every writer call; a writer change that
    # breaks them would fail every traced benchmark iteration
    from swapcool import cli

    with TRACER.Tracer(argv[0]) as tracer:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert spans <= {span[2] for span in tracer.spans}
