"""The library names that the benchmark's tracer wraps must exist.

perfbench/spans.py replaces public names in latentidm's modules with traced
wrappers (`--trace 1`).  Removing or renaming one of those names breaks the
traced benchmark without failing any other test, so this checks that every
wrapped name resolves, is replaced while instrumented, and is restored.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

from latentidm.runner import Scenario, bundled_scenarios, run_scenario  # noqa: E402


def test_instrumented_wraps_and_restores_every_name():
    targets = [(module, name) for module, name, _ in spans._targets()]
    missing = [f"{module.__name__}.{name}" for module, name in targets if not hasattr(module, name)]
    assert not missing, f"perfbench wraps names that are gone: {missing}"
    originals = [(module, name, getattr(module, name)) for module, name in targets]
    with spans.instrumented(spans.Tracer()):
        for module, name, original in originals:
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
    for module, name, original in originals:
        assert getattr(module, name) is original, f"{module.__name__}.{name}"


def test_traced_scenario_records_its_layers():
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        run_scenario(Scenario.from_dict(bundled_scenarios()["section5-scaled-beta"]))
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["scaled_beta_posterior_mean.calls"] == 1
    assert metrics["SimplexGrid.builds"] == 0


def test_traced_predict_shares_one_weight_pass():
    # every side of an identity channel attains its envelope from the rows' zero patterns,
    # so the bounds need no weight pass at all, and tracing them raises nothing
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        run_scenario(Scenario.from_dict(bundled_scenarios()["example5-standard-idm"]))
    assert spans.layer_metrics(tracer.spans)["frequency_weights.calls"] == 0


@pytest.mark.parametrize("seed", [4, 11, 31])
def test_latent_zeros_uppers_attain_their_envelope(seed):
    # every column has two nonzero rows, each observed 5 times: A = 10, so the upper
    # is (10 + s) / (20 + s) = 12/22 exactly, approached on the straight path to t_j = 1
    (op,) = workloads.build("latent-zeros", seed).ops
    bounds = run_scenario(Scenario.from_dict(json.loads(op.text)))["results"]["bounds"]
    for entry in bounds:
        assert abs(entry["upper"] - 12 / 22) <= 1e-12
        assert entry["lower"] == 0.0
        assert entry["argmax_t"] == {"limit": {"coordinate": entry["outcome"], "value": 1.0}}


@pytest.mark.parametrize("name", ["latent-vacuous", "latent-zeros"])
@pytest.mark.parametrize("seed", [4, 11, 31])
def test_latent_reports_pass_the_benchmark_checks(name, seed):
    # the checks the benchmark applies to every report: lower <= at_t <= upper for
    # each outcome, and each 0/1 bound agreeing with the learnability witnesses
    workload = workloads.build(name, seed)
    (op,) = workload.ops
    report = run_scenario(Scenario.from_dict(json.loads(op.text)))
    assert workloads.problems(workload, op, report) == []
