import errno
import gc
import json
import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm import cli, observation, runner, strata
from latentidm.cli import EXIT_INVALID, EXIT_OK, EXIT_SIZE_CAP, main
from latentidm.errors import ScenarioError, SizeCapError
from latentidm.idm import BoundaryLimit, PredictiveBounds
from latentidm.observation import EmissionMatrix, ManifestDataset
from latentidm.runner import (
    Scenario,
    assertion_manifest,
    bundled_scenarios,
    check_assertions,
    custom_scenarios,
    report_to_doc,
    report_to_table,
    run_scenario,
)
from latentidm.simplex import SimplexPoint
from latentidm.vacuity import canonical_concentrating_sequence
from oracles import predictive_at_log_t, prior_at, ratio_tolerance


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_traced(argv) -> tuple[int, int]:
    """`main(argv)`'s exit code and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strip_timing(report_text: str) -> str:
    doc = json.loads(report_text)
    doc.pop("timing", None)
    return json.dumps(doc, indent=2, sort_keys=True)


PREDICT_DOC = {
    "name": "local-predict",
    "kind": "predict",
    "k": 2,
    "model": {"emission": "identity"},
    "observations": [0, 0, 1],
    "hyper": {"s": 2.0},
}

TREND_DOC = {
    "name": "local-trend",
    "kind": "theorem-a1a2",
    "target": [1.0, 0.0],
    "function": {"kind": "coordinate", "index": 0},
    "likelihood": {"kind": "constant"},
    "schedule": [10],
    "deltas": [0.1],
    "grid_resolution": 200,
}

SCALED_BETA_DOC = {
    "name": "local-scaled-beta",
    "kind": "scaled-beta",
    "channel": {"eps1": 0.1, "eps2": 0.1},
    "dataset": {"positives": 2, "total": 3},
    "hyper": {"s": 2.0},
}

# monomials with two positive exponents on k >= 3 coordinates: their slab masses are grid sums
GRID_FUNCTION_4 = {"kind": "monomial", "exponents": [1, 1, 0, 0]}
GRID_FUNCTION_7 = {"kind": "monomial", "exponents": [1, 1, 0, 0, 0, 0, 0]}

CHANNEL_LIKELIHOOD = {"kind": "channel", "eps1": 0.1, "eps2": 0.1, "observations": [0]}

# a k = 3 channel whose open uppers attain their envelopes only on faces with unequal rates
FACE_DOC = {
    "name": "local-face",
    "kind": "predict",
    "k": 3,
    "model": {"emission": [[0.3, 1.0, 0.0], [0.3, 0.0, 0.0], [0.4, 0.0, 1.0]]},
    "observations": [2, 2, 0],
    "hyper": {"s": 2.0},
}

# the first k = 2 observation count past the weight pass's work cap:
# C(2,895 + 2, 2) - 1 = 4,194,855 state updates, against 4,191,959 at 2,894
OVER_CAP_N = 2895

# (field the error must name, document): each of these used to end in a
# traceback, run with a wrong shape, or name another field.
BAD_DOCUMENTS = [
    ("outcomes", dict(PREDICT_DOC, outcomes=[5])),
    ("hyper.t", dict(PREDICT_DOC, hyper={"s": 2.0, "t": [0.5, 0.6]})),
    ("hyper.t", dict(PREDICT_DOC, hyper={"s": 2.0, "t": [1.0, 0.0]})),
    ("hyper.t", dict(PREDICT_DOC, hyper={"s": 2.0, "t": [0.2, 0.3, 0.5]})),
    # bounds take no search settings: any `search` block is refused, even a once-valid one
    ("search", dict(PREDICT_DOC, search={"resolution": 400})),
    ("search", dict(PREDICT_DOC, search={})),
    ("search", dict(PREDICT_DOC, search={"clamp": 1e-6})),
    ("search", dict(PREDICT_DOC, search={"refinement_passes": 1})),
    ("model.emission", dict(PREDICT_DOC, model={"emission": "binary-channel(0.6,0.1)"})),
    ("function.index", dict(TREND_DOC, function={"kind": "coordinate", "index": 2})),
    ("function.index", dict(TREND_DOC, function={"kind": "coordinate", "index": "a"})),
    ("function.exponents", dict(TREND_DOC, function={"kind": "monomial", "exponents": [1, -1]})),
    ("function.exponents", dict(TREND_DOC, function={"kind": "monomial", "exponents": [0, 0]})),
    ("function.exponents", dict(TREND_DOC, function={"kind": "monomial", "exponents": [1, 1, 1]})),
    ("likelihood.index", dict(TREND_DOC, likelihood={"kind": "coordinate", "index": 2})),
    ("likelihood.exponents", dict(TREND_DOC, likelihood={"kind": "monomial", "exponents": [1]})),
    ("likelihood", dict(TREND_DOC, likelihood=dict(CHANNEL_LIKELIHOOD, eps1=0.7))),
    (
        "likelihood.observations",
        dict(TREND_DOC, likelihood=dict(CHANNEL_LIKELIHOOD, observations=[5])),
    ),
    ("likelihood", dict(TREND_DOC, target=[1.0, 0.0, 0.0], likelihood=CHANNEL_LIKELIHOOD)),
    ("contrast_likelihood", dict(TREND_DOC, contrast_likelihood="constant")),
    ("sequence.s", dict(TREND_DOC, sequence={"family": "fixed-strength", "s": -1})),
    ("sequence.s", dict(TREND_DOC, sequence={"family": "fixed-strength", "s": "two"})),
    ("grid_resolution", dict(TREND_DOC, grid_resolution="fine")),
    ("grid_resolution", dict(TREND_DOC, grid_resolution=0)),
    ("grid_resolution", dict(TREND_DOC, grid_resolution=2.5)),
    ("schedule", dict(TREND_DOC, schedule=[])),
    ("schedule", dict(TREND_DOC, target=[1.0, 0.0, 0.0, 0.0], schedule=[2], grid_resolution=20)),
    (
        "hyper",
        {
            "name": "b",
            "kind": "scaled-beta",
            "channel": {"eps1": 0.1, "eps2": 0.1},
            "dataset": {"positives": 2, "total": 3},
            "hyper": 5,
        },
    ),
    (
        "hyper",
        {
            "name": "m",
            "kind": "direct-manifest",
            "dataset": {"positives": 2, "total": 3},
            "hyper": "s",
        },
    ),
    # grid documents keep their refusals; a coordinate's slab masses need no grid
    ("target", dict(TREND_DOC, target=[1.0] + [0.0] * 6, function=GRID_FUNCTION_7, schedule=[6])),
    ("search", dict(PREDICT_DOC, k=4, observations=[0, 1], search={"resolution": 1000})),
    (
        "grid_resolution",
        dict(TREND_DOC, target=[1.0, 0.0, 0.0, 0.0], function=GRID_FUNCTION_4, grid_resolution=2000),
    ),
    # refusals of malformed structure, unknown kinds and out-of-range counts
    ("scenario", [PREDICT_DOC]),
    ("observations", dict(PREDICT_DOC, observations=0)),
    ("model.emissions", dict(PREDICT_DOC, model={"emissions": ["identity"]})),
    ("model", dict(PREDICT_DOC, model={})),
    ("function.kind", dict(TREND_DOC, function={"kind": "spline"})),
    ("likelihood.kind", dict(TREND_DOC, likelihood={"kind": "spline"})),
    ("sequence.family", dict(TREND_DOC, sequence={"family": "harmonic"})),
    ("dataset", dict(SCALED_BETA_DOC, dataset={"positives": 4, "total": 3})),
    ("fixed_t1", dict(SCALED_BETA_DOC, fixed_t1=1.0)),
    # an emission needs one column per hidden outcome: blamed on it, not on `observations`
    ("model.emission", dict(PREDICT_DOC, k=3, model={"emission": "binary-channel(0.1,0.2)"})),
    ("model.emission", dict(PREDICT_DOC, k=3, model={"emission": [[0.5, 0.5], [0.5, 0.5]]})),
    (
        "model.emissions",
        dict(
            PREDICT_DOC,
            kind="diagnose",
            model={"emissions": ["identity", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
            observations=[0, 1],
        ),
    ),
    # numpy reads a JSON string or boolean as a number: a numeric vector or matrix refuses it
    ("target", dict(TREND_DOC, target=["1.0", "0"])),
    ("target", dict(TREND_DOC, target=[True, False])),
    ("hyper.t", dict(PREDICT_DOC, hyper={"s": 2.0, "t": ["0.5", "0.5"]})),
    ("hyper.t", dict(PREDICT_DOC, hyper={"s": 2.0, "t": [0.5, True]})),
    ("model.emission", dict(PREDICT_DOC, model={"emission": [[True, False], [False, True]]})),
    ("model.emission", dict(PREDICT_DOC, model={"emission": [["1", 0.0], [0.0, 1.0]]})),
    (
        "model.emissions",
        dict(PREDICT_DOC, model={"emissions": ["identity", [[1.0, False], [0.0, True]], "identity"]}),
    ),
]


class TestScenarioValidation:
    def test_requires_name(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario.from_dict({"kind": "predict"})

    def test_requires_known_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            Scenario.from_dict({"name": "x", "kind": "mystery"})

    def test_bad_emission_column_named(self):
        doc = dict(PREDICT_DOC, model={"emission": [[0.9, 0.3], [0.1, 0.6]]})
        with pytest.raises(ScenarioError, match="column 1"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize(
        "doc,text",
        [
            (
                dict(PREDICT_DOC, model={"emission": [[0.9, 0.5], [0.2, 0.5]]}),
                "field 'model.emission': emission column 0 sums to 1.1, expected 1",
            ),
            (
                dict(TREND_DOC, target=[1.2, -0.2]),
                "field 'target': coordinates must be finite and >= 0, got [1.2, -0.2]",
            ),
            (
                dict(PREDICT_DOC, hyper={"s": 2.0, "t": [0.5, float("nan")]}),
                "field 'hyper.t': coordinates must be finite and >= 0, got [0.5, nan]",
            ),
            (
                dict(PREDICT_DOC, model={"emission": [[1.0, float("inf")], [0.0, 0.0]]}),
                "field 'model.emission': emission entries must lie in [0, 1]",
            ),
        ],
    )
    def test_refusal_texts_show_plain_numbers(self, doc, text):
        # no numpy repr (np.float64(1.1), an array's spaced print) reaches a refusal
        with pytest.raises(ScenarioError) as refused:
            Scenario.from_dict(doc)
        assert str(refused.value) == text

    def test_bad_observation_row(self):
        doc = dict(PREDICT_DOC, observations=[0, 5])
        with pytest.raises(ScenarioError, match="observations"):
            Scenario.from_dict(doc)

    def test_missing_likelihood_for_trend(self):
        doc = {
            "name": "x",
            "kind": "verify-theorem1",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
        }
        with pytest.raises(ScenarioError, match="likelihood"):
            Scenario.from_dict(doc)

    def test_channel_preset_parse(self):
        doc = dict(PREDICT_DOC, model={"emission": "binary-channel(0.2,0.3)"})
        scenario = Scenario.from_dict(doc)
        assert scenario.kind == "predict"

    def test_unknown_preset(self):
        doc = dict(PREDICT_DOC, model={"emission": "diagonal"})
        with pytest.raises(ScenarioError, match="preset"):
            Scenario.from_dict(doc)

    def test_boolean_observations_rejected(self):
        doc = dict(
            PREDICT_DOC, model={"emission": "binary-channel(0.1,0.1)"}, observations=[True, True]
        )
        with pytest.raises(ScenarioError, match="field 'observations'"):
            Scenario.from_dict(doc)

    def test_boolean_strength_rejected(self):
        doc = dict(PREDICT_DOC, hyper={"s": True})
        with pytest.raises(ScenarioError, match="field 'hyper.s'"):
            Scenario.from_dict(doc)

    def test_per_index_emissions(self):
        doc = dict(
            PREDICT_DOC,
            model={"emissions": ["identity", "binary-channel(0.1,0.1)", "identity"]},
        )
        report = run_scenario(Scenario.from_dict(doc))
        assert len(report["results"]["bounds"]) == 2


class TestParseOnce:
    def test_predict_builds_its_dataset_once(self, monkeypatch):
        built = []
        original = runner.ManifestDataset

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "ManifestDataset", counting)
        run_scenario(Scenario.from_dict(PREDICT_DOC))
        assert len(built) == 1

    def test_trend_builds_each_likelihood_once(self, monkeypatch):
        built = []
        for name in ("dataset_likelihood", "monomial_likelihood"):
            original = getattr(runner, name)

            def counting(*args, _original=original, _name=name):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(runner, name, counting)
        doc = dict(
            bundled_scenarios()["theorem-a1-concentration"], schedule=[10], grid_resolution=200
        )
        run_scenario(Scenario.from_dict(doc))
        assert sorted(built) == ["dataset_likelihood", "monomial_likelihood"]


class TestRunScenario:
    def test_predict_payload_shape(self):
        report = run_scenario(Scenario.from_dict(PREDICT_DOC))
        bounds = report["results"]["bounds"]
        assert (bounds[0]["lower"], bounds[0]["upper"]) == (0.4, 0.8)
        assert bounds[0]["argmax_t"] == {"limit": {"coordinate": 0, "value": 1.0}}
        assert report["provenance"]["tool_version"]
        assert "timing" in report

    def test_interior_extremizer_is_described_by_its_point(self):
        bounds = PredictiveBounds(0.25, 0.5, SimplexPoint([0.5, 0.5]), BoundaryLimit(0, 1.0))
        payload = runner._bounds_payload(bounds, outcome=0)
        assert payload["argmin_t"] == {"point": [0.5, 0.5]}
        assert payload["argmax_t"] == {"limit": {"coordinate": 0, "value": 1.0}}

    def test_unequal_rate_face_is_described_by_its_stratum(self, tmp_path, capsys):
        # outcomes 1 and 2 reach their envelopes (A + s) / (n + s) only where the two other
        # coordinates vanish at rates 2 and 1: A = 1 gives 3/5 and A = 2 gives 4/5
        assert main(["run", write_scenario(tmp_path, FACE_DOC)]) == EXIT_OK
        bounds = json.loads(capsys.readouterr().out)["results"]["bounds"]
        assert [(b["lower"], b["upper"]) for b in bounds] == [(0.0, 1.0), (0.0, 0.6), (0.0, 0.8)]
        assert [b["argmax_t"] for b in bounds[1:]] == [
            {
                "stratum": {
                    "vanishing": [0, 2],
                    "rates": [2, 1],
                    "multipliers": [1.0, 1.0],
                    "limit": [0.0, 1.0, 0.0],
                }
            },
            {
                "stratum": {
                    "vanishing": [0, 1],
                    "rates": [2, 1],
                    "multipliers": [1.0, 1.0],
                    "limit": [0.0, 0.0, 1.0],
                }
            },
        ]

    def test_predict_at_t_block(self):
        doc = dict(PREDICT_DOC, hyper={"s": 2.0, "t": [0.5, 0.5]})
        report = run_scenario(Scenario.from_dict(doc))
        assert report["results"]["at_t"]["values"][0] == pytest.approx(0.6, abs=1e-12)

    def test_diagnose_payload(self):
        doc = {
            "name": "d",
            "kind": "diagnose",
            "k": 2,
            "model": {"emission": "binary-channel(0.1,0.1)"},
            "observations": [0, 1],
        }
        report = run_scenario(Scenario.from_dict(doc))
        assert report["results"]["fully_vacuous"] is True

    def test_report_deterministic_modulo_timing(self):
        first = report_to_doc(run_scenario(Scenario.from_dict(PREDICT_DOC)))
        second = report_to_doc(run_scenario(Scenario.from_dict(PREDICT_DOC)))
        assert strip_timing(first) == strip_timing(second)


class TestBundledCatalog:
    def test_expected_names_present(self):
        names = set(bundled_scenarios())
        assert {
            "example4-medical-test",
            "example5-standard-idm",
            "section5-scaled-beta",
            "section5-naive-witness",
            "theorem-a1-concentration",
        } <= names

    def test_every_bundled_scenario_has_assertions(self):
        manifest = assertion_manifest()
        for name in bundled_scenarios():
            assert manifest.get(name), f"no assertion entries for {name}"

    def test_assertion_manifest_passes(self):
        manifest = assertion_manifest()
        for name, doc in bundled_scenarios().items():
            report = run_scenario(Scenario.from_dict(doc))
            failures = check_assertions(report, manifest[name])
            assert not failures, f"{name}: {failures}"

    def test_custom_directory_merge(self, tmp_path, monkeypatch):
        write_scenario(tmp_path, dict(PREDICT_DOC, name="user-extra"), "user.json")
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert "user-extra" in custom_scenarios(bundled_scenarios())

    def test_custom_directory_skips_a_report_written_there(self, tmp_path, monkeypatch, capsys):
        # a report has neither `name` nor `kind` at its top level, so `list` skips it
        write_scenario(tmp_path, dict(PREDICT_DOC, name="user-extra"), "user.json")
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert main(["run", "user-extra", "--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert list(custom_scenarios(bundled_scenarios())) == ["user-extra"]
        capsys.readouterr()
        assert main(["list"]) == EXIT_OK
        assert "user-extra" in capsys.readouterr().out

    def test_custom_directory_absent(self, monkeypatch):
        monkeypatch.delenv("LATENTIDM_SCENARIO_DIR", raising=False)
        assert custom_scenarios(bundled_scenarios()) == {}


class TestCliExitCodes:
    def test_run_bundled_by_name(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "example5-standard-idm", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["results"]["bounds"][0]["lower"] == pytest.approx(0.4, abs=2e-3)

    def test_run_file_path(self, tmp_path, capsys):
        path = write_scenario(tmp_path, PREDICT_DOC)
        assert main(["run", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "local-predict"

    def test_parse_error_is_exit_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "kind": }', encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_validation_error_is_exit_1_with_column(self, tmp_path, capsys):
        doc = dict(PREDICT_DOC, model={"emission": [[0.9, 0.3], [0.1, 0.6]]})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_INVALID
        assert "column 1" in capsys.readouterr().err

    def test_unknown_name_is_exit_1(self, capsys):
        assert main(["run", "no-such-scenario"]) == EXIT_INVALID

    def test_size_cap_is_exit_2(self, tmp_path, capsys):
        doc = dict(PREDICT_DOC, observations=[0] * OVER_CAP_N)
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_SIZE_CAP

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {
                "model": {"emission": "binary-channel(0.1,0.2)"},
                "hyper": {"s": 2.0, "t": [0.5, 0.5]},
            },
        ],
    )
    def test_observation_count_past_the_weight_pass_cap_names_its_field(
        self, tmp_path, capsys, changes
    ):
        # the observations reach the weight pass through an open side (identity channel) or
        # through the fixed-prior values (`hyper.t`); the cap is met only while running
        doc = dict(PREDICT_DOC, observations=[0, 1] * (OVER_CAP_N // 2) + [0], **changes)
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_SIZE_CAP
        err = capsys.readouterr().err
        assert "field 'observations': weight pass capped" in err
        assert f"k=2, n={OVER_CAP_N} needs" in err
        assert "Traceback" not in err

    def test_observation_count_is_free_when_the_diagnosis_settles_every_side(
        self, tmp_path, capsys
    ):
        doc = dict(
            PREDICT_DOC,
            model={"emission": "binary-channel(0.1,0.2)"},
            observations=[0, 1] * 10 + [0],
        )
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_OK
        bounds = json.loads(capsys.readouterr().out)["results"]["bounds"]
        assert [(b["lower"], b["upper"]) for b in bounds] == [(0.0, 1.0), (0.0, 1.0)]

    def test_k_cap_is_exit_2_when_limits_settle(self, tmp_path, capsys):
        # all-positive k=5: every limit is settled, yet k is past the cap
        doc = dict(
            PREDICT_DOC, k=5, model={"emission": [[0.2] * 5] * 5}, observations=[0, 1]
        )
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_SIZE_CAP
        assert "k <= 4" in capsys.readouterr().err

    def test_k_cap_comes_before_the_emission_is_built(self):
        # a k x k identity at k = 3000 is 72 MB; the cap is read from `k` alone
        doc = dict(PREDICT_DOC, k=3000, observations=[0, 1])
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="k <= 4; got k=3000"):
                Scenario.from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(SizeCapError, match="got k=100000000"):
            Scenario.from_dict(dict(doc, k=100_000_000))
        # so a bad model past the cap is a size-cap error too
        with pytest.raises(SizeCapError):
            Scenario.from_dict(dict(doc, k=5, model={"emission": "no-such-preset"}))

    def test_scaled_beta_fixed_t1_past_size_cap_is_exit_2(self, tmp_path, capsys):
        doc = dict(SCALED_BETA_DOC, dataset={"positives": 2, "total": OVER_CAP_N}, fixed_t1=0.5)
        path = write_scenario(tmp_path, doc)
        assert main(["run", path]) == EXIT_SIZE_CAP
        assert f"k=2, n={OVER_CAP_N} needs" in capsys.readouterr().err

    def test_scaled_beta_fixed_t1_total_is_capped_before_its_dataset(self, tmp_path, capsys):
        # 10^8 observations would be built, one emission row each, before the weight pass
        doc = dict(SCALED_BETA_DOC, dataset={"positives": 2, "total": 10**8}, fixed_t1=0.5)
        code, peak = run_traced(["run", write_scenario(tmp_path, doc)])
        assert code == EXIT_SIZE_CAP
        assert peak < 2**20
        assert "k=2, n=100000000 needs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("k", dict(PREDICT_DOC, k=5)),
            (
                "dataset.total",
                dict(SCALED_BETA_DOC, dataset={"positives": 2, "total": OVER_CAP_N}, fixed_t1=0.5),
            ),
        ],
    )
    def test_size_cap_names_its_field(self, tmp_path, capsys, field, doc):
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_SIZE_CAP
        err = capsys.readouterr().err
        assert f"field '{field}': " in err
        assert "Traceback" not in err
        # refused while parsing, before any run
        with pytest.raises(SizeCapError, match=f"field '{field}'"):
            Scenario.from_dict(doc)

    def test_search_past_the_work_cap_names_its_field(self, tmp_path, capsys, monkeypatch):
        # both open sides miss their envelopes; a cap of exactly the weight pass's
        # C(3 + 2, 2) - 1 = 9 state updates admits the pass and refuses the search's
        # 2 sides x 3 strata x 3 vectors x k=2 = 36 cells before its first evaluation
        monkeypatch.setattr(observation, "MAX_WORK", math.comb(3 + 2, 2) - 1)
        monkeypatch.setattr(observation, "_state_index", observation._state_index.__wrapped__)
        evaluations = []
        monkeypatch.setattr(strata, "_stratum_predictive", lambda *args: evaluations.append(args))
        doc = dict(PREDICT_DOC, model={"emission": [[0.0, 0.4], [1.0, 0.6]]}, observations=[0, 1, 1])
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_SIZE_CAP
        err = capsys.readouterr().err
        assert "field 'observations': search capped at 9 cells; 2 sides x 3 strata x |W|=3 x k=2 = 36" in err
        assert "Traceback" not in err
        assert evaluations == []

    def test_two_thousand_observations_of_a_binary_channel(self, tmp_path, capsys):
        # a zero entry leaves outcome 0's upper and outcome 1's lower to the search; every
        # value of a logit scan of the exact predictive lies in the reported interval
        emission = [[0.0, 0.4], [1.0, 0.6]]
        rows = np.random.default_rng(1).permutation([0] * 600 + [1] * 1400).tolist()
        path = write_scenario(tmp_path, dict(PREDICT_DOC, model={"emission": emission}, observations=rows))
        seconds = []
        for _ in range(2):  # each cold, the faster one timed
            observation._state_index.cache_clear()
            start = time.perf_counter()
            assert main(["run", path]) == EXIT_OK
            seconds.append(time.perf_counter() - start)
            bounds = json.loads(capsys.readouterr().out)["results"]["bounds"]
        assert min(seconds) < 0.5
        # each outcome has one side at its limit and one searched to an interior point
        assert all({*b["argmin_t"], *b["argmax_t"]} == {"limit", "point"} for b in bounds)
        counts, log_w = ManifestDataset.from_rows(EmissionMatrix(emission), rows).weight_pass
        logit = np.linspace(-60.0, 60.0, 2001)
        for chunk in np.array_split(logit, 20):
            log_t = -np.logaddexp(0.0, -np.column_stack((chunk, -chunk)))
            values = predictive_at_log_t(counts, log_w, 2.0, log_t)
            for j, b in enumerate(bounds):
                assert (values[:, j] >= b["lower"] - 1e-13).all()
                assert (values[:, j] <= b["upper"] + 1e-13).all()

    def test_channel_likelihood_past_the_index_cap_names_its_field(self, monkeypatch):
        # a cap of 44 state updates, C(8 + 2, 2) - 1, admits 8 observations of a k = 2 channel,
        # not 9
        monkeypatch.setattr(observation, "MAX_WORK", 44)
        monkeypatch.setattr(observation, "_state_index", observation._state_index.__wrapped__)
        doc = dict(TREND_DOC, likelihood=dict(CHANNEL_LIKELIHOOD, observations=[0, 1] * 4))
        Scenario.from_dict(doc)
        doc = dict(doc, contrast_likelihood=dict(CHANNEL_LIKELIHOOD, observations=[0] * 9))
        with pytest.raises(SizeCapError, match="field 'contrast_likelihood.observations': "):
            Scenario.from_dict(doc)

    def test_identity_emission_is_held_once(self, tmp_path, capsys):
        # the k = 1000 identity is 8 MB (7.6 MiB); a second copy would double it
        doc = dict(PREDICT_DOC, kind="diagnose", k=1000, observations=[0, 1, 2])
        code, peak = run_traced(["run", write_scenario(tmp_path, doc)])
        assert code == EXIT_OK
        assert peak < 9 * 2**20

    @pytest.mark.parametrize("k", [3000, 100_000_000])
    def test_diagnose_k_cap_comes_before_the_emission_is_built(self, tmp_path, capsys, k):
        # the identity preset is a k x k matrix: 72 MB at k = 3000
        doc = dict(PREDICT_DOC, kind="diagnose", k=k, observations=[0, 1])
        code, peak = run_traced(["run", write_scenario(tmp_path, doc)])
        assert code == EXIT_SIZE_CAP
        assert peak < 2**20
        assert f"field 'k': diagnose capped at k <= 1000; got k={k}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, change",
        [
            ("sequence.s", {"sequence": {"family": "fixed-strength", "s": 1e30}}),
            ("schedule", {"schedule": [10, 10**30]}),
        ],
    )
    def test_trend_strength_past_its_cap_is_exit_2(self, tmp_path, capsys, field, change):
        # either would give the Beta CDF's continued fraction parameters near 10^30,
        # where it does not converge in its 10,000 steps
        doc = dict(bundled_scenarios()["theorem1-escape-contrast"], **change)
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_SIZE_CAP
        assert f"field '{field}': " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sequence", [{"family": "canonical"}, {"family": "fixed-strength", "s": 10**8}]
    )
    def test_trend_strength_cap_is_inclusive(self, tmp_path, capsys, sequence):
        doc = dict(
            bundled_scenarios()["theorem1-escape-contrast"], sequence=sequence, schedule=[10, 10**8]
        )
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_OK
        for row in json.loads(capsys.readouterr().out)["results"]["main"]["rows"]:
            assert all(0.0 <= value <= 1.0 for value in [row["ratio"], *row["mass"]])

    def test_scaled_beta_bounds_take_any_total(self, tmp_path, capsys):
        doc = dict(SCALED_BETA_DOC, dataset={"positives": 2, "total": 1200})
        path = write_scenario(tmp_path, doc)
        assert main(["run", path]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["lower"], results["upper"], results["fixed_t"]) == (0.1, 0.9, None)

    @pytest.mark.parametrize("kind", ["predict", "diagnose"])
    def test_impossible_observation_is_exit_1(self, tmp_path, capsys, kind):
        # row 1 is emitted under no hidden outcome, so observing it is impossible
        doc = dict(
            PREDICT_DOC,
            kind=kind,
            model={"emission": [[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]]},
            observations=[0, 1],
        )
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_INVALID
        assert "field 'observations': observation 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,doc", BAD_DOCUMENTS)
    def test_bad_document_is_exit_1_naming_field(self, tmp_path, capsys, field, doc):
        path = write_scenario(tmp_path, doc)
        assert main(["run", path]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"field '{field}':" in err and "Traceback" not in err

    @staticmethod
    def _assert_ratios_of_theta1_power(block, e):
        # f = theta_0 and L = theta_1^e along the canonical family to (1, 0):
        # the ratio is alpha_0 / (s + e) in closed form, within README's error bound
        seq = canonical_concentrating_sequence(SimplexPoint([1.0, 0.0]))
        for row in block["rows"]:
            params = prior_at(seq, row["n"])
            s = Fraction(params.s)
            exact = s * Fraction(float(params.t.coords[0])) / (s + e)
            assert abs(Fraction(row["ratio"]) / exact - 1) <= ratio_tolerance(params.s, e)

    def test_tiny_normalizer_ratio_is_exit_0(self, tmp_path, capsys):
        # E_n(L) is far below the smallest float; its log-space ratio is still defined
        doc = {
            "name": "tiny-normalizer",
            "kind": "theorem-a1a2",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "monomial", "exponents": [0, 5000000]},
            "sequence": {"family": "canonical"},
            "schedule": [100],
            "deltas": [0.1],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        self._assert_ratios_of_theta1_power(results["main"], 5000000)

    def test_tiny_contrast_normalizer_ratio_is_exit_0(self, tmp_path, capsys):
        # the contrast's E_n(L) is 0.0 as a float at n = 10, and its ratio is reported
        doc = dict(
            bundled_scenarios()["theorem-a1-concentration"],
            contrast_likelihood={"kind": "monomial", "exponents": [0, 5000]},
        )
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        self._assert_ratios_of_theta1_power(results["contrast"], 5000)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("function.exponents", {"function": {"kind": "monomial", "exponents": [10**9, 0]}}),
            ("likelihood.exponents", {"likelihood": {"kind": "monomial", "exponents": [0, 10**9]}}),
            (
                "contrast_likelihood.exponents",
                {"contrast_likelihood": {"kind": "monomial", "exponents": [0, 10**9]}},
            ),
        ],
    )
    def test_huge_exponent_is_exit_2_before_any_ladder(self, tmp_path, capsys, field, change):
        # a ladder for 10**9 would ask for ~24 GB; the cap rejects it while parsing
        path = write_scenario(tmp_path, dict(TREND_DOC, **change))
        tracemalloc.start()
        try:
            code = main(["run", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_SIZE_CAP
        assert peak < 2**20
        assert f"field '{field}': exponents capped at <= 10000000" in capsys.readouterr().err

    def test_exponent_cap_is_inclusive(self):
        at_cap = dict(TREND_DOC, likelihood={"kind": "monomial", "exponents": [0, 10**7]})
        Scenario.from_dict(at_cap)  # parses; only running it builds the ladder
        past = dict(TREND_DOC, likelihood={"kind": "monomial", "exponents": [0, 10**7 + 1]})
        with pytest.raises(SizeCapError, match="'likelihood.exponents'"):
            Scenario.from_dict(past)

    @pytest.mark.parametrize(
        "change",
        [
            {"likelihood": {"kind": "monomial", "exponents": [0] * 999 + [10**7]}},
            {
                "function": {"kind": "monomial", "exponents": [10**7] + [0] * 999},
                "likelihood": {"kind": "constant"},
            },
        ],
    )
    def test_many_coordinates_and_a_huge_exponent_is_exit_2_before_any_ladder(
        self, tmp_path, capsys, change
    ):
        # each exponent is under its cap, but a 1000 x (10**7 + 1) ladder is ~80 GB
        doc = dict(TREND_DOC, target=[1.0] + [0.0] * 999, schedule=[1000], **change)
        path = write_scenario(tmp_path, doc)
        tracemalloc.start()
        try:
            code = main(["run", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_SIZE_CAP
        assert peak < 2**20
        err = capsys.readouterr().err
        assert "field 'target': k x (largest exponent + 1) capped at <= 60000006" in err
        assert "got 1000 x 10000001" in err

    def test_ladder_cap_admits_every_document_of_at_most_six_coordinates(self):
        # k = 6 with every exponent at its cap sits on the ladder cap exactly
        grid_doc = dict(
            TREND_DOC,
            target=[1 / 6] * 6,
            function={"kind": "monomial", "exponents": [10**7] * 6},
            likelihood={"kind": "monomial", "exponents": [10**7] * 6},
            schedule=[6],
            grid_resolution=2,
        )
        Scenario.from_dict(grid_doc)  # parses; only running it builds the ladders
        seven = dict(
            TREND_DOC,
            target=[1.0] + [0.0] * 6,
            likelihood={"kind": "monomial", "exponents": [0] * 6 + [10**7]},
            schedule=[6],
        )
        with pytest.raises(SizeCapError, match="got 7 x 10000001"):
            Scenario.from_dict(seven)
        # many coordinates with small exponents stay within it
        wide = dict(TREND_DOC, target=[1.0] + [0.0] * 999, schedule=[1000])
        Scenario.from_dict(wide)

    def test_list_contains_bundled_names(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in (
            "example4-medical-test",
            "example5-standard-idm",
            "section5-scaled-beta",
            "section5-naive-witness",
            "theorem-a1-concentration",
        ):
            assert name in out

    def test_list_merges_custom_after_bundled(self, tmp_path, monkeypatch, capsys):
        write_scenario(tmp_path, dict(PREDICT_DOC, name="zz-custom"), "user.json")
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.index("example4-medical-test") < out.index("zz-custom")

    @pytest.mark.parametrize("argv", [["run", "example5-standard-idm"], ["list"]])
    @pytest.mark.parametrize(
        "content,message",
        [(b"{bad json", "parse error at line 1, column 2"), (b"\xff{}", "not UTF-8 text at byte 0")],
    )
    def test_malformed_custom_file_is_exit_1_naming_it(
        self, tmp_path, monkeypatch, capsys, argv, content, message
    ):
        (tmp_path / "broken.json").write_bytes(content)
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"broken.json: {message}" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": None}, "field 'kind': must be one of predict, "),
            ({"kind": ["predict"]}, "field 'kind': must be one of predict, "),
            ({"name": 7}, "field 'name': required non-empty string"),
            ({"name": None}, "field 'name': required non-empty string"),
        ],
        ids=["no-kind", "list-kind", "int-name", "no-name"],
    )
    def test_custom_file_with_a_bad_name_or_kind_is_exit_1_naming_it(
        self, tmp_path, monkeypatch, capsys, fields, message
    ):
        doc = {key: value for key, value in {**PREDICT_DOC, **fields}.items() if value is not None}
        write_scenario(tmp_path, doc, "odd.json")
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert main(["list"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"odd.json: {message}" in err

    @pytest.mark.parametrize("command", ["run", "list"])
    @pytest.mark.parametrize("name", ["dup", "example4-medical-test"])
    def test_a_taken_custom_name_is_exit_1_naming_both_sources(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        # b.json takes the name of the earlier a.json, or of a bundled scenario
        if name == "dup":
            write_scenario(tmp_path, dict(PREDICT_DOC, name=name), "a.json")
        write_scenario(tmp_path, dict(PREDICT_DOC, name=name, observations=[1]), "b.json")
        monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(tmp_path))
        assert main(["run", name] if command == "run" else ["list"]) == EXIT_INVALID
        source = tmp_path / "a.json" if name == "dup" else "the bundled scenario"
        message = f"field 'name': {name!r} is already taken by {source}"
        assert capsys.readouterr().err == f"error: {tmp_path / 'b.json'}: {message}\n"

    def test_directory_as_scenario_is_exit_1_naming_it(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: cannot read the scenario: {os.strerror(errno.EISDIR)}\n"

    @pytest.mark.parametrize("out", ["missing/report.json", "taken"])
    def test_unwritable_report_path_is_exit_1_naming_it(self, tmp_path, capsys, out):
        # a file in a missing directory, and a directory, onto which the temporary file the
        # report was written to cannot be moved and is removed
        (tmp_path / "taken").mkdir()
        out = tmp_path / out
        assert main(["run", "example5-standard-idm", "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot write the report: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_reports_every_failure(self, monkeypatch, capsys):
        # a failing comparison, an unresolvable path and an unknown op in one scenario's
        # checks, and another scenario whose run raises
        checked, broken = "example5-standard-idm", "section5-direct-manifest"
        manifest = assertion_manifest()
        manifest[checked] = manifest[checked] + [
            {"path": "bounds.0.lower", "op": "eq", "value": 0.5},
            {"path": "bounds.9.lower", "op": "eq", "value": 0.4},
            {"path": "bounds.0.lower", "op": "between", "value": 0.4},
            {"path": "bounds.0.nope", "op": "eq", "value": 0.4},
            {"path": "bounds.0.lower.x", "op": "eq", "value": 0.4},
        ]
        monkeypatch.setattr(cli, "assertion_manifest", lambda: manifest)
        original = cli.run_scenario

        def run(scenario):
            if scenario.name == broken:
                raise RuntimeError("run blew up")
            return original(scenario)

        monkeypatch.setattr(cli, "run_scenario", run)
        assert main(["selftest"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert out.count(": FAIL") == 2
        assert f"{checked}: FAIL (9 checks)" in out and f"{broken}: FAIL" in out
        assert "  - bounds.0.lower: eq 0.5 failed (actual 0.4)" in out
        assert "  - bounds.9.lower: unresolvable" in out
        assert "  - bounds.0.lower: unknown op 'between'" in out
        assert (
            "  - bounds.0.nope: unresolvable (\"path 'bounds.0.nope': missing key 'nope'\")" in out
        )
        assert (
            "  - bounds.0.lower.x: unresolvable "
            "(\"path 'bounds.0.lower.x': cannot descend into float\")" in out
        )
        assert "  - execution failed: run blew up" in out


class TestFormats:
    def test_table_format_for_trend(self, tmp_path):
        doc = {
            "name": "trend",
            "kind": "theorem-a1a2",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "constant"},
            "sequence": {"family": "canonical"},
            "schedule": [10, 100],
            "deltas": [0.1],
        }
        report = run_scenario(Scenario.from_dict(doc))
        table = report_to_table(report)
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == ["block", "n", "expectation", "mass_0.1", "ratio"]
        assert len(lines) == 3

    def test_table_columns_name_deltas_that_agree_to_six_digits_apart(self):
        # each mass column is named by its delta's repr, as its cells print; an integral
        # delta keeps its ".0"
        doc = {
            "name": "close-deltas",
            "kind": "verify-theorem1",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "constant"},
            "schedule": [10],
            "deltas": [0.1234567, 0.1234568, 2],
        }
        report = run_scenario(Scenario.from_dict(doc))
        lines = report_to_table(report).strip().split("\n")
        header = lines[0].split("\t")
        assert header[3:6] == ["mass_0.1234567", "mass_0.1234568", "mass_2.0"]
        assert len(set(header)) == len(header)
        masses = report["results"]["main"]["rows"][0]["mass"]
        assert lines[1].split("\t")[3:6] == [repr(m) for m in masses]
        assert masses[0] != masses[1]

    def test_table_format_flat_fallback(self):
        report = run_scenario(Scenario.from_dict(PREDICT_DOC))
        table = report_to_table(report)
        assert "bounds.0.lower\t" in table

    def test_atomic_write_via_cli(self, tmp_path):
        out = tmp_path / "nested.json"
        assert main(["run", "section5-direct-manifest", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["level"] == "manifest"
        assert not [p for p in os.listdir(tmp_path) if "tmp" in p]

    def test_doc_format_is_the_indenting_json_encoder(self):
        # every bundled report, timing included, as json.dumps writes it
        for doc in bundled_scenarios().values():
            report = run_scenario(Scenario.from_dict(doc))
            assert report_to_doc(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.text(),
            lambda children: st.lists(children, max_size=3)
            | st.tuples(children, children)
            | st.dictionaries(st.text(), children, max_size=3)
            | st.dictionaries(st.integers(), children, max_size=3),
            max_leaves=12,
        )
    )
    def test_doc_format_matches_json_on_any_value(self, value):
        # non-finite floats, non-ASCII text, tuples, empty containers and non-string keys
        expected = json.dumps({"value": value}, indent=2, sort_keys=True) + "\n"
        assert report_to_doc({"value": value}) == expected

    def test_doc_format_leaves_no_cyclic_garbage(self):
        report = run_scenario(Scenario.from_dict(PREDICT_DOC))
        gc.collect()
        gc.disable()
        try:
            report_to_doc(report)
            assert gc.collect() == 0
        finally:
            gc.enable()
