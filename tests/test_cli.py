import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm import runner
from latentidm.cli import EXIT_DEGENERATE, EXIT_INVALID, EXIT_OK, EXIT_SIZE_CAP, main
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
from latentidm.errors import ScenarioError, SizeCapError


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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
        assert "user-extra" in custom_scenarios()

    def test_custom_directory_absent(self, monkeypatch):
        monkeypatch.delenv("LATENTIDM_SCENARIO_DIR", raising=False)
        assert custom_scenarios() == {}


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
        doc = dict(PREDICT_DOC, observations=[0] * 21)
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_SIZE_CAP

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
        doc = dict(SCALED_BETA_DOC, dataset={"positives": 2, "total": 21}, fixed_t1=0.5)
        path = write_scenario(tmp_path, doc)
        assert main(["run", path]) == EXIT_SIZE_CAP
        assert "n <= 20" in capsys.readouterr().err

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
        assert f"field '{field}':" in capsys.readouterr().err

    def test_degenerate_ratio_is_exit_3(self, tmp_path, capsys):
        doc = {
            "name": "degenerate",
            "kind": "theorem-a1a2",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "monomial", "exponents": [0, 5000000]},
            "sequence": {"family": "canonical"},
            "schedule": [100],
            "deltas": [0.1],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_DEGENERATE

    def test_degenerate_contrast_ratio_is_exit_3(self, tmp_path, capsys):
        # the main likelihood is fine; the contrast's ratio underflows
        doc = dict(
            bundled_scenarios()["theorem-a1-concentration"],
            contrast_likelihood={"kind": "monomial", "exponents": [0, 5000]},
        )
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_DEGENERATE
        assert "posterior normalizer underflowed (sum 0.0); " in capsys.readouterr().err

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

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


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
