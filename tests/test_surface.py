"""The library holds only what a report runs.

Reports come from the command line: `cli.main` parses a scenario document,
runs it and writes its report.  This runs a fixed set of documents through
`cli.main` under `sys.settrace` and checks that every function defined in
`src/latentidm` was called, apart from the names that `perfbench/spans.py`
wraps or reads (it looks them up by string) and `SimplexPoint.__eq__`,
which the generated equality of extremizer descriptors and of
`PredictiveBounds` calls.  A function that only direct library tests reach
fails it: such code belongs in the tests, or nowhere.
"""

import ast
import inspect
import json
import os
import sys
from pathlib import Path

import latentidm
from latentidm import observation
from latentidm.cli import EXIT_OK, main
from test_cli import FACE_DOC, PREDICT_DOC, SCALED_BETA_DOC, TREND_DOC

PACKAGE = Path(latentidm.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# (module, qualified name) of the functions no document reaches
UNREACHED = {
    ("observation", "frequency_weights"),
    ("observation", "predictive_bounds"),
    ("idm", "log_marginal_probability"),
    ("vacuity", "delta_set_mass"),
    ("vacuity", "posterior_ratio"),
    ("simplex", "SimplexGrid.point_count"),
    ("simplex", "SimplexPoint.__eq__"),
}

# k = 2 with a zero entry: outcome 0's upper and outcome 1's lower miss their envelopes
SEARCHED_DOC = dict(
    PREDICT_DOC, model={"emission": [[0.0, 0.4], [1.0, 0.6]]}, observations=[0, 1, 1]
)
GRID_TREND_DOC = dict(
    TREND_DOC,
    target=[0.5, 0.5, 0.0],
    function={"kind": "monomial", "exponents": [1, 1, 0]},
    grid_resolution=20,
)
CHANNEL_TREND_DOC = dict(
    TREND_DOC,
    likelihood={"kind": "channel", "eps1": 0.1, "eps2": 0.2, "observations": [0, 1]},
)
FIXED_T1_DOC = dict(SCALED_BETA_DOC, fixed_t1=0.3)
# five observations of a 1e-200 entry: their product lies below 2^-1000, so the fixed-prior
# value's weight pass runs in log space
TINY_ENTRY_DOC = dict(
    PREDICT_DOC,
    k=3,
    model={"emission": [[1e-200, 0.5, 0.3], [1.0, 0.5, 0.7]]},
    observations=[0, 0, 0, 0, 0, 1],
    hyper={"s": 2.0, "t": [0.2, 0.3, 0.5]},
)
CUSTOM = {
    "face": FACE_DOC,
    "searched": SEARCHED_DOC,
    "grid-trend": GRID_TREND_DOC,
    "channel-trend": CHANNEL_TREND_DOC,
    "fixed-t1": FIXED_T1_DOC,
    "tiny-entry": TINY_ENTRY_DOC,
}


def _defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) of every function in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # functions and lambdas, not module or class bodies or comprehensions
            if not code.co_flags & inspect.CO_OPTIMIZED:
                continue
            if code.co_name.startswith("<") and code.co_name != "<lambda>":
                continue
            found[(str(path), code.co_firstlineno)] = (path.stem, code.co_qualname)
    return found


def _called(argv_lists) -> set[tuple[str, int]]:
    """(file, first line) of every code object called while `main` runs each argv."""
    codes = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)  # 'call' events only: no local tracer is returned

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        exits = [main(argv) for argv in argv_lists]
    finally:
        sys.settrace(previous)
    assert exits == [EXIT_OK] * len(argv_lists)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_function_is_reached_from_the_command_line(tmp_path, monkeypatch, capsys):
    scenarios, out = tmp_path / "scenarios", tmp_path / "out"
    scenarios.mkdir(), out.mkdir()
    for name, doc in CUSTOM.items():
        (scenarios / f"{name}.json").write_text(json.dumps(dict(doc, name=name)), encoding="utf-8")
    monkeypatch.setenv("LATENTIDM_SCENARIO_DIR", str(scenarios))
    observation._state_index.cache_clear()  # a cached index would hide its build
    argv_lists = [
        ["selftest"],
        ["list"],
        ["run", "theorem-a1-concentration", "--format", "table"],
        ["run", "face", "--format", "table"],
        ["run", "searched", "--out", str(out / "searched.json")],
        *(["run", name] for name in ("grid-trend", "channel-trend", "fixed-t1", "tiny-entry")),
    ]
    called = _called(argv_lists)
    capsys.readouterr()
    defined = _defined_functions()
    missed = {where for key, where in defined.items() if key not in called} - UNREACHED
    assert not missed, f"no document reaches {sorted(missed)}"
    reached = {where for key, where in defined.items() if key in called}
    assert not reached & UNREACHED, f"take {sorted(reached & UNREACHED)} off the allow-list"


def test_package_root_exports_the_version_and_the_errors():
    assert sorted(latentidm.__all__) == ["ScenarioError", "SizeCapError", "__version__"]


def test_tests_import_only_submodules_and_exports_from_the_root():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    allowed = modules | set(latentidm.__all__)
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "latentidm":
                names = {alias.name for alias in node.names}
                assert names <= allowed, f"{path.name} imports {sorted(names - allowed)}"
