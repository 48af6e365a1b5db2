"""Batch command-line front end.

Subcommands: `run` executes one scenario (bundled name or file path) and
writes its report; `list` prints the scenario catalog; `selftest` re-runs
every bundled scenario against the assertion manifest.  Exit codes: 0
success, 1 parse/validation failure, 2 size cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ScenarioError, SizeCapError
from .runner import (
    SCENARIO_DIR_ENV,
    Scenario,
    bundled_scenarios,
    check_assertions,
    custom_scenarios,
    read_scenario_file,
    report_to_doc,
    report_to_table,
    run_scenario,
    write_report,
    assertion_manifest,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SIZE_CAP = 2
_EXIT_CODES = {ScenarioError: EXIT_INVALID, SizeCapError: EXIT_SIZE_CAP}

_DESCRIPTIONS = {
    "example4-medical-test": "noisy binary channel, bounds stay (0, 1): no learning",
    "example4-tiny-imperfection": "channel error 0.001, bounds still (0, 1)",
    "example5-standard-idm": "perfect observation, mixed counts: bounds (0.4, 0.8)",
    "example5-one-outcome": "perfect observation, one outcome only: lower > 0, upper = 1",
    "example2-diagnose-channel": "all-positive emissions, every learnability flag false",
    "diagnose-identity-single": "one perfect observation certifies its outcome",
    "section5-scaled-beta": "rescaled manifest prior set, bounds pinned to interval ends",
    "section5-naive-witness": "channel inversion of manifest bounds exits [0, 1]",
    "section5-direct-manifest": "manifest-level prediction, latent level ignored",
    "theorem-a1-concentration": "concentration trend: slab mass to 1, ratio to extremum",
    "theorem1-monomial-vacuity": "future-pair probability stays maximally imprecise",
    "theorem1-escape-contrast": "fixed-strength family, vanishing likelihood blocks the drag",
}


def _load_scenario(identifier: str) -> Scenario:
    if os.path.exists(identifier):
        return Scenario.from_dict(read_scenario_file(identifier))
    bundled = bundled_scenarios()
    catalog = {**bundled, **custom_scenarios(bundled)}
    if identifier in catalog:
        return Scenario.from_dict(catalog[identifier])
    raise ScenarioError(f"no scenario file or catalog entry named {identifier!r}")


def _cmd_run(args) -> int:
    report = run_scenario(_load_scenario(args.scenario))
    text = report_to_doc(report) if args.format == "doc" else report_to_table(report)
    if args.out:
        write_report(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_list(args) -> int:
    bundled = bundled_scenarios()
    custom = custom_scenarios(bundled)
    width = max(len(name) for name in [*bundled, *custom, "name"])
    print(f"{'name'.ljust(width)}  {'kind'.ljust(20)}  demonstrates")
    for name, doc in bundled.items():
        note = _DESCRIPTIONS.get(name, "")
        print(f"{name.ljust(width)}  {doc['kind'].ljust(20)}  {note}")
    for name, doc in custom.items():
        print(f"{name.ljust(width)}  {doc['kind'].ljust(20)}  (custom, {SCENARIO_DIR_ENV})")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    manifest = assertion_manifest()
    catalog = bundled_scenarios()
    all_ok = True
    for name, doc in catalog.items():
        checks = manifest.get(name, [])
        try:
            report = run_scenario(Scenario.from_dict(doc))
            failures = check_assertions(report, checks)
        except Exception as exc:  # degraded environments should still report
            failures = [f"execution failed: {exc}"]
        status = "PASS" if not failures else "FAIL"
        all_ok = all_ok and not failures
        print(f"{name}: {status} ({len(checks)} checks)")
        for failure in failures:
            print(f"  - {failure}")
    return EXIT_OK if all_ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentidm",
        description="Posterior-predictive bounds and vacuity diagnostics "
        "for noisily observed categorical variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario (bundled name or JSON file path)")
    run_parser.add_argument("scenario", help="scenario name or path to a scenario JSON file")
    run_parser.add_argument("--out", help="write the report here instead of stdout")
    run_parser.add_argument(
        "--format", choices=("doc", "table"), default="doc", help="report format"
    )
    run_parser.set_defaults(func=_cmd_run)

    list_parser = sub.add_parser("list", help="list bundled and custom scenarios")
    list_parser.set_defaults(func=_cmd_list)

    selftest_parser = sub.add_parser(
        "selftest", help="run every bundled scenario against the assertion manifest"
    )
    selftest_parser.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
