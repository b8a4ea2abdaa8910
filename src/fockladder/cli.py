"""Command-line front end for the scenario runner.

Subcommands: ``run`` (execute a scenario, write CSV series and a JSON
summary), ``presets`` (list or dump the bundled scenarios), ``regime``
(print the validity-regime table), ``sweep`` (repeat a scenario over a
list of values for one numeric parameter).

Exit codes: 0 success, 1 regime check failed, 2 invalid configuration,
3 numerical guard tripped (leakage, integration, degenerate steady
state, resonance) or a linear-algebra routine failed (numpy's
``LinAlgError``, a ``ValueError`` that is not bad input), 4 result
misses its embedded check targets.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    LeakageError,
)
from .observables import ObservableSeries
from .raman import ResonanceError
from .scenarios import (
    ScenarioValidationError,
    evaluate_check,
    list_presets,
    load_scenario,
    parse_config,
    preset_document,
    run_scenario,
    series_to_csv,
    summary_to_json,
    sweep,
)

EXIT_OK = 0
EXIT_REGIME_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_MISS = 4

_GUARD_ERRORS = (LeakageError, IntegrationError, DegenerateSteadyStateError, ResonanceError,
                 LinAlgError)


def _load_with_overrides(scenario: str, args) -> "ScenarioConfig":
    config = load_scenario(scenario)
    doc = copy.deepcopy(config.raw)
    changed = False
    if getattr(args, "cutoff", None) is not None:
        doc["cutoff"] = args.cutoff
        changed = True
    if getattr(args, "tol", None) is not None:
        integ = dict(doc.get("integrator", {}))
        integ["rel_tol"] = args.tol
        doc["integrator"] = integ
        changed = True
    return parse_config(doc) if changed else config


def _make_dir(path: Path) -> None:
    """Create ``path`` and its parents; a path that cannot be a directory is bad input."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioValidationError("--out", f"cannot create directory {path}: {exc.strerror}")


def _cmd_run(args) -> int:
    config = _load_with_overrides(args.scenario, args)
    if args.out:
        _make_dir(Path(args.out))
    result = run_scenario(config)
    summary = dict(result.summary)
    if args.check:
        findings = evaluate_check(result)
        summary["check"] = findings
    out_json = summary_to_json(summary)
    if args.out:
        out_dir = Path(args.out)
        if result.series is not None:
            csv_path = out_dir / f"{config.name}.csv"
            csv_path.write_text(series_to_csv(result.series, config.time_column))
            print(f"wrote {csv_path}")
        json_path = out_dir / f"{config.name}.json"
        json_path.write_text(out_json)
        print(f"wrote {json_path}")
    else:
        sys.stdout.write(out_json)
    if args.check:
        misses = [f for f in summary["check"] if not f["pass"]]
        for f in summary["check"]:
            status = "pass" if f["pass"] else "FAIL"
            bound = f"target {f['target']} +/- {f['tol']}" if "target" in f else f"max {f['max']}"
            print(f"check {f['name']}: {status} (actual {f['actual']}, {bound})")
        if misses:
            return EXIT_CHECK_MISS
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.dump:
        doc = preset_document(args.dump)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    for name, description in list_presets():
        print(f"{name:24s} {description}")
    return EXIT_OK


def _cmd_regime(args) -> int:
    config = load_scenario(args.scenario)
    if config.model not in ("full-raman",):
        raise ScenarioValidationError("model", "regime checks apply to full-raman scenarios")
    doc = copy.deepcopy(config.raw)
    doc["regime_only"] = True
    if args.threshold is not None:
        doc["parameters"]["regime_threshold"] = args.threshold
    result = run_scenario(parse_config(doc))
    report = result.summary["regime"]
    for entry in report["entries"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"{entry['name']:40s} ratio {entry['ratio']:12.6g} "
              f">= {entry['threshold']:g}  {status}")
    for res in report["residuals"]:
        print(f"{res['label']:40s} value {res['value']:12.6g}")
    print("regime: " + ("pass" if report["passed"] else "FAIL"))
    return EXIT_OK if report["passed"] else EXIT_REGIME_FAIL


def _cmd_sweep(args) -> int:
    config = _load_with_overrides(args.scenario, args)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ScenarioValidationError("--values", "must be a comma-separated number list")
    if not values:
        raise ScenarioValidationError("--values", "must name at least one value")
    if args.out:
        if Path(args.out).is_dir():
            raise ScenarioValidationError("--out", f"{args.out} is a directory, not a file")
        _make_dir(Path(args.out).parent)
    rows = sweep(config, args.param, values)
    keys = sorted({k for row in rows for k in row} - {"param", "value"})
    # a missing or null value (an undefined Q) becomes nan in the float columns
    table = ObservableSeries([row["value"] for row in rows],
                             {k: [row.get(k) for row in rows] for k in keys})
    text = series_to_csv(table, "value")
    if args.out:
        path = Path(args.out)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockladder",
        description="Engineered Fock-ladder interactions: scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario (preset name or JSON file)")
    run_p.add_argument("--scenario", required=True,
                       help="preset name or path to a scenario JSON file")
    run_p.add_argument("--out", help="directory for the CSV series and JSON summary")
    run_p.add_argument("--check", action="store_true",
                       help="compare against the scenario's embedded targets")
    run_p.add_argument("--cutoff", type=int, help="override the Fock cutoff")
    run_p.add_argument("--tol", type=float, help="override the integrator rel_tol")
    run_p.set_defaults(func=_cmd_run)

    presets_p = sub.add_parser("presets", help="list bundled scenarios")
    presets_p.add_argument("--dump", metavar="NAME", help="print one preset as JSON")
    presets_p.set_defaults(func=_cmd_presets)

    regime_p = sub.add_parser("regime", help="print the validity-regime table")
    regime_p.add_argument("--scenario", required=True,
                          help="preset name or path to a scenario JSON file")
    regime_p.add_argument("--threshold", type=float,
                          help="elimination-ratio threshold (default 10)")
    regime_p.set_defaults(func=_cmd_regime)

    sweep_p = sub.add_parser("sweep", help="repeat a scenario over parameter values")
    sweep_p.add_argument("--scenario", required=True,
                         help="preset name or path to a scenario JSON file")
    sweep_p.add_argument("--param", required=True,
                         help="dotted path of the parameter, e.g. parameters.Gamma")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of numeric values")
    sweep_p.add_argument("--out", help="CSV file for the sweep table")
    sweep_p.add_argument("--cutoff", type=int, help="override the Fock cutoff")
    sweep_p.add_argument("--tol", type=float, help="override the integrator rel_tol")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _GUARD_ERRORS as exc:  # before ValueError, which LinAlgError subclasses
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
