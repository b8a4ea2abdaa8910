"""Scenario schema, presets, runner outputs, sweeps and the CLI."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fockladder
from fockladder import (
    ObservableSeries,
    ScenarioValidationError,
    collision_document,
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
from fockladder import cli, scenarios
from fockladder.cli import main as cli_main
from fockladder.scenarios import SCHEMA_VERSION

EXPECTED_PRESETS = {"fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig6a", "fig6b"}


def engineered_doc(**overrides):
    """Minimal fast scenario: one-step engineered ladder, half a period."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": "unit",
        "model": "engineered-ladder",
        "reference_rate": {"unit": "lambda1"},
        "cutoff": 8,
        "grid": {"start": 0.0, "stop": float(np.pi), "samples": 21},
        "initial_state": {"field": {"0": 1.0}, "atom": {"e": 1.0}},
        "outputs": ["P0", "P1"],
        "parameters": {
            "ladder": {"base": 0, "weights": [1.0]},
            "zeta_ref": 0.01,
        },
    }
    doc.update(overrides)
    return doc


def vacuum_doc(case: str) -> dict:
    """fig4 without pump or thermal photons: the steady state, and from a
    vacuum start also the last sample, is the vacuum, where Q is undefined."""
    doc = preset_document("fig4")
    doc["parameters"].update(Gamma=0, n_bar=0)
    if case == "steady":
        doc["outputs"] = ["F3", "mean_n"]
    else:
        doc["initial_state"] = {"fock": 0}
        doc["outputs"] = ["F3", "mean_n", "P0"]
    return doc


def vacuum_column_doc(model: str) -> dict:
    """A run from |1> whose later samples reach the vacuum, with a Q column:
    fig4 without pump or thermal photons, or its collision model with
    ground-state atoms and no bath."""
    if model == "ub-liouvillian":
        doc = preset_document("fig4")
        doc["parameters"].update(Gamma=0, n_bar=0)
        doc["grid"]["stop"] = 25
    else:
        doc = collision_document(1.5, t_end=1.0)
        doc["parameters"].update(Gamma=10, gamma=0, n_bar=0, atom_state={"g": 1})
        doc["outputs"] = ["Q", "mean_n", "P0"]
    doc["initial_state"] = {"fock": 1}
    return doc


class TestSchema:
    def test_minimal_document_parses(self):
        cfg = parse_config(engineered_doc())
        assert cfg.model == "engineered-ladder"
        assert cfg.time_column == "zeta1_t"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(extra=1))

    def test_unknown_parameter_key_rejected(self):
        doc = engineered_doc()
        doc["parameters"]["bogus"] = 1.0
        with pytest.raises(ScenarioValidationError):
            parse_config(doc)

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(schema_version=99))

    def test_unknown_model_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(model="bogus"))

    def test_bad_grid_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(grid={"start": 1.0, "stop": 0.0, "samples": 5}))

    def test_bad_output_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(outputs=["bogus"]))

    def test_output_beyond_cutoff_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_config(engineered_doc(outputs=["P99"]))

    def test_missing_keys_reported(self):
        doc = engineered_doc()
        del doc["cutoff"]
        with pytest.raises(ScenarioValidationError, match="cutoff"):
            parse_config(doc)

    @pytest.mark.parametrize("key, value", [("method", "RK45"), ("max_step", 0.1), ("abs_tol", 1e-9)])
    def test_removed_integrator_keys_rejected(self, key, value):
        doc = engineered_doc(integrator={"rel_tol": 1e-8, key: value})
        with pytest.raises(ScenarioValidationError, match="unknown keys"):
            parse_config(doc)

    def test_complex_amplitude_pairs(self):
        doc = engineered_doc()
        doc["initial_state"]["field"] = {"0": [0.6, 0.0], "1": [0.0, 0.8]}
        cfg = parse_config(doc)
        run_scenario(cfg)


class TestPresets:
    def test_exact_preset_set(self):
        names = {name for name, _ in list_presets()}
        assert names == EXPECTED_PRESETS

    def test_descriptions_nonempty(self):
        for _, description in list_presets():
            assert description.strip()

    def test_all_presets_parse(self):
        for name in EXPECTED_PRESETS:
            cfg = load_scenario(name)
            assert cfg.name == name

    def test_dump_is_deep_copy(self):
        doc = preset_document("fig4")
        doc["parameters"]["Gamma"] = 1.0
        assert preset_document("fig4")["parameters"]["Gamma"] == 63.0

    def test_unknown_preset(self):
        with pytest.raises(ScenarioValidationError):
            preset_document("fig9")

    def test_anchor_embedded(self):
        for name in ("fig2a", "fig4", "fig6a", "fig6b"):
            doc = preset_document(name)
            assert doc["anchor"]["figure"]
            assert doc["anchor"]["targets"]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(engineered_doc()))
        cfg = load_scenario(str(path))
        assert cfg.name == "unit"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioValidationError):
            load_scenario(str(path))

    def test_load_missing_file(self):
        with pytest.raises(ScenarioValidationError):
            load_scenario("no-such-scenario")


class TestRunner:
    def test_engineered_run_outputs(self):
        result = run_scenario(parse_config(engineered_doc()))
        series = result.series
        assert set(series.columns) == {"P0", "P1"}
        # x = zeta_ref * t: P0 = cos^2 x starting from |e, 0>
        assert np.allclose(series.columns["P0"], np.cos(series.times) ** 2, atol=1e-7)

    def test_integrator_diagnostics_recorded(self):
        engineered = run_scenario(parse_config(engineered_doc())).summary
        assert engineered["diagnostics"]["integrator"] == {
            "engineered": {"steps": 0, "exponentials": 0, "error_estimate": 0.0}
        }
        doc = preset_document("fig2a")
        first = summary_to_json(run_scenario(parse_config(doc)).summary)
        assert summary_to_json(run_scenario(parse_config(doc)).summary) == first
        integrator = json.loads(first)["diagnostics"]["integrator"]
        assert integrator["full"]["steps"] > 0
        # the full run's steps are interpolated from fewer exponentials
        assert 0 < integrator["full"]["exponentials"] < integrator["full"]["steps"]
        assert 0.0 < integrator["full"]["error_estimate"] <= doc["integrator"]["rel_tol"]
        assert integrator["engineered"] == {"steps": 0, "exponentials": 0, "error_estimate": 0.0}

    def test_full_model_memory_stays_per_block(self):
        # fig2b at cutoff 480 has d = 1,924 levels in blocks of at most 4; its
        # Hamiltonian terms are COO triplets, so no d x d array (59 MB of
        # complex entries) is formed
        # at 32,769 samples its trajectories hold 3 MiB; each Magnus level's
        # interval products are streamed into its state loop, not held for
        # every interval (137 MiB when they were)
        wide, long = preset_document("fig2b"), preset_document("fig2b")
        wide["cutoff"] = 480
        long["grid"]["samples"] = 32769
        for doc, bound in ((wide, 32 * 2**20), (long, 64 * 2**20)):
            config = parse_config(doc)
            tracemalloc.start()
            try:
                run_scenario(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (doc["cutoff"], doc["grid"]["samples"], peak)

    def test_density_diagnostics_recorded(self):
        # a thermal field touches only the block of the 13 populations
        fig4 = run_scenario(load_scenario("fig4")).summary
        # the slowest decay of the whole generator (a coherence) and of the
        # population block that the thermal start touches, in units of gamma
        assert fig4["diagnostics"].pop("steady") == {
            "spectral_gap": pytest.approx(3.0609, abs=1e-4),
            "touched_spectral_gap": pytest.approx(3.5672, abs=1e-4)}
        assert fig4["diagnostics"] == {"density": {"blocks": 1, "largest_block": 13}}
        doc = collision_document(0.35, t_end=0.02)
        collision = run_scenario(parse_config(doc)).summary
        assert collision["diagnostics"] == {"density": {"blocks": 1, "largest_block": 13}}
        # a g/e superposition atom couples every coherence order
        doc["parameters"]["atom_state"] = {"g": 0.6, "e": [0.0, 0.8]}
        mixed = run_scenario(parse_config(doc)).summary
        assert mixed["diagnostics"] == {"density": {"blocks": 1, "largest_block": 169}}

    def test_engineered_model_repeats_the_fig2a_comparison(self):
        # an engineered-ladder document on fig2a's ideal ladder runs the same
        # engineered reference as fig2a's own comparison, bit for bit
        fig2a = preset_document("fig2a")
        full = run_scenario(parse_config(fig2a))
        couplings = full.summary["couplings"]
        steps = couplings["ladder_top"] - couplings["ladder_base"]
        doc = engineered_doc(parameters={
            "ladder": {"base": couplings["ladder_base"], "weights": [1.0] * steps},
            "zeta_ref": couplings["zeta_ref"], "analytic": "fig2a",
        }, **{key: fig2a[key] for key in ("cutoff", "grid", "integrator", "initial_state",
                                          "outputs")})
        engineered = run_scenario(parse_config(doc))
        for name in fig2a["outputs"]:
            assert np.array_equal(engineered.series.columns[name],
                                  full.series.columns[f"{name}_engineered"])
        analytic = [name for name in full.series.columns if name.endswith("_analytic")]
        assert analytic
        for name in analytic:
            assert np.array_equal(engineered.series.columns[name], full.series.columns[name])
        assert (engineered.summary["deviations"]["engineered_vs_analytic"]
                == full.summary["deviations"]["engineered_vs_analytic"])
        assert engineered.summary["leakage"]["engineered"] == full.summary["leakage"]["engineered"]

    @pytest.mark.parametrize("name", ["fig2a", "fig3b"])
    def test_ajc_run_mirrors_the_jc_run(self, name):
        # AJC swaps the roles of g and e in the drive and in the engineered
        # reference alike, so an AJC run from e is the JC run from g
        runs = {}
        for kind, atom in (("JC", "g"), ("AJC", "e")):
            doc = preset_document(name)
            doc.pop("check")
            doc["parameters"].update(kind=kind, analytic=None)
            doc["initial_state"]["atom"] = {atom: 1}
            runs[kind] = run_scenario(parse_config(doc))
        jc, ajc = runs["JC"], runs["AJC"]
        assert list(ajc.series.columns) == list(jc.series.columns)
        for column in jc.series.columns:
            assert np.max(np.abs(ajc.series.columns[column] - jc.series.columns[column])) <= 1e-6
        for key, value in jc.summary["deviations"].items():
            assert ajc.summary["deviations"][key] == pytest.approx(value, abs=1e-6)

    def test_regime_only_skips_evolution(self, monkeypatch):
        # the drive half, all that ``fockladder regime`` runs, propagates nothing
        monkeypatch.setattr(scenarios, "evolve_state", None)
        summary = {}
        scenarios.resonant_drive(load_scenario("fig2a"), summary)
        assert "regime" in summary
        assert "final" not in summary

    def test_detunings_report_both_residuals(self):
        summary = {}
        scenarios.resonant_drive(load_scenario("fig3b"), summary)
        det = summary["detunings"]
        chi_eff = abs(summary["couplings"]["chi_eff"])
        assert len(det["residuals"]) == len(det["dressed_residuals"]) == 3
        assert max(abs(r) for r in det["dressed_residuals"]) <= 1e-10 * chi_eff
        assert max(abs(r) for r in det["residuals"]) > 1e-3
        labels = [r["label"] for r in summary["regime"]["residuals"]]
        assert labels[3:] == ["dressed_phi(3,1)", "dressed_phi(4,2)", "dressed_phi(5,3)"]

    def test_fig4_summary_contents(self):
        result = run_scenario(load_scenario("fig4"))
        s = result.summary
        assert s["anchor"]["figure"] == "4"
        assert s["final"]["F3"] == pytest.approx(0.92, abs=0.03)
        assert s["final"]["Q"] == pytest.approx(-0.96, abs=0.03)
        assert s["steady"]["detected_at"] is not None
        assert s["steady"]["null_space_trace_distance"] < 0.01
        assert s["gamma_eff"]["configured"] == [63.0]

    @pytest.mark.parametrize("name", ["fig4", "fig6a", "fig6b"])
    def test_final_reads_the_probed_columns(self, name):
        result = run_scenario(load_scenario(name))
        header, *rows = series_to_csv(result.series, "gamma_t").strip().split("\n")
        last = dict(zip(header.split(",")[1:], map(float, rows[-1].split(",")[1:])))
        assert result.summary["final"] == {k: v if np.isfinite(v) else None for k, v in last.items()}
        # settling and the target and Q finals do not depend on the output columns
        doc = preset_document(name)
        doc["outputs"] = ["mean_n", "P0"]
        other = run_scenario(parse_config(doc)).summary
        assert other["steady"]["detected_at"] == result.summary["steady"]["detected_at"]
        for key in (f"F{doc['parameters']['target_fock']}", "Q"):
            assert other["final"][key] == result.summary["final"][key]

    def test_fig6_recipe_rates_exposed(self):
        result = run_scenario(load_scenario("fig6a"))
        recipe = result.summary["gamma_eff"]["recipe"]
        # computed Gamma_k = r (zeta_k tau)^2 differ from the configured
        # figures by a factor close to max(k)+1 = 2
        assert len(recipe) == 2
        assert recipe[0] / 176.0 == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS) + ["collision", "engineered"])
    def test_check_names_are_the_reported_ones(self, name):
        # the schema decides which names a check rule may read before the
        # run; they are the names the run then reports
        if name == "collision":
            doc = collision_document(0.2, 0.05)
        elif name == "engineered":
            doc = engineered_doc(parameters={"ladder": {"base": 0, "weights": [1.0, 1.0]},
                                             "zeta_ref": 0.01, "analytic": "fig2a"})
        else:
            doc = preset_document(name)
            doc["grid"]["samples"] = 21
        config = parse_config(doc)
        summary = run_scenario(config).summary
        assert scenarios._reported(vars(config)) == {
            "column": set(summary.get("final", {})),
            "deviation": set(summary.get("deviations", {})),
        }

    def test_check_evaluation(self):
        result = run_scenario(load_scenario("fig4"))
        findings = evaluate_check(result)
        assert all(f["pass"] for f in findings)

    def test_check_miss_detected(self):
        doc = preset_document("fig4")
        doc["check"]["F3"]["target"] = 0.5
        doc["check"]["F3"]["tol"] = 0.01
        result = run_scenario(parse_config(doc))
        findings = {f["name"]: f for f in evaluate_check(result)}
        assert not findings["F3"]["pass"]


class TestSerialization:
    def test_csv_header_and_first_column(self):
        result = run_scenario(parse_config(engineered_doc()))
        csv = series_to_csv(result.series, result.config.time_column)
        lines = csv.strip().split("\n")
        assert lines[0] == "zeta1_t,P0,P1"
        assert len(lines) == 22

    def test_csv_deterministic(self):
        doc = engineered_doc()
        a = series_to_csv(run_scenario(parse_config(doc)).series, "zeta1_t")
        b = series_to_csv(run_scenario(parse_config(doc)).series, "zeta1_t")
        assert a == b

    def test_csv_17_digit_precision(self):
        result = run_scenario(parse_config(engineered_doc()))
        value = result.series.columns["P0"][3]
        csv = series_to_csv(result.series, "zeta1_t")
        assert f"{value:.17g}" in csv

    def test_csv_matches_per_value_formatting(self):
        # oracle: one f-string per value, the format the CSV has always had
        times = np.array([0.0, 1e-300, 2.5, -0.0, 7.0])
        cols = {"P0": np.array([-0.0, 1e-300, 1 / 3, 3, -2]),
                "Q": np.array([1e300, -1e-310, 0.1 + 0.2, 12345678901234567, np.nan])}
        series = ObservableSeries(times, cols)
        lines = ["t,P0,Q"]
        for i, t in enumerate(series.times):
            lines.append(",".join([f"{t:.17g}"] + [f"{series.columns[n][i]:.17g}" for n in cols]))
        assert series_to_csv(series, "t") == "\n".join(lines) + "\n"
        assert "\n-0,3," in series_to_csv(series, "t")

    def test_summary_json_deterministic_and_sorted(self):
        doc = preset_document("fig4")
        a = summary_to_json(run_scenario(parse_config(doc)).summary)
        b = summary_to_json(run_scenario(parse_config(doc)).summary)
        assert a == b
        parsed = json.loads(a)
        assert list(parsed) == sorted(parsed)


class TestSweep:
    def test_sweep_over_gamma(self):
        cfg = load_scenario("fig4")
        rows = sweep(cfg, "parameters.Gamma", [10.0, 63.0])
        assert len(rows) == 2
        assert rows[0]["value"] == 10.0
        assert rows[1]["F3"] > rows[0]["F3"]

    def test_sweep_rows_carry_deviations(self, capsys):
        # fig2a at its own laser coupling: the row holds the run's deviations
        deviations = run_scenario(load_scenario("fig2a")).summary["deviations"]
        assert cli_main(["sweep", "--scenario", "fig2a", "--param", "parameters.omegas.1",
                         "--values", "0.05"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(header.split(","), map(float, row.split(","))))
        assert set(deviations) == {"full_vs_engineered", "outside_subspace",
                                   "engineered_vs_analytic"}
        assert {k: cols[k] for k in deviations} == deviations

    def test_bad_path_rejected(self):
        cfg = load_scenario("fig4")
        with pytest.raises(ScenarioValidationError):
            sweep(cfg, "parameters.nope", [1.0])

    @pytest.mark.parametrize("scenario, param, code, err", [
        # the last key may be one the document leaves unset, or one the schema rejects
        ("fig2a", "parameters.regime_threshold", 0, ""),
        ("fig4", "parameters.Gama", 2, "invalid scenario: parameters: unknown keys ['Gama']\n"),
        # every other segment must exist, a list index within its list
        ("fig6b", "parameters.channels.7.1", 2,
         "invalid scenario: parameters.channels.7.1: list index '7' outside 0..2\n"),
        ("fig4", "parameters.ladder.nope.x", 2,
         "invalid scenario: parameters.ladder.nope.x: no such parameter segment 'nope'\n"),
    ], ids=["unset-key", "unknown-key", "index-outside-list", "missing-segment"])
    def test_sweep_sets_the_value_at_its_path(self, capsys, scenario, param, code, err):
        assert cli_main(["sweep", "--scenario", scenario, "--param", param,
                         "--values", "5,20"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 0:
            assert len(captured.out.splitlines()) == 3


class TestCli:
    def test_import_leaves_out_ode_solvers(self, tmp_path):
        # no propagator integrates an ODE, so the CLI does not pay for
        # scipy.integrate; no run loads scipy's linalg, sparse or csgraph
        # modules, nor (through them) numpy.f2py: not a Hamiltonian run,
        # not a density run or sweep, not the collision model
        collision = tmp_path / "collision.json"
        collision.write_text(json.dumps(collision_document(0.2, 0.05)))
        runs = [
            ["run", "--scenario", "fig2a", "--out", str(tmp_path)],
            ["run", "--scenario", "fig4", "--out", str(tmp_path)],
            ["sweep", "--scenario", "fig6b", "--param", "parameters.channels.2.1",
             "--values", "250,320", "--out", str(tmp_path / "fig6b-sweep.csv")],
            ["run", "--scenario", str(collision), "--out", str(tmp_path)],
        ]
        code = (
            "import contextlib, io, sys, fockladder.cli as cli\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])\n"
            "heavy = ('scipy.linalg', 'scipy.sparse', 'scipy.sparse.csgraph', 'numpy.f2py')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = cli.main(argv)\n"
            "    print(rc, [m for m in heavy if m in sys.modules])\n"
        )
        src = str(Path(fockladder.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.stdout.splitlines() == ["[]", "[]"] + ["0 []"] * len(runs)
        for name in ("fig2a.csv", "fig4.csv", "fig6b-sweep.csv", "fig4-collisions-0.2.csv"):
            assert (tmp_path / name).exists()

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        cli._parser.cache_clear()
        try:
            assert cli_main(["presets"]) == 0
            assert cli_main(["presets", "--dump", "fig4"]) == 0
            assert cli_main(["run", "--scenario", "fig9"]) == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert original() is not original()

    def test_presets_lists(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_PRESETS:
            assert name in out

    def test_presets_dump_round_trips(self, capsys):
        assert cli_main(["presets", "--dump", "fig4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert parse_config(doc).name == "fig4"

    def test_run_writes_outputs(self, tmp_path, capsys):
        code = cli_main(["run", "--scenario", "fig4", "--out", str(tmp_path), "--check"])
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        summary = json.loads((tmp_path / "fig4.json").read_text())
        assert summary["name"] == "fig4"
        assert all(f["pass"] for f in summary["check"])

    def test_run_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "taken"
        target.write_text("keep")
        monkeypatch.setattr("fockladder.cli.run_scenario", lambda config: pytest.fail("ran"))
        assert cli_main(["run", "--scenario", "fig4", "--out", str(target)]) == 2
        assert "--out: cannot create directory" in capsys.readouterr().err
        assert target.read_text() == "keep"
        assert cli_main(["run", "--scenario", "fig4", "--out", str(target / "sub")]) == 2

    def test_sweep_out_naming_a_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fockladder.cli.sweep", lambda *args: pytest.fail("ran"))
        code = cli_main(["sweep", "--scenario", "fig4", "--param", "parameters.Gamma",
                         "--values", "50", "--out", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "fig4"],
        ["sweep", "--scenario", "fig4", "--param", "parameters.Gamma", "--values", "50"],
    ], ids=["run", "sweep"])
    def test_tol_option_is_gone(self, command, capsys, monkeypatch):
        # the document's integrator.rel_tol is the one way to set the tolerance
        monkeypatch.setattr("fockladder.cli.run_scenario", lambda config: pytest.fail("ran"))
        monkeypatch.setattr("fockladder.cli.sweep", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert cli_main(["run", "--scenario", "fig9"]) == 2

    def test_run_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(engineered_doc(model="bogus")))
        assert cli_main(["run", "--scenario", str(path)]) == 2

    def test_run_check_miss_exits_4(self, tmp_path, capsys):
        doc = preset_document("fig4")
        doc["check"]["F3"] = {"target": 0.5, "tol": 0.001}
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path), "--check"]) == 4
        # without --check the embedded targets are not enforced
        assert cli_main(["run", "--scenario", str(path)]) == 0

    def test_run_check_max_rules(self, tmp_path, capsys):
        # fig3b meets its three max rules; a max of 0 misses
        assert cli_main(["run", "--scenario", "fig3b", "--check"]) == 0
        lines = [line for line in capsys.readouterr().out.split("\n") if line.startswith("check ")]
        assert len(lines) == 3
        assert all(": pass (actual " in line and ", max " in line for line in lines)
        doc = preset_document("fig3b")
        doc["check"]["full_vs_engineered"] = {"max": 0}
        path = tmp_path / "fig3b.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path), "--check"]) == 4
        assert "check full_vs_engineered: FAIL (actual " in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["steady", "last-sample"])
    def test_undefined_q_recorded_as_null(self, tmp_path, capsys, case):
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps(vacuum_doc(case)))
        assert cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "fig4.json").read_text())
        assert summary["steady"]["null_space_mandel_q"] is None
        if case == "steady":
            # decay keeps the field thermal, and Q of a thermal field is its mean
            assert summary["final"]["Q"] == pytest.approx(0.05 * np.exp(-1.0), rel=1e-6)
        else:
            assert summary["final"]["Q"] is None
            assert summary["final"]["P0"] == 1.0

    def test_null_q_misses_its_check(self, tmp_path, capsys):
        doc = vacuum_doc("last-sample")
        doc["check"] = {"Q": {"target": 0.0, "tol": 1.0}}
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path), "--check"]) == 4
        assert "check Q: FAIL (actual None" in capsys.readouterr().out

    def test_sweep_writes_nan_for_null_q(self, tmp_path, capsys):
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps(vacuum_doc("last-sample")))
        assert cli_main(["sweep", "--scenario", str(path), "--param", "parameters.gamma",
                         "--values", "1,2"]) == 0
        header, *rows = capsys.readouterr().out.strip().split("\n")
        q = header.split(",").index("Q")
        assert len(rows) == 2
        assert all(row.split(",")[q] == "nan" for row in rows)

    @pytest.mark.parametrize("model", ["ub-liouvillian", "collision-model"])
    def test_q_column_is_nan_at_the_vacuum(self, tmp_path, capsys, model):
        doc = vacuum_column_doc(model)
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        header, *rows = (tmp_path / "out" / f"{doc['name']}.csv").read_text().strip().split("\n")
        cols = dict(zip(header.split(","), np.array([row.split(",") for row in rows], float).T))
        vacuum = cols["mean_n"] < 1e-9
        assert vacuum.any() and not vacuum.all()
        assert np.array_equal(np.isnan(cols["Q"]), vacuum)
        summary = json.loads((tmp_path / "out" / f"{doc['name']}.json").read_text())
        assert summary["final"]["Q"] is None
        if model == "ub-liouvillian":
            assert cli_main(["run", "--scenario", str(path), "--check"]) == 4
            assert "check Q: FAIL (actual None" in capsys.readouterr().out

    def test_run_numerical_guard_exits_3(self, capsys):
        # fig4 pumps |3> hard; cutoff 4 leaves the pumped level inside the
        # top-two leakage guard
        assert cli_main(["run", "--scenario", "fig4", "--cutoff", "4"]) == 3

    @pytest.mark.parametrize("k", [12, -1])
    def test_selective_channel_outside_cutoff_exits_2(self, tmp_path, capsys, k):
        doc = preset_document("fig6b")
        doc["cutoff"] = 12
        doc["parameters"]["channels"][0][0] = k
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path)]) == 2
        assert "channels[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig4", "fig6b", "collision"])
    def test_negative_target_fock_exits_2(self, tmp_path, capsys, name):
        doc = collision_document(0.2) if name == "collision" else preset_document(name)
        doc["parameters"]["target_fock"] = -2
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path)]) == 2
        assert "target_fock" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("atom", ["e"]), ("field", ["1"])])
    def test_initial_state_list_exits_2(self, tmp_path, capsys, key, value):
        doc = preset_document("fig2a")
        doc["initial_state"][key] = value
        path = tmp_path / "initial.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(path)]) == 2
        assert f"initial_state.{key}: expected an object" in capsys.readouterr().err

    def test_nan_rate_exits_2_quickly(self, tmp_path, capsys):
        doc = preset_document("fig6b")
        doc["parameters"]["gamma"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # written as the bare token NaN
        start = time.monotonic()
        assert cli_main(["run", "--scenario", str(path)]) == 2
        assert time.monotonic() - start < 5.0
        with pytest.raises(ScenarioValidationError, match="parameters.gamma"):
            parse_config(doc)

    def test_regime_threshold_controls_exit(self, capsys):
        assert cli_main(["regime", "--scenario", "fig2a", "--threshold", "5"]) == 0
        assert cli_main(["regime", "--scenario", "fig2a", "--threshold", "20"]) == 1

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3a", "fig3b"])
    def test_regime_prints_the_run_table(self, capsys, name):
        report = run_scenario(load_scenario(name)).summary["regime"]
        capsys.readouterr()
        assert cli_main(["regime", "--scenario", name]) == (0 if report["passed"] else 1)
        rows = [f"{e['name']:40s} ratio {e['ratio']:12.6g} >= {e['threshold']:g}  "
                + ("pass" if e["pass"] else "FAIL") for e in report["entries"]]
        rows += [f"{r['label']:40s} value {r['value']:12.6g}" for r in report["residuals"]]
        rows.append("regime: " + ("pass" if report["passed"] else "FAIL"))
        assert capsys.readouterr().out.splitlines() == rows

    def test_regime_rejects_dissipative_scenario(self, capsys):
        assert cli_main(["regime", "--scenario", "fig4"]) == 2

    def test_sweep_outputs_table(self, capsys):
        assert cli_main([
            "sweep", "--scenario", "fig4",
            "--param", "parameters.Gamma", "--values", "10,63",
        ]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("value,")
        assert len(lines) == 3

    def test_sweep_bad_values_exits_2(self, capsys):
        assert cli_main([
            "sweep", "--scenario", "fig4", "--param", "parameters.Gamma",
            "--values", "a,b",
        ]) == 2

    def test_sweep_without_values_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("fockladder.cli.sweep", lambda *args: pytest.fail("ran"))
        assert cli_main([
            "sweep", "--scenario", "fig4", "--param", "parameters.Gamma", "--values", ",",
        ]) == 2
        assert capsys.readouterr().err.startswith("invalid scenario: --values: ")

    def test_sweep_out_creates_its_directory(self, tmp_path, capsys):
        target = tmp_path / "new" / "table.csv"
        assert cli_main([
            "sweep", "--scenario", "fig4", "--param", "parameters.Gamma", "--values", "10,63",
            "--out", str(target),
        ]) == 0
        assert capsys.readouterr().out == f"wrote {target}\n"
        lines = target.read_text().splitlines()
        assert lines[0].startswith("value,") and len(lines) == 3


class TestDemos:
    def test_readme_quick_start(self, capsys):
        """The README's quick start runs and prints the populations it shows."""
        readme = (Path(fockladder.__file__).resolve().parents[2] / "README.md").read_text()
        code = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        scope: dict = {}
        exec(code, scope)
        printed = [float(x) for x in capsys.readouterr().out.strip().strip("[]").split()]
        assert np.allclose(printed, [0.5, 0.00146338, 0.49853662, 0.0], rtol=0, atol=1e-8)
        # one state and the trajectory read their populations alike
        traj = scope["trajectory"]
        assert np.array_equal(fockladder.fock_probabilities(traj.states[-1]), traj.populations[-1])

    @pytest.mark.parametrize("demo", ["steady_fock_state.py", "atom_beam_microsimulation.py",
                                      "rabi_validation.py"])
    def test_dissipative_demo_runs(self, tmp_path, demo):
        """Every demo runs to completion against the library.

        They run in ``tmp_path``, where ``rabi_validation.py`` writes its
        ``demo-output/``.
        """
        src = Path(fockladder.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, str(src.parent / "demos" / demo)],
                             capture_output=True, text=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert out.returncode == 0, out.stderr
