"""Faulty scenario documents: each one runs or exits with its documented code.

The regression cases are documents that once ran the wrong physics, wrote
outside ``--out``, hung, or failed with a traceback or without a key path.
The property test mutates small valid documents at random through
``cli.main``.
"""

import contextlib
import copy
import io
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockladder import ScenarioValidationError, collision_document, load_scenario, preset_document
from fockladder import scenarios
from fockladder.cli import main as cli_main
from fockladder.raman import RESONANCE_REL_TOL
from fockladder.scenarios import sweep


def _set(doc: dict, path: str, value) -> dict:
    *head, last = path.split(".")
    node = doc
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def _doc(name, *changes) -> dict:
    doc = preset_document(name) if isinstance(name, str) else name
    for path, value in zip(changes[::2], changes[1::2]):
        _set(doc, path, value)
    return doc


def _run(tmp_path, doc: dict, *argv):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["run", "--scenario", str(path), *argv])
    return code, err.getvalue(), time.monotonic() - start


def _engineered_run() -> dict:
    return {
        "schema_version": 1,
        "name": "engineered",
        "model": "engineered-ladder",
        "reference_rate": {"unit": "lambda1"},
        "cutoff": 6,
        "grid": {"start": 0.0, "stop": 3.0, "samples": 21},
        "initial_state": {"field": {"0": 1.0, "2": [0.0, 1.0]}, "atom": {"g": 1.0, "e": 1.0}},
        "outputs": ["P0", "P1", "P2", "Q", "mean_n", "purity", "F2"],
        "parameters": {"ladder": {"base": 0, "weights": [1.0, 1.0]}, "zeta_ref": 0.01,
                       "analytic": "fig2a"},
        "check": {"P1_analytic": {"target": 0.5, "tol": 0.5}},
    }


def _no_propagation(*args, **kwargs):
    raise AssertionError("an invalid document reached propagation")


# (document, extra CLI arguments, the key path the rejection names)
REJECTED = {
    "kind-unknown": (_doc("fig2a", "parameters.kind", "XYZ"), (), "parameters.kind"),
    "kind-lowercase": (_doc("fig2a", "parameters.kind", "jc"), (), "parameters.kind"),
    "ladder-kind": (_doc("fig4", "parameters.ladder.kind", "XYZ"), (), "parameters.ladder.kind"),
    # removed options, now unknown keys whatever their value and model
    "regime-only-string": (_doc("fig2a", "regime_only", "false"), (), "scenario"),
    "regime-only-on-liouvillian": (_doc("fig4", "regime_only", True), (), "scenario"),
    "solve-detunings-string": (_doc("fig2a", "parameters.solve_detunings", "no"), (),
                               "parameters"),
    "compare-engineered-string": (_doc("fig2a", "parameters.compare_engineered", "no"), (),
                                  "parameters"),
    "n-bar-regime-string": (_doc("fig2a", "parameters.n_bar_regime", "x"), (), "parameters"),
    "n-bar-regime-zero": (_doc("fig2a", "parameters.n_bar_regime", 0.0), (), "parameters"),
    "name-escapes-out": (_doc("fig4", "name", "../escape"), (), "name"),
    "check-list": (_doc("fig4", "check", []), ("--check",), "check"),
    "check-without-tol": (_doc("fig4", "check", {"F3": {"target": 0.9}}), ("--check",),
                          "check.F3"),
    "collision-too-many-atoms": (collision_document(1e-4, t_end=0.05), (), "parameters.zeta_tau"),
    "ladder-base-boolean": (_doc("fig4", "parameters.ladder.base", True), (),
                            "parameters.ladder.base"),
    "schema-version-boolean": (_doc("fig4", "schema_version", True), (), "schema_version"),
    "value-hz-string": (_doc("fig4", "reference_rate.value_hz", "x"), (),
                        "reference_rate.value_hz"),
    "description-list": (_doc("fig4", "description", [1]), (), "description"),
    "anchor-list": (_doc("fig4", "anchor", [1]), (), "anchor"),
    "negative-Gamma": (_doc("fig4", "parameters.Gamma", -1), (), "parameters.Gamma"),
    "negative-n-bar": (_doc("fig4", "parameters.n_bar", -1), (), "parameters.n_bar"),
    "duplicate-channel-step": (_doc("fig6a", "parameters.channels.1.0", 0), (),
                               "parameters.channels"),
    "negative-channel-rate": (_doc("fig6a", "parameters.channels.1.1", -1.0), (),
                              "parameters.channels[1][1]"),
    "unknown-atom-level": (_doc("fig2a", "initial_state.atom", {"x": 1.0}), (),
                           "initial_state.atom.x"),
    # levels the drive does not have: fig2a has two auxiliary levels, f and h
    "atom-level-past-branches": (_doc("fig2a", "initial_state.atom", {"g": 1, "i": 1}), (),
                                 "initial_state.atom"),
    "aux-level-on-engineered": (_doc(_engineered_run(), "initial_state.atom", {"f": 1}), (),
                                "initial_state.atom"),
    "full-raman-start-without-g-or-e": (_doc("fig2a", "initial_state.atom", {"f": 1}), (),
                                        "initial_state.atom"),
    "initial-thermal-and-fock": (_doc("fig4", "initial_state", {"thermal_n_bar": 0.05, "fock": 1}),
                                 (), "initial_state"),
    "initial-neither-thermal-nor-fock": (_doc("fig4", "initial_state", {}), (), "initial_state"),
    "upper-bounded-base-1": (_doc("fig2a", "parameters.base", 1), (), "parameters.base"),
    "vanishing-field": (_doc("fig2a", "initial_state.field", {"0": 0.0, "2": 0.0}), (),
                        "initial_state.field"),
    "analytic-unknown": (_doc("fig2a", "parameters.analytic", "bogus"), (), "parameters.analytic"),
    "empty-branch-lists": (_doc("fig2a", "parameters.lambdas", [], "parameters.omegas", [],
                                "parameters.deltas", [], "parameters.delta_tildes", []), (),
                           "parameters.lambdas"),
    "regime-threshold-string": (_doc("fig2a", "parameters.regime_threshold", "x"), (),
                                "parameters.regime_threshold"),
    "upper-bounded-base-20": (_doc("fig2a", "parameters.base", 20), (), "parameters.base"),
    "steady-window-string": (_doc("fig4", "parameters.steady_window", "a"), (), "parameters"),
    # the fixed steady window of 0.05 gamma t needs a longer grid
    "steady-window-past-grid": (_doc("fig4", "grid.stop", 0.01), (), "grid"),
    "ladder-past-cutoff": (_doc("fig4", "parameters.ladder.base", 11), (), "parameters.ladder"),
    # found by mutating documents: each ended in a traceback or in an exit 2 without a key path
    "coupling-square-overflows": (_doc("fig2a", "parameters.lambdas.0", 1e308), (),
                                  "parameters.lambdas[0]"),
    "coupling-square-overflows-integer": (_doc("fig2a", "parameters.omegas.0", 10**300), (),
                                          "parameters.omegas[0]"),
    "laser-coupling-zero": (_doc("fig2a", "parameters.omegas.1", 0), (),
                            "parameters.omegas[1]"),
    "zeta-ref-zero": (_doc(_engineered_run(), "parameters.zeta_ref", 0), (),
                      "parameters.zeta_ref"),
    "analytic-past-cutoff": (_doc(_engineered_run(), "cutoff", 5, "parameters.analytic", "fig3b"),
                             (), "parameters.analytic"),
    "Q-on-vacuum-start": (_doc("fig4", "initial_state.thermal_n_bar", 0), (), "outputs"),
    "recipe-rates-overflow": (_doc("fig6b", "parameters.recipe.tau", 1e308), (),
                              "parameters.recipe"),
    # keys the model does not read, and check rules on values the run never reports
    "integrator-on-liouvillian": (_doc("fig4", "integrator", {"rel_tol": 1e-3}), (),
                                  "integrator"),
    "ladder-kind-on-ub-liouvillian": (_doc("fig4", "parameters.ladder.kind", "AJC"), (),
                                      "parameters.ladder.kind"),
    "check-unreported-deviation": (_doc("fig2a", "check", {"full_vs_engineerd": {"max": 1}}),
                                   ("--check",), "check.full_vs_engineerd"),
    "check-unreported-column": (_doc("fig4", "check.P9", {"target": 0.0, "tol": 1.0}),
                                ("--check",), "check.P9"),
    "check-target-on-deviation": (_doc("fig2a", "check.outside_subspace",
                                       {"target": 0.0, "tol": 1.0}), ("--check",),
                                  "check.outside_subspace"),
    "unit-gamma-on-hamiltonian": (_doc("fig2a", "reference_rate.unit", "gamma"), (),
                                  "reference_rate.unit"),
    "unit-lambda1-on-liouvillian": (_doc("fig4", "reference_rate.unit", "lambda1"), (),
                                    "reference_rate.unit"),
    "unit-hz": (_doc("fig6a", "reference_rate.unit", "Hz"), (), "reference_rate.unit"),
    "target-fock-on-collision": (_set(collision_document(0.2, 0.05), "parameters.target_fock", 3),
                                 (), "parameters"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_before_propagation(tmp_path, monkeypatch, case):
    doc, argv, key = REJECTED[case]
    for name in ("evolve_state", "evolve_density", "collision_model_evolve", "steady_state"):
        monkeypatch.setattr(scenarios, name, _no_propagation)
    code, err, elapsed = _run(tmp_path, doc, "--out", str(tmp_path / "out"), *argv)
    assert code == 2
    assert err.startswith(f"invalid scenario: {key}: ")
    assert elapsed < 1.0
    assert not (tmp_path / "escape.json").exists()


@pytest.mark.parametrize("doc, reached", [
    (preset_document("fig2a"), ["evolve_state", "evolve_state"]),
    (preset_document("fig4"), ["evolve_density", "steady_state"]),
    (preset_document("fig6b"), ["evolve_density", "steady_state"]),
    (collision_document(0.2, 0.05), ["collision_model_evolve"]),
], ids=["fig2a", "fig4", "fig6b", "collision"])
def test_each_model_reaches_its_propagation_entry(tmp_path, monkeypatch, doc, reached):
    # the names the rejection test above replaces: a valid run must call
    # them, or that test would pass without checking that nothing propagates
    calls = []

    def recording(name, fn):
        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return record

    for name in ("evolve_state", "evolve_density", "collision_model_evolve", "steady_state"):
        monkeypatch.setattr(scenarios, name, recording(name, getattr(scenarios, name)))
    code, err, _ = _run(tmp_path, doc, "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert calls == reached


def test_regime_threshold_nan_rejected(capsys):
    assert cli_main(["regime", "--scenario", "fig2a", "--threshold", "nan"]) == 2
    assert "invalid scenario: parameters.regime_threshold: " in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _doc("fig4", "parameters.Gamma", 1e300),
    # the step exponentials overflow
    _doc("fig4", "parameters.Gamma", 1e300, "parameters.gamma", 1e300),
    _doc("fig4", "grid.stop", 1e300),
    _set(collision_document(0.2, 0.05), "parameters.gamma", 1e300),
    _doc("fig2a", "grid.stop", 1e308),
    # the Magnus generator's square overflows before any step is built
    _doc("fig2a", "parameters.lambdas", [1.3e154, 1.3e154]),
    # Magnus steps far outside convergence: no doubling level is built
    _doc("fig2a", "grid.stop", 1e12),
], ids=["fig4-Gamma", "fig4-Gamma-gamma", "fig4-grid-stop", "collision-gamma",
        "fig2a-grid-stop", "fig2a-lambdas-overflow", "fig2a-grid-stop-1e12"])
def test_non_finite_state_trips_guard(tmp_path, doc):
    # exit 3 with the guard's one line on stderr, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, _ = _run(tmp_path, doc)
    assert code == 3
    assert err.startswith("numerical guard: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("delta", [1e-20, 1e-150, 1e-300])
def test_small_first_detuning_closes_the_resonance(tmp_path, delta):
    # as Delta_1 -> 0 the second-order shifts diverge but the dressed ones
    # stay finite: the closure lands within its tolerance and the run exits 0
    code, err, _ = _run(tmp_path, _doc("fig2a", "parameters.deltas", [delta, 5.0]),
                        "--out", str(tmp_path / "out"))
    assert code == 0, err
    summary = json.loads((tmp_path / "out" / "fig2a.json").read_text())
    det = summary["detunings"]
    coupling = min(abs(complex(*z)) for z in summary["couplings"]["zeta"])
    rounding = 16 * np.finfo(float).eps * max(map(abs, [delta, 5.0, *det["solved_delta_tilde"]]))
    tol = max(RESONANCE_REL_TOL * coupling, rounding)
    assert all(abs(r) <= tol for r in det["dressed_residuals"]), (det, tol)


def test_long_grid_accepts_estimate_at_rounding(tmp_path):
    # fig2a on 16,385 samples: the doubling differences of the accepted level
    # sit at the rounding of 147,456 steps, above a fixed 1e-13 floor; the
    # floor scales with the steps taken, so the run exits 0
    code, err, _ = _run(tmp_path, _doc("fig2a", "grid.samples", 16385),
                        "--out", str(tmp_path / "out"))
    assert code == 0, err
    summary = json.loads((tmp_path / "out" / "fig2a.json").read_text())
    assert summary["diagnostics"]["integrator"]["full"]["error_estimate"] <= 1e-7


def test_long_window_meets_rel_tol(tmp_path):
    # fig2a over 1e4 in |zeta_ref| t: the squaring guard lets no level build
    # below thousands of steps per sample interval, tens of millions over the
    # grid, but the phase grids form only their nodes and doublings
    code, err, _ = _run(tmp_path, _doc("fig2a", "grid.stop", 1e4), "--out", str(tmp_path / "out"))
    assert code == 0, err
    summary = json.loads((tmp_path / "out" / "fig2a.json").read_text())
    integrator = summary["diagnostics"]["integrator"]["full"]
    assert integrator["steps"] > 2**18
    assert integrator["error_estimate"] <= 1e-7


@pytest.mark.parametrize("path", ["parameters.channels.5.1", "parameters.channels.-1.1",
                                  "parameters.channels.x.1", "parameters.channels.0.2"])
def test_sweep_rejects_bad_list_index(capsys, path):
    with pytest.raises(ScenarioValidationError, match="list index"):
        sweep(load_scenario("fig6b"), path, [100.0])
    assert cli_main(["sweep", "--scenario", "fig6b", "--param", path, "--values", "100"]) == 2


# ---------------------------------------------------------------------------
# property test

RETYPED = [None, True, "x", [], {}, -1, 0, 0.5, 1e308]


def _short(name: str) -> dict:
    return _set(preset_document(name), "grid.samples", 21)


BASES = [_set(_short("fig2a"), "grid.stop", 0.5), _engineered_run(), _short("fig4"),
         _short("fig6b"), collision_document(0.2, 0.05)]


def _paths(node, prefix=()):
    """The key and index path of every value in a document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def mutate(doc: dict, path: tuple, kind: str, value) -> dict:
    """Drop the entry at ``path``, duplicate it in its list, or replace it."""
    doc = copy.deepcopy(doc)
    if not path:
        return value if kind == "retype" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "index":
        top = doc["cutoff"] + 1 if type(doc.get("cutoff")) is int else 13
        if isinstance(key, str) and key.isdigit():  # a Fock index as a key
            parent[str(top)] = parent.pop(key)
        else:
            parent[key] = top
    elif kind == "retype":
        parent[key] = value
    return doc


@st.composite
def mutated_documents(draw):
    base = draw(st.sampled_from(BASES))
    path = draw(st.sampled_from(list(_paths(base))))
    kind = draw(st.sampled_from(["drop", "duplicate", "retype", "index"]))
    return mutate(base, path, kind, draw(st.sampled_from(RETYPED)))


@given(mutated_documents())
@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_documents_run_or_exit_with_their_code(tmp_path, doc):
    code, _, elapsed = _run(tmp_path, doc, "--out", str(tmp_path / "out"), "--check")
    assert code in (0, 1, 2, 3, 4)
    assert elapsed < 5.0
