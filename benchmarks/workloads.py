"""Seeded inputs of the workloads and the correctness gate of their outputs.

A workload pass is a fixed list of CLI invocations on scenario files that
``make_plan`` writes from the seed.  The seed draws physical parameters
only; the sizes that set the work of a pass (cutoffs, grid samples, the
zeta*tau ladder, the number of sweep values, the number of atoms) are
fixed, so the work per pass is comparable across seeds.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from pathlib import Path

import numpy as np

import reference
from fockladder.scenarios import collision_document, preset_document

WORKLOADS = ("rabi-full", "dissipative")

# Largest absolute difference of any output value from the reference, per
# kind of command.  The full Raman run integrates at the preset's rel_tol
# 1e-7 through about 700 periods of the fastest detuning; the sweeps use
# the default rel_tol 1e-9 and the collision model exact one-atom maps.
# Wrong physics moves the outputs by 1e-3 or more.
TOLERANCE = {"rabi": 1e-4, "sweep": 1e-6, "collision": 1e-6}

SWEEP_CUTOFFS = (12, 24)
COLLISION_ZETA_TAU = (0.2, 0.1, 0.05)
# Gamma * t_end; fixes the atom count ceil(GAMMA_T_END / zeta_tau^2) per
# window length whatever Gamma the seed draws (473 + 1891 + 7562 atoms)
GAMMA_T_END = 18.9033


def _amplitude(rng: random.Random) -> list[float]:
    r, phi = rng.uniform(0.3, 1.0), rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _write(work: Path, doc: dict, stem: str) -> str:
    path = work / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return str(path)


def _rabi_commands(rng: random.Random, work: Path) -> list[dict]:
    """fig2a, full 4-level Raman model, with a drawn initial state on the window."""
    doc = preset_document("fig2a")
    p = doc["parameters"]
    window = range(p["base"], p["base"] + len(p["lambdas"]) + 1)
    doc["initial_state"] = {
        "field": {str(n): _amplitude(rng) for n in window},
        "atom": {"g": _amplitude(rng), "e": _amplitude(rng)},
    }
    path = _write(work, doc, "fig2a")
    return [{"check": "rabi", "argv": ["run", "--scenario", path, "--out", "{out}"],
             "doc": doc, "csv": "fig2a.csv", "summary": "fig2a.json"}]


def _sweep_commands(rng: random.Random, work: Path) -> list[dict]:
    """fig4 over Gamma and fig6b over the third channel rate, at two cutoffs."""
    fig4 = preset_document("fig4")
    fig4["parameters"]["Gamma"] = rng.uniform(50.0, 80.0)
    fig6b = preset_document("fig6b")
    for channel in fig6b["parameters"]["channels"]:
        channel[1] *= rng.uniform(0.85, 1.15)
    sweeps = [
        (fig4, "parameters.Gamma", [rng.uniform(40.0, 55.0), rng.uniform(55.0, 75.0),
                                    rng.uniform(75.0, 95.0)]),
        (fig6b, "parameters.channels.2.1", [rng.uniform(240.0, 270.0),
                                            rng.uniform(270.0, 300.0),
                                            rng.uniform(300.0, 330.0)]),
    ]
    for doc, _, _ in sweeps:
        n_bar = rng.uniform(0.03, 0.07)
        doc["parameters"]["n_bar"] = n_bar
        doc["initial_state"] = {"thermal_n_bar": n_bar}
    commands = []
    for cutoff in SWEEP_CUTOFFS:
        for doc, param, values in sweeps:
            path = _write(work, doc, doc["name"])
            out = f"{doc['name']}-c{cutoff}.csv"
            commands.append({
                "check": "sweep",
                "argv": ["sweep", "--scenario", path, "--param", param,
                         "--values", ",".join(repr(v) for v in values),
                         "--cutoff", str(cutoff), "--out", "{out}/" + out],
                "doc": doc, "csv": out, "param": param, "values": values,
                "cutoff": cutoff,
            })
    return commands


def _collision_commands(rng: random.Random, work: Path) -> list[dict]:
    """The fig4 reservoir, atom by atom, at three window lengths."""
    big_gamma = rng.uniform(50.0, 80.0)
    n_bar = rng.uniform(0.03, 0.07)
    commands = []
    for zeta_tau in COLLISION_ZETA_TAU:
        doc = collision_document(zeta_tau, t_end=GAMMA_T_END / big_gamma)
        doc["parameters"]["Gamma"] = big_gamma
        doc["parameters"]["n_bar"] = n_bar
        doc["initial_state"] = {"thermal_n_bar": n_bar}
        path = _write(work, doc, doc["name"])
        commands.append({"check": "collision",
                         "argv": ["run", "--scenario", path, "--out", "{out}"],
                         "doc": doc, "csv": f"{doc['name']}.csv"})
    return commands


def make_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the scenario files of one run and return its invocation plan.

    Each command holds the CLI argv (``{out}`` stands for the pass's output
    directory), the scenario document, where its output lands and which
    reference checks it.
    """
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if workload == "rabi-full":
        commands = _rabi_commands(rng, work)
    elif workload == "dissipative":
        commands = _sweep_commands(rng, work) + _collision_commands(rng, work)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    return {"workload": workload, "seed": seed, "commands": commands,
            "capture_steady": any(c["check"] == "sweep" for c in commands)}


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: values[:, i] for i, name in enumerate(rows[0])}


# ---------------------------------------------------------------------------
# references


def _sweep_point(doc: dict, cutoff: int, param: str, value: float) -> dict:
    doc = copy.deepcopy(doc)
    doc["cutoff"] = cutoff
    node = doc
    *head, last = param.split(".")
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def command_reference(command: dict, out_dir: Path) -> dict:
    """Reference columns of one command (and steady populations for sweeps).

    The full Raman reference takes the resonance-solved laser detunings
    from the program's summary: the check is on the propagation of the
    model the program chose, not on how it solved the resonance.
    """
    doc = command["doc"]
    if command["check"] == "rabi":
        p = doc["parameters"]
        x = np.linspace(doc["grid"]["start"], doc["grid"]["stop"], doc["grid"]["samples"])
        summary = json.loads((out_dir / command["summary"]).read_text())
        tildes = summary["detunings"]["solved_delta_tilde"]
        full = reference.full_raman_populations(p, tildes, doc["initial_state"],
                                                doc["cutoff"], x)
        steps = len(p["lambdas"])
        zeta_ref = p["lambdas"][0] * p["omegas"][0] * (1.0 / p["deltas"][0] + 1.0 / tildes[0])
        unit = np.sign(zeta_ref)
        eng = reference.engineered_populations(doc["initial_state"], p["base"], steps, unit,
                                               doc["cutoff"], x)
        preset = preset_document(p["analytic"])["initial_state"]
        closed = reference.engineered_populations(preset, p["base"], steps, unit,
                                                  doc["cutoff"], x)
        cols = {"zeta1_t": x}
        for name in doc["outputs"]:
            n = int(name[1:])
            cols[f"{name}_full"] = full[:, n]
            cols[f"{name}_engineered"] = eng[:, n]
        for n in range(p["base"], p["base"] + steps + 1):
            cols[f"P{n}_analytic"] = closed[:, n]
        return {"columns": cols}
    if command["check"] == "sweep":
        finals, steady = [], []
        for value in command["values"]:
            final, target = reference.dissipative_final(
                _sweep_point(doc, command["cutoff"], command["param"], value))
            finals.append(final)
            steady.append(target)
        cols = {"value": np.array(command["values"])}
        for name in finals[0]:
            cols[name] = np.array([f[name] for f in finals])
        return {"columns": cols, "steady_fidelity": steady}
    pops = reference.collision_populations(doc)
    return {"columns": reference.population_columns(pops, doc["outputs"])}


def compare(command: dict, out_dir: Path, ref: dict, captured=None) -> float:
    """Largest absolute difference from the reference; inf if anything is missing."""
    try:
        got = read_csv(out_dir / command["csv"])
    except (OSError, ValueError, IndexError):
        return math.inf
    pairs = []
    for name, expect in ref["columns"].items():
        if name not in got or got[name].shape != np.shape(expect):
            return math.inf
        pairs.append((got[name], expect))
    if "steady_fidelity" in ref:
        if captured is None or len(captured) != len(ref["steady_fidelity"]):
            return math.inf
        pairs.append((np.array(captured), np.array(ref["steady_fidelity"])))
    diff = np.concatenate([np.abs(a - b) for a, b in pairs])
    return float(np.max(diff)) if np.all(np.isfinite(diff)) else math.inf
