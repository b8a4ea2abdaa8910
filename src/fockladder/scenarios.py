"""Declarative scenario runner and the bundled figure presets.

A scenario is a strict JSON document (``schema_version`` 1) naming one of
five models (full-raman, engineered-ladder, ub-liouvillian,
selective-liouvillian, collision-model) together with its parameters,
initial state, sampling grid and requested observable columns.  All rates
are dimensionless multiples of the declared reference rate (lambda_1 for
Hamiltonian scenarios, gamma for dissipative ones); the grid is expressed
in the matching dimensionless time variable (``zeta1_t`` = |zeta_ref| t
for Hamiltonian runs, ``gamma_t`` for dissipative runs).

Outputs are an :class:`~fockladder.observables.ObservableSeries` plus a
summary record carrying derived couplings, the validity-regime report,
resonance residuals, deviation statistics and final-state diagnostics.
Runs are deterministic: identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .hilbert import (
    DensityOperator,
    atom_field_layout,
    atom_state,
    field_layout,
    field_superposition,
    fock_state,
    product_state,
    thermal_state,
)
from .lindblad import (
    IntegratorConfig,
    TimeGrid,
    evolve_density,
    evolve_state,
    sparse_liouvillian,
    spectral_gap,
    steady_state,
)
from .observables import (
    MEAN_PHOTON_FLOOR,
    ObservableSeries,
    detect_steady,
    fock_probabilities,
    photon_mandel_q,
    photon_mean,
    trace_distance,
)
from .raman import (
    ANALYTIC_PRESETS,
    AUX_LABELS,
    LadderSpec,
    RamanLadderParams,
    build_engineered_hamiltonian,
    build_full_hamiltonian,
    check_regime,
    derive_couplings,
    ladder_from_conditions,
    analytic_probabilities,
    solve_dressed_resonance,
)
from .reservoir import (
    AtomInjectionParams,
    ThermalBathParams,
    collision_model_evolve,
    gamma_from_injection,
    selective_dissipators,
    thermal_terms,
    ub_dissipator,
)

SCHEMA_VERSION = 1

MODELS = (
    "full-raman",
    "engineered-ladder",
    "ub-liouvillian",
    "selective-liouvillian",
    "collision-model",
)

HAMILTONIAN_MODELS = ("full-raman", "engineered-ladder")

# steady-state detection of every Liouvillian run (dimensionless gamma t)
STEADY_WINDOW = 0.05
STEADY_EPS = 1e-3

# atoms one collision-model run may ask for: about 2 s and 180 MB at the
# measured ~30 us and ~2.7 kB per atom
MAX_ATOMS = 2**16


class ScenarioValidationError(ValueError):
    """A scenario document violates the strict schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario document with converted values; ``raw`` retains the source dict."""

    name: str
    model: str
    description: str
    reference_rate: dict
    parameters: dict
    initial_state: dict
    grid: TimeGrid
    cutoff: int
    outputs: tuple[str, ...]
    integrator: IntegratorConfig
    anchor: dict
    check: dict
    raw: dict

    @property
    def time_column(self) -> str:
        return "zeta1_t" if self.model in HAMILTONIAN_MODELS else "gamma_t"


# ---------------------------------------------------------------------------
# schema
#
# Each section has a table of key -> checker (required) or key -> (checker,
# default), where the default OPTIONAL leaves the key absent.  A checker takes
# (value, path, ctx), ctx holding the top-level values converted so far, and
# returns the converted value.  Rules that tie keys together follow the walk.

REQUIRED, OPTIONAL = object(), object()


def _fail(at: str, message: str):
    raise ScenarioValidationError(at, message)


def _walk(table: dict, value, at: str, ctx: dict | None = None) -> dict:
    where = at or "scenario"
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    rows = {k: row if isinstance(row, tuple) else (row, REQUIRED) for k, row in table.items()}
    required = {k for k, (_, default) in rows.items() if default is REQUIRED}
    for fault, keys in (("unknown", set(value) - set(rows)), ("missing", required - set(value))):
        if keys:
            _fail(where, f"{fault} keys {sorted(map(str, keys))}")
    out: dict = {}
    for key, (check, default) in rows.items():
        if key in value:
            out[key] = check(value[key], f"{at}.{key}" if at else key, out if ctx is None else ctx)
        elif default is not OPTIONAL:
            out[key] = copy.copy(default)
    return out


def _object(table: dict):
    return lambda v, at, ctx: _walk(table, v, at, ctx)


def _number(v, at, ctx, ok=None, says=""):
    """A finite JSON number (not a boolean), kept as given, with ``ok(float(v))`` when given."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        _fail(at, f"expected a finite number, got {v!r}")
    if ok is not None and not ok(float(v)):
        _fail(at, f"must be {says}, got {v!r}")
    return v


POSITIVE = partial(_number, ok=lambda x: x > 0, says="> 0")
NON_NEGATIVE = partial(_number, ok=lambda x: x >= 0, says=">= 0")
NONZERO = partial(_number, ok=lambda x: x != 0, says="nonzero")
COUPLING = partial(_number, ok=lambda x: x > 0 and x * x < math.inf, says="> 0 with x^2 finite")


def _integer(v, at, ctx, lo=0, below_cutoff=None):
    """An integer >= lo; with ``below_cutoff`` b, also <= cutoff - b."""
    hi = math.inf if below_cutoff is None else ctx["cutoff"] - below_cutoff
    if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
        _fail(at, f"must be an integer in {lo}..{hi}, got {v!r}")
    return v


FOCK = partial(_integer, below_cutoff=0)
STEP = partial(_integer, below_cutoff=1)  # a ladder step k -> k+1 inside the cutoff
AT_LEAST_2 = partial(_integer, lo=2)


def _one_of(v, at, ctx, options=()):
    if not any(type(v) is type(o) and v == o for o in options):
        _fail(at, f"must be one of {' | '.join(map(json.dumps, options))}, got {v!r}")
    return v


def _choice(*options):
    return partial(_one_of, options=options)


def _read_by(v, at, ctx, models=(), check=None):
    """``check``, on a document whose model reads the key; any other model rejects it."""
    if ctx["model"] not in models:
        _fail(at, f"{ctx['model']} runs do not read it")
    return check(v, at, ctx)


def _unit(v, at, ctx):
    """The reference rate: lambda1 for Hamiltonian models, gamma for dissipative ones."""
    unit = "lambda1" if ctx["model"] in HAMILTONIAN_MODELS else "gamma"
    return _one_of(v, at, ctx, options=(unit,))


def _string(v, at, ctx, pattern=r".*", what="a string"):
    if not (isinstance(v, str) and re.fullmatch(pattern, v, re.DOTALL)):
        _fail(at, f"expected {what}, got {v!r}")
    return v


STEM = partial(_string, pattern=r"[A-Za-z0-9_][A-Za-z0-9_.+-]{0,99}",
               what="a plain file-name stem (up to 100 of A-Za-z0-9_.+-, not starting with .+-)")


def _amplitude(v, at, ctx) -> complex:
    """A real number or a [re, im] pair."""
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], f"{at}[0]", ctx), _number(v[1], f"{at}[1]", ctx))
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(at, f"expected a number or [re, im], got {v!r}")
    return complex(_number(v, at, ctx))


def _list(v, at, ctx, item=None, lo=1, hi=4):
    if not (isinstance(v, list) and lo <= len(v) <= hi):
        _fail(at, f"must be a list of {lo} to {hi} entries, got {v!r}")
    return [item(x, f"{at}[{i}]", ctx) for i, x in enumerate(v)]


def _mapping(v, at, ctx, key=_string, value=_number):
    if not isinstance(v, dict):
        _fail(at, f"expected an object, got {type(v).__name__}")
    return {key(k, f"{at}.{k}", ctx): value(x, f"{at}.{k}", ctx) for k, x in v.items()}


def _fock_key(k, at, ctx) -> int:
    return FOCK(int(k) if isinstance(k, str) and k.isascii() and k.isdigit() else k, at, ctx)


def _channel(v, at, ctx) -> tuple[int, float]:
    if not (isinstance(v, list) and len(v) == 2):
        _fail(at, "must be a [k, Gamma_k] pair")
    return STEP(v[0], f"{at}[0]", ctx), float(NON_NEGATIVE(v[1], f"{at}[1]", ctx))


# the kind picks the atom's transition; the ub-liouvillian pump is the bare ladder operator
_LADDER_KIND = partial(_read_by, models=("engineered-ladder", "collision-model"),
                       check=_choice("JC", "AJC"))
_LADDER = _object({"base": FOCK, "weights": partial(_list, item=_amplitude),
                   "kind": (_LADDER_KIND, "JC")})
_ANALYTIC = (_choice(None, *ANALYTIC_PRESETS), None)
_STEADY = {"gamma": NON_NEGATIVE, "n_bar": NON_NEGATIVE, "target_fock": FOCK}
_PARAMETERS = {
    "full-raman": {
        "lambdas": partial(_list, item=COUPLING, lo=2),
        "omegas": partial(_list, item=COUPLING, lo=2),
        "deltas": partial(_list, item=NONZERO, lo=2),
        "delta_tildes": partial(_list, item=NONZERO, lo=2),
        "mode": _choice("upper-bounded", "sliced"), "base": FOCK,
        "kind": (_choice("JC", "AJC"), "JC"), "analytic": _ANALYTIC,
        "n_bar_regime": (NON_NEGATIVE, 0.0), "regime_threshold": (NON_NEGATIVE, 10.0),
    },
    "engineered-ladder": {"ladder": _LADDER, "zeta_ref": _amplitude, "analytic": _ANALYTIC},
    "ub-liouvillian": {"ladder": _LADDER, "Gamma": NON_NEGATIVE, **_STEADY},
    "selective-liouvillian": {
        "channels": partial(_list, item=_channel, hi=math.inf),
        "recipe": (_object({"tau": POSITIVE, "zeta_unit": _number}), OPTIONAL),
        **_STEADY,
    },
    "collision-model": {
        "ladder": _LADDER, "Gamma": POSITIVE, "zeta_tau": POSITIVE,
        "gamma": NON_NEGATIVE, "n_bar": NON_NEGATIVE,
        "atom_state": partial(_mapping, key=_choice("g", "e"), value=_amplitude),
    },
}
_INITIAL_STATE = {
    "hamiltonian": {
        "field": partial(_mapping, key=_fock_key, value=_amplitude),
        "atom": partial(_mapping, key=_choice("g", "e", *AUX_LABELS), value=_amplitude),
    },
    "density": {"thermal_n_bar": (NON_NEGATIVE, OPTIONAL), "fock": (FOCK, OPTIONAL)},
}
_SCENARIO = {
    "schema_version": _choice(SCHEMA_VERSION),
    "name": STEM,
    "model": _choice(*MODELS),
    "description": (_string, ""),
    "reference_rate": _object({"unit": _unit, "value_hz": (POSITIVE, OPTIONAL)}),
    "cutoff": AT_LEAST_2,
    "grid": _object({"start": _number, "stop": _number, "samples": AT_LEAST_2}),
    "outputs": partial(_list, lo=0, hi=math.inf, item=partial(
        _string, pattern=r"Q|mean_n|purity|[PF][0-9]+", what="a column Q|mean_n|purity|P<n>|F<n>")),
    "integrator": (partial(_read_by, models=HAMILTONIAN_MODELS,
                           check=_object({"rel_tol": (POSITIVE, OPTIONAL)})), {}),
    "parameters": lambda v, at, ctx: _walk(_PARAMETERS[ctx["model"]], v, at, ctx),
    "initial_state": lambda v, at, ctx: _walk(_INITIAL_STATE[
        "hamiltonian" if ctx["model"] in HAMILTONIAN_MODELS else "density"], v, at, ctx),
    "anchor": (_object({"figure": (_string, OPTIONAL), "targets": (_mapping, OPTIONAL)}), {}),
    "check": (partial(_mapping, value=_object({
        "target": (_number, OPTIONAL), "tol": (NON_NEGATIVE, OPTIONAL), "max": (_number, OPTIONAL),
    })), {}),
}


def _norm2(amplitudes) -> float:
    return sum(a.real * a.real + a.imag * a.imag for a in amplitudes)


def _fits(top: int, at: str, cutoff: int) -> None:
    if top > cutoff:
        _fail(at, f"needs cutoff >= {top}, got {cutoff}")


def _reported(c: dict) -> dict[str, set[str]]:
    """The names a run of the converted document reports: the ``final``
    columns a target rule reads, and the deviations a max rule reads."""
    model, p = c["model"], c["parameters"]
    suffixes = ("_full", "_engineered") if model == "full-raman" else ("",)
    final = {name + suffix for name in c["outputs"] for suffix in suffixes}
    deviations = {"full_vs_engineered", "outside_subspace"} if model == "full-raman" else set()
    if p.get("analytic"):
        final |= {f"P{n}_analytic" for n in analytic_probabilities(p["analytic"], 0.0)}
        deviations.add("engineered_vs_analytic")
    if model.endswith("liouvillian"):
        final |= {f"F{p['target_fock']}", "Q"}
    return {"column": final, "deviation": deviations}


def _cross_rules(c: dict) -> None:
    """The rules that tie keys together, on the converted document."""
    model, p, init, cutoff = c["model"], c["parameters"], c["initial_state"], c["cutoff"]
    span = float(c["grid"]["stop"]) - float(c["grid"]["start"])
    if not 0 < span < math.inf:
        _fail("grid", "stop must exceed start by a finite span")
    if len(set(c["outputs"])) != len(c["outputs"]):
        _fail("outputs", "duplicate column names")
    for col in c["outputs"]:
        if col[0] in "PF":
            _fits(int(col[1:]), "outputs", cutoff)
    for at, amps in (("initial_state.field", init.get("field")), ("initial_state.atom",
                     init.get("atom")), ("parameters.atom_state", p.get("atom_state"))):
        if amps is not None and not 0 < _norm2(amps.values()) < math.inf:
            _fail(at, "amplitudes must not all vanish, and their squared norm must be finite")
    if "ladder" in p:
        if p["ladder"]["weights"][0] != 1:
            _fail("parameters.ladder.weights", "the first weight must be exactly 1")
        # the engineered Hamiltonian keeps two levels above the ladder top
        room = 0 if model == "ub-liouvillian" else 2
        _fits(p["ladder"]["base"] + len(p["ladder"]["weights"]) + room, "parameters.ladder", cutoff)
    if model == "full-raman" and len({len(p[key]) for key in _DRIVE_KEYS}) > 1:
        _fail("parameters", "lambdas, omegas, deltas and delta_tildes differ in length")
    if model in HAMILTONIAN_MODELS:
        levels = _drive(p).atom_levels if model == "full-raman" else ("g", "e")
        if not set(init["atom"]) <= set(levels):
            _fail("initial_state.atom", f"levels must be among {levels}")
        if p["analytic"] is not None:
            _fits(max(analytic_probabilities(p["analytic"], 0.0)), "parameters.analytic", cutoff)
    elif len(init) != 1:
        _fail("initial_state", "give exactly one of thermal_n_bar and fock")
    if "Q" in c["outputs"]:
        field = init.get("field") or {init.get("fock", 0): 1}
        mean = sum(n * _norm2([a]) for n, a in field.items()) / _norm2(field.values())
        if max(mean, init.get("thermal_n_bar", 0)) < MEAN_PHOTON_FLOOR:
            _fail("outputs", "Q is undefined on the vacuum the run starts in")
    if model == "full-raman":
        if p["mode"] == "upper-bounded" and p["base"] != 0:
            _fail("parameters.base", "upper-bounded ladders start at the vacuum (base 0)")
        _fits(p["base"] + len(p["lambdas"]) + 2, "parameters.base", cutoff)
        if not 0 < _norm2(init["atom"].get(label, 0j) for label in ("g", "e")) < math.inf:
            _fail("initial_state.atom", "the engineered comparison needs a g or e amplitude")
    elif model == "engineered-ladder" and p["zeta_ref"] == 0:
        _fail("parameters.zeta_ref", "must be nonzero")
    elif model.endswith("liouvillian"):
        if STEADY_WINDOW > span:
            _fail("grid", f"span {span} is shorter than the steady window {STEADY_WINDOW}")
        steps = [k for k, _ in p.get("channels", ())]
        if len(set(steps)) != len(steps):
            _fail("parameters.channels", f"duplicate ladder steps {steps}")
        with np.errstate(over="ignore"):
            if "recipe" in p and not np.all(np.isfinite(_selective_recipe_rates(p))):
                _fail("parameters.recipe", "gives rates beyond the float range")
    elif model == "collision-model":
        zeta_tau = float(p["zeta_tau"])
        tau = zeta_tau * zeta_tau / p["Gamma"]
        atoms = span / tau if 0 < tau < math.inf else math.inf
        if not atoms <= MAX_ATOMS:
            _fail("parameters.zeta_tau", f"the grid needs {atoms:.4g} atoms, more than {MAX_ATOMS}")
    # last: the names a run reports hold only for an otherwise valid document
    reported = _reported(c)
    for key, rule in c["check"].items():
        if set(rule) not in ({"target", "tol"}, {"max"}):
            _fail(f"check.{key}", "need a target/tol or max rule")
        kind = "column" if "target" in rule else "deviation"
        if key not in reported[kind]:
            _fail(f"check.{key}", f"the run reports no {kind} of that name; "
                                  f"it has {sorted(reported[kind])}")


def parse_config(doc: dict) -> ScenarioConfig:
    """Check a scenario document against the schema and convert its values."""
    config = _walk(_SCENARIO, doc, "")
    _cross_rules(config)
    del config["schema_version"]
    grid = config["grid"]
    config.update(grid=TimeGrid(float(grid["start"]), float(grid["stop"]), grid["samples"]),
                  outputs=tuple(config["outputs"]),
                  integrator=IntegratorConfig(**config["integrator"]))
    return ScenarioConfig(**config, raw=copy.deepcopy(doc))


# ---------------------------------------------------------------------------
# observable columns


def _probe_columns(traj, outputs) -> dict[str, np.ndarray]:
    """The requested columns over a trajectory, from its population array."""
    pops = traj.populations
    cols: dict[str, np.ndarray] = {}
    for name in outputs:
        if name[0] in "PF" and name[1:].isdigit():
            cols[name] = pops[:, int(name[1:])]
        elif name == "Q":
            cols[name] = photon_mandel_q(pops)  # nan on samples at the vacuum
        elif name == "mean_n":
            cols[name] = photon_mean(pops)
        elif name == "purity":
            cols[name] = traj.purity()
    return cols


_DRIVE_KEYS = ("lambdas", "omegas", "deltas", "delta_tildes")


def _drive(p: dict) -> RamanLadderParams:
    """The Raman drive of full-raman ``parameters``."""
    return RamanLadderParams(*(p[key] for key in _DRIVE_KEYS), p["kind"])


def _ladder_from_doc(doc: dict, zeta_ref: complex) -> LadderSpec:
    return LadderSpec(
        base=doc["base"], weights=tuple(doc["weights"]), zeta_ref=zeta_ref, kind=doc["kind"]
    )


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


# ---------------------------------------------------------------------------
# model runners


@dataclass
class RunResult:
    config: ScenarioConfig
    series: ObservableSeries
    summary: dict


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute a validated scenario; deterministic for identical inputs."""
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "model": config.model,
        "description": config.description,
        "reference_rate": config.reference_rate,
        "cutoff": config.cutoff,
        "time_column": config.time_column,
        "anchor": config.anchor,
    }
    if config.model == "full-raman":
        series = _run_full_raman(config, summary)
    elif config.model == "engineered-ladder":
        series = _run_engineered(config, summary)
    elif config.model in ("ub-liouvillian", "selective-liouvillian"):
        series = _run_liouvillian(config, summary)
    else:
        series = _run_collision(config, summary)
    return RunResult(config, series, summary)


def _ladder_record(spec: LadderSpec) -> dict:
    return {
        "zeta_ref": _complex_pair(spec.zeta_ref),
        "ladder_weights": [_complex_pair(w) for w in spec.weights],
        "ladder_base": spec.base,
        "ladder_top": spec.top,
    }


def _finite(x) -> float | None:
    """``x`` as a float, or None (JSON null) when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _finish(summary: dict, times, cols: dict, probed: dict | None = None) -> ObservableSeries:
    """Record the last sample of every column and of every ``probed`` column
    (null if not finite) and return the series of ``cols``."""
    finals = {**cols, **(probed or {})}
    summary["final"] = {name: _finite(col[-1]) for name, col in sorted(finals.items())}
    return ObservableSeries(times, cols)


def _hamiltonian_run(config: ScenarioConfig, summary: dict, key: str, build, levels, zeta_ref):
    """Propagate the initial state on the atom's ``levels`` under ``build(layout)``.

    The grid is in |zeta_ref| t; atom amplitudes outside ``levels`` are
    dropped.  Leakage and the Magnus work are recorded under ``key``.
    """
    zr = abs(zeta_ref)
    t_grid = TimeGrid(config.grid.t_start / zr, config.grid.t_end / zr, config.grid.samples)
    init = config.initial_state
    atom = atom_state({k: v for k, v in init["atom"].items() if k in levels}, levels)
    psi0 = product_state(atom, field_superposition(init["field"], config.cutoff))
    h = build(atom_field_layout(len(levels), config.cutoff))
    traj = evolve_state(h, psi0, t_grid, config.integrator)
    summary.setdefault("leakage", {})[key] = traj.leakage
    summary.setdefault("diagnostics", {}).setdefault("integrator", {})[key] = {
        "steps": traj.steps, "exponentials": traj.exponentials,
        "error_estimate": traj.error_estimate,
    }
    return traj


def _engineered_run(config: ScenarioConfig, summary: dict, spec: LadderSpec, suffix: str = ""):
    """The engineered ladder run: its columns named with ``suffix``, plus the closed forms."""
    traj = _hamiltonian_run(config, summary, "engineered",
                            partial(build_engineered_hamiltonian, spec), ("g", "e"), spec.zeta_ref)
    cols = {name + suffix: col for name, col in _probe_columns(traj, config.outputs).items()}
    analytic = config.parameters["analytic"]
    if analytic:
        pops, dev = traj.populations, 0.0
        for n, curve in analytic_probabilities(analytic, config.grid.times).items():
            cols[f"P{n}_analytic"] = curve
            dev = max(dev, float(np.max(np.abs(pops[:, n] - curve))))
        summary.setdefault("deviations", {})["engineered_vs_analytic"] = dev
    return traj, cols


def resonant_drive(config: ScenarioConfig, summary: dict) -> tuple[RamanLadderParams, LadderSpec]:
    """The drive half of a full-raman run, written into ``summary``.

    Closes the ladder-step resonances on the dressed shifts from the input
    detunings, derives the couplings, selects the ladder and judges the
    validity regime; ``fockladder regime`` reads the table from here.
    """
    p = config.parameters
    base = p["base"]
    given = _drive(p)
    params = solve_dressed_resonance(given, base)
    spec = ladder_from_conditions(params, p["mode"], base)
    regime = check_regime(params, base, n_bar=p["n_bar_regime"], threshold=p["regime_threshold"])
    derived = derive_couplings(params)
    summary["couplings"] = {
        "chi": derived.chi,
        "chi_tilde": derived.chi_tilde,
        "varpi": derived.varpi,
        "omega_shift": derived.omega_shift,
        "chi_eff": derived.chi_eff,
        "zeta": [_complex_pair(z) for z in derived.zeta],
        "theta": list(derived.theta),
        **_ladder_record(spec),
    }
    values = [res["value"] for res in regime["residuals"]]  # second-order, then dressed
    summary["detunings"] = {
        "input_delta_tilde": list(given.delta_tildes),
        "solved_delta_tilde": list(params.delta_tildes),
        "residuals": values[:spec.steps],
        "dressed_residuals": values[spec.steps:],
    }
    summary["regime"] = regime
    return params, spec


def _run_full_raman(config: ScenarioConfig, summary: dict) -> ObservableSeries:
    params, spec = resonant_drive(config, summary)
    traj = _hamiltonian_run(config, summary, "full", partial(build_full_hamiltonian, params),
                            params.atom_levels, spec.zeta_ref)
    cols = {f"{name}_full": col for name, col in _probe_columns(traj, config.outputs).items()}
    # The engineered reference is the ideal uniform-weight target ladder;
    # the drive parameters realize it only approximately, and the residual
    # weight mismatch is reported alongside the deviations.
    summary["couplings"]["weight_mismatch"] = max(abs(w - 1.0) for w in spec.weights)
    traj_eng, eng_cols = _engineered_run(
        config, summary, replace(spec, weights=(1.0,) * spec.steps), "_engineered")
    cols.update(eng_cols)
    full = traj.populations
    n = np.arange(full.shape[1])
    inside = (spec.base <= n) & (n <= spec.top)
    summary.setdefault("deviations", {}).update(
        full_vs_engineered=float(np.max(np.abs(full - traj_eng.populations)[:, inside])),
        outside_subspace=float(np.max(full[:, ~inside], initial=0.0)),
    )
    return _finish(summary, config.grid.times, cols)


def _run_engineered(config: ScenarioConfig, summary: dict) -> ObservableSeries:
    p = config.parameters
    spec = _ladder_from_doc(p["ladder"], p["zeta_ref"])
    summary["couplings"] = _ladder_record(spec)
    _, cols = _engineered_run(config, summary, spec)
    return _finish(summary, config.grid.times, cols)


def _initial_field_density(config: ScenarioConfig) -> DensityOperator:
    init = config.initial_state
    if "thermal_n_bar" in init:
        return thermal_state(float(init["thermal_n_bar"]), config.cutoff)
    return fock_state(init["fock"], config.cutoff).to_density()


def _density_finish(config: ScenarioConfig, summary: dict, traj) -> dict[str, np.ndarray]:
    """The requested columns of a density run; records its leakage and the blocks it propagated."""
    summary["leakage"] = {"density": traj.leakage}
    summary["diagnostics"] = {"density": {"blocks": len(traj.blocks),
                                          "largest_block": max(traj.blocks)}}
    return _probe_columns(traj, config.outputs)


def _run_liouvillian(config: ScenarioConfig, summary: dict) -> ObservableSeries:
    p = config.parameters
    layout = field_layout(config.cutoff)
    bath = ThermalBathParams(gamma=p["gamma"], n_bar=p["n_bar"])
    if config.model == "ub-liouvillian":
        pumps = ub_dissipator(_ladder_from_doc(p["ladder"], zeta_ref=1.0), p["Gamma"], layout)
    else:
        pumps = selective_dissipators(p["channels"], layout)
    summary["gamma_eff"] = {"configured": [term.rate for term in pumps]}
    if "recipe" in p:
        summary["gamma_eff"]["recipe"] = _selective_recipe_rates(p)

    generator = sparse_liouvillian(None, pumps + thermal_terms(bath, layout))
    traj = evolve_density(generator, _initial_field_density(config), config.grid)
    # the target fidelity and Q are probed whether or not they are output
    # columns, so final and settling read the same values as the CSV would
    target = p["target_fock"]
    fid_col = f"F{target}"
    probed = _probe_columns(traj, (fid_col, "Q"))
    series = _finish(summary, config.grid.times, _density_finish(config, summary, traj), probed)

    rho_ss = steady_state(generator)
    steady_pops = fock_probabilities(rho_ss)
    # the slowest decay of the whole generator, and of the blocks the run touched
    summary["diagnostics"]["steady"] = {
        "spectral_gap": _finite(spectral_gap(generator)),
        "touched_spectral_gap": _finite(spectral_gap(generator, traj.index)),
    }
    # settling is judged on the target-fidelity column alone; the other
    # columns may still creep within eps at the end of the grid
    summary["steady"] = {
        "window": STEADY_WINDOW,
        "eps": STEADY_EPS,
        "detected_at": detect_steady(ObservableSeries(series.times, {fid_col: probed[fid_col]}),
                                     STEADY_WINDOW, STEADY_EPS),
        "null_space_trace_distance": trace_distance(traj.states[-1], rho_ss),
        "null_space_fidelity": float(steady_pops[target]),
        "null_space_mandel_q": _finite(photon_mandel_q(steady_pops)),
    }
    return series


def _selective_recipe_rates(p: dict) -> list[float]:
    """Gamma_k = r (zeta_k tau)^2 from the transit-time recipe, for comparison
    with the configured rates (the two differ in the source material).

    The recipe gives tau (in 1/gamma) and zeta_unit (in gamma) with
    zeta_k = zeta_unit sqrt(k+1); back-to-back windows mean r = 1/tau.
    """
    tau = float(p["recipe"]["tau"])
    zeta_unit = float(p["recipe"]["zeta_unit"])
    inj = AtomInjectionParams(tau=tau, atom_state=atom_state({"e": 1.0}, ("g", "e")))
    return [gamma_from_injection(zeta_unit * np.sqrt(k + 1), inj) for k, _ in p["channels"]]


def _run_collision(config: ScenarioConfig, summary: dict) -> ObservableSeries:
    p = config.parameters
    zeta_tau = float(p["zeta_tau"])
    tau = zeta_tau**2 / float(p["Gamma"])
    zeta = zeta_tau / tau
    n_atoms = max(1, math.ceil((config.grid.t_end - config.grid.t_start) / tau))
    spec = _ladder_from_doc(p["ladder"], zeta_ref=zeta)
    h_eng = build_engineered_hamiltonian(spec, atom_field_layout(2, config.cutoff))
    inj = AtomInjectionParams(tau=tau, atom_state=atom_state(p["atom_state"], ("g", "e")))
    bath = ThermalBathParams(gamma=p["gamma"], n_bar=p["n_bar"])
    traj = collision_model_evolve(h_eng, inj, bath, _initial_field_density(config), n_atoms)
    summary["collision"] = {
        "tau": tau,
        "rate": inj.rate,
        "zeta": zeta,
        "zeta_tau": zeta_tau,
        "n_atoms": n_atoms,
        "gamma_eff": gamma_from_injection(zeta, inj),
    }
    return _finish(summary, traj.times, _density_finish(config, summary, traj))


# ---------------------------------------------------------------------------
# check targets


def evaluate_check(result: RunResult) -> list[dict]:
    """Compare the summary against the scenario's embedded check targets."""
    findings = []
    for key, rule in sorted(result.config.check.items()):
        if "target" in rule:
            actual = result.summary.get("final", {}).get(key)
            ok = actual is not None and abs(actual - rule["target"]) <= rule["tol"]
            findings.append(
                {"name": key, "target": rule["target"], "tol": rule["tol"],
                 "actual": actual, "pass": bool(ok)}
            )
        else:
            actual = result.summary.get("deviations", {}).get(key)
            ok = actual is not None and actual <= rule["max"]
            findings.append(
                {"name": key, "max": rule["max"], "actual": actual, "pass": bool(ok)}
            )
    return findings


# ---------------------------------------------------------------------------
# presets

_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S5 = math.sqrt(5.0)
_S6 = math.sqrt(6.0)

_TWO_PI = 2.0 * math.pi

_VALIDATION_CHECK = {
    "full_vs_engineered": {"max": 0.10},
    "outside_subspace": {"max": 0.05},
    "engineered_vs_analytic": {"max": 1e-8},
}

_HAMILTONIAN_INTEGRATOR = {"rel_tol": 1e-7}


def _full_raman_preset(name, description, *, lambdas, omegas, deltas, delta_tildes,
                       mode, base, field, outputs, analytic, anchor):
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "description": description,
        "model": "full-raman",
        "reference_rate": {"unit": "lambda1", "value_hz": 5.0e5},
        "cutoff": 15,
        "grid": {"start": 0.0, "stop": _TWO_PI, "samples": 201},
        "integrator": dict(_HAMILTONIAN_INTEGRATOR),
        "initial_state": {"field": field, "atom": {"g": 1.0, "e": 1.0}},
        "outputs": outputs,
        "parameters": {
            "lambdas": lambdas,
            "omegas": omegas,
            "deltas": deltas,
            "delta_tildes": delta_tildes,
            "mode": mode,
            "base": base,
            "analytic": analytic,
        },
        "anchor": anchor,
        "check": copy.deepcopy(_VALIDATION_CHECK),
    }


def _steady_preset(name, description, *, model, parameters, target, fidelity, q, tol,
                   **anchor_targets):
    """A steady-Fock-state preset: a thermal start pumped towards |target> for gamma t = 1."""
    fock = f"F{target}"
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "description": description,
        "model": model,
        "reference_rate": {"unit": "gamma", "value_hz": 10.0},
        "cutoff": 12,
        "grid": {"start": 0.0, "stop": 1.0, "samples": 201},
        "initial_state": {"thermal_n_bar": 0.05},
        "outputs": [fock, "Q", "mean_n"] + [f"P{n}" for n in range(target + 1)],
        "parameters": {**parameters, "gamma": 1.0, "n_bar": 0.05, "target_fock": target},
        "anchor": {"figure": name[3:], "targets": {fock: fidelity, "Q": q, **anchor_targets}},
        "check": {fock: {"target": fidelity, "tol": tol}, "Q": {"target": q, "tol": tol}},
    }


def _build_presets() -> dict[str, dict]:
    presets: dict[str, dict] = {}

    presets["fig2a"] = _full_raman_preset(
        "fig2a",
        "Two-step upper-bounded ladder on {|0>,|1>,|2>}: full two-branch Raman "
        "model vs engineered interaction vs closed-form Rabi curves.",
        lambdas=[1.0, 1.0],
        omegas=[1.0 / (5.0 * _S2), 1.0 / 20.0],
        deltas=[10.0, 5.0],
        delta_tildes=[9.9, 5.2],
        mode="upper-bounded",
        base=0,
        field={"0": 1.0, "2": 1.0},
        outputs=["P0", "P1", "P2", "P3"],
        analytic="fig2a",
        anchor={"figure": "2a", "targets": {"P1_peak": 0.5}},
    )
    presets["fig2b"] = _full_raman_preset(
        "fig2b",
        "Two-step sliced ladder on {|3>,|4>,|5>} (M=3): full model vs "
        "engineered interaction vs closed forms.",
        lambdas=[1.0, 1.0],
        omegas=[1.0 / (5.0 * _S5), 1.0 / 25.0],
        deltas=[20.0, 10.0],
        delta_tildes=[19.8, 10.25],
        mode="sliced",
        base=3,
        field={"3": 1.0, "5": 1.0},
        outputs=["P2", "P3", "P4", "P5", "P6"],
        analytic="fig2b",
        anchor={"figure": "2b", "targets": {"P4_peak": 0.5}},
    )
    presets["fig3a"] = _full_raman_preset(
        "fig3a",
        "Three-step upper-bounded ladder on {|0>..|3>}: three-branch full "
        "model vs engineered interaction vs closed forms.",
        lambdas=[1.0, 1.0, 1.0],
        omegas=[1.0 / 20.0, _S2 / 20.0, 1.0 / (20.0 * _S3)],
        deltas=[10.0, 20.0, 10.0],
        delta_tildes=[9.95, 20.1, 10.15],
        mode="upper-bounded",
        base=0,
        field={"1": 1.0, "3": 1.0},
        outputs=["P0", "P1", "P2", "P3", "P4"],
        analytic="fig3a",
        anchor={"figure": "3a", "targets": {"P1_peak": 0.5}},
    )
    presets["fig3b"] = _full_raman_preset(
        "fig3b",
        "Three-step sliced ladder on {|3>..|6>} (M=3): three-branch full "
        "model vs engineered interaction vs closed forms.",
        lambdas=[1.0, 1.0, 1.0],
        omegas=[1.0 / (20.0 * _S5), 4.0 / (20.0 * _S5 * _S5), 2.0 / (20.0 * _S5 * _S6)],
        deltas=[20.0, 40.0, 20.0],
        delta_tildes=[19.9, 40.125, 20.15],
        mode="sliced",
        base=3,
        field={"3": 1.0, "6": 1.0},
        outputs=["P2", "P3", "P4", "P5", "P6", "P7"],
        analytic="fig3b",
        anchor={"figure": "3b", "targets": {"P3_start": 0.5}},
    )

    presets["fig4"] = _steady_preset(
        "fig4",
        "Steady Fock state |3> from the collective three-step "
        "ladder dissipator (Gamma = 63 gamma) against a thermal bath.",
        model="ub-liouvillian",
        parameters={"ladder": {"base": 0, "weights": [1.0, 1.0, 1.0]}, "Gamma": 63.0},
        target=3, fidelity=0.92, q=-0.96, tol=0.03, Q_start=0.05,
    )
    presets["fig6a"] = _steady_preset(
        "fig6a",
        "Steady Fock state |2> from two independent selective "
        "pump channels (Gamma_0 = 176 gamma, Gamma_1 = 352 gamma).",
        model="selective-liouvillian",
        parameters={"channels": [[0, 176.0], [1, 352.0]],
                    "recipe": {"tau": 1.4142135623730951e-3, "zeta_unit": 500.0}},
        target=2, fidelity=0.95, q=-0.98, tol=0.02,
    )
    presets["fig6b"] = _steady_preset(
        "fig6b",
        "Steady Fock state |3> from three independent selective "
        "pump channels (Gamma_k = 96, 192, 288 gamma).",
        model="selective-liouvillian",
        parameters={"channels": [[0, 96.0], [1, 192.0], [2, 288.0]],
                    "recipe": {"tau": 1.1547005383792516e-3, "zeta_unit": 500.0}},
        target=3, fidelity=0.94, q=-0.97, tol=0.02,
    )
    return presets


_PRESETS = _build_presets()


def collision_document(zeta_tau: float, t_end: float = 0.3) -> dict:
    """Scenario document for the atom-by-atom micro-simulation of the fig4
    reservoir (regular arrivals, back-to-back windows tau = 1/r)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": f"fig4-collisions-{zeta_tau:g}",
        "description": "Atom-by-atom micro-simulation of the fig4 reservoir.",
        "model": "collision-model",
        "reference_rate": {"unit": "gamma", "value_hz": 10.0},
        "cutoff": 12,
        "grid": {"start": 0.0, "stop": t_end, "samples": 2},
        "initial_state": {"thermal_n_bar": 0.05},
        "outputs": ["F3", "Q", "mean_n"],
        "parameters": {
            "ladder": {"base": 0, "weights": [1.0, 1.0, 1.0]},
            "Gamma": 63.0,
            "zeta_tau": zeta_tau,
            "gamma": 1.0,
            "n_bar": 0.05,
            "atom_state": {"e": 1.0},
        },
        "anchor": {"figure": "4", "targets": {"F3": 0.92}},
    }


def list_presets() -> list[tuple[str, str]]:
    """Preset names with one-line descriptions, in a stable order."""
    return [(name, _PRESETS[name]["description"]) for name in sorted(_PRESETS)]


def preset_document(name: str) -> dict:
    if name not in _PRESETS:
        raise ScenarioValidationError("scenario", f"unknown preset {name!r}")
    return copy.deepcopy(_PRESETS[name])


def _reject_constant(name: str):
    raise ScenarioValidationError("scenario", f"non-finite number {name} in the JSON")


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario from a preset name, a JSON file path, or a dict."""
    if isinstance(source, dict):
        return parse_config(source)
    source = str(source)
    if source in _PRESETS:
        return parse_config(preset_document(source))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ScenarioValidationError(
            "scenario", f"{source!r} is neither a preset nor a readable file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError("scenario", f"invalid JSON: {exc}") from None
    return parse_config(doc)


# ---------------------------------------------------------------------------
# sweeps


def sweep(config: ScenarioConfig, param_path: str, values) -> list[dict]:
    """Run the scenario once per value of a dotted numeric parameter path."""
    rows = []
    for value in values:
        doc = copy.deepcopy(config.raw)
        _assign_path(doc, param_path, value)
        result = run_scenario(parse_config(doc))
        row = {"param": param_path, "value": value}
        row.update(result.summary["final"])
        if "deviations" in result.summary:
            row.update(result.summary["deviations"])
        rows.append(row)
    return rows


def _assign_path(doc: dict, path: str, value) -> None:
    *head, last = path.split(".")
    node = doc
    for key in head:
        node = node[_slot(node, key, path)]
    node[_slot(node, last, path)] = value


def _slot(node, key: str, path: str):
    """``key`` as an existing dict key, or as a list index in 0..len-1."""
    if isinstance(node, list):
        if key.isascii() and key.isdigit() and int(key) < len(node):
            return int(key)
        raise ScenarioValidationError(path, f"list index {key!r} outside 0..{len(node) - 1}")
    if isinstance(node, dict) and key in node:
        return key
    raise ScenarioValidationError(path, f"no such parameter segment {key!r}")


# ---------------------------------------------------------------------------
# serialization


def series_to_csv(series: ObservableSeries, time_column: str) -> str:
    """CSV with a header row and 17-significant-digit values."""
    names = list(series.columns)
    table = np.column_stack([series.times] + [series.columns[n] for n in names])
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join([time_column] + names)]
    if len(table):
        lines.append("\n".join([row] * len(table)) % tuple(table.ravel().tolist()))
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
