"""Span tracing of the library's layers, installed from outside the library.

Each public function is wrapped at the name its calling module binds, so
the wrapper sees exactly the calls that module makes.  A span records its
name, start, end and the span that was open when it began; spans stay in
memory until the run writes them out.  Per-layer numbers are self times
(a span's duration minus that of its direct children) and counts.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


class _Override:
    """Attribute view of an object with some attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _trajectory_dim(args, kwargs, result):
    return {"dim": int(result.states[0].layout.dim)}


def _matrix_dim(args, kwargs, result):
    matrix = args[0]
    return {"dim": int(getattr(matrix, "entries", matrix).shape[0])}


def _atoms(args, kwargs, result):
    return {"atoms": len(result.states) - 1}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute bound there, span name, note taken from the call)
BINDINGS = [
    ("fockladder.cli", "load_scenario", "scenarios.load_scenario", None),
    ("fockladder.cli", "run_scenario", "scenarios.run_scenario", None),
    ("fockladder.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("fockladder.cli", "sweep", "scenarios.sweep", None),
    ("fockladder.cli", "series_to_csv", "scenarios.series_to_csv", _text_bytes),
    ("fockladder.cli", "summary_to_json", "scenarios.summary_to_json", None),
    ("fockladder.scenarios", "solve_resonance", "raman.solve_resonance", None),
    ("fockladder.scenarios", "derive_couplings", "raman.derive_couplings", None),
    ("fockladder.raman", "derive_couplings", "raman.derive_couplings", None),
    ("fockladder.scenarios", "build_full_hamiltonian", "raman.build_full_hamiltonian", None),
    ("fockladder.raman", "TimeDependentHamiltonian.apply", "raman.apply", None),
    ("fockladder.scenarios", "evolve_state", "lindblad.evolve_state", _trajectory_dim),
    ("fockladder.scenarios", "evolve_density", "lindblad.evolve_density", _trajectory_dim),
    ("fockladder.lindblad", "solve_ivp", "lindblad.solve_ivp", _nfev),
    ("fockladder.scenarios", "liouvillian_matrix", "lindblad.liouvillian_matrix", None),
    ("fockladder.reservoir", "liouvillian_matrix", "lindblad.liouvillian_matrix", None),
    ("fockladder.scenarios", "steady_state", "lindblad.steady_state", _matrix_dim),
    ("fockladder.scenarios", "collision_model_evolve", "reservoir.collision_model_evolve", _atoms),
    ("fockladder.reservoir", "scipy.linalg.expm", "reservoir.expm", _matrix_dim),
    ("fockladder.reservoir", "partial_trace", "hilbert.partial_trace", None),
    ("fockladder.observables", "partial_trace", "hilbert.partial_trace", None),
] + [
    ("fockladder.scenarios", probe, "observables", None)
    for probe in ("fock_probabilities", "fidelity_fock", "mandel_q", "mean_photon",
                  "purity", "trace_distance", "detect_steady")
]


class Tracer:
    """Collects spans as (name, start, end, parent id, note) in call order."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, note=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[sid] = (name, start, end, parent, None)
            if note is not None:
                try:
                    spans[sid] = (name, start, end, parent, note(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # the library changed the shape of this call
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding that exists in the loaded library."""
        for module_name, attr, name, note in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            if path and path[0] == "scipy":
                # expm as seen from the module only: swap in a view of scipy
                # whose linalg.expm is wrapped, leaving scipy itself untouched
                scipy_mod = owner.scipy
                wrapped = self.wrap(name, scipy_mod.linalg.expm, note)
                linalg = _Override(scipy_mod.linalg, expm=wrapped)
                self._swap(owner, "scipy", _Override(scipy_mod, linalg=linalg))
                continue
            target = owner
            for part in path:
                target = getattr(target, part)
            original = target.__dict__.get(leaf) if isinstance(target, type) else getattr(target, leaf, None)
            if original is None:
                continue
            self._swap(target, leaf, self.wrap(name, original, note))

    def _swap(self, target, attr, value) -> None:
        # a class attribute is restored from the class dict, not as a bound method
        current = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        self._restore.append((target, attr, current))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)


def summarize(spans) -> dict:
    """Per-name self time, inclusive time, call count and summed/maximal notes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict = {}
    for sid, (name, start, end, parent, note) in enumerate(spans):
        entry = layers.setdefault(name, {"self": 0.0, "incl": 0.0, "calls": 0})
        entry["self"] += (end - start) - child_time[sid]
        entry["incl"] += end - start
        entry["calls"] += 1
        for key, value in (note or {}).items():
            if key == "dim":
                entry["dim"] = max(entry.get("dim", 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return layers


def _ancestor(spans, sid: int, names) -> str | None:
    parent = spans[sid][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    layers = summarize(spans)

    def get(name, key="self"):
        return layers.get(name, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for name in ("cli.main", "scenarios.load_scenario", "scenarios.run_scenario",
                 "scenarios.sweep", "scenarios.series_to_csv", "scenarios.summary_to_json",
                 "raman.solve_resonance", "raman.build_full_hamiltonian", "raman.apply",
                 "lindblad.evolve_state", "lindblad.evolve_density", "lindblad.solve_ivp",
                 "lindblad.liouvillian_matrix", "lindblad.steady_state",
                 "reservoir.collision_model_evolve", "reservoir.expm",
                 "hilbert.partial_trace", "observables"):
        metrics[f"{name}.s"] = float(get(name))
    for name in ("raman.derive_couplings", "raman.apply", "hilbert.partial_trace", "observables"):
        metrics[f"{name}.calls"] = get(name, "calls")
    apply_calls = get("raman.apply", "calls")
    metrics["raman.apply.us_per_call"] = (
        1e6 * get("raman.apply", "incl") / apply_calls if apply_calls else 0.0
    )
    metrics["scenarios.series_to_csv.bytes"] = get("scenarios.series_to_csv", "bytes")

    evolves = ("lindblad.evolve_state", "lindblad.evolve_density")
    nfev = dict.fromkeys(evolves, 0)
    collision = "reservoir.collision_model_evolve"
    inside_collision = 0.0
    for sid, (name, start, end, _, note) in enumerate(spans):
        if name == "lindblad.solve_ivp":
            owner = _ancestor(spans, sid, evolves)
            if owner is not None:
                nfev[owner] += note["nfev"] if note else 0
        elif name in ("reservoir.expm", "lindblad.liouvillian_matrix"):
            if _ancestor(spans, sid, (collision,)) is not None:
                inside_collision += end - start
    for name in evolves:
        metrics[f"{name}.nfev"] = nfev[name]
        metrics[f"{name}.dim"] = get(name, "dim")
    metrics["lindblad.guards.s"] = float(
        sum(get(name, "incl") for name in evolves) - get("lindblad.solve_ivp", "incl")
    )
    metrics["lindblad.steady_state.dim"] = get("lindblad.steady_state", "dim")
    metrics["reservoir.expm.dim"] = get("reservoir.expm", "dim")
    atoms = get(collision, "atoms")
    metrics[f"{collision}.atoms"] = atoms
    metrics["reservoir.per_atom_us"] = (
        1e6 * (get(collision, "incl") - inside_collision) / atoms if atoms else 0.0
    )
    return metrics


COUNT_METRICS = (
    "raman.derive_couplings.calls", "raman.apply.calls", "hilbert.partial_trace.calls",
    "observables.calls", "scenarios.series_to_csv.bytes", "lindblad.evolve_state.nfev",
    "lindblad.evolve_state.dim", "lindblad.evolve_density.nfev", "lindblad.evolve_density.dim",
    "lindblad.steady_state.dim", "reservoir.expm.dim", "reservoir.collision_model_evolve.atoms",
)
