"""Raman interaction models for engineered atom-field couplings.

Builds the full time-dependent multi-branch Raman Hamiltonians, derives
the second-order coupling parameters obtained after adiabatic elimination
of the auxiliary levels, constructs the engineered weighted-ladder
Hamiltonians (upper-bounded and sliced), solves the resonance
conditions for the laser detunings, and checks the validity regime.

A drive is held as its four coupling and detuning lists and its kind
(``RamanLadderParams``); the detuning signs, the atom levels, the
couplings, the ladder and its step count are derived from it where they
are read.

All rates are dimensionless multiples of a declared reference rate
(lambda_1 for Hamiltonian-validation scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .hilbert import (
    ATOM,
    ComplexOperator,
    HilbertLayout,
    LayoutError,
    annihilation,
    atomic_sigma,
    kron_triplets,
    nonzero_triplets,
)

Kind = Literal["JC", "AJC"]

AUX_LABELS = ("f", "h", "i", "i2")


class ResonanceError(RuntimeError):
    """The detuning fixed-point iteration failed to converge."""


@dataclass(frozen=True)
class RamanLadderParams:
    """K-branch Raman drive (K = 2, 3 or 4 auxiliary levels).

    Branch j couples the cavity with lambdas[j] at detuning deltas[j] and
    the laser with omegas[j] at detuning delta_tildes[j], both through the
    auxiliary level atom_levels[2 + j].  Branch 1 carries negative detuning
    exponents e^{-i Delta t}, every later branch positive ones (``signs``).
    For JC the cavity drives g <-> aux_j and the laser e <-> aux_j; AJC
    interchanges the two roles.
    """

    lambdas: tuple[float, ...]
    omegas: tuple[float, ...]
    deltas: tuple[float, ...]
    delta_tildes: tuple[float, ...]
    kind: Kind = "JC"

    def __post_init__(self):
        for name in ("lambdas", "omegas", "deltas", "delta_tildes"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        k = len(self.lambdas)
        if not (len(self.omegas) == len(self.deltas) == len(self.delta_tildes) == k):
            raise ValueError("parameter lists must have equal length")
        if k not in (2, 3, 4):
            raise ValueError(f"need 2, 3 or 4 branches, got {k}")
        if self.kind not in ("JC", "AJC"):
            raise ValueError(f"kind must be 'JC' or 'AJC', got {self.kind!r}")
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("cavity coupling lambda must be positive")
        if any(omega < 0 for omega in self.omegas):
            raise ValueError("laser coupling omega must be non-negative")
        if 0 in self.deltas + self.delta_tildes:
            raise ValueError("detunings must be nonzero")

    @property
    def n_branches(self) -> int:
        return len(self.lambdas)

    @property
    def signs(self) -> tuple[int, ...]:
        """Sign s_j of branch j's detuning exponents e^{i s_j Delta_j t}, cavity and laser alike."""
        return (-1,) + (1,) * (len(self.lambdas) - 1)

    @property
    def atom_levels(self) -> tuple[str, ...]:
        return ("g", "e") + AUX_LABELS[:self.n_branches]


@dataclass(frozen=True)
class DerivedCouplings:
    """Second-order couplings of the effective ladder interaction.

    chi and varpi are the cavity- and laser-induced level shifts from the
    first two branches; chi_tilde and omega_shift collect the same shifts
    from branches 3+ (zero for two branches).  zeta are the Raman ladder
    couplings and theta the engineered detunings.
    """

    chi: float
    chi_tilde: float
    varpi: float
    omega_shift: float
    zeta: tuple[complex, ...]
    theta: tuple[float, ...]

    @property
    def chi_eff(self) -> float:
        return self.chi - self.chi_tilde

    def xi(self, n: int) -> float:
        return (n + 1) * self.chi - self.varpi

    def big_xi(self, n: int) -> float:
        return self.xi(n) - (n + 1) * self.chi_tilde + self.omega_shift

    def big_phi(self, n: int, j: int) -> float:
        """Ladder-step detuning including the branch-3+ shifts (j is 1-based)."""
        return self.big_xi(n) + self.theta[j - 1]

    def zeta_n(self, n: int, j: int) -> complex:
        return np.sqrt(n + 1) * self.zeta[j - 1]


def derive_couplings(params: RamanLadderParams) -> DerivedCouplings:
    """Evaluate the adiabatic-elimination couplings from the raw drive parameters."""
    lam, om, de, dt = params.lambdas, params.omegas, params.deltas, params.delta_tildes
    chi = lam[0] ** 2 / de[0] - lam[1] ** 2 / de[1]
    varpi = om[0] ** 2 / dt[0] - om[1] ** 2 / dt[1]
    chi_tilde = sum(c ** 2 / d for c, d in zip(lam[2:], de[2:]))
    omega_shift = sum(w ** 2 / d for w, d in zip(om[2:], dt[2:]))
    return DerivedCouplings(chi, chi_tilde, varpi, omega_shift, _zeta(params), _theta(params))


def _zeta(params: RamanLadderParams) -> tuple[complex, ...]:
    """Raman ladder couplings zeta_j = (lambda_j Omega_j / 2) (1/Delta_j + 1/Delta~_j)."""
    return tuple(complex((c * w / 2.0) * (1.0 / d + 1.0 / t)) for c, w, d, t in zip(
        params.lambdas, params.omegas, params.deltas, params.delta_tildes))


def _theta(params: RamanLadderParams) -> tuple[float, ...]:
    """Engineered detunings theta_j = s_j (Delta~_j - Delta_j)."""
    return tuple(s * (t - d) for s, t, d in zip(params.signs, params.delta_tildes, params.deltas))


# ---------------------------------------------------------------------------
# full time-dependent Hamiltonian


class TimeDependentHamiltonian:
    """H(t) = sum_k c_k e^{i w_k t} T_k + H.c. over a fixed layout.

    ``terms`` holds (c_k, w_k, rows, cols, values), T_k as COO triplets in row-major order;
    an index outside [0, d) is rejected.
    """

    def __init__(self, layout: HilbertLayout, terms):
        self.layout = layout
        self.terms = [(complex(c), float(w), np.asarray(rows), np.asarray(cols), np.asarray(values))
                      for c, w, rows, cols, values in terms]
        for _, _, rows, cols, _ in self.terms:
            if np.any((rows < 0) | (rows >= layout.dim) | (cols < 0) | (cols >= layout.dim)):
                raise ValueError(f"term entries must lie in [0, {layout.dim}) x [0, {layout.dim})")


def build_full_hamiltonian(
    params: RamanLadderParams, layout: HilbertLayout
) -> TimeDependentHamiltonian:
    """Full multi-branch Raman Hamiltonian in the interaction picture."""
    if layout.dim_of(ATOM) != 2 + params.n_branches:
        raise LayoutError(
            f"atom factor dim {layout.dim_of(ATOM)} != {2 + params.n_branches}"
        )
    n = layout.dim_of("field")
    a = nonzero_triplets(annihilation(n - 1).entries)
    eye = (np.arange(n), np.arange(n), np.ones(n))
    levels = params.atom_levels
    cavity_lower, laser_lower = ("g", "e") if params.kind == "JC" else ("e", "g")
    terms = []
    for aux, lam, omega, s, delta, delta_tilde in zip(
            levels[2:], params.lambdas, params.omegas, params.signs, params.deltas,
            params.delta_tildes):
        sig_c = nonzero_triplets(atomic_sigma(aux, cavity_lower, levels).entries)
        sig_l = nonzero_triplets(atomic_sigma(aux, laser_lower, levels).entries)
        terms.append((lam, s * delta, *kron_triplets(sig_c, a, n)))
        terms.append((omega, s * delta_tilde, *kron_triplets(sig_l, eye, n)))
    return TimeDependentHamiltonian(layout, terms)


# ---------------------------------------------------------------------------
# engineered ladders


@dataclass(frozen=True)
class LadderSpec:
    """Weighted Fock ladder A^dag = sum_i w_i |M+i+1><M+i| with w_0 = 1."""

    base: int
    weights: tuple[complex, ...]
    zeta_ref: complex
    kind: Kind = "JC"

    def __post_init__(self):
        if self.base < 0:
            raise ValueError("ladder base must be non-negative")
        if not 1 <= len(self.weights) <= 4:
            raise ValueError("ladder must have 1 to 4 steps")
        if self.weights[0] != 1:
            raise ValueError("first ladder weight must be exactly 1")
        if self.kind not in ("JC", "AJC"):
            raise ValueError(f"kind must be 'JC' or 'AJC', got {self.kind!r}")
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))
        object.__setattr__(self, "zeta_ref", complex(self.zeta_ref))

    @property
    def steps(self) -> int:
        return len(self.weights)

    @property
    def top(self) -> int:
        """Fock index of the dark state at the top of the ladder."""
        return self.base + self.steps


def ladder_operator(spec: LadderSpec, cutoff: int) -> ComplexOperator:
    """The raising field operator A^dag of a ladder on a single field factor."""
    if cutoff < spec.top:
        raise ValueError(f"cutoff {cutoff} too small for ladder top {spec.top}")
    mat = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for i, w in enumerate(spec.weights):
        mat[spec.base + i + 1, spec.base + i] = w
    return ComplexOperator(HilbertLayout((("field", cutoff + 1),)), mat)


def build_engineered_hamiltonian(spec: LadderSpec, layout: HilbertLayout) -> TimeDependentHamiltonian:
    """Static engineered Hamiltonian zeta_ref sigma_ge A^dag + H.c. (sigma_eg for AJC).

    One term with w = 0, so H = M + M^dag is Hermitian by construction.
    The atom factor uses the convention index 0 = g, index 1 = e.
    """
    atom_dim = layout.dim_of(ATOM)
    if atom_dim < 2:
        raise LayoutError("atom factor must contain levels g and e")
    cutoff = layout.dim_of("field") - 1
    if cutoff < spec.top + 2:
        raise ValueError(f"cutoff {cutoff} < ladder top {spec.top} + 2")
    r, c = (0, 1) if spec.kind == "JC" else (1, 0)  # |g><e| or |e><g|
    sig = (np.array([r]), np.array([c]), np.ones(1, dtype=complex))
    adag = nonzero_triplets(ladder_operator(spec, cutoff).entries)
    half = kron_triplets(sig, adag, cutoff + 1)
    return TimeDependentHamiltonian(layout, [(spec.zeta_ref, 0.0, *half)])


def ladder_from_conditions(
    params: RamanLadderParams,
    mode: Literal["upper-bounded", "sliced"],
    base: int,
) -> LadderSpec:
    """The ladder a resonant drive engineers, of the drive's kind.

    Step i+1 is carried by branch i+1, so w_i = zeta^(i+1)_{M+i} / zeta^(1)_M.
    """
    if mode == "upper-bounded" and base != 0:
        raise ValueError("upper-bounded ladders start at the vacuum (base 0)")
    derived = derive_couplings(params)
    if derived.zeta[0] == 0:
        raise ValueError("zeta_1 vanishes; no reference coupling")
    zeta_ref = derived.zeta_n(base, 1)
    weights = (1.0,) + tuple(
        derived.zeta_n(base + i, i + 1) / zeta_ref for i in range(1, params.n_branches)
    )
    return LadderSpec(base=base, weights=weights, zeta_ref=zeta_ref, kind=params.kind)


# ---------------------------------------------------------------------------
# resonance solving and regime checks

RESONANCE_DAMPING = 0.5
RESONANCE_MAX_ITER = 200
RESONANCE_REL_TOL = 1e-10  # of the smallest step coupling |zeta_j|
HIERARCHY_THRESHOLD = 1.0  # regime threshold of the |chi_eff|/|zeta| (RWA) ratios


def second_order_residuals(params: RamanLadderParams, base: int) -> list[float]:
    """Ladder-step detunings big_phi(base + j - 1, j) of the second-order shifts."""
    derived = derive_couplings(params)
    return [derived.big_phi(base + j, j + 1) for j in range(params.n_branches)]


def _nearest_zero_level(couplings: list[float], energies: list[float]) -> float:
    """Shift of a level at 0 coupled to levels at ``energies`` (exact diagonalization)."""
    k = len(couplings)
    h = np.zeros((k + 1, k + 1))
    h[0, 1:] = h[1:, 0] = couplings
    h[1:, 1:] = np.diag(energies)
    vals = np.linalg.eigvalsh(h)
    return float(vals[np.argmin(np.abs(vals))])


def dressed_residuals(params: RamanLadderParams, base: int) -> list[float]:
    """Ladder-step detunings E_cav(n+1) - E_las + theta_j with exact dressed shifts.

    Step j (1-based) runs at n = base + j - 1.  The cavity-dressed level
    with m photons couples with lambda_k sqrt(m) to aux_k at s_k Delta_k;
    the laser-dressed level couples with Omega_k to aux_k at s_k Delta~_k
    (s_k = ``params.signs[k]``).
    Each shift is the eigenvalue nearest zero of its (1+K)-level problem;
    to second order they are m chi_eff and varpi - omega_shift.  For JC
    the cavity-dressed level is g and the laser-dressed one e, for AJC the
    roles swap, which leaves the shifts unchanged.
    """
    return _laser_residuals(params, _cavity_shifts(params, base))


def _cavity_shifts(params: RamanLadderParams, base: int) -> list[float]:
    """E_cav(base + j) of every ladder step j = 1..K, which the laser detunings do not move."""
    energies = [s * delta for s, delta in zip(params.signs, params.deltas)]
    return [_nearest_zero_level([lam * np.sqrt(base + j) for lam in params.lambdas], energies)
            for j in range(1, params.n_branches + 1)]


def _laser_residuals(params: RamanLadderParams, cavity: list[float]) -> list[float]:
    """``dressed_residuals`` from the steps' cavity shifts: one laser problem."""
    laser = _nearest_zero_level(params.omegas,
                                [s * t for s, t in zip(params.signs, params.delta_tildes)])
    return [shift - laser + theta for shift, theta in zip(cavity, _theta(params))]


def _close_resonance(params: RamanLadderParams, base: int, residuals) -> RamanLadderParams:
    """Damped fixed point on the laser detunings until ``residuals`` vanish.

    Branch j moves theta_j = s_j (Delta~_j - Delta_j) by minus its residual,
    in one new drive per iteration.  It stops when every residual is at most
    RESONANCE_REL_TOL times the smallest step coupling |zeta_j|, or at the
    rounding of the level energies the residuals are read from (16 eps
    times the largest |Delta_k|, |Delta~_k|) where that is larger.
    """
    current = params
    res = residuals(current, base)
    for _ in range(RESONANCE_MAX_ITER):
        current = replace(current, delta_tildes=tuple(
            t - RESONANCE_DAMPING * s * r
            for t, s, r in zip(current.delta_tildes, current.signs, res)))
        res = residuals(current, base)
        energy = max(map(abs, current.deltas + current.delta_tildes))
        coupling = min(abs(z) for z in _zeta(current))
        if max(map(abs, res)) <= max(RESONANCE_REL_TOL * coupling, 16 * np.finfo(float).eps * energy):
            return current
    raise ResonanceError(
        f"no convergence after {RESONANCE_MAX_ITER} iterations "
        f"(residuals {res}); the parameter point is likely unphysical"
    )


def solve_resonance(params: RamanLadderParams, base: int) -> RamanLadderParams:
    """Adjust the K laser detunings so every ladder-step resonance closes.

    Branch j must satisfy big_phi(base + j - 1, j) = 0.  The required
    theta_j depends on the laser detunings through the laser level shifts,
    so the update is iterated (damped fixed point) to convergence.
    """
    return _close_resonance(params, base, second_order_residuals)


def solve_dressed_resonance(params: RamanLadderParams, base: int) -> RamanLadderParams:
    """Close the same ladder-step resonances with the exact dressed shifts.

    The second-order shifts leave each step detuned by fourth-order shifts as
    large as the step couplings at the published hierarchies, and diverge as
    a detuning goes to zero; this moves the laser detunings, from where they
    are given, until ``dressed_residuals`` vanish.  The cavity-dressed shifts
    do not move with them and are taken once; each residual evaluation
    solves the laser problem alone (35 on fig2a).
    """
    cavity = _cavity_shifts(params, base)
    return _close_resonance(params, base, lambda current, _: _laser_residuals(current, cavity))


def _ratio(big: float, small: float) -> float:
    return float("inf") if small == 0 else float(abs(big) / abs(small))


def check_regime(
    params: RamanLadderParams,
    base: int,
    n_bar: float = 0.0,
    threshold: float = 10.0,
) -> dict:
    """Validity-regime record for the adiabatic elimination and the RWA, one step per branch.

    Returns the summary's ``regime`` record: ``{"passed", "entries":
    [{"name", "ratio", "threshold", "pass"}], "residuals": [{"label",
    "value"}]}``, where an entry passes when its ratio reaches its
    threshold and the record when every entry does.  Both orientations of
    the elimination inequalities are reported (the primary one pairs
    lambda with Delta and Omega with Delta~; the ``alt`` entries pair them
    the other way round).  ``threshold`` governs the elimination ratios;
    the coupling-hierarchy (RWA) ratios are held to HIERARCHY_THRESHOLD,
    since their natural scale is weaker.  The residuals are the
    second-order ladder-step detunings big_phi, then the dressed ones.
    """
    derived = derive_couplings(params)
    steps = params.n_branches
    rows = []
    root = np.sqrt(n_bar + 1.0)
    for j, (lam, omega, delta, delta_tilde) in enumerate(
            zip(params.lambdas, params.omegas, params.deltas, params.delta_tildes), start=1):
        rows += [
            (f"Delta{j}/(sqrt(nbar+1)*lambda{j})", _ratio(delta, root * lam), threshold),
            (f"Dtilde{j}/Omega{j}", _ratio(delta_tilde, omega), threshold),
            (f"Dtilde{j}/(sqrt(nbar+1)*lambda{j}) [alt]", _ratio(delta_tilde, root * lam), threshold),
            (f"Delta{j}/Omega{j} [alt]", _ratio(delta, omega), threshold),
        ]
    for j in range(1, steps + 1):
        small = abs(derived.zeta_n(base + j, j))
        rows.append((f"|chi_eff|/|zeta^{j}_{base + j}|", _ratio(derived.chi_eff, small),
                     HIERARCHY_THRESHOLD))
    entries = [{"name": name, "ratio": ratio, "threshold": limit, "pass": ratio >= limit}
               for name, ratio, limit in rows]
    dressed = dressed_residuals(params, base)
    residuals = [{"label": f"big_phi({base + j},{j + 1})", "value": derived.big_phi(base + j, j + 1)}
                 for j in range(steps)]
    residuals += [{"label": f"dressed_phi({base + j},{j + 1})", "value": dressed[j]}
                  for j in range(steps)]
    return {"passed": all(e["pass"] for e in entries), "entries": entries, "residuals": residuals}


# ---------------------------------------------------------------------------
# closed-form validation curves

ANALYTIC_PRESETS = ("fig2a", "fig2b", "fig3a", "fig3b")


def analytic_probabilities(preset: str, x) -> dict[int, np.ndarray]:
    """Closed-form Fock probabilities of the engineered validation scenarios.

    ``x`` is the dimensionless interaction parameter (ladder reference
    coupling times time).  Probabilities of unlisted Fock indices vanish.
    """
    x = np.asarray(x, dtype=float)
    s2 = np.sin(x) ** 2
    c2 = np.cos(x) ** 2
    quarter = (1.0 + c2) / 4.0
    if preset == "fig2a":
        return {0: quarter, 1: s2 / 2.0, 2: quarter}
    if preset == "fig2b":
        return {3: quarter, 4: s2 / 2.0, 5: quarter}
    if preset == "fig3a":
        return {0: s2 / 4.0, 1: c2 / 2.0, 2: s2 / 2.0, 3: quarter}
    if preset == "fig3b":
        return {3: quarter, 4: s2 / 4.0, 5: s2 / 4.0, 6: quarter}
    raise ValueError(f"unknown analytic preset {preset!r}; have {ANALYTIC_PRESETS}")
