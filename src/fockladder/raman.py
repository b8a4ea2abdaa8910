"""Raman interaction models for engineered atom-field couplings.

Builds the full time-dependent multi-branch Raman Hamiltonians, derives
the second-order coupling parameters obtained after adiabatic elimination
of the auxiliary levels, constructs the engineered weighted-ladder
Hamiltonians (upper-bounded and sliced), solves the resonance
conditions for the laser detunings, and checks the validity regime.

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
class RamanBranch:
    """One Raman branch: a cavity leg and a laser leg through one auxiliary level.

    ``sign`` is the sign of the detuning exponents e^{i * sign * Delta * t}
    multiplying the cavity and the laser term alike.
    """

    lam: float
    omega: float
    delta: float
    delta_tilde: float
    sign: int
    cavity_transition: tuple[str, str]
    laser_transition: tuple[str, str]

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("cavity coupling lambda must be positive")
        if self.omega < 0:
            raise ValueError("laser coupling omega must be non-negative")
        if self.delta == 0 or self.delta_tilde == 0:
            raise ValueError("detunings must be nonzero")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class RamanLadderParams:
    """K-branch Raman configuration (K = 2, 3 or 4 auxiliary levels)."""

    branches: tuple[RamanBranch, ...]
    atom_levels: tuple[str, ...]
    kind: Kind = "JC"

    def __post_init__(self):
        k = len(self.branches)
        if k not in (2, 3, 4):
            raise ValueError(f"need 2, 3 or 4 branches, got {k}")
        if len(self.atom_levels) != 2 + k:
            raise ValueError("atom_levels must be (g, e) plus one label per branch")

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def raman_params(
    lambdas,
    omegas,
    deltas,
    delta_tildes,
    kind: Kind = "JC",
) -> RamanLadderParams:
    """Build a standard K-branch configuration.

    Branch 1 carries negative detuning exponents, all further branches
    positive ones.  For JC the cavity drives g <-> aux_j and the laser
    drives e <-> aux_j; AJC interchanges the two roles.
    """
    k = len(lambdas)
    if not (len(omegas) == len(deltas) == len(delta_tildes) == k):
        raise ValueError("parameter lists must have equal length")
    aux = AUX_LABELS[:k]
    branches = []
    for j in range(k):
        cavity_lower, laser_lower = ("g", "e") if kind == "JC" else ("e", "g")
        branches.append(
            RamanBranch(
                lam=float(lambdas[j]),
                omega=float(omegas[j]),
                delta=float(deltas[j]),
                delta_tilde=float(delta_tildes[j]),
                sign=-1 if j == 0 else 1,
                cavity_transition=(aux[j], cavity_lower),
                laser_transition=(aux[j], laser_lower),
            )
        )
    return RamanLadderParams(tuple(branches), ("g", "e") + aux, kind)


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
    b = params.branches
    chi = b[0].lam ** 2 / b[0].delta - b[1].lam ** 2 / b[1].delta
    varpi = b[0].omega ** 2 / b[0].delta_tilde - b[1].omega ** 2 / b[1].delta_tilde
    chi_tilde = sum(br.lam ** 2 / br.delta for br in b[2:])
    omega_shift = sum(br.omega ** 2 / br.delta_tilde for br in b[2:])
    zeta = tuple(
        complex((br.lam * br.omega / 2.0) * (1.0 / br.delta + 1.0 / br.delta_tilde))
        for br in b
    )
    theta = tuple(br.sign * (br.delta_tilde - br.delta) for br in b)
    return DerivedCouplings(chi, chi_tilde, varpi, omega_shift, zeta, theta)


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
    terms = []
    for br in params.branches:
        sig_c = nonzero_triplets(atomic_sigma(*br.cavity_transition, params.atom_levels).entries)
        sig_l = nonzero_triplets(atomic_sigma(*br.laser_transition, params.atom_levels).entries)
        terms.append((br.lam, br.sign * br.delta, *kron_triplets(sig_c, a, n)))
        terms.append((br.omega, br.sign * br.delta_tilde, *kron_triplets(sig_l, eye, n)))
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
    derived: DerivedCouplings,
    mode: Literal["upper-bounded", "sliced"],
    base: int,
    steps: int,
) -> LadderSpec:
    """Ladder weights selected by the resonance conditions.

    Step i+1 is carried by branch i+1, so w_i = zeta^(i+1)_{M+i} / zeta^(1)_M.
    """
    if steps != len(derived.zeta):
        raise ValueError(f"steps {steps} != number of branches {len(derived.zeta)}")
    if mode == "upper-bounded" and base != 0:
        raise ValueError("upper-bounded ladders start at the vacuum (base 0)")
    if derived.zeta[0] == 0:
        raise ValueError("zeta_1 vanishes; no reference coupling")
    zeta_ref = derived.zeta_n(base, 1)
    weights = (1.0,) + tuple(
        derived.zeta_n(base + i, i + 1) / zeta_ref for i in range(1, steps)
    )
    return LadderSpec(base=base, weights=weights, zeta_ref=zeta_ref)


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
    (s_k the branch's detuning sign).
    Each shift is the eigenvalue nearest zero of its (1+K)-level problem;
    to second order they are m chi_eff and varpi - omega_shift.  For JC
    the cavity-dressed level is g and the laser-dressed one e, for AJC the
    roles swap, which leaves the shifts unchanged.
    """
    return _laser_residuals(params, _cavity_shifts(params, base))


def _cavity_shifts(params: RamanLadderParams, base: int) -> list[float]:
    """E_cav(base + j) of every ladder step j = 1..K, which the laser detunings do not move."""
    return [_nearest_zero_level([br.lam * np.sqrt(base + j) for br in params.branches],
                                [br.sign * br.delta for br in params.branches])
            for j in range(1, params.n_branches + 1)]


def _laser_residuals(params: RamanLadderParams, cavity: list[float]) -> list[float]:
    """``dressed_residuals`` from the steps' cavity shifts: one laser problem."""
    b = params.branches
    laser = _nearest_zero_level([br.omega for br in b], [br.sign * br.delta_tilde for br in b])
    return [shift - laser + theta for shift, theta in zip(cavity, derive_couplings(params).theta)]


def _close_resonance(params: RamanLadderParams, base: int, residuals) -> RamanLadderParams:
    """Damped fixed point on the laser detunings until ``residuals`` vanish.

    Branch j moves theta_j = s_j (Delta~_j - Delta_j) by minus its residual,
    s_j being the branch's detuning sign.  It stops when every residual is
    at most RESONANCE_REL_TOL times the smallest step coupling |zeta_j|, or
    at the rounding of the level energies the residuals are read from
    (16 eps times the largest |Delta_k|, |Delta~_k|) where that is larger.
    """
    current = params
    res = residuals(current, base)
    for _ in range(RESONANCE_MAX_ITER):
        branches = tuple(
            replace(br, delta_tilde=br.delta_tilde - RESONANCE_DAMPING * br.sign * r)
            for br, r in zip(current.branches, res)
        )
        current = replace(current, branches=branches)
        res = residuals(current, base)
        energy = max(abs(x) for br in branches for x in (br.delta, br.delta_tilde))
        coupling = min(abs(z) for z in derive_couplings(current).zeta)
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


@dataclass(frozen=True)
class RegimeEntry:
    name: str
    ratio: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.ratio >= self.threshold


@dataclass(frozen=True)
class RegimeReport:
    entries: tuple[RegimeEntry, ...]
    residuals: tuple[tuple[str, float], ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {"name": e.name, "ratio": e.ratio, "threshold": e.threshold, "pass": e.ok}
                for e in self.entries
            ],
            "residuals": [{"label": k, "value": v} for k, v in self.residuals],
        }


def _ratio(big: float, small: float) -> float:
    return float("inf") if small == 0 else float(abs(big) / abs(small))


def check_regime(
    params: RamanLadderParams,
    derived: DerivedCouplings,
    base: int,
    steps: int,
    n_bar: float = 0.0,
    threshold: float = 10.0,
) -> RegimeReport:
    """Validity-regime report for the adiabatic elimination and the RWA.

    Both orientations of the elimination inequalities are reported (the
    primary one pairs lambda with Delta and Omega with Delta~; the ``alt``
    entries pair them the other way round).  ``threshold`` governs the
    elimination ratios; the coupling-hierarchy (RWA) ratios are held to
    HIERARCHY_THRESHOLD, since their natural scale is weaker.
    """
    entries = []
    root = np.sqrt(n_bar + 1.0)
    for j, br in enumerate(params.branches, start=1):
        entries.append(
            RegimeEntry(f"Delta{j}/(sqrt(nbar+1)*lambda{j})", _ratio(br.delta, root * br.lam), threshold)
        )
        entries.append(RegimeEntry(f"Dtilde{j}/Omega{j}", _ratio(br.delta_tilde, br.omega), threshold))
        entries.append(
            RegimeEntry(
                f"Dtilde{j}/(sqrt(nbar+1)*lambda{j}) [alt]",
                _ratio(br.delta_tilde, root * br.lam),
                threshold,
            )
        )
        entries.append(RegimeEntry(f"Delta{j}/Omega{j} [alt]", _ratio(br.delta, br.omega), threshold))
    for j in range(1, steps + 1):
        small = abs(derived.zeta_n(base + j, j))
        entries.append(
            RegimeEntry(
                f"|chi_eff|/|zeta^{j}_{base + j}|",
                _ratio(derived.chi_eff, small),
                HIERARCHY_THRESHOLD,
            )
        )
    dressed = dressed_residuals(params, base)
    residuals = tuple(
        (f"big_phi({base + j},{j + 1})", derived.big_phi(base + j, j + 1))
        for j in range(steps)
    ) + tuple((f"dressed_phi({base + j},{j + 1})", dressed[j]) for j in range(steps))
    return RegimeReport(tuple(entries), residuals)


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
