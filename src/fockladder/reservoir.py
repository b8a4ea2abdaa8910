"""Engineered atomic reservoirs: coarse-grained dissipators and the collision model.

A beam of two-level atoms crosses the cavity one at a time, each coupled
through an engineered ladder Hamiltonian for a transit time tau.  Coarse
graining yields a Lindblad pump with rate Gamma = r (|zeta| tau)^2; the
atom-by-atom micro-simulation is also available for consistency checks.
One collision is contracted into a map on the field state, and the atoms
are applied through the density runs' block propagator
(``lindblad.propagate_touched``), with its guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Only the span tracer of benchmarks/spans.py reads this name: it wraps
# scipy.linalg.expm as seen from here.  The library itself calls
# lindblad.expm, and the bare package loads no submodule.  The import goes
# once the tracer binds the exponential by a library name.
import scipy

from .hilbert import (
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    StateVector,
    annihilation,
    atom_field_layout,
)
from .lindblad import (
    LindbladTerm,
    LiouvillianMatrix,
    Trajectory,
    expm,
    invariant_blocks,
    propagate_touched,
    sparse_liouvillian,
)
from .raman import LadderSpec, TimeDependentHamiltonian, ladder_operator


@dataclass(frozen=True)
class AtomInjectionParams:
    """Atom beam parameters: transit time tau and reset state.

    Interaction windows are back to back, so the arrival rate is r = 1/tau.
    """

    tau: float
    atom_state: StateVector

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if self.atom_state.layout.dims != (2,):
            raise ValueError("atoms are two-level (g, e)")

    @property
    def rate(self) -> float:
        return 1.0 / self.tau


@dataclass(frozen=True)
class ThermalBathParams:
    gamma: float
    n_bar: float

    def __post_init__(self):
        if self.gamma < 0 or self.n_bar < 0:
            raise ValueError("gamma and n_bar must be non-negative")


@dataclass(frozen=True)
class EngineeredDissipator:
    terms: tuple[LindbladTerm, ...]
    gamma_eff: tuple[float, ...]


def gamma_from_injection(zeta: complex, inj: AtomInjectionParams) -> float:
    """Coarse-grained pump rate Gamma = r (|zeta| tau)^2."""
    return inj.rate * (abs(zeta) * inj.tau) ** 2


def ub_dissipator(spec: LadderSpec, gamma: float, layout: HilbertLayout) -> EngineeredDissipator:
    """Single-jump pump with the full ladder operator A^dag at rate Gamma.

    Cross terms coupling neighbouring ladder steps are carried by the
    single collective jump operator.
    """
    if gamma < 0:
        raise ValueError("Gamma must be non-negative")
    cutoff = layout.dim_of("field") - 1
    adag = ladder_operator(spec, cutoff)
    jump = ComplexOperator(layout, adag.entries) if layout.labels == ("field",) else None
    if jump is None:
        raise ValueError("ub_dissipator acts on a field-only layout")
    return EngineeredDissipator(
        terms=(LindbladTerm(gamma, jump),),
        gamma_eff=(gamma,),
    )


def selective_dissipators(
    channels: list[tuple[int, float]], layout: HilbertLayout
) -> EngineeredDissipator:
    """Independent one-step pumps |k+1><k| at rates Gamma_k (no cross terms)."""
    ks = [k for k, _ in channels]
    if len(set(ks)) != len(ks):
        raise ValueError(f"duplicate ladder steps in channels {ks}")
    cutoff = layout.dim_of("field") - 1
    terms = []
    rates = []
    for k, gamma_k in channels:
        if not 0 <= k < cutoff:
            raise ValueError(f"ladder step {k} outside 0 <= k < cutoff = {cutoff}")
        if gamma_k < 0:
            raise ValueError("Gamma_k must be non-negative")
        mat = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        mat[k + 1, k] = 1.0
        terms.append(LindbladTerm(gamma_k, ComplexOperator(layout, mat)))
        rates.append(gamma_k)
    return EngineeredDissipator(tuple(terms), tuple(rates))


def thermal_terms(bath: ThermalBathParams, layout: HilbertLayout) -> list[LindbladTerm]:
    """Natural-environment dissipator: decay at gamma(1+nbar), pumping at gamma*nbar."""
    cutoff = layout.dim_of("field") - 1
    a = annihilation(cutoff)
    down = ComplexOperator(layout, a.entries)
    terms = [LindbladTerm(bath.gamma * (1.0 + bath.n_bar), down)]
    if bath.n_bar > 0:
        terms.append(LindbladTerm(bath.gamma * bath.n_bar, down.dag()))
    return terms


def collision_model_evolve(
    engineered_h: TimeDependentHamiltonian,
    inj: AtomInjectionParams,
    bath: ThermalBathParams,
    rho0_field: DensityOperator,
    n_atoms: int,
) -> Trajectory:
    """Atom-by-atom micro-simulation of the engineered reservoir.

    Interaction windows of length tau tile time back to back (tau = 1/r);
    the field bath acts during the windows.  Each window attaches a fresh
    atom in the injection state, evolves the joint state under the
    engineered Hamiltonian plus bath, and traces the atom out.  These
    three steps are contracted once into a map on the field state, built
    only on the invariant blocks of the map that vec(rho0) touches (the d
    populations for a thermal or Fock field and a g or e atom), and each
    atom applies it there; every other entry stays exactly zero.  The map
    preserves trace and Hermiticity, so states are neither renormalized
    nor symmetrized per atom; the trace-drift, negativity and leakage
    guards of a density run check every atom, and their errors name the
    atom count.
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    field_layout_ = rho0_field.layout
    cutoff = field_layout_.dim_of("field") - 1
    joint = atom_field_layout(2, cutoff)
    if engineered_h.layout != joint:
        raise ValueError("engineered Hamiltonian must act on the 2-level atom x field layout")

    eye2 = np.eye(2, dtype=complex)
    bath_joint = [
        LindbladTerm(t.rate, ComplexOperator(joint, np.kron(eye2, t.jump.entries)))
        for t in thermal_terms(bath, field_layout_)
    ]
    vec0 = rho0_field.entries.astype(complex).ravel(order="F")
    field_map = _field_map(sparse_liouvillian(engineered_h, bath_joint), inj, field_layout_,
                           np.flatnonzero(vec0))
    steps = [(idx, sub) for idx, sub in field_map.blocks if np.any(vec0[idx])]
    times = inj.tau * np.arange(n_atoms + 1)
    return propagate_touched(steps, vec0, times, field_layout_, step_name="collisions")


def _field_map(L: LiouvillianMatrix, inj: AtomInjectionParams, layout: HilbertLayout,
               touched: np.ndarray) -> LiouvillianMatrix:
    """One collision as a map on column-stacked field states of ``layout``.

    attach (rho_f -> rho_atom (x) rho_f), exp(L tau) and the trace over the
    atom contracted into one (df^2, df^2) map.  Attach and trace are index
    maps, so the contraction runs block by block: each used block of L
    adds step[out, in] * weight[in] at (field[out], field[in]), over its
    attached entries ``in`` and its atom-diagonal entries ``out``.

    The map is exact on the invariant blocks it shares with the field
    entries ``touched``, and zero in every column outside them.  A field
    entry links to the blocks of L it is attached into, and a block of L
    to the field entries traced out of it; the components of these links
    that hold ``touched`` are closed under the map, and only the blocks of
    L that their field entries are attached into are exponentiated.
    """
    df = layout.dim
    amp = inj.atom_state.amplitudes
    rho_atom = np.outer(amp, amp.conj())
    dj = (2 * df) ** 2
    # joint vec index (b, m, a, n) holds <a,n| rho |b,m>; field vec index (m, n) holds <n| rho_f |m>
    b, m, a, n = np.unravel_index(np.arange(dj), (2, df, 2, df))
    field = m * df + n
    weight = rho_atom[a, b]
    same = a == b
    owner = np.empty(dj, dtype=int)
    for k, (idx, _) in enumerate(L.blocks):
        owner[idx] = k
    # nodes: the df^2 field entries, then the blocks of L
    links = (np.r_[field[weight != 0], df * df + owner[same]],
             np.r_[df * df + owner[weight != 0], field[same]])
    component = np.empty(df * df + len(L.blocks), dtype=int)
    for k, comp in enumerate(invariant_blocks(*links, len(component))):
        component[comp] = k
    kept = (weight != 0) & np.isin(component[field], component[touched])
    rows, cols, values = [], [], []
    for k in np.unique(owner[kept]):
        idx, sub = L.blocks[k]
        out, into = idx[same[idx]], idx[kept[idx]]
        step = expm(sub * inj.tau)[np.ix_(same[idx], kept[idx])] * weight[into]
        rows.append(np.repeat(field[out], len(into)))
        cols.append(np.tile(field[into], len(out)))
        values.append(step.ravel())
    return LiouvillianMatrix(np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(values), layout)
