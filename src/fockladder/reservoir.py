"""Engineered atomic reservoirs: coarse-grained dissipators and the collision model.

A beam of two-level atoms crosses the cavity one at a time, each coupled
through an engineered ladder Hamiltonian for a transit time tau.  Coarse
graining yields a Lindblad pump with rate Gamma = r (|zeta| tau)^2; the
atom-by-atom micro-simulation is also available for consistency checks.
The pumps, like the thermal bath, are lists of ``LindbladTerm``s, so a
generator's terms are the sum of the lists.
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
    _split_triplets,
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


def gamma_from_injection(zeta: complex, inj: AtomInjectionParams) -> float:
    """Coarse-grained pump rate Gamma = r (|zeta| tau)^2."""
    return inj.rate * (abs(zeta) * inj.tau) ** 2


def ub_dissipator(spec: LadderSpec, gamma: float, layout: HilbertLayout) -> list[LindbladTerm]:
    """Single-jump pump: the one term A^dag at rate Gamma, on a field-only layout.

    Cross terms coupling neighbouring ladder steps are carried by the
    single collective jump operator.
    """
    if gamma < 0:
        raise ValueError("Gamma must be non-negative")
    adag = ladder_operator(spec, layout.dim_of("field") - 1)
    if layout.labels != ("field",):
        raise ValueError("ub_dissipator acts on a field-only layout")
    return [LindbladTerm(gamma, ComplexOperator(layout, adag.entries))]


def selective_dissipators(
    channels: list[tuple[int, float]], layout: HilbertLayout
) -> list[LindbladTerm]:
    """Independent one-step pumps |k+1><k| at rates Gamma_k (no cross terms), one term per channel."""
    ks = [k for k, _ in channels]
    if len(set(ks)) != len(ks):
        raise ValueError(f"duplicate ladder steps in channels {ks}")
    cutoff = layout.dim_of("field") - 1
    terms = []
    for k, gamma_k in channels:
        if not 0 <= k < cutoff:
            raise ValueError(f"ladder step {k} outside 0 <= k < cutoff = {cutoff}")
        if gamma_k < 0:
            raise ValueError("Gamma_k must be non-negative")
        mat = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        mat[k + 1, k] = 1.0
        terms.append(LindbladTerm(gamma_k, ComplexOperator(layout, mat)))
    return terms


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
    steps = _field_map(sparse_liouvillian(engineered_h, bath_joint), inj, field_layout_, vec0 != 0)
    times = inj.tau * np.arange(n_atoms + 1)
    return propagate_touched(steps, vec0, times, field_layout_, step_name="collisions")


def _field_map(L: LiouvillianMatrix, inj: AtomInjectionParams, layout: HilbertLayout,
               touched: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One collision, on the blocks of the field map that hold an entry of the mask ``touched``.

    attach (rho_f -> rho_atom (x) rho_f), exp(L tau) and the trace over the
    atom, contracted into a map on column-stacked field states of
    ``layout``.  Attach and trace are index maps, so each block of L with
    attached entries ``in`` adds step[out, in] * weight[in] at
    (field[out], field[in]) over its atom-diagonal entries ``out``, in the
    order of L's blocks.  Those field entries and that block are linked,
    and the components of the links are closed under the map.  Returned is
    the (index set, dense block) pair of each component that holds a
    ``touched`` entry, by its smallest entry, as
    ``lindblad.propagate_touched`` takes them; only their blocks of L, split
    from its triplets, are formed dense and exponentiated.
    """
    df = layout.dim
    amp = inj.atom_state.amplitudes
    rho_atom = np.outer(amp, amp.conj())
    dj = (2 * df) ** 2
    # joint vec index (b, m, a, n) holds <a,n| rho |b,m>; field vec index (m, n) holds <n| rho_f |m>
    b, m, a, n = np.unravel_index(np.arange(dj), (2, df, 2, df))
    field = m * df + n
    weight = rho_atom[a, b]
    attached = weight != 0
    parts = _split_triplets(L.rows, L.cols, dj)
    owner = np.empty(dj, dtype=int)
    for k, (idx, *_) in enumerate(parts):
        owner[idx] = k
    traced = (a == b) & np.isin(owner, owner[attached])
    # nodes: the df^2 field entries, then the blocks of L
    links = (np.r_[field[attached], df * df + owner[traced]],
             np.r_[df * df + owner[attached], field[traced]])
    position = np.empty(df * df, dtype=int)
    steps = []
    for comp in invariant_blocks(*links, df * df + len(parts)):
        idx = comp[comp < df * df]  # ascending, so the field entries come first
        if not touched[idx].any():
            continue
        position[idx] = np.arange(len(idx))
        block = np.zeros((len(idx), len(idx)), dtype=complex)
        for k in comp[len(idx):] - df * df:
            part, pick, rows, cols = parts[k]
            sub = np.zeros((len(part), len(part)), dtype=complex)
            sub[rows, cols] = L.values[pick]
            out, into = part[traced[part]], part[attached[part]]
            step = expm(sub * inj.tau)[np.ix_(traced[part], attached[part])] * weight[into]
            np.add.at(block, (position[field[out]][:, None], position[field[into]]), step)
        steps.append((idx, block))
    return steps
