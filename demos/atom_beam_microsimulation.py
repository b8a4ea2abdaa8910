"""Atom-by-atom micro-simulation of the engineered reservoir.

The coarse-grained pump Gamma = r (zeta tau)^2 assumes each atom couples
weakly during its transit (|zeta| tau << 1).  This script crosses excited
atoms through the cavity one at a time (back-to-back windows, tau = 1/r)
and compares the resulting field trajectory with the coarse-grained
master equation, showing first-order convergence as zeta*tau shrinks.

Usage: python demos/atom_beam_microsimulation.py
"""

import numpy as np
import scipy.linalg

from fockladder import (
    AtomInjectionParams,
    DensityOperator,
    LadderSpec,
    ThermalBathParams,
    atom_field_layout,
    atom_state,
    build_engineered_hamiltonian,
    collision_model_evolve,
    fidelity_fock,
    field_layout,
    sparse_liouvillian,
    thermal_state,
    thermal_terms,
    trace_distance,
    ub_dissipator,
)

CUTOFF = 12
BIG_GAMMA = 63.0  # pump rate in gamma units
T_END = 0.3


def coarse_liouvillian():
    layout = field_layout(CUTOFF)
    spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
    terms = ub_dissipator(spec, BIG_GAMMA, layout)
    terms += thermal_terms(ThermalBathParams(gamma=1.0, n_bar=0.05), layout)
    L = sparse_liouvillian(None, terms)
    dense = np.zeros(L.shape, dtype=complex)
    dense[L.rows, L.cols] = L.values
    return dense


def main():
    L = coarse_liouvillian()
    layout = field_layout(CUTOFF)
    print("zeta*tau   atoms   max trace distance   final F3 (micro)")
    for zeta_tau in (0.35, 0.2, 0.1, 0.05):
        tau = zeta_tau**2 / BIG_GAMMA  # back-to-back windows: r = 1/tau
        zeta = zeta_tau / tau
        spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=zeta)
        h = build_engineered_hamiltonian(spec, atom_field_layout(2, CUTOFF))
        inj = AtomInjectionParams(tau=tau, atom_state=atom_state({"e": 1.0}, ("g", "e")))
        micro = collision_model_evolve(
            h, inj, ThermalBathParams(gamma=1.0, n_bar=0.05),
            thermal_state(0.05, CUTOFF), int(np.ceil(T_END / tau)),
        )
        # exact coarse-grained states at the collision time stamps
        prop = scipy.linalg.expm(L * tau)
        vec = thermal_state(0.05, CUTOFF).entries.ravel(order="F")
        dist = 0.0
        for state in micro.states:
            rho = vec.reshape(CUTOFF + 1, CUTOFF + 1, order="F")
            rho = 0.5 * (rho + rho.conj().T)
            dist = max(dist, trace_distance(state, DensityOperator(layout, rho)))
            vec = prop @ vec
        f3 = fidelity_fock(micro.states[-1], 3)
        print(f"  {zeta_tau:5.2f}   {len(micro.states) - 1:5d}   {dist:16.5f}   {f3:10.4f}")

    print("\nThe deviation shrinks with zeta*tau while the prepared fidelity")
    print("matches the coarse-grained prediction; the engineered dissipator")
    print("is a faithful summary of the repeated-interaction dynamics.")


if __name__ == "__main__":
    main()
