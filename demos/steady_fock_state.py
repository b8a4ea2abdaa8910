"""Dissipative preparation of a steady Fock state.

A three-step engineered pump (collective ladder jump at Gamma = 63 gamma)
competing with a weak thermal bath (n_bar = 0.05) drives the cavity from
a thermal state into |3>.  The script shows the fidelity and Mandel Q
transients, the exact null-space steady state, and how the achievable
fidelity grows with the pump rate.

Usage: python demos/steady_fock_state.py
"""

import numpy as np

from fockladder import (
    LadderSpec,
    ThermalBathParams,
    fidelity_fock,
    field_layout,
    load_scenario,
    mandel_q,
    run_scenario,
    sparse_liouvillian,
    steady_state,
    sweep,
    thermal_terms,
    ub_dissipator,
)


def main():
    config = load_scenario("fig4")
    print(f"== {config.description}\n")
    result = run_scenario(config)
    series = result.series

    print("   gamma*t     F3        Q")
    for t in (0.0, 0.05, 0.1, 0.2, 0.3, 1.0):
        idx = int(np.argmin(np.abs(series.times - t)))
        f3 = series.column("F3")[idx]
        q = series.column("Q")[idx]
        print(f"   {series.times[idx]:7.3f}  {f3:8.4f}  {q:8.4f}")

    steady = result.summary["steady"]
    print(f"\n   settled (fidelity window 0.05, eps 1e-3) at gamma*t = "
          f"{steady['detected_at']}")
    print(f"   null-space steady state: F3 = {steady['null_space_fidelity']:.4f}, "
          f"Q = {steady['null_space_mandel_q']:.4f}")

    # the pump wins against the bath roughly linearly in Gamma/gamma
    print("\n== steady-state fidelity vs pump rate (null space)")
    layout = field_layout(12)
    spec = LadderSpec(base=0, weights=(1.0, 1.0, 1.0), zeta_ref=1.0)
    bath = ThermalBathParams(gamma=1.0, n_bar=0.05)
    for big_gamma in (1.0, 10.0, 63.0, 200.0, 1000.0):
        terms = ub_dissipator(spec, big_gamma, layout) + thermal_terms(bath, layout)
        rho = steady_state(sparse_liouvillian(None, terms))
        print(f"   Gamma = {big_gamma:6.0f} gamma: F3 = {fidelity_fock(rho, 3):.4f}, "
              f"Q = {mandel_q(rho):.4f}")

    print("\n== same comparison through the sweep API (final-sample values)")
    rows = sweep(config, "parameters.Gamma", [10.0, 63.0, 200.0])
    for row in rows:
        print(f"   Gamma = {row['value']:6.0f} gamma: F3 = {row['F3']:.4f}")


if __name__ == "__main__":
    main()
