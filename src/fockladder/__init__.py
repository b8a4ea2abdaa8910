"""Engineered Fock-ladder interactions and dissipators for a single cavity mode.

Builds full and engineered (upper-bounded, sliced, selective) atom-field
Hamiltonians on truncated Fock spaces, propagates closed and open
dynamics, constructs engineered atomic-reservoir Liouvillians, and
reproduces the validation curves and steady-Fock-state figures through
the bundled scenario presets.
"""

from .hilbert import (
    ATOM,
    FIELD,
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    LayoutError,
    StateValidityError,
    StateVector,
    annihilation,
    atom_field_layout,
    atom_state,
    atomic_sigma,
    field_layout,
    field_superposition,
    fock_state,
    number_operator,
    product_state,
    thermal_state,
)
from .raman import (
    DerivedCouplings,
    LadderSpec,
    RamanLadderParams,
    ResonanceError,
    TimeDependentHamiltonian,
    analytic_probabilities,
    build_engineered_hamiltonian,
    build_full_hamiltonian,
    check_regime,
    derive_couplings,
    dressed_residuals,
    ladder_from_conditions,
    ladder_operator,
    second_order_residuals,
    solve_dressed_resonance,
    solve_resonance,
)
from .lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    IntegratorConfig,
    LeakageError,
    LindbladTerm,
    LiouvillianMatrix,
    TimeGrid,
    Trajectory,
    evolve_density,
    evolve_state,
    sparse_liouvillian,
    spectral_gap,
    steady_state,
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
from .scenarios import (
    RunResult,
    ScenarioConfig,
    ScenarioValidationError,
    collision_document,
    evaluate_check,
    list_presets,
    load_scenario,
    parse_config,
    preset_document,
    run_scenario,
    series_to_csv,
    summary_to_json,
    sweep,
)
from .observables import (
    ObservableSeries,
    VacuumDominatedError,
    detect_steady,
    fidelity_fock,
    fock_probabilities,
    mandel_q,
    mean_photon,
    photon_mandel_q,
    photon_mean,
    purity,
    trace_distance,
)

__version__ = "0.1.0"
