"""Propagation of state vectors and density operators, Liouvillians, steady states.

Schroedinger and Lindblad dynamics are integrated with an adaptive
embedded Runge-Kutta scheme (DOP853 by default).  The density operator is
propagated as its column-stacked vector under the sparse vectorized
Liouvillian and re-symmetrized only at the output samples.  Steady states
and the collision propagator work on the Liouvillian's invariant blocks:
every dissipator here is phase-covariant and every Hamiltonian conserves
an excitation number, so the generator splits exactly into small blocks
that never couple (Buca & Prosen, New J. Phys. 14, 073007 (2012)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .hilbert import (
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    LayoutError,
    StateVector,
)
from .raman import TimeDependentHamiltonian

LEAKAGE_LIMIT = 1e-6
TRACE_DRIFT_LIMIT = 1e-8
NEGATIVITY_LIMIT = 1e-7

# Internal safety factor on the solver tolerances: the global error
# accumulated over long grids must stay within the advertised drift
# bounds, which are stated against the *requested* tolerances.
_TOL_SAFETY = 0.02


class LeakageError(RuntimeError):
    """Truncation guard: population reached the top of the Fock cutoff."""


class IntegrationError(RuntimeError):
    """The ODE solver failed or violated its conservation contract."""


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space has dimension > 1."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"steady-state manifold has dimension {dimension}")


@dataclass(frozen=True)
class TimeGrid:
    """Output sampling grid; internal integration steps remain adaptive."""

    t_start: float
    t_end: float
    samples: int

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.samples)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = np.inf
    method: str = "DOP853"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class LindbladTerm:
    rate: float
    jump: ComplexOperator

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("dissipation rate must be non-negative")


@dataclass(frozen=True)
class LiouvillianMatrix:
    """d^2 x d^2 generator under the column-stacking convention vec(A rho B) = (B^T (x) A) vec(rho)."""

    entries: np.ndarray
    layout: HilbertLayout
    vectorization: str = "column-stacking"


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    leakage: float


def _top_two_population(state, layout: HilbertLayout) -> float:
    """Summed population of the two highest Fock levels of the field factor."""
    if "field" not in layout.labels:
        return 0.0
    dims = layout.dims
    axis = layout.axis("field")
    if isinstance(state, np.ndarray) and state.ndim == 1:
        probs = np.abs(state.reshape(dims)) ** 2
        pops = probs.sum(axis=tuple(i for i in range(len(dims)) if i != axis))
    else:
        mat = state if isinstance(state, np.ndarray) else state.entries
        diag = np.real(np.diag(mat)).reshape(dims)
        pops = diag.sum(axis=tuple(i for i in range(len(dims)) if i != axis))
    return float(pops[-1] + pops[-2])


def _hamiltonian_applier(H, layout: HilbertLayout):
    """Normalize the accepted Hamiltonian forms to a fast (t, vec) -> vec closure."""
    if H is None:
        return None
    if isinstance(H, TimeDependentHamiltonian):
        if H.layout != layout:
            raise LayoutError("Hamiltonian layout mismatch")
        return H.apply
    if isinstance(H, ComplexOperator):
        if H.layout != layout:
            raise LayoutError("Hamiltonian layout mismatch")
        mat = H.entries

        def apply_static(t, psi):
            return mat @ psi

        return apply_static
    if callable(H):

        def apply_callable(t, psi):
            op = H(t)
            mat = op.entries if isinstance(op, ComplexOperator) else np.asarray(op)
            return mat @ psi

        return apply_callable
    raise TypeError(f"unsupported Hamiltonian type {type(H)!r}")


def evolve_state(
    H,
    psi0: StateVector,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi (hbar = 1) over the sampling grid."""
    layout = psi0.layout
    apply_h = _hamiltonian_applier(H, layout)
    times = grid.times

    if apply_h is None:
        states = [psi0 for _ in times]
        return Trajectory(times, states, _top_two_population(psi0.amplitudes, layout))

    def rhs(t, psi):
        return -1j * apply_h(t, psi)

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        psi0.amplitudes.astype(complex),
        method=cfg.method,
        t_eval=times,
        rtol=_TOL_SAFETY * cfg.rel_tol,
        atol=_TOL_SAFETY * cfg.abs_tol,
        max_step=cfg.max_step,
    )
    if not sol.success:
        raise IntegrationError(f"state integration failed: {sol.message}")

    states = []
    leakage = 0.0
    for k in range(sol.y.shape[1]):
        amps = sol.y[:, k]
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 10.0 * cfg.rel_tol:
            raise IntegrationError(f"norm drift {abs(norm - 1.0)} exceeds 10*rel_tol")
        leak = _top_two_population(amps, layout)
        leakage = max(leakage, leak)
        if leak >= LEAKAGE_LIMIT:
            raise LeakageError(
                f"top-two Fock population {leak} >= {LEAKAGE_LIMIT}; raise the cutoff"
            )
        states.append(StateVector(layout, amps / norm))
    return Trajectory(times, states, leakage)


def evolve_density(
    H,
    terms: list[LindbladTerm],
    rho0: DensityOperator,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the Lindblad master equation for a static Hamiltonian (or None).

    rho_dot = -i[H, rho] + sum_k (rate_k/2)(2 J rho J^dag - J^dag J rho - rho J^dag J),
    integrated as L vec(rho) on the full column-stacked vector.
    """
    layout = rho0.layout
    d = layout.dim
    times = grid.times
    if H is None and not terms:
        return Trajectory(
            times, [rho0 for _ in times], _top_two_population(rho0, layout)
        )
    generator, gen_layout = _liouvillian_sparse(H, terms)
    if gen_layout != layout:
        raise LayoutError("generator and density operator layouts differ")

    def rhs(t, vec):
        return generator @ vec

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        rho0.entries.astype(complex).ravel(order="F"),
        method=cfg.method,
        t_eval=times,
        rtol=_TOL_SAFETY * cfg.rel_tol,
        atol=_TOL_SAFETY * cfg.abs_tol,
        max_step=cfg.max_step,
    )
    if not sol.success:
        raise IntegrationError(f"density integration failed: {sol.message}")

    states = []
    leakage = 0.0
    for k in range(sol.y.shape[1]):
        rho = sol.y[:, k].reshape((d, d), order="F")
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationError(f"trace drift {abs(tr - 1.0)} exceeds {TRACE_DRIFT_LIMIT}")
        lam_min = float(np.min(np.linalg.eigvalsh(rho)))
        if lam_min < -NEGATIVITY_LIMIT:
            raise IntegrationError(
                f"negative eigenvalue {lam_min}; truncation or step failure"
            )
        leak = _top_two_population(rho, layout)
        leakage = max(leakage, leak)
        if leak >= LEAKAGE_LIMIT:
            raise LeakageError(
                f"top-two Fock population {leak} >= {LEAKAGE_LIMIT}; raise the cutoff"
            )
        states.append(DensityOperator(layout, rho))
    return Trajectory(times, states, leakage)


def _liouvillian_sparse(H, terms: list[LindbladTerm]):
    """The vectorized generator as a CSR matrix, with the layout it acts on."""
    if H is None and not terms:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    if H is not None and not isinstance(H, ComplexOperator):
        raise TypeError("the Liouvillian requires a static Hamiltonian")
    layout = H.layout if H is not None else terms[0].jump.layout
    d = layout.dim
    eye = scipy.sparse.identity(d, dtype=complex, format="csr")
    kron = scipy.sparse.kron
    L = scipy.sparse.csr_matrix((d * d, d * d), dtype=complex)
    if H is not None:
        hm = scipy.sparse.csr_matrix(H.entries)
        L = L - 1j * (kron(eye, hm) - kron(hm.T, eye))
    for term in terms:
        if term.jump.layout != layout:
            raise LayoutError("jump operator layout mismatch")
        j = scipy.sparse.csr_matrix(term.jump.entries)
        jdj = j.conj().T @ j
        L = L + (term.rate / 2.0) * (
            2.0 * kron(j.conj(), j) - kron(eye, jdj) - kron(jdj.T, eye)
        )
    return L.tocsr(), layout


def liouvillian_matrix(H, terms: list[LindbladTerm]) -> LiouvillianMatrix:
    """Vectorized generator: L vec(rho) = vec(rho_dot), columns stacked."""
    mat, layout = _liouvillian_sparse(H, terms)
    return LiouvillianMatrix(mat.toarray(), layout)


def invariant_blocks(mat) -> list[np.ndarray]:
    """Index sets of the blocks of a generator that never couple to each other.

    These are the weakly connected components of the non-zero pattern of
    ``mat`` (dense or sparse), so ``mat`` has no entry between two blocks
    and its spectrum, null vectors and exponential split block by block.
    A generic dense generator is a single block.
    """
    count, labels = connected_components(
        scipy.sparse.csr_matrix(mat != 0), directed=True, connection="weak"
    )
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def steady_state(L: LiouvillianMatrix) -> DensityOperator:
    """Unique null-space density operator of a trace-preserving Liouvillian.

    Each invariant block is eigendecomposed on its own: |L|_2 is the
    largest block norm, and the null and degeneracy counts run over the
    union of the block spectra.
    """
    mat = L.entries
    d = L.layout.dim
    blocks = invariant_blocks(mat)
    subs = [mat[np.ix_(idx, idx)] for idx in blocks]
    norm = max(np.linalg.norm(sub, ord=2) for sub in subs)
    spectra = [scipy.linalg.eig(sub) for sub in subs]
    eigvals = np.concatenate([vals for vals, _ in spectra])
    order = np.argsort(np.abs(eigvals))
    lam_min = abs(eigvals[order[0]])
    if lam_min > 1e-9 * norm:
        raise IntegrationError(
            f"no null eigenvalue: smallest |lambda| = {lam_min}, |L| = {norm}"
        )
    if len(order) > 1 and abs(eigvals[order[1]]) <= 1e-9 * norm:
        dim = int(np.sum(np.abs(eigvals) <= 1e-9 * norm))
        raise DegenerateSteadyStateError(dim)
    # the block holding the null eigenvalue, which is unique past the checks
    b = int(np.argmin([np.min(np.abs(vals)) for vals, _ in spectra]))
    vals, vecs = spectra[b]
    k = int(np.argmin(np.abs(vals)))
    vec = vecs[:, k]
    if lam_min > 1e-12 * norm:
        # one inverse-iteration refinement about the located eigenvalue
        shifted = subs[b] - vals[k] * np.eye(len(vals))
        refined, *_ = np.linalg.lstsq(shifted, vec, rcond=None)
        n = np.linalg.norm(refined)
        if n > 0:
            vec = refined / n
    full = np.zeros(d * d, dtype=complex)
    full[blocks[b]] = vec
    rho = full.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise IntegrationError("null vector is traceless; not a steady state")
    return DensityOperator(L.layout, rho / tr)
