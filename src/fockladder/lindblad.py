"""Propagation of state vectors and density operators, Liouvillians, steady states.

Every Hamiltonian here conserves an excitation number and every
dissipator is phase-covariant, so H(t) and the Liouvillian split exactly
into small invariant blocks that never couple (Buca & Prosen, New J.
Phys. 14, 073007 (2012)).

State vectors are propagated only in the blocks of H that the initial
state touches.  Each block moves to the diagonal frame that removes the
phase of every edge of a spanning tree of its coupling graph; what stays
time-dependent there are the residual frequencies of the other edges
(the slow detunings between Raman branches).  A block without residuals
is propagated exactly from one eigendecomposition; the others by
two-point Gauss fourth-order Magnus steps (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009)), with step doubling until the Richardson
error estimate meets the requested tolerance.

Density operators are propagated as the column-stacked vector under the
sparse vectorized Liouvillian, again only in the invariant blocks that
vec(rho0) touches.  The generator is static, so each touched block
advances exactly by one matrix exponential of one sample interval (Moler
& Van Loan, SIAM Rev. 45, 3 (2003)); a thermal or Fock start touches only
the block of the d populations, which makes this the population rate
equation.  The collision model of ``reservoir`` runs through the same
routine with its one-atom field map as the step.

A trajectory keeps only the touched entries of every sample, in one
array, and every trajectory, of states or of densities, returns through
one guard routine that checks that array in one batch: norm or trace
drift, negativity (density runs, over the connected components of the
touched entries' d x d pattern), then leakage.  No sample is
renormalized.  States are built, re-symmetrized, only when a sample is
read.  Steady states work on the same invariant blocks: a map on vec(rho)
is split once, by ``LiouvillianMatrix.blocks``, for every reader.

The block split and the spanning-tree search are plain numpy and Python,
so a Hamiltonian run loads none of scipy's submodules: ``scipy.sparse``
(the vectorized generators) and ``scipy.linalg`` (their exponentials)
load on first use, in density runs and the collision model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # scipy.linalg and scipy.sparse load on first use

from .hilbert import (
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    LayoutError,
    StateVector,
    marginal,
)
from .raman import TimeDependentHamiltonian

LEAKAGE_LIMIT = 1e-6
TRACE_DRIFT_LIMIT = 1e-8
NEGATIVITY_LIMIT = 1e-7

# Magnus step control of Hamiltonian runs: a block that would need more
# than _MAX_STEPS steps over the grid fails; step propagators are built
# _CHUNK_STEPS at a time to bound memory; differences between successive
# doublings below _ROUNDING_FLOOR count as converged.
_MAX_STEPS = 2**18
_CHUNK_STEPS = 256
_ROUNDING_FLOOR = 1e-13


class LeakageError(RuntimeError):
    """Truncation guard: population reached the top of the Fock cutoff."""


class IntegrationError(RuntimeError):
    """A propagator failed or violated its conservation contract."""


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
    """Integrator tolerance.

    ``rel_tol`` is the global error target of Hamiltonian runs: the
    largest amplitude error estimate the Magnus step doubling accepts.
    Their samples are not renormalized, and the norm-drift guard allows
    10 * rel_tol.  Density runs and the collision model are propagated
    exactly and do not read it; their trace-drift guard allows
    TRACE_DRIFT_LIMIT.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class LindbladTerm:
    rate: float
    jump: ComplexOperator

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("dissipation rate must be non-negative")


@dataclass(frozen=True)
class LiouvillianMatrix:
    """A d^2 x d^2 map on vec(rho): a Lindblad generator, or the collision model's one-atom map.

    Columns are stacked, vec(A rho B) = (B^T (x) A) vec(rho).  ``entries``
    is stored as a read-only CSR copy, so the split into invariant blocks
    is taken once, by ``blocks``, and cannot go stale.
    """

    entries: scipy.sparse.csr_matrix
    layout: HilbertLayout

    def __post_init__(self):
        mat = scipy.sparse.csr_matrix(self.entries, copy=True)
        mat.sum_duplicates()  # scipy canonicalizes in place, which read-only arrays refuse
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(index set, dense diagonal block entries[idx, idx]) of every invariant block."""
        blocks = invariant_blocks(self.entries)
        coo = self.entries.tocoo()
        coo.sum_duplicates()
        label, position = np.empty((2, self.entries.shape[0]), dtype=int)
        for b, idx in enumerate(blocks):
            label[idx] = b
            position[idx] = np.arange(len(idx))
        owner = label[coo.row]
        order = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(owner[order], np.arange(len(blocks) + 1))
        out = []
        for b, idx in enumerate(blocks):
            entries = order[bounds[b]:bounds[b + 1]]
            sub = np.zeros((len(idx), len(idx)), dtype=complex)
            sub[position[coo.row[entries]], position[coo.col[entries]]] = coo.data[entries]
            sub.setflags(write=False)
            out.append((idx, sub))
        return tuple(out)


@dataclass
class Trajectory:
    """Sampled states, stored as the entries a run touched.

    Row k of ``entries`` holds sample k at the flat positions ``index`` of
    psi (``density`` false) or of the column-stacked vec(rho) (``density``
    true); every other entry is exactly zero.  ``states`` reads the samples
    as ``StateVector``s or ``DensityOperator``s, each built when it is read.
    ``leakage`` is the largest top-two Fock population reached.

    ``steps`` and ``error_estimate`` describe the Magnus propagation of a
    Hamiltonian run: the steps taken over every block and doubling level,
    and the largest Richardson estimate accepted.  Both are zero when
    every block was propagated exactly, and for density runs.  ``blocks``
    holds the size of each invariant block a density run propagated.
    """

    times: np.ndarray
    layout: HilbertLayout
    index: np.ndarray
    entries: np.ndarray
    density: bool
    leakage: float = 0.0
    steps: int = 0
    error_estimate: float = 0.0
    blocks: tuple[int, ...] = ()

    @property
    def states(self) -> "_States":
        return _States(self)

    @cached_property
    def populations(self) -> np.ndarray:
        """Field populations P_n, one row per sample (atom summed out)."""
        d = self.layout.dim
        probs = np.zeros((len(self.times), d))
        if self.density:
            diagonal = self.index % (d + 1) == 0  # vec index i + i*d
            probs[:, self.index[diagonal] // (d + 1)] = self.entries[:, diagonal].real
        else:
            probs[:, self.index] = np.abs(self.entries) ** 2
        return marginal(probs, self.layout, "field")

    def purity(self) -> np.ndarray:
        """tr(rho^2) of every sample."""
        weight = np.sum(np.abs(self.entries) ** 2, axis=1)
        return weight if self.density else weight**2

    def state(self, k: int) -> StateVector | DensityOperator:
        """Sample k as a state vector or a (re-symmetrized) density operator."""
        d = self.layout.dim
        full = np.zeros(d * d if self.density else d, dtype=complex)
        full[self.index] = self.entries[k]
        if not self.density:
            return StateVector(self.layout, full)
        rho = full.reshape((d, d), order="F")
        return DensityOperator(self.layout, 0.5 * (rho + rho.conj().T))


class _States(Sequence):
    """Read-only sequence over a trajectory's samples, built on access."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return self._traj.state(range(len(self))[k])


def _half_terms(H, layout: HilbertLayout) -> list[tuple[float, np.ndarray]]:
    """(w_k, M_k) with H(t) = sum_k e^{i w_k t} M_k + H.c."""
    if isinstance(H, TimeDependentHamiltonian):
        terms = [(w, c * m) for c, w, m in H.terms]
    elif isinstance(H, ComplexOperator):
        if not H.is_hermitian():
            raise ValueError("the Hamiltonian must be Hermitian")
        terms = [(0.0, 0.5 * H.entries)]
    else:
        raise TypeError(f"unsupported Hamiltonian type {type(H)!r}")
    if H.layout != layout:
        raise LayoutError("Hamiltonian layout mismatch")
    return terms


class _FrameBlock:
    """One invariant block of H(t) in the frame psi = e^{-iEt} phi.

    The diagonal energies E cancel the phase of every edge of a BFS
    spanning tree of the block's coupling graph (E_r - E_s = -w).  In
    that frame i dphi/dt = G(t) phi with G(t) = static + X(t) + X(t)^dag,
    where X holds the entries whose residual w + E_r - E_s is non-zero:
    the frequencies left on edges outside the tree, or on a tree edge
    that carries a second term.
    """

    def __init__(self, terms, idx: np.ndarray):
        d = len(idx)
        rows, cols, vals, freqs = [], [], [], []
        for w, m in terms:
            sub = m[np.ix_(idx, idx)]
            r, c = np.nonzero(sub)
            rows.append(r)
            cols.append(c)
            vals.append(sub[r, c])
            freqs.append(np.full(len(r), float(w)))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        vals, freqs = np.concatenate(vals), np.concatenate(freqs)

        edge: dict = {}
        for r, c, w in zip(rows.tolist(), cols.tolist(), freqs.tolist()):
            if r != c:
                edge.setdefault((r, c), w)
                edge.setdefault((c, r), -w)
        # breadth first from level 0, visiting each level's out-neighbours
        # and then its in-neighbours in ascending order, which gives the
        # spanning tree (and energies) of csgraph's undirected search
        pairs = sorted(zip(rows.tolist(), cols.tolist()))
        neighbours: list[list[int]] = [[] for _ in range(d)]
        for r, c in pairs:
            neighbours[r].append(c)
        for c, r in sorted((c, r) for r, c in pairs):
            neighbours[c].append(r)
        energies = np.zeros(d)
        queue, seen = [0], {0}
        for r in queue:
            for s in neighbours[r]:
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
                    energies[s] = energies[r] - edge[(s, r)]

        residual = freqs + energies[rows] - energies[cols]
        rounding = 8 * d * np.finfo(float).eps * (
            np.abs(freqs) + np.abs(energies[rows]) + np.abs(energies[cols])
        )
        moving = np.abs(residual) > rounding
        half = np.zeros((d, d), dtype=complex)
        np.add.at(half, (rows[~moving], cols[~moving]), vals[~moving])
        self.dim = d
        self.energies = energies
        self.static = half + half.conj().T - np.diag(energies)
        self.residuals = residual[moving]
        self.amplitudes = vals[moving]
        self.basis = np.zeros((int(moving.sum()), d * d))
        self.basis[np.arange(len(self.basis)), rows[moving] * d + cols[moving]] = 1.0

    def generator(self, t: np.ndarray) -> np.ndarray:
        """G at each time in ``t``, shape (len(t), d, d)."""
        phases = np.exp(1j * np.multiply.outer(t, self.residuals)) * self.amplitudes
        x = (phases @ self.basis).reshape(len(t), self.dim, self.dim)
        return self.static + x + x.conj().transpose(0, 2, 1)


_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def _magnus_propagators(block: _FrameBlock, starts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(Omega) of one two-point Gauss Magnus-4 step from each start.

    Omega = -iK with K = h/2 (G1 + G2) + i sqrt(3)/12 h^2 [G1, G2] Hermitian
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
    """
    g1 = block.generator(starts + _GAUSS[0] * h)
    g2 = block.generator(starts + _GAUSS[1] * h)
    h = h[:, None, None]
    k = 0.5 * h * (g1 + g2) + (1j * np.sqrt(3.0) / 12.0) * h**2 * (g1 @ g2 - g2 @ g1)
    lam, vec = np.linalg.eigh(k)
    return (vec * np.exp(-1j * lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)


def _interval_propagators(block: _FrameBlock, times: np.ndarray, n: int) -> np.ndarray:
    """Product of n equal Magnus steps over each sample interval (n a power of 2).

    Steps are built _CHUNK_STEPS at a time and multiplied pairwise.
    """
    spans, origins = np.diff(times), times[:-1]
    d = block.dim
    out = np.empty((len(spans), d, d), dtype=complex)
    per = min(n, _CHUNK_STEPS)  # steps of one interval built at once
    group = max(1, _CHUNK_STEPS // n)  # intervals built at once
    for k0 in range(0, len(spans), group):
        k = slice(k0, k0 + group)
        h = spans[k] / n
        acc = None
        for j0 in range(0, n, per):
            starts = origins[k][:, None] + h[:, None] * np.arange(j0, j0 + per)
            props = _magnus_propagators(block, starts.ravel(), np.repeat(h, per))
            props = props.reshape(-1, per, d, d)
            while props.shape[1] > 1:
                props = props[:, 1::2] @ props[:, 0::2]
            acc = props[:, 0] if acc is None else props[:, 0] @ acc
        out[k] = acc
    return out


def _magnus_states(block: _FrameBlock, times: np.ndarray, phi0: np.ndarray, tol: float):
    """Frame states at ``times`` by step doubling: (states, steps taken, error estimate).

    Substeps per sample interval double from 1 until the Richardson
    estimate max|phi_2N - phi_N| / 15 meets ``tol`` while successive
    differences shrink (or sit at rounding level).
    """
    intervals = len(times) - 1
    n, steps, prev, diffs = 1, 0, None, []
    while intervals * n <= _MAX_STEPS:
        states = np.empty((len(times), block.dim), dtype=complex)
        states[0] = phi0
        for i, u in enumerate(_interval_propagators(block, times, n)):
            states[i + 1] = u @ states[i]
        steps += intervals * n
        if prev is not None:
            diff = float(np.max(np.abs(states - prev)))
            shrinking = (diffs and diff < diffs[-1]) or diff <= _ROUNDING_FLOOR
            if diff / 15.0 <= tol and shrinking:
                return states, steps, diff / 15.0
            diffs.append(diff)
        prev = states
        n *= 2
    raise IntegrationError(
        f"Magnus steps missed rel_tol {tol} within {_MAX_STEPS} steps per block "
        f"(last estimate {diffs[-1] / 15.0 if diffs else float('inf')})"
    )


def evolve_state(
    H,
    psi0: StateVector,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Propagate i dpsi/dt = H(t) psi (hbar = 1) over the sampling grid.

    ``H`` is a static Hermitian ``ComplexOperator`` or a
    ``TimeDependentHamiltonian``.  Only the invariant blocks of H that
    psi0 touches are propagated; the rest of the state stays exactly
    zero.  Blocks with no residual frequency in their frame are
    propagated exactly, the others by Magnus steps to ``cfg.rel_tol``.
    The trajectory goes through the guards of ``_guarded``, with a
    norm-drift limit of 10 * ``cfg.rel_tol``.
    """
    layout = psi0.layout
    terms = _half_terms(H, layout)
    if not np.isfinite(grid.t_end - grid.t_start):
        raise IntegrationError(f"sampling times {grid.t_start}..{grid.t_end} are not finite")
    times = grid.times
    psi = psi0.amplitudes.astype(complex)
    steps, error, touched, columns = 0, 0.0, [], []
    for idx in invariant_blocks(sum(np.abs(m) for _, m in terms)):
        if not np.any(psi[idx]):
            continue
        touched.append(idx)
        block = _FrameBlock(terms, idx)
        phi0 = np.exp(1j * block.energies * times[0]) * psi[idx]
        if len(block.residuals):
            phi, taken, estimate = _magnus_states(block, times, phi0, cfg.rel_tol)
            steps += taken
            error = max(error, estimate)
        else:
            lam, vec = np.linalg.eigh(block.static)
            coeffs = np.exp(-1j * np.outer(times - times[0], lam)) * (vec.conj().T @ phi0)
            phi = coeffs @ vec.T
        columns.append(np.exp(-1j * np.outer(times, block.energies)) * phi)
    traj = Trajectory(times, layout, np.concatenate(touched), np.hstack(columns), False,
                      steps=steps, error_estimate=error)
    return _guarded(traj, 10.0 * cfg.rel_tol)


def evolve_density(L: LiouvillianMatrix, rho0: DensityOperator, grid: TimeGrid) -> Trajectory:
    """Propagate vec(rho) under the static generator ``L`` over the sampling grid.

    ``L`` comes from ``sparse_liouvillian``:
    rho_dot = -i[H, rho] + sum_k (rate_k/2)(2 J rho J^dag - J^dag J rho - rho J^dag J).
    Only the invariant blocks of L that vec(rho0) touches are propagated,
    each by exp(L_b dt) once per sample interval; every other entry stays
    exactly zero.  The trace-drift, negativity and leakage guards run on
    every sample, and the first sample that fails one raises.
    """
    layout = rho0.layout
    if L.layout != layout:
        raise LayoutError("generator and density operator layouts differ")
    times = grid.times
    dt = times[1] - times[0]  # a linspace: one step propagator serves every interval
    vec0 = rho0.entries.astype(complex).ravel(order="F")
    steps = [(idx, scipy.linalg.expm(sub * dt)) for idx, sub in L.blocks if np.any(vec0[idx])]
    return propagate_touched(steps, vec0, times, layout)


def propagate_touched(steps: list[tuple[np.ndarray, np.ndarray]], vec0: np.ndarray,
                      times: np.ndarray, layout: HilbertLayout, step_name: str = "") -> Trajectory:
    """Apply one step map to the touched entries of vec(rho0) once per sample, then guard.

    ``steps`` holds an (index set, step block) pair for each invariant
    block of the step map that vec(rho0) touches; the step is their block
    diagonal on the concatenated indices.  The trajectory goes through the
    guards of ``_guarded`` with TRACE_DRIFT_LIMIT; ``step_name`` says what
    one step is (the collision model passes "collisions"), so an error can
    say how many steps were taken.
    """
    index = np.concatenate([idx for idx, _ in steps])
    step = scipy.linalg.block_diag(*(block for _, block in steps))
    entries = np.empty((len(times), len(index)), dtype=complex)
    entries[0] = vec0[index]
    for k in range(1, len(times)):
        np.dot(step, entries[k - 1], out=entries[k])
    traj = Trajectory(times, layout, index, entries, True,
                      blocks=tuple(len(idx) for idx, _ in steps))
    return _guarded(traj, TRACE_DRIFT_LIMIT, step_name)


def _guarded(traj: Trajectory, drift_limit: float, step_name: str = "") -> Trajectory:
    """Check every sample of ``traj``, record its leakage and return it.

    The checks run in one batch, in this order: a non-finite entry or a
    drift of the norm (state runs) or trace (density runs) above
    ``drift_limit``; an eigenvalue below -NEGATIVITY_LIMIT (density runs);
    a top-two Fock population at or above LEAKAGE_LIMIT (0 on a layout
    without a field factor).  The first failing sample raises; with a
    ``step_name`` the error says how many steps preceded it.
    """
    entries = traj.entries
    finite = np.isfinite(entries).all(axis=1)
    safe = np.where(finite[:, None], entries, 0.0)  # eigvalsh needs finite entries
    if traj.density:
        measure, d = "trace", traj.layout.dim
        rows, cols = traj.index % d, traj.index // d
        drift = np.abs(safe[:, rows == cols].real.sum(axis=1) - 1.0)
        lam_min = _lowest_eigenvalues(safe, rows, cols, d)
    else:
        measure = "norm"
        drift = np.abs(np.linalg.norm(safe, axis=1) - 1.0)
        lam_min = np.zeros(len(entries))
    drift = np.where(finite, drift, np.nan)
    if "field" in traj.layout.labels:
        leak = traj.populations[:, -1] + traj.populations[:, -2]
    else:
        leak = np.zeros(len(entries))
    traj.leakage = float(np.max(leak))
    drifting = ~(drift <= drift_limit)
    failing = drifting | (lam_min < -NEGATIVITY_LIMIT) | (leak >= LEAKAGE_LIMIT)
    if np.any(failing):
        k = int(np.argmax(failing))
        where = f" after {k} {step_name}" if step_name else ""
        if drifting[k]:
            raise IntegrationError(f"{measure} drift {drift[k]} exceeds {drift_limit}{where}")
        if lam_min[k] < -NEGATIVITY_LIMIT:
            raise IntegrationError(
                f"negative eigenvalue {lam_min[k]}{where}; truncation or step failure"
            )
        raise LeakageError(
            f"top-two Fock population {leak[k]} >= {LEAKAGE_LIMIT}{where}; raise the cutoff"
        )
    return traj


def _lowest_eigenvalues(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        d: int) -> np.ndarray:
    """Lowest eigenvalue of each sampled rho from its entries at (rows, cols).

    rho splits along the connected components of the d x d pattern of
    those entries; a component of one level is a population, and the
    others take a stacked ``eigvalsh`` of their Hermitian part.
    """
    pattern = np.zeros((d, d), dtype=bool)
    pattern[rows, cols] = True
    lam_min = np.full(len(entries), np.inf)
    for comp in invariant_blocks(pattern):  # each component's levels ascend
        inside = np.isin(rows, comp)
        if len(comp) == 1:
            low = entries[:, inside].real.min(axis=1, initial=np.inf)
        else:
            sub = np.zeros((len(entries), len(comp), len(comp)), dtype=complex)
            sub[:, np.searchsorted(comp, rows[inside]),
                np.searchsorted(comp, cols[inside])] = entries[:, inside]
            low = np.linalg.eigvalsh(0.5 * (sub + sub.conj().transpose(0, 2, 1))).min(axis=1)
        lam_min = np.minimum(lam_min, low)
    return lam_min


def _kron_triplets(a: np.ndarray, b: np.ndarray, scale: complex):
    """COO (rows, cols, values) of scale * kron(a, b) for square arrays a, b."""
    ar, ac = np.nonzero(a)
    br, bc = np.nonzero(b)
    n = b.shape[0]
    return ((ar[:, None] * n + br).ravel(), (ac[:, None] * n + bc).ravel(),
            (scale * a[ar, ac][:, None] * b[br, bc]).ravel())


def sparse_liouvillian(H, terms: list[LindbladTerm]) -> LiouvillianMatrix:
    """Vectorized generator L vec(rho) = vec(rho_dot), columns stacked, as a CSR matrix.

    ``H`` is a static ``ComplexOperator`` or None.  The Kronecker pieces
    are gathered as COO triplets and summed once into CSR.
    """
    if H is None and not terms:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    if H is not None and not isinstance(H, ComplexOperator):
        raise TypeError("the Liouvillian requires a static Hamiltonian")
    layout = H.layout if H is not None else terms[0].jump.layout
    d = layout.dim
    eye = np.eye(d)
    pieces = []
    if H is not None:
        h = H.entries
        pieces += [_kron_triplets(eye, h, -1j), _kron_triplets(h.T, eye, 1j)]
    for term in terms:
        if term.jump.layout != layout:
            raise LayoutError("jump operator layout mismatch")
        j = term.jump.entries
        jdj = j.conj().T @ j
        half = term.rate / 2.0
        pieces += [_kron_triplets(j.conj(), j, 2.0 * half),
                   _kron_triplets(eye, jdj, -half), _kron_triplets(jdj.T, eye, -half)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*pieces))
    L = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    L.eliminate_zeros()
    return LiouvillianMatrix(L, layout)


def invariant_blocks(mat) -> list[np.ndarray]:
    """Index sets of the blocks of a generator that never couple to each other.

    These are the weakly connected components of the non-zero pattern of
    ``mat`` (a dense array or a scipy sparse matrix), so ``mat`` has no
    entry between two blocks and its spectrum, null vectors and exponential
    split block by block.  A generic dense generator is a single block.
    Blocks come in the order of their smallest index, each in ascending
    order.  Every index carries a label, at first itself: each round hooks
    the root label of every edge's end onto the smaller of its two end
    labels and then jumps pointers until every label is a root, so at the
    fixed point each index is labelled by the smallest index of its block.
    """
    rows, cols = (mat != 0).nonzero()
    label = np.arange(mat.shape[0])
    while True:
        low = np.minimum(label[rows], label[cols])
        hooked = label.copy()
        np.minimum.at(hooked, label[rows], low)
        np.minimum.at(hooked, label[cols], low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def steady_state(L: LiouvillianMatrix) -> DensityOperator:
    """Unique null-space density operator of a trace-preserving Liouvillian.

    Each invariant block of ``L.blocks`` is eigendecomposed on its own:
    |L|_2 is the largest block norm, and the null and degeneracy counts
    run over the union of the block spectra.
    """
    d = L.layout.dim
    blocks, subs = zip(*L.blocks)
    norm = max(np.linalg.norm(sub, ord=2) for sub in subs)
    spectra = [np.linalg.eigvals(sub) for sub in subs]
    eigvals = np.concatenate(spectra)
    order = np.argsort(np.abs(eigvals))
    lam_min = abs(eigvals[order[0]])
    if lam_min > 1e-9 * norm:
        raise IntegrationError(
            f"no null eigenvalue: smallest |lambda| = {lam_min}, |L| = {norm}"
        )
    if len(order) > 1 and abs(eigvals[order[1]]) <= 1e-9 * norm:
        dim = int(np.sum(np.abs(eigvals) <= 1e-9 * norm))
        raise DegenerateSteadyStateError(dim)
    # eigenvectors only in the block holding the null eigenvalue, which is
    # unique past the checks
    b = int(np.argmin([np.min(np.abs(vals)) for vals in spectra]))
    vals, vecs = np.linalg.eig(subs[b])
    k = int(np.argmin(np.abs(vals)))
    full = np.zeros(d * d, dtype=complex)
    full[blocks[b]] = vecs[:, k]
    rho = full.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise IntegrationError("null vector is traceless; not a steady state")
    return DensityOperator(L.layout, rho / tr)
