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
three-point Gauss sixth-order Magnus steps (Blanes, Casas & Ros, BIT 40,
434 (2000); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), with
step doubling until the Richardson error estimate meets the requested
tolerance.  Step stacks are laid out (d, d, steps), batch last: a matrix
product is one ``einsum`` over the stack, every nested
commutator of anti-Hermitian terms takes one product, [A, B] = AB - (AB)^dag,
and exp(Omega) is taken by ``expm``, so a step calls no LAPACK routine.
The sampling grid is a linspace, so all steps of a doubling level have
one length, and a step depends on its start only through the phases of
the block's one or two residual frequencies (entries at one residual
share a phase).  Each level therefore forms exp(Omega) only on a tensor
grid of those phases, with the node count M doubled from 16 per phase
until the upper half of the harmonics is at rounding (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014)).  The product P_j of j steps is
again a periodic function of its start phases, doubled from the step on
a grid of 2M nodes, P_2j(phi) = P_j(phi + f j h) P_j(phi), with the shift
taken exactly on the harmonics and the upper half tested at every
doubling, up to P_n or the last P_j whose tail held.  Every interval is
the product of its n/j consecutive P_j, each read from the harmonics at
its own start (one read at the interval origin when j = n, as on every
preset level).  Only a level whose grid does not converge builds its
steps one by one.  At every level the blocks of one dim and one
frequency count go together: one exponential for their nodes, one batch
of doublings, and one matmul per interval for their states, which
advance through each batch of interval products as it is formed; no
level holds its products for every interval.

Density operators are propagated as the column-stacked vector under the
sparse vectorized Liouvillian, again only in the invariant blocks that
vec(rho0) touches.  The generator is static, so each touched block
advances exactly by one matrix exponential of one sample interval (Moler
& Van Loan, SIAM Rev. 45, 3 (2003)); a thermal or Fock start touches only
the block of the d populations, which makes this the population rate
equation.  The collision model of ``reservoir`` runs through the same
routine with the touched blocks of its one-atom field map as the step.

A trajectory keeps only the touched entries of every sample, in one
array, and every trajectory, of states or of densities, returns through
one guard routine that checks that array in one batch: norm or trace
drift, negativity (density runs, over the connected components of the
pattern of the touched entries), then leakage.  No sample is
renormalized.  States are built, re-symmetrized, only when a sample is
read.  Steady states work on the same invariant blocks: a generator is
split once, by ``LiouvillianMatrix.blocks``, for its trajectory and its
steady state.  A generator preserves Hermiticity, so the blocks of
coherence orders +k and -k have conjugate spectra, and one of each pair
is solved.

The module needs numpy alone and forms no dense d x d Hamiltonian: its
terms and vectorized generators are COO triplets, and their blocks are
split by one union-find over the triplets (``_split_triplets``).
Both propagators take their exponentials from one routine, ``expm``: a
Taylor-16 scaling-and-squaring polynomial in expm1 form, on a single
block or a stack of steps laid out batch last.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .hilbert import (
    ComplexOperator,
    DensityOperator,
    HilbertLayout,
    LayoutError,
    StateVector,
    field_populations,
    kron_triplets,
    nonzero_triplets,
)
from .raman import TimeDependentHamiltonian

LEAKAGE_LIMIT = 1e-6
TRACE_DRIFT_LIMIT = 1e-8
NEGATIVITY_LIMIT = 1e-7

# Magnus step control of Hamiltonian runs: steps per sample interval double
# from 1 through at most _MAX_LEVELS levels (n <= 2^31), and a level with
# no converged phase grid, which builds its steps one by one, is formed only
# while it has at most _MAX_STEPS steps per block over the grid.  Both bound
# work, not accuracy: a level on a converged grid forms its nodes and log2 n
# doublings, whatever its n.  Step exponentials, and the factors of interval
# products, are formed _CHUNK_STEPS at a time to bound memory; differences
# between successive doublings at rounding (below _ROUNDING_FLOOR, or eps per
# step taken) count as converged; a doubling level whose step exponentials
# could need more than _MAX_SQUARINGS squarings (1-norm above 16 theta_16 ~
# 13, four times the convergence radius pi of the Magnus series) is not built.
_MAX_LEVELS = 32
_MAX_STEPS = 2**18
_CHUNK_STEPS = 256
_ROUNDING_FLOOR = 1e-13
_MAX_SQUARINGS = 4

# A doubling level takes its steps on a grid of residual phases
# (``_MagnusLevel``): _FIRST_NODES nodes per phase (no preset level
# converges on 8), doubled until every upper harmonic is below
# _NODE_ROUNDING times the largest node entry, the test that every
# doubling of the interval products repeats on twice that grid.  No grid
# whose lower half would keep more than _MAX_HARMONICS harmonics is
# tried, which bounds the doubling grid at (2M)^m <= 4096 nodes per block
_FIRST_NODES = 16
_NODE_ROUNDING = 16 * np.finfo(float).eps
_MAX_HARMONICS = 256

# Density runs and the collision model stack the powers of their step map
# up to this many bytes (``propagate_touched``)
_POWER_BYTES = 2**20

# Three-point Gauss nodes of the Magnus-6 step; Taylor-16 coefficients 1/k!
# and theta_16, the largest 1-norm at which their truncation error
# sum_{k>16} theta^k/k! stays below the unit roundoff 2^-53
_GAUSS = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
_TAYLOR16 = tuple(1.0 / math.factorial(k) for k in range(17))
_THETA16 = 0.8246031916386088


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
    """Output sampling grid: ``samples`` equally spaced times from ``t_start`` to ``t_end``."""

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
    largest amplitude error estimate the Magnus-6 step doubling accepts,
    max|phi_2N - phi_N| / 63 between two levels of N and 2N steps.
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
    """A d^2 x d^2 Lindblad generator on vec(rho).

    Columns are stacked, vec(A rho B) = (B^T (x) A) vec(rho).  The map is
    held as read-only COO triplets in canonical form: sorted by flat index
    row * d^2 + col, duplicates summed and zeros dropped; an index outside
    [0, d^2) is rejected.  So the split into invariant blocks is taken
    once, by ``blocks``, and cannot go stale.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    layout: HilbertLayout

    def __post_init__(self):
        n = self.shape[0]
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError(f"map entries must lie in [0, {n}) x [0, {n})")
        flat, where = np.unique(rows * n + cols, return_inverse=True)
        values = np.zeros(len(flat), dtype=complex)
        np.add.at(values, where, self.values)
        kept = values != 0
        for name, arr in (("rows", flat[kept] // n), ("cols", flat[kept] % n),
                          ("values", values[kept])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.layout.dim**2,) * 2

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(index set, dense diagonal block [idx, idx]) of every invariant block."""
        out = []
        for idx, pick, rows, cols in _split_triplets(self.rows, self.cols, self.shape[0]):
            sub = np.zeros((len(idx), len(idx)), dtype=complex)
            sub[rows, cols] = self.values[pick]
            sub.setflags(write=False)
            out.append((idx, sub))
        return tuple(out)

    @cached_property
    def spectra(self) -> tuple[float, tuple[np.ndarray, ...]]:
        """|L|_2 and the spectrum of each block of ``blocks``, in their order.

        |L|_2 is the largest block norm.  A map that preserves Hermiticity,
        L(rho^dag) = L(rho)^dag, as every generator of ``sparse_liouvillian``
        does, has on the transposed entries of a block (``_mirrors``) the
        block's entrywise conjugate up to the order of its entries: the same
        norm and the conjugate spectrum.  One block of each mirrored pair is
        solved, and a block with no imaginary part in real arithmetic.
        ``steady_state`` and ``spectral_gap`` read this one eigensolve.
        """
        blocks, subs = zip(*self.blocks)
        mirrors = _mirrors(blocks, self.layout.dim)
        solved = [b for b, m in enumerate(mirrors) if m >= b]
        # |A|_2 <= |A|_F: blocks whose Frobenius norm is at most the running
        # maximum cannot raise it; an overflowing one (entries past ~1e154)
        # reads inf, and its 2-norm is taken
        with np.errstate(over="ignore"):
            frobenius = {b: np.linalg.norm(subs[b]) for b in solved}
        norm = 0.0
        for b in sorted(solved, key=frobenius.get, reverse=True):
            if frobenius[b] <= norm:
                break
            norm = max(norm, np.linalg.norm(_real_if_real(subs[b]), ord=2))
        own = {b: np.linalg.eigvals(_real_if_real(subs[b])) for b in solved}
        return norm, tuple(own[b] if m >= b else own[m].conj() for b, m in enumerate(mirrors))


@dataclass
class Trajectory:
    """Sampled states, stored as the entries a run touched.

    Row k of ``entries`` holds sample k at the flat positions ``index`` of
    psi (``density`` false) or of the column-stacked vec(rho) (``density``
    true); every other entry is exactly zero.  ``states`` reads the samples
    as ``StateVector``s or ``DensityOperator``s, each built when it is read.
    ``leakage`` is the largest top-two Fock population reached.

    ``steps``, ``exponentials`` and ``error_estimate`` describe the Magnus
    propagation of a Hamiltonian run: the sixth-order steps taken over
    every block and every doubling level built (a level too coarse for the
    Magnus series is skipped and not counted), the step exponentials
    formed for them (phase-grid nodes, and the steps of a level with no
    grid, built one by one), and the largest Richardson estimate accepted.
    All are zero when every block was propagated exactly, and for density
    runs.
    ``blocks`` holds the size of each invariant block a density run
    propagated.
    """

    times: np.ndarray
    layout: HilbertLayout
    index: np.ndarray
    entries: np.ndarray
    density: bool
    leakage: float = 0.0
    steps: int = 0
    exponentials: int = 0
    error_estimate: float = 0.0
    blocks: tuple[int, ...] = ()

    @property
    def states(self) -> "_States":
        return _States(self)

    @cached_property
    def populations(self) -> np.ndarray:
        """Field populations P_n, one row per sample (atom summed out).

        Read from the touched entries alone (the touched diagonal of a
        density run), so no (samples, d) array is formed.
        """
        if not self.density:
            return field_populations(self.layout, self.index, np.abs(self.entries) ** 2)
        d = self.layout.dim
        diagonal = self.index % (d + 1) == 0  # vec index i + i*d
        return field_populations(self.layout, self.index[diagonal] // (d + 1),
                                 self.entries[:, diagonal].real)

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
        return DensityOperator(self.layout, full.reshape((d, d), order="F")).symmetrized()


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


def _half_terms(H: TimeDependentHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w, rows, cols, values) of the entries of every M_k in H(t) = sum_k e^{i w_k t} M_k + H.c.

    M_k = c_k T_k of a ``TimeDependentHamiltonian``, Hermitian by construction,
    in term order; zero values are dropped, so a term with c_k = 0 couples no levels.
    """
    if not isinstance(H, TimeDependentHamiltonian):
        raise TypeError(f"unsupported Hamiltonian type {type(H)!r}")
    w, rows, cols, values = (np.concatenate(part) for part in zip(
        *[(np.full(len(v), freq), r, c, coef * v) for coef, freq, r, c, v in H.terms]))
    kept = values != 0
    return w[kept], rows[kept], cols[kept], values[kept]


class _FrameBlock:
    """One invariant block of H(t), of d levels, in the frame psi = e^{-iEt} phi.

    ``freqs``, ``rows``, ``cols`` and ``vals`` are the block's entries of
    ``_half_terms``, in their order, at positions within the block.  The
    diagonal energies E cancel the phase of every edge of a BFS
    spanning tree of the block's coupling graph (E_r - E_s = -w).  In
    that frame i dphi/dt = G(t) phi with G(t) = static + X(t) + X(t)^dag,
    where X holds the entries whose residual w + E_r - E_s is non-zero:
    the frequencies left on edges outside the tree, or on a tree edge
    that carries a second term.
    """

    def __init__(self, freqs: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, d: int):
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
        self.frequencies, self.dimension = _shared_frequencies(residual[moving],
                                                               rounding[moving])
        self.residuals = self.frequencies[self.dimension]
        self.amplitudes = vals[moving]
        self.basis = np.zeros((int(moving.sum()), d * d))
        self.basis[np.arange(len(self.basis)), rows[moving] * d + cols[moving]] = 1.0

    def start_phases(self, t: np.ndarray) -> np.ndarray:
        """e^{i f t} of every frequency f at each time in ``t``, shape (frequencies, len(t))."""
        return np.exp(1j * np.multiply.outer(self.frequencies, t))


def _shared_frequencies(residuals: np.ndarray, rounding: np.ndarray):
    """(frequencies, the frequency of each residual): residuals that agree to rounding share one.

    Sorted residuals whose gap is at most the sum of their rounding
    margins fall in one group, which takes the frequency of its smallest.
    """
    order = np.argsort(residuals, kind="stable")
    ranked, margin = residuals[order], rounding[order]
    fresh = np.r_[True, np.diff(ranked) > margin[1:] + margin[:-1]][:len(ranked)]
    dimension = np.empty(len(ranked), dtype=int)
    dimension[order] = np.cumsum(fresh) - 1
    return ranked[fresh], dimension


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of two stacks laid out (d, d, ...), the batch last, or of two matrices.

    A stack (Magnus steps and phase grids, d <= 5) takes one ``einsum``
    over its trailing axes; a single matrix (a density block, up to d = 50)
    one BLAS product.
    """
    if a.ndim == 2:
        return a @ b
    return np.einsum("ij...,jk...->ik...", a, b)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - (ab)^dag of two anti-Hermitian stacks."""
    ab = _mul(a, b)
    return ab - ab.conj().swapaxes(0, 1)


def expm(x: np.ndarray) -> np.ndarray:
    """exp of a (d, d) matrix, or of each of a (d, d, n) stack, by Taylor-16 scaling and squaring.

    x is scaled by 2^-s to a largest 1-norm of at most theta_16, where the
    degree-16 Taylor polynomial less its constant term, E = p(x) - 1, is
    summed by Paterson-Stockmeyer in x^4 (six products); each of the s
    squarings takes E to 2E + E^2, and exp(x) = 1 + E.  In this expm1 form
    the rounding scales with E, not with 1, so it does not drift the trace
    of a density run step by step.  A non-finite x, or one whose
    exponential overflows, gives NaN without a warning, for the guards of
    the run to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(x).sum(axis=0).max()
        if not np.isfinite(norm):
            return np.full(x.shape, np.nan, dtype=complex)
        s = int(np.ceil(np.log2(norm / _THETA16))) if norm > _THETA16 else 0
        c, x = _TAYLOR16, x / 2.0**s
        eye = np.eye(len(x)).reshape(x.shape[:2] + (1,) * (x.ndim - 2))
        x2 = _mul(x, x)
        x3 = _mul(x2, x)
        x4 = _mul(x2, x2)
        e = c[12] * eye + c[13] * x + c[14] * x2 + c[15] * x3 + c[16] * x4
        for j in (8, 4):
            e = c[j] * eye + c[j + 1] * x + c[j + 2] * x2 + c[j + 3] * x3 + _mul(x4, e)
        e = c[1] * x + c[2] * x2 + c[3] * x3 + _mul(x4, e)
        for _ in range(s):
            e = 2.0 * e + _mul(e, e)
        r = eye + e
        return r if np.isfinite(r).all() else np.full(x.shape, np.nan, dtype=complex)


def _magnus_propagators(blocks: Sequence[_FrameBlock], phases: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega) of one three-point Gauss Magnus-6 step of length h per block and start, stacked (d, d, blocks, n).

    A step from t depends on t only through the start phases e^{i f t} of
    its block's frequencies f (``_FrameBlock.start_phases``), which
    ``phases`` holds, shape (blocks, frequencies, n): the steps of a level
    and the phase-grid nodes of ``_MagnusLevel`` go through this one
    routine, and the blocks (of one dim and one frequency count) through
    one ``expm``.  With a_k = -i h G(t + c_k h) at the Gauss nodes c_k
    (Blanes, Casas & Ros, BIT 40, 434 (2000)): b1 = a_2,
    b2 = sqrt(15)/3 (a_3 - a_1), b3 = 10/3 (a_3 - 2 a_2 + a_1), C1 = [b1, b2],
    C2 = -[b1, 2 b3 + C1]/60 and Omega = b1 + b3/12 + [-20 b1 - b3 + C1, b2 + C2]/240.
    The static part of G enters b1 alone, so b2 and b3 are formed from the
    phases.
    """
    d, n = blocks[0].dim, phases.shape[-1]
    x = np.empty((3, d * d, len(blocks), n), dtype=complex)
    for b, block in enumerate(blocks):
        start = phases[b, block.dimension] * block.amplitudes[:, None]  # entries of X at each start
        p1, p2, p3 = (start * np.exp(1j * c * h * block.residuals)[:, None] for c in _GAUSS)
        moving = np.stack([p2, np.sqrt(15.0) / 3.0 * (p3 - p1), 10.0 / 3.0 * (p3 - 2.0 * p2 + p1)])
        x[:, :, b] = block.basis.T @ moving
    x = x.reshape(3, d, d, len(blocks), n)
    b1, b2, b3 = -1j * h * (x + x.conj().swapaxes(1, 2))
    b1 -= 1j * h * np.stack([block.static for block in blocks], axis=-1)[..., None]
    c1 = _commutator(b1, b2)
    c2 = _commutator(b1, 2.0 * b3 + c1) / -60.0
    return expm(b1 + b3 / 12.0 + _commutator(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0)


def _doubled(p: np.ndarray, n: int) -> np.ndarray:
    """Products of runs of n consecutive factors along the last axis, each later factor on the left.

    log2 n pairwise products, each of an odd factor after its even one.
    """
    while n > 1:
        p, n = _mul(p[..., 1::2], p[..., 0::2]), n // 2
    return p


class _MagnusLevel:
    """One doubling level of a group of blocks: n Magnus steps of one length h per sample interval.

    The blocks share their dim and their number m of frequencies, and are
    built in one stack.  ``times`` is a linspace, so one h serves the
    level.  A step depends on its start t only through the angles f_q t of
    its block's frequencies, as an analytic periodic function, so the
    trigonometric polynomial through its values on a tensor grid of M nodes
    per angle converges geometrically in M (Trefethen & Weideman, SIAM Rev.
    56, 385 (2014)).  For each block M doubles from _FIRST_NODES while M^m
    stays below the level's step count and the lower half of the
    harmonics, |k_q| < M/4, numbers at most _MAX_HARMONICS, until every
    harmonic of the upper half falls below _NODE_ROUNDING times the largest
    node entry.  ``sizes`` holds each block's M (0 where no grid
    converged) and ``harmonics`` the lower half, shape (d, d, M/2 - 1, ...).
    ``exponentials`` counts the step exponentials formed, nodes included.
    """

    def __init__(self, blocks: Sequence[_FrameBlock], times: np.ndarray, n: int):
        count = (len(times) - 1) * n
        self.blocks, self.times, self.n = list(blocks), times, n
        self.h = (times[-1] - times[0]) / count
        self.exponentials = 0
        self.sizes = [0] * len(blocks)
        self.harmonics: list[np.ndarray | None] = [None] * len(blocks)
        m, size, trying = len(blocks[0].frequencies), _FIRST_NODES, list(range(len(blocks)))
        while trying and size**m < count and (size // 2 - 1)**m <= _MAX_HARMONICS:
            nodes = np.exp(2j * np.pi / size * np.indices((size,) * m).reshape(m, -1))
            values = self._build([blocks[b] for b in trying],
                                 np.broadcast_to(nodes, (len(trying),) + nodes.shape))
            scale = _NODE_ROUNDING * np.abs(values).max(axis=(0, 1, 3))
            harmonics = _fourier(values.reshape(values.shape[:3] + (size,) * m))
            converged = _tail(harmonics) <= scale
            lower = (slice(None),) * 2 + np.ix_(*[np.arange(1 - size // 4, size // 4) % size] * m)
            for b, ok, coeffs in zip(trying, converged, np.moveaxis(harmonics, 2, 0)):
                if ok:
                    self.sizes[b], self.harmonics[b] = size, coeffs[lower]
            trying = [b for b in trying if not self.sizes[b]]
            size *= 2

    def _build(self, blocks: Sequence[_FrameBlock], phases: np.ndarray) -> np.ndarray:
        """The steps of ``blocks`` from start phases (blocks, frequencies, N), as (d, d, blocks, N).

        They are built _CHUNK_STEPS exponentials at a time (at least one
        per block).
        """
        self.exponentials += phases.shape[0] * phases.shape[-1]
        width = max(1, _CHUNK_STEPS // len(blocks))
        return np.concatenate([_magnus_propagators(blocks, phases[..., j:j + width], self.h)
                               for j in range(0, phases.shape[-1], width)], axis=-1)

    def doubled(self, group: Sequence[int]) -> tuple[np.ndarray, int]:
        """The harmonics of P_j, the product of j steps, of the blocks ``group`` (of one M > 0), and j.

        P_2j(phi) = P_j(phi + f j h) P_j(phi) is formed on a working grid of
        W = 2M nodes per angle, in one stack: P_j is shifted by j steps in
        the coefficient domain (harmonic k times e^{i k.f j h}) and taken
        back to the nodes, where P_2j is one product.  The product of two
        polynomials with |k_q| < M/2 has |k_q| < M, so W does not alias it.
        After every doubling the harmonics with some |k_q| >= M/2 are tested
        against _NODE_ROUNDING times the largest node entry; the group
        doubles while j < n and every block's tail holds, and keeps the
        |k_q| < M/2 harmonics of the last P_j that held, shape (blocks, d^2,
        harmonics).
        """
        blocks = [self.blocks[b] for b in group]
        size, d, m, count = self.sizes[group[0]], blocks[0].dim, len(blocks[0].frequencies), len(group)
        w = 2 * size
        coeffs = np.zeros((d, d, count) + (w,) * m, dtype=complex)
        first = np.ix_(*[np.arange(1 - size // 4, size // 4) % w] * m)
        coeffs[(slice(None),) * 3 + first] = np.stack([self.harmonics[b] for b in group], axis=2)
        orders = np.fft.fftfreq(w, 1.0 / w)[np.indices((w,) * m)].reshape(m, -1)
        freqs = np.array([block.frequencies for block in blocks])
        advance = (freqs * self.h @ orders).reshape((count,) + (w,) * m)  # k.f h of each harmonic
        kept = (np.abs(orders).max(axis=0) < size // 2).reshape((w,) * m)
        p, j = _fourier(coeffs.copy(), inverse=True), 1
        while j < self.n:
            # P_j advanced by j steps, its tail dropped, times P_j
            nodes = _mul(_fourier(coeffs * (np.exp(1j * j * advance) * kept), inverse=True), p)
            harmonics = _fourier(nodes.copy())
            scale = _NODE_ROUNDING * np.abs(nodes).max(axis=(0, 1) + tuple(range(3, 3 + m)))
            if (_tail(harmonics) > scale).any():
                break
            p, coeffs, j = nodes, harmonics, 2 * j
        lower = np.arange(1 - size // 2, size // 2) % w
        coeffs = coeffs[(slice(None),) * 3 + np.ix_(*[lower] * m)]
        return np.moveaxis(coeffs.reshape(d * d, count, -1), 1, 0), j

    def products(self, group: Sequence[int]):
        """Yield P_n of the blocks ``group`` (of one M) over the sample intervals, in batches (intervals, blocks, d, d).

        The P_n of an interval from t_0 is the product of the n/j factors
        P_j(t_0 + k j h), k = 0 .. n/j - 1.  On a grid, P_j is the last
        product that ``doubled`` kept (j = n on every preset level), read
        from its harmonics at each start by one (d^2, harmonics) x
        (harmonics, starts) product per block, with e^{i k f t} taken as
        powers of e^{i f t}; on a level where no grid converged, j = 1 and
        every step is built from its start.  The factors are formed
        _CHUNK_STEPS at a time, in runs of min(n/j, _CHUNK_STEPS) consecutive
        ones, and multiplied down by ``_doubled``, the runs of one interval
        likewise.  Each yield is one contiguous array of the whole intervals
        that one batch of factors covers (one interval, when it takes more
        batches), so memory stays bounded by the batch.
        """
        blocks = [self.blocks[b] for b in group]
        size, d, count = self.sizes[group[0]], blocks[0].dim, len(group)
        coeffs, j = self.doubled(group) if size else (None, 1)

        def factors(starts):
            turn = np.stack([block.start_phases(starts) for block in blocks])  # (blocks, m, starts)
            if not size:
                return self._build(blocks, turn)
            # e^{i k f t} at every start, k = 1 - M/2 .. M/2 - 1
            up = np.cumprod(np.broadcast_to(turn, (size // 2 - 1,) + turn.shape), axis=0)
            waves = np.concatenate([up[::-1].conj(), np.ones((1,) + turn.shape), up])
            basis = waves[:, :, 0]
            for q in range(1, turn.shape[1]):
                basis = (basis[:, None] * waves[:, :, q]).reshape(-1, *basis.shape[1:])
            props = np.matmul(coeffs, np.moveaxis(basis, 1, 0))  # (blocks, d^2, starts)
            return np.moveaxis(props, 0, 1).reshape(d, d, count, -1)

        origins, per = self.times[:-1], self.n // j
        run = min(per, _CHUNK_STEPS)
        chunk = max(1, _CHUNK_STEPS // run)  # runs per batch of factors, and intervals per yield
        for i in range(0, len(origins), chunk):
            runs = (origins[i:i + chunk, None] + self.h * np.arange(0, self.n, j)).reshape(-1, run)
            products = np.concatenate([
                _doubled(factors(runs[k:k + chunk].ravel()).reshape(d, d, count, -1, run), run)[..., 0]
                for k in range(0, len(runs), chunk)], axis=-1)
            products = _doubled(products.reshape(d, d, count, -1, per // run), per // run)[..., 0]
            yield np.ascontiguousarray(products.transpose(3, 2, 0, 1))


def _fourier(grid: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Harmonics of values on a tensor grid laid out (d, d, blocks, size, ...), or (``inverse``) values of harmonics.

    Harmonic k is the coefficient of e^{i k.phi}, in FFT order.  The
    transform runs in place, one grid axis at a time.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in range(grid.ndim - 1, 2, -1):
        transform(grid, axis=axis, norm="forward", out=grid)
    return grid


def _tail(harmonics: np.ndarray) -> np.ndarray:
    """Largest harmonic with some |k_q| >= size/4 of each block, harmonics laid out (d, d, blocks, size, ...)."""
    size, grid = harmonics.shape[-1], tuple(range(3, harmonics.ndim))
    upper = slice(size // 4, size - size // 4 + 1)  # |k| >= size/4 in FFT order
    return np.max([np.abs(harmonics[(slice(None),) * axis + (upper,)]).max(axis=(0, 1) + grid)
                   for axis in grid], axis=0)


def _magnus_states(blocks: Sequence[_FrameBlock], times: np.ndarray, phi0: np.ndarray, tol: float):
    """Frame states at ``times`` of blocks of one dim and one frequency count, by step doubling.

    ``phi0`` holds each block's initial frame state, shape (blocks, d).
    Returns (states (len(times), blocks, d), steps taken, step
    exponentials formed, largest accepted error estimate).

    For each block, substeps per sample interval double from 1 until the
    Richardson estimate max|phi_2N - phi_N| / 63 meets ``tol`` while
    successive differences shrink (or sit at rounding, which grows with the
    steps taken).  |Omega|_1 is
    about h g, where g = |static|_1 + 2 sum|amplitudes| bounds |G(t)|_1: a
    level with h g above 2^_MAX_SQUARINGS theta_16 is not built for that
    block, and differs infinitely from its neighbours, so two more levels
    are needed to accept.  Blocks of a level with no converged grid and
    more than _MAX_STEPS steps are not formed either, and count the same.
    A block that has not met ``tol`` after _MAX_LEVELS levels, or whose g^2
    overflows (before any step is built), raises.  Each level builds the
    blocks that are still open in one ``_MagnusLevel``; those of each grid
    size advance their states by one matmul per interval, through each
    batch of interval products as ``_MagnusLevel.products`` yields it, so
    only the states span every interval.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.array([np.abs(block.static).sum(axis=0).max() + 2.0 * np.abs(block.amplitudes).sum()
                           for block in blocks])
        if not np.isfinite(bounds * bounds).all():
            raise IntegrationError("Magnus step generator is not finite; the couplings overflow")
    longest, intervals = float(np.max(np.diff(times))), len(times) - 1
    steps, exponentials, error = 0, 0, 0.0
    accepted: list[np.ndarray | None] = [None] * len(blocks)
    prev: list[np.ndarray | None] = [None] * len(blocks)
    diffs: list[list[float]] = [[] for _ in blocks]
    for n in (2**k for k in range(_MAX_LEVELS)):
        floor = max(_ROUNDING_FLOOR, np.finfo(float).eps * intervals * n)
        open_ = [b for b, state in enumerate(accepted) if state is None]
        built = [b for b in open_ if longest / n * bounds[b] <= _THETA16 * 2.0**_MAX_SQUARINGS]
        states = {}
        if built:
            level = _MagnusLevel([blocks[b] for b in built], times, n)
            for size in sorted(set(level.sizes)):
                if not size and intervals * n > _MAX_STEPS:
                    continue  # built one step at a time: left to a level with a grid
                group = [b for b, s in enumerate(level.sizes) if s == size]
                run = np.empty((len(times), len(group), blocks[0].dim, 1), dtype=complex)
                run[0, :, :, 0] = phi0[[built[b] for b in group]]
                for i, u in enumerate(chain.from_iterable(level.products(group))):
                    np.matmul(u, run[i], out=run[i + 1])
                states.update(zip([built[b] for b in group], np.moveaxis(run[..., 0], 1, 0)))
                steps += len(group) * intervals * n
            exponentials += level.exponentials
        for b in open_:
            current = states.get(b)
            if n > 1:
                both = current is not None and prev[b] is not None
                diff = float(np.max(np.abs(current - prev[b]))) if both else np.inf
                shrinking = (diffs[b] and diff < diffs[b][-1]) or diff <= floor
                if diff / 63.0 <= tol and shrinking:
                    accepted[b], error = current, max(error, diff / 63.0)
                    continue
                diffs[b].append(diff)
            prev[b] = current
        if all(state is not None for state in accepted):
            return np.stack(accepted, axis=1), steps, exponentials, error
    last = diffs[next(b for b, state in enumerate(accepted) if state is None)]
    raise IntegrationError(
        f"Magnus steps missed rel_tol {tol} within {_MAX_LEVELS} doubling levels, "
        f"{_MAX_STEPS} steps per block on a level without a phase grid "
        f"(last estimate {last[-1] / 63.0 if last else float('inf')})"
    )


def evolve_state(
    H,
    psi0: StateVector,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Propagate i dpsi/dt = H(t) psi (hbar = 1) over the sampling grid.

    ``H`` is a ``TimeDependentHamiltonian`` (a static H is one term with
    w = 0).  Only the invariant blocks of H that psi0 touches are
    propagated; the rest of the state stays exactly zero.  Blocks with
    no residual frequency in their frame are propagated exactly, the
    others by Magnus steps to ``cfg.rel_tol``, those of one dim and one
    frequency count stacked together (``_magnus_states``).  The
    trajectory goes through the guards of ``_guarded``, with a norm-drift
    limit of 10 * ``cfg.rel_tol``.
    """
    layout = psi0.layout
    w, rows, cols, values = _half_terms(H)
    if H.layout != layout:
        raise LayoutError("Hamiltonian layout mismatch")
    if not np.isfinite(grid.t_end - grid.t_start):
        raise IntegrationError(f"sampling times {grid.t_start}..{grid.t_end} are not finite")
    times = grid.times
    psi = psi0.amplitudes.astype(complex)
    parts = [part for part in _split_triplets(rows, cols, layout.dim) if np.any(psi[part[0]])]
    touched = [idx for idx, *_ in parts]
    blocks = [_FrameBlock(w[pick], r, c, values[pick], len(idx)) for idx, pick, r, c in parts]
    phi0 = [np.exp(1j * block.energies * times[0]) * psi[idx] for block, idx in zip(blocks, touched)]
    phis, groups = [None] * len(blocks), {}
    for b, block in enumerate(blocks):
        if len(block.residuals):
            groups.setdefault((block.dim, len(block.frequencies)), []).append(b)
        else:
            lam, vec = np.linalg.eigh(block.static)
            coeffs = np.exp(-1j * np.outer(times - times[0], lam)) * (vec.conj().T @ phi0[b])
            phis[b] = coeffs @ vec.T
    steps, exponentials, error = 0, 0, 0.0
    for group in groups.values():
        states, taken, formed, estimate = _magnus_states(
            [blocks[b] for b in group], times, np.array([phi0[b] for b in group]), cfg.rel_tol)
        for b, phi in zip(group, np.moveaxis(states, 1, 0)):
            phis[b] = phi
        steps, exponentials, error = steps + taken, exponentials + formed, max(error, estimate)
    columns = [np.exp(-1j * np.outer(times, block.energies)) * phi for block, phi in zip(blocks, phis)]
    traj = Trajectory(times, layout, np.concatenate(touched), np.hstack(columns), False,
                      steps=steps, exponentials=exponentials, error_estimate=error)
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
    steps = [(idx, expm(sub * dt)) for idx, sub in L.blocks if np.any(vec0[idx])]
    return propagate_touched(steps, vec0, times, layout)


def propagate_touched(steps: list[tuple[np.ndarray, np.ndarray]], vec0: np.ndarray,
                      times: np.ndarray, layout: HilbertLayout, step_name: str = "") -> Trajectory:
    """Apply one step map to the touched entries of vec(rho0) once per sample, then guard.

    ``steps`` holds an (index set, step block) pair for each invariant
    block of the step map that vec(rho0) touches; the step is their block
    diagonal S on the concatenated indices, of size n.  Its powers
    S^1..S^m are stacked once into an (m n, n) array, and each run of m
    samples is one product of that stack with the run's first sample.
    Over N intervals m = floor(sqrt(N)) + 1, which balances the products
    that build the stack against the number of runs, capped at N and at
    a stack of _POWER_BYTES; m = 1 (a large touched set) is one mat-vec
    per sample.  The trajectory goes through the guards of ``_guarded``
    with TRACE_DRIFT_LIMIT; ``step_name`` says what one step is (the
    collision model passes "collisions"), so an error can say how many
    steps were taken.
    """
    index = np.concatenate([idx for idx, _ in steps])
    offsets = np.cumsum([0] + [len(idx) for idx, _ in steps])
    n, intervals = len(index), len(times) - 1
    step = np.zeros((n, n), dtype=complex)
    for (_, block), lo, hi in zip(steps, offsets, offsets[1:]):
        step[lo:hi, lo:hi] = block
    m = max(1, min(math.isqrt(intervals) + 1, intervals, _POWER_BYTES // step.nbytes))
    powers = step  # S^1..S^k stacked; doubled by S^k until k >= m
    while len(powers) < m * n:
        powers = np.concatenate([powers, powers[:m * n - len(powers)] @ powers[-n:]])
    entries = np.empty((len(times), n), dtype=complex)
    entries[0] = vec0[index]
    for k in range(0, intervals, m):
        run = min(m, intervals - k)
        np.dot(powers[:run * n], entries[k], out=entries[k + 1:k + 1 + run].reshape(-1))
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
    # eigvalsh needs finite entries
    safe = entries if finite.all() else np.where(finite[:, None], entries, 0.0)
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

    rho splits along the connected components of the pattern of those
    entries.  A component of one level holds one population, and all of
    them are read in one masked reduction; the others take a stacked
    ``eigvalsh`` of their Hermitian part.  When every entry is a
    population (a thermal or Fock start) the components are not searched.
    """
    if np.array_equal(rows, cols):  # populations alone: every component is one level
        return entries.real.min(axis=1, initial=np.inf)
    lam_min = np.full(len(entries), np.inf)
    alone = np.zeros(len(rows), dtype=bool)
    for comp, pick, r, c in _split_triplets(rows, cols, d):
        if len(comp) == 1:
            alone[pick] = True
            continue
        sub = np.zeros((len(entries), len(comp), len(comp)), dtype=complex)
        sub[:, r, c] = entries[:, pick]
        low = np.linalg.eigvalsh(0.5 * (sub + sub.conj().transpose(0, 2, 1))).min(axis=1)
        lam_min = np.minimum(lam_min, low)
    return np.minimum(lam_min, entries[:, alone].real.min(axis=1, initial=np.inf))


def sparse_liouvillian(H, terms: list[LindbladTerm]) -> LiouvillianMatrix:
    """Vectorized generator L vec(rho) = vec(rho_dot), columns stacked.

    ``H`` is None or a ``TimeDependentHamiltonian`` whose every term has
    w = 0, such as ``build_engineered_hamiltonian`` returns.
    The Kronecker pieces are gathered as COO triplets, which
    ``LiouvillianMatrix`` sums once.
    """
    if H is None and not terms:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    if H is not None:
        w, rows, cols, values = _half_terms(H)
        if np.any(w):
            raise TypeError("the Liouvillian requires a static Hamiltonian")
    layout = H.layout if H is not None else terms[0].jump.layout
    d = layout.dim
    eye = (np.arange(d), np.arange(d), np.ones(d))
    pieces = []
    if H is not None:  # -i (1 (x) H - H^T (x) 1) with H = M + M^dag
        for r, c, v in ((rows, cols, values), (cols, rows, values.conj())):
            pieces += [kron_triplets(eye, (r, c, v), d, -1j), kron_triplets((c, r, v), eye, d, 1j)]
    for term in terms:
        if term.jump.layout != layout:
            raise LayoutError("jump operator layout mismatch")
        j = term.jump.entries
        jdj = j.conj().T @ j
        half = term.rate / 2.0
        pieces += [kron_triplets(nonzero_triplets(j.conj()), nonzero_triplets(j), d, 2.0 * half),
                   kron_triplets(eye, nonzero_triplets(jdj), d, -half),
                   kron_triplets(nonzero_triplets(jdj.T), eye, d, -half)]
    return LiouvillianMatrix(*(np.concatenate(part) for part in zip(*pieces)), layout)


def invariant_blocks(rows: np.ndarray, cols: np.ndarray, n: int) -> list[np.ndarray]:
    """Index sets of the blocks of an n x n generator that never couple to each other.

    These are the weakly connected components of the pattern of its
    entries at (``rows``, ``cols``), COO triplets without zeros, so the
    generator has no entry between two blocks and its spectrum, null
    vectors and exponential split block by block.  A generic dense
    generator is a single block.
    Blocks come in the order of their smallest index, each in ascending
    order.  Every index carries a label, at first itself: each round hooks
    the root label of every edge's end onto the smaller of its two end
    labels and then jumps pointers until every label is a root, so at the
    fixed point each index is labelled by the smallest index of its block.
    """
    label = np.arange(n)
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


def _split_triplets(rows: np.ndarray, cols: np.ndarray, n: int):
    """(index set, triplet positions, local rows, local cols) of every invariant block of an n x n pattern.

    Blocks as ``invariant_blocks`` orders them; a block's triplets keep their order.
    """
    blocks = invariant_blocks(rows, cols, n)
    label, position = np.empty((2, n), dtype=int)
    for b, idx in enumerate(blocks):
        label[idx], position[idx] = b, np.arange(len(idx))
    owner = label[rows]
    order = np.argsort(owner, kind="stable")  # each block's triplets, one slice each
    picks = np.split(order, np.cumsum(np.bincount(owner, minlength=len(blocks)))[:-1])
    return [(idx, pick, position[rows[pick]], position[cols[pick]])
            for idx, pick in zip(blocks, picks)]


def _mirrors(blocks: Sequence[np.ndarray], d: int) -> list[int]:
    """The block on the transposed entries of each block, or the block itself.

    vec index r + c d (of |r><c|) transposes to c + r d.  A block's mirror
    is the block that holds its whole transposed index set and nothing
    else; a block whose transposed set is not one such block counts as
    its own mirror.  The population block of a phase-covariant generator
    mirrors itself, and coherence order +k mirrors order -k.
    """
    sizes = np.array([len(idx) for idx in blocks])
    label = np.empty(d * d, dtype=int)
    label[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), sizes)
    k = np.arange(d * d)
    across = label[(k % d) * d + k // d]  # the block of each entry's transpose
    first = across[[idx[0] for idx in blocks]]
    stray = np.bincount(label, weights=across != first[label], minlength=len(blocks))
    whole = (stray == 0) & (sizes[first] == sizes)
    return np.where(whole, first, np.arange(len(blocks))).tolist()


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """``a.real`` when ``a`` has no imaginary part, so LAPACK runs its real routine."""
    return a if np.any(a.imag) else a.real


def steady_state(L: LiouvillianMatrix) -> DensityOperator:
    """Unique null-space density operator of a trace-preserving Liouvillian.

    The null and degeneracy counts run over the union of the block
    spectra of ``LiouvillianMatrix.spectra``, against 1e-9 |L|_2; then only the block
    holding the null eigenvalue is eigendecomposed for its null vector,
    in real arithmetic when the block is real.
    """
    d = L.layout.dim
    norm, spectra = L.spectra
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
    b = int(np.searchsorted(np.cumsum([len(vals) for vals in spectra]), order[0], side="right"))
    idx, sub = L.blocks[b]
    vals, vecs = np.linalg.eig(_real_if_real(sub))
    k = int(np.argmin(np.abs(vals)))
    full = np.zeros(d * d, dtype=complex)
    full[idx] = vecs[:, k]
    rho = DensityOperator(L.layout, full.reshape((d, d), order="F")).symmetrized().entries
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise IntegrationError("null vector is traceless; not a steady state")
    return DensityOperator(L.layout, rho / tr)


def spectral_gap(L: LiouvillianMatrix, index: np.ndarray | None = None) -> float:
    """Slowest decay rate of ``L``: the least -Re(lambda) past its null eigenvalue.

    The null eigenvalue is the one of least |lambda| in the whole spectrum,
    as in ``steady_state``.  With ``index``, vec(rho) positions such as a
    trajectory's ``index``, only the blocks holding those entries count:
    the gap that a state on them feels.  inf when no other eigenvalue is
    left.  Reads the one eigensolve of ``LiouvillianMatrix.spectra``.
    """
    _, spectra = L.spectra
    null = int(np.argmin(np.abs(np.concatenate(spectra))))
    offsets = np.cumsum([0] + [len(vals) for vals in spectra])
    rates = [-vals.real for vals in spectra]
    b = int(np.searchsorted(offsets, null, side="right")) - 1
    rates[b] = np.delete(rates[b], null - offsets[b])
    if index is not None:
        held = np.zeros(L.shape[0], dtype=bool)
        held[index] = True
        rates = [r for r, (idx, _) in zip(rates, L.blocks) if held[idx].any()]
    return float(np.min(np.concatenate(rates), initial=np.inf))
