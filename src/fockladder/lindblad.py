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
product is a loop over d of broadcast multiply-adds, every nested
commutator of anti-Hermitian terms takes one product, [A, B] = AB - (AB)^dag,
and exp(Omega) is taken by ``expm``, so a step calls no LAPACK routine.
The sampling grid is a linspace, so all steps of a doubling level have
one length, and a step depends on its start only through the phases of
the block's one or two residual frequencies (entries at one residual
share a phase).  Each level therefore forms exp(Omega) only on a tensor
grid of those phases, with the node count doubled from 16 per phase
until the upper half of the harmonics is at rounding, and takes every
step from the trigonometric interpolant (its lower half) by one matrix
product per chunk of steps (Trefethen & Weideman, SIAM Rev. 56, 385
(2014)).  A level whose harmonics converge only on a grid as large as its
step count builds its steps one by one.

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
is split once, by ``LiouvillianMatrix.blocks``, for every reader.  A
generator preserves Hermiticity, so the blocks of coherence orders +k
and -k have conjugate spectra, and one of each pair is solved.

The module needs numpy alone.  Vectorized generators are canonical COO
triplets, and their blocks are split by a union-find over the triplets.
Both propagators take their exponentials from one routine, ``expm``: a
Taylor-16 scaling-and-squaring polynomial in expm1 form, on a single
block or a stack of steps laid out batch last.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
# doublings below _ROUNDING_FLOOR count as converged; a doubling level
# whose step exponentials could need more than _MAX_SQUARINGS squarings
# (1-norm above 16 theta_16 ~ 13, four times the convergence radius pi of
# the Magnus series) is not built.
_MAX_STEPS = 2**18
_CHUNK_STEPS = 256
_ROUNDING_FLOOR = 1e-13
_MAX_SQUARINGS = 4

# A doubling level interpolates its steps on a grid of residual phases
# (``_MagnusLevel``): _FIRST_NODES nodes per phase (no preset level
# converges on 8), doubled until every upper harmonic is below
# _NODE_ROUNDING times the largest node entry.  No grid that would keep
# more than _MAX_HARMONICS harmonics is tried, so a step read from them
# stays cheaper than one built directly, and their basis for one chunk of
# steps stays within 1 MiB
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
    """A d^2 x d^2 map on vec(rho): a Lindblad generator, or the collision model's one-atom map.

    Columns are stacked, vec(A rho B) = (B^T (x) A) vec(rho).  The map is
    held as read-only COO triplets in canonical form: sorted by flat index
    row * d^2 + col, duplicates summed and zeros dropped.  So the split
    into invariant blocks is taken once, by ``blocks``, and cannot go stale.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    layout: HilbertLayout

    def __post_init__(self):
        n = self.shape[0]
        flat, where = np.unique(np.asarray(self.rows) * n + np.asarray(self.cols),
                                return_inverse=True)
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

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the stored entries, as ``ndarray.nonzero`` gives them."""
        return self.rows, self.cols

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(index set, dense diagonal block [idx, idx]) of every invariant block."""
        blocks = invariant_blocks(self)
        sizes = [len(idx) for idx in blocks]
        label, position = np.empty((2, self.shape[0]), dtype=int)
        flat = np.concatenate(blocks)
        label[flat] = np.repeat(np.arange(len(blocks)), sizes)
        position[flat] = np.concatenate([np.arange(n) for n in sizes])
        owner = label[self.rows]
        order = np.argsort(owner, kind="stable")  # each block's triplets, one slice each
        rows, cols = position[self.rows[order]], position[self.cols[order]]
        values = self.values[order]
        bounds = np.cumsum(np.bincount(owner, minlength=len(blocks)))
        out = []
        for idx, lo, hi in zip(blocks, np.r_[0, bounds[:-1]], bounds):
            sub = np.zeros((len(idx), len(idx)), dtype=complex)
            sub[rows[lo:hi], cols[lo:hi]] = values[lo:hi]
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

    ``steps``, ``exponentials`` and ``error_estimate`` describe the Magnus
    propagation of a Hamiltonian run: the sixth-order steps taken over
    every block and every doubling level built (a level too coarse for the
    Magnus series is skipped and not counted), the step exponentials
    formed for them (phase-grid nodes, and the steps of a level built one
    by one), and the largest Richardson estimate accepted.  All are zero
    when every block was propagated exactly, and for density runs.
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

    A stack (Magnus steps, d <= 5) takes a loop over d of broadcast
    multiply-adds; a single matrix (a density block, up to d = 50) one BLAS
    product.
    """
    if a.ndim == 2:
        return a @ b
    out = a[:, :1] * b[:1]
    for k in range(1, len(a)):
        out += a[:, k:k + 1] * b[k:k + 1]
    return out


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


def _magnus_propagators(block: _FrameBlock, phases: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega) of one three-point Gauss Magnus-6 step of length h per start, stacked (d, d, n).

    A step from t depends on t only through the start phases e^{i f t} of
    the block's frequencies f (``_FrameBlock.start_phases``), which
    ``phases`` holds, shape (frequencies, n): the steps of a level and the
    phase-grid nodes of ``_MagnusLevel`` go through this one routine.
    With a_k = -i h G(t + c_k h) at the Gauss nodes c_k (Blanes, Casas & Ros,
    BIT 40, 434 (2000)): b1 = a_2, b2 = sqrt(15)/3 (a_3 - a_1),
    b3 = 10/3 (a_3 - 2 a_2 + a_1), C1 = [b1, b2], C2 = -[b1, 2 b3 + C1]/60
    and Omega = b1 + b3/12 + [-20 b1 - b3 + C1, b2 + C2]/240.  The static
    part of G enters b1 alone, so b2 and b3 are formed from the phases.
    """
    d, n = block.dim, phases.shape[1]
    start = phases[block.dimension] * block.amplitudes[:, None]  # entries of X at each start
    p1, p2, p3 = (start * np.exp(1j * c * h * block.residuals)[:, None] for c in _GAUSS)
    moving = np.stack([p2, np.sqrt(15.0) / 3.0 * (p3 - p1), 10.0 / 3.0 * (p3 - 2.0 * p2 + p1)])
    x = (block.basis.T @ moving).reshape(3, d, d, n)
    b1, b2, b3 = -1j * h * (x + x.conj().swapaxes(1, 2))
    b1 -= 1j * h * block.static[:, :, None]
    c1 = _commutator(b1, b2)
    c2 = _commutator(b1, 2.0 * b3 + c1) / -60.0
    return expm(b1 + b3 / 12.0 + _commutator(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0)


class _MagnusLevel:
    """The Magnus steps of one block at one doubling level: n of one length h per sample interval.

    ``times`` is a linspace, so one h serves the level.  A step depends on
    its start t only through the angles f_q t of the block's m
    frequencies, as an analytic periodic function, so the trigonometric
    polynomial through its values on a tensor grid of M nodes per angle
    converges geometrically in M (Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)).  M doubles from _FIRST_NODES while M^m stays below the
    level's step count and the lower half of the harmonics, |k_q| < M/4,
    numbers at most _MAX_HARMONICS, until every harmonic of the upper half
    falls below _NODE_ROUNDING times the largest node entry.  The upper
    half is then dropped, and each step is the lower half at its start:
    one (d^2, harmonics) x (harmonics, steps) product per chunk.  A level
    where no grid converges builds its steps one by one.
    ``exponentials`` counts the step exponentials formed, nodes included.
    """

    def __init__(self, block: _FrameBlock, times: np.ndarray, n: int):
        count = (len(times) - 1) * n
        self.block, self.h = block, (times[-1] - times[0]) / count
        self.exponentials, self.harmonics = 0, None
        m, size = len(block.frequencies), _FIRST_NODES
        while size**m < count and (size // 2 - 1)**m <= _MAX_HARMONICS:
            index = np.indices((size,) * m).reshape(m, -1)
            values = self._build(np.exp(2j * np.pi / size * index))
            harmonics = np.fft.fftn(values.reshape((-1,) + (size,) * m),
                                    axes=range(1, m + 1)) / size**m
            upper = np.abs(np.fft.fftfreq(size, 1.0 / size)[index]).max(axis=0) >= size // 4
            if np.abs(harmonics[:, upper.reshape((size,) * m)]).max() \
                    <= _NODE_ROUNDING * np.abs(values).max():
                self.orders = np.arange(1 - size // 4, size // 4)
                lower = np.ix_(*[self.orders % size] * m)
                self.harmonics = harmonics[(slice(None),) + lower].reshape(len(values), -1)
                break
            size *= 2

    def _build(self, phases: np.ndarray) -> np.ndarray:
        """The steps from start phases (frequencies, n), _CHUNK_STEPS at a time, as (d^2, n)."""
        self.exponentials += phases.shape[1]
        return np.hstack([
            _magnus_propagators(self.block, phases[:, j:j + _CHUNK_STEPS], self.h)
            .reshape(self.block.dim**2, -1)
            for j in range(0, phases.shape[1], _CHUNK_STEPS)
        ])

    def steps(self, starts: np.ndarray) -> np.ndarray:
        """The step propagators from each start, stacked (d, d, len(starts))."""
        d = self.block.dim
        if self.harmonics is None:
            return self._build(self.block.start_phases(starts)).reshape(d, d, -1)
        angles = np.multiply.outer(self.block.frequencies, starts)
        waves = np.exp(1j * np.multiply.outer(self.orders, angles))  # (orders, m, steps)
        basis = waves[:, 0]
        for q in range(1, len(angles)):
            basis = (basis[:, None] * waves[:, q]).reshape(-1, len(starts))
        return (self.harmonics @ basis).reshape(d, d, -1)


def _interval_propagators(block: _FrameBlock, times: np.ndarray, n: int,
                          level: _MagnusLevel | None = None) -> np.ndarray:
    """Product of n equal Magnus steps over each sample interval (n a power of 2).

    The products are stacked (d, d, intervals).  ``times`` is a linspace,
    so every step has the length h of ``level``, the level of these n
    steps (built here when not given), which gives them _CHUNK_STEPS at a
    time, interpolated on its phase grid or built directly; they are
    multiplied pairwise.
    """
    level = level or _MagnusLevel(block, times, n)
    origins, h, d = times[:-1], level.h, block.dim
    out = np.empty((d, d, len(origins)), dtype=complex)
    per = min(n, _CHUNK_STEPS)  # steps of one interval built at once
    group = max(1, _CHUNK_STEPS // n)  # intervals built at once
    for k0 in range(0, len(origins), group):
        k = slice(k0, k0 + group)
        acc = None
        for j0 in range(0, n, per):
            starts = origins[k][:, None] + h * np.arange(j0, j0 + per)
            props = level.steps(starts.ravel()).reshape(d, d, -1, per)
            while props.shape[-1] > 1:
                props = _mul(props[..., 1::2], props[..., 0::2])
            acc = props[..., 0] if acc is None else _mul(props[..., 0], acc)
        out[..., k] = acc
    return out


def _magnus_states(block: _FrameBlock, times: np.ndarray, phi0: np.ndarray, tol: float):
    """Frame states at ``times`` by step doubling.

    Returns (states, steps taken, step exponentials formed, error estimate).

    Substeps per sample interval double from 1 until the Richardson
    estimate max|phi_2N - phi_N| / 63 meets ``tol`` while successive
    differences shrink (or sit at rounding level).  |Omega|_1 is about h g,
    where g = |static|_1 + 2 sum|amplitudes| bounds |G(t)|_1: a level with
    h g above 2^_MAX_SQUARINGS theta_16 is not built, and differs
    infinitely from its neighbours, so two more levels are needed to
    accept.  A block whose g^2 overflows raises before any step is built.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.abs(block.static).sum(axis=0).max() + 2.0 * np.abs(block.amplitudes).sum()
        if not np.isfinite(bound * bound):
            raise IntegrationError("Magnus step generator is not finite; the couplings overflow")
    longest, intervals = float(np.max(np.diff(times))), len(times) - 1
    n, steps, exponentials, prev, diffs = 1, 0, 0, None, []
    while intervals * n <= _MAX_STEPS:
        states = None
        if longest / n * bound <= _THETA16 * 2.0**_MAX_SQUARINGS:
            states = np.empty((len(times), block.dim), dtype=complex)
            states[0] = phi0
            level = _MagnusLevel(block, times, n)
            props = np.moveaxis(_interval_propagators(block, times, n, level), -1, 0)
            for i, u in enumerate(np.ascontiguousarray(props)):
                np.dot(u, states[i], out=states[i + 1])
            steps += intervals * n
            exponentials += level.exponentials
        if n > 1:
            built = states is not None and prev is not None
            diff = float(np.max(np.abs(states - prev))) if built else np.inf
            shrinking = (diffs and diff < diffs[-1]) or diff <= _ROUNDING_FLOOR
            if diff / 63.0 <= tol and shrinking:
                return states, steps, exponentials, diff / 63.0
            diffs.append(diff)
        prev = states
        n *= 2
    raise IntegrationError(
        f"Magnus steps missed rel_tol {tol} within {_MAX_STEPS} steps per block "
        f"(last estimate {diffs[-1] / 63.0 if diffs else float('inf')})"
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
    steps, exponentials, error, touched, columns = 0, 0, 0.0, [], []
    for idx in invariant_blocks(sum(np.abs(m) for _, m in terms)):
        if not np.any(psi[idx]):
            continue
        touched.append(idx)
        block = _FrameBlock(terms, idx)
        phi0 = np.exp(1j * block.energies * times[0]) * psi[idx]
        if len(block.residuals):
            phi, taken, formed, estimate = _magnus_states(block, times, phi0, cfg.rel_tol)
            steps += taken
            exponentials += formed
            error = max(error, estimate)
        else:
            lam, vec = np.linalg.eigh(block.static)
            coeffs = np.exp(-1j * np.outer(times - times[0], lam)) * (vec.conj().T @ phi0)
            phi = coeffs @ vec.T
        columns.append(np.exp(-1j * np.outer(times, block.energies)) * phi)
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

    rho splits along the connected components of the d x d pattern of
    those entries.  A component of one level holds one population, and
    all of them are read in one masked reduction; the others take a
    stacked ``eigvalsh`` of their Hermitian part.
    """
    pattern = np.zeros((d, d), dtype=bool)
    pattern[rows, cols] = True
    comps = invariant_blocks(pattern)  # each component's levels ascend
    sizes = np.array([len(comp) for comp in comps])
    label = np.empty(d, dtype=int)
    label[np.concatenate(comps)] = np.repeat(np.arange(len(comps)), sizes)
    owner = label[rows]
    lam_min = entries[:, sizes[owner] == 1].real.min(axis=1, initial=np.inf)
    for c in np.flatnonzero(sizes > 1):
        comp, inside = comps[c], owner == c
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
    """Vectorized generator L vec(rho) = vec(rho_dot), columns stacked.

    ``H`` is a static ``ComplexOperator`` or None.  The Kronecker pieces
    are gathered as COO triplets, which ``LiouvillianMatrix`` sums once.
    """
    if H is None and not terms:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    if H is not None and not isinstance(H, ComplexOperator):
        raise TypeError("the Liouvillian requires a static Hamiltonian")
    if H is not None and not H.is_hermitian():
        raise ValueError("the Hamiltonian must be Hermitian")
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
    return LiouvillianMatrix(*(np.concatenate(part) for part in zip(*pieces)), layout)


def invariant_blocks(mat) -> list[np.ndarray]:
    """Index sets of the blocks of a generator that never couple to each other.

    These are the weakly connected components of the non-zero pattern of
    ``mat``, a dense array or a ``LiouvillianMatrix`` (whose triplets are
    read directly), so ``mat`` has no entry between two blocks and its
    spectrum, null vectors and exponential split block by block.  A
    generic dense generator is a single block.
    Blocks come in the order of their smallest index, each in ascending
    order.  Every index carries a label, at first itself: each round hooks
    the root label of every edge's end onto the smaller of its two end
    labels and then jumps pointers until every label is a root, so at the
    fixed point each index is labelled by the smallest index of its block.
    """
    rows, cols = mat.nonzero()
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


def _block_spectra(L: LiouvillianMatrix) -> tuple[float, list[np.ndarray]]:
    """|L|_2 and the spectrum of each block of ``L.blocks``, in their order.

    |L|_2 is the largest block norm.  ``L`` preserves Hermiticity,
    L(rho^dag) = L(rho)^dag, as every generator of ``sparse_liouvillian``
    does, so the block on the transposed entries of a block (``_mirrors``)
    is its entrywise conjugate up to the order of its entries: it has the
    same norm and the conjugate spectrum.  One block of each mirrored pair
    is solved, and a block with no imaginary part in real arithmetic.
    """
    blocks, subs = zip(*L.blocks)
    mirrors = _mirrors(blocks, L.layout.dim)
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
    return norm, [own[b] if m >= b else own[m].conj() for b, m in enumerate(mirrors)]


def steady_state(L: LiouvillianMatrix) -> DensityOperator:
    """Unique null-space density operator of a trace-preserving Liouvillian.

    The null and degeneracy counts run over the union of the block
    spectra of ``_block_spectra``, against 1e-9 |L|_2; then only the block
    holding the null eigenvalue is eigendecomposed for its null vector,
    in real arithmetic when the block is real.
    """
    d = L.layout.dim
    norm, spectra = _block_spectra(L)
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
    rho = full.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise IntegrationError("null vector is traceless; not a steady state")
    return DensityOperator(L.layout, rho / tr)
