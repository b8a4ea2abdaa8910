"""Complex linear algebra on truncated tensor-product Hilbert spaces.

Operators, state vectors and density operators live on a declared
:class:`HilbertLayout` of tensor factors.  The convention throughout is
atom factor first, field factor second (the atom index varies slowest),
so serialized states are reproducible.  All values are immutable after
construction; every operation returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

ATOM = "atom"
FIELD = "field"

NORM_TOL = 1e-9


class LayoutError(ValueError):
    """Mismatched or unknown tensor factors."""


class StateValidityError(ValueError):
    """A state or density operator violates its defining invariants."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered tensor factors (label, dimension) of a product space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((str(l), int(d)) for l, d in self.factors))
        labels = [l for l, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate factor labels in {labels}")
        for label, d in self.factors:
            if d < 2:
                raise LayoutError(f"factor {label!r} has dimension {d} < 2")

    @cached_property
    def dim(self) -> int:
        return int(np.prod([d for _, d in self.factors]))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown factor {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def __mul__(self, other: "HilbertLayout") -> "HilbertLayout":
        return HilbertLayout(self.factors + other.factors)


def atom_field_layout(atom_dim: int, cutoff: int) -> HilbertLayout:
    """Standard atom (x) field layout with Fock cutoff ``cutoff``."""
    return HilbertLayout(((ATOM, atom_dim), (FIELD, cutoff + 1)))


def field_layout(cutoff: int) -> HilbertLayout:
    return HilbertLayout(((FIELD, cutoff + 1),))


@dataclass(frozen=True)
class ComplexOperator:
    """Dense complex matrix acting on a declared layout."""

    layout: HilbertLayout
    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen(np.asarray(self.entries))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise LayoutError(f"operator entries must be square, got {mat.shape}")
        if mat.shape[0] != self.layout.dim:
            raise LayoutError(
                f"operator dimension {mat.shape[0]} != layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "entries", mat)

    def dag(self) -> "ComplexOperator":
        return ComplexOperator(self.layout, self.entries.conj().T)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on a layout."""

    layout: HilbertLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).ravel())
        if amps.shape[0] != self.layout.dim:
            raise LayoutError(
                f"state dimension {amps.shape[0]} != layout dimension {self.layout.dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise StateValidityError(f"state norm {np.linalg.norm(amps)} != 1")
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix on a layout (construction does not check its invariants)."""

    layout: HilbertLayout
    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen(np.asarray(self.entries))
        if mat.ndim != 2 or mat.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"density matrix shape {mat.shape} incompatible with layout dim {self.layout.dim}"
            )
        object.__setattr__(self, "entries", mat)

    def symmetrized(self) -> "DensityOperator":
        return DensityOperator(self.layout, 0.5 * (self.entries + self.entries.conj().T))


# ---------------------------------------------------------------------------
# operator constructors


def annihilation(cutoff: int) -> ComplexOperator:
    """Bosonic annihilation operator a on Fock states |0..cutoff>."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        a[n - 1, n] = np.sqrt(n)
    return ComplexOperator(field_layout(cutoff), a)


def atomic_sigma(r: str, s: str, levels: tuple[str, ...]) -> ComplexOperator:
    """Atomic transition operator |r><s| over an ordered level list."""
    levels = tuple(levels)
    for label in (r, s):
        if label not in levels:
            raise ValueError(f"unknown atomic level {label!r}; have {levels}")
    d = len(levels)
    mat = np.zeros((d, d), dtype=complex)
    mat[levels.index(r), levels.index(s)] = 1.0
    return ComplexOperator(HilbertLayout(((ATOM, d),)), mat)


def nonzero_triplets(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO (rows, cols, values) of the non-zero entries of a 2-d array, in row-major order."""
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def kron_triplets(a, b, n: int, scale: complex = 1.0):
    """COO (rows, cols, values) of scale * kron(A, B) from the triplets ``a`` of A and ``b`` of an n x n B."""
    (ar, ac, av), (br, bc, bv) = a, b
    return ((ar[:, None] * n + br).ravel(), (ac[:, None] * n + bc).ravel(),
            (scale * av[:, None] * bv).ravel())


# ---------------------------------------------------------------------------
# state constructors


def fock_state(n: int, cutoff: int) -> StateVector:
    if not 0 <= n <= cutoff:
        raise ValueError(f"Fock index {n} out of range for cutoff {cutoff}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return StateVector(field_layout(cutoff), amps)


def field_superposition(amplitudes: dict[int, complex], cutoff: int) -> StateVector:
    """Normalized superposition of Fock states from an index -> amplitude map."""
    amps = np.zeros(cutoff + 1, dtype=complex)
    for n, c in amplitudes.items():
        if not 0 <= int(n) <= cutoff:
            raise ValueError(f"Fock index {n} out of range for cutoff {cutoff}")
        amps[int(n)] = c
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("all amplitudes vanish")
    return StateVector(field_layout(cutoff), amps / norm)


def atom_state(amplitudes: dict[str, complex], levels: tuple[str, ...]) -> StateVector:
    amps = np.zeros(len(levels), dtype=complex)
    for label, c in amplitudes.items():
        if label not in levels:
            raise ValueError(f"unknown atomic level {label!r}; have {levels}")
        amps[levels.index(label)] = c
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("all amplitudes vanish")
    return StateVector(HilbertLayout(((ATOM, len(levels)),)), amps / norm)


def product_state(*states: StateVector) -> StateVector:
    layout = reduce(lambda a, b: a * b, (s.layout for s in states))
    amps = reduce(np.kron, (s.amplitudes for s in states))
    return StateVector(layout, amps)


def thermal_state(n_bar: float, cutoff: int) -> DensityOperator:
    """Truncated Bose-Einstein thermal field state, renormalized on the cutoff."""
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    if n_bar == 0:
        pops = np.zeros(cutoff + 1)
        pops[0] = 1.0
    else:
        n = np.arange(cutoff + 1)
        pops = (n_bar / (1.0 + n_bar)) ** n / (1.0 + n_bar)
        pops /= pops.sum()
    return DensityOperator(field_layout(cutoff), np.diag(pops).astype(complex))


# ---------------------------------------------------------------------------
# contractions


def field_populations(layout: HilbertLayout, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Field populations P_n from the weights of some basis states of ``layout``.

    ``weights[..., k]`` is the probability held by the distinct flat basis
    position ``index[k]`` (|amplitude|^2, or the real diagonal of a density
    matrix); every other basis state holds none.  Each weight is added into
    its field level, in ascending basis order, so the atom is summed out in
    the same order as over the whole basis; any leading axes are kept.
    """
    axis = layout.axis(FIELD)
    levels = np.unravel_index(index, layout.dims)[axis]
    # an entry's position with its field at |0> names its atom level (the
    # other factors); in ascending order these keep the basis order, and
    # the entries of one atom level hold distinct field levels
    others = index - levels * math.prod(layout.dims[axis + 1:])
    out = np.zeros(weights.shape[:-1] + (layout.dim_of(FIELD),))
    # an ascending index holds each level's field levels in ascending order, so
    # entries and field levels whose endpoints span as many places as they number add as slices
    ascending = bool(np.all(index[1:] > index[:-1]))
    for other in np.unique(others):
        k = np.flatnonzero(others == other)
        span, first = len(k) - 1, levels[k[0]]
        if ascending and k[-1] - k[0] == span and levels[k[-1]] - first == span:
            out[..., first:first + span + 1] += weights[..., k[0]:k[-1] + 1]
        else:
            out[..., levels[k]] += weights[..., k]
    return out
