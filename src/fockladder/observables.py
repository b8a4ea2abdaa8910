"""Scalar diagnostics over states and trajectories.

Fock probabilities, Fock-state fidelity, Mandel Q, trace distance and
steady-state detection over one sampled column.  Field populations
come from ``hilbert.field_populations``, the reader that
``Trajectory.populations`` uses, so a single state and a trajectory
sample give the same bits.  Mandel Q has one vacuum rule:
``photon_mandel_q`` is NaN wherever the mean photon number is below
MEAN_PHOTON_FLOOR, and ``mandel_q`` of one state raises
VacuumDominatedError there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityOperator,
    LayoutError,
    StateVector,
    field_populations,
)

MEAN_PHOTON_FLOOR = 1e-9


class VacuumDominatedError(ValueError):
    """Mandel Q is undefined for a vanishing mean photon number."""


def fock_probabilities(state: StateVector | DensityOperator) -> np.ndarray:
    """P_n of the field factor (atom summed out when present)."""
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
    else:
        probs = np.real(np.diagonal(state.entries))
    return field_populations(state.layout, np.arange(state.layout.dim), probs)


def fidelity_fock(rho: StateVector | DensityOperator, n: int) -> float:
    """Overlap with the Fock state |n>: the n-th field population."""
    pops = fock_probabilities(rho)
    if not 0 <= n < len(pops):
        raise ValueError(f"Fock index {n} out of range for cutoff {len(pops) - 1}")
    return float(pops[n])


def mandel_q(state: StateVector | DensityOperator) -> float:
    """Q = (<n^2> - <n>^2 - <n>) / <n>; -1 for Fock states, 0 for coherent.

    Raises VacuumDominatedError when <n> is below MEAN_PHOTON_FLOOR.
    """
    pops = fock_probabilities(state)
    mean = photon_mean(pops)
    if mean < MEAN_PHOTON_FLOOR:
        raise VacuumDominatedError(f"mean photon number {mean} below {MEAN_PHOTON_FLOOR}; Q undefined")
    return float(photon_mandel_q(pops))


def photon_mean(pops: np.ndarray) -> np.ndarray:
    """<n> of Fock populations along the last axis of ``pops``."""
    return pops @ np.arange(pops.shape[-1])


def photon_mandel_q(pops: np.ndarray) -> np.ndarray:
    """Mandel Q of Fock populations along the last axis of ``pops``.

    NaN on every row whose mean photon number is below MEAN_PHOTON_FLOOR,
    where Q is undefined.
    """
    n = np.arange(pops.shape[-1])
    mean = pops @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (pops @ (n ** 2) - mean ** 2 - mean) / mean
    return np.where(mean >= MEAN_PHOTON_FLOOR, q, np.nan)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of a - b."""
    if a.layout != b.layout:
        raise LayoutError("density operators live on different layouts")
    diff = a.entries - b.entries
    eigvals = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(eigvals)))


@dataclass
class ObservableSeries:
    """Sampled named real columns over a common time axis."""

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            if col.shape != self.times.shape:
                raise ValueError(f"column {name!r} length mismatch")
            self.columns[name] = col


def detect_steady(times: np.ndarray, values: np.ndarray, window: float, eps: float) -> float | None:
    """Earliest sample time after which ``values`` stays within eps.

    Requires at least one full trailing window of evidence; returns None
    when the column never settles.
    """
    if times.size == 0:
        raise ValueError("empty series")
    span = times[-1] - times[0]
    if window > span:
        raise ValueError(f"window {window} longer than series span {span}")
    # the earliest start is searched only while a full window remains after it
    short = np.flatnonzero(times[-1] - times < window)
    limit = short[0] if short.size else times.size
    tail = values[::-1]
    spread = np.maximum.accumulate(tail)[::-1] - np.minimum.accumulate(tail)[::-1]
    first = np.flatnonzero(spread[:limit] < eps)
    return float(times[first[0]]) if first.size else None
