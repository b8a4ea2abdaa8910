"""Reference constructions the tests compare the library against.

None of these is on a path a scenario runs; each is written out directly
from its definition so that it can serve as an independent check.
"""

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.special import gammaln

from fockladder import (
    DensityOperator,
    HilbertLayout,
    LiouvillianMatrix,
    StateVector,
    TimeDependentHamiltonian,
    field_layout,
)


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Truncated coherent state |alpha>, renormalized on the cutoff."""
    n = np.arange(cutoff + 1)
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1.0))
    return StateVector(field_layout(cutoff), amps / np.linalg.norm(amps))


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Reduced density operator on the kept factor (all others traced out)."""
    layout = rho.layout
    axis = layout.axis(keep)
    dims = layout.dims
    tens = rho.entries.reshape(dims + dims)
    n = len(dims)
    while n > 1:
        t = n - 1 if axis != n - 1 else n - 2
        tens = np.trace(tens, axis1=t, axis2=t + n)
        if t < axis:
            axis -= 1
        n -= 1
    return DensityOperator(HilbertLayout((layout.factors[layout.axis(keep)],)), tens)


def dense(L: LiouvillianMatrix) -> np.ndarray:
    """The d^2 x d^2 array of a map on vec(rho), written out from its triplets."""
    out = np.zeros(L.shape, dtype=complex)
    out[L.rows, L.cols] = L.values
    return out


def as_liouvillian(mat, layout: HilbertLayout) -> LiouvillianMatrix:
    """The map on vec(rho) holding the entries of a dense array or a scipy
    sparse matrix, passed to ``LiouvillianMatrix`` as COO triplets."""
    coo = scipy.sparse.coo_matrix(mat)
    return LiouvillianMatrix(coo.row, coo.col, coo.data, layout)


def kron_liouvillian(H, terms) -> scipy.sparse.csr_matrix:
    """Column-stacked Lindblad generator summed from ``scipy.sparse.kron`` pieces.

    vec(A rho B) = (B^T (x) A) vec(rho), so -i[H, rho] is
    -i (1 (x) H - H^T (x) 1) and each jump J at rate g adds
    (g/2) (2 conj(J) (x) J - 1 (x) J^dag J - (J^dag J)^T (x) 1).
    """
    layout = H.layout if H is not None else terms[0].jump.layout
    d = layout.dim
    eye = scipy.sparse.identity(d, dtype=complex, format="csr")
    kron = scipy.sparse.kron
    L = scipy.sparse.csr_matrix((d * d, d * d), dtype=complex)
    if H is not None:
        hm = scipy.sparse.csr_matrix(H.entries)
        L = L - 1j * (kron(eye, hm) - kron(hm.T, eye))
    for term in terms:
        j = scipy.sparse.csr_matrix(term.jump.entries)
        jdj = j.conj().T @ j
        L = L + (term.rate / 2.0) * (
            2.0 * kron(j.conj(), j) - kron(eye, jdj) - kron(jdj.T, eye)
        )
    return L.tocsr()


def csgraph_blocks(mat) -> list[np.ndarray]:
    """Weakly connected components of the non-zero pattern of ``mat`` from
    ``scipy.sparse.csgraph``, ordered by label and ascending within each."""
    count, labels = connected_components(
        scipy.sparse.csr_matrix(mat != 0), directed=True, connection="weak")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def csgraph_frame_energies(freqs, rows, cols, d: int) -> np.ndarray:
    """Frame energies of one block of H, of d levels, from scipy's undirected
    breadth-first spanning tree: E_v = E_pred(v) - w on the tree edge from
    pred(v) to v.  The block's entries of ``_half_terms`` sit at local
    (rows, cols) with frequencies ``freqs``; the first one on an edge names it."""
    edge = {}
    for i, j, w in zip(rows.tolist(), cols.tolist(), freqs.tolist()):
        if i != j:
            edge.setdefault((i, j), w)
            edge.setdefault((j, i), -w)
    graph = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(d, d))
    order, pred = breadth_first_order(graph, 0, directed=False, return_predecessors=True)
    energies = np.zeros(d)
    for v in order[1:]:
        energies[v] = energies[pred[v]] - edge[(v, pred[v])]
    return energies


def dense_hamiltonian(h: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """H(t) = sum_k c_k e^{i w_k t} T_k + H.c. as a dense array, summed from the terms' triplets."""
    d = h.layout.dim
    half = np.zeros((d, d), dtype=complex)
    for c, w, rows, cols, values in h.terms:
        np.add.at(half, (rows, cols), c * np.exp(1j * w * t) * values)
    return half + half.conj().T
