"""Reference constructions the tests compare the library against.

None of these is on a path a scenario runs; each is written out directly
from its definition so that it can serve as an independent check.
"""

import numpy as np
from scipy.special import gammaln

from fockladder import ComplexOperator, DensityOperator, HilbertLayout, StateVector, field_layout


def tensor(a: ComplexOperator, b: ComplexOperator) -> ComplexOperator:
    """Kronecker product; the layout is the concatenated factor list."""
    return ComplexOperator(a.layout * b.layout, np.kron(a.entries, b.entries))


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
