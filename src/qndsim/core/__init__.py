"""Open-quantum-system engine: operators, Lindblad evolution, correlators."""

from .correlations import psd, two_time_correlation
from .dynamics import (
    LindbladModel,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    steady_state,
)
from .operators import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    basis_ket,
    destroy,
    embed,
    expectation,
    number,
    pauli,
)
from .traces import Trace

__all__ = [
    "DensityMatrix",
    "HilbertSpace",
    "LindbladModel",
    "Operator",
    "Trace",
    "basis_ket",
    "destroy",
    "embed",
    "evolve",
    "expectation",
    "lindblad_rhs",
    "liouvillian_matrix",
    "number",
    "pauli",
    "psd",
    "steady_state",
    "two_time_correlation",
]
