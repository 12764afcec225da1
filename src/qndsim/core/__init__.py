"""Open-quantum-system engine on plain arrays: operators, Lindblad evolution, correlators."""

from .correlations import psd, two_time_correlation
from .dynamics import (
    LindbladModel,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    steady_state,
)
from .operators import check_states, destroy, embed, pauli

__all__ = [
    "LindbladModel",
    "check_states",
    "destroy",
    "embed",
    "evolve",
    "lindblad_rhs",
    "liouvillian_matrix",
    "pauli",
    "psd",
    "steady_state",
    "two_time_correlation",
]
