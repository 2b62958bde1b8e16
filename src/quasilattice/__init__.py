"""Polariton spectra, selective radiation coupling, and spontaneous
decay for a finite qubit quasi-lattice coupled to a cavity mode."""

from .model import (
    CavitySpec,
    LatticeSpec,
    coupling_weights,
    deformation_factor,
)
from .polariton import (
    PolaritonSector,
    SectorBasis,
    TransitionMatrices,
    diagonalize_sector,
    closed_form_coefficients,
    first_excited_transition,
    transition_matrices,
)
from .radiation import (
    DecayResult,
    PrefactorInputs,
    chi,
    chi_closed_form,
    decay_rate,
    pv_integral_check,
    quasi_period,
    s_factor,
)
from .dynamics import (
    AmplitudeTrajectory,
    BathSpec,
    fit_decay,
    integrate_amplitudes,
    normalized_bath,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTrajectory",
    "BathSpec",
    "CavitySpec",
    "DecayResult",
    "LatticeSpec",
    "PolaritonSector",
    "PrefactorInputs",
    "SectorBasis",
    "TransitionMatrices",
    "chi",
    "chi_closed_form",
    "closed_form_coefficients",
    "coupling_weights",
    "decay_rate",
    "deformation_factor",
    "diagonalize_sector",
    "first_excited_transition",
    "fit_decay",
    "integrate_amplitudes",
    "normalized_bath",
    "pv_integral_check",
    "quasi_period",
    "s_factor",
    "transition_matrices",
    "__version__",
]
