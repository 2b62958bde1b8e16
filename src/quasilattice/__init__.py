"""Polariton spectra, selective radiation coupling, and spontaneous
decay for a finite qubit quasi-lattice coupled to a cavity mode.

The import is lazy: a public name, or one of the submodules ``model``,
``polariton``, ``radiation`` and ``dynamics``, loads its module on first
access (PEP 562).
"""

import importlib

_EXPORTS = {
    "model": ["CavitySpec", "LatticeSpec", "coupling_weights", "deformation_factor"],
    "polariton": [
        "PolaritonSector",
        "SectorBasis",
        "TransitionMatrices",
        "diagonalize_sector",
        "closed_form_coefficients",
        "first_excited_transition",
        "transition_matrices",
    ],
    "radiation": [
        "DecayResult",
        "PrefactorInputs",
        "chi",
        "decay_rate",
        "pv_integral_check",
        "quasi_period",
        "s_factor",
    ],
    "dynamics": ["AmplitudeTrajectory", "BathSpec", "fit_decay", "integrate_amplitudes", "normalized_bath"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
