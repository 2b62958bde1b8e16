"""Quasi-lattice model data and the deformation factor.

A chain of N qubits at uniform spacing couples to a single cavity mode
with position-dependent weight cos(j*pi*ell), where ell is the qubit
spacing relative to half the cavity wavelength.  All frequencies are
carried in GHz; with hbar = c = 1 momenta are represented by the
corresponding frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this, sin(pi*ell) is treated as a removable zero and the
# deformation-factor ratio is evaluated by its analytic limit.
_SIN_LIMIT = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Physical layout of the qubit chain.

    n_qubits: number of qubits N (>= 1).
    relative_spacing: qubit spacing over half the cavity wavelength,
        dimensionless, in [0, 1].
    omega_q: uniform qubit level spacing, GHz.
    """

    n_qubits: int
    relative_spacing: float
    omega_q: float

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if not 0.0 <= self.relative_spacing <= 1.0:
            raise ValueError(
                f"relative_spacing must lie in [0, 1], got {self.relative_spacing}"
            )
        if not 0.0 < self.omega_q < math.inf:
            raise ValueError(f"omega_q must be positive and finite, got {self.omega_q}")

    @property
    def two_r(self) -> int:
        """Twice the collective spin r = N/2, always an integer."""
        return self.n_qubits

    @property
    def k_q(self) -> float:
        """Qubit transition momentum in natural units (equals omega_q)."""
        return self.omega_q


@dataclass(frozen=True)
class CavitySpec:
    """Fundamental cavity mode: frequency omega_c (= mode momentum k0 in
    natural units) and maximal qubit-cavity coupling eta, both GHz."""

    omega_c: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_c < math.inf:
            raise ValueError(f"omega_c must be positive and finite, got {self.omega_c}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")

    def detuning(self, lattice: LatticeSpec) -> float:
        """Cavity-qubit detuning omega_c - omega_q, GHz."""
        return self.omega_c - lattice.omega_q


def sweep_points(lattice: LatticeSpec | tuple[LatticeSpec, ...]) -> tuple[LatticeSpec, ...]:
    """The points of a sweep: a tuple of LatticeSpecs as is, one LatticeSpec
    as a one-point sweep.  The points share every sector basis, so they
    must share n_qubits; raises ValueError otherwise or when there are none."""
    points = (lattice,) if isinstance(lattice, LatticeSpec) else tuple(lattice)
    if not points or any(p.n_qubits != points[0].n_qubits for p in points):
        raise ValueError("a sweep needs at least one point, all with the same n_qubits")
    return points


def unstack(stack, lattice: LatticeSpec | tuple[LatticeSpec, ...]):
    """A per-point stack (leading point axis) as is for a tuple of
    lattices, and its one point for a single LatticeSpec."""
    return stack[0] if isinstance(lattice, LatticeSpec) else stack


def coupling_weights(lattice: LatticeSpec) -> np.ndarray:
    """Cavity coupling weight of each qubit: entry j is cos(j*pi*ell)."""
    j = np.arange(lattice.n_qubits)
    return np.cos(j * math.pi * lattice.relative_spacing)


def deformation_factor(lattice: LatticeSpec) -> float:
    """Departure of the collective spin algebra from SU(2), in (0, 1].

    Equals the mean squared coupling weight,
    1/2 + (1/4N) * [1 + sin((2N-1)*pi*ell) / sin(pi*ell)],
    with the ratio replaced by its analytic limit at ell in {0, 1}
    where sin(pi*ell) vanishes.
    """
    n = lattice.n_qubits
    x = math.pi * lattice.relative_spacing
    s = math.sin(x)
    if abs(s) < _SIN_LIMIT:
        ratio = (2 * n - 1) * math.cos((2 * n - 1) * x) / math.cos(x)
    else:
        ratio = math.sin((2 * n - 1) * x) / s
    return 0.5 + (1.0 + ratio) / (4.0 * n)
