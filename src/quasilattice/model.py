"""Quasi-lattice model data and the deformation factor.

A chain of N qubits at uniform spacing couples to a single cavity mode
with position-dependent weight cos(j*pi*ell), where ell is the qubit
spacing relative to half the cavity wavelength.  All frequencies are
carried in GHz; with hbar = c = 1 momenta are represented by the
corresponding frequencies.
"""

from __future__ import annotations

import functools
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

    A sweep over ell or omega_q is one LatticeSpec whose relative_spacing
    and omega_q are sequences of one length, one entry per point; they
    are stored as tuples of floats, so a sweep is hashable.  Every point
    shares n_qubits, hence every sector basis.
    """

    n_qubits: int
    relative_spacing: float | tuple[float, ...]
    omega_q: float | tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        for ell, omega_q in _sweep_points(self, "relative_spacing", "omega_q"):  # NaN fails too
            if not 0.0 <= ell <= 1.0:
                raise ValueError(f"relative_spacing must lie in [0, 1], got {ell}")
            if not 0.0 < omega_q < math.inf:
                raise ValueError(f"omega_q must be positive and finite, got {omega_q}")

    @property
    def two_r(self) -> int:
        """Twice the collective spin r = N/2, always an integer."""
        return self.n_qubits

    @functools.cached_property
    def deformation_factor(self) -> float | np.ndarray:
        """``deformation_factor``, formed on first read and kept."""
        n, ell = self.n_qubits, self.relative_spacing
        if not isinstance(ell, tuple):
            return _mean_squared_weight(n, ell)
        f = np.array([_mean_squared_weight(n, x) for x in ell])
        f.flags.writeable = False
        return f


@dataclass(frozen=True)
class CavitySpec:
    """Fundamental cavity mode: frequency omega_c (= mode momentum k0 in
    natural units) and maximal qubit-cavity coupling eta, both GHz.  A
    sweep of them is one CavitySpec, as for ``LatticeSpec``."""

    omega_c: float | tuple[float, ...]
    eta: float | tuple[float, ...]

    def __post_init__(self) -> None:
        for omega_c, eta in _sweep_points(self, "omega_c", "eta"):
            if not 0.0 < omega_c < math.inf:
                raise ValueError(f"omega_c must be positive and finite, got {omega_c}")
            if not 0.0 <= eta < math.inf:
                raise ValueError(f"eta must be nonnegative and finite, got {eta}")

    def detuning(self, lattice: LatticeSpec) -> float | np.ndarray:
        """Cavity-qubit detuning omega_c - omega_q, GHz; one entry per
        point when the cavity or the lattice is a sweep (see ``paired_length``)."""
        if paired_length(lattice, self):
            return np.subtract(self.omega_c, lattice.omega_q)
        return self.omega_c - lattice.omega_q


def _sweep_points(spec: LatticeSpec | CavitySpec, a: str, b: str) -> list[tuple]:
    """The values of the fields a and b of spec at each point.  A sweep, where either is a
    sequence, needs both of one nonzero length, and stores each on spec as a tuple of floats."""
    x, y = getattr(spec, a), getattr(spec, b)
    if not (hasattr(x, "__len__") or hasattr(y, "__len__")):
        return [(x, y)]
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (x.ndim == 1 and x.shape == y.shape and x.size):
        raise ValueError(f"a sweep needs {a} and {b} of one nonzero length")
    for name, value in ((a, x), (b, y)):
        object.__setattr__(spec, name, tuple(value.tolist()))
    return list(zip(getattr(spec, a), getattr(spec, b)))


def paired_length(lattice: LatticeSpec, cavity: CavitySpec) -> int:
    """The point count of a lattice sweep, a cavity sweep or both, 0 for neither.  Two sweeps
    pair point by point, so they must have one length: a one-point sweep does not broadcast."""
    a = len(lattice.omega_q) if isinstance(lattice.omega_q, tuple) else 0
    b = len(cavity.omega_c) if isinstance(cavity.omega_c, tuple) else 0
    if a and b and a != b:
        raise ValueError(f"a lattice sweep of {a} points and a cavity sweep of {b} differ")
    return a or b


def refuse_sweep(caller: str, *specs: LatticeSpec | CavitySpec) -> None:
    """Raise ValueError, naming caller and the kind of spec, when any of specs is a sweep."""
    for spec in specs:
        kind, field = ("lattice", spec.omega_q) if isinstance(spec, LatticeSpec) else ("cavity", spec.omega_c)
        if isinstance(field, tuple):
            raise ValueError(f"{caller} takes one {kind}, not a sweep")


def coupling_weights(lattice: LatticeSpec) -> np.ndarray:
    """Cavity coupling weight of each qubit: entry j is cos(j*pi*ell); for
    a sweep, one row per point."""
    j = np.arange(lattice.n_qubits)
    return np.cos(np.multiply.outer(lattice.relative_spacing, j * math.pi))


def _mean_squared_weight(n: int, ell: float) -> float:
    x = math.pi * ell
    s = math.sin(x)
    if abs(s) < _SIN_LIMIT:
        ratio = (2 * n - 1) * math.cos((2 * n - 1) * x) / math.cos(x)
    else:
        ratio = math.sin((2 * n - 1) * x) / s
    return 0.5 + (1.0 + ratio) / (4.0 * n)


def deformation_factor(lattice: LatticeSpec) -> float | np.ndarray:
    """Departure of the collective spin algebra from SU(2), in (0, 1].

    Equals the mean squared coupling weight,
    1/2 + (1/4N) * [1 + sin((2N-1)*pi*ell) / sin(pi*ell)],
    with the ratio replaced by its analytic limit at ell in {0, 1}
    where sin(pi*ell) vanishes.  A sweep gives a read-only array with one
    entry per point, each as its point alone gives it.  The lattice forms
    it on the first call and keeps it for every caller to share.
    """
    return lattice.deformation_factor
