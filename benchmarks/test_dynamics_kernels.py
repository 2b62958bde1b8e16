"""pytest-benchmark kernel for the dynamics layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_dynamics_kernels.py --benchmark-only

The kernel carries no timing asserts.  ``integrate_amplitudes`` runs at
the ``dynamics`` defaults: N=4, ell=2/3, omega_q=3*6.729 GHz, a 601-mode
bath of bandwidth 0.5 GHz, dt=0.2 ns, every 10th step sampled, and the
horizon the command picks, min(3/gamma, 0.8 * recurrence time).  This is
the propagation of the bath-decay benchmark workload.  One more call,
untimed and under ``tracemalloc``, records the peak of the arrays it
allocates as ``extra_info["tracemalloc_peak_mb"]``.
"""

import math
import tracemalloc

import numpy as np

from quasilattice import dynamics, radiation
from quasilattice.model import CavitySpec, LatticeSpec

LATTICE = LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=3 * 6.729)
CAVITY = CavitySpec(omega_c=6.729, eta=0.1)


def test_integrate_amplitudes(benchmark):
    bath = dynamics.normalized_bath(LATTICE, 0.5, 601)
    gamma = radiation.decay_rate(LATTICE, CAVITY).gamma_normalized
    t_final = min(3.0 / gamma, 0.8 * 2.0 * math.pi / bath.spacing)
    traj = benchmark(
        dynamics.integrate_amplitudes, LATTICE, CAVITY, bath, t_final, 0.2, sample_stride=10
    )
    assert traj.alpha.size == 19329
    assert np.max(np.abs(1.0 - traj.norm_history)) < 1e-12
    tracemalloc.start()
    try:
        dynamics.integrate_amplitudes(LATTICE, CAVITY, bath, t_final, 0.2, sample_stride=10)
        benchmark.extra_info["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
