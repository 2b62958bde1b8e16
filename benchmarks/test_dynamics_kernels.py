"""pytest-benchmark kernels for the dynamics layer.

Outside the Tier-1 ``testpaths``; run explicitly with

    python -m pytest benchmarks/test_dynamics_kernels.py --benchmark-only

The kernels carry no timing asserts.  ``integrate_amplitudes`` runs at
the ``dynamics`` defaults: N=4, ell=2/3, omega_q=3*6.729 GHz, a 601-mode
bath of bandwidth 0.5 GHz, dt=0.2 ns and the horizon the command picks,
min(3/gamma, 0.8 * recurrence time): at every step (stride 1, 19 329
steps), at the command's default ``--sample-stride`` 10 (1933 written
steps), the call of the bath-decay benchmark workload, and at strides 9
(2148 written steps) and 141 (138), which do not divide the block
length isqrt(19328) + 1 = 140 and so take B = 144 and 141.  Its
amplitude s(omega_k) is formed before the timed call, as the command
forms it.  One more call, untimed and under ``tracemalloc``, records the
peak of the arrays it allocates as ``extra_info["tracemalloc_peak_mb"]``.
The timed call's error bound, ``AmplitudeTrajectory.error_bound``, must
stay below 1e-12 (it reaches about 5.2e-13 at these settings).

The arrowhead eigensolver of ``integrate_amplitudes``, ``_bright_eigh``,
is timed against ``np.linalg.eigh`` of the dense arrowhead it replaces,
on the default bath at 151, 601 and 2401 modes, and alone on a partly
dark bath, every third coupling zero, at 601 and 2401 modes.  After each
timed ``_bright_eigh``, an untimed call under ``tracemalloc`` records its
peak as ``extra_info["tracemalloc_peak_mb"]``: the solver returns the
weights V_0j and no eigenvector rows, so its scratch stays one pair of
``_SOLVER_BLOCK`` arrays at any mode count.  ``dynamics --modes 2401``
runs in a fresh interpreter, as a user runs it, through the
``cli_process`` fixture of ``conftest.py``, which records its wall time
and its own ``ru_maxrss`` in ``extra_info["wall_s"]`` and
``extra_info["ru_maxrss_mb"]``.
"""

import tracemalloc

import numpy as np
import pytest

from quasilattice import dynamics, radiation
from quasilattice.model import CavitySpec, LatticeSpec

LATTICE = LatticeSpec(n_qubits=4, relative_spacing=2.0 / 3.0, omega_q=3 * 6.729)
CAVITY = CavitySpec(omega_c=6.729, eta=0.1)


@pytest.mark.parametrize("stride, steps", [(1, 19329), (10, 1933), (9, 2148), (141, 138)])
def test_integrate_amplitudes(benchmark, stride, steps):
    bath = dynamics.normalized_bath(LATTICE.omega_q, 0.5, 601)
    gamma = radiation.decay_rate(LATTICE, CAVITY).gamma_normalized
    t_final = min(3.0 / gamma, 0.8 * bath.recurrence_time)
    s_k = radiation.s_factor(LATTICE, CAVITY, bath.mode_frequencies)
    args = (LATTICE.omega_q, s_k, bath, t_final, 0.2, stride)
    traj = benchmark(dynamics.integrate_amplitudes, *args)
    assert traj.alpha.size == steps
    assert np.max(traj.error_bound) < 1e-12
    benchmark.extra_info["tracemalloc_peak_mb"] = _traced_peak_mb(
        dynamics.integrate_amplitudes, *args
    )


def _traced_peak_mb(run, *args, **kwargs):
    """The tracemalloc peak, MB, of one untimed call run(*args, **kwargs)."""
    tracemalloc.start()
    try:
        run(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _arrowhead(n_modes, dark=False):
    """Diagonal and border of the default bath's arrowhead, as
    ``integrate_amplitudes`` forms them; with every third coupling zero
    if dark."""
    bath = dynamics.normalized_bath(LATTICE.omega_q, 0.5, n_modes)
    s_k = radiation.s_factor(LATTICE, CAVITY, bath.mode_frequencies)
    z = bath.couplings * np.abs(s_k)
    if dark:
        z[::3] = 0.0
    return (LATTICE.omega_q - bath.mode_frequencies)[::-1], z[::-1]


@pytest.mark.parametrize("n_modes", [151, 601, 2401])
@pytest.mark.parametrize("solver", ["secular", "eigh"])
def test_arrowhead_eigensolver(benchmark, solver, n_modes):
    d, z = _arrowhead(n_modes)
    if solver == "secular":
        run, args = dynamics._bright_eigh, (d, z)
    else:
        h = np.diag(np.concatenate(([0.0], d)))
        h[0, 1:] = h[1:, 0] = z
        run, args = np.linalg.eigh, (h,)
    rounds = 3 if n_modes > 1000 else 15
    lam = benchmark.pedantic(run, args=args, rounds=rounds, warmup_rounds=1)[0]
    assert lam.size == n_modes + 1
    if solver == "secular":
        benchmark.extra_info["tracemalloc_peak_mb"] = _traced_peak_mb(run, *args)


@pytest.mark.parametrize("n_modes", [601, 2401])
def test_partly_dark_arrowhead(benchmark, n_modes):
    d, z = _arrowhead(n_modes, dark=True)
    rounds = 3 if n_modes > 1000 else 15
    lam = benchmark.pedantic(dynamics._bright_eigh, args=(d, z), rounds=rounds, warmup_rounds=1)[0]
    assert lam.size == n_modes + 1 - np.count_nonzero(z == 0)
    benchmark.extra_info["tracemalloc_peak_mb"] = _traced_peak_mb(dynamics._bright_eigh, d, z)


def test_dynamics_2401_modes_subprocess(benchmark, cli_process, tmp_path):
    runs = []
    benchmark.pedantic(lambda: runs.append(cli_process(
        "dynamics", "--modes", "2401", "--out", str(tmp_path / "dyn.csv"))), rounds=3, warmup_rounds=0)
    benchmark.extra_info["wall_s"] = [wall for wall, _ in runs]
    benchmark.extra_info["ru_maxrss_mb"] = [peak for _, peak in runs]
