import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from modrabi.dynamics import (_DIAGONAL_WEIGHTS, _MAX_BLOCK, DEFAULT_OBSERVABLES, DP5,
                              MAX_RHS_EVALS, RK4, TABLEAUS, Dissipator, IntegratorConfig,
                              Tableau, _csr_kernel, _Generator, _jump_superoperator,
                              _lindblad, _ObservableSet, _parity_blocks, _plan,
                              dissipator_frame_defect, evolve_master, evolve_schrodinger,
                              extract_period, fidelity, loss_dissipators)
from modrabi.errors import NumericsError, ValidationError
from modrabi.hamiltonians import (TimeDependentHamiltonian, dicke_hamiltonian,
                                  effective_hamiltonian, frame_phases,
                                  jx_field_hamiltonian, lab_hamiltonian, model,
                                  rotated_hamiltonian)
from modrabi.hilbert import (DensityMatrix, HilbertSpace, Operator, PureState,
                             annihilation, basis_labels, basis_state, coherent_state,
                             embed_resonator, qubit_operator)
from modrabi.modulation import (DriveParams, EffectiveParams, SystemParams,
                                effective_params)
from modrabi.scenarios import (load_scenario, load_scenario_document, parse_scenario,
                               run_simulation)
from oracles import number_operator

TWO_PI = 2 * math.pi
GHZ = TWO_PI * 1e9
MHZ = TWO_PI * 1e6
NS = 1e-9

SYS = SystemParams(epsilon=5.4 * GHZ, omega=2.2 * GHZ, g=70 * MHZ,
                   kappa=0.05 * MHZ, gamma=0.012 * MHZ)
DRIVE_A = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ,
                      eta1=2.296 / 3.2, eta2=4.849 / 6.759)

JC_EFF = EffectiveParams(g_r=-20 * MHZ, g_cr=0.0, omega_eff=17.5 * MHZ,
                         epsilon_eff=17.5 * MHZ, theta=0.0, anisotropy=0.0)


def zero_hamiltonian(space):
    z = np.zeros((space.dim, space.dim), dtype=complex)
    return TimeDependentHamiltonian(space=space, static=z,
                                    descriptor={"kind": "zero", "suggested_dt": 1.0})


def test_zero_hamiltonian_identity_evolution():
    space = HilbertSpace(1, 4)
    psi0 = basis_state(space, "e", 2)
    times = np.linspace(0.0, 5.0, 11)
    traj = evolve_schrodinger(zero_hamiltonian(space), psi0, times)
    assert np.max(np.abs(traj.states[-1] - psi0.amplitudes)) < 1e-12
    assert traj.diagnostics["norm_drift"] < 1e-12


def test_resonant_jc_full_transfer_and_period():
    space = HilbertSpace(1, 6)
    H = model("jc", JC_EFF, space)
    psi0 = basis_state(space, "e", 0)
    period = math.pi / abs(JC_EFF.g_r)
    times = np.linspace(0.0, 2.2 * period, 1201)
    traj = evolve_schrodinger(H, psi0, times)
    pop = traj.observables["sigma_pop"]
    # full transfer to |1, g> halfway through the cycle
    half_idx = int(np.argmin(np.abs(traj.times - period / 2)))
    assert pop[half_idx] < 5e-5
    est = extract_period(traj.times, pop)
    assert est.period == pytest.approx(period, rel=0.02)


def test_constant_hamiltonian_matches_expm_oracle():
    rng = np.random.default_rng(42)
    space = HilbertSpace(1, 5)
    h = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    h = 0.5 * (h + h.conj().T)
    H = TimeDependentHamiltonian(space=space, static=h,
                                 descriptor={"suggested_dt": 1e-3})
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 = PureState(space, v / np.linalg.norm(v))
    t_end = 2.0
    times = np.linspace(0.0, t_end, 5)
    traj = evolve_schrodinger(H, psi0, times)
    assert traj.diagnostics["method"] == "spectral"
    expected = expm(-1j * h * t_end) @ psi0.amplitudes
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-8
    traj_rk4 = evolve_schrodinger(H, psi0, times,
                                  IntegratorConfig(method="fixed_rk4", dt=2e-4))
    assert np.max(np.abs(traj_rk4.states[-1] - expected)) < 1e-8


def test_pure_photon_decay_law():
    space = HilbertSpace(1, 4)
    gamma = 0.8
    rho0 = basis_state(space, "g", 1).density_matrix()
    times = np.linspace(0.0, 3.0, 61)
    traj = evolve_master(zero_hamiltonian(space),
                         [Dissipator(annihilation(space), gamma)], rho0, times,
                         IntegratorConfig(method="fixed_dp5", dt=0.01))
    expected = np.exp(-gamma * times)
    assert np.max(np.abs(traj.observables["photon_number"] - expected)) < 1e-6
    assert traj.diagnostics["trace_drift"] < 1e-8


def test_pure_qubit_decay_law():
    space = HilbertSpace(1, 3)
    kappa = 1.1
    rho0 = basis_state(space, "e", 0).density_matrix()
    times = np.linspace(0.0, 2.5, 51)
    traj = evolve_master(zero_hamiltonian(space),
                         [Dissipator(qubit_operator(space, 0, "sm"), kappa)],
                         rho0, times, IntegratorConfig(method="fixed_dp5", dt=0.01))
    expected = np.exp(-kappa * times)
    assert np.max(np.abs(traj.observables["sigma_pop"] - expected)) < 1e-6


def test_master_with_zero_rates_preserves_purity():
    space = HilbertSpace(1, 6)
    H = model("jc", JC_EFF, space)
    rho0 = basis_state(space, "e", 0).density_matrix()
    period = math.pi / abs(JC_EFF.g_r)
    times = np.linspace(0.0, period, 41)
    traj = evolve_master(H, [], rho0, times,
                         IntegratorConfig(method="fixed_dp5", dt=H.descriptor["suggested_dt"]))
    assert np.max(np.abs(traj.observables["purity"] - 1.0)) < 1e-8
    assert traj.observables["trace"] == pytest.approx(1.0, abs=1e-8)


def test_master_agrees_with_schrodinger_without_dissipation():
    space = HilbertSpace(1, 8)
    eff = effective_params(SYS, DRIVE_A)
    H = effective_hamiltonian(eff, space)
    psi0 = basis_state(space, "g", 0)
    times = np.linspace(0.0, 20 * NS, 81)
    t_psi = evolve_schrodinger(H, psi0, times)                  # spectral
    t_rho = evolve_master(H, [], psi0.density_matrix(), times,
                          IntegratorConfig(method="fixed_dp5", dt=H.descriptor["suggested_dt"]))
    for name in ("sigma_pop", "photon_number"):
        assert np.max(np.abs(t_psi.observables[name] - t_rho.observables[name])) < 1e-7


def test_lindblad_dissipative_run_integrity():
    space = HilbertSpace(1, 8)
    eff = effective_params(SYS, DRIVE_A)
    H = effective_hamiltonian(eff, space)
    rho0 = basis_state(space, "g", 0).density_matrix()
    times = np.linspace(0.0, 25 * NS, 101)
    traj = evolve_master(H, loss_dissipators(SYS, space), rho0, times,
                         IntegratorConfig(method="fixed_dp5", dt=H.descriptor["suggested_dt"]),
                         store_states=True)
    assert traj.diagnostics["trace_drift"] < 1e-8
    assert traj.diagnostics["min_eigenvalue"] > -1e-6
    rho = traj.states[-1]
    assert np.real(np.trace(rho @ rho)) <= 1.0 + 1e-9


def test_positivity_abort_on_unstable_step():
    # a grossly misconfigured fixed step blows the integration up; the
    # positivity monitor must surface it instead of returning garbage
    space = HilbertSpace(1, 4)
    eff = EffectiveParams(g_r=-50.0, g_cr=-50.0, omega_eff=40.0, epsilon_eff=0.0,
                          theta=0.0, anisotropy=1.0)
    H = model("qrm", eff, space)
    rho0 = basis_state(space, "e", 0).density_matrix()
    times = np.linspace(0.0, 3.0, 31)
    with pytest.raises(NumericsError) as err:
        evolve_master(H, [], rho0, times,
                      IntegratorConfig(method="fixed_rk4", dt=0.1))
    assert "positivity" in str(err.value)
    assert err.value.diagnostics["min_eigenvalue"] < -1e-6


def test_trace_guard_aborts_growing_trace():
    # H + i gamma 1 keeps rho positive but multiplies it by e^{2 gamma t}; the
    # trace check runs in every Lindblad run, with or without stored states
    space = HilbertSpace(1, 3)
    h = np.diag(np.arange(space.dim, dtype=complex))
    h[0, 1] = h[1, 0] = 0.3
    gamma = 0.01
    H = TimeDependentHamiltonian(space=space, static=h + 1j * gamma * np.eye(space.dim))
    rho0 = basis_state(space, "g", 0).density_matrix()
    times = np.linspace(0.0, 1.0, 11)
    for method in ("fixed_rk4", "fixed_dp5"):
        with pytest.raises(NumericsError, match="trace") as err:
            evolve_master(H, [], rho0, times, IntegratorConfig(method=method, dt=0.01),
                          store_states=False)
        diag = err.value.diagnostics
        assert diag["time"] == pytest.approx(0.1)
        assert diag["trace"] == pytest.approx(math.exp(2 * gamma * 0.1), rel=1e-9)
        assert diag["trace_tol"] == 1e-6


def nan_after(space, t_nan):
    """H = diag(0, 1, ..) + c(t) (a + a+), with c = 1 up to t_nan and NaN after."""
    a = annihilation(space).matrix
    return TimeDependentHamiltonian(
        space=space, static=np.diag(np.arange(space.dim, dtype=complex)),
        terms=(sparse.csr_array(a + a.conj().T),),
        coefficients=lambda t: np.where(t > t_nan, np.nan, 1.0)[:, None] + 0j)


@pytest.mark.parametrize("method", ["fixed_dp5", "fixed_rk4"])
def test_non_finite_sample_aborts_naming_its_time(method):
    # a NaN in the state must stop both equations at the first sample that
    # holds it: it reaches neither the eigenvalues nor the series
    space = HilbertSpace(1, 4)
    H = nan_after(space, 0.45)
    psi0 = basis_state(space, "g", 0)
    times = np.linspace(0.0, 1.0, 11)
    cfg = IntegratorConfig(method=method, dt=0.01)
    for run in (lambda: evolve_schrodinger(H, psi0, times, cfg),
                lambda: evolve_master(H, [Dissipator(annihilation(space), 0.1)],
                                      psi0.density_matrix(), times, cfg)):
        with pytest.raises(NumericsError, match=r"not finite at t = 0\.5$") as err:
            run()
        assert err.value.diagnostics == {"time": 0.5}


@pytest.mark.parametrize("method", ["fixed_dp5", "fixed_rk4"])
def test_vector_run_stops_stepping_at_its_first_non_finite_sample(method):
    # a run that turns NaN after t = 0.45 on a grid to t = 1000 raises at the
    # sample t = 0.5, and the stepper evaluates no time more than one block
    # of _MAX_BLOCK steps past it: it does not run on to the end of the grid
    space = HilbertSpace(1, 4)
    H = nan_after(space, 0.45)
    evaluated = []

    def spy(t, coefficients=H.coefficients):
        evaluated.append(float(np.max(t)))
        return coefficients(t)
    H = replace(H, coefficients=spy)
    dt = 0.01
    times = np.linspace(0.0, 1000.0, 10001)
    with pytest.raises(NumericsError, match=r"not finite at t = 0\.5$") as err:
        evolve_schrodinger(H, basis_state(space, "g", 0), times,
                           IntegratorConfig(method=method, dt=dt))
    assert err.value.diagnostics == {"time": 0.5}
    assert 0.5 <= max(evaluated) <= 0.5 + _MAX_BLOCK * dt * (1 + 1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("cutoff", range(2, 7))
def test_observable_weights_equal_the_kron_built_diagonals(n_qubits, cutoff):
    space = HilbertSpace(n_qubits, cutoff)
    weights = dict(zip(_DIAGONAL_WEIGHTS, _ObservableSet(space, 1).weights))
    top = np.diag(np.arange(cutoff) == cutoff - 1).astype(complex)
    expected = {
        "sigma_pop": 0.5 + 0.5 * np.real(np.diagonal(qubit_operator(space, 0, "sz").matrix)),
        "photon_number": np.real(np.diagonal(number_operator(space).matrix)),
        "trace": np.ones(space.dim),
        "top_fock_pop": np.real(np.diagonal(embed_resonator(space, top))),
    }
    assert weights.keys() == expected.keys()
    for name, w in expected.items():
        assert np.array_equal(weights[name], w), name


def test_first_sample_observables_are_the_initial_state_expectations():
    rng = np.random.default_rng(5)
    space = HilbertSpace(1, 32)
    zero = TimeDependentHamiltonian(space=space, static=np.zeros((space.dim, space.dim)))
    excited = qubit_operator(space, 0, "sp").matrix @ qubit_operator(space, 0, "sm").matrix
    ops = {"sigma_pop": excited,
           "photon_number": number_operator(space).matrix,
           "trace": np.eye(space.dim)}
    psi = coherent_state(space, 0.7)
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = DensityMatrix(space, g @ g.conj().T / np.trace(g @ g.conj().T))
    times = np.array([0.0, NS])
    pure = evolve_schrodinger(zero, psi, times)
    mixed = evolve_master(zero, [], rho, times, IntegratorConfig(method="fixed_rk4", dt=NS))
    for traj, state in ((pure, psi.density_matrix().matrix), (mixed, rho.matrix)):
        for name, op in ops.items():
            assert traj.observables[name][0] == pytest.approx(
                np.real(np.trace(op @ state)), abs=1e-12), name
        assert traj.observables["purity"][0] == pytest.approx(
            np.real(np.trace(state @ state)), abs=1e-12)
    assert pure.observables["photon_number"][0] == pytest.approx(0.49, abs=1e-6)


def test_diagnostics_count_rhs_evals_and_time_the_least_eigenvalue():
    space = HilbertSpace(1, 4)
    H = effective_hamiltonian(effective_params(SYS, DRIVE_A), space)
    channels = loss_dissipators(SYS, space)
    rho0 = basis_state(space, "g", 0).density_matrix()
    dt = H.descriptor["suggested_dt"]
    times = np.linspace(0.0, 4 * 3.5 * dt, 5)      # 4 steps per interval, 16 in all
    fixed = IntegratorConfig(method="fixed_rk4", dt=dt)
    traj = evolve_master(H, channels, rho0, times, fixed, store_states=True)
    # RK4: 4 per step and a restart per interval
    assert traj.diagnostics["rhs_evals"] == 4 * 16 + 4
    assert evolve_schrodinger(H, basis_state(space, "g", 0), times,
                              fixed).diagnostics["rhs_evals"] == 4 * 16 + 4
    i = list(traj.times).index(traj.diagnostics["min_eigenvalue_time"])
    assert abs(np.linalg.eigvalsh(traj.states[i])[0]
               - traj.diagnostics["min_eigenvalue"]) <= 1e-14
    # the default, DP5 at 2.5 dt: 2 steps and a restart per interval
    assert evolve_master(H, channels, rho0, times).diagnostics["rhs_evals"] == 4 * (6 * 2 + 1)
    static = TimeDependentHamiltonian(space=space, static=H.static)
    assert evolve_schrodinger(static, basis_state(space, "g", 0),
                              times).diagnostics["rhs_evals"] == 0


def test_cutoff_margin_reports_largest_top_population():
    space = HilbertSpace(1, 3)
    H = model("jc", JC_EFF, space)
    psi0 = basis_state(space, "e", 1)       # swaps into |g, 2>, the top level
    times = np.linspace(0.0, 40 * NS, 81)
    traj = evolve_schrodinger(H, psi0, times)
    top = traj.observables["top_fock_pop"]
    diag = traj.diagnostics
    assert diag["max_top_fock_pop"] == top.max()
    assert diag["max_top_fock_pop_time"] == times[np.argmax(top)]
    assert diag["cutoff_ok"] is False
    rho_diag = evolve_master(H, [], psi0.density_matrix(), times,
                             IntegratorConfig(method="fixed_dp5",
                                              dt=H.descriptor["suggested_dt"] / 2)).diagnostics
    assert rho_diag["max_top_fock_pop"] == pytest.approx(top.max(), abs=1e-9)


def test_every_run_records_the_fixed_observables_and_cutoff_margin():
    # one run on each path: spectral, fixed RK4, fixed DP5 and the default; psi and rho
    space = HilbertSpace(1, 4)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    static = effective_hamiltonian(effective_params(SYS, DRIVE_A), space)
    psi0 = basis_state(space, "g", 0)
    rho0 = psi0.density_matrix()
    dt = H.descriptor["suggested_dt"]
    times = np.linspace(0.0, 20 * dt, 5)
    fixed = IntegratorConfig(method="fixed_rk4", dt=dt)
    dp5 = IntegratorConfig(method="fixed_dp5")
    runs = [("spectral", evolve_schrodinger(static, psi0, times)),
            ("fixed_rk4", evolve_schrodinger(H, psi0, times, fixed)),
            ("fixed_dp5", evolve_schrodinger(H, psi0, times, dp5)),
            ("fixed_dp5", evolve_schrodinger(H, psi0, times)),
            ("fixed_rk4", evolve_master(H, loss_dissipators(SYS, space), rho0, times, fixed)),
            ("fixed_dp5", evolve_master(H, loss_dissipators(SYS, space), rho0, times, dp5)),
            ("fixed_dp5", evolve_master(H, loss_dissipators(SYS, space), rho0, times))]
    for method, traj in runs:
        diag = traj.diagnostics
        assert diag["method"] == method
        assert tuple(traj.observables) == DEFAULT_OBSERVABLES
        assert all(series.shape == times.shape for series in traj.observables.values())
        assert type(diag["cutoff_ok"]) is bool
        assert type(diag["max_top_fock_pop"]) is float
        assert type(diag["max_top_fock_pop_time"]) is float


def test_dissipator_rejects_negative_rate():
    space = HilbertSpace(1, 3)
    with pytest.raises(ValidationError):
        Dissipator(qubit_operator(space, 0, "sp"), -1.0)


def test_step_halving_convergence_order():
    # fixed-step error on the exact rotating-frame generator scales ~ dt^4
    space = HilbertSpace(1, 6)
    drive = DriveParams(omega1=3.2 * GHZ, omega2=7.558 * GHZ,
                        eta1=2.296 / 3.2, eta2=5.422 / 7.558)
    H = rotated_hamiltonian(SYS, drive, space)
    psi0 = basis_state(space, "g", 0)
    times = np.array([0.0, 2.0 * NS])
    base_dt = H.descriptor["suggested_dt"]
    ref = evolve_schrodinger(H, psi0, times,
                             IntegratorConfig(method="fixed_rk4", dt=base_dt / 16)).states[-1]
    errs = []
    for div in (1, 2, 4):
        out = evolve_schrodinger(H, psi0, times,
                                 IntegratorConfig(method="fixed_rk4", dt=base_dt / div)).states[-1]
        errs.append(np.max(np.abs(out - ref)))
    order21 = math.log2(errs[0] / errs[1])
    order42 = math.log2(errs[1] / errs[2])
    assert 3.4 < order21 < 4.6
    assert 3.4 < order42 < 4.6


def test_fidelity_values():
    space = HilbertSpace(1, 2)
    e0 = basis_state(space, "e", 0).amplitudes
    g0 = basis_state(space, "g", 0).amplitudes
    assert fidelity(e0, np.outer(e0, e0.conj())) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(e0, np.outer(g0, g0.conj())) == pytest.approx(0.0, abs=1e-14)
    mixed = 0.5 * (np.outer(e0, e0.conj()) + np.outer(g0, g0.conj()))
    assert fidelity(e0, mixed) == pytest.approx(0.5, abs=1e-14)
    assert fidelity(e0, g0) == 0.0



def reference_run(space, times, seed):
    """A fixed-step exact-frame setup and random normalized reference vectors."""
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    cfg = IntegratorConfig(method="fixed_rk4", dt=H.descriptor["suggested_dt"])
    ref = random_complex(np.random.default_rng(seed), (times.size, space.dim))
    return H, cfg, ref / np.linalg.norm(ref, axis=1, keepdims=True)


@pytest.mark.parametrize("amplitudes, blocks", [
    ({0: 1.0}, [5, 5]),                        # |g,0>: the two parity blocks
    ({0: 0.6, 1: 0.8j}, [10])])                # |g,0> + |g,1> mixes the sectors
def test_master_records_fidelity_of_the_stored_states(amplitudes, blocks):
    space = HilbertSpace(1, 5)
    times = np.linspace(0.0, 0.3 * NS, 7)
    H, cfg, ref = reference_run(space, times, seed=3)
    v = np.zeros(space.dim, dtype=complex)
    v[list(amplitudes)] = list(amplitudes.values())
    traj = evolve_master(H, loss_dissipators(SYS, space), PureState(space, v).density_matrix(),
                         times, cfg, store_states=True, reference=ref)
    assert traj.diagnostics["blocks"] == blocks
    recorded = traj.observables["fidelity"]
    assert tuple(traj.observables) == DEFAULT_OBSERVABLES + ("fidelity",)
    assert np.max(np.abs(recorded - fidelity(ref, traj.states))) <= 1e-14
    assert np.ptp(recorded) > 1e-2            # the references differ per sample


def test_schrodinger_records_fidelity_of_the_stored_states():
    space = HilbertSpace(1, 5)
    times = np.linspace(0.0, 0.3 * NS, 7)
    H, cfg, ref = reference_run(space, times, seed=4)
    traj = evolve_schrodinger(H, basis_state(space, "g", 0), times, cfg, reference=ref)
    assert traj.diagnostics["blocks"] == [5]
    assert np.max(np.abs(traj.observables["fidelity"] - fidelity(ref, traj.states))) <= 1e-14
    assert "fidelity" not in evolve_schrodinger(H, basis_state(space, "g", 0), times,
                                                cfg).observables


@pytest.mark.parametrize("shape", [(6, 10), (7, 9), (7, 10, 10), (10,)])
def test_reference_of_wrong_shape_is_rejected_before_compute(shape, monkeypatch):
    import modrabi.dynamics as dynamics

    def no_compute(*args):
        raise AssertionError("the run started")
    monkeypatch.setattr(dynamics, "_propagate", no_compute)
    monkeypatch.setattr(dynamics, "_lindblad", no_compute)
    space = HilbertSpace(1, 5)
    times = np.linspace(0.0, 0.3 * NS, 7)
    H, cfg, _ = reference_run(space, times, seed=5)
    psi0 = basis_state(space, "g", 0)
    bad = np.ones(shape, dtype=complex)
    with pytest.raises(ValidationError, match="reference"):
        evolve_schrodinger(H, psi0, times, cfg, reference=bad)
    with pytest.raises(ValidationError, match="reference"):
        evolve_master(H, [], psi0.density_matrix(), times, cfg, reference=bad)


@pytest.mark.parametrize("stack", [7, 4])       # 4 == d: a square (T, d) stack
def test_fidelity_of_stacks_matches_per_sample_formula(stack):
    rng = np.random.default_rng(11 + stack)
    d = 4
    psi = random_complex(rng, (stack, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = random_complex(rng, (stack, d))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    m = random_complex(rng, (stack, d, d))
    rho = m @ m.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    pure = [abs(np.vdot(v, u)) ** 2 for v, u in zip(psi, phi)]
    mixed = [abs(np.vdot(v, r @ v)) for v, r in zip(psi, rho)]
    assert fidelity(psi, phi).shape == (stack,)
    assert np.max(np.abs(fidelity(psi, phi) - pure)) <= 1e-15
    assert np.max(np.abs(fidelity(psi, rho) - mixed)) <= 1e-15
    assert fidelity(psi[0], rho[0]) == pytest.approx(mixed[0], abs=1e-15)


@pytest.mark.parametrize("psi_shape, state_shape", [
    ((5, 4), (5, 3)), ((5, 4), (4, 4)), ((5, 4), (5, 4, 3)), ((4,), (3, 3)),
    ((5, 4), (5, 4, 4, 4)), ((4,), (4, 4, 4))])
def test_fidelity_rejects_mismatched_shapes(psi_shape, state_shape):
    with pytest.raises(ValidationError, match="fidelity"):
        fidelity(np.ones(psi_shape, dtype=complex), np.ones(state_shape, dtype=complex))


def test_extract_period_synthetic():
    omega = 3.7
    t = np.linspace(0.0, 6 * TWO_PI / omega, 1500)
    s = np.sin(omega * t / 2) ** 2
    est = extract_period(t, s)
    assert est.period == pytest.approx(TWO_PI / omega, rel=5e-3)
    with pytest.raises(ValidationError):
        extract_period(t, np.ones_like(t))
    with pytest.raises(ValidationError):
        extract_period(t[:100], s[:100])  # less than one full cycle


def test_antijc_excitation_symmetry():
    space = HilbertSpace(1, 8)
    eff = EffectiveParams(g_r=0.0, g_cr=-20 * MHZ, omega_eff=17.5 * MHZ,
                          epsilon_eff=17.5 * MHZ, theta=0.0, anisotropy=math.inf)
    H = model("ajc", eff, space)
    psi0 = basis_state(space, "g", 0)
    times = np.linspace(0.0, 60 * NS, 301)
    traj = evolve_schrodinger(H, psi0, times)
    diff = np.abs(traj.observables["photon_number"] - traj.observables["sigma_pop"])
    assert np.max(diff) < 1e-8


def test_dissipator_frame_invariance():
    space = HilbertSpace(1, 6)
    fp = frame_phases(SYS, DRIVE_A, space)
    sm = qubit_operator(space, 0, "sm").matrix
    a = annihilation(space).matrix
    rng = np.random.default_rng(9)
    for t in rng.uniform(0.0, 10 * NS, size=20):
        u = fp.unitary_diag(float(t))
        assert dissipator_frame_defect(u, sm, rate=1.3) < 1e-12
        assert dissipator_frame_defect(u, a, rate=0.7) < 1e-12


def test_frame_consistency_lab_vs_rotated():
    # propagate in the lab frame, transform, compare against the rotated
    # propagation over three effective periods
    space = HilbertSpace(1, 8)
    eff = effective_params(SYS, DRIVE_A)
    t_end = 3.0 * TWO_PI / abs(eff.omega_eff)
    times = np.array([0.0, t_end])
    psi0 = basis_state(space, "g", 0)
    fp = frame_phases(SYS, DRIVE_A, space)

    lab = lab_hamiltonian(SYS, DRIVE_A, space)
    rot = rotated_hamiltonian(SYS, DRIVE_A, space)
    # the frame is the identity at t = 0 for zero drive phases
    assert np.max(np.abs(fp.unitary_diag(0.0) - 1.0)) < 1e-15

    psi_lab = evolve_schrodinger(lab, psi0, times,
                                 IntegratorConfig(method="fixed_rk4", dt=6e-14)).states[-1]
    psi_rot = evolve_schrodinger(rot, psi0, times,
                                 IntegratorConfig(method="fixed_rk4", dt=6e-14)).states[-1]
    back = fp.unitary_diag(t_end).conj() * psi_lab
    assert np.linalg.norm(back - psi_rot) < 1e-6


@pytest.mark.parametrize("setting", [{"dt": math.inf}, {"dt": math.nan}, {"dt": -math.inf}])
def test_integrator_config_rejects_non_finite_settings(setting):
    # dt = inf once ran fixed RK4 at one step per sample interval
    with pytest.raises(ValidationError, match="finite"):
        IntegratorConfig(method="fixed_rk4", **setting)


@pytest.mark.parametrize("method", ["adaptive", "spectral", "adaptive_rk45"])
def test_integrator_config_names_only_the_fixed_step_methods(method):
    # spectral is chosen from the run, never named
    with pytest.raises(ValidationError, match="'fixed_rk4', 'fixed_dp5'"):
        IntegratorConfig(method=method)


def test_grid_validation():
    space = HilbertSpace(1, 3)
    psi0 = basis_state(space, "g", 0)
    with pytest.raises(ValidationError):
        evolve_schrodinger(zero_hamiltonian(space), psi0, np.array([0.0]))
    with pytest.raises(ValidationError):
        evolve_schrodinger(zero_hamiltonian(space), psi0, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("times", [[0.0, math.nan], [0.0, math.inf], [math.nan, 1.0],
                                   [-math.inf, 0.0]])
def test_grid_with_non_finite_times_is_rejected(times):
    space = HilbertSpace(1, 3)
    psi0 = basis_state(space, "g", 0)
    H = effective_hamiltonian(JC_EFF, space)
    channels = loss_dissipators(SYS, space)
    runs = [lambda: evolve_schrodinger(H, psi0, times)]         # spectral
    for method in ("fixed_dp5", "fixed_rk4"):
        cfg = IntegratorConfig(method=method, dt=1e-9)
        runs += [lambda cfg=cfg: evolve_schrodinger(H, psi0, times, cfg),
                 lambda cfg=cfg: evolve_master(H, channels, psi0.density_matrix(),
                                               times, cfg)]
    for run in runs:
        with pytest.raises(ValidationError, match="finite"):
            run()


# ---------------------------------------------------------------------------
# structured generator apply against dense oracles
# ---------------------------------------------------------------------------

DRIVE_PHASED = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ,
                           eta1=2.296 / 3.2, eta2=4.849 / 6.759, phi1=0.7, phi2=2.1)
MODEL_PARAMS = {
    "qrm": EffectiveParams(g_r=-1.0, g_cr=-1.0, omega_eff=0.5, epsilon_eff=0.3,
                           theta=0.0, anisotropy=1.0),
    "jc": EffectiveParams(g_r=-1.0, g_cr=0.0, omega_eff=0.5, epsilon_eff=0.5,
                          theta=0.0, anisotropy=0.0),
    "ajc": EffectiveParams(g_r=0.0, g_cr=-1.0, omega_eff=0.5, epsilon_eff=0.5,
                           theta=0.0, anisotropy=math.inf),
    "degenerate_aqrm": EffectiveParams(g_r=-1.0, g_cr=0.6, omega_eff=0.0,
                                       epsilon_eff=0.0, theta=0.0, anisotropy=-0.6),
}


def every_builder(space):
    """(name, Hamiltonian, time scale) for every builder on `space`."""
    eff = effective_params(SYS, DRIVE_PHASED)
    out = [("lab", lab_hamiltonian(SYS, DRIVE_PHASED, space), NS),
           ("rotated", rotated_hamiltonian(SYS, DRIVE_PHASED, space), NS),
           ("effective", effective_hamiltonian(eff, space), NS),
           ("dicke", dicke_hamiltonian(eff, space), NS),
           ("jx_field", jx_field_hamiltonian(0.3, 1.1, space), 1.0)]
    out += [(kind, model(kind, p, space), 1.0) for kind, p in MODEL_PARAMS.items()]
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_matmul_matches_scipy_product(index_dtype):
    """The direct kernel call accumulates A x like scipy's `@`, for one vector
    and for a stack of them, and operands that do not fit are rejected when
    the kernel is made; a scipy release that moves the kernels fails here."""
    rng = np.random.default_rng(3)
    for rows, cols, vecs in [(7, 5, 1), (7, 5, 3), (40, 40, 1), (40, 40, 20)]:
        dense = random_complex(rng, (rows, cols)) * (rng.random((rows, cols)) < 0.3)
        dense[::3] = 0.0                                    # empty rows
        a = sparse.csr_array(dense)
        a.indptr, a.indices = a.indptr.astype(index_dtype), a.indices.astype(index_dtype)
        shape = (vecs,) if vecs > 1 else ()
        x = random_complex(rng, (cols, *shape))
        start = random_complex(rng, (rows, *shape))
        ref = start + a @ x
        out = start.copy()
        _csr_kernel(a, x.shape, out.shape)(a.data, x, out)
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)
    with pytest.raises(ValueError):
        _csr_kernel(a, x[:-1].shape, x.shape)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_structured_apply_matches_dense_evaluate(n_qubits):
    rng = np.random.default_rng(11 + n_qubits)
    space = HilbertSpace(n_qubits, 5)
    for name, H, scale in every_builder(space):
        gen = _Generator(H)
        ts = rng.uniform(0.0, 20.0, size=4) * scale
        batch = gen.data(ts)          # all times in one call, as the stepper does
        for x in (random_complex(rng, space.dim), random_complex(rng, (space.dim, space.dim))):
            for i, t in enumerate(ts):
                ref = -1j * H.evaluate(float(t)) @ x
                for data in (gen.data(np.array([t]))[0], batch[i]):
                    got = np.zeros_like(x)
                    _csr_kernel(gen.matrix, x.shape, got.shape)(data, x, got)
                    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_lindblad_rhs_matches_dense_formula(n_qubits):
    rng = np.random.default_rng(5 + n_qubits)
    space = HilbertSpace(n_qubits, 5)
    H = rotated_hamiltonian(SYS, DRIVE_PHASED, space)
    a = annihilation(space).matrix
    channels = [(qubit_operator(space, k, "sm").matrix, (0.2 + 0.1 * k) * SYS.g)
                for k in range(n_qubits)]
    # a channel that factors over neither subsystem, beside the factoring ones
    channels += [(a, 0.3 * SYS.g), (a + qubit_operator(space, 0, "sm").matrix, 0.1 * SYS.g)]
    v = random_complex(rng, (space.dim, space.dim))
    rho = v @ v.conj().T
    rho /= np.trace(rho)
    # rho mixes the parity sectors, so the run is one block holding all of rho
    dissipators = [Dissipator(Operator(space, L), r) for L, r in channels]
    generator, stage, jump_data, layout = _lindblad(H, dissipators,
                                                    _parity_blocks(H, dissipators, rho))
    assert layout.shape == (1, space.dim, space.dim)
    for t in rng.uniform(0.0, 20 * NS, size=4):
        h = H.evaluate(float(t))
        expected = -1j * (h @ rho - rho @ h)
        for L, r in channels:
            LdL = L.conj().T @ L
            expected += r * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
        out = np.zeros_like(rho)              # a stage adds to its output
        stage(generator.data(np.array([t]))[0], jump_data, rho[None], out[None])
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def _kron_jumps(dissipators, live, dim):
    """J / 2 restricted to `live`, built as the d^2 x d^2 sum of scipy krons."""
    jumps = sparse.csr_array((dim * dim, dim * dim), dtype=complex)
    for d in dissipators:
        L = sparse.csr_array(d.jump.matrix)
        jumps = jumps + (0.5 * d.rate) * sparse.kron(L, L.conj(), format="csr")
    return jumps[live][:, live]


@pytest.mark.parametrize("n_qubits, fock", [(q, n) for q in (1, 2, 3) for n in range(2, 9)])
def test_jump_superoperator_is_the_kron_built_one_bit_for_bit(n_qubits, fock):
    # the same indptr, indices and data bytes (signed zeros included) as the
    # d^2 x d^2 krons restricted to the run's entries, with no explicit zero
    space = HilbertSpace(n_qubits, fock)
    dim = space.dim
    label = sum(basis_labels(space)) % 2
    losses = [Dissipator(qubit_operator(space, k, "sm"), 0.3 + 0.1 * k) for k in range(n_qubits)]
    losses.append(Dissipator(annihilation(space), 0.7))
    idle = Dissipator(annihilation(space), 0.0)
    sectors = [np.flatnonzero(label == s) for s in (0, 1)]
    cases = [(sectors, losses), (sectors, [idle, *losses])]
    if dim <= 32:
        # real entries of both signs make products whose imaginary part is -0
        rng = np.random.default_rng(dim)
        real, imag = rng.normal(size=(2, dim, dim))
        dense = [Dissipator(Operator(space, real), 0.9),
                 Dissipator(Operator(space, real + 1j * imag), 0.4)]
        cases.append(([np.arange(dim)], [*dense, idle, *losses]))
    for blocks, channels in cases:
        rows = np.array(blocks)
        live = (rows[:, :, None] * dim + rows[:, None, :]).reshape(-1)
        got, want = _jump_superoperator(channels, live, dim), _kron_jumps(channels, live, dim)
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.shape == (live.size, live.size) and np.all(got.data != 0)
    assert _jump_superoperator([idle], live, dim).nnz == 0


def parity_sector(space, psi):
    """Basis states of the parity (n + excited qubits) mod 2 of psi, which
    lies in one sector."""
    qubits, n = np.divmod(np.arange(space.dim), space.fock_cutoff)
    excited = space.n_qubits - np.array([int(q).bit_count() for q in qubits])
    label = (n + excited) % 2
    [held] = np.unique(label[np.flatnonzero(psi)])
    return np.flatnonzero(label == held)


def dense_rotated_frame(sys, drive, space):
    """H~(t) of the rotating frame, written from its closed form (one qubit)."""
    eff = effective_params(sys, drive)
    a = annihilation(space).matrix
    sz = qubit_operator(space, 0, "sz").matrix
    sp_a = qubit_operator(space, 0, "sp").matrix @ a
    sm_a = qubit_operator(space, 0, "sm").matrix @ a
    h0 = eff.omega_eff * (a.conj().T @ a) + 0.5 * eff.epsilon_eff * sz

    def h(t):
        phi = (drive.eta1 * math.sin(drive.omega1 * t + drive.phi1)
               + drive.eta2 * math.sin(drive.omega2 * t + drive.phi2))
        chi = 0.5 * (sys.epsilon - eff.epsilon_eff) * t + phi
        mu = (sys.omega - eff.omega_eff) * t
        up = sys.g * np.exp(1j * (2 * chi - mu)) * sp_a
        dn = sys.g * np.exp(-1j * (2 * chi + mu)) * sm_a
        return h0 + up + up.conj().T + dn + dn.conj().T
    return h


def dense_rk4(f, y, times, dt):
    """Classical RK4 on dense arrays at steps <= dt; the state at each of
    times[1:]."""
    out = []
    for t0, t1 in zip(times[:-1], times[1:]):
        n = math.ceil((t1 - t0) / dt)
        step = (t1 - t0) / n
        for k in range(n):
            t = t0 + k * step
            k1 = f(t, y)
            k2 = f(t + step / 2, y + step / 2 * k1)
            k3 = f(t + step / 2, y + step / 2 * k2)
            k4 = f(t + step, y + step * k3)
            y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return out


def master_matches_dense_rk4_at_half_step(method):
    scn = load_scenario("fig2a")
    sys, drive = scn.system, scn.drive
    space = HilbertSpace(1, scn.fock_cutoff)
    H = rotated_hamiltonian(sys, drive, space)
    dt = H.descriptor["suggested_dt"]
    times = np.linspace(0.0, 0.4 * NS, 5)
    v = np.zeros(space.dim, dtype=complex)
    v[[1, space.fock_cutoff + 2]] = [0.6, 0.8j]       # |e,1> and |g,2>
    rho0 = PureState(space, v).density_matrix()
    traj = evolve_master(H, loss_dissipators(sys, space), rho0, times,
                         IntegratorConfig(method=method), store_states=True)
    assert traj.diagnostics["blocks"] == [space.dim // 2] * 2

    h = dense_rotated_frame(sys, drive, space)
    a = annihilation(space).matrix
    channels = [(qubit_operator(space, 0, "sm").matrix, sys.kappa), (a, sys.gamma)]

    def f(t, rho):
        hm = h(t)
        out = -1j * (hm @ rho - rho @ hm)
        for L, r in channels:
            LdL = L.conj().T @ L
            out += r * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
        return out

    oracle = dense_rk4(f, rho0.matrix, times, dt / 2)
    for i, rho in enumerate(oracle, start=1):
        assert np.max(np.abs(traj.states[i] - rho)) <= 1e-6
    # the slice is long enough for the state to move well past the tolerance
    assert np.max(np.abs(oracle[-1] - rho0.matrix)) > 1e-2


def schrodinger_matches_dense_rk4_at_half_step(method, initial):
    scn = load_scenario("fig2a")
    sys, drive = scn.system, scn.drive
    space = HilbertSpace(1, scn.fock_cutoff)
    H = rotated_hamiltonian(sys, drive, space)
    dt = H.descriptor["suggested_dt"]
    times = np.linspace(0.0, 0.4 * NS, 5)
    g0, e0 = (basis_state(space, q, 0).amplitudes for q in "ge")
    v = {"vac_g": g0, "vac_e": e0, "mixed": 0.6 * g0 + 0.8j * e0}[initial]
    psi0 = PureState(space, v)
    traj = evolve_schrodinger(H, psi0, times, IntegratorConfig(method=method))
    if initial == "mixed":
        assert traj.diagnostics["blocks"] == [space.dim]
    else:
        sector = parity_sector(space, v)
        assert traj.diagnostics["blocks"] == [sector.size] == [space.dim // 2]
        assert not np.any(np.delete(traj.states, sector, axis=1))

    h = dense_rotated_frame(sys, drive, space)
    oracle = dense_rk4(lambda t, psi: -1j * (h(t) @ psi), psi0.amplitudes, times, dt / 2)
    for i, psi in enumerate(oracle, start=1):
        assert np.max(np.abs(traj.states[i] - psi)) <= 1e-6
    # the slice is long enough for the state to move well past the tolerance
    assert np.max(np.abs(oracle[-1] - psi0.amplitudes)) > 1e-2


def test_fixed_rk4_master_matches_dense_rk4_at_half_step():
    master_matches_dense_rk4_at_half_step("fixed_rk4")


def test_fixed_dp5_master_matches_dense_rk4_at_half_step():
    master_matches_dense_rk4_at_half_step("fixed_dp5")


@pytest.mark.parametrize("initial", ["vac_g", "vac_e", "mixed"])
def test_fixed_rk4_schrodinger_matches_dense_rk4_at_half_step(initial):
    """A vacuum carries its parity sector alone, with the stored states exactly
    0 outside it; a psi0 that mixes the sectors is the full-space run."""
    schrodinger_matches_dense_rk4_at_half_step("fixed_rk4", initial)


@pytest.mark.parametrize("initial", ["vac_g", "vac_e", "mixed"])
def test_fixed_dp5_schrodinger_matches_dense_rk4_at_half_step(initial):
    schrodinger_matches_dense_rk4_at_half_step("fixed_dp5", initial)


@pytest.mark.parametrize("name", ["fig2a", "fig3d"])
def test_dp5_at_its_default_step_is_no_less_accurate_than_rk4(name):
    """Over the first 2 ns of the grid, DP5 at 2.5 suggested_dt lies no
    farther from RK4 at suggested_dt / 4 than RK4 at suggested_dt does, for
    the state vector and for the Lindblad run."""
    scn = load_scenario(name)
    space = HilbertSpace(1, scn.fock_cutoff)
    H = rotated_hamiltonian(scn.system, scn.drive, space)
    dt = H.descriptor["suggested_dt"]
    times = np.linspace(0.0, scn.t_end, scn.samples)
    times = times[times <= 2 * NS]
    psi0 = basis_state(space, "g" if scn.initial_state == "vac_g" else "e", 0)
    channels = loss_dissipators(scn.system, space)
    runs = [lambda cfg: evolve_schrodinger(H, psi0, times, cfg).states,
            lambda cfg: evolve_master(H, channels, psi0.density_matrix(), times, cfg,
                                      store_states=True).states]
    for run in runs:
        oracle = run(IntegratorConfig(method="fixed_rk4", dt=dt / 4))
        rk4 = np.max(np.abs(run(IntegratorConfig(method="fixed_rk4", dt=dt)) - oracle))
        dp5 = np.max(np.abs(run(IntegratorConfig(method="fixed_dp5")) - oracle))
        assert dp5 <= rk4


def test_tableaus_match_scipy_and_satisfy_the_order_conditions():
    from scipy.integrate._ivp.rk import RK45
    # DP5 is scipy's RK45 written out: six stages, the FSAL seventh at the new y
    a = np.zeros((7, 7))
    for i, row in enumerate(DP5.a):
        a[i, :len(row)] = row
    assert np.array_equal(a[:6, :5], RK45.A) and np.array_equal(DP5.b[:6], RK45.B)
    assert np.array_equal(a[6, :6], RK45.B) and DP5.b[6] == 0.0
    assert np.array_equal(DP5.c[:6], RK45.C) and DP5.c[6] == 1.0
    assert DP5.step == 2.5 and RK4.step == 1.0
    # the continuous extension is scipy's RK45 dense output, and at theta = 1
    # its weights are b: the last sample of a step is the new y
    assert np.array_equal(np.array(DP5.p), RK45.P) and RK4.p is None
    assert np.allclose(np.array(DP5.p).sum(axis=1), DP5.b, rtol=0, atol=1e-15)
    # Butcher's conditions: RK4 to fourth order, DP5 to fifth
    for tab, b, order in [(RK4, np.array(RK4.b), 4), (DP5, np.array(DP5.b), 5)]:
        s = len(tab.b)
        a = np.zeros((s, s))
        for i, row in enumerate(tab.a):
            a[i, :len(row)] = row
        c = np.array(tab.c)
        assert np.allclose(a.sum(axis=1), c, rtol=0, atol=1e-14)
        conditions = [(b.sum(), 1), (b @ c, 1 / 2), (b @ c**2, 1 / 3), (b @ a @ c, 1 / 6),
                      (b @ c**3, 1 / 4), (b @ (c * (a @ c)), 1 / 8),
                      (b @ a @ c**2, 1 / 12), (b @ a @ a @ c, 1 / 24)]
        if order == 5:
            conditions += [(b @ c**4, 1 / 5), (b @ (c**2 * (a @ c)), 1 / 10),
                           (b @ (c * (a @ c**2)), 1 / 15), (b @ (c * (a @ a @ c)), 1 / 30),
                           (b @ (a @ c) ** 2, 1 / 20), (b @ a @ c**3, 1 / 20),
                           (b @ a @ (c * (a @ c)), 1 / 40), (b @ a @ a @ c**2, 1 / 60),
                           (b @ a @ a @ a @ c, 1 / 120)]
        for got, want in conditions:
            assert got == pytest.approx(want, rel=1e-13)


def test_a_tableau_whose_last_stage_is_not_at_the_new_y_is_refused():
    # classical RK4 as four stages: its new y is no stage's input
    with pytest.raises(ValueError, match="last stage"):
        Tableau(a=((), (1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)),
                b=(1 / 6, 1 / 3, 1 / 3, 1 / 6), c=(0.0, 1 / 2, 1 / 2, 1.0), step=1.0)
    # RK4 and DP5 carry a last stage at the new y
    for tab in (RK4, DP5):
        assert tab.c[-1] == 1.0 and tab.b[-1] == 0.0 and tab.a[-1] == tab.b[:-1]


def test_rhs_evals_are_six_per_dp5_step_and_one_per_interval():
    space = HilbertSpace(1, 4)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    channels = loss_dissipators(SYS, space)
    psi0 = basis_state(space, "g", 0)
    dt = H.descriptor["suggested_dt"]
    # 4 intervals of 3.5 steps each: 4 steps per interval, 16 in all
    for method, step in (("fixed_rk4", dt), ("fixed_dp5", 2.5 * dt)):
        times = np.linspace(0.0, 4 * 3.5 * step, 5)
        want = {"fixed_rk4": 4 * 16 + 4, "fixed_dp5": 6 * 16 + 4}[method]
        for cfg in (IntegratorConfig(method=method), IntegratorConfig(method=method, dt=step)):
            assert evolve_schrodinger(H, psi0, times, cfg).diagnostics["rhs_evals"] == want
            assert evolve_master(H, channels, psi0.density_matrix(), times,
                                 cfg).diagnostics["rhs_evals"] == want


def test_dense_samples_at_step_ends_are_the_new_ys():
    # 12 samples one step apart.  At a target of the largest sample interval
    # the run restarts at each sample; at a 1.01-step target every interval
    # is shorter than a step, so the run makes one pass over the grid, takes
    # the same 11 steps, and reads each sample off the continuous extension
    # at theta = 1 (6 evaluations per step + 1 per run)
    space = HilbertSpace(1, 4)
    H = effective_hamiltonian(effective_params(SYS, DRIVE_A), space)
    channels = loss_dissipators(SYS, space)
    rho0 = basis_state(space, "e", 1).density_matrix()
    step = DP5.step * H.descriptor["suggested_dt"]
    times = np.linspace(0.0, 11 * step, 12)
    restart, dense = (evolve_master(H, channels, rho0, times,
                                    IntegratorConfig(method="fixed_dp5", dt=dt),
                                    store_states=True)
                      for dt in (np.max(np.diff(times)), 1.01 * step))
    assert restart.diagnostics["rhs_evals"] == 11 * 7
    assert dense.diagnostics["rhs_evals"] == 11 * 6 + 1
    assert np.array_equal(dense.states[0], restart.states[0])
    assert np.max(np.abs(dense.states - restart.states)) < 1e-15
    assert np.array_equal(dense.states, dense.states.conj().transpose(0, 2, 1))


def test_every_path_reports_the_same_diagnostics_keys():
    space = HilbertSpace(1, 6)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    static = effective_hamiltonian(effective_params(SYS, DRIVE_A), space)
    psi0 = basis_state(space, "g", 0)
    times = np.linspace(0.0, 0.2 * NS, 5)
    rho0, channels = psi0.density_matrix(), loss_dissipators(SYS, space)
    common = {"method", "rhs_evals", "blocks", "cutoff_ok", "max_top_fock_pop",
              "max_top_fock_pop_time"}
    vector_keys = common | {"norm_drift"}
    rho_keys = common | {"trace_drift", "min_eigenvalue", "min_eigenvalue_time"}
    runs = [("spectral", evolve_schrodinger(static, psi0, times), vector_keys),
            ("fixed_dp5", evolve_master(static, channels, rho0, times), rho_keys)]
    for method in ("fixed_rk4", "fixed_dp5"):
        cfg = IntegratorConfig(method=method)
        runs += [(method, evolve_schrodinger(H, psi0, times, cfg), vector_keys),
                 (method, evolve_master(H, channels, rho0, times, cfg), rho_keys)]
    for method, traj, keys in runs:
        assert traj.diagnostics["method"] == method
        assert set(traj.diagnostics) == keys
        assert not any(key.startswith("step_error") for key in traj.diagnostics)


@pytest.mark.parametrize("method", ["fixed_rk4", "fixed_dp5"])
@pytest.mark.parametrize("amplitudes, blocks", [
    ({("e", 1): 1.0}, [6, 6]),                      # the two parity blocks
    ({("e", 1): 0.6, ("e", 2): 0.8j}, [12])])       # mixes the sectors: one block
def test_restart_path_stores_exactly_hermitian_states(method, amplitudes, blocks):
    # nothing symmetrizes rho: each stage writes M + M+ and every combination
    # of the stack has real weights, so each state equals its adjoint to the
    # bit, also under a channel that acts on both subsystems
    space = HilbertSpace(1, 6)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    channels = loss_dissipators(SYS, space) + [
        Dissipator(Operator(space, annihilation(space).matrix
                            + qubit_operator(space, 0, "sm").matrix), 0.3 * SYS.g)]
    v = sum(c * basis_state(space, q, n).amplitudes for (q, n), c in amplitudes.items())
    times = np.linspace(0.0, 0.3 * NS, 7)
    traj = evolve_master(H, channels, PureState(space, v).density_matrix(), times,
                         IntegratorConfig(method=method), store_states=True)
    assert traj.diagnostics["blocks"] == blocks
    # the longer default step, DP5's, is shorter than a sample interval, so
    # the run restarts at each sample
    assert DP5.step * H.descriptor["suggested_dt"] < np.min(np.diff(times))
    states = traj.states
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))
    assert np.max(np.abs(states[1:].imag)) > 1e-3


def test_dense_path_stores_exactly_hermitian_states():
    fig5 = load_scenario("fig5")
    space = HilbertSpace(1, 12)
    H = effective_hamiltonian(effective_params(fig5.system, fig5.drive), space)
    times = np.linspace(0.0, fig5.t_end, fig5.samples)
    traj = evolve_master(H, loss_dissipators(fig5.system, space),
                         basis_state(space, "e", 0).density_matrix(), times, store_states=True)
    # one pass over the grid, the samples read off the continuous extension
    assert traj.diagnostics["rhs_evals"] == 6 * math.ceil(
        times[-1] / (DP5.step * H.descriptor["suggested_dt"])) + 1
    assert traj.diagnostics["blocks"] == [12, 12]
    states = traj.states
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))
    assert np.max(np.abs(states[1:].imag)) > 1e-3


def _counted_run(case):
    """(H, initial state, loss channels or None, times, cfg) of one case of
    the stage-count test."""
    space = HilbertSpace(1, 6)
    psi0 = basis_state(space, "g", 0)
    exact = rotated_hamiltonian(SYS, DRIVE_A, space)
    uneven = np.array([0.0, 0.05, 0.12, 0.3]) * NS     # each interval its own count
    if case == "restart_dp5_vector":
        return exact, psi0, None, uneven, IntegratorConfig()
    if case == "restart_dp5_blocks":
        return exact, psi0.density_matrix(), loss_dissipators(SYS, space), uneven, None
    if case == "rk4":
        return exact, psi0, None, uneven, IntegratorConfig(method="fixed_rk4")
    if case == "spectral":
        return effective_hamiltonian(STATIC_EFF, space), psi0, None, uneven, None
    fig5 = load_scenario("fig5")              # dense: fig5's lossy effective run
    H = effective_hamiltonian(effective_params(fig5.system, fig5.drive), space)
    return (H, psi0.density_matrix(), loss_dissipators(fig5.system, space),
            np.linspace(0.0, 2 * NS, 21), None)


@pytest.mark.parametrize("case, method, dense, blocks", [
    ("restart_dp5_vector", "fixed_dp5", False, [6]),
    ("restart_dp5_blocks", "fixed_dp5", False, [6, 6]),
    ("dense_dp5", "fixed_dp5", True, [6, 6]),
    ("rk4", "fixed_rk4", False, [6]),
    ("spectral", "spectral", False, [6])])
def test_rhs_evals_counts_the_stages_a_run_evaluates(case, method, dense, blocks,
                                                     monkeypatch):
    # rhs_evals is the plan's count; every right-hand side is one call of a
    # stage function, and the run must make exactly that many
    import modrabi.dynamics as dynamics
    calls = []

    def counted(make):
        def make_counted(*args):
            stage = make(*args)

            def count(*stage_args):
                calls.append(1)
                stage(*stage_args)
            return count
        return make_counted

    for name in ("_vector_stage", "_block_stage"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    H, state, channels, times, cfg = _counted_run(case)
    plan = dynamics._plan(H, state, times, cfg, channels)
    assert (plan.method, plan.dense, plan.summary()["blocks"]) == (method, dense, blocks)
    if channels is None:
        traj = evolve_schrodinger(H, state, times, cfg)
    else:
        traj = evolve_master(H, channels, state, times, cfg)
    assert traj.diagnostics["rhs_evals"] == plan.rhs_evals == len(calls)
    assert (len(calls) > 0) == (method != "spectral")


def _thirty_intervals(method):
    """An exact-frame Hamiltonian and a grid of 30 sample intervals of 3.6 to
    5 default steps of `method` each, so every run restarts at each sample,
    each interval takes its own h and a block of _MAX_BLOCK steps spans
    several intervals."""
    space = HilbertSpace(1, 6)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    step = TABLEAUS[method].step * H.descriptor["suggested_dt"]
    lengths = np.random.default_rng(7).uniform(3.6, 5.0, 30)
    return space, H, np.concatenate([[0.0], np.cumsum(lengths)]) * step


def _splits_a_block(plan) -> bool:
    """Whether a block of _MAX_BLOCK steps ends inside a sample interval."""
    ends = np.cumsum(plan.steps)
    return bool(np.setdiff1d(np.arange(_MAX_BLOCK, ends[-1], _MAX_BLOCK), ends).size)


def test_generator_nonzeros_come_one_call_per_block_across_intervals(monkeypatch):
    # the stage nonzeros of up to _MAX_BLOCK steps, and the first stage of
    # each interval that begins among them, come from one call, however the
    # steps fall into sample intervals
    calls = []
    data = _Generator.data

    def counted(self, *args, **kwargs):
        calls.append(1)
        return data(self, *args, **kwargs)
    monkeypatch.setattr(_Generator, "data", counted)
    space, H, times = _thirty_intervals("fixed_dp5")
    psi0 = basis_state(space, "g", 0)
    runs = [(psi0, None), (psi0.density_matrix(), loss_dissipators(SYS, space))]
    for state, channels in runs:
        plan = _plan(H, state, times, None, channels)
        assert not plan.dense and len(plan.steps) == 30 and sum(plan.steps) > 2 * _MAX_BLOCK
        calls.clear()
        if channels is None:
            traj = evolve_schrodinger(H, state, times)
        else:
            traj = evolve_master(H, channels, state, times)
            assert traj.diagnostics["blocks"] == [6, 6]
        assert traj.diagnostics["rhs_evals"] == plan.rhs_evals
        assert 0 < len(calls) <= math.ceil(sum(plan.steps) / _MAX_BLOCK) + 1


@pytest.mark.parametrize("method", ["fixed_rk4", "fixed_dp5"])
def test_a_run_continued_from_a_stored_state_repeats_the_rest_bit_for_bit(method):
    # each sample interval takes its own h, jump data and, for FSAL, its own
    # first stage at its start: so stopping at sample k and starting again
    # from the state stored there gives the same bits, whichever of the
    # steps share a block of nonzeros in either run
    space, H, times = _thirty_intervals(method)
    channels = loss_dissipators(SYS, space)
    rho0 = basis_state(space, "e", 1).density_matrix()
    cfg = IntegratorConfig(method=method)
    k = 15
    full = evolve_master(H, channels, rho0, times, cfg, store_states=True)
    first = evolve_master(H, channels, rho0, times[:k + 1], cfg, store_states=True)
    rest = evolve_master(H, channels, DensityMatrix(space, full.states[k]), times[k:], cfg,
                         store_states=True)
    assert full.diagnostics["blocks"] == rest.diagnostics["blocks"] == [6, 6]
    # the legs split their steps into blocks unlike the whole run, and a
    # block ends inside a sample interval of each leg
    assert all(_splits_a_block(_plan(H, rho0, t, cfg, channels))
               for t in (times, times[:k + 1], times[k:]))
    assert np.array_equal(first.states, full.states[:k + 1])
    assert np.array_equal(rest.states, full.states[k:])
    assert np.max(np.abs(full.states[-1] - full.states[0])) > 1e-2


@pytest.mark.parametrize("method", ["fixed_rk4", "fixed_dp5"])
def test_grid_too_long_for_its_step_is_refused_before_stepping(method, monkeypatch):
    # an infinite step count, and a finite one that fits no index, are both
    # refused with the field path before the stepper starts
    import modrabi.dynamics as dynamics

    def no_compute(*args):
        raise AssertionError("the run stepped")
    monkeypatch.setattr(dynamics, "_propagate", no_compute)
    space = HilbertSpace(1, 4)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    psi0 = basis_state(space, "g", 0)
    cfg = IntegratorConfig(method=method, dt=1e-9)
    for times in ([0.0, 1e308], [-1e308, 1e308], [0.0, 5.0, 1e11]):
        for run in (lambda: evolve_schrodinger(H, psi0, times, cfg),
                    lambda: evolve_master(H, loss_dissipators(SYS, space),
                                          psi0.density_matrix(), times, cfg)):
            with pytest.raises(ValidationError, match="^grid: "):
                run()


def test_plan_refuses_more_right_hand_sides_than_the_bound(monkeypatch):
    # a run of more than MAX_RHS_EVALS evaluations is refused by its plan,
    # naming the grid and the count, whether its steps alone exceed the bound
    # or only its evaluations do; one just under it is planned
    import modrabi.dynamics as dynamics

    def no_compute(*args):
        raise AssertionError("the run stepped")
    monkeypatch.setattr(dynamics, "_propagate", no_compute)
    space = HilbertSpace(1, 4)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    psi0 = basis_state(space, "g", 0)
    for method, steps, match in (("fixed_rk4", 2 * MAX_RHS_EVALS, "^grid: 2e[+]09 steps"),
                                 ("fixed_dp5", MAX_RHS_EVALS // 4, "^grid: 1,500,000,001 "),
                                 ("fixed_rk4", MAX_RHS_EVALS // 4, "^grid: 1,000,000,001 ")):
        cfg = IntegratorConfig(method=method, dt=1.0)
        with pytest.raises(ValidationError, match=match):
            evolve_schrodinger(H, psi0, [0.0, float(steps)], cfg)
    plan = _plan(H, psi0, [0.0, float(MAX_RHS_EVALS // 4 - 1)],
                 IntegratorConfig(method="fixed_rk4", dt=1.0))
    assert plan.rhs_evals == MAX_RHS_EVALS - 3


# ---------------------------------------------------------------------------
# the positivity monitor
# ---------------------------------------------------------------------------

def _run_with_sectors(H, channels, rho0, times, cfg):
    """A lossy run with its states, and the basis states of each block it
    carried."""
    traj = evolve_master(H, channels, rho0, times, cfg, store_states=True)
    return traj, _parity_blocks(H, channels, rho0.matrix)


def _least_eigenvalue_runs():
    """A lossy effective run on fig5's dense fixed-DP5 path and a short lossy
    exact-frame run at fig2a's settings, restarting at each sample."""
    fig5 = load_scenario("fig5")
    space = HilbertSpace(1, fig5.fock_cutoff)
    H = effective_hamiltonian(effective_params(fig5.system, fig5.drive), space)
    times = np.linspace(0.0, fig5.t_end, fig5.samples)
    dense = _run_with_sectors(H, loss_dissipators(fig5.system, space),
                              basis_state(space, "g", 0).density_matrix(), times,
                              fig5.integrator)
    assert dense[0].diagnostics["rhs_evals"] == 6 * math.ceil(
        times[-1] / (DP5.step * H.descriptor["suggested_dt"])) + 1
    fig2a = load_scenario("fig2a")
    space = HilbertSpace(1, 12)
    restart = _run_with_sectors(rotated_hamiltonian(fig2a.system, fig2a.drive, space),
                                loss_dissipators(fig2a.system, space),
                                basis_state(space, "g", 0).density_matrix(),
                                np.linspace(0.0, 2 * NS, 21), fig2a.integrator)
    # 20 (6 n + 1) evaluations when it restarts at each sample, not 6 n + 1
    assert restart[0].diagnostics["rhs_evals"] % 20 == 0
    return dense, restart


def test_least_eigenvalue_is_that_of_the_stored_samples_exactly():
    # the monitor may skip eigvalsh at a sample only where it cannot find a
    # new minimum: the reported minimum and its time are those of eigvalsh
    # over every stored sample, to the bit
    for traj, sectors in _least_eigenvalue_runs():
        assert traj.diagnostics["blocks"] == [len(s) for s in sectors] and len(sectors) == 2
        least = np.array([np.linalg.eigvalsh(np.array([rho[np.ix_(s, s)] for s in sectors]))
                          [:, 0].min() for rho in traj.states])
        assert traj.diagnostics["min_eigenvalue"] == least.min()
        assert traj.diagnostics["min_eigenvalue_time"] == traj.times[np.argmin(least)]


def test_fig5_skips_eigvalsh_at_most_samples(monkeypatch):
    # a guard against a change that quietly turns the Cholesky test off, or
    # goes back to decomposing both parity blocks wherever one of them fails
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "modrabi.dynamics":
            calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    doc, _ = load_scenario_document("fig5")
    doc["grid"] = {"t_end_ns": 10.0, "samples": 101}
    run_simulation(parse_scenario(doc))
    assert 0 < len(calls) < 101 / 2
    blocks = [shape[0] for shape in calls]      # the blocks of each call
    assert blocks[0] == 2                       # every block at the first sample
    assert sum(blocks[1:]) < 2 * len(blocks[1:])


# ---------------------------------------------------------------------------
# the spectral path and the lossy effective run against independent oracles
# ---------------------------------------------------------------------------

STATIC_EFF = EffectiveParams(g_r=-20 * MHZ, g_cr=12 * MHZ, omega_eff=17.5 * MHZ,
                             epsilon_eff=9 * MHZ, theta=0.0, anisotropy=-0.6,
                             phi1=0.4, phi2=1.3)


@pytest.mark.parametrize("n_qubits, fock", [(1, 10), (2, 8)])
def test_spectral_run_matches_dense_expm(n_qubits, fock):
    rng = np.random.default_rng(3 + n_qubits)
    space = HilbertSpace(n_qubits, fock)
    H = effective_hamiltonian(STATIC_EFF, space)
    v = random_complex(rng, space.dim)
    psi0 = PureState(space, v / np.linalg.norm(v))
    times = np.linspace(0.0, 100 * NS, 41)        # |H| t_end is about 140 rad
    traj = evolve_schrodinger(H, psi0, times)
    assert traj.diagnostics["method"] == "spectral"
    assert traj.diagnostics["norm_drift"] < 1e-13
    for t, state in zip(times, traj.states):
        exact = expm(-1j * H.static * t) @ psi0.amplitudes
        assert np.max(np.abs(state - exact)) < 1e-12


def test_spectral_run_rejects_non_hermitian_static_part():
    space = HilbertSpace(1, 3)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    h[0, 1] = 1.0
    H = TimeDependentHamiltonian(space=space, static=h)
    with pytest.raises(ValidationError, match="Hermitian"):
        evolve_schrodinger(H, basis_state(space, "g", 0), np.linspace(0.0, 1.0, 3))


# fig5 itself, and two low-cutoff points from the excited state at small eta2,
# where fixed DP5's continuous extension is farthest from the oracle
FIG5_POINTS = {"fig5": (None, None, "g"), "n12": (12, 0.05, "e"), "n16": (16, 0.05, "e")}


@functools.lru_cache(maxsize=None)
def _fig5_point(point: str):
    """(H, channels, rho0, times, the observables under fixed RK4 at
    suggested_dt / 16) of one FIG5_POINTS entry."""
    scn = load_scenario("fig5")
    cutoff, eta2, state = FIG5_POINTS[point]
    drive = scn.drive if eta2 is None else replace(scn.drive, eta2=eta2)
    space = HilbertSpace(1, cutoff or scn.fock_cutoff)
    H = effective_hamiltonian(effective_params(scn.system, drive), space)
    channels = loss_dissipators(scn.system, space)
    rho0 = basis_state(space, state, 0).density_matrix()
    times = np.linspace(0.0, scn.t_end, scn.samples)
    dt = H.descriptor["suggested_dt"]
    oracle = _master_series(H, channels, rho0, times, IntegratorConfig(method="fixed_rk4",
                                                                       dt=dt / 16))[0]
    coarse = _master_series(H, channels, rho0, times, IntegratorConfig(method="fixed_rk4",
                                                                       dt=dt / 8))[0]
    assert np.max(np.abs(coarse - oracle)) < 1e-10        # the oracle has converged
    return H, channels, rho0, times, oracle


def _master_series(H, channels, rho0, times, cfg):
    traj = evolve_master(H, channels, rho0, times, cfg)
    return np.array([traj.observables[name] for name in DEFAULT_OBSERVABLES]), traj.diagnostics


@pytest.mark.parametrize("point", FIG5_POINTS)
def test_lossy_effective_run_matches_converged_rk4(point):
    # what a lossy effective scenario runs: fixed DP5, one pass over the grid
    # with the samples read off its continuous extension
    H, channels, rho0, times, oracle = _fig5_point(point)
    cfg = load_scenario("fig5").integrator
    assert cfg == IntegratorConfig()
    series, diag = _master_series(H, channels, rho0, times, cfg)
    assert diag["method"] == "fixed_dp5"
    assert diag["rhs_evals"] == 6 * math.ceil(
        (times[-1] - times[0]) / (DP5.step * H.descriptor["suggested_dt"])) + 1
    assert np.max(np.abs(series - oracle)) <= 2e-7
    assert diag["min_eigenvalue"] > -1e-7
