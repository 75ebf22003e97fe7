import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from modrabi.applications import (CNOT_CONTROL_FIRST, cat_evolution,
                                  cnot_equivalence_check, conditional_cat,
                                  conditional_probability,
                                  cross_parity_population, entangling_power,
                                  gate_at_period, magnus_phase,
                                  magnus_propagator,
                                  theta_from_coupling_ratio)
from modrabi.dynamics import IntegratorConfig, evolve_schrodinger
from modrabi.errors import ValidationError
from modrabi.hamiltonians import jx_field_hamiltonian
from modrabi.hilbert import HilbertSpace, PureState, basis_state
from oracles import is_unitary

TWO_PI = 2 * math.pi


def ode_propagator(g_eff, omega_eff, t_end, space, columns=None):
    """Fine-step integration of the collective-field generator (oracle)."""
    H = jx_field_hamiltonian(g_eff, omega_eff, space)
    dim = space.dim
    y0 = np.eye(dim, dtype=complex)
    if columns is not None:
        y0 = y0[:, columns]
    shape = y0.shape

    def rhs(t, y):
        return (-1j * H.evaluate(t) @ y.reshape(shape)).reshape(-1)

    sol = solve_ivp(rhs, (0.0, t_end), y0.reshape(-1), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(shape)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def test_phase_at_zero_and_period():
    g, w = 0.25, 1.0
    ph0 = magnus_phase(g, w, 0.0)
    assert ph0.xi == 0.0 and ph0.phi == 0.0
    T = TWO_PI / w
    phT = magnus_phase(g, w, T)
    assert abs(phT.xi) < 1e-15
    assert phT.phi == pytest.approx(TWO_PI * (g / w) ** 2, rel=1e-12)


def test_displacement_traces_a_circle():
    g, w = 0.3, 1.7
    for t in np.linspace(0.0, 2 * TWO_PI / w, 50):
        xi = magnus_phase(g, w, float(t)).xi
        assert abs(xi - g / w) == pytest.approx(abs(g / w), rel=1e-12)


def test_geometric_phase_nondecreasing():
    g, w = 0.4, 1.0
    ts = np.linspace(0.0, 3 * TWO_PI / w, 400)
    phis = [magnus_phase(g, w, float(t)).phi for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(phis, phis[1:]))


def test_max_displacement_value():
    g, w = 1.2, 1.0
    xi = magnus_phase(g, w, math.pi / w).xi
    assert abs(xi) == pytest.approx(2 * abs(g / w), rel=1e-12)


def test_phase_rejects_zero_frequency():
    with pytest.raises(ValidationError):
        magnus_phase(0.3, 0.0, 1.0)


# ---------------------------------------------------------------------------
# propagator against the time-ordered oracle
# ---------------------------------------------------------------------------

def test_propagator_identity_at_t0():
    space = HilbertSpace(1, 10)
    u = magnus_propagator(0.25, 1.0, 0.0, space)
    assert np.max(np.abs(u.matrix - np.eye(space.dim))) < 1e-14


@pytest.mark.parametrize("nq", [1, 2])
def test_propagator_unitary(nq):
    space = HilbertSpace(nq, 24)
    u = magnus_propagator(0.25, 1.0, 1.3, space)
    assert is_unitary(u.matrix, 1e-9)


@pytest.mark.parametrize("nq", [1, 2])
def test_propagator_matches_ode_on_converged_block(nq):
    # same space comparison at cutoff 40, restricted to source/target Fock
    # levels whose dynamics never feels the truncation wall
    space = HilbertSpace(nq, 40)
    g, w = 0.25, 1.0
    T = TWO_PI / w
    n_safe = 16
    cols = [q * 40 + n for q in range(space.qubit_dim) for n in range(n_safe)]
    u_ode = ode_propagator(g, w, T, space, columns=cols)
    u_mag = magnus_propagator(g, w, T, space).matrix[:, cols]
    rows = np.array(cols)
    assert np.max(np.abs((u_ode - u_mag)[rows, :])) < 1e-8


def test_propagator_half_period_matches_ode():
    space = HilbertSpace(1, 40)
    g, w = 0.25, 1.0
    t = math.pi / w
    cols = [q * 40 + n for q in range(2) for n in range(14)]
    u_ode = ode_propagator(g, w, t, space, columns=cols)
    u_mag = magnus_propagator(g, w, t, space).matrix[:, cols]
    rows = np.array(cols)
    assert np.max(np.abs((u_ode - u_mag)[rows, :])) < 1e-8


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------

def test_cat_initial_state_recovered():
    space = HilbertSpace(1, 16)
    psi = cat_evolution(0.3, 1.0, 0.0, space)
    expected = basis_state(space, "g", 0).amplitudes
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12


def test_cat_matches_schrodinger_evolution():
    space = HilbertSpace(1, 32)
    g, w = 0.3, 1.0
    H = jx_field_hamiltonian(g, w, space)
    psi0 = basis_state(space, "g", 0)
    t_end = 2.4 / w
    times = np.linspace(0.0, t_end, 9)
    traj = evolve_schrodinger(H, psi0, times,
                              IntegratorConfig(method="fixed_dp5", dt=0.05))
    closed = cat_evolution(g, w, t_end, space)
    overlap = abs(np.vdot(closed.amplitudes, traj.states[-1])) ** 2
    assert overlap >= 1.0 - 1e-8


def test_conditional_cat_trivial_limit():
    space = HilbertSpace(1, 12)
    psi = cat_evolution(0.3, 1.0, 0.0, space)
    cat, prob = conditional_cat(psi, "g")
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert abs(cat.state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        conditional_cat(psi, "e")


def test_conditional_cat_of_a_bell_like_state():
    # (|g,0> + |e,1>)/sqrt 2: each outcome is certain to herald one Fock state
    space = HilbertSpace(1, 4)
    v = np.zeros(space.dim, dtype=complex)
    v[space.index("g", 0)] = v[space.index("e", 1)] = 1 / math.sqrt(2)
    psi = PureState(space, v)
    for outcome, parity, fock in (("g", "even", 0), ("e", "odd", 1)):
        cat, prob = conditional_cat(psi, outcome)
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert cat.parity == parity
        assert cat.xi == 0
        assert cat.state.space == HilbertSpace(0, 4)
        assert np.allclose(cat.state.amplitudes, np.eye(4)[fock], atol=1e-15)
        assert cross_parity_population(cat) == 0.0


def test_conditional_probabilities_match_closed_form():
    space = HilbertSpace(1, 32)
    g, w = 1.0, 1.0   # |xi(pi/w)| = 2
    t = 0.55 * math.pi / w
    psi = cat_evolution(g, w, t, space)
    xi = magnus_phase(g, w, t).xi
    cat_g, p_g = conditional_cat(psi, "g")
    cat_e, p_e = conditional_cat(psi, "e")
    assert p_g + p_e == pytest.approx(1.0, abs=1e-10)
    assert p_g == pytest.approx(conditional_probability(xi, "g"), abs=1e-8)
    assert p_e == pytest.approx(conditional_probability(xi, "e"), abs=1e-8)
    assert cat_g.parity == "even" and cat_e.parity == "odd"
    # the recovered displacement agrees up to the xi -> -xi branch
    assert min(abs(cat_g.xi - xi), abs(cat_g.xi + xi)) < 1e-6


def test_cat_parity_purity():
    space = HilbertSpace(1, 32)
    g, w = 1.0, 1.0
    psi = cat_evolution(g, w, math.pi / w, space)  # |xi| = 2
    for outcome in ("g", "e"):
        cat, _ = conditional_cat(psi, outcome)
        assert cross_parity_population(cat) < 1e-10


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def test_entangling_power_values():
    assert entangling_power(math.pi / 4) == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert entangling_power(math.pi / 2) < 1e-30
    assert theta_from_coupling_ratio(0.25) == math.pi / 4


def test_entangling_power_symmetry_and_period():
    for x in np.linspace(0.0, math.pi / 4, 17):
        a = entangling_power(math.pi / 4 + float(x))
        b = entangling_power(math.pi / 4 - float(x))
        assert a == pytest.approx(b, abs=1e-14)
        c = entangling_power(float(x) + math.pi / 2)
        assert c == pytest.approx(entangling_power(float(x)), abs=1e-12)


def test_gate_identity_limit():
    u = gate_at_period(0.0, 1.0)
    assert np.max(np.abs(u - np.eye(4))) < 1e-15


def test_gate_quarter_turn_form():
    u = gate_at_period(0.25, 1.0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = (np.eye(4) + 1j * np.kron(sx, sx)) / math.sqrt(2)
    assert np.max(np.abs(u - expected)) < 1e-15


def test_gate_consistent_with_full_propagator():
    space = HilbertSpace(2, 24)
    g, w = 0.25, 1.0
    T = TWO_PI / w
    full = magnus_propagator(g, w, T, space)
    psi0 = basis_state(space, "gg", 0)
    final = full.matrix @ psi0.amplitudes
    theta = theta_from_coupling_ratio(g / w)
    qubit_out = gate_at_period(g, w) @ np.array([0, 0, 0, 1], dtype=complex)
    expected = np.zeros(space.dim, dtype=complex)
    for q in range(4):
        expected[q * 24] = qubit_out[q]
    expected *= cmath.exp(1j * theta)  # the dropped global phase
    assert np.max(np.abs(final - expected)) < 1e-9


def test_cnot_equivalence_of_quarter_gate():
    res = cnot_equivalence_check(gate_at_period(0.25, 1.0))
    assert res.equivalent
    assert res.residual < 1e-9
    assert res.ordering == "control_first"


def test_cnot_equivalence_rejects_identity():
    res = cnot_equivalence_check(np.eye(4, dtype=complex))
    assert not res.equivalent
    assert res.residual > 0.1


def test_cnot_exact_match_with_identity_locals():
    eye = np.eye(2, dtype=complex)
    res = cnot_equivalence_check(CNOT_CONTROL_FIRST,
                                 locals_pre=(eye, eye), locals_post=(eye, eye))
    assert res.equivalent
    assert res.residual == 0.0


def test_cnot_check_rejects_nonunitary():
    with pytest.raises(ValidationError):
        cnot_equivalence_check(np.ones((4, 4), dtype=complex))
