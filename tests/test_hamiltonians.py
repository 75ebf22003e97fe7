import dataclasses
import math

import numpy as np
import pytest

from modrabi.errors import ValidationError
from modrabi.hamiltonians import (TimeDependentHamiltonian, _bare, _coupling_matrices,
                                  dicke_hamiltonian, effective_hamiltonian, frame_phases,
                                  jx_field_hamiltonian, lab_hamiltonian, model,
                                  rotated_hamiltonian)
from modrabi.hilbert import HilbertSpace, annihilation, qubit_operator
from modrabi.modulation import (DriveParams, EffectiveParams, SystemParams,
                                effective_params)
from oracles import collective_qubit_operator, is_unitary, number_operator

TWO_PI = 2 * math.pi
GHZ = TWO_PI * 1e9
MHZ = TWO_PI * 1e6
NS = 1e-9

SYS = SystemParams(epsilon=5.4 * GHZ, omega=2.2 * GHZ, g=70 * MHZ)
DRIVE_A = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ,
                      eta1=2.296 / 3.2, eta2=4.849 / 6.759)


def hand_effective(eff, space):
    a = annihilation(space).matrix
    num = number_operator(space).matrix
    sz = qubit_operator(space, 0, "sz").matrix
    sp = qubit_operator(space, 0, "sp").matrix
    sm = qubit_operator(space, 0, "sm").matrix
    rot = eff.g_r * np.exp(-1j * eff.phi1) * (sp @ a)
    cnt = eff.g_cr * np.exp(1j * eff.phi2) * (sm @ a)
    return (eff.omega_eff * num + 0.5 * eff.epsilon_eff * sz
            + rot + rot.conj().T + cnt + cnt.conj().T)


# ---------------------------------------------------------------------------
# lab frame
# ---------------------------------------------------------------------------

def test_lab_without_drive_is_static_rabi():
    space = HilbertSpace(1, 5)
    drive0 = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.0, eta2=0.0)
    H = lab_hamiltonian(SYS, drive0, space)
    a = annihilation(space).matrix
    expected = (SYS.omega * number_operator(space).matrix
                + 0.5 * SYS.epsilon * qubit_operator(space, 0, "sz").matrix
                + SYS.g * ((a + a.conj().T) @ qubit_operator(space, 0, "sx").matrix))
    for t in (0.0, 0.3 * NS, 2.1 * NS):
        assert np.allclose(H.evaluate(t), expected, atol=0.0)


def test_lab_drive_term_at_t0():
    space = HilbertSpace(1, 4)
    H = lab_hamiltonian(SYS, DRIVE_A, space)
    drive0 = DriveParams(omega1=DRIVE_A.omega1, omega2=DRIVE_A.omega2,
                         eta1=0.0, eta2=0.0)
    H0 = lab_hamiltonian(SYS, drive0, space)
    diff = H.evaluate(0.0) - H0.evaluate(0.0)
    amp = DRIVE_A.eta1 * DRIVE_A.omega1 + DRIVE_A.eta2 * DRIVE_A.omega2
    expected = amp * qubit_operator(space, 0, "sz").matrix
    # few-ulp slack: the diagonal carries epsilon/2 ~ 1e10 rad/s before the cancellation
    assert np.max(np.abs(diff - expected)) < 64 * np.finfo(float).eps * SYS.epsilon


def test_lab_hermitian_at_random_times():
    space = HilbertSpace(1, 4)
    H = lab_hamiltonian(SYS, DRIVE_A, space)
    rng = np.random.default_rng(0)
    period = TWO_PI / DRIVE_A.omega1
    for t in rng.uniform(0, period, size=1000):
        m = H.evaluate(float(t))
        assert np.max(np.abs(m - m.conj().T)) < 1e-10 * SYS.epsilon


# ---------------------------------------------------------------------------
# rotating frame
# ---------------------------------------------------------------------------

def test_rotated_matches_direct_frame_transform():
    # U+ H U - diag(theta') with analytic phase rates, at random instants
    space = HilbertSpace(1, 6)
    H_lab = lab_hamiltonian(SYS, DRIVE_A, space)
    H_rot = rotated_hamiltonian(SYS, DRIVE_A, space)
    fp = frame_phases(SYS, DRIVE_A, space)
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.0, 3.0 * NS, size=25):
        t = float(t)
        u = fp.unitary_diag(t)
        rates = fp.linear + fp.sz_total * fp.drive_phase_rate(t)
        transformed = (u.conj()[:, None] * H_lab.evaluate(t)) * u[None, :] \
            - np.diag(rates)
        assert np.max(np.abs(transformed - H_rot.evaluate(t))) < 1e-8 * SYS.g


def test_rotated_with_phases_matches_direct_transform():
    space = HilbertSpace(1, 4)
    drive = DriveParams(omega1=3.1 * GHZ, omega2=6.9 * GHZ, eta1=0.43, eta2=0.71,
                        phi1=0.6, phi2=-1.1)
    H_lab = lab_hamiltonian(SYS, drive, space)
    H_rot = rotated_hamiltonian(SYS, drive, space)
    fp = frame_phases(SYS, drive, space)
    for t in np.linspace(0.0, 1.7 * NS, 13):
        t = float(t)
        u = fp.unitary_diag(t)
        rates = fp.linear + fp.sz_total * fp.drive_phase_rate(t)
        transformed = (u.conj()[:, None] * H_lab.evaluate(t)) * u[None, :] \
            - np.diag(rates)
        assert np.max(np.abs(transformed - H_rot.evaluate(t))) < 1e-8 * SYS.g


def test_rotated_bare_sidebands_closed_form():
    # zero amplitude, resonant tones: only the phase-rotated couplings remain
    space = HilbertSpace(1, 3)
    drive = DriveParams(omega1=SYS.epsilon - SYS.omega,
                        omega2=SYS.epsilon + SYS.omega, eta1=0.0, eta2=0.0)
    H = rotated_hamiltonian(SYS, drive, space)
    a = annihilation(space).matrix
    sp = qubit_operator(space, 0, "sp").matrix
    sm = qubit_operator(space, 0, "sm").matrix
    for t in (0.0, 0.11 * NS, 0.47 * NS):
        up = SYS.g * np.exp(1j * (SYS.epsilon - SYS.omega) * t) * (sp @ a)
        dn = SYS.g * np.exp(-1j * (SYS.epsilon + SYS.omega) * t) * (sm @ a)
        expected = up + up.conj().T + dn + dn.conj().T
        assert np.max(np.abs(H.evaluate(t) - expected)) < 1e-9 * SYS.g
        # coupling magnitudes are time-independent in this limit
        assert np.allclose(np.abs(H.evaluate(t)), np.abs(H.evaluate(0.0)), atol=1e-9 * SYS.g)


def test_rotated_norm_bound():
    space = HilbertSpace(1, 8)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    eff = effective_params(SYS, DRIVE_A)
    a = annihilation(space).matrix
    hint = SYS.g * ((a + a.conj().T) @ qubit_operator(space, 0, "sx").matrix)
    bound = (np.linalg.norm(hint, 2) + abs(eff.omega_eff) * (space.fock_cutoff - 1)
             + abs(eff.epsilon_eff) / 2)
    for t in np.linspace(0, 2 * NS, 40):
        assert np.linalg.norm(H.evaluate(float(t)), 2) <= bound * (1 + 1e-12)


def test_rotated_time_average_approaches_effective():
    space = HilbertSpace(1, 8)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    eff = effective_params(SYS, DRIVE_A)
    H_eff = effective_hamiltonian(eff, space)
    window = 200 * NS
    ts = np.linspace(0.0, window, 100_001)
    acc = np.zeros((space.dim, space.dim), dtype=complex)
    for t in ts:
        acc += H.evaluate(float(t))
    acc /= len(ts)
    defect = np.max(np.abs(acc - H_eff.evaluate(0.0)))
    assert defect < 0.05 * abs(eff.g_r)


def test_frame_unitary_properties():
    space = HilbertSpace(1, 4)
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.4, eta2=0.3,
                        phi1=0.9, phi2=0.2)
    fp = frame_phases(SYS, drive, space)
    u0 = np.diag(fp.unitary_diag(0.0))
    assert is_unitary(u0, 1e-12)
    assert np.max(np.abs(u0 - np.diag(np.diag(u0)))) == 0.0
    # nonzero initial phases make the frame nontrivial at t = 0
    assert np.max(np.abs(u0 - np.eye(space.dim))) > 1e-3


# ---------------------------------------------------------------------------
# effective Hamiltonian and specializations
# ---------------------------------------------------------------------------

def test_effective_matches_hand_built():
    space = HilbertSpace(1, 5)
    eff = effective_params(SYS, DRIVE_A)
    H = effective_hamiltonian(eff, space)
    assert np.max(np.abs(H.evaluate(0.0) - hand_effective(eff, space))) == 0.0
    m = H.evaluate(0.0)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_effective_spectrum_gauge_invariant_in_theta():
    space = HilbertSpace(1, 6)
    base = EffectiveParams(g_r=1.0, g_cr=0.7, omega_eff=0.5, epsilon_eff=0.2,
                           theta=0.0, anisotropy=0.7)
    ev0 = np.linalg.eigvalsh(effective_hamiltonian(base, space).evaluate(0.0))
    for theta in (0.4, 1.3, 2.9):
        shifted = EffectiveParams(g_r=1.0, g_cr=0.7, omega_eff=0.5, epsilon_eff=0.2,
                                  theta=theta, anisotropy=0.7, phi1=0.0, phi2=theta)
        ev = np.linalg.eigvalsh(effective_hamiltonian(shifted, space).evaluate(0.0))
        assert np.max(np.abs(ev - ev0)) < 1e-12


def test_model_specializations_and_constraints():
    space = HilbertSpace(1, 4)
    a = annihilation(space).matrix
    sp = qubit_operator(space, 0, "sp").matrix
    sm = qubit_operator(space, 0, "sm").matrix
    num = number_operator(space).matrix
    sz = qubit_operator(space, 0, "sz").matrix

    jc = EffectiveParams(g_r=-1.0, g_cr=0.0, omega_eff=0.5, epsilon_eff=0.5,
                         theta=0.0, anisotropy=0.0)
    H = model("jc", jc, space).evaluate(0.0)
    expected = 0.5 * num + 0.25 * sz - (sp @ a + (sp @ a).conj().T)
    assert np.max(np.abs(H - expected)) == 0.0

    ajc = EffectiveParams(g_r=0.0, g_cr=-1.0, omega_eff=0.5, epsilon_eff=0.5,
                          theta=0.0, anisotropy=math.inf)
    H = model("ajc", ajc, space).evaluate(0.0)
    expected = 0.5 * num + 0.25 * sz - (sm @ a + (sm @ a).conj().T)
    assert np.max(np.abs(H - expected)) == 0.0

    qrm = EffectiveParams(g_r=-1.0, g_cr=-1.0, omega_eff=0.5, epsilon_eff=0.0,
                          theta=0.0, anisotropy=1.0)
    H = model("qrm", qrm, space).evaluate(0.0)
    sx = qubit_operator(space, 0, "sx").matrix
    expected = 0.5 * num - ((a + a.conj().T) @ sx)
    assert np.max(np.abs(H - expected)) < 1e-15

    with pytest.raises(ValidationError):
        model("jc", qrm, space)
    with pytest.raises(ValidationError):
        model("degenerate_aqrm", qrm, space)
    with pytest.raises(ValidationError):
        model("nope", qrm, space)


def test_model_rejects_rounded_suppression():
    # 4-digit drive amplitudes leave |g_cr| ~ 1e-5 g: not an exact JC
    drive = DriveParams(omega1=3.2 * GHZ, omega2=7.565 * GHZ,
                        eta1=3.848 / 3.2, eta2=5.427 / 7.565)
    eff = effective_params(SYS, drive)
    space = HilbertSpace(1, 4)
    with pytest.raises(ValidationError):
        model("jc", eff, space)


def test_degenerate_endpoints_reduce_to_jc_and_ajc():
    space = HilbertSpace(1, 4)
    deg_jc = EffectiveParams(g_r=-1.0, g_cr=0.0, omega_eff=0.0, epsilon_eff=0.0,
                             theta=0.0, anisotropy=0.0)
    h1 = model("degenerate_aqrm", deg_jc, space).evaluate(0.0)
    h2 = model("jc", EffectiveParams(g_r=-1.0, g_cr=0.0, omega_eff=0.0,
                                     epsilon_eff=0.0, theta=0.0,
                                     anisotropy=0.0), space).evaluate(0.0)
    assert np.max(np.abs(h1 - h2)) == 0.0
    deg_ajc = EffectiveParams(g_r=0.0, g_cr=-1.0, omega_eff=0.0, epsilon_eff=0.0,
                              theta=0.0, anisotropy=math.inf)
    h3 = model("degenerate_aqrm", deg_ajc, space).evaluate(0.0)
    h4 = model("ajc", deg_ajc, space).evaluate(0.0)
    assert np.max(np.abs(h3 - h4)) == 0.0


def test_excitation_number_conservation():
    space = HilbertSpace(1, 5)
    n_tot = (number_operator(space).matrix
             + qubit_operator(space, 0, "sp").matrix @ qubit_operator(space, 0, "sm").matrix)
    jc = EffectiveParams(g_r=-1.0, g_cr=0.0, omega_eff=0.5, epsilon_eff=0.5,
                         theta=0.0, anisotropy=0.0)
    h_jc = model("jc", jc, space).evaluate(0.0)
    assert np.max(np.abs(h_jc @ n_tot - n_tot @ h_jc)) == 0.0
    qrm = EffectiveParams(g_r=-1.0, g_cr=-1.0, omega_eff=0.5, epsilon_eff=0.0,
                          theta=0.0, anisotropy=1.0)
    h_qrm = model("qrm", qrm, space).evaluate(0.0)
    assert np.max(np.abs(h_qrm @ n_tot - n_tot @ h_qrm)) > 0.1


# ---------------------------------------------------------------------------
# collective forms
# ---------------------------------------------------------------------------

def test_dicke_single_qubit_reduces_to_interaction_aqrm():
    space = HilbertSpace(1, 4)
    eff = effective_params(SYS, DRIVE_A)
    H = dicke_hamiltonian(eff, space)
    a = annihilation(space).matrix
    sp = qubit_operator(space, 0, "sp").matrix
    sm = qubit_operator(space, 0, "sm").matrix
    for t in (0.0, 0.4 * NS, 1.9 * NS):
        c1 = eff.g_r * np.exp(-1j * (eff.delta1 * t + eff.phi1))
        c2 = eff.g_cr * np.exp(-1j * (eff.delta2 * t - eff.phi2))
        expected = c1 * (sp @ a) + c2 * (sm @ a)
        expected = expected + expected.conj().T
        assert np.max(np.abs(H.evaluate(t) - expected)) < 1e-9 * SYS.g


def test_dicke_coefficients_are_the_hand_formula_bit_for_bit():
    space = HilbertSpace(2, 3)
    eff = effective_params(SYS, DRIVE_A)
    t = np.array([0.0, 0.4, 1.9, 37.3]) * NS
    c1 = eff.g_r * np.exp(-1j * (eff.delta1 * t + eff.phi1))
    c2 = eff.g_cr * np.exp(-1j * (eff.delta2 * t - eff.phi2))
    want = np.stack([c1, c1.conj(), c2, c2.conj()], axis=-1)
    assert np.array_equal(dicke_hamiltonian(eff, space).coefficients(t), want)


def test_dicke_two_qubit_balanced_at_t0():
    space = HilbertSpace(2, 3)
    eff = EffectiveParams(g_r=-1.0, g_cr=-1.0, omega_eff=0.0, epsilon_eff=0.0,
                          theta=0.0, anisotropy=1.0)
    H = dicke_hamiltonian(eff, space)
    a = annihilation(space).matrix
    jx = collective_qubit_operator(space, "jx").matrix
    expected = -((a + a.conj().T) @ jx)
    assert np.max(np.abs(H.evaluate(0.0) - expected)) < 1e-14


def test_dicke_pictures_consistent():
    space = HilbertSpace(2, 3)
    eff = EffectiveParams(g_r=0.8, g_cr=0.3, omega_eff=0.9, epsilon_eff=0.4,
                          theta=0.0, anisotropy=0.375, phi1=0.3, phi2=-0.2)
    H_int = dicke_hamiltonian(eff, space)
    H_sta = effective_hamiltonian(eff, space)
    num = number_operator(space).matrix
    jz = collective_qubit_operator(space, "jz").matrix
    h0 = eff.omega_eff * num + eff.epsilon_eff * jz
    w, v = np.linalg.eigh(h0)
    for t in (0.0, 0.7, 2.3):
        u0 = v @ np.diag(np.exp(1j * w * t)) @ v.conj().T
        expected = u0 @ (H_sta.evaluate(t) - h0) @ u0.conj().T
        assert np.max(np.abs(H_int.evaluate(t) - expected)) < 1e-12


def test_reduced_collective_field_commutes_with_jx():
    space = HilbertSpace(2, 4)
    H = jx_field_hamiltonian(0.7, 1.3, space)
    jx = collective_qubit_operator(space, "jx").matrix
    for t in (0.0, 0.5, 1.8, 4.0):
        m = H.evaluate(t)
        assert np.max(np.abs(m @ jx - jx @ m)) < 1e-13


def test_jx_field_matches_balanced_degenerate_dicke():
    space = HilbertSpace(2, 3)
    g_eff, delta = -0.6, 0.9
    eff = EffectiveParams(g_r=g_eff, g_cr=g_eff, omega_eff=delta, epsilon_eff=0.0,
                          theta=0.0, anisotropy=1.0)
    H_dicke = dicke_hamiltonian(eff, space)
    H_jx = jx_field_hamiltonian(g_eff, delta, space)
    for t in (0.0, 0.3, 1.1):
        assert np.max(np.abs(H_dicke.evaluate(t) - H_jx.evaluate(t))) < 1e-13


# ---------------------------------------------------------------------------
# operators written from the basis labels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_qubits", range(4))
@pytest.mark.parametrize("cutoff", range(1, 7))
def test_label_built_operators_equal_the_kron_built_ones(n_qubits, cutoff):
    # the bare energies, J+- a, the frame phases and the couplings built from
    # them, written from the basis labels, against the dense kron-built
    # constructors of hilbert, exactly
    space = HilbertSpace(n_qubits, cutoff)
    eff = effective_params(SYS, DRIVE_A)
    jz = collective_qubit_operator(space, "jz").matrix
    phases = frame_phases(SYS, DRIVE_A, space)
    sz_total = 2.0 * np.real(np.diagonal(jz))
    fock = np.tile(np.arange(cutoff, dtype=float), space.qubit_dim)
    assert np.array_equal(phases.sz_total, sz_total)
    assert np.array_equal(phases.linear, (SYS.omega - eff.omega_eff) * fock
                          + 0.5 * (SYS.epsilon - eff.epsilon_eff) * sz_total)
    if cutoff < 2:      # no ladder: J+- a is refused, as annihilation refuses a
        with pytest.raises(ValidationError, match="resonator"):
            _coupling_matrices(space)
        return
    for omega, epsilon in ((eff.omega_eff, eff.epsilon_eff), (-3.5, 0.25)):
        assert np.array_equal(_bare(omega, epsilon, space),
                              omega * number_operator(space).matrix + epsilon * jz)
    a = annihilation(space).matrix
    for built, kind in zip(_coupling_matrices(space), ("jp", "jm")):
        assert np.array_equal(built, collective_qubit_operator(space, kind).matrix @ a)
    if n_qubits == 0:
        return
    # the lab frame's g (a + a+) Jx and 2 Jz, and the effective model's static
    # part against its sum of four coupling terms, bit for bit (signed zeros too)
    lab = lab_hamiltonian(SYS, DRIVE_A, space)
    jx = collective_qubit_operator(space, "jx").matrix
    expected = _bare(SYS.omega, SYS.epsilon, space) + SYS.g * ((a + a.conj().T) @ jx)
    assert lab.static.tobytes() == expected.tobytes()
    assert lab.terms[0].tobytes() == (2.0 * jz).tobytes()
    jp_a, jm_a = _coupling_matrices(space)
    for phi1, phi2 in ((0.0, 0.0), (0.7, -1.3)):
        phased = dataclasses.replace(eff, phi1=phi1, phi2=phi2)
        rot = eff.g_r * np.exp(-1j * phi1) * jp_a
        cnt = eff.g_cr * np.exp(1j * phi2) * jm_a
        expected = (_bare(eff.omega_eff, eff.epsilon_eff, space)
                    + rot + rot.conj().T + cnt + cnt.conj().T)
        assert effective_hamiltonian(phased, space).static.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_structured_form_checks_and_replace():
    space = HilbertSpace(1, 3)
    H = rotated_hamiltonian(SYS, DRIVE_A, space)
    with pytest.raises(ValidationError):     # no static part
        TimeDependentHamiltonian(space=space, evaluate=H.evaluate)
    with pytest.raises(ValidationError):
        dataclasses.replace(H, coefficients=None)
    # a replaced part reaches the dense assembly; a replaced evaluate is kept
    shifted = dataclasses.replace(H, static=H.static + np.eye(space.dim))
    t = 0.37 * NS
    assert np.max(np.abs(shifted.evaluate(t) - H.evaluate(t) - np.eye(space.dim))) < 1e-3
    probe = dataclasses.replace(H, evaluate=lambda t: "probe")
    assert probe.evaluate(t) == "probe"
