import math

import numpy as np
import pytest

from modrabi.errors import TruncationWarning, ValidationError
from modrabi.hilbert import (DensityMatrix, HilbertSpace, Operator, PureState,
                             annihilation, basis_state, coherent_state,
                             coherent_tail_mass, displacement, qubit_operator)
from oracles import collective_qubit_operator, creation, identity, number_operator


def test_space_dimensions_and_index():
    sp = HilbertSpace(2, 5)
    assert sp.dim == 20
    assert sp.index("ee", 0) == 0
    assert sp.index("eg", 3) == 8
    assert sp.index("gg", 4) == 19
    with pytest.raises(ValidationError):
        sp.index("e", 0)
    with pytest.raises(ValidationError):
        HilbertSpace(-1, 4)


def test_annihilation_defining_elements():
    sp = HilbertSpace(0, 2)
    a = annihilation(sp).matrix
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    adag = creation(sp).matrix
    assert np.array_equal(adag, a.conj().T)


def test_creation_is_exact_adjoint():
    sp = HilbertSpace(1, 17)
    a = annihilation(sp)
    assert np.array_equal(creation(sp).matrix, a.matrix.conj().T)


def test_truncated_commutator_diagonal():
    sp = HilbertSpace(0, 4)
    a = annihilation(sp)
    comm = a.matrix @ creation(sp).matrix - creation(sp).matrix @ a.matrix
    assert np.allclose(np.diag(comm), [1, 1, 1, -3])
    assert np.max(np.abs(comm - np.diag(np.diag(comm)))) == 0.0


def test_number_operator_spectrum():
    sp = HilbertSpace(1, 6)
    evals = np.sort(np.linalg.eigvalsh(number_operator(sp).matrix))
    assert np.allclose(evals, np.repeat(np.arange(6), 2))


def test_qubit_ladder_identities():
    sp = HilbertSpace(1, 3)
    sp_op = qubit_operator(sp, 0, "sp")
    sm_op = qubit_operator(sp, 0, "sm")
    sx_op = qubit_operator(sp, 0, "sx")
    proj_e = sp_op.matrix @ sm_op.matrix
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(3)).astype(complex)
    assert np.array_equal(proj_e, expected)
    assert np.array_equal(sx_op.matrix, (sp_op.matrix + sm_op.matrix))
    with pytest.raises(ValidationError):
        qubit_operator(sp, 1, "sx")


def test_two_qubit_collective_x_spectrum():
    sp = HilbertSpace(2, 2)
    jx = collective_qubit_operator(sp, "jx").matrix
    evals = np.sort(np.linalg.eigvalsh(jx))
    assert np.allclose(evals, np.repeat([-2, 0, 0, 2], 2))


def test_displacement_identity_at_zero():
    sp = HilbertSpace(1, 12)
    d0 = displacement(sp, 0.0)
    assert np.allclose(d0.matrix, np.eye(sp.dim), atol=1e-14)


def test_displacement_photon_number_poisson():
    sp = HilbertSpace(0, 32)
    xi = 1.0
    psi = displacement(sp, xi).matrix[:, 0]
    measured = float(np.real(np.vdot(psi, number_operator(sp).matrix @ psi)))
    # independent oracle: truncated Poisson statistics
    pops = [math.exp(-abs(xi) ** 2) * abs(xi) ** (2 * n) / math.factorial(n)
            for n in range(32)]
    expected = sum(n * p for n, p in enumerate(pops)) / sum(pops)
    assert abs(measured - abs(xi) ** 2) < 1e-6
    assert abs(measured - expected) < 1e-9


def test_displacement_unitarity_roundtrip():
    sp = HilbertSpace(0, 32)
    for xi in (0.4, 1.0 + 0.5j, 1.9j):
        assert abs(xi) ** 2 <= sp.fock_cutoff / 8
        prod = displacement(sp, -xi).matrix @ displacement(sp, xi).matrix
        assert np.max(np.abs(prod - np.eye(sp.dim))) < 1e-9
    vac = np.zeros(sp.dim, dtype=complex)
    vac[0] = 1.0
    amp = np.vdot(vac, displacement(sp, -1.0).matrix @ displacement(sp, 1.0).matrix @ vac)
    assert abs(amp - 1.0) < 1e-10


def test_displacement_warns_when_large():
    sp = HilbertSpace(0, 8)
    with pytest.warns(TruncationWarning):
        displacement(sp, 2.5)


def test_coherent_tail_mass_matches_poisson():
    sp = HilbertSpace(0, 20)
    xi = 1.3
    expected = math.exp(-xi ** 2) * xi ** (2 * 19) / math.factorial(19)
    assert abs(coherent_tail_mass(sp, xi) - expected) < 1e-25


def test_coherent_state_overlap_formula():
    sp = HilbertSpace(0, 32)
    rng = np.random.default_rng(7)
    for _ in range(12):
        al = (rng.normal() + 1j * rng.normal()) * 0.5
        be = (rng.normal() + 1j * rng.normal()) * 0.5
        if abs(al) > 1 or abs(be) > 1:
            continue
        sa = coherent_state(sp, al).amplitudes
        sb = coherent_state(sp, be).amplitudes
        got = np.vdot(sa, sb)
        want = np.exp(-(abs(al) ** 2 + abs(be) ** 2) / 2 + np.conj(al) * be)
        assert abs(got - want) < 1e-8


def test_opposite_coherent_overlap():
    sp = HilbertSpace(0, 32)
    for xi in (0.3, 0.9, 1.2):
        sa = coherent_state(sp, xi).amplitudes
        sb = coherent_state(sp, -xi).amplitudes
        assert abs(np.vdot(sa, sb) - math.exp(-2 * xi ** 2)) < 1e-8


def test_coherent_zero_is_vacuum():
    sp = HilbertSpace(1, 6)
    psi = coherent_state(sp, 0.0)
    assert abs(psi.amplitudes[sp.index("g", 0)] - 1.0) < 1e-14


def test_factor_spaces_hold_the_factors_of_a_product_state():
    # applications builds its factors as HilbertSpace(0, n) and HilbertSpace(n, 1);
    # the qubits lead the product basis, so kron(qubits, resonator) is the joint state
    rng = np.random.default_rng(3)
    full, qubits, resonator = HilbertSpace(2, 3), HilbertSpace(2, 1), HilbertSpace(0, 3)
    assert (qubits.dim, resonator.dim) == (full.qubit_dim, full.fock_cutoff)
    for q, m in (("ge", 2), ("eg", 0), ("gg", 1)):
        joint = np.kron(basis_state(qubits, q, 0).amplitudes,
                        basis_state(resonator, "", m).amplitudes)
        assert np.array_equal(joint, basis_state(full, q, m).amplitudes)
    for _ in range(5):
        g_q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g_r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho_q = DensityMatrix(qubits, g_q @ g_q.conj().T / np.trace(g_q @ g_q.conj().T))
        rho_r = DensityMatrix(resonator, g_r @ g_r.conj().T / np.trace(g_r @ g_r.conj().T))
        blocks = DensityMatrix(full, np.kron(rho_q.matrix, rho_r.matrix)).matrix.reshape(4, 3, 4, 3)
        assert np.max(np.abs(np.einsum("injn->ij", blocks) - rho_q.matrix)) < 1e-12
        assert np.max(np.abs(np.einsum("imin->mn", blocks) - rho_r.matrix)) < 1e-12
    with pytest.raises(ValidationError):
        annihilation(qubits)


def test_state_and_operator_validation():
    sp = HilbertSpace(1, 3)
    with pytest.raises(ValidationError):
        PureState(sp, np.ones(6, dtype=complex))
    with pytest.raises(ValidationError):
        Operator(sp, np.eye(5, dtype=complex))
    with pytest.raises(ValidationError):
        DensityMatrix(sp, np.eye(6, dtype=complex))  # trace 6
    bad = np.diag([1.5, -0.5, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValidationError):
        DensityMatrix(sp, bad)


def test_operator_immutability():
    sp = HilbertSpace(1, 2)
    op = identity(sp)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0
