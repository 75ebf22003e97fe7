"""Test oracles: operators built densely from kron products, a unitarity
check and the tone swap.  The package writes its operators from the basis
labels and no command needs these, so they live with the tests, as the
independent constructions the label-built operators are checked against."""

from dataclasses import replace

import numpy as np

from modrabi.errors import ValidationError
from modrabi.hilbert import (_SIGMA, HilbertSpace, Operator, _require_resonator,
                             annihilation, embed_qubit, embed_resonator)
from modrabi.modulation import DriveParams


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def creation(space: HilbertSpace) -> Operator:
    return Operator(space, annihilation(space).matrix.conj().T)


def number_operator(space: HilbertSpace) -> Operator:
    _require_resonator(space)
    n = np.diag(np.arange(space.fock_cutoff, dtype=float)).astype(complex)
    return Operator(space, embed_resonator(space, n))


def collective_qubit_operator(space: HilbertSpace, kind: str) -> Operator:
    """Sum of the single-qubit operator `kind` over all qubits (J+, J-, Jx, Jz).

    Jz follows the commutator convention Jz = [J+, J-]/2, i.e. half the sum of
    sigma_z; Jx is the plain sum of sigma_x.
    """
    if kind == "jz":
        mats = [0.5 * embed_qubit(space, k, _SIGMA["sz"]) for k in range(space.n_qubits)]
    elif kind in ("jx", "jp", "jm"):
        key = {"jx": "sx", "jp": "sp", "jm": "sm"}[kind]
        mats = [embed_qubit(space, k, _SIGMA[key]) for k in range(space.n_qubits)]
    else:
        raise ValidationError(f"unknown collective operator kind {kind!r}")
    return Operator(space, sum(mats, np.zeros((space.dim, space.dim), dtype=complex)))


def is_unitary(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    d = matrix @ matrix.conj().T - np.eye(matrix.shape[0])
    return bool(np.max(np.abs(d)) <= tol)


def swap_tones(drive: DriveParams) -> DriveParams:
    """Exchange the two tones; swaps the roles of g_r and g_cr."""
    return replace(drive, omega1=drive.omega2, omega2=drive.omega1,
                   eta1=drive.eta2, eta2=drive.eta1,
                   phi1=drive.phi2, phi2=drive.phi1)
