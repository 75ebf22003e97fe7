"""Dense linear algebra on a truncated qubit(s) x resonator Hilbert space.

Conventions
-----------
* Basis ordering is qubits-then-resonator with row-major tensor indexing:
  the composite state |q_1, ..., q_n, m> has linear index
  ``(((q_1 * 2 + q_2) * 2 + ...) * fock_cutoff) + m``.
* Each qubit basis is (|e>, |g>) so that sigma_z = diag(+1, -1) literally:
  index 0 is the excited state, index 1 the ground state.
* The resonator keeps Fock levels 0 .. fock_cutoff-1. All operators act on
  the truncated ladder; ``[a, a+]`` therefore equals 1 everywhere except the
  top level, where it is -(fock_cutoff - 1).
* Every value is immutable after construction (backing arrays are marked
  read-only), so instances are safe to share across worker processes.
* A `PureState` has a norm within `STATE_NORM_TOL` of 1.  A `DensityMatrix`
  has a Hermiticity defect max |rho - rho+| of at most `STATE_HERM_TOL`, a
  trace within `STATE_TRACE_TOL` of 1 and no eigenvalue below
  `STATE_EIG_FLOOR`; anything else is rejected at construction.

Degenerate spaces with ``n_qubits = 0`` or ``fock_cutoff = 1`` are allowed:
`applications` builds its resonator factor as ``HilbertSpace(0, n)`` and its
qubit factor as ``HilbertSpace(n, 1)``.  The ladder and drive constructors
require a real resonator (``fock_cutoff >= 2``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationWarning, ValidationError

_SIGMA = {
    "sz": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sp": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # |e><g|
    "sm": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),  # |g><e|
}

STATE_NORM_TOL = 1e-12      # largest |norm - 1| of a PureState
STATE_HERM_TOL = 1e-10      # largest max |rho - rho+| of a DensityMatrix
STATE_TRACE_TOL = 1e-10     # largest |Tr rho - 1| of a DensityMatrix
STATE_EIG_FLOOR = -1e-8     # least eigenvalue of a DensityMatrix


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor structure of the simulation space."""

    n_qubits: int
    fock_cutoff: int

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValidationError("n_qubits must be >= 0")
        if self.fock_cutoff < 1:
            raise ValidationError("fock_cutoff must be >= 1")
        if self.dim < 1:
            raise ValidationError("empty Hilbert space")

    @property
    def qubit_dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def dim(self) -> int:
        return self.qubit_dim * self.fock_cutoff

    def index(self, qubits: str, fock: int) -> int:
        """Linear index of |qubits, fock>, e.g. ('ge', 3)."""
        if len(qubits) != self.n_qubits:
            raise ValidationError(f"expected {self.n_qubits} qubit labels, got {qubits!r}")
        if not 0 <= fock < self.fock_cutoff:
            raise ValidationError(f"Fock level {fock} outside 0..{self.fock_cutoff - 1}")
        q = 0
        for ch in qubits:
            if ch not in "eg":
                raise ValidationError(f"qubit label must be 'e' or 'g', got {ch!r}")
            q = 2 * q + (0 if ch == "e" else 1)
        return q * self.fock_cutoff + fock


@dataclass(frozen=True)
class Operator:
    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PureState:
    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = _frozen(self.amplitudes).reshape(-1)
        if v.shape != (self.space.dim,):
            raise ValidationError(
                f"amplitude vector length {v.shape[0]} does not match dimension {self.space.dim}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"state norm {nrm} deviates from 1 beyond {STATE_NORM_TOL}")
        object.__setattr__(self, "amplitudes", v)

    def density_matrix(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(self.space, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > STATE_HERM_TOL:
            raise ValidationError(f"hermiticity defect {herm} beyond {STATE_HERM_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {STATE_TRACE_TOL}")
        lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if lo < STATE_EIG_FLOOR:
            raise ValidationError(f"minimum eigenvalue {lo} below floor {STATE_EIG_FLOOR}")
        object.__setattr__(self, "matrix", m)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _require_resonator(space: HilbertSpace):
    if space.fock_cutoff < 2:
        raise ValidationError("operation needs a resonator factor (fock_cutoff >= 2)")


def basis_labels(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """The Fock level and the number of excited qubits of each basis state,
    so a diagonal operator needs no matrix built to read it off."""
    qubits, fock = np.divmod(np.arange(space.dim), space.fock_cutoff)
    ground = (qubits[:, None] >> np.arange(space.n_qubits)) & 1    # a set bit: ground
    return fock, space.n_qubits - ground.sum(axis=1)


def embed_resonator(space: HilbertSpace, mat: np.ndarray) -> np.ndarray:
    """Tensor a fock_cutoff x fock_cutoff matrix with identity on the qubits."""
    return np.kron(np.eye(space.qubit_dim, dtype=complex), mat)


def embed_qubit(space: HilbertSpace, which: int, mat2: np.ndarray) -> np.ndarray:
    """Tensor a 2x2 matrix on qubit `which` with identities elsewhere."""
    if not 0 <= which < space.n_qubits:
        raise ValidationError(f"qubit index {which} outside 0..{space.n_qubits - 1}")
    out = np.eye(1, dtype=complex)
    for k in range(space.n_qubits):
        out = np.kron(out, mat2 if k == which else np.eye(2, dtype=complex))
    return np.kron(out, np.eye(space.fock_cutoff, dtype=complex))


def annihilation(space: HilbertSpace) -> Operator:
    """Resonator lowering operator, <m-1|a|m> = sqrt(m)."""
    _require_resonator(space)
    n = space.fock_cutoff
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)
    return Operator(space, embed_resonator(space, a))


def qubit_operator(space: HilbertSpace, which: int, kind: str) -> Operator:
    """Pauli or ladder matrix on one qubit; kind in {'sz','sx','sp','sm'}."""
    if kind not in _SIGMA:
        raise ValidationError(f"unknown qubit operator kind {kind!r}")
    return Operator(space, embed_qubit(space, which, _SIGMA[kind]))


def coherent_tail_mass(space: HilbertSpace, xi: complex) -> float:
    """Poisson weight of |xi> at the top retained Fock level."""
    nbar = abs(xi) ** 2
    top = space.fock_cutoff - 1
    if nbar == 0.0:
        return 0.0
    log_p = -nbar + top * math.log(nbar) - math.lgamma(top + 1)
    return math.exp(log_p)


def displacement(space: HilbertSpace, xi: complex) -> Operator:
    """exp(xi a+ - conj(xi) a) on the truncated ladder.

    `scipy.linalg` loads on the first call, not with this module.
    """
    from scipy.linalg import expm
    _require_resonator(space)
    n = space.fock_cutoff
    if abs(xi) ** 2 > n / 4.0:
        warnings.warn(
            f"displacement |xi|^2 = {abs(xi) ** 2:.3g} is large for cutoff {n}",
            TruncationWarning, stacklevel=2)
    tail = coherent_tail_mass(space, xi)
    if tail > 1e-8:
        warnings.warn(
            f"coherent tail mass {tail:.3g} at the top Fock level exceeds 1e-8",
            TruncationWarning, stacklevel=2)
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)
    gen = xi * a.conj().T - np.conj(xi) * a
    return Operator(space, embed_resonator(space, expm(gen)))


def basis_state(space: HilbertSpace, qubits: str = "", fock: int = 0) -> PureState:
    """Product basis state |qubits> x |fock>, e.g. basis_state(s, 'g', 0)."""
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(qubits, fock)] = 1.0
    return PureState(space, v)


def coherent_state(space: HilbertSpace, xi: complex) -> PureState:
    """D(xi)|0> on the resonator factor, renormalized after truncation.

    The qubit factor (if any) is left in |g...g>.
    """
    _require_resonator(space)
    vac = basis_state(space, "g" * space.n_qubits, 0)
    v = displacement(space, xi).matrix @ vac.amplitudes
    v = v / np.linalg.norm(v)
    return PureState(space, v)
