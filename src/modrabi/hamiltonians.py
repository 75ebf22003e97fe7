"""Hamiltonian builders: lab frame, exact rotating frame, effective models.

The rotating frame is the product of two commuting diagonal unitaries: the
first removes the bare energies and the accumulated drive phase
Phi(t) = sum_j eta_j sin(Omega_j t + phi_j) acting on sigma_z, the second
deposits the effective frequencies omega_eff and epsilon_eff.  Written per
basis state |s1..sN, m>, the combined frame is

    U(t) = diag exp(-i [ (omega - omega_eff) m t
                         + (sum_i s_i) ((epsilon - epsilon_eff) t / 2 + Phi(t)) ]).

Because U is diagonal, the transformed Hamiltonian
H~ = U+ H U - i U+ dU/dt is computed analytically: the derivative term
cancels the bare and drive parts exactly and leaves

    H~(t) = omega_eff a+a + epsilon_eff Jz
            + g sum_i [ e^{i(2 chi - mu)} sigma_i+ a
                        + e^{-i(2 chi + mu)} sigma_i- a + h.c. ],

with chi(t) = (epsilon - epsilon_eff) t / 2 + Phi(t) and
mu(t) = (omega - omega_eff) t.  No numerical differentiation of U is ever
involved; at GHz phase scales that cancellation must be exact to survive.

Every builder returns H(t) = static + sum_k c_k(t) M_k: a dense static
matrix, fixed couplings M_k held as plain (d, d) arrays, and vectorized
coefficients c_k.  In the rotating frame all GHz-scale phases sit in the
four scalar c_k and the M_k are band-sparse; the propagators gather the
nonzeros of the static part and of every M_k into one sparse pattern when a
run starts (`dynamics`), so building, planning and checking a run need
numpy alone, and they evaluate the coefficients of many times in one numpy
call.  The static anisotropic Rabi/Dicke matrix is written once, in
`effective_hamiltonian`: the `model` specializations are it at projected
parameters, and the collective Jx field is the interaction-picture Dicke
form at balanced couplings; the exact frame and the Dicke form share one
assembly, `_collective`, and the lab frame and the effective model one
constant coupling, `_coupling`.  The bare energies, the frame phases, sigma_z
and J+- a are written from the basis labels (`hilbert.basis_labels`): no
dense operator is built only to read its diagonal, and no d x d product is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ValidationError
from .hilbert import HilbertSpace, _require_resonator, basis_labels
from .modulation import (DriveParams, EffectiveParams, SystemParams,
                         effective_params)

MODEL_KINDS = ("qrm", "jc", "ajc", "degenerate_aqrm")
_CONSTRAINT_RTOL = 1e-9


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """H(t) = static + sum_k c_k(t) M_k and the step scale its builder suggests.

    `static` is the dense constant part, required; `terms` holds the M_k as
    (d, d) arrays (a scipy sparse term is converted to one, once, here) and
    `coefficients` maps times (T,) to the (T, K) complex c_k, and a static
    Hamiltonian has neither.  `descriptor["suggested_dt"]` is fixed
    RK4's default step (inf where H suggests none).  `evaluate(t)`, the
    dense assembly, is a reference that propagators never call.
    """

    space: HilbertSpace
    evaluate: Callable[[float], np.ndarray] | None = None
    descriptor: dict = field(default_factory=dict)
    static: np.ndarray | None = None
    terms: tuple = ()
    coefficients: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.static is None:
            raise ValidationError("a Hamiltonian needs a static part")
        if bool(self.terms) != (self.coefficients is not None):
            raise ValidationError("coupling terms and coefficients go together")
        object.__setattr__(self, "terms", tuple(
            m.toarray() if hasattr(m, "toarray") else np.asarray(m) for m in self.terms))
        # dataclasses.replace hands over the old instance's bound assembly
        inherited = getattr(self.evaluate, "__func__", None) is TimeDependentHamiltonian._assemble
        if self.evaluate is None or inherited:
            object.__setattr__(self, "evaluate", self._assemble)

    def _assemble(self, t: float) -> np.ndarray:
        h = np.array(self.static, dtype=complex)
        if self.terms:
            for c, m in zip(self.coefficients(np.array([t]))[0], self.terms):
                h += c * m
        return h


def _drive_phase(drive: DriveParams, t):
    """Phi(t) = sum_j eta_j sin(Omega_j t + phi_j), elementwise in t."""
    return (drive.eta1 * np.sin(drive.omega1 * t + drive.phi1)
            + drive.eta2 * np.sin(drive.omega2 * t + drive.phi2))


def _drive_phase_rate(drive: DriveParams, t):
    """dPhi/dt, elementwise in t."""
    return (drive.eta1 * drive.omega1 * np.cos(drive.omega1 * t + drive.phi1)
            + drive.eta2 * drive.omega2 * np.cos(drive.omega2 * t + drive.phi2))


@dataclass(frozen=True)
class FramePhases:
    """Per-basis-state phase decomposition of the diagonal frame unitary.

    theta_k(t) = linear_k * t + sz_total_k * Phi(t); U(t) = diag(exp(-i theta)).
    """

    space: HilbertSpace
    linear: np.ndarray     # rad/s per basis state
    sz_total: np.ndarray   # sum of sigma_z eigenvalues per basis state
    drive: DriveParams

    def drive_phase(self, t: float) -> float:
        return float(_drive_phase(self.drive, t))

    def drive_phase_rate(self, t: float) -> float:
        return float(_drive_phase_rate(self.drive, t))

    def phases(self, t: float) -> np.ndarray:
        return self.linear * t + self.sz_total * self.drive_phase(t)

    def unitary_diag(self, t: float) -> np.ndarray:
        return np.exp(-1j * self.phases(t))


def frame_phases(sys: SystemParams, drive: DriveParams,
                 space: HilbertSpace) -> FramePhases:
    eff = effective_params(sys, drive)
    fock, excited = basis_labels(space)
    sz_total = 2.0 * excited - space.n_qubits
    linear = (sys.omega - eff.omega_eff) * fock + 0.5 * (sys.epsilon - eff.epsilon_eff) * sz_total
    return FramePhases(space=space, linear=linear, sz_total=sz_total, drive=drive)


def _bare(omega: float, epsilon: float, space: HilbertSpace) -> np.ndarray:
    """omega a+a + epsilon Jz, Jz = (1/2) sum_i sigma_z^(i), both diagonal."""
    fock, excited = basis_labels(space)
    return np.diag(omega * fock + epsilon * (excited - space.n_qubits / 2)).astype(complex)


def _coupling_matrices(space: HilbertSpace):
    """J+ a and J- a (sigma+ a and sigma- a for one qubit), entry by entry
    from the basis labels: sqrt(m) from |.., g_k, .., m> to |.., e_k, .., m - 1>
    for each qubit k, and from e_k to g_k."""
    _require_resonator(space)
    qubits, fock = np.divmod(np.arange(space.dim), space.fock_cutoff)
    jp_a, jm_a = np.zeros((2, space.dim, space.dim), dtype=complex)
    for bit in (1 << k for k in range(space.n_qubits)):     # a set bit is a ground qubit
        for out, before, flip in ((jp_a, bit, -bit), (jm_a, 0, bit)):
            cols = np.flatnonzero(((qubits & bit) == before) & (fock > 0))
            out[cols + flip * space.fock_cutoff - 1, cols] = np.sqrt(fock[cols])
    return jp_a, jm_a


def _coupling(space: HilbertSpace, c_r: complex, c_cr: complex) -> np.ndarray:
    """c_r J+ a + c_cr J- a + h.c., the constant collective coupling."""
    jp_a, jm_a = _coupling_matrices(space)
    rot, cnt = c_r * jp_a, c_cr * jm_a
    return rot + rot.conj().T + cnt + cnt.conj().T


def _suggest_dt(w_max: float) -> float:
    """Fixed RK4's default step, 2 pi / (40 w_max): 40 per period of w_max."""
    return 2.0 * math.pi / w_max / 40.0


def _lab_w_max(sys: SystemParams, drive: DriveParams) -> float:
    """The fastest frequency of the lab frame, which the exact frame's phases keep."""
    return max(sys.epsilon + sys.omega, drive.omega1 + drive.omega2)


def _collective(space: HilbertSpace, static: np.ndarray, couplings,
                w_max: float) -> TimeDependentHamiltonian:
    """static + c_r(t) J+ a + c_cr(t) J- a + h.c. at the step `_suggest_dt(w_max)`,
    where couplings(t) maps times (T,) to the (T,) complex c_r and c_cr."""
    if space.n_qubits < 1:
        raise ValidationError("a collective coupling needs at least one qubit")
    jp_a, jm_a = _coupling_matrices(space)

    def coefficients(t: np.ndarray) -> np.ndarray:
        c_r, c_cr = couplings(t)
        return np.stack([c_r, c_r.conj(), c_cr, c_cr.conj()], axis=-1)

    return TimeDependentHamiltonian(
        space=space,
        descriptor={"suggested_dt": _suggest_dt(w_max)},
        static=static,
        terms=(jp_a, jp_a.conj().T, jm_a, jm_a.conj().T),
        coefficients=coefficients)


def lab_hamiltonian(sys: SystemParams, drive: DriveParams,
                    space: HilbertSpace) -> TimeDependentHamiltonian:
    """Bare system plus interaction plus the sigma_z frequency modulation."""
    if space.n_qubits < 1:
        raise ValidationError("lab Hamiltonian needs at least one qubit")
    _, excited = basis_labels(space)

    def coefficients(t: np.ndarray) -> np.ndarray:
        return _drive_phase_rate(drive, t).astype(complex)[:, None]

    return TimeDependentHamiltonian(
        space=space,
        descriptor={"suggested_dt": _suggest_dt(_lab_w_max(sys, drive))},
        # g (a + a+) Jx, Jx = J+ + J- (the plain sum of sigma_x)
        static=_bare(sys.omega, sys.epsilon, space) + _coupling(space, sys.g, sys.g),
        terms=(np.diag(2.0 * excited - space.n_qubits).astype(complex),),    # 2 Jz
        coefficients=coefficients)


def rotated_hamiltonian(sys: SystemParams, drive: DriveParams,
                        space: HilbertSpace) -> TimeDependentHamiltonian:
    """Exact frame-transformed Hamiltonian; no sideband series truncation."""
    eff = effective_params(sys, drive)
    g = sys.g
    d_eps = sys.epsilon - eff.epsilon_eff
    d_om = sys.omega - eff.omega_eff

    def couplings(t: np.ndarray):
        two_chi = d_eps * t + 2.0 * _drive_phase(drive, t)
        mu = d_om * t
        return g * np.exp(1j * (two_chi - mu)), g * np.exp(-1j * (two_chi + mu))

    return _collective(space, _bare(eff.omega_eff, eff.epsilon_eff, space), couplings,
                       _lab_w_max(sys, drive))


def effective_hamiltonian(eff: EffectiveParams,
                          space: HilbertSpace) -> TimeDependentHamiltonian:
    """Constant anisotropic Rabi (Dicke on several qubits) Hamiltonian

        omega_eff a+a + epsilon_eff Jz
        + g_r e^{-i phi1} J+ a + g_cr e^{i phi2} J- a + h.c.,

    the one builder of this matrix.
    """
    h0 = _bare(eff.omega_eff, eff.epsilon_eff, space) + _coupling(
        space, eff.g_r * np.exp(-1j * eff.phi1), eff.g_cr * np.exp(1j * eff.phi2))
    return TimeDependentHamiltonian(
        space=space,
        descriptor={"suggested_dt": _static_dt(h0)},
        static=h0)


def _static_dt(h: np.ndarray) -> float:
    """2 pi / (||h||_2 200/3), so fixed DP5's default step, 2.5 times this,
    is 1.5 x 2 pi / (40 ||h||_2).

    A lossy effective run at that step reads its samples off DP5's
    continuous extension.  Against fixed RK4 at 2 pi / (640 ||h||_2), over
    the 100 sweep points of benchmark seeds 1-5, it deviates by at most
    8.7e-8 there, and by up to 1.1e-6 at 2.5 x 2 pi / (40 ||h||_2).
    """
    scale = float(np.linalg.norm(h, ord=2)) if h.size else 1.0
    if scale == 0.0:
        return math.inf
    return 2.0 * math.pi / scale / (200.0 / 3.0)


def _phase_defect(phi: float) -> float:
    return abs(math.remainder(phi, 2.0 * math.pi))


def model(kind: str, eff: EffectiveParams,
          space: HilbertSpace) -> TimeDependentHamiltonian:
    """Specialized effective model: `effective_hamiltonian` at projected parameters.

    kind in {'qrm', 'jc', 'ajc', 'degenerate_aqrm'}.  The supplied parameters
    must actually realize the specialization (relative defect below 1e-9), so
    a scenario cannot claim a model its drives do not produce; only then is
    the residual defect projected away (g_cr = g_r, a vanishing coupling,
    vanishing frequencies or phases set to exactly 0).
    """
    kind = kind.lower()
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    scale = max(abs(eff.g_r), abs(eff.g_cr))
    tol = _CONSTRAINT_RTOL * scale

    def need(ok: bool, msg: str):
        if not ok:
            raise ValidationError(f"model '{kind}' constraint violated: {msg}")

    if kind == "qrm":
        need(abs(eff.g_r - eff.g_cr) <= tol,
             f"|g_r - g_cr| = {abs(eff.g_r - eff.g_cr):.3e} exceeds {tol:.3e}")
        need(_phase_defect(eff.phi1) <= _CONSTRAINT_RTOL
             and _phase_defect(eff.phi2) <= _CONSTRAINT_RTOL,
             "drive phases must vanish (mod 2 pi)")
        eff = replace(eff, g_cr=eff.g_r, phi1=0.0, phi2=0.0)
    elif kind == "jc":
        need(abs(eff.g_cr) <= tol, f"|g_cr| = {abs(eff.g_cr):.3e} exceeds {tol:.3e}")
        need(_phase_defect(eff.phi1) <= _CONSTRAINT_RTOL,
             "rotating-term phase must vanish (mod 2 pi)")
        eff = replace(eff, g_cr=0.0, phi1=0.0)
    elif kind == "ajc":
        need(abs(eff.g_r) <= tol, f"|g_r| = {abs(eff.g_r):.3e} exceeds {tol:.3e}")
        need(_phase_defect(eff.phi2) <= _CONSTRAINT_RTOL,
             "counter-rotating-term phase must vanish (mod 2 pi)")
        eff = replace(eff, g_r=0.0, phi2=0.0)
    else:  # degenerate_aqrm
        need(abs(eff.omega_eff) <= tol and abs(eff.epsilon_eff) <= tol,
             f"effective frequencies ({eff.omega_eff:.3e}, {eff.epsilon_eff:.3e}) "
             f"must vanish relative to the couplings")
        need(_phase_defect(eff.phi1) <= _CONSTRAINT_RTOL
             and _phase_defect(eff.phi2) <= _CONSTRAINT_RTOL,
             "drive phases must vanish (mod 2 pi)")
        eff = replace(eff, omega_eff=0.0, epsilon_eff=0.0, phi1=0.0, phi2=0.0)

    return effective_hamiltonian(eff, space)


def dicke_hamiltonian(eff: EffectiveParams, space: HilbertSpace) -> TimeDependentHamiltonian:
    """Interaction-picture collective-qubit model: J+- in place of sigma+-.

    All qubits share the transition frequency and see the same two-tone
    drive.  The effective frequencies appear as phase factors
    exp(-i(delta1 t + phi1)) on a J+ and exp(-i(delta2 t - phi2)) on a J-,
    not as the static omega_eff a+a + epsilon_eff Jz of `effective_hamiltonian`.
    """
    d1, d2 = eff.delta1, eff.delta2
    g_r, g_cr = eff.g_r, eff.g_cr
    phi1, phi2 = eff.phi1, eff.phi2

    def couplings(t: np.ndarray):
        return g_r * np.exp(-1j * (d1 * t + phi1)), g_cr * np.exp(-1j * (d2 * t - phi2))

    return _collective(space, np.zeros((space.dim, space.dim), dtype=complex), couplings,
                       max(abs(g_r), abs(g_cr), abs(d1), abs(d2), 1e-300))


def jx_field_hamiltonian(g_eff: float, omega_eff: float,
                         space: HilbertSpace) -> TimeDependentHamiltonian:
    """Balanced degenerate collective model g (a+ e^{i w t} + a e^{-i w t}) Jx.

    It is the interaction-picture Dicke form with g_r = g_cr = g,
    omega_eff = w and epsilon_eff = 0, so both detunings equal w.
    """
    eff = EffectiveParams(g_r=g_eff, g_cr=g_eff, omega_eff=omega_eff,
                          epsilon_eff=0.0, theta=0.0, anisotropy=1.0)
    return dicke_hamiltonian(eff, space)
