"""Closed-form propagator for the balanced degenerate collective model, and
the protocols built on it: Schrodinger-cat preparation and a two-qubit gate.

For H(t) = g (a+ e^{i w t} + a e^{-i w t}) Jx the commutator of the
interaction at two times is a scalar times Jx^2, so the Magnus series
terminates at second order and

    U(t) = exp[i phi(t) Jx^2] D[xi(t) Jx],
    xi(t) = (g / w) (1 - e^{i w t}),
    phi(t) = (g / w)^2 (w t - sin(w t)).

xi traces a circle of radius |g/w| about g/w and closes after one period
T = 2 pi / w, where the resonator factor returns to vacuum and only the
Jx^2 phase survives: the two-qubit entangling gate of gate_at_period.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import (HilbertSpace, Operator, PureState, annihilation,
                      coherent_state, displacement, embed_qubit)

SQRT2 = math.sqrt(2.0)
MIN_PROBABILITY = 1e-300    # largest outcome probability conditional_cat refuses


@dataclass(frozen=True)
class MagnusPhase:
    """Displacement amplitude and geometric phase at one instant."""

    xi: complex
    phi: float


def magnus_phase(g_eff: float, omega_eff: float, t: float) -> MagnusPhase:
    if omega_eff == 0.0:
        raise ValidationError("omega_eff must be nonzero for the closed form")
    r = g_eff / omega_eff
    wt = omega_eff * t
    return MagnusPhase(xi=r * (1.0 - cmath.exp(1j * wt)),
                       phi=r * r * (wt - math.sin(wt)))


def magnus_propagator(g_eff: float, omega_eff: float, t: float,
                      space: HilbertSpace) -> Operator:
    """exp[i phi Jx^2] D[xi Jx], assembled sector by sector in the Jx eigenbasis."""
    ph = magnus_phase(g_eff, omega_eff, t)
    qubits = HilbertSpace(space.n_qubits, 1)
    jx = sum((embed_qubit(qubits, k, _SX) for k in range(space.n_qubits)),
             np.zeros((qubits.dim, qubits.dim), dtype=complex))
    evals, evecs = np.linalg.eigh(jx)
    n = space.fock_cutoff
    res_space = HilbertSpace(0, n)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(evals.size):
        m = float(np.round(evals[k]))
        proj = np.outer(evecs[:, k], evecs[:, k].conj())
        disp = displacement(res_space, ph.xi * m).matrix
        out += np.exp(1j * ph.phi * m * m) * np.kron(proj, disp)
    return Operator(space, out)


def cat_evolution(g_eff: float, omega_eff: float, t: float,
                  space: HilbertSpace) -> PureState:
    """State at time t starting from |g> x |0> for a single qubit.

    Returns (e^{i phi}/sqrt 2) (|+> x |xi> - |-> x |-xi>) on the truncated
    space; the coherent branches are renormalized after truncation, and the
    sigma_x eigenstates keep the branches exactly orthogonal, so the result
    is unit norm by construction.
    """
    if space.n_qubits != 1:
        raise ValidationError("cat preparation is defined for a single qubit")
    ph = magnus_phase(g_eff, omega_eff, t)
    n = space.fock_cutoff
    res_space = HilbertSpace(0, n)
    plus_branch = coherent_state(res_space, ph.xi).amplitudes
    minus_branch = coherent_state(res_space, -ph.xi).amplitudes
    # qubit basis (|e>, |g>): |+-> = (|e> +- |g>)/sqrt2
    amp = np.zeros(2 * n, dtype=complex)
    pref = cmath.exp(1j * ph.phi) / SQRT2
    amp[:n] = pref * (plus_branch - minus_branch) / SQRT2     # <e| component
    amp[n:] = pref * (plus_branch + minus_branch) / SQRT2     # <g| component
    return PureState(space, amp / np.linalg.norm(amp))


@dataclass(frozen=True)
class CatState:
    """Even or odd superposition of opposite-amplitude coherent states."""

    parity: str            # 'even' | 'odd'
    xi: complex
    state: PureState       # resonator factor only


def conditional_cat(state: PureState, outcome: str) -> tuple[CatState, float]:
    """Project the qubit on |e> or |g> and renormalize the resonator factor.

    Outcome 'g' heralds the even cat, 'e' the odd cat, with probabilities
    (1 +- e^{-2|xi|^2})/2.  The displacement amplitude is recovered from the
    projected state itself via <a^2> = xi^2 (cat states are eigenstates of
    a^2), up to the physically irrelevant xi -> -xi branch choice.
    """
    if state.space.n_qubits != 1:
        raise ValidationError("conditional projection needs exactly one qubit")
    if outcome not in ("e", "g"):
        raise ValidationError("outcome must be 'e' or 'g'")
    n = state.space.fock_cutoff
    block = state.amplitudes[:n] if outcome == "e" else state.amplitudes[n:]
    prob = float(np.real(np.vdot(block, block)))
    if prob <= MIN_PROBABILITY:
        raise ValidationError(f"outcome {outcome!r} has zero probability")
    res_space = HilbertSpace(0, n)
    vec = block / math.sqrt(prob)
    a = annihilation(res_space).matrix
    xi_sq = complex(np.vdot(vec, a @ (a @ vec)))
    xi = cmath.sqrt(xi_sq)
    parity = "even" if outcome == "g" else "odd"
    return CatState(parity=parity, xi=xi, state=PureState(res_space, vec)), prob


def cross_parity_population(cat: CatState) -> float:
    """Total weight on the Fock levels of the wrong parity."""
    pops = np.abs(cat.state.amplitudes) ** 2
    wrong = pops[1::2] if cat.parity == "even" else pops[0::2]
    return float(wrong.sum())


def conditional_probability(xi: complex, outcome: str) -> float:
    """Closed-form heralding probability (1 +- e^{-2|xi|^2})/2; P(e) is
    taken from expm1, so it stays accurate, near |xi|^2, at small |xi|."""
    x = -2.0 * abs(xi) ** 2
    return 0.5 * (1.0 + math.exp(x)) if outcome == "g" else -0.5 * math.expm1(x)


# ---------------------------------------------------------------------------
# two-qubit gate
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

CNOT_CONTROL_FIRST = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_CONTROL_SECOND = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                                [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
CNOT_TOL = 1e-9     # largest residual cnot_equivalence_check calls equivalent

# Single-qubit frame changes that carry the Jx^2 gate at theta = pi/4 onto a
# controlled-not; found by direct construction in the sigma_x eigenbasis.
LOCAL_PRE_1 = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex) / SQRT2
LOCAL_PRE_2 = _I2.copy()
LOCAL_POST_1 = np.array([[-1.0, -1.0j], [1.0, -1.0j]], dtype=complex) / SQRT2
LOCAL_POST_2 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / SQRT2


def theta_from_coupling_ratio(ratio: float) -> float:
    """Gate angle after one period: theta = 2 phi(T) = 4 pi (g/w)^2."""
    return 4.0 * math.pi * ratio * ratio


def entangling_power(theta: float) -> float:
    """Entangling power (2/9) sin^2(2 theta) of the Jx^2 gate."""
    s = math.sin(2.0 * theta)
    return 2.0 / 9.0 * s * s


def gate_at_period(g_eff: float, omega_eff: float) -> np.ndarray:
    """Two-qubit unitary after one full period, global phase dropped.

    At T = 2 pi / w the displacement closes (xi(T) = 0) and the propagator
    reduces to exp[i phi(T) Jx^2] = cos(theta) I + i sin(theta) X X with
    theta = 2 phi(T).
    """
    if omega_eff == 0.0:
        raise ValidationError("omega_eff must be nonzero")
    theta = theta_from_coupling_ratio(g_eff / omega_eff)
    return (math.cos(theta) * np.kron(_I2, _I2)
            + 1j * math.sin(theta) * np.kron(_SX, _SX))


def _strip_global_phase(m: np.ndarray, reference: np.ndarray) -> np.ndarray:
    idx = np.unravel_index(int(np.argmax(np.abs(m))), m.shape)
    ref = reference[idx]
    if abs(ref) < 1e-12:
        phase = m[idx] / abs(m[idx])
    else:
        z = m[idx] / ref
        phase = z / abs(z)
    return m / phase


@dataclass(frozen=True)
class CnotEquivalence:
    equivalent: bool
    residual: float
    ordering: str | None   # which control assignment matched, if any
    residuals: dict


def cnot_equivalence_check(gate: np.ndarray,
                           locals_pre: tuple[np.ndarray, np.ndarray] | None = None,
                           locals_post: tuple[np.ndarray, np.ndarray] | None = None,
                           ) -> CnotEquivalence:
    """Dress `gate` with single-qubit unitaries and compare to CNOT.

    Defaults to the fixed local set that carries the theta = pi/4 gate onto a
    controlled-not.  Both control assignments are tried, since the local set
    does not fix which qubit is the control.  The residual is the max
    entrywise modulus after removing one global phase (anchored at the
    largest entry); the gate is equivalent when it is below CNOT_TOL.
    """
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValidationError("gate must be 4x4")
    uni = np.max(np.abs(gate @ gate.conj().T - np.eye(4)))
    if uni > 1e-9:
        raise ValidationError(f"gate is not unitary (defect {uni:.3e})")
    u1, u2 = locals_pre if locals_pre is not None else (LOCAL_PRE_1, LOCAL_PRE_2)
    u3, u4 = locals_post if locals_post is not None else (LOCAL_POST_1, LOCAL_POST_2)
    dressed = np.kron(u1, u2) @ gate @ np.kron(u3, u4)
    residuals = {}
    for name, target in (("control_first", CNOT_CONTROL_FIRST),
                         ("control_second", CNOT_CONTROL_SECOND)):
        fixed = _strip_global_phase(dressed, target)
        residuals[name] = float(np.max(np.abs(fixed - target)))
    best = min(residuals, key=residuals.get)
    ok = residuals[best] < CNOT_TOL
    return CnotEquivalence(equivalent=ok, residual=residuals[best],
                           ordering=best if ok else None, residuals=residuals)
