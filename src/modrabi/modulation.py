"""Mapping between physical drive settings and the effective model constants.

A qubit (transition frequency epsilon) dispersively coupled to a resonator
(frequency omega) is frequency-modulated by two tones.  Tone 1 sits near the
red sideband |epsilon - omega|, tone 2 near the blue sideband epsilon + omega.
Keeping only the two near-resonant terms of the double Jacobi-Anger expansion
leaves an anisotropic Rabi model whose rotating / counter-rotating couplings

    g_r  = -g J1(2 eta1) J0(2 eta2),      g_cr = -g J0(2 eta1) J1(2 eta2)

are set by the normalized drive amplitudes, while the effective frequencies

    omega_eff = (delta1 + delta2) / 2,    epsilon_eff = (delta2 - delta1) / 2

are set by the sideband detunings delta1 = Omega1 - (epsilon - omega) and
delta2 = (epsilon + omega) - Omega2.

Sign convention: the difference detuning is stored as epsilon - omega (qubit
above resonator), which makes delta1 vanish exactly when Omega1 hits the red
sideband.  All frequencies are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import J0_FIRST_ZERO, ORDER_LIMIT, X_LIMIT, bessel_orders
from .errors import UnreachableTargetError, ValidationError

ETA_BALANCED = 0.7173          # amplitude with J1(2 eta)/J0(2 eta) = 1 to ~4 digits
ETA_NULL = J0_FIRST_ZERO / 2.0  # amplitude that nulls one coupling exactly
RATIO_RTOL = 1e-6              # a designed drive must realize |g_r|/omega_eff to this
COUPLING_RTOL = 1e-9           # relative tolerance on |g_r| of amplitudes_for_coupling

# validity_report: the approximations hold while the dispersive ratio is below
# DISPERSIVE_MAX, the detuning ratio below DETUNING_MAX and the sideband margin
# above RWA_MIN, over the discarded terms with |n_i| <= SIDEBAND_ORDERS
DISPERSIVE_MAX = 0.1
DETUNING_MAX = 0.2
RWA_MIN = 10.0
SIDEBAND_ORDERS = 5


def json_float(x: float):
    """x, or its JSON-safe spelling "nan", "inf" or "-inf"."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


@dataclass(frozen=True)
class SystemParams:
    """Static qubit/resonator constants, angular frequencies in rad/s."""

    epsilon: float   # qubit transition frequency
    omega: float     # resonator frequency
    g: float         # qubit-resonator coupling
    kappa: float = 0.0   # qubit decay rate (jump operator sigma-)
    gamma: float = 0.0   # resonator loss rate (jump operator a)

    def __post_init__(self):
        for name in ("epsilon", "omega", "g", "kappa", "gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0")
        if self.epsilon == self.omega:
            raise ValidationError("epsilon == omega: dispersive regime presupposed")


@dataclass(frozen=True)
class DriveParams:
    """Two-tone modulation: angular frequencies, normalized amplitudes, phases."""

    omega1: float
    omega2: float
    eta1: float
    eta2: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        if not (0 < self.omega1 < math.inf and 0 < self.omega2 < math.inf):
            raise ValidationError("drive frequencies must be finite and > 0")
        if not (0 <= self.eta1 < math.inf and 0 <= self.eta2 < math.inf):
            raise ValidationError("normalized amplitudes must be finite and >= 0")
        if 2 * max(self.eta1, self.eta2) > X_LIMIT:
            raise ValidationError(f"normalized amplitudes must keep 2 eta within "
                                  f"the Bessel range {X_LIMIT}")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValidationError("drive phases must be finite")


@dataclass(frozen=True)
class Detunings:
    delta1: float       # Omega1 - (epsilon - omega)
    delta2: float       # (epsilon + omega) - Omega2
    delta_minus: float  # epsilon - omega
    delta_plus: float   # epsilon + omega


@dataclass(frozen=True)
class EffectiveParams:
    """Constants of the synthesized anisotropic Rabi model."""

    g_r: float           # rotating-term coupling
    g_cr: float          # counter-rotating-term coupling
    omega_eff: float     # effective resonator frequency
    epsilon_eff: float   # effective qubit splitting
    theta: float         # counter-rotating phase (phi2 when phi1 = 0)
    anisotropy: float    # g_cr / g_r, +-inf when g_r = 0
    phi1: float = 0.0
    phi2: float = 0.0

    @property
    def delta1(self) -> float:
        return self.omega_eff - self.epsilon_eff

    @property
    def delta2(self) -> float:
        return self.omega_eff + self.epsilon_eff


def detunings(sys: SystemParams, drive: DriveParams) -> Detunings:
    dm = sys.epsilon - sys.omega
    dp = sys.epsilon + sys.omega
    return Detunings(delta1=drive.omega1 - dm, delta2=dp - drive.omega2,
                     delta_minus=dm, delta_plus=dp)


def _couplings(g: float, eta1: float, eta2: float) -> tuple[float, float]:
    """(g_r, g_cr) at coupling g.  The Bessel product comes first, so swapping
    the two tones exchanges g_r and g_cr bit-for-bit."""
    j1s, j2s = bessel_orders(1, 2 * eta1), bessel_orders(1, 2 * eta2)
    return -g * (j1s[1] * j2s[0]), -g * (j1s[0] * j2s[1])


def effective_params(sys: SystemParams, drive: DriveParams) -> EffectiveParams:
    det = detunings(sys, drive)
    g_r, g_cr = _couplings(sys.g, drive.eta1, drive.eta2)
    # epsilon_eff first, omega_eff as delta1 + epsilon_eff: keeps the
    # reconstruction delta1 = omega_eff - epsilon_eff exact for resonant and
    # degenerate drives.
    epsilon_eff = (det.delta2 - det.delta1) / 2.0
    omega_eff = det.delta1 + epsilon_eff
    anisotropy = (g_cr / g_r if g_r != 0.0
                  else math.copysign(math.inf, g_cr) if g_cr != 0.0 else math.nan)
    return EffectiveParams(g_r=g_r, g_cr=g_cr, omega_eff=omega_eff,
                           epsilon_eff=epsilon_eff,
                           theta=drive.phi2 + drive.phi1,
                           anisotropy=anisotropy,
                           phi1=drive.phi1, phi2=drive.phi2)


# ---------------------------------------------------------------------------
# Jacobi-Anger sideband series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SidebandTerm:
    """One term coef * exp(i frequency t) of a sideband amplitude series."""

    n1: int
    n2: int
    coefficient: complex
    frequency: float


def _sideband_grids(drive: DriveParams, det: Detunings, n_max: int) -> tuple:
    """Both series of `sideband_amplitudes`, alpha then beta, each as its
    coefficients and its frequencies on (2 n_max + 1)^2 grids whose entry
    [n1 + n_max, n2 + n_max] is term (n1, n2)."""
    if not 1 <= n_max <= ORDER_LIMIT:
        raise ValidationError(f"n_max must be in [1, {ORDER_LIMIT}]")
    n = np.arange(-n_max, n_max + 1)
    sign = np.where(n < 0, (-1.0) ** n, 1.0)      # J_-k(x) = (-1)^k J_k(x)
    j = np.multiply.outer(*(sign * np.array(bessel_orders(n_max, 2 * eta))[abs(n)]
                            for eta in (drive.eta1, drive.eta2)))
    phase = n[:, None] * drive.phi1 + n * drive.phi2
    # e^{i phase} as complex(cos, sin) exactly: no product that could flip a zero's sign
    unit = np.stack([np.cos(phase), np.sin(phase)], axis=-1).view(complex)[..., 0]
    comb = n[:, None] * drive.omega1 + n * drive.omega2
    return (j * unit, det.delta_minus + comb), (j * unit.conj(), -(det.delta_plus + comb))


def sideband_amplitudes(drive: DriveParams, det: Detunings,
                        n_max: int) -> tuple[list[SidebandTerm], list[SidebandTerm]]:
    """Double Jacobi-Anger series of the two modulated coupling amplitudes.

    Returns (alpha_terms, beta_terms): alpha multiplies the rotating product
    (a sigma+), beta the counter-rotating product (a sigma-).  Term (n1, n2)
    of alpha has coefficient J_n1(2 eta1) J_n2(2 eta2) e^{i(n1 phi1 + n2 phi2)}
    and frequency (epsilon - omega) + n1 Omega1 + n2 Omega2; beta mirrors it
    with conjugated phase and frequency -[(epsilon + omega) + n1 Omega1 + n2 Omega2].
    """
    orders = [(n1, n2) for n1 in range(-n_max, n_max + 1) for n2 in range(-n_max, n_max + 1)]
    return tuple([SidebandTerm(*n, c, f) for n, c, f in
                  zip(orders, coef.ravel().tolist(), freq.ravel().tolist())]
                 for coef, freq in _sideband_grids(drive, det, n_max))


# ---------------------------------------------------------------------------
# approximation audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    """Quantitative audit of the three approximations behind the effective model."""

    dispersive_ratio: float    # max |g / (epsilon -+ omega)|
    detuning_ratio: float      # max |delta_i| / min |epsilon -+ omega|
    rwa_margin: float          # min |freq| / |g J J| over discarded sidebands
    dispersive_ok: bool
    detuning_ok: bool
    rwa_ok: bool
    dispersive_max: float
    detuning_max: float
    rwa_min: float

    @property
    def ok(self) -> bool:
        return self.dispersive_ok and self.detuning_ok and self.rwa_ok

    def as_dict(self) -> dict:
        """The report as JSON: rwa_margin, infinite at g = 0, is then "inf"."""
        return {
            "dispersive_ratio": self.dispersive_ratio,
            "detuning_ratio": self.detuning_ratio,
            "rwa_margin": json_float(self.rwa_margin),
            "dispersive_ok": self.dispersive_ok,
            "detuning_ok": self.detuning_ok,
            "rwa_ok": self.rwa_ok,
            "thresholds": {
                "dispersive_max": self.dispersive_max,
                "detuning_max": self.detuning_max,
                "rwa_min": self.rwa_min,
            },
            "ok": self.ok,
        }


def validity_report(sys: SystemParams, drive: DriveParams) -> ValidityReport:
    """Check |g| << |Delta|, |delta_i| << |Delta| and the sideband margin.

    The dispersive ratio compares g against the smaller of the two sideband
    frequencies; the detuning ratio compares each tone's offset against its
    own sideband (delta1 against epsilon - omega, delta2 against
    epsilon + omega).  The margin is the worst ratio
    |oscillation frequency| / |coupling| over all discarded series terms with
    |n_i| <= SIDEBAND_ORDERS; the two retained terms, (-1, 0) of the rotating
    series and (0, -1) of the counter-rotating one, are excluded.  The
    thresholds are soft conventions (the literature only demands "much
    smaller"); the report carries the ones it applied.
    """
    det = detunings(sys, drive)
    d_min = min(abs(det.delta_minus), abs(det.delta_plus))
    dispersive_ratio = sys.g / d_min if d_min > 0 else math.inf
    detuning_ratio = max(
        abs(det.delta1) / abs(det.delta_minus) if det.delta_minus else math.inf,
        abs(det.delta2) / abs(det.delta_plus) if det.delta_plus else math.inf)

    margin, n = math.inf, SIDEBAND_ORDERS
    for (coef, freq), kept in zip(_sideband_grids(drive, det, n), ((n - 1, n), (n, n - 1))):
        coupling = np.abs(sys.g * coef)
        coupling[kept] = 0.0
        live = coupling != 0.0
        margin = min(margin, float(np.min(np.abs(freq[live]) / coupling[live], initial=math.inf)))
    return ValidityReport(
        dispersive_ratio=dispersive_ratio,
        detuning_ratio=detuning_ratio,
        rwa_margin=margin,
        dispersive_ok=dispersive_ratio < DISPERSIVE_MAX,
        detuning_ok=detuning_ratio < DETUNING_MAX,
        rwa_ok=margin > RWA_MIN,
        dispersive_max=DISPERSIVE_MAX,
        detuning_max=DETUNING_MAX,
        rwa_min=RWA_MIN,
    )


# ---------------------------------------------------------------------------
# inverse design
# ---------------------------------------------------------------------------

def _bisect(residual, lo: float, hi: float, close) -> float | None:
    """The first of up to 200 midpoints, halving [lo, hi] toward the sign change
    of the increasing `residual`, where close(residual(mid)); else None."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if close(r):
            return mid
        lo, hi = (mid, hi) if r < 0.0 else (lo, mid)
    return None


def coupling_ratio(eta: float) -> float:
    """J1(2 eta) / J0(2 eta), strictly increasing on [0, ETA_NULL)."""
    j0, j1 = bessel_orders(1, 2 * eta)
    return j1 / j0 if j0 != 0.0 else math.inf


def solve_amplitudes(target_anisotropy: float, eta_fixed: float = ETA_BALANCED,
                     tol: float = 1e-9) -> tuple[float, float]:
    """Drive amplitudes realizing g_cr / g_r = target_anisotropy.

    eta1 is pinned at `eta_fixed` and eta2 is solved by bisection on the
    monotone ratio J1(2 eta)/J0(2 eta) over [0, ETA_NULL].  The endpoints are
    exact: target 0 returns eta2 = 0, target inf returns eta2 = ETA_NULL.
    """
    lam = float(target_anisotropy)
    if lam < 0 or math.isnan(lam):
        raise UnreachableTargetError("target anisotropy must be in [0, inf]")
    if not 0 <= eta_fixed < ETA_NULL:
        raise UnreachableTargetError(f"eta_fixed must lie in [0, {ETA_NULL})")
    if lam == 0.0:
        return eta_fixed, 0.0
    if math.isinf(lam):
        return eta_fixed, ETA_NULL
    if eta_fixed == 0.0:
        raise UnreachableTargetError("eta_fixed = 0 only reaches anisotropy 0")

    r_fixed = coupling_ratio(eta_fixed)
    # above lambda = 1 the residual is in 1 / ratio: tol bounds whichever is <= 1
    residual = ((lambda e: coupling_ratio(e) / r_fixed - lam) if lam <= 1.0
                else (lambda e: 1.0 / lam - 1.0 / (coupling_ratio(e) / r_fixed)))
    eta2 = _bisect(residual, 0.0, ETA_NULL, lambda r: abs(r) < tol)
    if eta2 is None:
        raise UnreachableTargetError(f"bisection did not reach |ratio - {lam}| < {tol}")
    return eta_fixed, eta2


def amplitudes_for_coupling(target_g_r: float, anisotropy: float,
                            g: float) -> tuple[float, float]:
    """Drive amplitudes with |g_r| = target_g_r at fixed anisotropy.

    Scans eta1 over (0, ETA_NULL); for each eta1 the companion eta2 follows
    from the anisotropy constraint.  |g_r| is not monotone over the whole
    interval, so the bracket is located on a coarse grid first.
    """
    if not (target_g_r > 0 and g > 0):     # NaN included
        raise UnreachableTargetError("couplings must be positive")

    def g_r_at(eta1: float) -> float:
        return abs(_couplings(g, *solve_amplitudes(anisotropy, eta_fixed=eta1, tol=1e-12))[0])

    grid = [k * ETA_NULL / 64.0 for k in range(1, 64)]
    vals = [g_r_at(e) for e in grid]
    best = max(vals)
    if target_g_r > best:
        raise UnreachableTargetError(f"|g_r| = {target_g_r} exceeds the reachable "
                                     f"maximum {best:.6g} at this anisotropy")
    k = next(i for i, v in enumerate(vals) if v >= target_g_r)
    eta1 = _bisect(lambda e: g_r_at(e) - target_g_r, grid[k - 1] if k > 0 else 1e-9,
                   grid[k], lambda r: abs(r) <= COUPLING_RTOL * target_g_r)
    if eta1 is None:
        raise UnreachableTargetError("coupling bisection did not converge")
    return solve_amplitudes(anisotropy, eta_fixed=eta1, tol=1e-12)


def drive_for_detunings(det1: float, det2: float, sys: SystemParams,
                        eta1: float, eta2: float,
                        phi1: float = 0.0, phi2: float = 0.0) -> DriveParams:
    """Drive frequencies realizing the requested sideband detunings."""
    omega1 = (sys.epsilon - sys.omega) + det1
    omega2 = (sys.epsilon + sys.omega) - det2
    if omega1 <= 0 or omega2 <= 0:
        raise UnreachableTargetError("requested detunings push a drive frequency below 0")
    return DriveParams(omega1=omega1, omega2=omega2, eta1=eta1, eta2=eta2,
                       phi1=phi1, phi2=phi2)


def drive_for_targets(sys: SystemParams, eta1: float, eta2: float,
                      delta1: float = 0.0,
                      g_r_over_omega_eff: float | None = None) -> DriveParams:
    """Drive at the given amplitudes and red detuning that sets |g_r|/omega_eff.

    The amplitudes alone fix |g_r|; omega_eff = (delta1 + delta2)/2 then
    gives delta2 = 2 |g_r| / ratio - delta1.  Without a ratio delta2 = delta1.
    The ratio the returned drive realizes must match the target to
    RATIO_RTOL: near a coupling null delta2 is lost in rounding the tones.
    """
    if g_r_over_omega_eff is None:
        return drive_for_detunings(delta1, delta1, sys, eta1, eta2)
    if not g_r_over_omega_eff > 0:
        raise UnreachableTargetError("|g_r|/omega_eff must be > 0")
    g_r_abs = abs(_couplings(sys.g, eta1, eta2)[0])
    drive = drive_for_detunings(delta1, 2.0 * g_r_abs / g_r_over_omega_eff - delta1,
                                sys, eta1, eta2)
    eff = effective_params(sys, drive)
    realized = abs(eff.g_r / eff.omega_eff) if eff.omega_eff else math.inf
    if not abs(realized / g_r_over_omega_eff - 1.0) <= RATIO_RTOL:
        raise UnreachableTargetError(
            f"|g_r|/omega_eff = {g_r_over_omega_eff} is unreachable at these "
            f"amplitudes (|g_r| = {g_r_abs:.3g} rad/s; the drive realizes {realized:.6g})")
    return drive
