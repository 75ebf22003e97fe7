import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrabi.bessel import ORDER_LIMIT, X_LIMIT, bessel_j, bessel_orders
from modrabi.errors import UnreachableTargetError, ValidationError
from modrabi.modulation import (ETA_BALANCED, ETA_NULL, DriveParams,
                                SystemParams, amplitudes_for_coupling,
                                coupling_ratio, detunings, drive_for_detunings,
                                drive_for_targets, effective_params,
                                SIDEBAND_ORDERS, sideband_amplitudes, solve_amplitudes,
                                validity_report)
from oracles import swap_tones

TWO_PI = 2 * math.pi
GHZ = TWO_PI * 1e9
MHZ = TWO_PI * 1e6

SYS = SystemParams(epsilon=5.4 * GHZ, omega=2.2 * GHZ, g=70 * MHZ,
                   kappa=0.05 * MHZ, gamma=0.012 * MHZ)


def drive_set(omega2_ghz, amp2_ghz):
    return DriveParams(omega1=3.2 * GHZ, omega2=omega2_ghz * GHZ,
                       eta1=2.296 / 3.2, eta2=amp2_ghz / omega2_ghz)


FIG_SETS = {
    "ratio_0p05": (drive_set(6.759, 4.849), 840.7, 0.05),
    "ratio_0p5": (drive_set(7.516, 5.392), 84.07, 0.5),
    "ratio_1p0": (drive_set(7.558, 5.422), 42.03, 1.0),
    "ratio_1p2": (drive_set(7.565, 5.427), 35.03, 1.2),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("params, field", [
    (SYS, "epsilon"), (SYS, "omega"), (SYS, "g"), (SYS, "kappa"), (SYS, "gamma"),
    (FIG_SETS["ratio_0p05"][0], "omega1"), (FIG_SETS["ratio_0p05"][0], "omega2"),
    (FIG_SETS["ratio_0p05"][0], "eta1"), (FIG_SETS["ratio_0p05"][0], "eta2"),
    (FIG_SETS["ratio_0p05"][0], "phi1"), (FIG_SETS["ratio_0p05"][0], "phi2")])
def test_parameters_must_be_finite(params, field, value):
    with pytest.raises(ValidationError, match="must be finite"):
        replace(params, **{field: value})


@pytest.mark.parametrize("field", ["eta1", "eta2"])
def test_amplitudes_beyond_the_bessel_range_are_rejected(field):
    drive = FIG_SETS["ratio_0p05"][0]
    replace(drive, **{field: X_LIMIT / 2})          # 2 eta at the edge is in range
    with pytest.raises(ValidationError, match="Bessel range"):
        replace(drive, **{field: 30.0})


def test_red_sideband_resonance_is_exact():
    det = detunings(SYS, FIG_SETS["ratio_0p05"][0])
    assert det.delta1 == 0.0
    assert det.delta_minus == 3.2 * GHZ
    assert det.delta_plus == 7.6 * GHZ


@pytest.mark.parametrize("name", FIG_SETS)
def test_blue_sideband_detunings(name):
    drive, delta2_mhz, _ = FIG_SETS[name]
    det = detunings(SYS, drive)
    assert det.delta2 == pytest.approx(delta2_mhz * MHZ, rel=1e-2)


def test_both_tones_on_resonance():
    drive = DriveParams(omega1=SYS.epsilon - SYS.omega, omega2=SYS.epsilon + SYS.omega,
                        eta1=0.3, eta2=0.3)
    det = detunings(SYS, drive)
    assert det.delta1 == 0.0
    assert det.delta2 == 0.0


@pytest.mark.parametrize("name", FIG_SETS)
def test_effective_coupling_ratios(name):
    drive, _, ratio = FIG_SETS[name]
    eff = effective_params(SYS, drive)
    assert abs(eff.g_r / eff.omega_eff) == pytest.approx(ratio, rel=1e-2)
    assert abs(eff.g_cr / eff.omega_eff) == pytest.approx(ratio, rel=1e-2)
    # balanced drives sit at the quoted amplitude to ~1e-3 relative
    assert drive.eta1 == pytest.approx(ETA_BALANCED, rel=1e-3)
    assert drive.eta2 == pytest.approx(ETA_BALANCED, rel=1e-3)
    assert eff.g_r == pytest.approx(-SYS.g * 0.548 * 0.548, rel=5e-3)


def test_zero_drive_kills_both_couplings():
    eff = effective_params(SYS, DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ,
                                            eta1=0.0, eta2=0.0))
    assert eff.g_r == 0.0
    assert eff.g_cr == 0.0
    assert math.isnan(eff.anisotropy)


def test_counter_rotating_suppression():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=7.565 * GHZ,
                        eta1=3.848 / 3.2, eta2=5.427 / 7.565)
    eff = effective_params(SYS, drive)
    assert abs(eff.g_cr) / SYS.g < 5e-4
    assert abs(eff.g_r / eff.omega_eff) == pytest.approx(1.137, rel=5e-3)
    mirrored = effective_params(SYS, swap_tones(drive))
    assert abs(mirrored.g_r) / SYS.g < 5e-4


def test_swap_symmetry_is_exact():
    drive = drive_set(6.759, 4.849)
    eff = effective_params(SYS, drive)
    eff_swapped = effective_params(SYS, swap_tones(drive))
    assert eff_swapped.g_r == eff.g_cr
    assert eff_swapped.g_cr == eff.g_r


def test_scale_consistency_in_g():
    drive = drive_set(7.516, 5.392)
    eff1 = effective_params(SYS, drive)
    sys2 = SystemParams(epsilon=SYS.epsilon, omega=SYS.omega, g=2.0 * SYS.g,
                        kappa=SYS.kappa, gamma=SYS.gamma)
    eff2 = effective_params(sys2, drive)
    assert eff2.g_r == 2.0 * eff1.g_r
    assert eff2.g_cr == 2.0 * eff1.g_cr
    assert eff2.anisotropy == eff1.anisotropy


def test_detuning_reconstruction_exact():
    for name in FIG_SETS:
        drive, _, _ = FIG_SETS[name]
        det = detunings(SYS, drive)
        eff = effective_params(SYS, drive)
        assert eff.omega_eff - eff.epsilon_eff == det.delta1
        assert eff.omega_eff + eff.epsilon_eff == det.delta2
    # dyadic detunings reconstruct exactly too
    drive = drive_for_detunings(0.25 * GHZ, 0.75 * GHZ, SYS, 0.5, 0.5)
    det = detunings(SYS, drive)
    eff = effective_params(SYS, drive)
    assert eff.omega_eff - eff.epsilon_eff == det.delta1
    assert eff.omega_eff + eff.epsilon_eff == det.delta2


def test_theta_convention():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.5, eta2=0.5,
                        phi1=0.0, phi2=0.37)
    assert effective_params(SYS, drive).theta == 0.37
    both = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.5, eta2=0.5,
                       phi1=0.2, phi2=0.37)
    eff = effective_params(SYS, both)
    assert eff.phi1 == 0.2 and eff.phi2 == 0.37
    assert eff.theta == pytest.approx(0.57)


# ---------------------------------------------------------------------------
# sideband series
# ---------------------------------------------------------------------------

def test_series_zero_amplitude_single_term():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.0, eta2=0.0)
    det = detunings(SYS, drive)
    alpha, beta = sideband_amplitudes(drive, det, n_max=3)
    alive_a = [t for t in alpha if t.coefficient != 0]
    alive_b = [t for t in beta if t.coefficient != 0]
    assert len(alive_a) == 1 and len(alive_b) == 1
    assert alive_a[0].n1 == alive_a[0].n2 == 0
    assert alive_a[0].coefficient == 1.0
    assert alive_a[0].frequency == det.delta_minus
    assert alive_b[0].frequency == -det.delta_plus


def test_series_dominant_rotating_term():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ,
                        eta1=0.7173, eta2=0.7173, phi1=0.4, phi2=0.0)
    det = detunings(SYS, drive)
    alpha, _ = sideband_amplitudes(drive, det, n_max=2)
    term = next(t for t in alpha if (t.n1, t.n2) == (-1, 0))
    expected = -bessel_j(1, 2 * drive.eta1) * bessel_j(0, 2 * drive.eta2) \
        * np.exp(-1j * drive.phi1)
    assert abs(term.coefficient - expected) < 1e-14
    assert term.frequency == pytest.approx(-det.delta1)


def test_series_negative_orders_reflect_exactly():
    # each tone's factors come from one call over orders -n_max..n_max; the
    # negative orders must equal (-1)^n J_|n| bit for bit
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=1.3, eta2=0.9,
                        phi1=0.4, phi2=-0.7)
    det = detunings(SYS, drive)
    alpha, beta = sideband_amplitudes(drive, det, n_max=6)

    def signed_j(n, x):
        val = bessel_j(abs(n), x)
        return -val if n < 0 and n % 2 else val

    for a, b in zip(alpha, beta):
        j = signed_j(a.n1, 2 * drive.eta1) * signed_j(a.n2, 2 * drive.eta2)
        phase = a.n1 * drive.phi1 + a.n2 * drive.phi2
        assert a.coefficient == j * complex(math.cos(phase), math.sin(phase))
        assert b.coefficient == j * complex(math.cos(phase), -math.sin(phase))


def test_series_orders_outside_the_bessel_range_are_rejected():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=1.3, eta2=0.9)
    det = detunings(SYS, drive)
    assert len(sideband_amplitudes(drive, det, n_max=ORDER_LIMIT)[0]) == (2 * ORDER_LIMIT + 1) ** 2
    for n_max in (0, ORDER_LIMIT + 1):
        with pytest.raises(ValidationError):
            sideband_amplitudes(drive, det, n_max=n_max)


def test_series_completeness():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=1.3, eta2=0.9)
    det = detunings(SYS, drive)
    alpha, beta = sideband_amplitudes(drive, det, n_max=20)
    for terms in (alpha, beta):
        total = sum(abs(t.coefficient) ** 2 for t in terms)
        assert abs(total - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# validity audit
# ---------------------------------------------------------------------------

def test_validity_passes_for_reference_drive():
    rep = validity_report(SYS, FIG_SETS["ratio_0p05"][0])
    assert rep.dispersive_ok and rep.detuning_ok and rep.rwa_ok
    assert rep.ok


def test_validity_fails_for_strong_coupling():
    sys_bad = SystemParams(epsilon=SYS.epsilon, omega=SYS.omega, g=3.0 * GHZ)
    rep = validity_report(sys_bad, FIG_SETS["ratio_0p05"][0])
    assert not rep.dispersive_ok


def test_rwa_margin_zero_amplitude():
    drive = DriveParams(omega1=3.2 * GHZ, omega2=6.759 * GHZ, eta1=0.0, eta2=0.0)
    rep = validity_report(SYS, drive)
    det = detunings(SYS, drive)
    expected = min(abs(det.delta_minus), abs(det.delta_plus)) / SYS.g
    assert rep.rwa_margin == pytest.approx(expected, rel=1e-12)


def _reference_series(drive, det, n_max):
    """Both sideband series term by term, (n1, n2, coefficient, frequency)."""
    def signed(n, x):
        val = bessel_orders(n_max, x)[abs(n)]
        return -val if n < 0 and n % 2 else val

    alpha, beta = [], []
    for n1 in range(-n_max, n_max + 1):
        for n2 in range(-n_max, n_max + 1):
            j = signed(n1, 2 * drive.eta1) * signed(n2, 2 * drive.eta2)
            phase = n1 * drive.phi1 + n2 * drive.phi2
            comb = n1 * drive.omega1 + n2 * drive.omega2
            alpha.append((n1, n2, j * complex(math.cos(phase), math.sin(phase)),
                          det.delta_minus + comb))
            beta.append((n1, n2, j * complex(math.cos(phase), -math.sin(phase)),
                         -(det.delta_plus + comb)))
    return alpha, beta


def _reference_margin(sys, drive):
    """The sideband margin of `validity_report`, term by term."""
    alpha, beta = _reference_series(drive, detunings(sys, drive), SIDEBAND_ORDERS)
    margin = math.inf
    for terms, kept in ((alpha, (-1, 0)), (beta, (0, -1))):
        for n1, n2, coefficient, frequency in terms:
            coupling = abs(sys.g * coefficient)
            if (n1, n2) != kept and coupling != 0.0:
                margin = min(margin, abs(frequency) / coupling)
    return margin


def _bits(z):
    """The exact floats of z, told apart down to the sign of a zero."""
    return (float(z.real).hex(), float(z.imag).hex())


_amplitudes = st.one_of(st.just(0.0), st.floats(0.0, X_LIMIT / 2))
_drives = st.builds(DriveParams, omega1=st.floats(0.1, 20.0).map(lambda f: f * GHZ),
                    omega2=st.floats(0.1, 20.0).map(lambda f: f * GHZ),
                    eta1=_amplitudes, eta2=_amplitudes,
                    phi1=st.floats(-10.0, 10.0), phi2=st.floats(-10.0, 10.0))


@settings(max_examples=60)
@given(drive=_drives, g_mhz=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
       n_max=st.integers(1, 8))
def test_series_and_margin_equal_the_per_term_loop_bit_for_bit(drive, g_mhz, n_max):
    # eta = 0 leaves zero couplings, which the margin skips; g = 0 leaves no
    # coupling at all, and the margin is inf, spelled "inf" in the JSON
    sys = replace(SYS, g=g_mhz * MHZ)
    det = detunings(sys, drive)
    for terms, reference in zip(sideband_amplitudes(drive, det, n_max),
                                _reference_series(drive, det, n_max)):
        assert [(t.n1, t.n2, _bits(t.coefficient), _bits(t.frequency)) for t in terms] \
            == [(n1, n2, _bits(c), _bits(f)) for n1, n2, c, f in reference]
    report = validity_report(sys, drive)
    assert _bits(report.rwa_margin) == _bits(_reference_margin(sys, drive))
    if g_mhz == 0.0:
        assert report.as_dict()["rwa_margin"] == "inf"


# ---------------------------------------------------------------------------
# inverse design
# ---------------------------------------------------------------------------

def test_solve_balanced():
    eta1, eta2 = solve_amplitudes(1.0)
    assert eta1 == ETA_BALANCED
    assert eta2 == pytest.approx(ETA_BALANCED, abs=2e-5)


def test_solve_endpoints():
    assert solve_amplitudes(0.0) == (ETA_BALANCED, 0.0)
    assert solve_amplitudes(math.inf) == (ETA_BALANCED, ETA_NULL)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf])
def test_solve_round_trip(lam):
    eta1, eta2 = solve_amplitudes(lam)
    g_r = -bessel_j(1, 2 * eta1) * bessel_j(0, 2 * eta2)
    g_cr = -bessel_j(0, 2 * eta1) * bessel_j(1, 2 * eta2)
    if math.isinf(lam):
        assert abs(g_r) < 1e-15
    elif lam <= 1.0:
        assert abs(g_cr / g_r - lam) < 1e-9
    else:
        assert abs(g_r / g_cr - 1.0 / lam) < 1e-9


def test_solve_rejects_bad_targets():
    with pytest.raises(UnreachableTargetError):
        solve_amplitudes(-0.5)
    with pytest.raises(UnreachableTargetError):
        solve_amplitudes(2.0, eta_fixed=0.0)


def test_monotone_ratio():
    etas = np.linspace(0.01, ETA_NULL - 1e-6, 50)
    vals = [coupling_ratio(float(e)) for e in etas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_amplitudes_for_coupling():
    target = 0.25  # in units of g
    eta1, eta2 = amplitudes_for_coupling(target, anisotropy=1.0, g=1.0)
    g_r = abs(bessel_j(1, 2 * eta1) * bessel_j(0, 2 * eta2))
    g_cr = abs(bessel_j(0, 2 * eta1) * bessel_j(1, 2 * eta2))
    assert g_r == pytest.approx(target, rel=1e-6)
    assert g_cr / g_r == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(UnreachableTargetError):
        amplitudes_for_coupling(0.9, anisotropy=1.0, g=1.0)


def test_drive_for_detunings_round_trip():
    drive = drive_for_detunings(10 * MHZ, 35 * MHZ, SYS, 0.7, 0.8, phi2=0.1)
    det = detunings(SYS, drive)
    assert det.delta1 == pytest.approx(10 * MHZ, rel=1e-12)
    assert det.delta2 == pytest.approx(35 * MHZ, rel=1e-12)


def test_drive_for_targets_realizes_the_ratio_or_refuses():
    for lam, ratio, delta1 in ((1.0, 1.2, 0.0), (0.0, 0.3, 5 * MHZ), (1.0, 0.05, -2 * MHZ)):
        drive = drive_for_targets(SYS, *solve_amplitudes(lam), delta1, ratio)
        eff = effective_params(SYS, drive)
        assert abs(eff.g_r / eff.omega_eff) == pytest.approx(ratio, rel=1e-6)
    # at the J0 null |g_r| is ~1e-16 g, not 0: delta2 is lost in rounding Omega2
    eta1, eta2 = solve_amplitudes(math.inf)
    assert eta2 == ETA_NULL
    with pytest.raises(UnreachableTargetError, match="unreachable"):
        drive_for_targets(SYS, eta1, eta2, 0.0, 1.0)
