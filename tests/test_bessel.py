import math

import mpmath
import numpy as np
import pytest

from modrabi.bessel import J0_FIRST_ZERO, ORDER_LIMIT, X_LIMIT, bessel_j, bessel_orders


def series_oracle(n: int, x: float, dps: int = 40) -> float:
    """Plain ascending power series in 40-digit arithmetic."""
    with mpmath.workdps(dps):
        half = mpmath.mpf(x) / 2
        total = mpmath.mpf(0)
        term = half ** n / mpmath.factorial(n)
        k = 0
        while abs(term) > mpmath.mpf(10) ** (-dps):
            total += term
            term = -term * half * half / ((k + 1) * (n + k + 1))
            k += 1
        return float(total)


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_every_order_at_zero_is_exact():
    for x in (0.0, -0.0):
        assert bessel_orders(ORDER_LIMIT, x) == [1.0] + [0.0] * ORDER_LIMIT


def test_an_order_does_not_depend_on_the_others_asked_for():
    # bit for bit: effective_params then swaps g_r and g_cr exactly with the tones
    for x in (1e-300, 0.37, 1.4346, 2.404825557695773, 23.999, 24.001, -17.5, X_LIMIT):
        every = bessel_orders(ORDER_LIMIT, x)
        for n in range(ORDER_LIMIT + 1):
            assert bessel_orders(n, x) == every[:n + 1]
            assert bessel_j(n, x) == every[n]


@pytest.mark.parametrize("x", [0.3, 23.9, 24.1, 49.9, X_LIMIT])
def test_every_order_against_high_precision(x):
    # the node count changes at |x| = 24; the highest orders sit nearest their aliases
    for n, value in enumerate(bessel_orders(ORDER_LIMIT, x)):
        assert abs(value - float(mpmath.besselj(n, x))) < 1e-14


def test_first_zero_of_j0():
    assert abs(bessel_j(0, 2.404826)) < 1e-6
    assert abs(bessel_j(0, 2.404826) - series_oracle(0, 2.404826)) < 1e-12
    assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-15


def test_balanced_amplitude_point():
    # at x = 2 * 0.7173 the zeroth and first orders cross near 0.548
    x = 2 * 0.7173
    j0, j1 = bessel_j(0, x), bessel_j(1, x)
    assert abs(j0 - 0.548) < 1e-3
    assert abs(j1 - 0.548) < 1e-3
    assert abs(j0 - series_oracle(0, x)) < 1e-13
    assert abs(j1 - series_oracle(1, x)) < 1e-13


@pytest.mark.parametrize("n", range(0, 12))
def test_against_series_oracle_small_x(n):
    for x in np.linspace(0.05, 12.0, 40):
        assert abs(bessel_j(n, float(x)) - series_oracle(n, float(x))) < 1e-14


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 17])
def test_against_high_precision_large_x(n):
    for x in np.linspace(12.01, 50.0, 40):
        ref = float(mpmath.besselj(n, x))
        assert abs(bessel_j(n, float(x)) - ref) < 1e-14


def test_three_term_recurrence():
    for n in range(1, 11):
        for x in np.linspace(0.1, 10.0, 34):
            x = float(x)
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = (2.0 * n / x) * bessel_j(n, x)
            assert abs(lhs - rhs) < 1e-10


def test_negative_argument_parity():
    for n in range(0, 6):
        for x in (0.3, 2.5, 17.0):
            sign = -1.0 if n % 2 else 1.0
            assert bessel_j(n, -x) == sign * bessel_j(n, x)


def test_completeness_sum():
    for x in (0.5, 1.4346, 3.0, 9.0):
        total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(k, x) ** 2 for k in range(1, 60))
        assert abs(total - 1.0) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_orders(ORDER_LIMIT + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_orders(1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, 50.5)
    with pytest.raises(ValueError):
        bessel_j(0, math.nan)
