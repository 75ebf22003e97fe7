"""Bessel functions of the first kind, integer order.

``bessel_j`` is ``scipy.special.jv`` behind a checked domain: integer order
n >= 0 and |x| <= X_LIMIT, the range on which the tests hold it to 1e-14
absolute against a 40-digit mpmath oracle.  ``jv`` itself gives
J_n(-x) = (-1)^n J_n(x) and J_n(0) exactly, and takes negative orders,
J_{-n}(x) = (-1)^n J_n(x), where an array of orders is wanted.
"""

from scipy.special import jv

# First zero of J0. Drive amplitudes at eta = J0_FIRST_ZERO / 2 null one of the
# two effective couplings exactly.
J0_FIRST_ZERO = 2.404825557695773

X_LIMIT = 50.0


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 and |x| <= 50."""
    if n < 0 or int(n) != n:
        raise ValueError(f"order must be a nonnegative integer, got {n}")
    x = float(x)
    if not abs(x) <= X_LIMIT:
        raise ValueError(f"argument {x} outside validated range |x| <= {X_LIMIT}")
    return float(jv(int(n), x))
