"""Reference evaluations of the buffer loss split A(x), kept as oracles for
`tcp_finite._loss_split`.

`series_S`, `A_series` and `A_asymptotic` are the power-series and
large-x routes `buffer_loss_ratio_A` offered before the single
cancellation-free sum, frozen.  `loss_split_decimal` sums the same power
series in 50-digit decimal arithmetic; every term is positive, so A and
1 - A keep all 50 digits.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

from tcpfluid.specfun import euler_product_L

# the float series stops once a term falls below this share of its sum
_SERIES_RTOL = 1e-16


def series_S(x: float, c: float) -> float:
    """S(x) = -L(c)G(x) = sum_{n>=1} x^n/n! prod_{l<=n}(1-c^l).

    All terms are positive for x > 0: no cancellation at any x.  The
    partial products converge to L(c), so S grows like L(c)(e^x - 1).
    """
    total = 0.0
    term = 1.0
    cl = 1.0
    for n in range(1, 100_000):
        cl *= c
        term *= x / n * (1.0 - cl)
        total += term
        if n > x and term <= _SERIES_RTOL * max(total, 1e-300):
            break
    return total


def A_series(x: float, c: float) -> float:
    """A = 1/(1 + S(x)); accurate up to x of about 700, where S overflows."""
    return 1.0 / (1.0 + series_S(x, c))


def A_asymptotic(x: float, c: float) -> float:
    """Leading large-x form A ~ e^(-x)/L(c)."""
    return math.exp(-x - math.log(euler_product_L(c)))


def loss_split_decimal(x: float, c: float) -> tuple[Decimal, Decimal]:
    """(A, 1 - A) = (1/(1+S), S/(1+S)) with S summed to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        X, C = Decimal(x), Decimal(c)
        tol = Decimal(10) ** -ctx.prec
        total = Decimal(0)
        term = Decimal(1)
        cl = Decimal(1)
        n = 0
        while True:
            n += 1
            cl *= C
            term *= X / n * (1 - cl)
            total += term
            if n > x and term <= tol * total:
                break
        return 1 / (1 + total), total / (1 + total)
