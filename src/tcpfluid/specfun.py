"""Shared special functions and combinatorial primitives.

Thin, contract-checked wrappers around scipy.special plus a few exact
combinatorial routines (Euler product, unsigned Stirling numbers, an
alternating Kronecker-delta expansion used as a numeric identity test).
Everything evaluates in 64-bit floats; ratios of large Gamma values are
carried in log space with an explicit sign channel.

This module is the package's one gateway to scipy.special: every other
module calls it through the `_sp` handle below, which imports it on the
first attribute access.  So `import tcpfluid`, the AIMD simulator, tree
growth and the finite-tau tree laws never load scipy.
"""

from __future__ import annotations

import math
import numpy as np


class _LazySpecial:
    """scipy.special, imported on the first attribute access.

    Each fetched function is stored on the instance, so later lookups are
    plain attribute reads and never reach __getattr__ again.
    """

    def __getattr__(self, name: str):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


_sp = _LazySpecial()


_STIRLING_MAX_N = 64


def log_gamma(x: float) -> float:
    """Return ln Γ(x) for x > 0.

    Args:
        x: positive real argument.

    Returns:
        Natural log of the Gamma function.

    Raises:
        ValueError: if x <= 0.
    """
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(_sp.gammaln(x))


def digamma(x: float) -> float:
    """Return the digamma function Ψ(x) for x > 0.

    Raises:
        ValueError: if x <= 0.
    """
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(_sp.digamma(x))


def upper_incomplete_gamma(z: float, x: float) -> float:
    """Return the upper incomplete Gamma function Γ(z, x).

    Γ(z, x) = ∫_x^∞ t^(z-1) e^(-t) dt.  Defined for z > 0 with x >= 0,
    and for z <= 0 only when x > 0 (the integral diverges at the origin
    otherwise); the z <= 0 branch uses the upward recurrence
    Γ(z, x) = (Γ(z+1, x) - x^z e^{-x}) / z.

    Raises:
        ValueError: when the defining integral does not exist.
    """
    if x < 0:
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got {x}")
    if z > 0:
        q = float(_sp.gammaincc(z, x))
        if q == 0.0:
            return 0.0
        return math.exp(float(_sp.gammaln(z)) + math.log(q))
    if x == 0:
        raise ValueError("upper_incomplete_gamma diverges for z <= 0 at x = 0")
    # recurse up to a positive first argument, then unwind
    steps = int(math.floor(-z)) + 1
    z_top = z + steps
    value = upper_incomplete_gamma(z_top, x)
    for i in range(steps):
        zi = z_top - 1 - i
        value = (value - x ** zi * math.exp(-x)) / zi
    return value


def pochhammer_log(x: float, n: float) -> float:
    """Return ln[(x)_n] = ln Γ(x+n) - ln Γ(x) for positive-argument ratios.

    Args:
        x: positive real.
        n: nonnegative real shift (need not be an integer).

    Raises:
        ValueError: if either Gamma argument is nonpositive; use
            pochhammer_signed for negative arguments.
    """
    if x <= 0 or x + n <= 0:
        raise ValueError(
            f"pochhammer_log requires positive Gamma arguments, got x={x}, n={n}"
        )
    return float(_sp.gammaln(x + n) - _sp.gammaln(x))


def pochhammer_signed(x: float, n: float) -> tuple[float, float]:
    """Sign-aware Pochhammer symbol (x)_n as (sign, log magnitude).

    Handles negative x, including the nonpositive-integer poles of Γ(x):
    when the rising product contains a zero factor the result is exactly
    zero, reported as (0.0, -inf).  Integer n up to 64 is evaluated as a
    direct product; larger or non-integer n goes through log-Gamma with
    the sign recovered from gammasgn.

    Returns:
        (sign, log_magnitude) with sign in {-1.0, 0.0, 1.0}.
    """
    if n == 0:
        return 1.0, 0.0
    if n < 0:
        raise ValueError(f"pochhammer_signed requires n >= 0, got {n}")
    snapped = round(x)
    if abs(x - snapped) <= 1e-9 * max(1.0, abs(x)) and snapped <= 0:
        # pole of Gamma(x): zero factor inside the product unless the
        # product stops before reaching it
        if n > -snapped:
            return 0.0, -math.inf
        sign = -1.0 if (int(n) % 2) else 1.0
        logmag = float(_sp.gammaln(1 - snapped) - _sp.gammaln(1 - snapped - n))
        return sign, logmag
    n_int = int(n)
    if n == n_int and n_int <= 64:
        sign = 1.0
        logmag = 0.0
        for j in range(n_int):
            factor = x + j
            if factor == 0.0:
                return 0.0, -math.inf
            if factor < 0:
                sign = -sign
            logmag += math.log(abs(factor))
        return sign, logmag
    sign = float(_sp.gammasgn(x + n) * _sp.gammasgn(x))
    logmag = float(_sp.gammaln(x + n) - _sp.gammaln(x))
    return sign, logmag


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k), exact.

    Uses the recurrence c(n+1, k) = c(n, k-1) + n·c(n, k) over Python
    integers, so there is no precision cap below n = 64.

    Raises:
        ValueError: outside 0 <= k <= n <= 64.
    """
    if not (0 <= k <= n <= _STIRLING_MAX_N):
        raise ValueError(f"stirling_first_unsigned needs 0 <= k <= n <= 64, got ({n}, {k})")
    return _stirling_row(n)[k]


def _stirling_row(n: int) -> tuple[int, ...]:
    rows = _stirling_row.cache
    while len(rows) <= n:
        m = len(rows) - 1
        prev = rows[m]
        row = [0] * (m + 2)
        for j in range(m + 2):
            above = prev[j] if j <= m else 0
            left = prev[j - 1] if j >= 1 else 0
            row[j] = left + m * above
        rows.append(tuple(row))
    return rows[n]


_stirling_row.cache = [(1,)]


# euler_product_L drops the factors 1 - c^l once c^l falls below this
_PRODUCT_TAIL = 1e-18


def euler_product_L(c: float) -> float:
    """Return the Euler-type product L(c) = ∏_{l>=1} (1 - c^l).

    Factors are dropped once c^l falls below 1e-18.  L(0) = 1 and
    the product decreases monotonically toward 0 as c approaches 1.

    Raises:
        ValueError: if c is outside [0, 1).
    """
    if not 0 <= c < 1:
        raise ValueError(f"euler_product_L requires 0 <= c < 1, got {c}")
    if c == 0:
        return 1.0
    n_terms = int(math.ceil(math.log(_PRODUCT_TAIL) / math.log(c)))
    powers = c ** np.arange(1, max(n_terms, 1) + 1)
    return float(math.exp(np.sum(np.log1p(-powers))))


def kronecker_expansion_check(n: int) -> float:
    """Evaluate Σ_{k=0}^{n} (-1)^k / (k! Γ(n-k+1)).

    Analytically equal to the Kronecker delta δ_{n,0}; exposed so the
    identity can be checked numerically.  Negative n returns 0 (every 1/Γ
    factor sits on a pole).
    """
    if n < 0:
        return 0.0
    total = 0.0
    for k in range(n + 1):
        term = 1.0 / (math.factorial(k) * math.factorial(n - k))
        total += -term if k % 2 else term
    return total
