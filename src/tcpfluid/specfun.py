"""Shared special functions, from numpy and the standard library alone.

- `harmonic_sums`: sum_{j=2..n} j^-s, the polygamma differences of E[q | n];
- `euler_product_L`: the Euler-type product L(c) = prod_{l>=1} (1 - c^l),
  which normalizes the window laws' mixture coefficients;
- `gammainc`: the regularized incomplete Gammas P(nu, x) and Q(nu, x), for
  the window laws' CCDFs and moments and the histogram p-values;
- `float_pow`: a power of a nonnegative float that gives inf where it
  overflows, for the volumes B_eff^(m+1) of large buffers and delays.

All evaluate in 64-bit floats.  The package needs no scipy at run time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_EPS = 2.0**-53


# harmonic_sums adds the terms j < _DIRECT_TERMS one by one and the rest
# through Euler-Maclaurin with B_2..B_8, whose remainder is below 1e-17 of
# the sum at every s >= 1
_DIRECT_TERMS = 64
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30)


def harmonic_sums(s, n: int) -> np.ndarray:
    """Return sum_{j=2..n} j^-s for each exponent s >= 1 of an array; 0 if n < 2.

    At integers these are the polygamma differences (Abramowitz & Stegun
    6.4.6): psi^(m)(n+1) - psi^(m)(2) = (-1)^m m! · sum_{j=2..n} j^-(m+1).
    Every term is positive, so no digits cancel.
    """
    s = np.asarray(s, dtype=float)
    j = np.arange(2.0, min(n, _DIRECT_TERMS - 1) + 1)
    out = np.sum(j ** -s[..., None], axis=-1)
    if n < _DIRECT_TERMS:
        return out
    # sum_{j=a..b} j^-s = ∫_a^b + (a^-s + b^-s)/2
    #     + sum_k B_2k/(2k)! · (s)_(2k-1) · (a^(1-s-2k) - b^(1-s-2k))
    a, b = float(_DIRECT_TERMS), float(n)
    out += np.divide(
        a ** (1.0 - s) - b ** (1.0 - s), s - 1.0,
        out=np.full(s.shape, math.log(b / a)), where=s != 1.0,
    )
    out += 0.5 * (a**-s + b**-s)
    rising = s.copy()
    for k, b2k in enumerate(_BERNOULLI_2K, 1):
        out += b2k / math.factorial(2 * k) * rising * (a ** (1 - s - 2 * k) - b ** (1 - s - 2 * k))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return out


def float_pow(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, inf where the result overflows.

    A Python float `**` raises OverflowError where IEEE arithmetic (and a
    numpy scalar) gives inf; every other result is the `**` result, bit
    for bit.  np.power is no substitute: it rounds differently from `**`
    on some scalars.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


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


# the longest series or continued fraction gammainc evaluates
_MAX_TERMS = 2048
# below _POWER_NU the series prefactor x^nu e^-x / Γ(nu+1) is formed from
# power and exp, each within an ulp: below the split x^nu stays under
# 112^100 and Γ(nu+1) under Γ(101), so neither overflows.  From it on, and
# for the fraction's prefactor from _STIRLING_NU on, where x^nu may
# overflow, it comes from Stirling's series and the deviance (`_log_poisson`)
_POWER_NU = 100.0
_STIRLING_NU = 20.0


def _series_rest_negligible(term, total, ratio):
    # the terms after `term` fall by at least `ratio` each, so they add at
    # most term·ratio/(1 - ratio); false while ratio >= 1
    return term * ratio <= _EPS * total * (1.0 - ratio)


def _log_poisson(nu: float, x: np.ndarray) -> np.ndarray:
    """ln(x^nu e^-x / Γ(nu+1)) for nu >= 20, elementwise.

    Stirling's series for ln Γ(nu+1) and the deviance nu·ln(nu/x) + x - nu,
    taken through log1p near x = nu, keep the error near 2^-53 of the
    result's size (Loader, "Fast and accurate computation of binomial
    probabilities", 2000).
    """
    inv2 = 1.0 / (nu * nu)
    stirling = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / nu
    gap = x - nu
    t = gap / nu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        deviance = np.where(
            np.abs(gap) < 0.5 * nu, nu * (t - np.log1p(t)), nu * np.log(nu / x) + gap
        )
    return -stirling - 0.5 * math.log(2.0 * math.pi * nu) - deviance


class _GammaincPlan(NamedTuple):
    split: float
    cut: float  # P = 1 from here on
    zero: float  # Q = 0 from here on
    capped: bool
    denominators: np.ndarray  # nu + 1, ..., nu + n
    fraction_a: np.ndarray  # a_k = -k(k - nu) for k = depth down to 1
    fraction_b: np.ndarray  # b_(k-1) - x = 2k - 1 - nu
    far_depth: int  # the depth that converges at `cut`
    lgamma_nu: float
    gamma_nu1: float | None  # Γ(nu+1) below _POWER_NU


@lru_cache(maxsize=32)
def _gammainc_plan(nu: float) -> _GammaincPlan:
    """How gammainc evaluates P(nu, x) and Q(nu, x), decided once per nu.

    Below `split` = nu + sqrt(nu) + 2 it sums the series for P, with `n`
    terms: the first count after which, at x = split, the rest of the
    series is below 2^-53 of the sum.  With r = x/(nu+n+1) < 1 the ratio
    of the next term, the rest is at most term_n · r/(1-r), and that bound
    relative to the sum grows with x, so it holds at every smaller x too.
    `capped` is set when the budget stops at _MAX_TERMS first.  From
    `split` on it takes Q from the continued fraction, to the depth at
    which the modified Lentz method converges to 2^-53 at x = split
    (larger x converge faster), plus one.  The bound
    Q <= x^(nu-1) e^-x / Γ(nu) · max(1, x/(x-nu+1)) falls below 2^-54, half
    an ulp of 1, at `cut`: from there on P is 1 and the fraction runs to
    the shorter depth that converges at `cut`.  The bound falls below
    2^-1075, half the least subnormal, at `zero`, and Q is 0 from there on.

    Raises:
        ValueError: if the continued fraction needs more than _MAX_TERMS.
    """
    split = nu + math.sqrt(nu) + 2.0
    term, total, n = 1.0, 1.0, 0
    while not _series_rest_negligible(term, total, split / (nu + n + 1)):
        if n == _MAX_TERMS:
            break
        n += 1
        term *= split / (nu + n)
        total += term
    capped = n == _MAX_TERMS

    lgamma_nu = math.lgamma(nu)

    def log_q_bound(x: float) -> float:
        return (nu - 1.0) * math.log(x) - x - lgamma_nu + max(0.0, math.log(x / (x - nu + 1.0)))

    def crossing(log2_target: float, lo: float) -> float:
        target, hi = log2_target * math.log(2.0), 2.0 * lo
        while log_q_bound(hi) > target:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_q_bound(mid) > target else (lo, mid)
        return hi

    def depth_at(x: float) -> int:
        # Lentz on 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))), b_k = x + 2k + 1 - nu,
        # a_k = -k(k - nu) (Press et al., Numerical Recipes, 3rd ed., §6.2)
        tiny = 1e-300
        b = x + 1.0 - nu
        c, d = 1.0 / tiny, 1.0 / b
        for depth in range(1, _MAX_TERMS + 1):
            a_k = -depth * (depth - nu)
            b += 2.0
            d = a_k * d + b
            c = b + a_k / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
            if abs(c * d - 1.0) <= _EPS:
                return depth + 1
        raise ValueError(f"gammainc: continued fraction does not converge for nu={nu}")

    cut, depth = crossing(-54.0, split), depth_at(split)
    k = np.arange(depth, 0.0, -1.0)
    return _GammaincPlan(
        split, cut, crossing(-1075.0, cut), capped,
        nu + np.arange(1.0, n + 1.0), -k * (k - nu), 2.0 * k - 1.0 - nu,
        min(depth_at(cut), depth), lgamma_nu,
        math.gamma(nu + 1.0) if nu < _POWER_NU else None,
    )


def gammainc(nu: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Regularized incomplete Gammas (P(nu, x), Q(nu, x)) for one nu > 0, elementwise.

    P = x^nu e^-x / Γ(nu+1) · sum_j prod_{i<=j} x/(nu+i) below nu + sqrt(nu)
    + 2, as one cumulative product over a fixed term budget (Abramowitz &
    Stegun 6.5.29), and Q = 1 - P there; Q from the Legendre continued
    fraction above it (Press et al., Numerical Recipes, 3rd ed., §6.2), and
    P = 1 - Q; P exactly 1 where Q is provably below half an ulp of 1, and
    Q exactly 0 where it is provably below half the least subnormal.  So
    each tail keeps its relative digits wherever it is the smaller one,
    0 <= P, Q <= 1 without a clamp, x = 0 gives (0, 1) and x = inf gives
    (1, 0), and every value comes from its own x alone.  For nu from 0.23
    to 10 and x from 1e-12 to 100, P was measured within 7.6e-16 relative
    of 30-digit values; scipy.special.gammainc, whose series prefactor is
    the exponent of a logarithm, was off by up to 1.7e-14 at nu <= 3.  For
    nu from 20 to 99 and x in nu·[0.32, 2.5], P was within 7.6e-16 of
    40-digit values; a call whose every x is 0 or inf returns at once.

    Raises:
        ValueError: if nu <= 0, or if the series budget cannot bring the
        last term below round-off at some x.
    """
    if not nu > 0:
        raise ValueError(f"gammainc requires nu > 0, got {nu}")
    plan = _gammainc_plan(float(nu))
    x = np.asarray(x, dtype=float)
    if np.all((x == 0.0) | (x == math.inf)) and not np.signbit(x).any():
        # only the ends of the range, as the laws' whole-range integrals ask
        zero = x == 0.0
        return np.where(zero, 0.0, 1.0), np.where(zero, 1.0, 0.0)
    p = np.where(x >= plan.cut, 1.0, np.nan)
    q = np.where(x >= plan.zero, 0.0, np.nan)
    series = x < plan.split
    if series.any():
        xs = x[series]
        terms = np.cumprod(xs[..., None] / plan.denominators, axis=-1)
        total = 1.0 + terms.sum(axis=-1)
        if plan.capped:
            ratio = xs / (nu + terms.shape[-1] + 1)
            if not np.all(_series_rest_negligible(terms[:, -1], total, ratio)):
                raise ValueError(
                    f"gammainc: {_MAX_TERMS} series terms do not reach round-off "
                    f"at nu={nu}, x={xs.max()}"
                )
        if plan.gamma_nu1 is None:
            scale = np.exp(_log_poisson(nu, xs))
        else:
            scale = np.power(xs, nu) * np.exp(-xs) / plan.gamma_nu1
        p[series] = scale * total
        q[series] = 1.0 - p[series]
    fraction = (x >= plan.split) & (x < plan.zero)
    if not fraction.any():
        return p, q
    near = fraction & (x < plan.cut)
    for region, depth in ((near, len(plan.fraction_a)), (fraction & ~near, plan.far_depth)):
        if not region.any():
            continue
        xf = x[region]
        # the last `depth` levels of the fraction, each divided by x, so each
        # step is one division and one addition of precomputed rows
        inv = 1.0 / xf
        rows_a = np.multiply.outer(plan.fraction_a[-depth:], inv * inv)
        rows_b = 1.0 + np.multiply.outer(plan.fraction_b[-depth:], inv)
        g = 1.0 + (2.0 * depth + 1.0 - nu) * inv
        for a_k, b_k in zip(rows_a, rows_b):
            g = b_k + a_k / g
        if nu >= _STIRLING_NU:
            # x^(nu-1) e^-x / Γ(nu) = nu/x · x^nu e^-x / Γ(nu+1)
            front = nu * np.exp(_log_poisson(nu, xf))
        else:
            front = np.exp(nu * np.log(xf) - xf - plan.lgamma_nu)
        q[region] = front / (xf * g)
    p[near] = 1.0 - q[near]
    return p, q
