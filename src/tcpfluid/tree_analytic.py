"""Closed-form edge statistics of preferential-attachment trees.

Distributions below describe the state (n, q) of a uniformly chosen edge
in a tree grown to tau edges: n is the number of descendants strictly
below the edge's younger endpoint, q the in-degree of that endpoint.
Everything derives from the joint law

    P_tau(n, q) = ((tau+1-a)/tau) * (1/a-1)_q / (2-a)_{n+1} * D(n, q),

written with a = alpha_t and the alternating Pochhammer sum

    D(n, q) = sum_{k=0}^{q} (-1)^k / (k! (q-k)!) * (-a k)_n.

D and every finite-size correction below are alternating Pochhammer
sums of one shape, all evaluated by `_alternating_sum`: in log space
with sign tracking first, and again in exact rational arithmetic
(alpha_t snapped to the nearest small-denominator rational) whenever the
float sum loses more than three digits to cancellation, as it does when
n is close to q.  Bulk tabulation avoids the alternating sum entirely:
the same law satisfies a forward recursion in tree age with nonnegative
coefficients, which is cancellation-free and fills the whole support in
O(tau^3) vectorized work.

Edge betweenness is a deterministic function of the cluster size,
L = (n+1)(tau-n), so its laws are reparametrizations of the cluster law.
The rescaled variable Lambda = L/(tau+1) has a proper infinite-tree
limit.  The uniform-attachment limit (a -> inf) is exposed through the
alpha_t = 0 sentinel where a closed form exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .specfun import (
    digamma,
    log_gamma,
    pochhammer_log,
    pochhammer_signed,
    stirling_first_unsigned,
)

__all__ = [
    "DistTable",
    "joint_pnq",
    "joint_pnq_er",
    "marginal_n",
    "marginal_q",
    "ccdf_n",
    "ccdf_q",
    "cond_mean_n_given_q",
    "cond_mean_q_given_n",
    "betweenness_ccdf_given_q",
    "betweenness_ccdf_asymptotic",
    "betweenness_mean_given_q",
    "betweenness_mean_given_q_finite",
    "unconditional_betweenness_ccdf",
    "finite_size_correction_check",
]

EULER_GAMMA = 0.5772156649015328606

# small-alpha stand-in for finite-tau uniform-attachment marginals, which
# have no printed closed form (they involve a derivative at alpha = 0)
_ER_ALPHA_EPS = 1e-6

# an alternating sum smaller than this times its largest term has lost
# more than three digits; log-space terms carry ~1e-13 relative error
# each, so such a float sum is recomputed exactly
_CANCELLATION_GUARD = 1e-3


def _is_infinite(tau) -> bool:
    return tau is None or (isinstance(tau, float) and math.isinf(tau))


def _check_tau(tau) -> int:
    if _is_infinite(tau):
        raise ValueError("this operation requires a finite tau")
    if tau < 1 or tau != int(tau):
        raise ValueError(f"tau must be a positive integer, got {tau}")
    return int(tau)


def _check_alpha(alpha_t: float, allow_er: bool = False) -> float:
    lo_ok = alpha_t > 0.0 or (allow_er and alpha_t == 0.0)
    if not (lo_ok and alpha_t <= 1.0):
        span = "[0, 1]" if allow_er else "(0, 1]"
        raise ValueError(f"alpha_t must lie in {span}, got {alpha_t}")
    return float(alpha_t)


def _check_index(name: str, value) -> int:
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _prefactor(tau, alpha: float) -> float:
    if _is_infinite(tau):
        return 1.0
    return (tau + 1.0 - alpha) / tau


def _signed_log_sum(signs, logs) -> tuple[float, float, float]:
    """Return (sign, log|sum|, log peak term) of sum_i sign_i * e^{log_i}."""
    peak = -math.inf
    for s, lg in zip(signs, logs):
        if s != 0.0 and lg > peak:
            peak = lg
    if peak == -math.inf:
        return 0.0, -math.inf, -math.inf
    acc = 0.0
    for s, lg in zip(signs, logs):
        if s != 0.0:
            acc += s * math.exp(lg - peak)
    if acc == 0.0:
        return 0.0, -math.inf, peak
    return math.copysign(1.0, acc), peak + math.log(abs(acc)), peak


def _alpha_fraction(alpha_t: float) -> Fraction:
    return Fraction(alpha_t).limit_denominator(10**6)


def _alternating_sum(
    alpha: float, top: int, m: int, k_lo: int = 0, x0: int = 0, shifts=()
) -> tuple[float, float]:
    """(sign, log|S|) of the alternating Pochhammer sum

        S = sum_{k=k_lo}^{top} (-1)^k (x0 (1-a) - a k)_m
                               / (k! (top-k)! prod_s (k + s)),

    with a = alpha and each shift s = i + j/a given as an integer pair
    (i, j) such that every k + s is positive.  The float sum runs in log
    space; when it keeps fewer than three digits of its largest term it
    is redone in exact integer arithmetic with alpha snapped to a
    small-denominator rational.
    """
    signs: list[float] = []
    logs: list[float] = []
    for k in range(k_lo, top + 1):
        s, lg = pochhammer_signed(x0 * (1.0 - alpha) - alpha * k, m)
        if s == 0.0:
            continue
        if k % 2:
            s = -s
        lg -= log_gamma(k + 1.0) + log_gamma(top - k + 1.0)
        for i, j in shifts:
            lg -= math.log(k + i + j / alpha)
        signs.append(s)
        logs.append(lg)
    sign, log_s, peak = _signed_log_sum(signs, logs)
    if peak == -math.inf or log_s - peak >= math.log(_CANCELLATION_GUARD):
        return sign, log_s
    # exact path: with a = num/den every factor is an integer ratio,
    #   (x0 (1-a) - a k)_m = prod_j (x0 (den-num) - k num + j den) / den^m
    #   1 / (k + i + j/a) = num / ((k+i) num + j den),
    # and the terms are summed over the lcm of the shift denominators
    snapped = _alpha_fraction(alpha)
    num, den = snapped.numerator, snapped.denominator
    ks = range(k_lo, top + 1)
    shift_den = [math.prod((k + i) * num + j * den for i, j in shifts) for k in ks]
    common = math.lcm(*shift_den)
    total = 0
    for k, d in zip(ks, shift_den):
        base = x0 * (den - num) - k * num
        term = math.comb(top, k) * math.prod(range(base, base + m * den, den))
        total += (-term if k % 2 else term) * (common // d)
    if total == 0:
        return 0.0, -math.inf
    log_s = (
        math.log(abs(total))
        + len(shifts) * math.log(num)
        - math.log(common)
        - m * math.log(den)
        - log_gamma(top + 1.0)
    )
    return (1.0 if total > 0 else -1.0), log_s


def joint_pnq(tau: int, alpha_t: float, n: int, q: int) -> float:
    """Joint probability P_tau(n, q) of a uniformly chosen edge's state.

    Returns 0 outside the support {0 <= q <= n <= tau-1}; the star limit
    alpha_t = 1 concentrates all mass on (0, 0).
    """
    tau = _check_tau(tau)
    alpha = _check_alpha(alpha_t)
    n = _check_index("n", n)
    q = _check_index("q", q)
    if q < 0 or q > n or n >= tau:
        return 0.0
    if alpha == 1.0:
        return 1.0 if (n, q) == (0, 0) else 0.0
    sign, log_d = _alternating_sum(alpha, q, n)
    log_p = (
        math.log(_prefactor(tau, alpha))
        + pochhammer_log(1.0 / alpha - 1.0, q)
        - pochhammer_log(2.0 - alpha, n + 1.0)
        + log_d
    )
    return sign * math.exp(log_p)


def joint_pnq_er(tau: int, n: int, q: int) -> float:
    """Uniform-attachment (a -> inf) joint law, via Stirling numbers.

    Exact integer arithmetic; capped at n <= 65 by the Stirling table.
    """
    tau = _check_tau(tau)
    n = _check_index("n", n)
    q = _check_index("q", q)
    if (n, q) == (0, 0):
        return (tau + 1.0) / (2.0 * tau)
    if q < 1 or q > n or n >= tau:
        return 0.0
    # signed Stirling numbers cancel the alternating prefactor exactly,
    # leaving an all-positive sum over the unsigned ones
    total = sum(
        stirling_first_unsigned(n - 1, k) * math.comb(k, q - 1)
        for k in range(q - 1, n)
    )
    return float(Fraction((tau + 1) * total, tau * math.factorial(n + 2)))


def _forward_table(tau: int, alpha: float) -> np.ndarray:
    """Edge-state law P_tau[n, q] by evolving the attachment dynamics.

    One growth step sends an edge in state (n, q) to (n+1, q+1) when the
    new vertex lands on its younger endpoint (weight 1-a+a*q) and to
    (n+1, q) when it lands strictly below (weight n-a*q), both over the
    total t+1-a; each step also spawns one edge in state (0, 0).  All
    coefficients are nonnegative, so the evolution never cancels.
    """
    # accumulates the UNNORMALIZED sum over edge birth times
    acc = np.zeros((tau, tau))
    acc[0, 0] = 1.0
    n_grid = np.arange(tau, dtype=float)[:, None]
    q_grid = np.arange(tau, dtype=float)[None, :]
    w_endpoint = 1.0 - alpha + alpha * q_grid + 0.0 * n_grid
    w_below = np.maximum(n_grid - alpha * q_grid, 0.0)
    for t in range(1, tau):
        m = t + 1
        s = acc[:m, :m]
        flow1 = s * (w_endpoint[:m, :m] / (t + 1.0 - alpha))
        flow2 = s * (w_below[:m, :m] / (t + 1.0 - alpha))
        s -= flow1 + flow2
        s[1:, 1:] += flow1[:-1, :-1]
        s[1:, :] += flow2[:-1, :]
        acc[0, 0] += 1.0
    return acc / tau


@dataclass(frozen=True)
class DistTable:
    """Tabulated P_tau(n, q) over the support 0 <= q <= n <= tau-1.

    `values` maps (n, q) to probability; `exact` optionally carries the
    rational values when the table came from the exhaustive enumerator.
    """

    tau: int
    alpha_t: float
    values: dict
    exact: dict | None = None

    def prob(self, n: int, q: int) -> float:
        return self.values.get((n, q), 0.0)

    def total(self) -> float:
        return math.fsum(self.values.values())

    def marginal_over_q(self) -> np.ndarray:
        """P(n) array for n = 0..tau-1, summing the table over q."""
        out = np.zeros(self.tau)
        for (n, _q), p in self.values.items():
            out[n] += p
        return out

    def marginal_over_n(self) -> np.ndarray:
        """P(q) array for q = 0..tau-1, summing the table over n."""
        out = np.zeros(self.tau)
        for (_n, q), p in self.values.items():
            out[q] += p
        return out

    @classmethod
    def from_analytic(cls, tau: int, alpha_t: float) -> "DistTable":
        """Tabulate the joint law over the whole support.

        Uses the cancellation-free forward recursion of the attachment
        dynamics rather than summing the alternating closed form per
        entry, which loses all precision in the n ~ q corner.  Agrees
        with the scalar closed form wherever the latter is healthy.
        """
        tau = _check_tau(tau)
        alpha = _check_alpha(alpha_t, allow_er=True)
        if alpha == 1.0:
            return cls(tau=tau, alpha_t=1.0, values={(0, 0): 1.0})
        grid = _forward_table(tau, alpha)
        ns, qs = np.nonzero(grid)
        values = dict(zip(zip(ns.tolist(), qs.tolist()), grid[ns, qs].tolist()))
        return cls(tau=tau, alpha_t=alpha, values=values)


def marginal_n(tau, alpha_t: float, n: int) -> float:
    """Cluster-size marginal; tau=None or inf selects the infinite-tree law."""
    alpha = _check_alpha(alpha_t, allow_er=True)
    if not _is_infinite(tau):
        tau = _check_tau(tau)
    n = _check_index("n", n)
    if n < 0 or (not _is_infinite(tau) and n >= tau):
        return 0.0
    pref = _prefactor(tau, alpha)
    if n == 0:
        # the (1-alpha) factor cancels; this form stays finite at alpha=1
        return pref / (2.0 - alpha)
    return pref * (1.0 - alpha) / ((n + 1.0 - alpha) * (n + 2.0 - alpha))


def _marginal_q_positive_alpha(tau, alpha: float, q: int) -> float:
    inv = 1.0 / alpha
    t1 = inv * math.exp(
        pochhammer_log(inv - 1.0, inv) - pochhammer_log(q + inv - 1.0, inv + 1.0)
    )
    if _is_infinite(tau):
        return t1
    # finite-size correction: 1/(a k + 2 - a) = (1/a) / (k - 1 + 2/a)
    sign, log_s = _alternating_sum(alpha, q, tau, k_lo=1, shifts=((-1, 2),))
    t2 = sign * inv * math.exp(
        pochhammer_log(inv - 1.0, q) - pochhammer_log(2.0 - alpha, tau) + log_s
    )
    return _prefactor(tau, alpha) * (t1 - t2)


def marginal_q(tau, alpha_t: float, q: int) -> float:
    """In-degree marginal of the edge ensemble.

    The finite-tau uniform-attachment case (alpha_t = 0) has no printed
    closed form; it is approximated by evaluating at alpha = 1e-6.
    """
    alpha = _check_alpha(alpha_t, allow_er=True)
    if not _is_infinite(tau):
        tau = _check_tau(tau)
    q = _check_index("q", q)
    if q < 0 or (not _is_infinite(tau) and q >= tau):
        return 0.0
    if alpha == 1.0:
        return 1.0 if q == 0 else 0.0
    if alpha == 0.0:
        if _is_infinite(tau):
            return 2.0 ** -(q + 1)
        return _marginal_q_positive_alpha(tau, _ER_ALPHA_EPS, q)
    return _marginal_q_positive_alpha(tau, alpha, q)


def ccdf_n(tau, alpha_t: float, n: int) -> float:
    """P(cluster size >= n); tau=None or inf selects the infinite-tree law."""
    alpha = _check_alpha(alpha_t, allow_er=True)
    if not _is_infinite(tau):
        tau = _check_tau(tau)
    n = _check_index("n", n)
    if n <= 0:
        return 1.0
    if not _is_infinite(tau) and n >= tau:
        return 0.0
    head = (1.0 - alpha) / (n + 1.0 - alpha)
    if _is_infinite(tau):
        return head
    return _prefactor(tau, alpha) * head - (1.0 - alpha) / tau


def _ccdf_q_positive_alpha(tau, alpha: float, q: int) -> float:
    inv = 1.0 / alpha
    head = math.exp(
        pochhammer_log(inv - 1.0, inv) - pochhammer_log(q + inv - 1.0, inv)
    )
    if _is_infinite(tau):
        return head
    pref = _prefactor(tau, alpha)
    # the tail sum is empty, hence zero, for q < 2
    sign, log_s = _alternating_sum(alpha, q - 2, tau - 1, x0=1, shifts=((0, 1), (0, 2)))
    t3 = sign * math.exp(
        pochhammer_log(inv - 1.0, q) - pochhammer_log(2.0 - alpha, tau) + log_s
    )
    return pref * head - (1.0 - alpha) / tau + pref * t3


def ccdf_q(tau, alpha_t: float, q: int) -> float:
    """P(in-degree >= q) of the edge ensemble."""
    alpha = _check_alpha(alpha_t, allow_er=True)
    if not _is_infinite(tau):
        tau = _check_tau(tau)
    q = _check_index("q", q)
    if q <= 0:
        return 1.0
    if not _is_infinite(tau) and q >= tau:
        return 0.0
    if alpha == 1.0:
        return 0.0
    if alpha == 0.0:
        if _is_infinite(tau):
            return 2.0**-q
        return _ccdf_q_positive_alpha(tau, _ER_ALPHA_EPS, q)
    return _ccdf_q_positive_alpha(tau, alpha, q)


def _g_tau(tau: int, alpha: float, q: int) -> float:
    """Finite-size factor G_tau(q) of the conditional cluster-size mean.

    Raises ValueError when either bracket 1 - x cancels to fewer than
    three digits; the alternating sum inside is exact, the subtraction
    outside it is not.
    """
    inv = 1.0 / alpha

    def bracket(j: int, order_x: float) -> float:
        # 1 - (j/a - 1)_{q+1} / (order_x)_tau * sum_k (...) / (k - 1 + j/a)
        sign, log_s = _alternating_sum(alpha, q, tau, shifts=((-1, j),))
        x = sign * math.exp(
            pochhammer_log(j * inv - 1.0, q + 1.0)
            - pochhammer_log(order_x, float(tau))
            + log_s
        )
        value = 1.0 - x
        if abs(value) < _CANCELLATION_GUARD * max(1.0, abs(x)):
            raise ValueError(
                f"E[n|q] finite-size bracket cancels to {value:.3e} "
                f"(tau={tau}, alpha_t={alpha}, q={q}); fewer than three "
                "digits survive"
            )
        return value

    return bracket(1, 1.0 - alpha) / bracket(2, 2.0 - alpha)


def cond_mean_n_given_q(tau, alpha_t: float, q: int) -> float:
    """E[n | q]: expected cluster size at known younger-endpoint in-degree.

    Raises ValueError at finite tau where the finite-size factor cancels
    to fewer than three digits, which happens as q nears the tail of the
    in-degree law.
    """
    alpha = _check_alpha(alpha_t, allow_er=True)
    if not _is_infinite(tau):
        tau = _check_tau(tau)
        if q >= tau:
            raise ValueError(f"q must satisfy q < tau, got q={q}, tau={tau}")
    q = _check_index("q", q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if alpha == 0.0:
        # uniform-attachment limit, E[n+2 | q] = 2^{q+1}
        return 2.0 ** (q + 1) - 2.0
    if alpha == 1.0:
        if q != 0:
            raise ValueError("alpha_t=1 concentrates on q=0")
        return 0.0
    inv = 1.0 / alpha
    base = (1.0 - alpha) * math.exp(
        pochhammer_log(q + inv, inv) - pochhammer_log(inv - 1.0, inv)
    )
    g = 1.0 if _is_infinite(tau) else _g_tau(tau, alpha, q)
    return base * g - 2.0 + alpha


def cond_mean_q_given_n(alpha_t: float, n: int) -> float:
    """E[q | n]: expected in-degree at known cluster size; tau-independent."""
    alpha = _check_alpha(alpha_t, allow_er=True)
    n = _check_index("n", n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if alpha == 0.0:
        return digamma(n + 1.0) + EULER_GAMMA
    # 1 + (X-1)/alpha with X = Gamma(2-a)Gamma(n+1)/Gamma(n+1-a); the log
    # terms cancel identically at n=1, making E[q|n=1]=1 float-exact
    x = math.exp(log_gamma(2.0 - alpha) + log_gamma(n + 1.0) - log_gamma(n + 1.0 - alpha))
    return 1.0 + (x - 1.0) / alpha


def betweenness_ccdf_given_q(Lambda: int, q: int, alpha_t: float) -> float:
    """Infinite-tree CCDF of rescaled betweenness Lambda = L/(tau+1) given q."""
    alpha = _check_alpha(alpha_t)
    Lambda = _check_index("Lambda", Lambda)
    q = _check_index("q", q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if Lambda < q + 1:
        raise ValueError(f"need Lambda >= q+1, got Lambda={Lambda}, q={q}")
    inv = 1.0 / alpha
    sign, log_s = _alternating_sum(alpha, q, Lambda - 1, shifts=((-1, 2),))
    return sign * math.exp(
        pochhammer_log(2.0 * inv - 1.0, q + 1.0)
        - pochhammer_log(2.0 - alpha, Lambda - 1.0)
        + log_s
    )


def betweenness_ccdf_asymptotic(Lambda: float, q: int, alpha_t: float) -> float:
    """Leading 1/Lambda^2 tail of the conditional betweenness CCDF."""
    alpha = _check_alpha(alpha_t)
    if alpha == 1.0:
        raise ValueError("the tail form needs alpha_t < 1")
    q = _check_index("q", q)
    if q < 1:
        raise ValueError(f"the tail form needs q >= 1, got {q}")
    if Lambda <= 0:
        raise ValueError(f"Lambda must be positive, got {Lambda}")
    log_v = (
        2.0 * math.log(alpha)
        + math.log(1.0 - alpha)
        - math.log(2.0)
        - log_gamma(2.0 / alpha - 1.0)
        + (2.0 / alpha) * math.log(q)
        - 2.0 * math.log(Lambda)
    )
    return math.exp(log_v)


def betweenness_mean_given_q(q: int, alpha_t: float) -> float:
    """Infinite-tree mean of rescaled betweenness, E[Lambda | q]."""
    alpha = _check_alpha(alpha_t, allow_er=True)
    q = _check_index("q", q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if alpha == 0.0:
        return 2.0 ** (q + 1) - 1.0
    if alpha == 1.0:
        if q != 0:
            raise ValueError("alpha_t=1 concentrates on q=0")
        return 1.0
    inv = 1.0 / alpha
    return (
        (1.0 - alpha)
        * math.exp(pochhammer_log(q + inv, inv) - pochhammer_log(inv - 1.0, inv))
        - 1.0
        + alpha
    )


def betweenness_mean_given_q_finite(tau: int, alpha_t: float, q: int) -> float:
    """Exact finite-tree mean E[L | q] of raw betweenness L = (n+1)(tau-n).

    Assembled as tau*E[n+1|q] - E[(n+1)n|q], where the second conditional
    moment comes from the digamma-bearing sum whose k=1 term is isolated
    analytically (it would otherwise divide by zero).
    """
    tau = _check_tau(tau)
    alpha = _check_alpha(alpha_t)
    q = _check_index("q", q)
    if not 0 <= q < tau:
        raise ValueError(f"need 0 <= q < tau, got q={q}, tau={tau}")
    if q == 0:
        # q=0 forces n=0, hence L = tau deterministically
        return float(tau)
    if alpha == 1.0:
        raise ValueError("alpha_t=1 has no edges with q >= 1 in the ensemble")
    mean_n = cond_mean_n_given_q(tau, alpha_t, q)

    head = (
        (1.0 - alpha)
        * math.exp(-log_gamma(float(q)))
        * (
            alpha * digamma(tau - alpha)
            - alpha * digamma(1.0 - alpha)
            - digamma(float(q))
            - EULER_GAMMA
        )
    )
    sign, log_s = _alternating_sum(alpha, q, tau, k_lo=2, shifts=((-1, 0),))
    tail = sign * math.exp(
        log_s - pochhammer_log(2.0 - alpha, tau - 2.0) - math.log(alpha)
    )
    inner = head - tail

    m2_shifted = (
        _prefactor(tau, alpha)
        * math.exp(pochhammer_log(1.0 / alpha - 1.0, q))
        / marginal_q(tau, alpha_t, q)
        * inner
    )
    second = m2_shifted - (2.0 - 2.0 * alpha) * mean_n - (2.0 - alpha) * (1.0 - alpha)
    return tau * (mean_n + 1.0) - second


def unconditional_betweenness_ccdf(tau: int, alpha_t: float, L: float) -> float:
    """P(betweenness >= L) over all edges, finite tree, closed form."""
    tau = _check_tau(tau)
    alpha = _check_alpha(alpha_t, allow_er=True)
    l_max = (tau + 1.0) ** 2 / 4.0
    if not tau <= L <= l_max:
        raise ValueError(f"L must lie in [{tau}, {l_max}], got {L}")
    n_l = (tau - 1.0) / 2.0 - math.sqrt(l_max - L)
    if n_l == 0.0:
        return 1.0
    return (
        _prefactor(tau, alpha)
        * (1.0 - alpha)
        * (tau - 2.0 * n_l)
        / ((n_l + 1.0 - alpha) * (tau - n_l + 1.0 - alpha))
    )


def finite_size_correction_check(
    tau: int, alpha_t: float, Lambda: int, q: int
) -> float:
    """F_tau(Lambda|q) - F_inf(Lambda|q): finite-size CCDF deviation.

    Compares at fixed rescaled threshold: the finite sum runs over the
    limiting integer window n in [Lambda-1, tau-Lambda], which is where
    (n+1)(tau-n)/(tau+1) >= Lambda lands as tau grows.  (Re-rooting the
    boundary per tau would leave a never-decaying boundary-bin residue.)
    The deviation is negative and decays like 1/tau^2.
    """
    tau = _check_tau(tau)
    if tau > 10**4:
        raise ValueError(f"exact-table mode is guarded at tau <= 1e4, got {tau}")
    alpha = _check_alpha(alpha_t)
    Lambda = _check_index("Lambda", Lambda)
    q = _check_index("q", q)
    f_inf = betweenness_ccdf_given_q(Lambda, q, alpha_t)
    lo = max(Lambda - 1, 0)
    hi = min(tau - Lambda, tau - 1)
    if hi < lo:
        return -f_inf
    p_q = marginal_q(tau, alpha_t, q)
    mass = math.fsum(joint_pnq(tau, alpha_t, n, q) for n in range(lo, hi + 1))
    return mass / p_q - f_inf

