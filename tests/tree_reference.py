"""Reference tree laws, kept as oracles for `tree_analytic`.

`forward_table` evolves the whole edge ensemble in tree age, O(tau^3),
and was the library's tabulation route before the subtree in-degree
chain.  `marginal_q_closed`, `ccdf_q_closed` and
`cond_mean_n_given_q_closed` (with `g_tau`) are the finite-tau closed
forms the chain replaced: alternating sums that are exact where they do
not cancel and go wrong in the in-degree tail.  They are frozen here
unchanged.

`_alternating_sum` evaluates those sums: in log space with sign
tracking (`_signed_log_sum`, over `pochhammer_signed` terms), and again
in exact rational arithmetic whenever the float sum loses more than
three digits.  It was the library's route to every alternating closed
form, the infinite-tree betweenness CCDF last, and is frozen here with
its helpers and the Stirling numbers `joint_pnq_er` uses.

`joint_pnq` (the alternating closed form of P_tau(n, q)), `joint_pnq_er`,
`betweenness_ccdf_asymptotic`, `betweenness_mean_given_q_finite` and
`finite_size_correction_check` are closed forms that only tests use;
criterion 10 imports the last one.

`in_degree_chain` is the library's subtree in-degree chain as it stood
before its blocks were cut to the triangle q <= n: every block carries
all top + 1 bins.  The narrow chain must reproduce it bit for bit.

`pochhammer_log`, ln Γ(x+n) - ln Γ(x), is the kernel the closed forms
here call.  The library's infinite-tree in-degree laws used it before
they became products of ratios; it is frozen here with the same body.

`grow`, `subtree_sizes` and `enumerate_exact` are the per-vertex loops of
`tree_gen` as they stood before its array rewrite, frozen: the library
must reproduce their parents, sizes and exact `Fraction` dicts exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np
from scipy.special import digamma, gammaln, gammasgn

from tcpfluid.tree_analytic import (
    _check_alpha,
    _check_index,
    _check_tau,
    _prefactor,
    betweenness_ccdf_given_q,
    cond_mean_n_given_q,
    marginal_q,
)
from tcpfluid.tree_gen import _BLOCK, GrowingTree, TreeParams

EULER_GAMMA = 0.5772156649015328606


def _check_alpha_positive(alpha_t: float) -> float:
    """alpha_t in (0, 1]: the alternating and log-Gamma forms divide by a."""
    alpha = _check_alpha(alpha_t)
    if alpha == 0.0:
        raise ValueError(f"alpha_t must lie in (0, 1], got {alpha_t}")
    return alpha


def pochhammer_log(x: float, n: float) -> float:
    """Return ln[(x)_n] = ln Γ(x+n) - ln Γ(x) for positive-argument ratios.

    Args:
        x: positive real.
        n: nonnegative real shift (need not be an integer).

    Raises:
        ValueError: if either Gamma argument is nonpositive.
    """
    if x <= 0 or x + n <= 0:
        raise ValueError(
            f"pochhammer_log requires positive Gamma arguments, got x={x}, n={n}"
        )
    return math.lgamma(x + n) - math.lgamma(x)


# an alternating sum smaller than this times its largest term has lost
# more than three digits; log-space terms carry ~1e-13 relative error
# each, so such a float sum is recomputed exactly
_CANCELLATION_GUARD = 1e-3

_STIRLING_MAX_N = 64


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
        logmag = float(gammaln(1 - snapped) - gammaln(1 - snapped - n))
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
    sign = float(gammasgn(x + n) * gammasgn(x))
    logmag = float(gammaln(x + n) - gammaln(x))
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
        lg -= gammaln(k + 1.0) + gammaln(top - k + 1.0)
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
        - gammaln(top + 1.0)
    )
    return (1.0 if total > 0 else -1.0), log_s


_CHAIN_BLOCK = 256


def in_degree_chain(
    alpha: float, n_rows: int, top: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield blocks (lo, K) with K[i, q] = K_{lo+i}(q), covering n < n_rows.

    Bin `top` absorbs every in-degree q >= top.  Requires alpha < 1.
    """
    q = np.arange(top + 1.0)
    rise_weight = 1.0 - alpha + alpha * q[:-1]
    row = np.zeros(top + 1)
    row[0] = 1.0
    for lo in range(0, n_rows, _CHAIN_BLOCK):
        n = np.arange(lo, min(lo + _CHAIN_BLOCK, n_rows), dtype=float)[:, None]
        size = n + 1.0 - alpha
        stay = np.maximum(n - alpha * q, 0.0) / size
        stay[:, top] = 1.0
        rise = rise_weight / size
        out = np.empty((len(n) + 1, top + 1))
        out[0] = row
        # row views made once per block: indexing per step costs as much
        # as the arithmetic on a 65-bin row
        rows, lows, highs = list(out), list(out[:, :-1]), list(out[:, 1:])
        stays, rises = list(stay), list(rise)
        for i in range(len(n)):
            np.multiply(rows[i], stays[i], out=rows[i + 1])
            highs[i + 1] += lows[i] * rises[i]
        row = out[-1]
        yield lo, out[:-1]


def grow(params: TreeParams) -> GrowingTree:
    """Grow a tree of tau edges by sequential preferential attachment.

    Per-step sampling is O(1): the law (a + q_v) / ((1+a)t - 1) over the t
    existing vertices is realized exactly as a mixture of a uniform vertex
    draw (total weight a*t) and a uniform draw from the list of edge parent
    endpoints (each edge contributes 1 to its parent's q, total weight t-1).
    """
    tau = params.tau
    parent = np.empty(tau + 1, dtype=np.int64)
    parent[0] = -1
    rng = np.random.default_rng(params.seed)

    if params.alpha_t == 1.0:
        parent[1:] = 0
    elif params.alpha_t == 0.0:
        # uniform over the t existing vertices; rng.random() < 1 keeps floor < t
        u = rng.random(tau)
        parent[1:] = (u * np.arange(1.0, tau + 1.0)).astype(np.int64)
    else:
        a = params.a
        edge_parent = np.empty(tau, dtype=np.int64)
        for start in range(1, tau + 1, _BLOCK):
            stop = min(start + _BLOCK, tau + 1)
            u_branch = rng.random(stop - start)
            u_pick = rng.random(stop - start)
            for t in range(start, stop):
                i = t - start
                w_uniform = a * t
                if u_branch[i] * (w_uniform + (t - 1)) < w_uniform:
                    target = int(u_pick[i] * t)
                else:
                    target = int(edge_parent[int(u_pick[i] * (t - 1))])
                parent[t] = target
                edge_parent[t - 1] = target

    in_degree = np.bincount(parent[1:], minlength=tau + 1)
    return GrowingTree(
        alpha_t=params.alpha_t, tau=tau, parent=parent, in_degree=in_degree
    )


def subtree_sizes(tree: GrowingTree) -> np.ndarray:
    """Vertex count of the subtree rooted at each vertex (including itself)."""
    sizes = np.ones(tree.tau + 1, dtype=np.int64)
    parent = tree.parent
    # children always arrive after their parent, so one reverse pass suffices
    for v in range(tree.tau, 0, -1):
        sizes[parent[v]] += sizes[v]
    return sizes


def enumerate_exact(params: TreeParams) -> dict[tuple[int, int], Fraction]:
    """Exact edge-state law P_tau(n, q) by a walk over every history.

    The library's enumerator before it moved to integer numerators: each
    step multiplies a `Fraction` probability.  Returns the `exact` dict
    of the `DistTable` it built.
    """
    tau = params.tau
    if tau > 8:
        raise ValueError(f"enumerate_exact is limited to tau <= 8, got {tau}")
    alpha = Fraction(params.alpha_t).limit_denominator(10**6)
    a = None if alpha == 0 else 1 / alpha - 1

    parent = [0] * (tau + 1)
    q = [0] * (tau + 1)
    acc: dict[tuple[int, int], Fraction] = {}
    edge_weight = Fraction(1, tau)

    def tally(prob: Fraction) -> None:
        sizes = [1] * (tau + 1)
        for v in range(tau, 0, -1):
            sizes[parent[v]] += sizes[v]
        for v in range(1, tau + 1):
            key = (sizes[v] - 1, q[v])
            acc[key] = acc.get(key, Fraction(0)) + prob * edge_weight

    def walk(t: int, prob: Fraction) -> None:
        if t > tau:
            tally(prob)
            return
        if t == 1:
            # only the root exists; its weight is the whole total
            parent[1] = 0
            q[0] += 1
            walk(2, prob)
            q[0] -= 1
            return
        if a is None:
            total = Fraction(t)
            weights = [Fraction(1)] * t
        else:
            total = (1 + a) * t - 1
            weights = [a + q[v] for v in range(t)]
        for v in range(t):
            if weights[v] == 0:
                continue
            parent[t] = v
            q[v] += 1
            walk(t + 1, prob * weights[v] / total)
            q[v] -= 1

    walk(1, Fraction(1))
    return acc


def joint_pnq(tau: int, alpha_t: float, n: int, q: int) -> float:
    """Joint probability P_tau(n, q) of a uniformly chosen edge's state.

    Returns 0 outside the support {0 <= q <= n <= tau-1}; the star limit
    alpha_t = 1 concentrates all mass on (0, 0).
    """
    tau = _check_tau(tau)
    alpha = _check_alpha_positive(alpha_t)
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


def forward_table(tau: int, alpha: float) -> np.ndarray:
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


def marginal_q_closed(tau: int, alpha: float, q: int) -> float:
    """Finite-tau P(q) for 0 < alpha < 1 by the alternating closed form."""
    inv = 1.0 / alpha
    t1 = inv * math.exp(
        pochhammer_log(inv - 1.0, inv) - pochhammer_log(q + inv - 1.0, inv + 1.0)
    )
    # finite-size correction: 1/(a k + 2 - a) = (1/a) / (k - 1 + 2/a)
    sign, log_s = _alternating_sum(alpha, q, tau, k_lo=1, shifts=((-1, 2),))
    t2 = sign * inv * math.exp(
        pochhammer_log(inv - 1.0, q) - pochhammer_log(2.0 - alpha, tau) + log_s
    )
    return _prefactor(tau, alpha) * (t1 - t2)


def ccdf_q_closed(tau: int, alpha: float, q: int) -> float:
    """Finite-tau P(in-degree >= q), q >= 1, by the alternating closed form."""
    inv = 1.0 / alpha
    head = math.exp(
        pochhammer_log(inv - 1.0, inv) - pochhammer_log(q + inv - 1.0, inv)
    )
    pref = _prefactor(tau, alpha)
    # the tail sum is empty, hence zero, for q < 2
    sign, log_s = _alternating_sum(alpha, q - 2, tau - 1, x0=1, shifts=((0, 1), (0, 2)))
    t3 = sign * math.exp(
        pochhammer_log(inv - 1.0, q) - pochhammer_log(2.0 - alpha, tau) + log_s
    )
    return pref * head - (1.0 - alpha) / tau + pref * t3


def g_tau(tau: int, alpha: float, q: int) -> float:
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


def cond_mean_n_given_q_closed(tau: int, alpha: float, q: int) -> float:
    """Finite-tau E[n | q] for 0 < alpha < 1 by the closed form with `g_tau`."""
    inv = 1.0 / alpha
    base = (1.0 - alpha) * math.exp(
        pochhammer_log(q + inv, inv) - pochhammer_log(inv - 1.0, inv)
    )
    return base * g_tau(tau, alpha, q) - 2.0 + alpha


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


def betweenness_ccdf_asymptotic(Lambda: float, q: int, alpha_t: float) -> float:
    """Leading 1/Lambda^2 tail of the conditional betweenness CCDF."""
    alpha = _check_alpha_positive(alpha_t)
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
        - gammaln(2.0 / alpha - 1.0)
        + (2.0 / alpha) * math.log(q)
        - 2.0 * math.log(Lambda)
    )
    return math.exp(log_v)


def betweenness_mean_given_q_finite(tau: int, alpha_t: float, q: int) -> float:
    """Exact finite-tree mean E[L | q] of raw betweenness L = (n+1)(tau-n).

    Assembled as tau*E[n+1|q] - E[(n+1)n|q], where the second conditional
    moment comes from the digamma-bearing sum whose k=1 term is isolated
    analytically (it would otherwise divide by zero).
    """
    tau = _check_tau(tau)
    alpha = _check_alpha_positive(alpha_t)
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
        * math.exp(-gammaln(float(q)))
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
    _check_alpha_positive(alpha_t)
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
