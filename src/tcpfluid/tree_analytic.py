"""Edge statistics of preferential-attachment trees.

Distributions below describe the state (n, q) of a uniformly chosen edge
in a tree grown to tau edges: n is the number of descendants strictly
below the edge's younger endpoint, q the in-degree of that endpoint.
With a = alpha_t the joint law factorizes as

    P_tau(n, q) = P_tau(n) * K_n(q),
    P_tau(n) = ((tau+1-a)/tau) * (1-a) / ((n+1-a)(n+2-a)).

The subtree under an edge carries total attachment weight n+1-a, which
depends on n alone, so the in-degree of its root is a Markov chain in
the subtree size and K_n(q) = P(q | n) does not depend on tau:

    K_0 = delta_0,
    K_{n+1}(q) = K_n(q) (n - a q)/(n+1-a) + K_n(q-1) (1-a+a(q-1))/(n+1-a).

Every coefficient is nonnegative, so the chain never cancels.  At finite
tau it gives the whole table in O(tau^2) work, and P(q), P(in-degree >=
q) and E[n | q] in one O(tau * q) pass whose top bin absorbs the rest of
the in-degree tail.  Uniform attachment, the alpha_t = 0 sentinel, is
the same chain at a = 0.

Edge betweenness is a deterministic function of the cluster size,
L = (n+1)(tau-n), so its laws are reparametrizations of the cluster law.
The rescaled variable Lambda = L/(tau+1) has a proper infinite-tree
limit.

The infinite-tree laws are closed forms or products of q ratios, except
the betweenness CCDF given q, which sums the chain's rows against P_inf(n)
= (1-a)/((n+1-a)(n+2-a)) = (1-a)(u_n - u_{n+1}), u_n = 1/(n+1-a).  Summed
by parts with one chain step, S_N(q) = sum_{n >= N} P_inf(n) K_n(q) obeys

    S_N(j) (2-a+aj) = (1-a) K_N(j)/(N+1-a) + (1-a+a(j-1)) S_N(j-1),
    S_N(-1) = 0,

with no negative term.  F(Lambda | q) = S_{Lambda-1}(q) / S_0(q), with
S_0 formed as S_{Lambda-1} + H_{Lambda-1}, where the head sum H_N(q) =
sum_{n < N} P_inf(n) K_n(q) has no negative term either, so F <= 1
holds in floating point as it does exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "DistTable",
    "marginal_n",
    "marginal_q",
    "ccdf_n",
    "ccdf_q",
    "cond_mean_n_given_q",
    "cond_mean_q_given_n",
    "betweenness_ccdf_given_q",
    "betweenness_mean_given_q",
    "unconditional_betweenness_ccdf",
]

# each check compares before it converts, so NaN and ±inf fail by name
def _check_tau(tau, allow_infinite: bool = False) -> int | None:
    if tau is None or tau == math.inf:
        if allow_infinite:
            return None
        raise ValueError("this operation requires a finite tau")
    if not 1 <= tau < math.inf or tau != int(tau):
        raise ValueError(f"tau must be a positive integer, got {tau}")
    return int(tau)


def _check_alpha(alpha_t: float) -> float:
    if not 0.0 <= alpha_t <= 1.0:
        raise ValueError(f"alpha_t must lie in [0, 1], got {alpha_t}")
    return float(alpha_t)


def _check_index(name: str, value) -> int:
    if not -math.inf < value < math.inf or value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _scalar_args(tau, alpha_t: float, name: str, value) -> tuple[int | None, float, int]:
    """(tau, alpha, index) of a scalar tree law, each checked once in that
    order; tau is None for the infinite tree (None or inf)."""
    alpha = _check_alpha(alpha_t)
    return _check_tau(tau, allow_infinite=True), alpha, _check_index(name, value)


def _prefactor(tau: int | None, alpha: float) -> float:
    if tau is None:
        return 1.0
    return (tau + 1.0 - alpha) / tau


# chain rows per block: the block's coefficient arrays are built in one
# vectorized step.  The in-degree pass and the betweenness column sum
# over these blocks, so their bits depend on the size
_CHAIN_BLOCK = 256
# elements per block of a full-width table: its rows are as wide as tau,
# and a block this small stays in cache
_TABLE_BLOCK_ELEMENTS = 16384


def _in_degree_chain(
    alpha: float, n_rows: int, top: int, rows: int = _CHAIN_BLOCK
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield blocks (lo, K) with K[i, q] = K_{lo+i}(q), covering n < n_rows.

    Bin `top` absorbs every in-degree q >= top.  K_n(q) = 0 for q > n, so
    a block [lo, hi) carries only bins q <= min(hi, top): K's width can
    be less than top + 1, and the bins past it are zero.  Each block has
    `rows` rows, the last fewer; the entries do not depend on it.
    Requires alpha < 1.
    """
    q = np.arange(top + 1.0)
    rise_weight = 1.0 - alpha + alpha * q[:-1]
    row = np.zeros(top + 1)
    row[0] = 1.0
    for lo in range(0, n_rows, rows):
        hi = min(lo + rows, n_rows)
        w = min(hi, top) + 1
        n = np.arange(lo, hi, dtype=float)[:, None]
        size = n + 1.0 - alpha
        stay = np.maximum(n - alpha * q[:w], 0.0) / size
        stay[:, top:] = 1.0  # the absorbing bin, once a block reaches it
        rise = rise_weight[: w - 1] / size
        out = np.empty((len(n) + 1, w))
        out[0] = row[:w]
        # row views made once per block: indexing per step costs as much
        # as the arithmetic on a 65-bin row
        fulls, lows, highs = list(out), list(out[:, :-1]), list(out[:, 1:])
        stays, rises = list(stay), list(rise)
        for i in range(len(n)):
            np.multiply(fulls[i], stays[i], out=fulls[i + 1])
            highs[i + 1] += lows[i] * rises[i]
        row[:w] = out[-1]
        yield lo, out[:-1]


def _cluster_pmf(tau: int, alpha: float) -> np.ndarray:
    """P_tau(n) for n = 0..tau-1, entry by entry as `marginal_n` computes it."""
    n = np.arange(tau, dtype=float)
    p = _prefactor(tau, alpha) * (1.0 - alpha) / (
        (n + 1.0 - alpha) * (n + 2.0 - alpha)
    )
    p[0] = marginal_n(tau, alpha, 0)
    return p


@lru_cache(maxsize=8)
def _in_degree_pass(tau: int, alpha: float, top: int) -> tuple[np.ndarray, ...]:
    """(P(q), P(in-degree >= q), sum_n n P_tau(n, q)) for q = 0..top.

    Bin `top` holds all of q >= top; the tail is summed from it downward.
    """
    p_n = _cluster_pmf(tau, alpha)
    n_p_n = np.arange(tau) * p_n
    mass = np.zeros(top + 1)
    moment = np.zeros(top + 1)
    for lo, k in _in_degree_chain(alpha, tau, top):
        w = k.shape[1]
        mass[:w] += p_n[lo : lo + len(k)] @ k
        moment[:w] += n_p_n[lo : lo + len(k)] @ k
    tail = np.cumsum(mass[::-1])[::-1]
    for arr in (mass, tail, moment):
        arr.setflags(write=False)
    return mass, tail, moment


def _finite_q_laws(tau: int, alpha: float, q: int) -> tuple[float, float, float]:
    """P(q), P(in-degree >= q) and sum_n n P_tau(n, q) at finite tau.

    The top bin is a power of two of at least 64 above q, so a column of
    calls for q = 0, 1, ... shares one cached pass of the chain.
    """
    mass, tail, moment = _in_degree_pass(tau, alpha, max(64, 1 << q.bit_length()))
    return float(mass[q]), float(tail[q]), float(moment[q])


@dataclass(frozen=True, eq=False)
class DistTable:
    """Tabulated P_tau(n, q) over the support 0 <= q <= n <= tau-1.

    `grid[n, q]` holds the law as a read-only (tau, tau) array; `exact`
    optionally carries the rational values, as a read-only mapping, when
    the table came from the exhaustive enumerator.
    """

    tau: int
    alpha_t: float
    grid: np.ndarray
    exact: Mapping | None = None

    def __post_init__(self) -> None:
        if self.grid.shape != (self.tau, self.tau):
            raise ValueError(
                f"grid must have shape ({self.tau}, {self.tau}), got {self.grid.shape}"
            )
        self.grid.setflags(write=False)
        if self.exact is not None:
            object.__setattr__(self, "exact", MappingProxyType(dict(self.exact)))

    @property
    def values(self) -> Mapping[tuple[int, int], float]:
        """Read-only mapping (n, q) -> probability over the nonzero entries."""
        ns, qs = np.nonzero(self.grid)
        keys = zip(ns.tolist(), qs.tolist())
        return MappingProxyType(dict(zip(keys, self.grid[ns, qs].tolist())))

    def prob(self, n: int, q: int) -> float:
        if 0 <= n < self.tau and 0 <= q < self.tau:
            return float(self.grid[n, q])
        return 0.0

    def total(self) -> float:
        """Sum of the table: `math.fsum` over the row sums.

        numpy sums each row pairwise, so each row sum is off by at most
        about log2(tau) units of roundoff of itself (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., 2002, sec. 4.2).  Over
        tau in {2, 5, 8, 50, 300, 1000, 2000} at seven alphas in [0, 1],
        and over the enumerated tables at tau = 2..8, the total was at
        most 1.1e-16 from an fsum over every entry.
        """
        return math.fsum(self.marginal_over_q().tolist())

    def marginal_over_q(self) -> np.ndarray:
        """P(n) array for n = 0..tau-1, summing the table over q."""
        return self.grid.sum(axis=1)

    def marginal_over_n(self) -> np.ndarray:
        """P(q) array for q = 0..tau-1, summing the table over n."""
        return self.grid.sum(axis=0)

    @classmethod
    def from_analytic(cls, tau: int, alpha_t: float) -> "DistTable":
        """Tabulate the joint law over the whole support.

        Fills P_tau(n) * K_n(q) row by row from the in-degree chain,
        which has nonnegative coefficients and so never cancels, unlike
        the alternating closed form in the n ~ q corner.
        """
        tau = _check_tau(tau)
        alpha = _check_alpha(alpha_t)
        grid = np.zeros((tau, tau))
        if alpha == 1.0:
            grid[0, 0] = 1.0
            return cls(tau=tau, alpha_t=1.0, grid=grid)
        p_n = _cluster_pmf(tau, alpha)
        rows = max(1, _TABLE_BLOCK_ELEMENTS // tau)
        for lo, k in _in_degree_chain(alpha, tau, tau - 1, rows):
            hi, w = lo + len(k), k.shape[1]
            np.multiply(k, p_n[lo:hi, None], out=grid[lo:hi, :w])
        return cls(tau=tau, alpha_t=alpha, grid=grid)


def _infinite_tail_q(alpha: float, q: int) -> float:
    """P_inf(in-degree >= q) = prod_{j<q} (1-a+aj)/(2-a+aj), in O(q) work.

    Each factor is formed as (1+x)/(2+x), x = a(j-1): 1-a+aj repeats the
    rounding of 1-a in every factor, up to 7.4e-14 off at a = 1e-9, q <= 3000.
    """
    return math.prod((1.0 + alpha * (j - 1)) / (2.0 + alpha * (j - 1)) for j in range(q))


def marginal_n(tau, alpha_t: float, n: int) -> float:
    """Cluster-size marginal; tau=None or inf selects the infinite-tree law."""
    tau, alpha, n = _scalar_args(tau, alpha_t, "n", n)
    if n < 0 or (tau is not None and n >= tau):
        return 0.0
    pref = _prefactor(tau, alpha)
    if n == 0:
        # the (1-alpha) factor cancels; this form stays finite at alpha=1
        return pref / (2.0 - alpha)
    return pref * (1.0 - alpha) / ((n + 1.0 - alpha) * (n + 2.0 - alpha))


def marginal_q(tau, alpha_t: float, q: int) -> float:
    """In-degree marginal of the edge ensemble."""
    tau, alpha, q = _scalar_args(tau, alpha_t, "q", q)
    if q < 0 or (tau is not None and q >= tau):
        return 0.0
    if alpha == 1.0:
        return 1.0 if q == 0 else 0.0
    if tau is not None:
        return _finite_q_laws(tau, alpha, q)[0]
    return _infinite_tail_q(alpha, q) / (2.0 - alpha + alpha * q)


def ccdf_n(tau, alpha_t: float, n: int) -> float:
    """P(cluster size >= n); tau=None or inf selects the infinite-tree law."""
    tau, alpha, n = _scalar_args(tau, alpha_t, "n", n)
    if n <= 0:
        return 1.0
    if tau is None:
        return (1.0 - alpha) / (n + 1.0 - alpha)
    if n >= tau:
        return 0.0
    # prefactor * (1-a)/(n+1-a) - (1-a)/tau, with the difference taken exactly
    return (1.0 - alpha) * (tau - n) / (tau * (n + 1.0 - alpha))


def ccdf_q(tau, alpha_t: float, q: int) -> float:
    """P(in-degree >= q) of the edge ensemble."""
    tau, alpha, q = _scalar_args(tau, alpha_t, "q", q)
    if q <= 0:
        return 1.0
    if tau is not None and q >= tau:
        return 0.0
    if alpha == 1.0:
        return 0.0
    if tau is not None:
        return _finite_q_laws(tau, alpha, q)[1]
    return _infinite_tail_q(alpha, q)


def cond_mean_n_given_q(tau, alpha_t: float, q: int) -> float:
    """E[n | q]: expected cluster size at known younger-endpoint in-degree.

    Raises ValueError at finite tau where P(q) underflows to zero.
    """
    tau, alpha, q = _scalar_args(tau, alpha_t, "q", q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if tau is not None and q >= tau:
        raise ValueError(f"q must satisfy q < tau, got q={q}, tau={tau}")
    if alpha == 1.0:
        if q != 0:
            raise ValueError("alpha_t=1 concentrates on q=0")
        return 0.0
    if tau is not None:
        mass, _, moment = _finite_q_laws(tau, alpha, q)
        if mass == 0.0:
            raise ValueError(
                f"P(q={q}) underflows to 0 at tau={tau}, alpha_t={alpha}"
            )
        return moment / mass
    # E[n | q] = (1-a) / P_inf(in-degree >= q+1) - 2 + a, from the inverted
    # factors so that nothing divides by an underflowed tail; the product is
    # 1 at q = 0 and at least 2 after, so growth - 1 cancels no digits
    growth = math.prod((2.0 + alpha * j) / (1.0 + alpha * j) for j in range(q))
    return (2.0 - alpha) * (growth - 1.0)


def cond_mean_q_given_n(alpha_t: float, n: int) -> float:
    """E[q | n]: expected in-degree at known cluster size; tau-independent.

    E[q | n] = 1 + (X - 1)/a with X = prod_{j=2..n} j/(j - a), the law of
    growth by redirection (Krapivsky & Redner, PRE 63, 066123, 2001).
    log X / a is the sum

        sum_{j=2..n} phi(a/j)/j,   phi(x) = -log1p(-x)/x,  phi(0) = 1,

    whose terms are all positive and tend to 1/j as a -> 0, and X - 1
    comes from expm1, so no digits cancel.  At a = 0 it is H_n, uniform
    attachment, and at n = 1 the sum is empty and E[q | n] exactly 1.
    The cost is O(n): about 22 us at n = 300 and 6 ms at n = 10^5.
    """
    alpha = _check_alpha(alpha_t)
    n = _check_index("n", n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    j = np.arange(2.0, n + 1.0)
    # phi(0) = 1 where a/j is 0: at a = 0, and at a subnormal a
    x = alpha / j
    phi = np.divide(-np.log1p(-x), x, out=np.ones_like(x), where=x > 0)
    slope = math.fsum((phi / j).tolist())
    log_x = alpha * slope
    return 1.0 + slope * (math.expm1(log_x) / log_x if log_x else 1.0)


@lru_cache(maxsize=8)
def _betweenness_column(alpha: float, q: int, n_rows: int) -> np.ndarray:
    """Rows [S_N(q), H_N(q)] for N = 0..n_rows-1.

    S_N(q) = sum_{n >= N} P_inf(n) K_n(q) comes from row N of the chain
    alone, by the recursion over j = 0..q in the module docstring, run on
    a whole block of rows at once.  H_N(q) = sum_{n < N} P_inf(n) K_n(q)
    is the running sum of the terms before row N.
    """
    column = np.empty((2, n_rows))
    terms = np.empty(n_rows)
    for lo, k in _in_degree_chain(alpha, n_rows, q + 1):
        n = np.arange(lo, lo + len(k))
        head = (1.0 - alpha) / (n + 1.0 - alpha)
        s = np.zeros(len(k))
        for j in range(q + 1):
            k_j = k[:, j] if j < k.shape[1] else 0.0
            s = (head * k_j + (1.0 - alpha + alpha * (j - 1)) * s) / (
                2.0 - alpha + alpha * j
            )
        column[0, lo : lo + len(k)] = s
        # P_inf(n) K_n(q), P_inf(n) = (1-a)/((n+1-a)(n+2-a)); k_j ends as K_n(q)
        terms[lo : lo + len(k)] = head / (n + 2.0 - alpha) * k_j
    column[1, 0] = 0.0
    np.cumsum(terms[:-1], out=column[1, 1:])
    column.setflags(write=False)
    return column


def betweenness_ccdf_given_q(Lambda: int, q: int, alpha_t: float) -> float:
    """Infinite-tree CCDF of rescaled betweenness Lambda = L/(tau+1) given q.

    F(Lambda | q) = S_{Lambda-1}(q) / (S_{Lambda-1}(q) + H_{Lambda-1}(q)),
    at most 1 because H >= 0.  The rows are a power of two of at least 256
    above Lambda-1, so the calls for one q share a column.  alpha_t = 0,
    uniform attachment, is the same chain and recursion at a = 0.
    """
    alpha = _check_alpha(alpha_t)
    Lambda = _check_index("Lambda", Lambda)
    q = _check_index("q", q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if Lambda < q + 1:
        raise ValueError(f"need Lambda >= q+1, got Lambda={Lambda}, q={q}")
    if alpha == 1.0:
        return 1.0 if Lambda == q + 1 else 0.0
    n_rows = max(256, 1 << (Lambda - 1).bit_length())
    tail, head = _betweenness_column(alpha, q, n_rows)[:, Lambda - 1]
    return float(tail / (tail + head))


def betweenness_mean_given_q(q: int, alpha_t: float) -> float:
    """Infinite-tree mean of rescaled betweenness, E[Lambda | q] = E[n | q] + 1."""
    return cond_mean_n_given_q(None, alpha_t, q) + 1.0


def unconditional_betweenness_ccdf(tau: int, alpha_t: float, L: float) -> float:
    """P(betweenness >= L) over all edges, finite tree, closed form."""
    tau = _check_tau(tau)
    alpha = _check_alpha(alpha_t)
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
