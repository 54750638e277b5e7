"""Joint (n, q) law of growing trees and the induced betweenness laws."""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpfluid import tree_analytic
from tcpfluid.tree_analytic import (
    DistTable,
    betweenness_ccdf_given_q,
    betweenness_mean_given_q,
    ccdf_n,
    ccdf_q,
    cond_mean_n_given_q,
    cond_mean_q_given_n,
    marginal_n,
    marginal_q,
    unconditional_betweenness_ccdf,
)
from tcpfluid.tree_analytic import _betweenness_column, _in_degree_chain, _in_degree_pass
from tcpfluid.tree_gen import TreeParams, enumerate_exact, grow, measure

import tree_reference
from tree_reference import (
    _alternating_sum,
    _signed_log_sum,
    betweenness_ccdf_asymptotic,
    betweenness_mean_given_q_finite,
    finite_size_correction_check,
    joint_pnq,
    joint_pnq_er,
)


def test_joint_matches_enumeration_small():
    for alpha in (1 / 3, 0.5, 2 / 3):
        exact = enumerate_exact(TreeParams(alpha_t=alpha, tau=6, seed=0))
        table = DistTable.from_analytic(6, alpha)
        keys = set(exact.values) | set(table.values)
        for n, q in keys:
            assert table.prob(n, q) == pytest.approx(
                exact.prob(n, q), abs=1e-13
            ), (alpha, n, q)


# (k_lo, x0, shifts) of every sum shape: in tree_reference joint_pnq, the
# frozen marginal_q, ccdf_q and two g_tau brackets (the second shared
# with betweenness_ccdf_given_q) and betweenness_mean_given_q_finite
_SUM_SHAPES = [
    (0, 0, ()),
    (1, 0, ((-1, 2),)),
    (0, 1, ((0, 1), (0, 2))),
    (0, 0, ((-1, 1),)),
    (0, 0, ((-1, 2),)),
    (2, 0, ((-1, 0),)),
]


def _reference_sum(alpha, top, m, k_lo, x0, shifts) -> Fraction:
    a = Fraction(alpha).limit_denominator(10**6)
    total = Fraction(0)
    for k in range(k_lo, top + 1):
        x = x0 * (1 - a) - a * k
        factors = [x + j for j in range(m)] + [1 / (k + i + j / a) for i, j in shifts]
        # one reduction per term: multiplying Fractions reduces every step
        total += Fraction(
            (-1) ** k * math.prod(f.numerator for f in factors),
            math.factorial(k)
            * math.factorial(top - k)
            * math.prod(f.denominator for f in factors),
        )
    return total


@pytest.mark.parametrize(
    "shape",
    _SUM_SHAPES,
    ids=["joint", "marginal_q", "ccdf_q", "g_tau_1", "g_tau_2", "between_mean"],
)
def test_alternating_sum_matches_fraction_reference(shape):
    # empty sums, m = 0 (an exact zero without shifts once top >= 1), the
    # m ~ top corner where the float sum cancels and the exact path runs,
    # and m well above top
    pairs = ((0, 0), (1, 0), (3, 1), (2, 5), (7, 7), (12, 13), (20, 20),
             (25, 40), (33, 34), (40, 40), (40, 60))
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for top, m in pairs:
            want = _reference_sum(alpha, top, m, *shape)
            sign, log_s = _alternating_sum(alpha, top, m, *shape)
            where = (alpha, top, m, shape)
            if want == 0:
                assert sign == 0.0, where
                continue
            assert sign == (1.0 if want > 0 else -1.0), where
            log_want = math.log(abs(want.numerator)) - math.log(want.denominator)
            assert abs(math.expm1(log_s - log_want)) <= 1e-9, where


def test_signed_log_sum_cancellation():
    # 1e300 - 1e300 + 2.5, carried as parallel sign/log arrays
    big = 300.0 * math.log(10.0)
    sign, log_s, peak = _signed_log_sum([1.0, -1.0, 1.0], [big, big, math.log(2.5)])
    assert sign * math.exp(log_s) == pytest.approx(2.5, rel=1e-9)
    assert peak == big
    assert _signed_log_sum([], [])[0] == 0.0


def test_joint_pnq_matches_table():
    # the whole support, including the n ~ q corner where D(n, q) cancels
    tau = 60
    for alpha in (0.1, 0.3, 0.5, 0.7):
        table = DistTable.from_analytic(tau, alpha)
        for n in range(tau):
            for q in range(n + 1):
                assert joint_pnq(tau, alpha, n, q) == pytest.approx(
                    table.prob(n, q), rel=1e-9, abs=0.0
                ), (alpha, n, q)


def test_table_normalization_moderate_sizes():
    for tau in (300, 1000):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            table = DistTable.from_analytic(tau, alpha)
            total = table.total()
            assert total == pytest.approx(1.0, abs=1e-11), (tau, alpha)
            # the row-sum total within 1 ulp (at 1) of an fsum over every entry
            assert abs(total - math.fsum(table.grid.ravel().tolist())) <= 2.3e-16, (tau, alpha)


def test_dist_table_rejects_bad_grid_and_freezes_exact():
    with pytest.raises(ValueError, match="shape"):
        DistTable(tau=3, alpha_t=0.5, grid=np.zeros((2, 2)))
    table = enumerate_exact(TreeParams(alpha_t=0.5, tau=3, seed=0))
    with pytest.raises(TypeError):
        table.exact[(0, 0)] = Fraction(7)
    assert table.prob(0, 0) == float(table.exact[(0, 0)])


def test_joint_er_matches_uniform_attachment_enumeration():
    exact = enumerate_exact(TreeParams(alpha_t=0.0, tau=6, seed=0))
    for (n, q), want in exact.values.items():
        assert joint_pnq_er(6, n, q) == pytest.approx(float(want), abs=1e-13)


def test_marginals_sum_joint():
    tau = 60
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        table = DistTable.from_analytic(tau, alpha)
        by_n = table.marginal_over_q()
        by_q = table.marginal_over_n()
        tail_q = np.cumsum(by_q[::-1])[::-1]
        for k in (0, 1, 2, 7, 30):
            assert marginal_n(tau, alpha, k) == pytest.approx(
                by_n[k], rel=1e-9, abs=1e-15
            )
        for k in range(tau):
            assert abs(marginal_q(tau, alpha, k) - by_q[k]) <= 1e-12, (alpha, k)
            assert abs(ccdf_q(tau, alpha, k) - tail_q[k]) <= 1e-12, (alpha, k)


def test_ccdf_consistency_with_marginals():
    tau, alpha = 200, 0.5
    for k in (0, 1, 5, 40):
        lhs = ccdf_n(tau, alpha, k) - ccdf_n(tau, alpha, k + 1)
        assert lhs == pytest.approx(marginal_n(tau, alpha, k), rel=1e-8, abs=1e-14)
        lhs = ccdf_q(tau, alpha, k) - ccdf_q(tau, alpha, k + 1)
        assert lhs == pytest.approx(marginal_q(tau, alpha, k), rel=1e-8, abs=1e-14)
    assert ccdf_n(tau, alpha, 0) == pytest.approx(1.0, abs=1e-12)
    assert ccdf_q(tau, alpha, 0) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_ccdf_monotone(k):
    assert ccdf_q(500, 0.5, k + 1) <= ccdf_q(500, 0.5, k) + 1e-15
    assert ccdf_n(500, 0.5, k + 1) <= ccdf_n(500, 0.5, k) + 1e-15


def test_marginals_match_simulation():
    tau, reps = 400, 300
    counts_n = np.zeros(tau, dtype=np.int64)
    counts_q = np.zeros(tau, dtype=np.int64)
    for s in range(reps):
        mm = measure(grow(TreeParams(alpha_t=0.5, tau=tau, seed=s)))
        counts_n += np.bincount(mm.n, minlength=tau)
        counts_q += np.bincount(mm.q_younger, minlength=tau)
    total = reps * tau
    for k in (0, 1, 2, 5):
        se_n = math.sqrt(marginal_n(tau, 0.5, k) / total) * 4 + 2e-3
        assert counts_n[k] / total == pytest.approx(marginal_n(tau, 0.5, k), abs=se_n)
        se_q = math.sqrt(marginal_q(tau, 0.5, k) / total) * 4 + 2e-3
        assert counts_q[k] / total == pytest.approx(marginal_q(tau, 0.5, k), abs=se_q)


def test_cond_mean_q_given_single_descendant_is_one():
    # one descendant forces exactly one child edge
    for alpha in (0.1, 1 / 3, 0.5, 2 / 3, 0.9):
        assert cond_mean_q_given_n(alpha, 1) == 1.0


def test_cond_mean_q_given_n_zero_is_zero():
    for alpha in (1 / 3, 0.5):
        assert cond_mean_q_given_n(alpha, 0) == pytest.approx(0.0, abs=1e-14)


def test_cond_mean_q_given_n_keeps_digits_at_every_alpha():
    # E[q|n] = 1 + (X - 1)/a, X = prod_{m=2}^{n} m/(m-a), in exact integers
    # at dyadic a = p/r; (X - 1)/a from log-gamma values loses log10(1/a)
    # digits, and a subnormal a leaves none
    for alpha in (2.0**-1074, 2.0**-100, 2.0**-20, 2.0**-10, 0.5, 0.75, 1.0):
        p, r = Fraction(alpha).as_integer_ratio()
        for n in (2, 3, 10, 100, 300):
            num = math.prod(m * r for m in range(2, n + 1))
            den = math.prod(m * r - p for m in range(2, n + 1))
            # int / int rounds once, with no gcd of the huge products
            want = 1.0 + (num - den) * r / (den * p)
            got = cond_mean_q_given_n(alpha, n)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (alpha, n)


def _mp_cond_mean_q_given_n(alpha: float, n: int) -> mpmath.mpf:
    """1 + expm1(sum_{j=2..n} -log1p(-a/j))/a to 60 digits; H_n at a = 0.

    Past n = 1000 the sum is taken as lnΓ(n+1) - lnΓ(n+1-a) + lnΓ(2-a),
    with guard digits for the cancellation, which grows as a shrinks.
    """
    if alpha == 0.0:
        with mpmath.workdps(60):
            return mpmath.harmonic(n)
    guard = 20 + max(0, -math.floor(math.log10(alpha)))
    with mpmath.workdps(60 + guard):
        a = mpmath.mpf(alpha)
        if n <= 1000:
            log_x = mpmath.fsum(-mpmath.log1p(-a / j) for j in range(2, n + 1))
        else:
            log_x = mpmath.loggamma(n + 1) - mpmath.loggamma(n + 1 - a) + mpmath.loggamma(2 - a)
        return 1 + mpmath.expm1(log_x) / a


def test_cond_mean_q_given_n_matches_a_60_digit_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, 2.0**-1074, 2.0**-100, 1e-12, 2.0**-20, 1e-3, 2.0**-10,
                      0.1, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 0.99, 1.0):
            assert cond_mean_q_given_n(alpha, 0) == 0.0
            assert cond_mean_q_given_n(alpha, 1) == 1.0
            for n in (2, 3, 10, 63, 64, 65, 100, 300, 1000, 10**4, 10**5):
                want = _mp_cond_mean_q_given_n(alpha, n)
                err = float(abs(cond_mean_q_given_n(alpha, n) - want) / want)
                assert err <= 2e-15, (alpha, n, err)


def test_cond_mean_n_given_q_matches_table():
    tau = 200
    table = DistTable.from_analytic(tau, 0.5)
    for q in range(6):
        num = sum(n * p for (n, qq), p in table.values.items() if qq == q)
        den = sum(p for (n, qq), p in table.values.items() if qq == q)
        assert cond_mean_n_given_q(tau, 0.5, q) == pytest.approx(num / den, abs=1e-9)


def test_cond_mean_n_given_q_accurate_wherever_q_occurs():
    # every in-degree the table gives mass to has a conditional mean
    tau = 60
    n = np.arange(tau)
    for alpha in (0.1, 0.3, 0.5):
        grid = tree_reference.forward_table(tau, alpha)
        for q in range(tau):
            col = grid[:, q]
            if col.sum() == 0.0:
                continue
            want = float(n @ col / col.sum())
            got = cond_mean_n_given_q(tau, alpha, q)
            assert abs(got - want) <= 1e-8 * max(1.0, want), (alpha, q, got, want)


def test_in_degree_laws_match_frozen_table():
    # relative accuracy over the whole support, far tail included, where
    # the finite-tau closed forms turned negative or raised
    for alpha in (0.0, 0.1, 0.3, 0.5, 0.9):
        for tau in range(1, 61):
            grid = tree_reference.forward_table(tau, alpha)
            p_q = grid.sum(axis=0)
            tail = np.cumsum(p_q[::-1])[::-1]
            mean_n = np.arange(tau) @ grid / p_q
            ccdf = [ccdf_q(tau, alpha, q) for q in range(tau + 1)]
            for q in range(tau):
                where = (alpha, tau, q)
                got = marginal_q(tau, alpha, q)
                assert got == pytest.approx(p_q[q], rel=1e-12, abs=0.0), where
                assert ccdf[q] == pytest.approx(tail[q], rel=1e-12, abs=0.0), where
                got = cond_mean_n_given_q(tau, alpha, q)
                assert got == pytest.approx(mean_n[q], rel=1e-12, abs=0.0), where
            assert min(ccdf) >= 0.0 and max(np.diff(ccdf)) <= 0.0, (alpha, tau)


def test_uniform_attachment_conditional_mean_is_finite_size():
    # alpha_t = 0 at finite tau is the chain at a = 0, not the
    # infinite-tree 2^{q+1} - 2 (62 at q = 5, above tau - 1)
    tau = 10
    for q in range(tau):
        assert q <= cond_mean_n_given_q(tau, 0.0, q) <= tau - 1, q
    col = tree_reference.forward_table(tau, 0.0)[:, 5]
    want = float(np.arange(tau) @ col / col.sum())
    assert cond_mean_n_given_q(tau, 0.0, 5) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_in_degree_laws_match_closed_forms_at_large_tau():
    # where the alternating closed forms are healthy they are the oracle
    tau, alpha = 100_000, 0.5
    for q in range(64):
        want = tree_reference.marginal_q_closed(tau, alpha, q)
        assert marginal_q(tau, alpha, q) == pytest.approx(want, rel=1e-12, abs=0.0), q
        if q >= 1:
            want = tree_reference.ccdf_q_closed(tau, alpha, q)
            assert ccdf_q(tau, alpha, q) == pytest.approx(want, rel=1e-12, abs=0.0), q


def _exact_mean_in_degree(alpha: float, n_max: int) -> list[Fraction]:
    """E[q | n] for n = 0..n_max in exact arithmetic at the float alpha:
    1 + (X_n - 1)/a with X_n = (1-a) prod_{m<=n} m/(m-a), or H_n at a = 0."""
    a = Fraction(alpha)
    out, x, h = [Fraction(0)], 1 - a, Fraction(0)
    for m in range(1, n_max + 1):
        x *= m / (m - a)
        h += Fraction(1, m)
        out.append(h if a == 0 else 1 + (x - 1) / a)
    return out


@given(
    tau=st.integers(1, 120),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.98)),
)
@settings(max_examples=40, deadline=None)
def test_in_degree_chain_is_a_conditional_law(tau, alpha):
    k = np.concatenate([block for _, block in _in_degree_chain(alpha, tau, tau - 1)])
    assert k.shape == (tau, tau)
    assert np.min(k) >= 0.0
    assert np.max(np.abs(k.sum(axis=1) - 1.0)) <= 1e-13
    mean_q = k @ np.arange(tau)
    exact = _exact_mean_in_degree(alpha, tau - 1)
    for n in range(tau):
        want = float(exact[n])
        assert mean_q[n] == pytest.approx(want, rel=1e-13, abs=0.0), n
        # the closed form keeps its digits at every alpha, subnormal too
        assert cond_mean_q_given_n(alpha, n) == pytest.approx(want, rel=1e-11, abs=0.0), n
    by_n = DistTable.from_analytic(tau, alpha).marginal_over_q()
    want = [marginal_n(tau, alpha, n) for n in range(tau)]
    np.testing.assert_allclose(by_n, want, rtol=1e-13, atol=0.0)


def test_narrow_chain_matches_frozen_chain(monkeypatch):
    # tau at the 256-row block edges; q = 300 starts on a block narrower
    # than its top bin
    alphas = (0.0, 0.1, 0.5, 0.9)
    taus = (1, 2, 255, 256, 257, 1000)

    def results():
        out = {}
        for alpha in alphas:
            for tau in taus:
                out["grid", tau, alpha] = DistTable.from_analytic(tau, alpha).grid
                for top in (64, 512):
                    out["pass", tau, alpha, top] = _in_degree_pass.__wrapped__(tau, alpha, top)
            for q in (0, 300):
                out["column", q, alpha] = _betweenness_column.__wrapped__(alpha, q, 512)
        return {key: np.array(value) for key, value in out.items()}

    def frozen_chain(alpha, n_rows, top, rows=None):
        # the frozen chain always runs 256-row blocks, so the table's own
        # block size is dropped: equal bytes show the grid does not depend
        # on it
        return tree_reference.in_degree_chain(alpha, n_rows, top)

    got = results()
    monkeypatch.setattr(tree_analytic, "_in_degree_chain", frozen_chain)
    want = results()
    for key, value in want.items():
        assert got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("tau", [257, 1000])
def test_table_does_not_depend_on_chain_block(monkeypatch, tau):
    def grids():
        return [DistTable.from_analytic(tau, alpha).grid.tobytes() for alpha in (0.0, 0.5, 0.9)]

    want = grids()
    for rows in (1, 7, 64, 256):
        monkeypatch.setattr(tree_analytic, "_TABLE_BLOCK_ELEMENTS", rows * tau)
        assert grids() == want, rows


def test_ccdf_n_exact_near_tree_size():
    # the last bins, where pref*head - (1-a)/tau used to cancel
    tau = 100_000
    for alpha in (0.1, 0.5, 0.9):
        a = Fraction(alpha)
        for n in range(tau - 50, tau):
            want = (1 - a) * (tau - n) / (tau * (n + 1 - a))
            got = ccdf_n(tau, alpha, n)
            assert abs(Fraction(got) / want - 1) <= 1e-15, (alpha, n)


def test_mean_in_degree_equals_one_minus_root_share():
    # edges contribute tau in-degree stubs over tau+1 vertices; the edge law
    # therefore carries E[q] = 1 - E[q_root]/tau, not tau/(tau+1)
    tau, reps = 64, 4000
    root_total = 0
    for s in range(reps):
        root_total += grow(TreeParams(alpha_t=0.5, tau=tau, seed=s)).in_degree[0]
    want = 1.0 - root_total / reps / tau
    table = DistTable.from_analytic(tau, 0.5)
    got = sum(q * p for (_, q), p in table.values.items())
    # MC error on the root degree at 4000 reps
    assert got == pytest.approx(want, abs=4e-3)


_GRID_ALPHAS = (0.0, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 1 / 3, 0.5, 2 / 3, 0.9, 0.99)
_GRID_QS = (*range(64), 100, 300, 1000, 3000)


def test_er_betweenness_mean_doubles_plus_one():
    # uniform attachment: every in-degree law is a power of two, exactly,
    # and inf once that power passes the float range
    for q in range(8):
        assert betweenness_mean_given_q(q, 0.0) == float(2 ** (q + 1) - 1)
    for q in _GRID_QS:
        assert ccdf_q(None, 0.0, q) == 2.0**-q, q
        assert marginal_q(None, 0.0, q) == 2.0 ** -(q + 1), q
        big = q + 1 >= sys.float_info.max_exp
        want = math.inf if big else 2.0 ** (q + 1)
        assert cond_mean_n_given_q(None, 0.0, q) == want - 2.0, q
        assert betweenness_mean_given_q(q, 0.0) == want - 1.0, q


def test_infinite_tree_in_degree_laws_match_a_60_digit_product():
    # P_inf(in-degree >= q) = prod_{j<q} (1-a+aj)/(2-a+aj), P(q) = that over
    # 2-a+aq, E[n | q] = (1-a)/P_inf(in-degree >= q+1) - 2 + a and
    # E[Lambda | q] = E[n | q] + 1, in 60 digits at the float alpha.  Values
    # past the float range read inf; none raises or warns
    tiny = sys.float_info.min
    with mpmath.workdps(60), warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in _GRID_ALPHAS:
            a = mpmath.mpf(alpha)
            tail = [mpmath.mpf(1)]
            for j in range(max(_GRID_QS) + 1):
                tail.append(tail[-1] * (1 - a + a * j) / (2 - a + a * j))
            for q in _GRID_QS:
                mean_n = (1 - a) / tail[q + 1] - 2 + a
                cases = (
                    (ccdf_q(None, alpha, q), tail[q]),
                    (marginal_q(None, alpha, q), tail[q] / (2 - a + a * q)),
                    (cond_mean_n_given_q(None, alpha, q), mean_n),
                    (betweenness_mean_given_q(q, alpha), mean_n + 1),
                    (ccdf_n(None, alpha, q), (1 - a) / (q + 1 - a) if q else 1),
                )
                for i, (got, want) in enumerate(cases):
                    where = (i, alpha, q, got)
                    if want > sys.float_info.max:
                        assert got == math.inf, where
                    elif i == 2 and q == 0:
                        assert abs(got) <= 4e-16, where
                    else:
                        err = abs(got - want) / max(abs(want), tiny)
                        assert err <= 1e-13, where
                assert cases[3][0] == cases[2][0] + 1.0, (alpha, q)


def test_finite_betweenness_mean_approaches_infinite():
    # raw-L mean over tau+1 converges to the rescaled infinite-tree mean
    q = 2
    inf_val = betweenness_mean_given_q(q, 0.5)
    gaps = [
        abs(betweenness_mean_given_q_finite(tau, 0.5, q) / (tau + 1.0) - inf_val)
        for tau in (200, 400, 800)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.08


def test_betweenness_mean_q0_is_tau():
    # a leaf edge always has betweenness exactly tau
    assert betweenness_mean_given_q_finite(500, 0.5, 0) == 500.0


def test_betweenness_ccdf_shares_tail_shape_with_asymptotic():
    # the printed tail form carries the Lambda^-2 decay; the exact law
    # approaches a fixed multiple of it, so their ratio must flatten
    for q in (1, 2):
        r1 = betweenness_ccdf_given_q(10**4, q, 0.5) / betweenness_ccdf_asymptotic(
            1e4, q, 0.5
        )
        r2 = betweenness_ccdf_given_q(10**5, q, 0.5) / betweenness_ccdf_asymptotic(
            1e5, q, 0.5
        )
        assert r1 == pytest.approx(r2, rel=2e-3)


def test_betweenness_tail_slope_is_minus_two():
    for q in (1, 2, 3):
        c1 = betweenness_ccdf_given_q(100, q, 0.5)
        c2 = betweenness_ccdf_given_q(1000, q, 0.5)
        slope = math.log(c2 / c1) / math.log(10.0)
        assert slope == pytest.approx(-2.0, abs=0.1)


def test_betweenness_ccdf_starts_at_one_and_never_rises():
    # Lambda = q+1 is the smallest attainable value, so F(q+1 | q) = 1;
    # the sum cancels hardest there
    for alpha in (0.1, 0.3, 0.5):
        for q in range(40):
            F = [betweenness_ccdf_given_q(L, q, alpha) for L in range(q + 1, q + 201)]
            assert abs(F[0] - 1.0) <= 1e-10, (alpha, q, F[0])
            rise = max(np.diff(F))
            assert rise <= 1e-12, (alpha, q, rise)


def test_betweenness_ccdf_never_exceeds_one():
    # S_0 = S_{Lambda-1} + H with H >= 0; as a ratio of two separately
    # summed columns F read 1.0000000000000029 at (101, 100, 0.01)
    for alpha in (0.01, 0.1, 0.5, 0.9):
        for q in (0, 1, 2, 5, 10, 40, 100, 200, 300):
            worst = max(betweenness_ccdf_given_q(L, q, alpha) for L in range(q + 1, 2001))
            assert worst <= 1.0, (alpha, q, worst)


def test_betweenness_ccdf_matches_exact_alternating_sum():
    # F(Lambda | q) = (2/a - 1)_{q+1} / (2 - a)_{Lambda-1}
    #     * sum_k (-1)^k (-a k)_{Lambda-1} / (k! (q-k)! (k - 1 + 2/a)),
    # exact in rationals; q = 0 is a leaf edge, so F(Lambda > 1 | 0) = 0
    for alpha in (0.1, 0.3, 0.5, 0.9):
        a = Fraction(alpha).limit_denominator(10**6)
        for q in (0, 1, 2, 5, 10, 20, 40):
            for Lambda in sorted({q + 1, q + 2, q + 10, 200, 1000, 2000}):
                rising = math.prod(2 / a - 1 + j for j in range(q + 1))
                falling = math.prod(2 - a + j for j in range(Lambda - 1))
                want = rising / falling * _reference_sum(
                    alpha, q, Lambda - 1, 0, 0, ((-1, 2),)
                )
                got = betweenness_ccdf_given_q(Lambda, q, alpha)
                where = (alpha, q, Lambda)
                if want == 0:
                    assert got == 0.0, where
                    continue
                assert abs(Fraction(got) / want - 1) <= 1e-13, where
            # the column's head S_0(q) is the infinite-tree P(q)
            head = _betweenness_column(alpha, q, 256)[0, 0]
            assert head == pytest.approx(marginal_q(None, alpha, q), rel=1e-12)


def test_uniform_attachment_betweenness_ccdf_matches_stirling_sums():
    # at a = 0 the root gains a child with probability 1/(n+1) per step, so
    # K_n(q) = c(n, q)/n! with c the unsigned Stirling numbers of the first
    # kind, S_0(q) = 2^-(q+1) and, with P_inf(n) = 1/((n+1)(n+2)),
    #     F(Lambda | q) = 1 - 2^(q+1) sum_{n < Lambda-1} K_n(q)/((n+1)(n+2))
    qs = (0, 1, 2, 5, 10)
    stirling = [1] + [0] * max(qs)  # c(n, q) for q <= max(qs), from n = 0
    factorial = 1
    head = dict.fromkeys(qs, Fraction(0))
    for n in range(299):
        for q in qs:
            Lambda = n + 1
            if Lambda >= q + 1:
                want = float(1 - 2 ** (q + 1) * head[q])
                got = betweenness_ccdf_given_q(Lambda, q, 0.0)
                where = (Lambda, q)
                assert abs(got - want) <= (1e-15 if want == 0 else 1e-13 * want), where
            head[q] += Fraction(stirling[q], factorial * (n + 1) * (n + 2))
        stirling = [n * stirling[0]] + [
            n * stirling[q] + stirling[q - 1] for q in range(1, len(stirling))
        ]
        factorial *= n + 1


def test_finite_size_deviation_scales_inverse_square():
    dev500 = finite_size_correction_check(500, 0.5, 20, 1)
    dev1000 = finite_size_correction_check(1000, 0.5, 20, 1)
    assert dev500 / dev1000 == pytest.approx(4.0, rel=0.25)


def test_unconditional_betweenness_ccdf_bounds():
    tau = 2000
    top = (tau + 1) ** 2 / 4.0
    assert unconditional_betweenness_ccdf(tau, 0.5, float(tau)) == pytest.approx(
        1.0, abs=1e-9
    )
    assert unconditional_betweenness_ccdf(tau, 0.5, top * 0.999) < 0.05
    with pytest.raises(ValueError):
        unconditional_betweenness_ccdf(tau, 0.5, 10.0)


def test_unconditional_betweenness_ccdf_equals_window_sum():
    # at an exactly attainable threshold L = (k+1)(tau-k) the continuum
    # boundary lands on the integer window, so the closed form must equal
    # the summed n-marginal window
    tau = 1000
    for k in (2, 5, 20):
        L = float((k + 1) * (tau - k))
        want = ccdf_n(tau, 0.5, k) - ccdf_n(tau, 0.5, tau - k)
        got = unconditional_betweenness_ccdf(tau, 0.5, L)
        assert got == pytest.approx(want, rel=1e-10)


def test_unconditional_betweenness_ccdf_matches_simulation():
    tau, reps = 1000, 300
    L = 5970.0  # equals (5+1)(tau-5): the integer window is [5, 994]
    hits = 0
    for s in range(reps):
        mm = measure(grow(TreeParams(alpha_t=0.5, tau=tau, seed=s)))
        hits += int(np.count_nonzero(mm.betweenness >= L))
    emp = hits / (reps * tau)
    want = unconditional_betweenness_ccdf(tau, 0.5, L)
    se = math.sqrt(want / (reps * tau)) * 4 + 1e-3
    assert emp == pytest.approx(want, abs=se)


# each check compares before it converts: inf raised OverflowError, NaN
# "cannot convert float NaN to integer", and tau = -inf read as the
# infinite tree
@pytest.mark.parametrize("call, match", [
    (lambda: marginal_q(10, 0.5, math.inf), "q must be an integer, got inf"),
    (lambda: marginal_q(10, 0.5, math.nan), "q must be an integer, got nan"),
    (lambda: cond_mean_n_given_q(10, 0.5, -math.inf), "q must be an integer, got -inf"),
    (lambda: betweenness_ccdf_given_q(math.inf, 2, 0.5), "Lambda must be an integer, got inf"),
    (lambda: betweenness_ccdf_given_q(math.nan, 2, 0.5), "Lambda must be an integer, got nan"),
    (lambda: cond_mean_q_given_n(0.5, math.inf), "n must be an integer, got inf"),
    (lambda: cond_mean_q_given_n(0.5, 2.5), "n must be an integer, got 2.5"),
    (lambda: ccdf_n(math.nan, 0.5, 3), "tau must be a positive integer, got nan"),
    (lambda: marginal_n(-math.inf, 0.5, 3), "tau must be a positive integer, got -inf"),
    (lambda: DistTable.from_analytic(math.nan, 0.5), "tau must be a positive integer, got nan"),
    (lambda: DistTable.from_analytic(math.inf, 0.5), "requires a finite tau"),
    (lambda: unconditional_betweenness_ccdf(None, 0.5, 10.0), "requires a finite tau"),
    (lambda: marginal_n(10, math.nan, 3), r"alpha_t must lie in \[0, 1\], got nan"),
    (lambda: betweenness_ccdf_given_q(5, 2, -0.1), r"alpha_t must lie in \[0, 1\], got -0.1"),
])
def test_tree_law_inputs_raise_value_errors_that_name_them(call, match):
    with pytest.raises(ValueError, match=match):
        call()
