"""Finite-buffer law: loss split A, effective loss, piecewise density."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    _loss_split,
    buffer_loss_ratio_A,
    effective_loss,
    phi_moment,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import AnalyticWindowDistribution, TcpParams, compute_residues
from tcpfluid.window_sim import SimConfig, simulate

from finite_reference import A_asymptotic, A_series, loss_split_decimal


def _fb(p: float, B: float, **kw) -> FiniteBufferParams:
    return FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=p, **kw), buffer_size=B)


def _level_quad(f, sol, lo: float) -> float:
    """Integral of f over (lo, B_eff], split at every level edge and at the
    plateau images beta·edge, where the densities have jumps or kinks."""
    edges = sol.level_edges()
    breaks = np.concatenate((edges, sol.params.tcp.beta * edges))
    top = sol.effective_limit
    bounds = [lo, *sorted(b for b in set(breaks) if lo < b < top), top]
    return sum(
        integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in zip(bounds[:-1], bounds[1:])
    )


def test_A_dual_paths_agree():
    for x in np.geomspace(1e-3, 50.0, 60):
        a = buffer_loss_ratio_A(float(x), 0.25)
        b = A_series(float(x), 0.25)
        assert a == pytest.approx(b, rel=1e-10), f"x={x}"


def test_loss_split_matches_decimal_oracle():
    # the split's sum against 50 digits; the switched routes it replaced
    # were 5.3e-14 off in A (the float power series near x = 650)
    for c in (0.05, 0.25, 0.5, 0.8, 0.86):
        A, one_minus_A, _ = _loss_split(0.0, c)
        assert A == 1.0 and one_minus_A == 0.0
        for x in np.geomspace(1e-9, 700.0, 800):
            want_A, want_rest = loss_split_decimal(float(x), c)
            A, one_minus_A, _ = _loss_split(float(x), c)
            assert abs(A / float(want_A) - 1.0) <= 5e-15, (x, c)
            assert abs(one_minus_A / float(want_rest) - 1.0) <= 1e-14, (x, c)


def test_A_at_zero_is_exactly_one():
    # no link loss means every loss happens at the buffer
    assert buffer_loss_ratio_A(0.0, 0.25) == 1.0
    assert buffer_loss_ratio_A(0.0, 0.6) == 1.0


def test_A_asymptotic_tail():
    # far tail: A ~ e^-x / L(c)
    for x in (600.0, 900.0):
        a = buffer_loss_ratio_A(x, 0.25)
        b = A_asymptotic(x, 0.25)
        assert a == pytest.approx(b, rel=1e-8)


@given(st.floats(0.0, 40.0), st.floats(0.05, 0.9))
@settings(max_examples=120, deadline=None)
def test_A_bounded_and_decreasing(x, c):
    a = buffer_loss_ratio_A(x, c)
    assert 0.0 < a <= 1.0
    assert buffer_loss_ratio_A(x + 0.7, c) <= a + 1e-12


def test_effective_loss_zero_link_rate_closed_form():
    # lambda = 0: loss rate comes purely from the buffer cycle,
    # (m+1) alpha / ((1-c) B~^(m+1))
    fb = _fb(0.0, 50.0 - 2.5354)
    bt = fb.effective_limit
    assert bt == pytest.approx(50.0, abs=1e-12)
    want = 2.0 * 1.0 / ((1.0 - 0.25) * bt**2)
    assert effective_loss(fb) == pytest.approx(want, rel=1e-12)


def test_effective_loss_exceeds_link_rate():
    fb = _fb(1e-3, 30.0)
    assert effective_loss(fb) > 1e-3
    # and reduces to the link rate when the buffer is effectively infinite
    fb = _fb(1e-3, 4000.0)
    assert effective_loss(fb) == pytest.approx(1e-3, rel=1e-9)


def test_solution_normalizes():
    for p, B in ((1e-2, 20.0), (8e-4, 50.0), (5e-3, 35.0)):
        sol = solve_finite_distribution(_fb(p, B))
        top = sol.params.effective_limit
        w = np.linspace(0.0, top, 30001)
        mass = np.trapezoid(sol.pdf(w), w)
        assert mass == pytest.approx(1.0, abs=5e-5), (p, B)


def test_phi_moment_zeroth_equals_one_minus_A():
    sol = solve_finite_distribution(_fb(8e-4, 50.0))
    assert phi_moment(sol) == pytest.approx(1.0 - sol.A, rel=1e-10)


def test_one_minus_A_has_no_cancellation_at_small_x():
    # x = 2.8e-5: 1.0 - A keeps only 11 digits, S/(1+S) keeps them all
    sol = solve_finite_distribution(_fb(1e-6, 5.0))
    assert sol.params.x < 1e-4
    assert sol.one_minus_A == pytest.approx(1.0 - sol.A, rel=1e-10)
    assert abs(phi_moment(sol) / sol.one_minus_A - 1.0) <= 4.5e-16


def _max_weight(c: float) -> float:
    """max_k |c^k·h_k|: the alternating sums lose about log10 of it in digits."""
    return float(np.max(np.abs(compute_residues(c).weights)))


def _assert_law_holds_down_to_zero(sol, points: int = 2049) -> None:
    """Mass, sign and CCDF shape of the finite law on (0, B_eff], with
    tolerances scaled by the largest term the alternating sums carry."""
    tol = 1e-14 * _max_weight(sol.params.tcp.c)
    assert abs(phi_moment(sol) / sol.one_minus_A - 1.0) <= tol
    w = np.linspace(0.0, sol.effective_limit, points)
    pdf = sol.pdf(w)
    assert pdf.min() >= -tol * pdf.max()
    for variant in ("plain", "frfr"):
        ccdf = replace(sol, variant=variant).ccdf(w)
        assert np.max(np.diff(ccdf)) <= tol, variant
        assert ccdf.min() >= -tol and ccdf.max() <= 1.0 + tol, variant


@pytest.mark.parametrize(
    "p, B, m, beta",
    [
        (0.3, 1.5, 0.0, 0.5),  # the one-packet stop left the mass off by 8e-3
        (0.1, 5.0, 0.5, 0.3),  # and phi dipping to -3.6 % of its peak
        (0.05, 10.0, 1.0, 0.5),
        (0.05, 10.0, 0.0, 0.5),
        (1e-2, 60.0, 1.0, 0.5),
    ],
)
def test_finite_law_holds_down_to_zero(p, B, m, beta):
    _assert_law_holds_down_to_zero(solve_finite_distribution(_fb(p, B, m=m, beta=beta)))


@given(
    st.floats(0.0, 2.0),
    st.floats(0.2, 0.8),
    st.floats(-4.0, math.log10(0.3)),
    st.floats(1.0, 300.0),
)
@settings(max_examples=300, deadline=None)
def test_finite_law_holds_down_to_zero_everywhere(m, beta, log_p, B):
    fb = _fb(10.0**log_p, B, m=m, beta=beta)
    assume(fb.effective_limit >= 1.0 and fb.x <= 700.0)
    _assert_law_holds_down_to_zero(solve_finite_distribution(fb))


def test_finite_law_below_one_packet():
    # B_eff = 0.2 + 0.5 = 0.7 < 1: the rows never assume a packet floor
    fb = FiniteBufferParams(TcpParams(alpha=1.0, loss_rate=0.3), buffer_size=0.2,
                            window_headroom=0.5)
    sol = solve_finite_distribution(fb)
    assert abs(phi_moment(sol) / sol.one_minus_A - 1.0) <= 1e-12
    res = simulate(SimConfig(params=fb, horizon=20000, seed=1))
    assert abs(res.n_buffer_losses / res.n_events - sol.A) <= 0.02
    assert sol.mean() == pytest.approx(res.mean_window, rel=0.01)


def test_rows_run_until_the_mass_stops_moving():
    # B_eff = 62.5: rows 6 and 7 lie below one packet and still move the mass
    sol = solve_finite_distribution(_fb(1e-2, 60.0))
    assert sol.N_levels == 7
    assert len(sol.h_rows) == 8 and all(len(r) == n + 1 for n, r in enumerate(sol.h_rows))
    assert not sol.h_rows[0].flags.writeable


def test_guard_rejects_c_too_close_to_one():
    # c = 0.9 carries terms of 2.5e8 in its alternating sums
    with pytest.raises(ValueError, match="0.9"):
        solve_finite_distribution(_fb(1e-2, 60.0, m=0.0, beta=0.9))
    assert solve_finite_distribution(_fb(1e-2, 60.0, m=0.0, beta=0.8)).N_levels > 0


def test_density_vanishes_beyond_limit():
    sol = solve_finite_distribution(_fb(1e-3, 40.0))
    top = sol.params.effective_limit
    assert sol.pdf(np.array([top * 1.01, top * 2.0])).max() == 0.0


def test_level_edges_partition_support():
    sol = solve_finite_distribution(_fb(1e-3, 40.0))
    edges = sol.level_edges()
    top = sol.params.effective_limit
    assert edges[0] == pytest.approx(top)
    assert all(edges[i] > edges[i + 1] for i in range(len(edges) - 1))


@pytest.mark.parametrize("variant", ["plain", "frfr"])
def test_finite_matches_infinite_when_buffer_huge(variant):
    # with the buffer far beyond the window scale (A = 0.0 exactly here) the
    # finite law is the unconstrained one; measured within 5.9e-16
    p = 1e-2
    sol = solve_finite_distribution(_fb(p, 400.0), variant)
    dist = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=p), variant)
    w = np.linspace(0.0, dist.support_cutoff(), 512)
    want = dist.pdf(w)
    assert np.max(np.abs(sol.pdf(w) - want)) <= 1e-14 * want.max()
    assert np.max(np.abs(sol.ccdf(w) - dist.ccdf(w))) <= 1e-14
    assert sol.mean() == pytest.approx(dist.mean(), rel=1e-14)
    # the atom stays, with weight 0.0, where A underflows
    assert sol.A == 0.0
    want_atom = (0.5 * sol.effective_limit, 0.0) if variant == "frfr" else None
    assert sol.point_mass == want_atom


def test_frfr_atom_and_density_normalize():
    sol = solve_finite_distribution(_fb(8e-4, 50.0), "frfr")
    top = sol.params.effective_limit
    w = np.linspace(0.0, top, 30001)
    density = sol.pdf(w)
    loc, weight = sol.point_mass
    assert 0.0 < weight < 1.0
    assert loc == pytest.approx(0.5 * top)
    mass = np.trapezoid(density, w) + weight
    assert mass == pytest.approx(1.0, abs=5e-5)


@pytest.mark.parametrize("p, B", [(1e-2, 60.0), (5e-3, 40.0), (2e-2, 40.0)])
def test_finite_ccdfs_match_level_quadrature(p, B):
    sol = solve_finite_distribution(_fb(p, B))
    sol_frfr = solve_finite_distribution(_fb(p, B), "frfr")
    top = sol.params.effective_limit
    w = np.linspace(0.0, top, 40)
    loc, weight = sol_frfr.point_mass
    plain = [_level_quad(sol.pdf, sol, wi) for wi in w]
    frfr = [
        _level_quad(sol_frfr.pdf, sol, wi) + (weight if wi < loc else 0.0) for wi in w
    ]
    assert np.max(np.abs(sol.ccdf(w) - plain)) <= 1e-10
    assert np.max(np.abs(sol_frfr.ccdf(w) - frfr)) <= 1e-10
    mean = _level_quad(lambda u: u * sol_frfr.pdf(u), sol, 0.0) + loc * weight
    assert sol_frfr.mean() == pytest.approx(mean, rel=1e-12)


def test_phi_moment_array_matches_scalar_calls():
    # both laws share the evaluator phi_moment delegates to
    sol = solve_finite_distribution(_fb(1e-2, 60.0))
    dist = AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=1e-2))
    for law in (sol, dist):
        lo = np.linspace(0.0, 1.2 * law.support_cutoff(), 33)
        for s in (0.0, 1.0, 2.0):
            want = [phi_moment(law, s, float(x)) for x in lo]
            np.testing.assert_allclose(phi_moment(law, s, lo), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p, B", [(5e-3, 40.0), (1e-2, 60.0)])
@pytest.mark.parametrize("m", [1.0, 0.5])
def test_integral_adds_up_across_a_level_edge(p, B, m):
    # splitting (lo, hi] at a level edge e moves the work between rows;
    # worst seen 3.4e-16 relative over these laws, edges, lo and hi
    sol = solve_finite_distribution(_fb(p, B, m=m))
    top = sol.effective_limit
    for s in sorted({0.0, 1.0, m}):
        for e in sol.level_edges()[1:-1]:
            lo = np.linspace(0.0, e, 9)[:-1]
            for hi in (0.5 * (e + top), top, math.inf):
                whole = sol._integral(s, lo, hi)
                split = sol._integral(s, lo, e) + sol._integral(s, e, hi)
                assert np.max(np.abs(split - whole) / whole) <= 1e-15, (s, e, hi)


def test_x_control_parameter():
    fb = _fb(2e-3, 40.0)
    assert fb.x == pytest.approx(2e-3 * fb.effective_limit**2 / 2.0, rel=1e-12)


def test_x_beyond_the_float_range_is_inf_and_refused_by_the_law():
    # B_eff^(m+1) overflows: x is inf, as IEEE arithmetic gives, and the law
    # names the buffer instead of raising OverflowError
    for m, B in ((1.0, 1e200), (30.0, 1e11)):
        fb = _fb(1e-2, B, m=m)
        assert fb.x == math.inf
        with pytest.raises(ValueError, match="buffer_size"):
            solve_finite_distribution(fb)
    # and the sawtooth's loss rate at lambda = 0 falls to 0
    assert effective_loss(_fb(0.0, 1e200)) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        _fb(1e-3, 0.0)
    with pytest.raises(ValueError):
        _fb(1e-3, -5.0)
    with pytest.raises(ValueError):
        buffer_loss_ratio_A(-1.0, 0.25)
    with pytest.raises(ValueError):
        buffer_loss_ratio_A(1.0, 1.0)
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError):
            buffer_loss_ratio_A(x, 0.25)


# each once passed the checks (NaN fails every comparison); an infinite
# buffer stays allowed, below
@pytest.mark.parametrize("kw", [{"buffer_size": math.nan}, {"window_headroom": math.nan},
                                {"window_headroom": math.inf}])
def test_params_reject_nan_sizes_and_infinite_headroom(kw):
    tcp = TcpParams(alpha=1.0, loss_rate=1e-3)
    with pytest.raises(ValueError, match=next(iter(kw))):
        FiniteBufferParams(**{"tcp": tcp, "buffer_size": 40.0, **kw})


def test_infinite_buffer_params_allowed():
    # an infinite buffer is the natural way to express the unconstrained case
    fb = _fb(1e-3, math.inf)
    assert math.isinf(fb.effective_limit)


@pytest.mark.parametrize("variant", ["plain", "frfr"])
def test_an_empty_row_overlap_adds_exactly_zero(variant):
    # at w = B_eff every row's overlap is empty; inside an array the
    # bounds of a row could round an ulp apart and add about 1e-15
    sol = solve_finite_distribution(_fb(0.05, 5.0, m=0.5, beta=0.8), variant)
    w = np.linspace(0.0, sol.support_cutoff(), 512)
    assert sol.ccdf(w)[-1] == 0.0 == sol.ccdf(w[-1])


# P(nu, x) ~ x^nu/Gamma(nu + 1) underflows at these p before ((m+1)/p)^(s/(m+1))
# scales it back: the mean once read 0.0 from p = 1e-200 at m = 0 and from
# p = 1e-250 at m = 1, and `tcp-dist --p 1e-300 --m 0 --buffer 10` wrote it
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [1e-200, 1e-250, 1e-300])
def test_mean_at_tiny_p_is_the_sawtooth_limit(m, p):
    # as p -> 0 the law is the deterministic sawtooth: the volume is uniform
    # on (c·B_eff^(m+1), B_eff^(m+1)]
    params = _fb(p, 10.0, m=m)
    B, c = params.effective_limit, params.tcp.c
    sawtooth = (m + 1) / (m + 2) * B * (1 - c ** ((m + 2) / (m + 1))) / (1 - c)
    assert solve_finite_distribution(params).mean() == pytest.approx(sawtooth, rel=1e-12)
    # the fast-recovery plateau's integrals underflowed alike
    frfr = solve_finite_distribution(params, "frfr")
    assert frfr.mean() == pytest.approx(solve_finite_distribution(_fb(1e-100, 10.0, m=m), "frfr")
                                        .mean(), rel=1e-12)
