"""Infinite-buffer stationary window laws: residues, moments, variants."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tcpfluid.tcp_finite import FiniteBufferParams, solve_finite_distribution
from tcpfluid.tcp_infinite import (
    AnalyticWindowDistribution,
    TcpParams,
    _VariantLaw,
    compute_residues,
    frfr_mean_correction,
    mean_field_fixed_point,
    sqrt_law_throughput,
    window_moment,
)

# published residue coefficients h_k(1/4); six significant digits each
H_TABLE = (
    1.4523536,
    -1.9364715,
    5.1639241e-1,
    -3.2786819e-2,
    5.1430305e-4,
    -2.0109601e-6,
    1.9643078e-9,
    -4.7959661e-13,
    2.9272701e-17,
)


def _p(p: float, **kw) -> TcpParams:
    return TcpParams(alpha=1.0, loss_rate=p, **kw)


def _variants(p: float):
    """The plain, frfr and wan (bandwidth-delay product 170.67) laws at p."""
    for variant in ("plain", "frfr", "wan"):
        yield AnalyticWindowDistribution.build(_p(p, link_delay=85.335), variant)


def _quad_ccdf(dist, w):
    """Reference P(W > w): adaptive quadrature of the pdf up to the cutoff.

    The wan pdf has a kink at T = bdp, so the interval is split there.
    """
    w_max, T = dist.support_cutoff(), dist.params.bdp
    out = np.empty_like(w)
    for i, wi in enumerate(w):
        if wi >= w_max:
            out[i] = 0.0
            continue
        points = [T] if dist.variant == "wan" and wi < T < w_max else None
        mass, _ = integrate.quad(
            dist.pdf, wi, w_max, limit=200, points=points
        )
        out[i] = min(max(mass, 0.0), 1.0)
    return out


def test_residue_table_values():
    table = compute_residues(0.25, 9)
    assert table.c == 0.25
    for k, want in enumerate(H_TABLE):
        assert table.h[k] == pytest.approx(want, rel=5e-7), f"h_{k}"


def test_residue_magnitudes_collapse_super_fast():
    # h_k decays roughly like c^(k(k+1)/2); ten orders gone by k=8
    table = compute_residues(0.25, 9)
    assert abs(table.h[8]) < 1e-16
    assert abs(table.h[0]) > 1.0


def test_default_residue_table_stops_at_one_ulp():
    # the table runs to the first weight |c^k·h_k| <= 2^-53
    for c, K in ((0.25, 7), (0.5, 11), (0.8, 21)):
        weights = np.abs(compute_residues(c).weights)
        assert len(weights) == K + 1, c
        assert weights[-1] <= 2.0**-53 < weights[-2], c
        assert compute_residues(c).h == compute_residues(c, K).h


def test_mixture_weights_sum_to_one():
    # twelve fixed terms left the c = 0.8 weights at 1 + 1.0e-4
    for c in (0.25, 0.5, 0.8):
        weights = compute_residues(c).weights
        assert abs(weights.sum() - 1.0) <= 1e-14 * np.max(np.abs(weights)), c


def test_residues_raise_when_cancellation_eats_the_digits():
    # c = 0.8 carries terms of 2.2e3 (13 digits survive), c = 0.9 of 2.5e8
    assert np.max(np.abs(compute_residues(0.8).weights)) == pytest.approx(2215.2, rel=1e-4)
    for c in (0.9, 0.95):
        with pytest.raises(ValueError, match=str(c)):
            compute_residues(c)
        with pytest.raises(ValueError, match=str(c)):
            compute_residues(c, 9)
    with pytest.raises(ValueError):
        AnalyticWindowDistribution.build(_p(1e-2, m=0.0, beta=0.9))


def test_second_moment_closed_form():
    for p in (1e-1, 1e-3, 1e-6):
        got = window_moment(_p(p), 1.0)
        assert got == pytest.approx(8.0 / (3.0 * p), rel=1e-12)


def test_mean_and_stdev_sqrt_laws():
    p = 1e-5
    mean = window_moment(_p(p), 0.5)
    second = window_moment(_p(p), 1.0)
    stdev = math.sqrt(second - mean * mean)
    assert mean * math.sqrt(p) == pytest.approx(1.5269, abs=5e-4)
    assert stdev * math.sqrt(p) == pytest.approx(0.5790, abs=5e-4)


@pytest.mark.parametrize("p, m, r", [(1e-200, 0.0, 2.0), (1e-300, 0.5, 2.0 / 1.5)])
def test_moment_beyond_the_float_range_raises(p, m, r):
    # neither an OverflowError nor inf, which a JSON summary cannot hold
    with pytest.raises(ValueError, match="float range"):
        window_moment(_p(p, m=m), r)


def test_moment_scale_invariance_in_p():
    # W scales as p^(-1/2) for m=1, so E[W^(2r)] * p^r is p-free
    r = 0.7
    scaled = [window_moment(_p(p), r) * p**r for p in (1e-2, 1e-4, 1e-6)]
    assert scaled[0] == pytest.approx(scaled[1], rel=1e-9)
    assert scaled[1] == pytest.approx(scaled[2], rel=1e-9)


def test_moment_series_vs_closed_routes():
    # integer orders have a product closed form; the Gamma series must agree
    params = _p(3e-3)
    for r in (1.0, 2.0, 3.0):
        a = AnalyticWindowDistribution.build(params)._integral(r * (params.m + 1.0))
        b = window_moment(params, r)
        assert a == pytest.approx(b, rel=1e-10)


def test_integer_moment_series_agrees_with_closed_form():
    params = _p(2e-4)
    # r=2 gives E[W^4] = (2/p)^2 * 2 / ((1-c)(1-c^2)) for m=1, c=1/4
    want = (2.0 / 2e-4) ** 2 * 2.0 / ((1 - 0.25) * (1 - 0.25**2))
    assert window_moment(params, 2.0) == pytest.approx(want, rel=1e-10)


def test_pdf_normalization_and_ccdf_limits():
    for variant in ("plain", "frfr"):
        dist = AnalyticWindowDistribution.build(_p(1e-2), variant)
        hi = dist.support_cutoff()
        w = np.linspace(0.0, hi, 20001)
        mass = np.trapezoid(dist.pdf(w), w)
        assert mass == pytest.approx(1.0, abs=2e-6), variant
        assert dist.ccdf(0.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.ccdf(hi) < 1e-6


def test_pdf_matches_ccdf_derivative():
    h = 1e-5
    for dist in _variants(1e-2):
        for w in (3.0, 10.0, 21.0, 40.0):
            num = (dist.ccdf(w - h) - dist.ccdf(w + h)) / (2 * h)
            assert dist.pdf(w) == pytest.approx(num, rel=1e-5), (dist.variant, w)


def test_pdf_mean_matches_moment_route():
    dist = AnalyticWindowDistribution.build(_p(1e-2), "plain")
    w = np.linspace(0.0, dist.support_cutoff(), 40001)
    grid_mean = np.trapezoid(w * dist.pdf(w), w)
    assert grid_mean == pytest.approx(window_moment(_p(1e-2), 0.5), rel=1e-6)


@given(st.floats(1e-4, 5e-2), st.floats(0.1, 60.0))
@settings(max_examples=60, deadline=None)
def test_pdf_nonnegative_and_ccdf_monotone(p, w):
    for dist in _variants(p):
        assert dist.pdf(w) >= 0.0
        assert dist.ccdf(w) >= dist.ccdf(w + 0.5) - 1e-15


@pytest.mark.parametrize(
    "p, variant, bdp",
    [(1e-2, "frfr", 0.0), (1e-3, "frfr", 0.0), (1e-2, "wan", 170.67), (1e-2, "wan", 0.0)],
)
def test_ccdf_closed_form_matches_quadrature(p, variant, bdp):
    # the CLI's 512-point grid; the wan case at bdp = 170.67 also checks
    # the truncated inverse moment E[W^-1 1{W <= T}] inside its idle tail
    dist = AnalyticWindowDistribution.build(_p(p, link_delay=bdp / 2.0), variant)
    w = np.linspace(0.0, dist.support_cutoff(), 512)
    got = dist.ccdf(w)
    assert np.max(np.abs(got - _quad_ccdf(dist, w))) <= 1e-10
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert np.max(np.diff(got)) <= 1e-12


def test_mean_matches_grid_for_every_variant():
    for dist in _variants(1e-2):
        w = np.linspace(0.0, dist.support_cutoff(), 40001)
        grid_mean = np.trapezoid(w * dist.pdf(w), w)
        assert dist.mean() == pytest.approx(grid_mean, rel=1e-6), dist.variant


def test_mean_reads_its_own_residue_table():
    # a truncated table is another law: mean() follows the table pdf() and
    # ccdf() use, not the default one
    for m in (1.0, 0.0):
        params = _p(1e-2, m=m)
        table = compute_residues(params.c, 2)
        plain = AnalyticWindowDistribution(params, table)
        want = AnalyticWindowDistribution(params, table)._integral(1.0)
        assert plain.mean() == pytest.approx(want, rel=1e-12), m
        frfr = AnalyticWindowDistribution(params, table, "frfr")
        w = np.linspace(0.0, frfr.support_cutoff(), 40001)
        grid_mean = np.trapezoid(w * frfr.pdf(w), w)
        assert frfr.mean() == pytest.approx(grid_mean, rel=1e-6), m
    # a complete table at m = 0 keeps the product closed form
    params = _p(1e-2, m=0.0)
    assert AnalyticWindowDistribution.build(params).mean() == window_moment(params, 1.0)


def test_frfr_correction_limit():
    # the mean shift of the plateau-corrected law converges as p -> 0
    assert frfr_mean_correction(_p(1e-10)) == pytest.approx(-0.9981, abs=5e-4)
    assert frfr_mean_correction(_p(1e-12)) == pytest.approx(-0.9981, abs=5e-4)


def test_frfr_mean_consistency_with_grid():
    p = 1e-3
    dist = AnalyticWindowDistribution.build(_p(p), "frfr")
    w = np.linspace(0.0, dist.support_cutoff(), 40001)
    grid_mean = np.trapezoid(w * dist.pdf(w), w)
    want = window_moment(_p(p), 0.5) + frfr_mean_correction(_p(p))
    assert grid_mean == pytest.approx(want, rel=1e-5)


def test_frfr_mean_routes_agree():
    # the law's own mean against the plain mean plus the public shift; the
    # guard admits every c = beta^(m+1) here (c <= 0.8)
    for p, m, beta in itertools.product(
        (1e-2, 1e-3, 1e-4, 1e-6), (0.0, 0.5, 1.0, 2.0), (0.3, 0.5, 0.7, 0.8)
    ):
        params = _p(p, m=m, beta=beta)
        law = AnalyticWindowDistribution.build(params, "frfr")
        want = window_moment(params, 1.0 / (m + 1.0)) + frfr_mean_correction(params)
        assert law.mean() == pytest.approx(want, rel=1e-13, abs=0.0), (p, m, beta)


def test_wan_distribution_normalizes():
    params = _p(1e-2, link_delay=85.335)  # bandwidth-delay product 170.67
    dist = AnalyticWindowDistribution.build(params, "wan")
    w = np.linspace(0.0, dist.support_cutoff(), 40001)
    assert np.trapezoid(dist.pdf(w), w) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("m", [0.5, 1.0, 4.0])
def test_wan_law_holds_where_the_idle_limit_volume_overflows(m):
    # T^(m+1) overflows at bdp 1e300 (and at 1e100 for m = 4); the idle
    # integrals up to T then run to an infinite bound, which past the whole
    # mass is what a finite one does
    near, far = (
        AnalyticWindowDistribution.build(_p(1e-2, m=m, link_delay=bdp / 2.0), "wan")
        for bdp in (1e100, 1e300)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for value in (lambda law: law.mean(), lambda law: law.ccdf(10.0),
                      lambda law: law.pdf(10.0)):
            assert value(far) == pytest.approx(value(near), rel=1e-13, abs=0.0), m


def test_wan_needs_positive_m():
    with pytest.raises(ValueError):
        AnalyticWindowDistribution.build(
            TcpParams(alpha=1.0, loss_rate=1e-2, m=0.0, link_delay=10.0), "wan"
        )


def test_mean_field_published_points():
    params = TcpParams.from_link(256000.0, 12000.0, loss_ratio=1e-3)
    assert mean_field_fixed_point(params, 20) == pytest.approx(827.75, abs=1.0)
    params = TcpParams.from_link(256000.0, 12000.0, loss_ratio=5e-3)
    assert mean_field_fixed_point(params, 2) == pytest.approx(36.55, abs=0.2)


def test_mean_field_grows_with_population():
    params = TcpParams.from_link(256000.0, 12000.0, loss_ratio=1e-3)
    totals = [mean_field_fixed_point(params, n) for n in (1, 5, 20)]
    assert totals[0] < totals[1] < totals[2]


def test_sqrt_law_throughput_closed_form():
    # deterministic sawtooth: (P/R) sqrt(3/(2p)) with R = 2D
    params = TcpParams.from_link(256000.0, 12000.0, loss_ratio=1e-4, delay=0.05)
    p = 1e-4
    want = (12000.0 / 0.1) * math.sqrt(1.5 / p)
    assert sqrt_law_throughput(params, p) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        sqrt_law_throughput(params, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        TcpParams(alpha=0.0, loss_rate=1e-3)
    with pytest.raises(ValueError):
        TcpParams(alpha=1.0, loss_rate=-1.0)
    with pytest.raises(ValueError):
        TcpParams(alpha=1.0, loss_rate=1e-3, beta=1.0)
    with pytest.raises(ValueError):
        # capacity and packet size must agree with alpha = C/P
        TcpParams(alpha=1.0, loss_rate=1e-3, link_capacity=1e5, packet_size=100.0)
    with pytest.raises(ValueError):
        AnalyticWindowDistribution.build(TcpParams(alpha=1.0, loss_rate=0.0), "plain")


# each once passed its check (NaN fails every comparison), so a NaN p or
# bdp wrote NaN tables, and a NaN m failed only inside compute_residues
@pytest.mark.parametrize("name", ["alpha", "loss_rate", "m", "link_delay", "link_capacity",
                                  "packet_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        TcpParams(**{"alpha": 1.0, "loss_rate": 1e-3, name: value})


# each raise an input can reach; the fixed-point iteration failing to
# converge is left untested, as no input found makes it fail
@pytest.mark.parametrize("build, match", [
    *[(lambda c=c: compute_residues(c), "requires 0 < c < 1") for c in (0.0, 1.0, math.nan)],
    (lambda: compute_residues(0.25, K=-1), "K must be nonnegative"),
    # nu = 1 + s/(m+1) = 0 at m = 1
    (lambda: AnalyticWindowDistribution.build(_p(1e-2))._integral(-2.0),
     "integral diverges at the origin"),
    (lambda: AnalyticWindowDistribution.build(_p(1e-2), "bursty"), "variant must be one of"),
    (lambda: AnalyticWindowDistribution(_p(1e-2), compute_residues(0.5)),
     "residue table c does not match"),
    (lambda: window_moment(_p(0.0), 1.0), "window_moment requires loss_rate > 0"),
    (lambda: window_moment(_p(1e-2), -0.5), r"moment of order r=-0.5 diverges"),
    (lambda: frfr_mean_correction(_p(0.0)), "frfr_mean_correction requires loss_rate > 0"),
    (lambda: mean_field_fixed_point(_p(1e-2), 0), "N must be >= 1"),
    (lambda: mean_field_fixed_point(_p(0.0), 2), "requires loss_rate > 0"),
    (lambda: mean_field_fixed_point(_p(1e-2, m=0.0), 2), "requires m > 0"),
    *[(lambda p=p: sqrt_law_throughput(_p(1e-2, packet_size=1.0, link_delay=1.0), p),
       r"loss probability must lie in \(0,1\)") for p in (0.0, 1.0, math.nan)],
    (lambda: sqrt_law_throughput(_p(1e-2, link_delay=1.0), 1e-2), "needs packet_size"),
    (lambda: sqrt_law_throughput(_p(1e-2, packet_size=1.0), 1e-2), "needs link_delay > 0"),
    (lambda: solve_finite_distribution(FiniteBufferParams(_p(0.0), buffer_size=10.0)),
     "solve_finite_distribution requires loss_rate > 0"),
])
def test_window_law_inputs_raise_their_documented_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_residue_runtime_budget():
    import time

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        compute_residues(0.25, 9)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


def test_normalizer_is_integrated_once_per_law(monkeypatch):
    calls = []
    integral = _VariantLaw._integral

    def counted(self, *args):
        calls.append(args)
        return integral(self, *args)

    monkeypatch.setattr(_VariantLaw, "_integral", counted)
    finite = solve_finite_distribution(
        FiniteBufferParams(_p(1e-2), buffer_size=40.0), "frfr"
    )
    for law in (*itertools.islice(_variants(1e-2), 1, None), finite):
        law.pdf(10.0)
        assert calls, law.variant
        calls.clear()
        law.pdf(10.0)
        assert calls == [], law.variant


def _every_law(p: float):
    """Every variant of the infinite law at p and of the B = 40 finite law."""
    finite = FiniteBufferParams(_p(p), buffer_size=40.0)
    return [*_variants(p), *(solve_finite_distribution(finite, v) for v in ("plain", "frfr"))]


def test_pdf_at_infinity_is_zero_for_every_law():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in _every_law(1e-2):
            assert law.pdf(math.inf) == 0.0, law.variant
            both = law.pdf(np.array([10.0, math.inf]))
            # the row sums' order depends on the array's shape, so the
            # finite entry may differ from the scalar call by an ulp
            assert both[1] == 0.0, law.variant
            assert both[0] == pytest.approx(law.pdf(10.0), rel=1e-14, abs=0.0), law.variant
            assert law.ccdf(math.inf) == 0.0, law.variant


def test_nan_points_are_rejected_by_every_law():
    # pdf(nan) once read 0.0 and ccdf(nan) nan
    for law in _every_law(1e-2):
        for evaluate in (law.pdf, law.ccdf):
            for w in (math.nan, np.array([1.0, math.nan])):
                with pytest.raises(ValueError, match="NaN"):
                    evaluate(w)


def _ccdf_mean_laws():
    """Every variant of both laws at the points where the CCDF meets the mean."""
    for m, beta, p in ((1.0, 0.5, 1e-2), (0.5, 0.7, 1e-3), (2.0, 0.3, 5e-2), (0.0, 0.5, 1e-2)):
        params = _p(p, m=m, beta=beta)
        for variant in ("plain", "frfr"):
            law = AnalyticWindowDistribution.build(params, variant)
            yield pytest.param(law, id=f"{m}-{beta}-{p}-{variant}")
            for B in (5.0, 40.0):
                fb = FiniteBufferParams(params, buffer_size=B)
                law = solve_finite_distribution(fb, variant)
                yield pytest.param(law, id=f"{m}-{beta}-{p}-{variant}-B{B:g}")
        for bdp in (5.0, 170.67) if m > 0 else ():
            wan = AnalyticWindowDistribution.build(_p(p, m=m, beta=beta, link_delay=bdp / 2), "wan")
            yield pytest.param(wan, id=f"{m}-{beta}-{p}-wan{bdp:g}")


@pytest.mark.parametrize("law", list(_ccdf_mean_laws()))
def test_mean_is_the_integral_of_the_ccdf(law):
    # E[W] = ∫ P(W > w) dw over [0, support_cutoff()]; the CCDF drops by
    # the atom's weight at its location, so the grid splits there and
    # takes the left limit
    cutoff, atom = law.support_cutoff(), law.point_mass
    cuts = [0.0, cutoff] if atom is None else [0.0, atom[0], cutoff]
    points = 4097 if atom is None else 2049
    area = 0.0
    for a, b in zip(cuts, cuts[1:]):
        w = np.linspace(a, b, points)
        ccdf = law.ccdf(w)
        if atom is not None and b == atom[0]:
            ccdf[-1] = law.ccdf(np.nextafter(b, 0.0))
        area += np.trapezoid(ccdf, w)
    assert area == pytest.approx(law.mean(), rel=1e-6, abs=0.0)


def _integral_mp(params: TcpParams, s, lo, hi=mpmath.inf):
    """∫ w^s·f(w) over (lo, hi] of the plain infinite law, in 40 digits.

    The same mixture as `_VariantLaw._integral`, with the residues h_k
    from the exact recurrence and L(c) from mpmath's q-Pochhammer symbol.
    """
    with mpmath.workdps(40):
        p, m, c, s = (mpmath.mpf(v) for v in (params.p, params.m, params.c, s))
        nu = 1 + s / (m + 1)
        lo_v, hi_v = mpmath.mpf(lo) ** (m + 1), mpmath.mpf(hi) ** (m + 1)
        h, total = 1 / mpmath.qp(c, c), mpmath.mpf(0)
        for k in range(80):
            if k:
                h /= c - c ** (1 - k)
            rate = p * c**-k / (m + 1)
            bracket = mpmath.gammainc(nu, rate * lo_v, rate * hi_v, regularized=True)
            total += h * c ** (k * nu) * bracket
        return ((m + 1) / p) ** (s / (m + 1)) * mpmath.gamma(nu) * total


def _median(law) -> float:
    lo, hi = 0.0, law.support_cutoff()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if law.ccdf(mid) > 0.5 else (lo, mid)
    return hi


@pytest.mark.parametrize("c", [0.25, 0.5, 0.8])
def test_upper_tail_integrals_keep_their_relative_digits(c):
    # from the median to twice the cutoff the tails fall from O(1) to
    # about 1e-39, and each keeps 12 significant digits throughout
    m = 0.5
    params = _p(1e-2, m=m, beta=c ** (1.0 / (m + 1.0)))
    law = AnalyticWindowDistribution.build(params)
    lo = np.linspace(_median(law), 2.0 * law.support_cutoff(), 25)
    for s in (-1.0, m, 1.0, 2.0):
        got = law._integral(s, lo)
        for lo_i, got_i in zip(lo, got):
            want = float(_integral_mp(params, s, lo_i))
            if want > 1e-300:
                assert abs(got_i - want) <= 1e-12 * want, (s, lo_i, got_i, want)


def test_wan_ccdf_keeps_its_tail():
    # criterion 7's wan law and one whose idle time ends below the mean:
    # every tail term keeps its relative digits, so the CCDF on the CLI's
    # grid stays positive and falls at every point past the first
    # `clipped` ones (the clip at 1), and below T = bdp the idle term
    # keeps the CCDF within 1e-13 of the reference
    for bdp, clipped in ((170.67, 0), (20.0, 1)):
        params = _p(1e-2, link_delay=bdp / 2.0)
        law = AnalyticWindowDistribution.build(params, "wan")
        w = np.linspace(0.0, law.support_cutoff(), 512)
        ccdf = law.ccdf(w)[w < law.support_cutoff()]
        assert np.all(ccdf > 0.0)
        assert np.all(ccdf[: clipped + 1] == 1.0)
        assert np.all(np.diff(ccdf[clipped:]) < 0.0)
        p, beta, T = params.p, params.beta, params.bdp
        with mpmath.workdps(40):
            total = (
                1 + p * _integral_mp(params, params.m, 0)
                + T * _integral_mp(params, -1.0, 0, T) - _integral_mp(params, 0.0, 0, T)
            )
            for wi in (0.5, 2.0, 10.0, 30.0, 70.0, 80.0, 90.0, 100.0, 120.0, 150.0, 170.0):
                plateau = p * _integral_mp(params, params.m, mpmath.mpf(wi) / beta)
                tail = _integral_mp(params, 0.0, wi) + plateau
                if wi < T:
                    tail += (T * _integral_mp(params, -1.0, wi, T)
                             - _integral_mp(params, 0.0, wi, T))
                want = float(tail / total)
                err = abs(law.ccdf(wi) - want)
                assert err <= 1e-13 and err <= 1e-8 * want, (bdp, wi, law.ccdf(wi), want)


# far out the plain CCDF is h_0·e^(-p·w^(m+1)/(m+1)); a fixed exponent of
# 32 once left it at h_0·e^(-32), up to 3.8e-12 at m = 0, beta = 0.8
# (h_0 = 297), wherever h_0 > 7.9
@pytest.mark.parametrize("variant", ["plain", "frfr"])
def test_support_cutoff_keeps_its_promise(variant):
    for m, beta, p in itertools.product((0.0, 0.5, 1.0, 2.0), (0.3, 0.5, 0.7, 0.8),
                                        (1e-4, 1e-3, 1e-2, 5e-2)):
        law = AnalyticWindowDistribution.build(_p(p, m=m, beta=beta), variant)
        cutoff = law.support_cutoff()
        assert law.ccdf(cutoff) <= 1e-13, (m, beta, p)
        assert law.ccdf(cutoff / 2) > 1e-13, (m, beta, p)
