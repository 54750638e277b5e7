"""Special-function kernel: identities, dual routes, known rows.

The signed Pochhammer symbol and the Stirling numbers live on as frozen
oracles in `tree_reference`; their tests stay here.
"""

import ast
import math
import pathlib
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import tcpfluid
from tcpfluid.specfun import (
    euler_product_L,
    float_pow,
    gammainc,
)

from tree_reference import pochhammer_signed, stirling_first_unsigned


def test_pochhammer_signed_small_products():
    for x in (-2.5, -0.5, 0.3, 2.0):
        for n in range(8):
            sign, logmag = pochhammer_signed(x, n)
            direct = math.prod(x + j for j in range(n))
            got = sign * math.exp(logmag) if logmag > -math.inf else 0.0
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_pochhammer_signed_hits_zero_on_nonpositive_integers():
    sign, logmag = pochhammer_signed(-3.0, 5)  # product crosses x+3 = 0
    assert sign == 0.0 or logmag == -math.inf


@given(
    st.floats(-9.75, 9.75).filter(lambda x: abs(x - round(x)) > 1e-3),
    st.integers(0, 15),
)
@settings(max_examples=200)
def test_pochhammer_signed_step_identity(x, n):
    # (x)_{n+1} = (x)_n * (x+n)
    s0, l0 = pochhammer_signed(x, n)
    s1, l1 = pochhammer_signed(x, n + 1)
    lhs = s1 * math.exp(l1)
    rhs = s0 * math.exp(l0) * (x + n)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-290)


def test_stirling_first_unsigned_rows():
    # rows n=0..6 of |s(n,k)|, hand checkable via the recurrence
    assert stirling_first_unsigned(0, 0) == 1
    assert [stirling_first_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert [stirling_first_unsigned(6, k) for k in range(7)] == [
        0, 120, 274, 225, 85, 15, 1,
    ]


@given(st.integers(2, 40), st.integers(1, 40))
@settings(max_examples=120)
def test_stirling_recurrence(n, k):
    if k > n:
        with pytest.raises(ValueError):
            stirling_first_unsigned(n, k)
        return
    above = stirling_first_unsigned(n - 1, k) if k <= n - 1 else 0
    want = stirling_first_unsigned(n - 1, k - 1) + (n - 1) * above
    assert stirling_first_unsigned(n, k) == want


def test_stirling_row_sum_is_factorial():
    for n in (1, 3, 7, 12):
        assert sum(stirling_first_unsigned(n, k) for k in range(n + 1)) == math.factorial(n)


def test_euler_product_against_partial_product():
    for c in (0.1, 0.25, 0.5, 0.9):
        direct = math.prod(1.0 - c**k for k in range(1, 400))
        assert euler_product_L(c) == pytest.approx(direct, rel=1e-13)


def test_euler_product_rejects_bad_c():
    with pytest.raises(ValueError):
        euler_product_L(1.0)
    with pytest.raises(ValueError):
        euler_product_L(-0.2)


# One identity per kernel the laws call: euler_product_L and gammainc
# (window laws and histogram p-values).


def test_euler_product_at_a_quarter_and_four_fifths():
    worst = 0.0
    for c in (0.25, 0.8):
        direct = math.prod(1.0 - c**k for k in range(1, 400))
        worst = max(worst, abs(euler_product_L(c) - direct) / direct)
    assert worst <= 1e-14


def test_gammainc_recurrence():
    worst = 0.0
    for z, x in ((0.5, 0.3), (2.0, 1.0), (3.5, 7.0)):
        # P(z+1, x) = P(z, x) - x^z e^-x / Gamma(z+1)
        lhs = float(gammainc(z + 1.0, x)[0])
        rhs = float(gammainc(z, x)[0]) - x**z * math.exp(-x) / math.gamma(z + 1.0)
        worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst <= 1e-12


def _chi2_sf(dof: int, x: float) -> float:
    # P(chi2_dof > x) = Q(dof/2, x/2)
    return float(gammainc(dof / 2, x / 2)[1])


def test_chdtrc_with_two_degrees_of_freedom_is_exponential():
    # P(chi2 > x) = e^{-x/2}
    want = math.exp(-1.5)
    assert abs(_chi2_sf(2, 3.0) - want) / want <= 1e-14


# Accuracy of each replacement for a scipy.special function, over the
# arguments the laws pass it, against scipy itself.


def _law_orders() -> list[float]:
    """Every nu = 1 + s/(m+1) that a window law passes to gammainc."""
    nus = {0.75, 4 / 3, 2.5, 3.0}
    for m in (0.0, 0.3, 0.5, 1.0, 2.0, 3.0):
        # s = -1 (wan only, m > 0), 0, m, 1 and m + 1
        nus.update({1.0, 1.0 + m / (m + 1.0), 1.0 + 1.0 / (m + 1.0), 2.0})
        if m > 0:
            nus.add(m / (m + 1.0))
    return sorted(nus)


def test_gammainc_matches_scipy_over_the_laws_orders():
    x = 10.0 ** np.random.default_rng(3).uniform(-12.0, 3.0, 20_000)
    worst = 0.0
    for nu in _law_orders():
        split = nu + math.sqrt(nu) + 2.0
        grid = np.concatenate([x, [0.0, nu + 1.0, split, np.nextafter(split, 0.0), 700.0, 9.7e6]])
        want = sp.gammainc(nu, grid)
        got = gammainc(nu, grid)[0]
        assert np.array_equal(got == 0.0, want == 0.0)
        ok = want > 0.0
        worst = max(worst, float(np.max(np.abs(got[ok] - want[ok]) / want[ok])))
    assert worst <= 1e-13


def test_gammainc_values_depend_on_their_own_argument_alone():
    # no entry may depend on the others, so a caller may split or join its calls
    rng = np.random.default_rng(4)
    x = 10.0 ** rng.uniform(-3.0, 2.0, 300)
    # and past the cut, where Q takes the shorter fraction and then 0
    x = np.concatenate([x, 10.0 ** rng.uniform(1.5, 2.9, 60)])
    for nu in (0.5, 1.5):
        for whole, part, grid in zip(
            gammainc(nu, x), zip(*(gammainc(nu, x[i : i + 1]) for i in range(x.size))),
            gammainc(nu, x.reshape(24, 15)),
        ):
            assert np.array_equal(np.concatenate(part), whole)
            assert np.array_equal(grid, whole.reshape(24, 15))


def test_gammainc_at_zero_and_infinity_returns_the_general_values():
    # a call whose every x is 0 or inf returns at once, with the values,
    # bits and shapes that the series and fraction give those points among
    # others (1.0 keeps this reference call on the general path)
    for nu in (0.5, 1.5, 3.0, 25.0, 150.0):
        p_ref, q_ref = gammainc(nu, np.array([0.0, np.inf, 1.0]))
        assert (p_ref[:2].tolist(), q_ref[:2].tolist()) == ([0.0, 1.0], [1.0, 0.0])
        for x in (0.0, np.inf, [0.0, np.inf], [[np.inf], [0.0], [0.0]], np.empty(0)):
            x = np.asarray(x, dtype=float)
            pick = np.where(x == np.inf, 1, 0)
            for got, ref in zip(gammainc(nu, x), (p_ref, q_ref)):
                assert got.shape == x.shape
                assert got.tobytes() == ref[pick].tobytes()


@pytest.mark.parametrize("nu, bound", [(20.0, 1e-15), (50.0, 4e-15)])
def test_gammainc_keeps_its_digits_from_nu_20_to_100(nu, bound):
    # the series prefactor x^nu e^-x / Γ(nu+1) from power and exp, as below
    # nu = 20; through Stirling's series P was off by 5.8e-15 at nu = 20
    # and 1.1e-14 at nu = 50
    x = nu * np.linspace(0.32, 2.5, 300)
    with mpmath.workdps(40):
        want = np.array([
            float(mpmath.gammainc(nu, 0, mpmath.mpf(float(xi)), regularized=True)) for xi in x
        ])
    got = gammainc(nu, x)[0]
    assert np.max(np.abs(got - want) / want) <= bound


@given(
    nu=st.one_of(st.sampled_from(_law_orders()), st.floats(0.01, 200.0)),
    x=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_gammainc_is_a_distribution_function(nu, x):
    # no clamp: the series stays below 1 - Q(split), 1 - Q rounds to at
    # most 1, and the cut returns 1 exactly.  Between two adjacent floats
    # the rounding may still step back by an ulp or two, as scipy's does.
    p, q = gammainc(nu, np.sort(x))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert np.all(np.diff(p) >= 0.0)
    # Q is its complement to 2 ulps of 1, and a survival function
    assert np.all(np.abs(p + q - 1.0) <= 2 * np.spacing(1.0))
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    assert np.all(np.diff(q) <= 0.0)


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
def test_gammainc_rejects_a_nonpositive_order(nu):
    with pytest.raises(ValueError, match="gammainc requires nu > 0"):
        gammainc(nu, 1.0)


def test_gammainc_raises_when_its_term_budget_cannot_reach_round_off():
    # at nu = 1e5 the series needs more than its 2048-term budget near x = nu
    with pytest.raises(ValueError, match="round-off"):
        gammainc(1e5, np.array([1.0, 1e5]))
    # far below nu the same budget converges, and nothing raises
    p = gammainc(1e5, np.array([1.0, 9e4]))[0]
    assert np.all((p >= 0.0) & (p < 1e-100))


def _chi2_sf_decimal(dof: int, x: float) -> float:
    """P(chi^2 > x) from A&S 26.4.4-5, each term in 40-digit decimal.

    Only erfc, for odd dof, comes from math; it is within an ulp or two.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        lam = Decimal(x) / 2
        if dof % 2:
            # erfc(sqrt(lam)) + e^-lam lam^(r-1/2) / Gamma(r+1/2) for r = 1, 2, ...
            total = Decimal(math.erfc(math.sqrt(x / 2)))
            term, half = 2 * (-lam).exp() * (lam / _PI_40).sqrt(), Decimal("0.5")
        else:
            # e^-lam lam^r / r! for r = 0, 1, ...
            total, term, half = Decimal(0), (-lam).exp(), Decimal(0)
        for r in range(1, dof // 2 + 1):
            total += term
            term = term * lam / (r + half)
        return float(total)


_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def test_chi2_sf_matches_scipy_up_to_dof_100():
    # beyond dof 100 scipy's chdtrc is off by up to 1e-12 in the tails
    worst = 0.0
    x = 10.0 ** np.random.default_rng(5).uniform(-3.0, 0.8, 12)
    for dof in range(1, 101):
        for xi in dof * x:
            want = float(sp.chdtrc(dof, xi))
            if want > 1e-300:
                worst = max(worst, abs(_chi2_sf(dof, xi) - want) / want)
    assert worst <= 1e-13


def test_chi2_sf_matches_a_40_digit_sum_up_to_dof_1000():
    worst = 0.0
    x = 10.0 ** np.random.default_rng(6).uniform(-3.0, 0.8, 8)
    for dof in (1, 2, 3, 7, 20, 21, 59, 60, 199, 200, 333, 501, 502, 777, 898, 999, 1000):
        for xi in dof * x:
            want = _chi2_sf_decimal(dof, xi)
            if want > 1e-300:
                worst = max(worst, abs(_chi2_sf(dof, xi) - want) / want)
    assert worst <= 1e-13


def test_float_pow_is_pow_that_overflows_to_inf():
    rng = np.random.default_rng(0)
    bases, exponents = rng.uniform(0.0, 1e3, 200).tolist(), rng.uniform(0.0, 40.0, 200).tolist()
    for base, exponent in zip(bases, exponents):
        assert float_pow(base, exponent) == base ** exponent
    assert float_pow(1e200, 2.0) == math.inf
    assert float_pow(1e11, 31.0) == math.inf
    assert float_pow(math.inf, 2.0) == math.inf
    assert float_pow(0.0, 2.0) == 0.0


def test_no_module_of_the_package_imports_scipy():
    # one scipy import anywhere in the package puts ~26 MB and 0.2-0.3 s
    # back on every command that reaches it
    sources = sorted(pathlib.Path(tcpfluid.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_public_specfun_function_has_a_library_caller():
    # a function only its own unit test calls is dead weight
    package = pathlib.Path(tcpfluid.__file__).parent
    specfun = ast.parse((package / "specfun.py").read_text())
    public = {
        node.name
        for node in specfun.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    imported = set()
    for path in package.glob("*.py"):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "specfun":
                imported.update(alias.name for alias in node.names)
    assert sorted(public - imported) == []
