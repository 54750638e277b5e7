"""Special-function kernel: identities, dual routes, known rows.

The signed Pochhammer symbol and the Stirling numbers live on as frozen
oracles in `tree_reference`; their tests stay here.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

import tcpfluid
from tcpfluid.specfun import _sp, euler_product_L, pochhammer_log
from tcpfluid.window_sim import SimResult, compare_histogram

from tree_reference import pochhammer_signed, stirling_first_unsigned


def test_log_gamma_matches_lgamma():
    # ln (1)_{x-1} = ln Gamma(x)
    for x in (0.1, 0.5, 1.0, 2.5, 7.3, 41.0, 170.0):
        assert pochhammer_log(1.0, x - 1.0) == pytest.approx(math.lgamma(x), rel=1e-14)


def test_pochhammer_log_positive_case():
    # (3)_4 = 3*4*5*6 = 360
    assert math.exp(pochhammer_log(3.0, 4)) == pytest.approx(360.0, rel=1e-13)


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


# One identity per kernel the laws call: pochhammer_log (tree laws),
# euler_product_L and gammainc (window laws), polygamma (E[q | n]), chdtrc
# (histogram p-values).


def test_pochhammer_log_matches_direct_product():
    worst = 0.0
    for x in (0.3, 2.0, 7.5):
        for n in range(8):
            direct = math.prod(x + j for j in range(n))
            worst = max(worst, abs(math.exp(pochhammer_log(x, n)) - direct) / direct)
    assert worst <= 1e-12


def test_pochhammer_log_step_identity():
    worst = 0.0
    for x in (0.3, 4.2, 55.0):
        for n in (0.5, 3.7, 120.0):
            # ln (x)_{n+1} = ln (x)_n + ln(x+n)
            top = pochhammer_log(x, n + 1.0)
            err = top - pochhammer_log(x, n) - math.log(x + n)
            worst = max(worst, abs(err) / max(1.0, abs(top)))
    assert worst <= 1e-12


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
        lhs = float(_sp.gammainc(z + 1.0, x))
        rhs = float(_sp.gammainc(z, x)) - x**z * math.exp(-x) / math.gamma(z + 1.0)
        worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst <= 1e-12


def test_polygamma_recurrence():
    worst = 0.0
    for m in (0, 1, 3):
        for x in (0.3, 1.7, 9.2):
            # psi^(m)(x+1) = psi^(m)(x) + (-1)^m m! / x^(m+1)
            lhs = float(_sp.polygamma(m, x + 1.0))
            rhs = float(_sp.polygamma(m, x)) + (-1) ** m * math.factorial(m) / x ** (m + 1)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-12


def test_chdtrc_with_two_degrees_of_freedom_is_exponential():
    # P(chi2 > x) = e^{-x/2}
    want = math.exp(-1.5)
    assert abs(float(_sp.chdtrc(2, 3.0)) - want) / want <= 1e-14


def test_lazy_handle_returns_scipy_values_bit_for_bit():
    assert pochhammer_log(1.0, 1.5) == float(sp.gammaln(2.5) - sp.gammaln(1.0))
    # the handle hands out scipy's own ufunc and keeps it as a plain attribute
    assert _sp.gammaln is sp.gammaln
    assert vars(_sp)["gammaln"] is sp.gammaln
    edges = np.linspace(0.0, 1.0, 11)
    occupancy = np.full(10, 0.1) + 0.004 * np.array([1, -1, 2, -2, 0, 1, -1, 3, -3, 0])
    result = SimResult(edges, occupancy, 0, 5000, 0.5, 1.0 / 12.0, 1.0)
    fit = compare_histogram(result, np.ones_like)
    assert 0.0 < fit.chi2_pvalue < 1.0
    assert fit.chi2_pvalue == float(sp.chdtrc(fit.dof, fit.chi2_stat))


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "scipy"
    return False


def _scipy_imports(tree: ast.AST, in_function: bool = False):
    """(line, inside a function body) of every scipy import under tree."""
    for child in ast.iter_child_nodes(tree):
        if _imports_scipy(child):
            yield child.lineno, in_function
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scipy_imports(child, in_function or nested)


def test_only_specfun_imports_scipy_and_only_on_first_use():
    # one top-level scipy import anywhere in the package puts ~0.3 s back
    # on every CLI run, tree and netsim included
    sources = sorted(pathlib.Path(tcpfluid.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    offenders = []
    for path in sources:
        for line, in_function in _scipy_imports(ast.parse(path.read_text())):
            if path.name != "specfun.py" or not in_function:
                offenders.append(f"{path.name}:{line}")
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
