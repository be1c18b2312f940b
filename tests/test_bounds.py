"""Closed-form evaluators against independently computed values, plus the
monotonicity and consistency properties of the formulas."""

import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcbary import bounds
from npcbary.bounds import (
    BOUND_EVALUATORS,
    bernstein_radius,
    cat_kappa_radius,
    evaluate_bound,
    hoeffding_radius,
    k_epsilon,
    noniid_bernstein_radius,
    noniid_hoeffding_radius,
    pac_sample_size,
    pac_sample_size_bernstein,
    sturm_lln_bound,
    subgaussian_radius,
    subgaussian_tail,
)


# ---------------------------------------------------------------------------
# frozen direct evaluations
# ---------------------------------------------------------------------------


def test_subgaussian_radius_values():
    # 1/sqrt(100) + 2*sqrt(log(20)/100)
    assert subgaussian_radius(2.0, 1.0, 100, 0.05) == pytest.approx(0.4461636765204571, rel=1e-12)
    assert subgaussian_radius(0.0, 0.7, 50, 0.3) == 0.7 / math.sqrt(50)
    assert subgaussian_radius(2.0, 1.0, 100, 1 - 1e-12) == pytest.approx(0.1, abs=1e-6)


def test_hoeffding_radius_values():
    assert hoeffding_radius(1.0, 1.0, 100, 0.05) == pytest.approx(0.4461636765204571, rel=1e-12)
    assert hoeffding_radius(1.0, 0.0, 100, 0.05) == 0.1
    # identical to the sub-Gaussian radius with K = 2C, exactly
    assert hoeffding_radius(0.8, 1.3, 77, 0.02) == subgaussian_radius(2.6, 0.8, 77, 0.02)


def test_hoeffding_scaling_in_n():
    # both terms are 1/sqrt(n)-homogeneous
    assert hoeffding_radius(1.0, 2.0, 400, 0.1) == pytest.approx(
        hoeffding_radius(1.0, 2.0, 100, 0.1) / 2.0, rel=1e-12
    )


def test_bernstein_radius_values():
    # terms: 2*0.1*sqrt(log(100)/1000) = 0.013572..., 8*log(100)/3000 = 0.012280...
    assert bernstein_radius(0.1, 1.0, 1000, 0.01) == pytest.approx(0.016734558508998604, rel=1e-12)
    assert bernstein_radius(0.0, 1.0, 100, 0.1) == 8.0 * math.log(10.0) / 300.0
    assert bernstein_radius(1.0, 1.0, 100, 1 - 1e-12) == pytest.approx(0.1, abs=1e-6)
    lo = bernstein_radius(0.1, 1.0, 1000, 0.01, combine="min")
    hi = bernstein_radius(0.1, 1.0, 1000, 0.01, combine="max")
    both = bernstein_radius(0.1, 1.0, 1000, 0.01, combine="sum")
    assert lo <= hi <= both
    assert both == pytest.approx(lo + hi - 0.1 / math.sqrt(1000), rel=1e-12)
    with pytest.raises(ValueError):
        bernstein_radius(0.1, 1.0, 1000, 0.01, combine="median")


def test_noniid_hoeffding_values():
    assert noniid_hoeffding_radius([0.0, 0.0], [1.0, 1.0], 2, math.exp(-2.0)) == pytest.approx(1.0, rel=1e-12)
    # n = 1: sigma_1 + C_1 sqrt(log(1/delta))
    assert noniid_hoeffding_radius([0.5], [2.0], 1, 0.1) == pytest.approx(
        0.5 + 2.0 * math.sqrt(math.log(10.0)), rel=1e-12
    )
    # constant lists collapse, with K-term C rather than 2C
    assert noniid_hoeffding_radius([0.7] * 9, [1.2] * 9, 9, 0.2) == pytest.approx(
        subgaussian_radius(1.2, 0.7, 9, 0.2), rel=1e-13
    )
    with pytest.raises(ValueError):
        noniid_hoeffding_radius([1.0], [1.0, 1.0], 2, 0.1)


def test_noniid_bernstein_values():
    assert noniid_bernstein_radius([0.1, 0.1], 1.0, 2, 0.5) == pytest.approx(0.9949069188652484, rel=1e-12)
    assert noniid_bernstein_radius([0.3] * 5, 1.1, 5, 0.07) == pytest.approx(
        bernstein_radius(0.3, 1.1, 5, 0.07), rel=1e-13
    )
    assert noniid_bernstein_radius([0.3, 0.4], 1.0, 2, 1 - 1e-12) == pytest.approx(
        math.sqrt((0.09 + 0.16) / 2) / math.sqrt(2), abs=1e-6
    )


def test_sturm_lln_bound_values():
    assert sturm_lln_bound([1.0, 2.0, 2.0], 3) == 1.0
    assert sturm_lln_bound([0.5] * 8, 8) == pytest.approx(0.25 / 8, rel=1e-13)
    assert sturm_lln_bound([0.0, 0.0], 2) == 0.0
    with pytest.raises(ValueError):
        sturm_lln_bound([1.0], 2)


def test_pac_sample_size_values():
    assert pac_sample_size(1.0, 0.1, math.exp(-1.0)) == 100
    assert pac_sample_size(1.0, 0.1, 0.5) == 100  # max(1, log 2) = 1
    assert pac_sample_size(1.0, 1.0, 0.5) == 1
    assert pac_sample_size(2.0, 0.5, 0.1) == 37  # ceil(16 * log 10)
    assert pac_sample_size(2.0, 0.5, 0.1, c_pac=2.0) == 74


def test_pac_sample_size_bernstein_values():
    assert pac_sample_size_bernstein(0.01, 1.0, 0.1, math.exp(-1.0)) == 10
    assert pac_sample_size_bernstein(0.0, 1.0, 0.1, 0.5) == 10
    assert pac_sample_size_bernstein(4.0, 2.0, 2.0, 0.5) == 1  # eps = D, sigma2 = D^2
    assert pac_sample_size_bernstein(1.0, 2.0, 0.5, 0.99) >= 1


def test_pac_sample_size_bernstein_where_eps_squared_leaves_the_normal_floats():
    # eps^2 underflows to 0.0: sigma2/eps^2 is (0/eps)/eps = 0, and D/eps = 1e10 sets the size
    assert pac_sample_size_bernstein(0.0, 1e-190, 1e-200, 0.1) == 23_025_850_930
    # eps^2 = 1e-320 is subnormal: the divided form, not 1e-300 / 1e-320's rounded quotient
    assert pac_sample_size_bernstein(1e-300, 1e-300, 1e-160, 0.1) == math.ceil(
        ((1e-300 / 1e-160) / 1e-160) * math.log(10.0)) == 230_258_509_299_404_603_392
    # eps^2 overflows: the size is 1, where it read "no finite sample size"
    assert pac_sample_size_bernstein(1.0, 1.0, 1e200, 0.1) == 1
    # either side of the largest eps whose square is finite: the plain formula's
    # bits at 1.34e154, the divided form's at the overflow Hypothesis finds
    for eps, square_is_finite in ((1.34e154, True), (1.3407807929942597e154, False)):
        assert (eps * eps < math.inf) == square_is_finite
        ratio = 1.7e308 / eps**2 if square_is_finite else (1.7e308 / eps) / eps
        assert pac_sample_size_bernstein(1.7e308, 1.0, eps, 0.1) == math.ceil(
            ratio * math.log(10.0)) == 3


@pytest.mark.parametrize("fn, args, fields", [
    (pac_sample_size, (1e200, 1e-100, 0.1), "D=1e+200, eps_target=1e-100"),
    (pac_sample_size, (1e300, 1e-300, 0.1), "D=1e+300, eps_target=1e-300"),
    (pac_sample_size_bernstein, (1.0, 1e300, 1e-300, 0.1), "sigma2=1.0, D=1e+300, eps_target=1e-300"),
], ids=["ratio-squared-overflows", "size-infinite", "eps-squared-underflows"])
def test_pac_size_without_a_finite_value_names_its_fields(fn, args, fields):
    with pytest.raises(ValueError, match=re.escape(fields)):
        fn(*args)


def _size_or_none(formula):
    """The formulas' own max(1, ceil(.)), None where float arithmetic raises."""
    try:
        return max(1, math.ceil(formula()))
    except (OverflowError, ZeroDivisionError, ValueError):
        return None


positive = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(sigma2=st.floats(min_value=0.0, max_value=1e300), D=positive, eps=positive,
       delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       c=st.floats(min_value=1e-3, max_value=1e3))
def test_pac_sizes_keep_the_formulas_bits(sigma2, D, eps, delta, c):
    # where the plain formula evaluates, the size is its value; elsewhere a
    # ValueError.  log(1/delta) is log(1) - log(delta) where 1/delta overflows,
    # and sigma2/eps**2 is (sigma2/eps)/eps where eps**2 is not a normal float
    log_inv = math.log(1.0 / delta) if 1.0 / delta < math.inf else -math.log(delta)
    try:
        square = eps**2
    except OverflowError:
        square = math.inf
    ratio = sigma2 / square if sys.float_info.min <= square < math.inf else (sigma2 / eps) / eps
    cases = [
        (lambda: pac_sample_size(D, eps, delta, c),
         lambda: c * (D / eps) ** 2 * max(1.0, log_inv)),
        (lambda: pac_sample_size_bernstein(sigma2, D, eps, delta, c),
         lambda: c * max(ratio, D / eps) * max(1.0, log_inv)),
    ]
    for size, formula in cases:
        want = _size_or_none(formula)
        if want is None:
            with pytest.raises(ValueError, match="no finite sample size"):
                size()
        else:
            assert size() == want


def test_k_epsilon_values():
    assert k_epsilon(1.0, math.pi / 4) == pytest.approx(math.pi / 2, abs=1e-12)
    assert k_epsilon(4.0, math.pi / 8) == pytest.approx(math.pi / 2, abs=1e-12)
    assert k_epsilon(1.0, 1e-9) < 1e-8
    with pytest.raises(ValueError):
        k_epsilon(1.0, math.pi / 2)
    with pytest.raises(ValueError):
        k_epsilon(1.0, 0.0)


def test_k_epsilon_range():
    for kappa in (0.2, 1.0, 3.0, 25.0):
        limit = math.pi / (2 * math.sqrt(kappa))
        for frac in [i / 200 for i in range(1, 200)]:
            val = k_epsilon(kappa, frac * limit)
            assert 0.0 < val < 2.0


def test_cat_kappa_radius_value():
    val = cat_kappa_radius(1.0, 2.0, 1.0, math.pi / 4, 10_000, 0.1)
    assert val == pytest.approx(4.072935059634514 + 0.42379575105721473, rel=1e-12)
    # doubling n divides the radius by sqrt(2) exactly
    assert cat_kappa_radius(1.0, 2.0, 1.0, math.pi / 4, 20_000, 0.1) == pytest.approx(
        val / math.sqrt(2.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        cat_kappa_radius(1.0, 2.0, 1.0, math.pi / 2, 100, 0.1)


def cat_kappa_radius_via_modulus(A, p, kappa, epsilon, n, delta):
    """The CAT(kappa) radius assembled from the unsimplified route: constants
    c1, c2 built from the ball radius and the convexity modulus k_eps, then
    divided by sqrt(k_eps/2).  Independent cross-check for cat_kappa_radius."""
    ke = k_epsilon(kappa, epsilon)
    sk = math.sqrt(kappa)
    tn = math.tan(epsilon * sk)
    ball = math.pi / (2.0 * sk) - epsilon
    c1 = 96.0 * math.sqrt(2.0 * A) * ball / math.sqrt(ke)
    c2 = math.sqrt((math.pi - 2.0 * sk * epsilon) / kappa) * (
        2.0 / math.sqrt(tn) + 16.0 / (3.0 * math.sqrt(2.0))
    )
    scale = math.sqrt(ke / 2.0)
    return (3.0 * c1 * math.sqrt(p / n) + 3.0 * c2 * math.sqrt(math.log(2.0 / delta) / n)) / scale


def test_cat_kappa_radius_matches_modulus_form():
    for kappa in (0.5, 1.0, 2.0, 7.0):
        limit = math.pi / (2 * math.sqrt(kappa))
        for frac in (0.05, 0.3, 0.5, 0.8, 0.97):
            a = cat_kappa_radius(2.0, 2.0, kappa, frac * limit, 1234, 0.07)
            b = cat_kappa_radius_via_modulus(2.0, 2.0, kappa, frac * limit, 1234, 0.07)
            assert abs(a - b) <= 1e-12 * a


def test_subgaussian_tail_values():
    assert subgaussian_tail(1.0, 0.0) == 1.0
    K = 0.7
    assert subgaussian_tail(K, K * math.sqrt(2.0 * math.log(2.0))) == pytest.approx(1.0, rel=1e-12)
    assert subgaussian_tail(1.0, 40.0) < 1e-300
    assert subgaussian_tail(1.0, 3.0) == pytest.approx(2.0 * math.exp(-4.5), rel=1e-12)


def test_subgaussian_tail_where_K_squared_underflows():
    # 2 K^2 underflows to 0, and the exponent t^2 / (2 K^2) is taken as (t/K)^2 / 2
    assert subgaussian_tail(1e-300, 1e300) == 0.0
    assert subgaussian_tail(1e-300, 0.0) == 1.0
    assert subgaussian_tail(1e-170, 1e-200) == 1.0
    assert subgaussian_tail(1e-170, 3e-170) == pytest.approx(2.0 * math.exp(-4.5), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(K=st.floats(min_value=1e-150, max_value=1e300), t=st.floats(min_value=0.0, max_value=1e300))
def test_subgaussian_tail_keeps_the_formulas_bits(K, t):
    assert subgaussian_tail(K, t) == min(1.0, 2.0 * math.exp(-(t * t) / (2.0 * K * K)))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


radii = [
    lambda n, d: subgaussian_radius(1.3, 0.8, n, d),
    lambda n, d: hoeffding_radius(0.8, 1.3, n, d),
    lambda n, d: bernstein_radius(0.8, 1.3, n, d, "max"),
    lambda n, d: bernstein_radius(0.8, 1.3, n, d, "min"),
    lambda n, d: noniid_hoeffding_radius([0.8] * n, [1.3] * n, n, d),
]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    delta=st.floats(min_value=1e-6, max_value=0.999),
    idx=st.integers(min_value=0, max_value=len(radii) - 1),
)
def test_radii_decrease_in_n_and_delta(n, delta, idx):
    fn = radii[idx]
    assert fn(n + 1, delta) < fn(n, delta)
    assert fn(n, min(0.999, delta * 1.5)) <= fn(n, delta)


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.floats(min_value=0.0, max_value=10.0),
    C=st.floats(min_value=0.0, max_value=10.0),
    n=st.integers(min_value=1, max_value=100_000),
    delta=st.floats(min_value=1e-9, max_value=1 - 1e-9),
)
def test_bernstein_min_below_max(sigma, C, n, delta):
    lo = bernstein_radius(sigma, C, n, delta, combine="min")
    hi = bernstein_radius(sigma, C, n, delta, combine="max")
    assert lo <= hi


@settings(max_examples=100, deadline=None)
@given(
    D=st.floats(min_value=1e-3, max_value=100.0),
    eps=st.floats(min_value=1e-3, max_value=100.0),
    delta=st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_pac_sizes_positive_and_monotone(D, eps, delta):
    m = pac_sample_size(D, eps, delta)
    assert m >= 1
    assert pac_sample_size(D, eps, delta, c_pac=2.0) >= m
    mb = pac_sample_size_bernstein(D * D, D, eps, delta)
    assert mb >= 1


def test_tiny_delta_stays_finite():
    # 1/delta and 2/delta overflow for these delta; log(c) - log(delta) does not
    log_inv = -math.log(5e-324)
    assert pac_sample_size(1.0, 0.1, 5e-324) == math.ceil(100.0 * log_inv) == 74445
    assert hoeffding_radius(1.0, 1.0, 100, 5e-324) == pytest.approx(
        0.1 + 2.0 * math.sqrt(log_inv / 100), rel=1e-12)
    tn = math.tan(math.pi / 4)
    want = (288.0 * math.sqrt(2.0) / tn * math.sqrt(2 / 10**4)
            + (6.0 * math.sqrt(2.0) / math.sqrt(tn) + 16.0) / math.sqrt(tn)
            * math.sqrt((math.log(2.0) - math.log(1e-308)) / 10**4))
    got = cat_kappa_radius(A=2, p=2, kappa=1, epsilon=math.pi / 4, n=10**4, delta=1e-308)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_over_keeps_the_bits_of_finite_quotients():
    for c in (1.0, 2.0):
        for delta in [*(10.0 ** (-k / 3.0) for k in range(1, 901)), 0.05, 0.999,
                      1 - 1e-12, c / 1.7e308]:
            assert bounds._log_over(c, delta) == math.log(c / delta)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        subgaussian_radius(1.0, 1.0, 100, 0.0)
    with pytest.raises(ValueError):
        subgaussian_radius(1.0, 1.0, 100, 1.0)
    with pytest.raises(ValueError):
        subgaussian_radius(1.0, -1.0, 100, 0.5)
    with pytest.raises(ValueError):
        hoeffding_radius(1.0, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        pac_sample_size(0.0, 0.1, 0.1)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_evaluate_bound_dispatch():
    q = {"sigma": 1.0, "C": 1.0, "n": 100, "delta": 0.05}
    assert evaluate_bound("hoeffding", q) == hoeffding_radius(1.0, 1.0, 100, 0.05)
    q = {"sigma": 0.1, "C": 1.0, "n": 1000, "delta": 0.01, "combine": "min"}
    assert evaluate_bound("bernstein", q) == bernstein_radius(0.1, 1.0, 1000, 0.01, "min")
    assert evaluate_bound("k_epsilon", {"kappa": 1.0, "epsilon": math.pi / 4}) == k_epsilon(1.0, math.pi / 4)
    m = evaluate_bound("pac_sample_size", {"D": 2.0, "eps_target": 0.5, "delta": 0.1})
    assert m == 37 and isinstance(m, int)
    with pytest.raises(ValueError):
        evaluate_bound("no_such_bound", {})
    with pytest.raises(ValueError):
        evaluate_bound("hoeffding", {"sigma": 1.0})
    assert set(BOUND_EVALUATORS) >= {"hoeffding", "bernstein", "subgaussian", "cat_kappa"}


def test_evaluate_bound_reads_each_signature_once():
    # a formula's signature is read on its first call; later calls give the
    # same values and the same missing-field message
    q = {"sigma": 1.0, "C": 1.0, "n": 100, "delta": 0.05}
    want = evaluate_bound("hoeffding", q)
    bounds._signature.cache_clear()
    for _ in range(3):
        assert evaluate_bound("hoeffding", q) == want
        with pytest.raises(ValueError, match=r"^bound 'hoeffding' needs fields \['C', 'n', 'delta'\]$"):
            evaluate_bound("hoeffding", {"sigma": 1.0})
    assert bounds._signature.cache_info().misses == 1
