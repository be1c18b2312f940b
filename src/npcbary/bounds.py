"""Closed-form concentration radii, sample-size formulas, and geometric
constants for barycenter estimation.

Every function evaluates an explicit formula; none touches data.  Radii bound
d(T_n, b*) with probability at least 1 - delta, where T_n is the empirical or
inductive barycenter of n draws, sigma^2 = E[d(X, b*)^2] is the Frechet
variance, C is an almost-sure radius bound d(X, x0) <= C, and K is a
sub-Gaussian constant.

The Bernstein radius carries a ``combine`` switch because the two source
statements of the refinement disagree (min versus max of the variance and
range terms); ``max`` is the default since it is always a valid tail
inversion, with ``min`` and ``sum`` exposed for study.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from typing import Callable, Sequence

_COMBINE: dict[str, Callable[[float, float], float]] = {
    "max": max,
    "min": min,
    "sum": lambda a, b: a + b,
}


def _real(value, name: str) -> float:
    """``value`` as a float; a bool, a string or anything float() refuses is
    a ValueError naming ``name``."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _check_delta(delta: float) -> float:
    delta = _real(delta, "delta")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return delta


def _log_over(c: float, delta: float) -> float:
    """log(c / delta): its bits where c / delta is finite, else log c - log delta."""
    return math.log(c / delta) if c / delta < math.inf else math.log(c) - math.log(delta)


def _over_square(a: float, eps: float) -> float:
    """a / eps**2 where eps**2 is a normal float, else (a / eps) / eps."""
    try:
        square = eps**2
    except OverflowError:
        square = math.inf
    return a / square if sys.float_info.min <= square < math.inf else (a / eps) / eps


def _check_nonneg(value: float, name: str) -> float:
    value = _real(value, name)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_pos(value: float, name: str) -> float:
    value = _real(value, name)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _check_n(n: int) -> int:
    x = _real(n, "n")
    if not (x.is_integer() and x >= 1):
        raise ValueError(f"sample size n must be an integer >= 1, got {n}")
    return int(x)


def _combine_fn(combine: str) -> Callable[[float, float], float]:
    try:
        return _COMBINE[combine]
    except (KeyError, TypeError):
        raise ValueError(f"combine must be one of {sorted(_COMBINE)}, got {combine!r}")


def subgaussian_radius(K: float, sigma: float, n: int, delta: float) -> float:
    """sigma/sqrt(n) + K*sqrt(log(1/delta)/n) for K^2-sub-Gaussian draws."""
    K = _check_nonneg(K, "K")
    sigma = _check_nonneg(sigma, "sigma")
    n = _check_n(n)
    delta = _check_delta(delta)
    return sigma / math.sqrt(n) + K * math.sqrt(_log_over(1.0, delta) / n)


def hoeffding_radius(sigma: float, C: float, n: int, delta: float) -> float:
    """Bounded-support radius: sigma/sqrt(n) + 2C*sqrt(log(1/delta)/n).

    A variable confined to a ball of radius C is 4C^2-sub-Gaussian, so this is
    ``subgaussian_radius`` with K = 2C.
    """
    C = _check_nonneg(C, "C")
    return subgaussian_radius(2.0 * C, sigma, n, delta)


def bernstein_radius(
    sigma: float, C: float, n: int, delta: float, combine: str = "max"
) -> float:
    """sigma/sqrt(n) + combine(2*sigma*sqrt(log(1/delta)/n), 8C*log(1/delta)/(3n)).

    Sharper than the Hoeffding radius when sigma is much smaller than C.
    """
    sigma = _check_nonneg(sigma, "sigma")
    C = _check_nonneg(C, "C")
    return _bernstein(sigma, C, _check_n(n), _check_delta(delta), combine)


def _bernstein(sigma: float, C: float, n: int, delta: float, combine: str) -> float:
    """The Bernstein radius of checked arguments, shared by the i.i.d. and
    the non-i.i.d. forms."""
    fn = _combine_fn(combine)
    log_term = _log_over(1.0, delta)
    var_term = 2.0 * sigma * math.sqrt(log_term / n)
    range_term = 8.0 * C * log_term / (3.0 * n)
    return sigma / math.sqrt(n) + fn(var_term, range_term)


def _nonneg_list(values: Sequence[float], n: int, name: str) -> list[float]:
    try:
        values = [_real(v, name) for v in values]
    except TypeError:
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None
    if len(values) != n:
        raise ValueError(f"{name} must have length n={n}, got {len(values)}")
    if any(v < 0 for v in values):
        raise ValueError(f"{name} entries must be >= 0")
    return values


def _rms(values: Sequence[float], n: int, name: str) -> float:
    return math.sqrt(sum(v * v for v in _nonneg_list(values, n, name)) / n)


def noniid_hoeffding_radius(
    sigmas: Sequence[float], Cs: Sequence[float], n: int, delta: float
) -> float:
    """Independent, non-identically distributed draws with a common
    barycenter: sigma_bar/sqrt(n) + C_bar*sqrt(log(1/delta)/n) with
    sigma_bar = sqrt(mean sigma_i^2), C_bar = sqrt(mean C_i^2).

    With constant lists this has K-term C, not the 2C of
    :func:`hoeffding_radius`; the two conventions are both exposed.
    """
    n = _check_n(n)
    delta = _check_delta(delta)
    sigma_bar = _rms(sigmas, n, "sigmas")
    return subgaussian_radius(_rms(Cs, n, "Cs"), sigma_bar, n, delta)


def noniid_bernstein_radius(
    sigmas: Sequence[float], C: float, n: int, delta: float, combine: str = "max"
) -> float:
    """Heterogeneous Bernstein radius with a common almost-sure bound C."""
    n = _check_n(n)
    delta = _check_delta(delta)
    C = _check_nonneg(C, "C")
    return _bernstein(_rms(sigmas, n, "sigmas"), C, n, delta, combine)


def sturm_lln_bound(sigmas: Sequence[float], n: int) -> float:
    """E[d(S_n, b*)^2] <= (sigma_1^2 + ... + sigma_n^2) / n^2 for the
    inductive barycenter of independent draws with common barycenter;
    reduces to sigma^2/n in the i.i.d. case."""
    n = _check_n(n)
    return sum(s * s for s in _nonneg_list(sigmas, n, "sigmas")) / (n * n)


def pac_sample_size(D: float, eps_target: float, delta: float, c_pac: float = 1.0) -> int:
    """Subsample size m = ceil(c * (D/eps)^2 * max(1, log(1/delta))) that makes
    the inductive barycenter of m uniform draws an eps-approximation of the
    barycenter of the full set (diameter D) with probability >= 1 - delta."""
    D = _check_pos(D, "D")
    eps_target = _check_pos(eps_target, "eps_target")
    delta = _check_delta(delta)
    c_pac = _check_pos(c_pac, "c_pac")
    return _sample_size(lambda: c_pac * (D / eps_target) ** 2 * max(1.0, _log_over(1.0, delta)),
                        D=D, eps_target=eps_target, delta=delta, c_pac=c_pac)


def pac_sample_size_bernstein(
    sigma2: float, D: float, eps_target: float, delta: float, c_pac: float = 1.0
) -> int:
    """Variance-aware subsample size
    m = ceil(c * max(sigma^2/eps^2, D/eps) * max(1, log(1/delta))).

    The inner max(1, .) keeps m positive as delta approaches 1, a regime the
    asymptotic statement does not address.
    """
    sigma2 = _check_nonneg(sigma2, "sigma2")
    D = _check_pos(D, "D")
    eps_target = _check_pos(eps_target, "eps_target")
    delta = _check_delta(delta)
    c_pac = _check_pos(c_pac, "c_pac")
    return _sample_size(lambda: c_pac * max(_over_square(sigma2, eps_target), D / eps_target)
                        * max(1.0, _log_over(1.0, delta)),
                        sigma2=sigma2, D=D, eps_target=eps_target, delta=delta, c_pac=c_pac)


def _sample_size(size: Callable[[], float], **fields: float) -> int:
    """max(1, ceil(size())) of a formula of checked ``fields``; a size that
    is not a finite float, or whose float arithmetic overflows or divides by
    an underflowed zero, is a ValueError naming the fields."""
    try:
        return max(1, math.ceil(size()))
    except (OverflowError, ZeroDivisionError, ValueError):
        named = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        raise ValueError(f"no finite sample size at {named}") from None


def _check_epsilon(kappa: float, epsilon: float) -> tuple[float, float]:
    """kappa > 0 and epsilon in (0, pi/(2*sqrt(kappa))), as floats."""
    kappa = _check_pos(kappa, "kappa")
    epsilon = _real(epsilon, "epsilon")
    limit = math.pi / (2.0 * math.sqrt(kappa))
    if not 0.0 < epsilon < limit:
        raise ValueError(
            f"epsilon must be in (0, pi/(2*sqrt(kappa))) = (0, {limit}), got {epsilon}"
        )
    return kappa, epsilon


def k_epsilon(kappa: float, epsilon: float) -> float:
    """Strong-convexity modulus (pi - 2*sqrt(kappa)*eps) * tan(eps*sqrt(kappa))
    of the squared distance on balls of radius pi/(2*sqrt(kappa)) - eps in a
    CAT(kappa) space, kappa > 0.  Lies in (0, 2) on the open domain."""
    kappa, epsilon = _check_epsilon(kappa, epsilon)
    sk = math.sqrt(kappa)
    return (math.pi - 2.0 * sk * epsilon) * math.tan(epsilon * sk)


def cat_kappa_radius(
    A: float, p: float, kappa: float, epsilon: float, n: int, delta: float
) -> float:
    """High-probability radius for the empirical barycenter in a CAT(kappa)
    space, kappa > 0, under the covering-number growth N(B(x,r), a) <= (A r / a)^p
    and support confined to a ball of radius pi/(2*sqrt(kappa)) - epsilon:

        288*sqrt(A)/(sqrt(kappa)*tan(eps*sqrt(kappa))) * sqrt(p/n)
        + (6*sqrt(2)/sqrt(tan(eps*sqrt(kappa))) + 16)
          / sqrt(kappa*tan(eps*sqrt(kappa))) * sqrt(log(2/delta)/n)

    This keeps the explicit pre-simplification constants rather than hiding
    them in an unspecified universal factor.
    """
    A = _check_pos(A, "A")
    p = _check_pos(p, "p")
    n = _check_n(n)
    delta = _check_delta(delta)
    kappa, epsilon = _check_epsilon(kappa, epsilon)
    sk = math.sqrt(kappa)
    tn = math.tan(epsilon * sk)
    bias = 288.0 * math.sqrt(A) / (sk * tn) * math.sqrt(p / n)
    stoch = (
        (6.0 * math.sqrt(2.0) / math.sqrt(tn) + 16.0)
        / math.sqrt(kappa * tn)
        * math.sqrt(_log_over(2.0, delta) / n)
    )
    return bias + stoch


def subgaussian_tail(K: float, t: float) -> float:
    """Two-sided tail bound min(1, 2*exp(-t^2 / (2 K^2))) for 1-Lipschitz
    images of a K^2-sub-Gaussian variable."""
    K = _check_pos(K, "K")
    t = _check_nonneg(t, "t")
    scale = 2.0 * K * K
    # where K * K underflows to 0 the exponent is still (t/K)^2 / 2
    exponent = (t * t) / scale if scale > 0.0 else 0.5 * (t / K) * (t / K)
    return min(1.0, 2.0 * math.exp(-exponent))


# CLI-facing dispatch: formula name -> function; its parameters without a
# default are the query's required fields, those with one its optional fields,
# each formula's signature read once
_signature = functools.cache(inspect.signature)
BOUND_EVALUATORS: dict[str, Callable] = {
    "subgaussian": subgaussian_radius,
    "hoeffding": hoeffding_radius,
    "bernstein": bernstein_radius,
    "noniid_hoeffding": noniid_hoeffding_radius,
    "noniid_bernstein": noniid_bernstein_radius,
    "sturm_lln": sturm_lln_bound,
    "pac_sample_size": pac_sample_size,
    "pac_sample_size_bernstein": pac_sample_size_bernstein,
    "k_epsilon": k_epsilon,
    "cat_kappa": cat_kappa_radius,
    "subgaussian_tail": subgaussian_tail,
}


def evaluate_bound(name: str, query: dict) -> float | int:
    """Evaluate a named formula from a BoundQuery-style mapping."""
    if name not in BOUND_EVALUATORS:
        raise ValueError(f"unknown bound {name!r} (known: {sorted(BOUND_EVALUATORS)})")
    fn = BOUND_EVALUATORS[name]
    params = _signature(fn).parameters.values()
    missing = [p.name for p in params if p.default is p.empty and p.name not in query]
    if missing:
        raise ValueError(f"bound {name!r} needs fields {missing}")
    return fn(**{p.name: query[p.name] for p in params if p.name in query})
