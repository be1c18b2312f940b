"""Barycenters (Frechet means) of point sets in geodesic metric spaces.

Two estimators are provided.  The inductive barycenter walks the geodesic
recursion s_1 = x_1, s_k = gamma_{s_{k-1}, x_k}(1/k); it is order-dependent
but needs only geodesics.  The empirical barycenter merges repeated points
into atoms weighted by their counts and solves for the Frechet mean of those
atoms; weighted barycenters solve the same problem for given weights.  On a
metric tree, where the Frechet functional is a convex quadratic along each
edge, the mean is computed exactly.

On the smooth spaces the solver starts from one pass of the weighted
recursion (Sturm 2003; Lim & Palfia 2014): the visit of atom i steps toward
it with t = w_i / W, W the weight accumulated so far, counting this visit, so
two atoms are solved exactly.  It then runs the Karcher fixed point
s <- exp_s(alpha * g), g = sum_i w_i log_s x_i, with the curvature-aware step
alpha of Bini & Iannazzo (2013) and Afsari, Tron & Vidal (2013), and stops
once the variance inequality certifies d(s, b*) <= (2/k) ||g||_s <= tol, with
k = 2 in CAT(0) and k = k_epsilon on a sphere cap.  Weights are exact
rationals; a float weight is taken as its exact binary rational.  A
brute-force grid/candidate minimizer of the Frechet objective is included as
an independent oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .bounds import k_epsilon
from .spaces import (
    Euclidean,
    Hyperbolic,
    MetricTree,
    Space,
    SpaceError,
    SpdAffine,
    Sphere,
    TreePoint,
    _over,
)

DEFAULT_MAX_CYCLES = 100_000


class ConvergenceError(RuntimeError):
    """The fixed-point iteration exhausted max_cycles iterations before its
    error bound reached the tolerance.

    Carries the last iterate, the length of its last step and the number of
    iterations.
    """

    def __init__(self, message, point=None, displacement=None, iterations=None):
        super().__init__(message)
        self.point = point
        self.displacement = displacement
        self.iterations = iterations


@dataclass
class BarycenterResult:
    point: Any
    iterations: int          # fixed-point iterations after the warm start
    final_displacement: float  # length of the last step, 0.0 if none was taken
    objective: float         # sum_i w_i d(x_i, point)^2, w_i = 1/n for a point set
    error_bound: float | None  # certified bound on d(point, barycenter), or None

    def to_json(self, space: Space) -> dict:
        return {
            "point": space.payload_to_json(self.point),
            "iterations": self.iterations,
            "final_displacement": self.final_displacement,
            "objective": self.objective,
            "error_bound": self.error_bound,
        }


@dataclass
class GridSearchResult:
    point: Any
    objective: float
    resolution: float | None
    n_candidates: int


def as_fraction(value) -> Fraction:
    """Exact rational from an int, a Fraction, a 'p/q' string, or a float
    (floats convert to their exact binary rational)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpaceError(f"weight {value!r} is not a rational number") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpaceError(f"weight {value} is not finite")
        return Fraction(value)
    raise SpaceError(f"cannot interpret {value!r} as a rational weight")


@dataclass
class WeightedSample:
    """A finitely supported measure: points plus exact rational weights
    summing to 1 (uniform when weights is None).  Zero weights are allowed
    and denote atoms that do not contribute."""

    points: list
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        self.points = list(self.points)
        if len(self.points) < 1:
            raise SpaceError("a weighted sample needs at least one point")
        if self.weights is not None:
            ws = tuple(as_fraction(w) for w in self.weights)
            if len(ws) != len(self.points):
                raise SpaceError(
                    f"{len(self.points)} points but {len(ws)} weights"
                )
            if any(w < 0 for w in ws):
                raise SpaceError("weights must be nonnegative")
            total = sum(ws)
            if total != 1:
                raise SpaceError(f"weights must sum to exactly 1, got {total}")
            if all(w == 0 for w in ws):
                raise SpaceError("at least one weight must be positive")
            self.weights = ws

    def resolved_weights(self) -> tuple[Fraction, ...]:
        if self.weights is not None:
            return self.weights
        n = len(self.points)
        return tuple(Fraction(1, n) for _ in self.points)


def sample_diameter(space: Space, points: Sequence, exact_cap: int = 600) -> float:
    """Diameter of a point set.  Exact (all pairs) up to ``exact_cap`` points;
    beyond that the 2 * max_i d(x_0, x_i) upper bound is used, which only
    loosens tolerances derived from it by at most a factor of two."""
    n = len(points)
    if n <= 1:
        return 0.0
    if n <= exact_cap:
        return max(
            space.dist(points[i], points[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
    x0 = points[0]
    return 2.0 * max(space.dist(x0, p) for p in points[1:])


def default_tolerance(space: Space, points: Sequence) -> float:
    return 1e-8 * (1.0 + sample_diameter(space, points))


def frechet_objective(space: Space, points: Sequence, b) -> float:
    return sum(space.dist(x, b) ** 2 for x in points) / len(points)


def inductive_barycenter(space: Space, points: Sequence):
    """s_n from the exact recursion s_1 = x_1, s_k = gamma_{s_{k-1}, x_k}(1/k).

    Order-dependent by construction; in Euclidean space it reproduces the
    running arithmetic mean.
    """
    if len(points) < 1:
        raise SpaceError("need at least one point")
    s = points[0]
    for k, x in enumerate(points[1:], start=2):
        s = space.geodesic_point(s, x, 1.0 / k)
    return s


def empirical_barycenter(
    space: Space,
    points: Sequence,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> BarycenterResult:
    """Frechet mean of a point set, with a certified error bound.

    Exactly equal points are first merged into atoms weighted by their
    counts, in first-seen order (arrays compare by their float bytes, tree
    points by equality); the Frechet functional, and so its minimizer, is
    unchanged.  The atoms are then solved by :func:`_frechet_mean`: the
    result lies within ``error_bound`` <= ``tol`` of the Frechet mean,
    ``iterations`` counts the fixed-point iterations after the warm start
    and ``max_cycles`` bounds them.  Raises :class:`ConvergenceError` if
    ``max_cycles`` iterations do not certify ``tol``.  Metric trees are
    solved in closed form by :meth:`~npcbary.spaces.MetricTree.frechet_mean`,
    with no iteration.
    """
    n = len(points)
    if n < 1:
        raise SpaceError("need at least one point")
    # Draws from a finite support repeat the same objects, so they are counted
    # by identity first, at C speed, and only the distinct objects by value.
    objects = dict(zip(map(id, points), points))
    atoms: dict = {}
    for i, m in Counter(map(id, points)).items():
        x = objects[i]
        key = x if isinstance(x, TreePoint) else np.asarray(x, dtype=float).tobytes()
        atoms.setdefault(key, [x, 0])[1] += m
    xs, counts = zip(*atoms.values())
    s, iterations, step, bound, objective = _frechet_mean(space, xs, counts, tol, max_cycles)
    return BarycenterResult(s, iterations, step, objective, bound)


def support_ball(space: Space, points: Sequence) -> tuple[Any, float]:
    """The best support-centred ball: the point c of ``points`` that
    minimizes max_i d(c, x_i), the first on ties, and that radius."""
    return min(((c, max((space.dist(c, x) for x in points if x is not c), default=0.0))
                for c in points), key=lambda ball: ball[1])


def _frechet_mean(space: Space, points: Sequence, counts: Sequence[int],
                  tol: float | None, max_cycles: int):
    """Frechet mean of atoms with positive integer counts m_i, weights
    w_i = m_i / sum m.  Returns the point, the iterations, the length of the
    last step, the error bound and the objective sum_i w_i d(x_i, point)^2,
    whose distances the last log map already holds.  A single atom, and a
    metric tree, which returns its exact weighted mean, take no iterations
    and bound 0.0.

    The warm start is one pass of the weighted recursion, stepping toward
    atom i with t = m_i / W, W the running total of the counts including
    this visit; for two atoms it is the mean.  Each iteration then forms
    g = sum_i w_i log_s x_i, returns once :func:`_error_bound` certifies
    d(s, b*) <= tol, and otherwise steps s <- exp_s(alpha g), alpha from
    :func:`_step_size`.  On a sphere the certificate's ball is the smaller
    of the one centred at s, radius max_i d(s, x_i), and the
    :func:`support_ball` widened to reach s.

    ``tol=None`` is resolved only where the loop runs, to
    :func:`default_tolerance` over the atoms received.  Repeats do not change
    a diameter, so for an empirical sample this is the value over all its
    points whenever there are at most 600 of them; beyond that it is the
    exact diameter of the atoms (or, past 600 atoms, the same
    2 * max d(x_0, .) bound), never larger than the bound over the points.
    """
    if tol is not None and not tol > 0:
        raise SpaceError("tol must be > 0")
    if len(points) == 1:
        return points[0], 0, 0.0, 0.0, 0.0
    if isinstance(space, MetricTree):
        total = sum(counts)
        weights = [m / total for m in counts]
        s = space.frechet_mean(points, weights)
        return s, 0, 0.0, 0.0, sum(w * space.dist(x, s) ** 2 for x, w in zip(points, weights))
    if tol is None:
        tol = default_tolerance(space, points)

    geodesic = space.geodesic_point
    s = points[0]
    total = counts[0]
    for x, m in zip(points[1:], counts[1:]):
        total += m
        s = geodesic(s, x, m / total)
    weights = np.array([m / total for m in counts])
    xs = np.array(points)
    ball = support_ball(space, points) if isinstance(space, Sphere) else None
    step = 0.0
    for iteration in itertools.count():
        vs, r = space.log(s, xs)
        g = (weights @ vs.reshape(len(vs), -1)).reshape(vs.shape[1:])
        g_norm = space.tangent_norm(s, g)
        radius = float(r.max())
        if ball is not None:  # the support-centred ball, widened to reach s
            radius = min(radius, max(ball[1], space.dist(ball[0], s)))
        bound = _error_bound(space, g_norm, radius)
        if bound <= tol:
            return s, iteration, step, bound, float(weights @ r**2)
        if iteration >= max_cycles:
            break
        alpha = _step_size(space, weights, r)
        s = space.exp(s, alpha * g)
        step = alpha * g_norm
    raise ConvergenceError(
        f"barycenter not certified to {tol} within {max_cycles} iterations "
        f"(error bound {bound}, last step {step})",
        point=s,
        displacement=step,
        iterations=max_cycles,
    )


def _error_bound(space: Space, g_norm: float, radius: float) -> float:
    """(2/k) ||g||_s, which bounds d(s, b*) by the variance inequality
    F(s) >= F(b*) + (k/2) d(s, b*)^2: k = 2 in CAT(0).  On a sphere,
    k = k_epsilon(kappa, pi/(2 sqrt(kappa)) - R) for a ball of radius R that
    holds the atoms and s, and the bound is infinite when
    R >= pi/(2 sqrt(kappa)).
    """
    if not isinstance(space, Sphere) or g_norm == 0.0:
        return g_norm
    limit = math.pi / (2.0 * math.sqrt(space.kappa))
    if radius >= limit:
        return math.inf
    if limit - radius >= limit:  # a ball too small to resolve: k = 2
        return g_norm
    return 2.0 * g_norm / k_epsilon(space.kappa, limit - radius)


def _step_size(space: Space, weights: np.ndarray, r: np.ndarray) -> float:
    """alpha = 1 / sum_i w_i h(r_i sqrt(-kappa_min)), h(a) = a coth a, where
    kappa_min is the lowest sectional curvature: kappa on the hyperboloid and
    -1/2 on SPD under the affine-invariant metric.  alpha = 1 on Euclidean
    space, where one step reaches the mean, and on the sphere."""
    if isinstance(space, Hyperbolic):
        c = math.sqrt(-space.kappa)
    elif isinstance(space, SpdAffine):
        c = math.sqrt(0.5)
    else:
        return 1.0
    return 1.0 / float(weights @ _over(r * c, np.tanh))


def weighted_barycenter(
    space: Space,
    sample: WeightedSample,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> BarycenterResult:
    """Barycenter of a rationally weighted sample by :func:`_frechet_mean`,
    with integer counts m_i = w_i * Q over the weights' least common
    denominator Q; zero-weight atoms are skipped.  The result lies within
    ``error_bound`` <= ``tol`` of the weighted Frechet mean.

    For two points with weights (1-t, t) the result is
    ``geodesic_point(x, y, t)``, certified at the warm start.
    """
    weights = sample.resolved_weights()
    q = math.lcm(*(w.denominator for w in weights))
    points, counts = zip(*(
        (x, w.numerator * (q // w.denominator)) for x, w in zip(sample.points, weights) if w > 0
    ))
    s, iterations, step, bound, objective = _frechet_mean(space, points, counts, tol, max_cycles)
    return BarycenterResult(s, iterations, step, objective, bound)


def frechet_variance(space: Space, sample: WeightedSample, b) -> float:
    """sum_i w_i d(x_i, b)^2, the Frechet functional of the sample at b."""
    weights = sample.resolved_weights()
    return float(
        sum(float(w) * space.dist(x, b) ** 2 for w, x in zip(weights, sample.points))
    )


def pairwise_variance_estimate(space: Space, points: Sequence) -> float:
    """(1/n^2) sum_{i,j} d(x_i, x_j)^2, a quadratic-cost upper bound for the
    Frechet variance of the empirical measure."""
    n = len(points)
    if n < 1:
        raise SpaceError("need at least one point")
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += space.dist(points[i], points[j]) ** 2
    return 2.0 * total / (n * n)


def brute_force_barycenter(
    space: Space,
    points: Sequence,
    grid_step: float | None = None,
    candidates: Sequence | None = None,
) -> GridSearchResult:
    """Exact argmin of the Frechet objective over a finite candidate set.

    Euclidean spaces use the closed-form mean; metric trees enumerate all
    vertices plus edge subdivisions at ``grid_step``; any other space needs a
    caller-supplied candidate set.  Intended as a test oracle on small
    instances, not as a production solver.
    """
    if len(points) < 1:
        raise SpaceError("need at least one point")
    if candidates is None:
        if isinstance(space, Euclidean):
            mean = np.mean(np.asarray(points, dtype=float), axis=0)
            return GridSearchResult(mean, frechet_objective(space, points, mean), 0.0, 1)
        if isinstance(space, MetricTree):
            if grid_step is None:
                raise SpaceError("metric tree grid search needs grid_step")
            candidates = space.grid_points(grid_step)
        else:
            raise SpaceError(
                f"{space.kind}: brute force needs an explicit candidate set"
            )
    else:
        candidates = list(candidates)
        if not candidates:
            raise SpaceError("candidate set is empty")
    best = None
    best_obj = math.inf
    for c in candidates:
        obj = frechet_objective(space, points, c)
        if obj < best_obj:
            best, best_obj = c, obj
    return GridSearchResult(best, best_obj, grid_step, len(candidates))
