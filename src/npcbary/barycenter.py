"""Barycenters (Frechet means) of point sets in geodesic metric spaces.

Two estimators are provided.  The inductive barycenter walks the geodesic
recursion s_1 = x_1, s_k = gamma_{s_{k-1}, x_k}(1/k); it is order-dependent
but needs only geodesics.  The empirical barycenter merges repeated points
into atoms weighted by their counts and runs the weighted cyclic recursion
below over them, stopping once a full cycle moves the iterate by at most
``tol`` (cyclic convergence to the Frechet mean holds in any NPC space).  On
a metric tree, where the Frechet functional is a convex quadratic along each
edge, the empirical and weighted barycenters are computed exactly instead.

Weighted barycenters run the weighted form of the same cyclic recursion
(Sturm 2003; Lim & Palfia 2014): one cycle is one pass over the
positive-weight atoms, and the visit of atom i steps toward it with
t = w_i / W, W the weight accumulated so far, counting this visit.  Weights
are exact rationals; a float weight is taken as its exact binary rational.
With uniform weights this is the unweighted recursion, t = 1/k.  A brute-force
grid/candidate minimizer of the Frechet objective is included as an
independent oracle for small instances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .spaces import Euclidean, MetricTree, Space, SpaceError, TreePoint

DEFAULT_MAX_CYCLES = 100_000


class ConvergenceError(RuntimeError):
    """Cyclic iteration exhausted max_cycles without meeting the tolerance.

    Carries the last iterate and its final per-cycle displacement.
    """

    def __init__(self, message, point=None, displacement=None, iterations=None):
        super().__init__(message)
        self.point = point
        self.displacement = displacement
        self.iterations = iterations


@dataclass
class BarycenterResult:
    point: Any
    iterations: int          # geodesic updates performed
    final_displacement: float
    objective: float         # (1/n) sum_i d(x_i, point)^2

    def to_json(self, space: Space) -> dict:
        return {
            "point": space.payload_to_json(self.point),
            "iterations": self.iterations,
            "final_displacement": self.final_displacement,
            "objective": self.objective,
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
    """Frechet mean by cyclic continuation of the inductive recursion.

    Exactly equal points are first merged into atoms weighted by their
    counts, in first-seen order (arrays compare by their float bytes, tree
    points by equality); the Frechet functional, and so its minimizer, is
    unchanged.  The weighted recursion then runs over the distinct atoms and
    stops at the first cycle, one pass over the atoms, that moves the
    iterate by at most ``tol``; ``iterations`` counts its geodesic steps and
    ``max_cycles`` its cycles.  Raises :class:`ConvergenceError` if
    ``max_cycles`` cycles do not reach ``tol``.  Metric trees are solved in
    closed form by :meth:`~npcbary.spaces.MetricTree.frechet_mean`, with no
    iteration.
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
    s, steps, disp = _cyclic_barycenter(space, xs, counts, tol, max_cycles)
    objective = sum(m * space.dist(x, s) ** 2 for x, m in zip(xs, counts)) / n
    return BarycenterResult(s, steps, disp, objective)


def _cyclic_barycenter(space: Space, points: Sequence, counts: Sequence[int],
                       tol: float | None, max_cycles: int):
    """Weighted cyclic recursion: each cycle visits every atom once and steps
    toward atom i with t = m_i / W, W the running total of the integer counts
    including this visit.  Stops at the first cycle that moves the iterate by
    at most ``tol``; returns the iterate, the geodesic steps and the last
    cycle displacement.  A single atom, and a metric tree, which returns its
    exact weighted mean, take no steps.

    ``tol=None`` is resolved only where the loop runs, to
    :func:`default_tolerance` over the atoms received.  Repeats do not change
    a diameter, so for an empirical sample this is the value over all its
    points whenever there are at most 600 of them; beyond that it is the
    exact diameter of the atoms (or, past 600 atoms, the same
    2 * max d(x_0, .) bound), never larger than the bound over the points.
    """
    if tol is not None and not tol > 0:
        raise SpaceError("tol must be > 0")
    n = len(points)
    if n == 1:
        return points[0], 0, 0.0
    if isinstance(space, MetricTree):
        total = sum(counts)
        return space.frechet_mean(points, [m / total for m in counts]), 0, 0.0
    if tol is None:
        tol = default_tolerance(space, points)

    geodesic = space.geodesic_point
    s = points[0]
    total = counts[0]
    # cycle 1 consumes x_2 .. x_n
    for x, m in zip(points[1:], counts[1:]):
        total += m
        s = geodesic(s, x, m / total)
    prev_end = s
    disp = math.inf
    for cycle in range(2, max_cycles + 1):
        for x, m in zip(points, counts):
            total += m
            s = geodesic(s, x, m / total)
        disp = space.dist(s, prev_end)
        if disp <= tol:
            return s, cycle * n - 1, disp
        prev_end = s
    raise ConvergenceError(
        f"cyclic barycenter did not converge to {tol} within {max_cycles} cycles "
        f"(last cycle displacement {disp})",
        point=s,
        displacement=disp,
        iterations=max_cycles * n - 1,
    )


def weighted_barycenter(
    space: Space,
    sample: WeightedSample,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> BarycenterResult:
    """Barycenter of a rationally weighted sample by the weighted cyclic
    recursion, with integer counts m_i = w_i * Q over the weights' least
    common denominator Q; zero-weight atoms are skipped.

    For two points with weights (1-t, t) the result matches
    ``geodesic_point(x, y, t)`` within the solver tolerance.
    """
    weights = sample.resolved_weights()
    q = math.lcm(*(w.denominator for w in weights))
    points, counts = zip(*(
        (x, w.numerator * (q // w.denominator)) for x, w in zip(sample.points, weights) if w > 0
    ))
    s, steps, disp = _cyclic_barycenter(space, points, counts, tol, max_cycles)
    return BarycenterResult(s, steps, disp, frechet_variance(space, sample, s))


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
