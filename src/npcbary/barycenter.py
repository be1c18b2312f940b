"""Barycenters (Frechet means) of point sets in geodesic metric spaces.

Two estimators are provided.  The inductive barycenter walks the geodesic
recursion s_1 = x_1, s_k = gamma_{s_{k-1}, x_k}(1/k); it is order-dependent
but needs only geodesics, and many draws walk it in lockstep, a run of
equal points at a time.  The empirical and the weighted barycenter are the
Frechet mean of a measure, which one solver finds from its merged atoms in
an order of its own, so the order of the points does not reach the result.
On a metric tree, where the Frechet functional is a convex quadratic along
each edge, the mean is computed exactly.

On the smooth spaces the solver is a warm start and a certified Karcher
fixed point; README.md ("Notes on the solver") describes both.
"""

from __future__ import annotations

import itertools
import math
import sys
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
    _check_t,
    _over,
)

DEFAULT_MAX_CYCLES = 100_000

# A fixed-point step no longer than this times (1 + max_i d(s, x_i)) is at
# the rounding level of the log maps it is formed from.
STALL_REL = 4.0 * sys.float_info.epsilon

# sample_diameter compares all pairs of at most this many points.
DIAMETER_EXACT_CAP = 600

# sample_diameter, support_ball and pairwise_variance_estimate measure their
# pairs a block of rows at a time, a block holding at most this many pairs
# (or one row), so their memory does not grow with the square of the number
# of points.
PAIR_BLOCK = 1 << 16


class ConvergenceError(RuntimeError):
    """The fixed-point iteration exhausted max_cycles iterations, or its
    steps shrank to rounding, before its error bound reached the tolerance.

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
    (floats convert to their exact binary rational); a bool is none of these."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
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
            self.weights = ws

    def resolved_weights(self) -> tuple[Fraction, ...]:
        if self.weights is not None:
            return self.weights
        n = len(self.points)
        return tuple(Fraction(1, n) for _ in self.points)


def _pair_dists(space: Space, xs: np.ndarray, upper: bool):
    """d(x_i, x_j) over the pairs of the stack ``xs``, all n^2 of them or
    those with i < j (``upper``), in row-major order: one array per block of
    rows i, each of at most max(PAIR_BLOCK, n) pairs; ``xs`` is factored once."""
    n = len(xs)
    frame = space._factor(xs)
    k = np.arange(n)
    rows = k[: n - 1] if upper else k
    step = max(1, PAIR_BLOCK // n)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        i, j = np.nonzero(block[:, None] < k) if upper else np.divmod(np.arange(len(block) * n), n)
        yield space.row_dist(space._frame_rows(frame, block[i]), xs[j])


def sample_diameter(space: Space, points: Sequence) -> float:
    """Diameter of a point set.  Exact (all pairs) up to DIAMETER_EXACT_CAP
    points; beyond that the 2 * max_i d(x_0, x_i) upper bound is used, which
    only loosens tolerances derived from it by at most a factor of two."""
    n = len(points)
    if n <= 1:
        return 0.0
    xs = space.stack(points)
    if n <= DIAMETER_EXACT_CAP:
        return max(float(d.max()) for d in _pair_dists(space, xs, upper=True))
    return 2.0 * float(space.row_dist(xs[0], xs[1:]).max())


def default_tolerance(space: Space, points: Sequence) -> float:
    return 1e-8 * (1.0 + sample_diameter(space, points))


def frechet_objective(space: Space, points: Sequence, b) -> float:
    (row,) = space.stack([b])
    return sum(r**2 for r in space.row_dist(space.stack(points), row).tolist()) / len(points)


def inductive_barycenter(space: Space, points: Sequence):
    """s_n from the exact recursion s_1 = x_1, s_k = gamma_{s_{k-1}, x_k}(1/k),
    the one-row case of :func:`inductive_rows`, which takes each run of equal
    consecutive points as one step.

    Order-dependent by construction; in Euclidean space it reproduces the
    running arithmetic mean.
    """
    if len(points) < 1:
        raise SpaceError("need at least one point")
    rows = inductive_rows(space, space.stack(points), np.arange(len(points))[None])
    return space.unstack(rows)[0]


def inductive_rows(space: Space, support: np.ndarray, idx: np.ndarray,
                   lengths: np.ndarray | None = None) -> np.ndarray:
    """The inductive recursion on every row of the index matrix ``idx`` at
    once, row i's points being ``support[idx[i]]``, ``support`` a stack
    (``space.stack``), and the result the stack of the rows' iterates.

    A row is walked a run of equal points (equal stack rows, byte for byte)
    at a time: the run of j copies of x that ends at point K moves the
    iterate to gamma(s, x; j / K) in one step, which is exact in a uniquely
    geodesic space (README.md, "Notes on the solver"), and a row without
    consecutive repeats steps by 1/k bitwise.  All rows advance together as
    one frame (``Space._frame``: the stack, SPD's factor pair, or a tree's
    distances to its vertices), sorted by their number of runs, so that the
    rows still walking are a head slice and those done leave as a tail, read
    once.  Step r gathers each row's run-r point from the distinct support
    rows, taken once as ``_frame_targets``, so no (rows, n, point) array is
    built and a tree step takes no route.

    Row i's iterate is read after ``lengths[i]`` points, 1 <= lengths[i] <=
    the width of ``idx``, by default the full width; the columns past it are
    padding, never walked."""
    rows, width = idx.shape
    first, inverse = _distinct_rows(support)
    ids = inverse.astype(np.min_scalar_type(len(first) - 1)).take(idx)
    # a run starts at column 0 and where the point changes, before the row's length
    new = np.ones(idx.shape, dtype=bool)
    np.not_equal(ids[:, 1:], ids[:, :-1], out=new[:, 1:])
    if lengths is not None:
        new[:, 1:] &= np.arange(1, width) < lengths[:, None]
    # the rows by descending run count, so the rows still walking are a head slice
    runs = np.count_nonzero(new, axis=1)
    order = np.argsort(-runs, kind="stable")
    runs = runs[order]
    starts = np.flatnonzero(new[order])  # i * width + column, in the sorted rows
    # entry (i, r): row i's run r, its point and its first column, or (0, 0) past its last run
    has = np.arange(runs.max(initial=1)) < runs[:, None]
    point = np.zeros(has.shape, ids.dtype)
    point[has] = ids[order].take(starts)
    del new, ids
    # t holds each run's first column, and then its t
    t = np.zeros(has.shape)
    t[has] = np.remainder(starts, width, out=starts)
    del starts
    # run r ends at column K, the next run's first column or the row's length: t = j / K
    end = np.zeros(has.shape)
    end[:, :-1] = t[:, 1:]
    end[np.arange(rows), runs - 1] = width if lengths is None else lengths[order]
    np.subtract(end, t, out=t)
    np.divide(t, end, out=t, where=has)
    _check_t(t.ravel())
    live = np.count_nonzero(has, axis=0).tolist()  # the rows with a run r
    del end, has
    # step r reads row r of each, its rows in the frame's order
    point, t = np.ascontiguousarray(point.T), np.ascontiguousarray(t.T)
    xs = np.asarray(support[first], dtype=float)  # an integer support walks in float
    out = xs[point[0]]  # a row of one run is its first point
    if len(live) > 1:
        size = live[1]
        targets, frame = space._frame_targets(xs), space._frame(out[:size])
        for p, s, m in zip(point[1:], t[1:], live[1:]):
            if m < size:  # the frame's rows m, ... have walked all their runs
                out[m:size] = space._frame_point(space._frame_rows(frame, slice(m, size)))
                frame, size = space._frame_rows(frame, slice(0, m)), m
            frame = space._frame_geodesic(frame, targets.take(p[:m], axis=0), s[:m, None])
        out[:size] = space._frame_point(frame)
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


def empirical_barycenter(
    space: Space,
    points: Sequence,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    counts: Sequence[int] | None = None,
) -> BarycenterResult:
    """Frechet mean of a point set, with a certified error bound.

    ``counts[i]``, a positive int, is the multiplicity of ``points[i]``;
    without ``counts`` each point counts once.  :func:`_frechet_mean` solves
    the count-weighted atoms, so only the multiset of points, not their
    order, reaches the result: it lies within ``error_bound`` <= ``tol`` of
    the Frechet mean after ``iterations`` <= ``max_cycles`` fixed-point
    iterations.  Raises :class:`ConvergenceError` if ``max_cycles``
    iterations do not certify ``tol``, or once the steps shrink to rounding
    with ``tol`` still uncertified.
    """
    n = len(points)
    if n < 1:
        raise SpaceError("need at least one point")
    if counts is None:
        counts = [1] * n
    else:
        if len(counts) != n:
            raise SpaceError(f"counts has {len(counts)} entries for {n} points")
        for m in counts:
            if type(m) is not int or m < 1:
                raise SpaceError(f"counts must be positive ints, got {m!r}")
    return _frechet_mean(space, points, counts, tol, max_cycles)


def support_ball(space: Space, points: Sequence) -> tuple[int, float]:
    """The best support-centred ball: the index c of the point of ``points``
    that minimizes max_i d(x_c, x_i), the first on ties, and that radius."""
    xs = space.stack(points)
    radii = np.concatenate([d.reshape(-1, len(xs)).max(axis=1)
                            for d in _pair_dists(space, xs, upper=False)])
    return int(np.argmin(radii)), float(radii.min())


def _merge(xs: np.ndarray, masses: Sequence[int | Fraction]) -> tuple[np.ndarray, list]:
    """The atoms of the measure with mass ``masses[i]`` >= 0 at row i of the
    stack ``xs`` (README.md, "Notes on the solver"): each distinct row's first
    index and exact total mass, if not zero, in the sorted order of the bytes."""
    first, inverse = _distinct_rows(xs)
    sums = [0] * len(first)
    for g, m in zip(inverse.tolist(), masses):  # each row's mass joins its atom's sum
        sums[g] += m
    keep = [g for g, m in enumerate(sums) if m > 0]
    return first[keep], [sums[g] for g in keep]


def _distinct_rows(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the stack ``xs``, equal rows being equal bytes:
    each one's first index, in the sorted order of the bytes, and each row's
    position among them."""
    rows = np.ascontiguousarray(xs).reshape(len(xs), -1)
    keys = rows.view(f"V{rows[0].nbytes}")[:, 0]
    order = keys.argsort(kind="stable")  # equal rows stay in index order
    sorted_keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _frechet_mean(space: Space, points: Sequence, masses: Sequence[int | Fraction],
                  tol: float | None, max_cycles: int) -> BarycenterResult:
    """Frechet mean of the measure with mass ``masses[i]`` >= 0, an int count
    or an exact Fraction, at ``points[i]``, solved on :func:`_merge`'s atoms
    as README.md ("Notes on the solver") describes: a single atom and a
    metric tree take no iterations and bound 0.0, and the smooth spaces run
    the warm start and the certified fixed point, a sphere measuring its
    support ball only once ||g|| <= ``tol`` if the iterate-centred ball does
    not certify it.

    ``tol=None`` is resolved to :func:`default_tolerance` over the atoms,
    only where the loop runs.  Repeats do not change a diameter, so this is
    the value over all the points whenever there are at most
    DIAMETER_EXACT_CAP of them, and never larger beyond.
    """
    if tol is not None and not tol > 0:
        raise SpaceError("tol must be > 0")
    if max_cycles < 0:
        raise SpaceError(f"max_cycles must be >= 0, got {max_cycles}")
    xs = space.stack(points)
    first, masses = _merge(xs, masses)
    if len(first) == 1:
        return BarycenterResult(points[first[0]], 0, 0.0, 0.0, 0.0)
    total = sum(masses)
    weights = np.array([float(m / total) for m in masses])
    xs = xs[first]
    if isinstance(space, MetricTree):
        row, objective = space._mean(xs, weights)
        return BarycenterResult(space.unstack(row)[0], 0, 0.0, objective, 0.0)
    if tol is None:
        tol = default_tolerance(space, xs)
    frame, running = space._frame(xs[:1]), masses[0]
    for k, m in enumerate(masses[1:], start=1):
        running += m
        frame = space._frame_geodesic(frame, xs[k : k + 1], float(m / running))
    ball, step = None, 0.0
    for iteration in itertools.count():
        frame = space._frame(frame)  # log, the norm and the step share its factor
        vs, r = space.log(frame, xs)
        g = (weights @ vs.reshape(len(vs), -1)).reshape(1, *vs.shape[1:])
        g_norm = float(space.row_tangent_norm(frame, g)[0])
        radius = float(r.max())
        bound = _error_bound(space, g_norm, radius)
        # the support ball, widened to reach the iterate; no radius certifies ||g|| > tol
        if bound > tol and g_norm <= tol and isinstance(space, Sphere):
            ball = ball or support_ball(space, xs)
            bound = _error_bound(space, g_norm, min(radius, max(ball[1], float(r[ball[0]]))))
        if bound <= tol:
            return BarycenterResult(space.unstack(space._frame_point(frame))[0], iteration, step,
                                    float(weights @ r**2), bound)
        # a step below the rounding of the distances it came from moves the
        # iterate no further, so a bound still above tol is as low as it gets
        if iteration >= max_cycles or iteration and step <= STALL_REL * (1.0 + float(r.max())):
            raise ConvergenceError(
                f"barycenter not certified to {tol} after {iteration} iterations "
                f"(max_cycles {max_cycles}; error bound {bound}, last step {step})",
                point=space.unstack(space._frame_point(frame))[0],
                displacement=step,
                iterations=iteration,
            )
        alpha = _step_size(space, weights, r)
        frame = space._frame_exp(frame, alpha * g, alpha * g_norm)
        step = alpha * g_norm


def _error_bound(space: Space, g_norm: float, radius: float) -> float:
    """(2/k) ||g||_s, which bounds d(s, b*) by the variance inequality
    F(s) >= F(b*) + (k/2) d(s, b*)^2: k = 2 in CAT(0).  On a sphere, k =
    k_epsilon(kappa, pi/(2 sqrt(kappa)) - R - beta) on the ball of radius R
    that holds the atoms and s, widened by the bound beta itself so that it
    holds b* too.  beta is the least fixed point of that map, reached by
    monotone iteration from 0, and is infinite once R + beta >=
    pi/(2 sqrt(kappa)) or the iteration has not settled in 64 steps.
    """
    if not isinstance(space, Sphere) or g_norm == 0.0:
        return g_norm
    limit = math.pi / (2.0 * math.sqrt(space.kappa))
    bound = 0.0
    for _ in range(64):
        eps = limit - (radius + bound)
        if eps <= 0.0:
            return math.inf
        # a ball too small to resolve has k = 2
        new = g_norm if eps >= limit else 2.0 * g_norm / k_epsilon(space.kappa, eps)
        if new <= bound:
            return bound
        bound = new
    return math.inf


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
    the exact weights being the masses of its points: within
    ``error_bound`` <= ``tol`` of the weighted Frechet mean.  For two points
    with weights (1-t, t) the warm start reaches the geodesic point at t,
    and is certified there."""
    return _frechet_mean(space, sample.points, sample.resolved_weights(), tol, max_cycles)


def frechet_variance(space: Space, sample: WeightedSample, b) -> float:
    """sum_i w_i d(x_i, b)^2, the Frechet functional of the sample at b."""
    weights = sample.resolved_weights()
    (row,) = space.stack([b])
    r = space.row_dist(space.stack(sample.points), row).tolist()
    return float(sum(float(w) * ri**2 for w, ri in zip(weights, r)))


def pairwise_variance_estimate(space: Space, points: Sequence) -> float:
    """(1/n^2) sum_{i,j} d(x_i, x_j)^2, a quadratic-cost upper bound for the
    Frechet variance of the empirical measure."""
    n = len(points)
    if n < 1:
        raise SpaceError("need at least one point")
    # one sum over every pair, in order: a sum per block would round differently
    pairs = _pair_dists(space, space.stack(points), upper=True)
    return 2.0 * sum(r**2 for d in pairs for r in d.tolist()) / (n * n)


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
