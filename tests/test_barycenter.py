"""Inductive and certified empirical barycenter estimators against closed
forms and the brute-force oracle, plus variance estimators."""

import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from npcbary import (
    ConvergenceError,
    Euclidean,
    Hyperbolic,
    MetricTree,
    SpaceError,
    SpdAffine,
    Sphere,
    TreePoint,
    WeightedSample,
    brute_force_barycenter,
    empirical_barycenter,
    frechet_variance,
    inductive_barycenter,
    pairwise_variance_estimate,
    product_l1_dist,
    weighted_barycenter,
)
from npcbary import barycenter
from npcbary.barycenter import (
    PAIR_BLOCK,
    _merge,
    as_fraction,
    frechet_objective,
    inductive_rows,
    sample_diameter,
    support_ball,
)
from npcbary.experiments import (
    ExperimentConfig,
    draw_indices,
    population_barycenter,
    random_points,
    run_concentration,
    trial_rng,
)
from npcbary.presets import coverage_distribution, sphere_cap_distribution

from conftest import (all_spaces, npc_spaces, path_tree, perturbed_tuple, random_point,
                      random_tuple, space_id, star_tree)
from test_rows import branching_path_tree


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_inductive_rows_read_each_row_at_its_length(space, rng):
    support = random_points(space, rng, 12)
    points = space.unstack(support)
    lengths = np.array([1, 5, 3, 7, 7, 2, 6])
    # the columns past a row's length are arbitrary padding, never read
    idx = rng.integers(len(support), size=(len(lengths), 7))
    rows = space.unstack(inductive_rows(space, support, idx, lengths))
    full = space.unstack(inductive_rows(space, support, idx))
    for row, last, i, m in zip(rows, full, idx, lengths):
        expect = inductive_barycenter(space, [points[j] for j in i[:m]])
        assert space.stack([row]).tobytes() == space.stack([expect]).tobytes()
        if m == idx.shape[1]:
            assert space.stack([last]).tobytes() == space.stack([expect]).tobytes()


def _stepwise_rows(space, support, idx, lengths):
    """The recursion one point at a time, by row_geodesic(..., 1/k), each
    row read at its length."""
    ref = support[idx[:, 0]]
    want = ref.copy()
    for k in range(2, idx.shape[1] + 1):
        ref = space.row_geodesic(ref, support[idx[:, k - 1]], 1.0 / k)
        want[lengths == k] = ref[lengths == k]
    return want


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_run_walk_matches_the_stepwise_recursion(space, rng):
    # j equal points in a row are one geodesic step of j / K, exact in a
    # uniquely geodesic space.  The supports: 2 and 3 skewed atoms, and one
    # point at indices 0 and 2; the lengths cut runs.  Over these cases drawn
    # from 30 seeds the worst gap was 6.9e-15 (1 + D) on SPD(3), 4.5e-14
    # (1 + D) on the kappa = -2.5 hyperboloid and at most 2.7e-15 (1 + D) elsewhere
    atoms = random_points(space, rng, 3)
    for support, weights in ((atoms[:2], [0.8, 0.2]), (atoms, [0.6, 0.3, 0.1]),
                             (atoms[[0, 1, 0]], [0.4, 0.3, 0.3])):
        idx = rng.choice(len(support), p=weights, size=(12, 40))
        lengths = rng.integers(1, 41, size=12)
        slack = 1e-13 * (1.0 + sample_diameter(space, space.unstack(support)))
        want = _stepwise_rows(space, support, idx, lengths)
        assert space.row_dist(inductive_rows(space, support, idx, lengths), want).max() <= slack
        full = np.full(len(idx), idx.shape[1])
        want = _stepwise_rows(space, support, idx, full)
        assert space.row_dist(inductive_rows(space, support, idx), want).max() <= slack


def _stepwise_frames(space, support, idx, lengths):
    """The recursion one point at a time on the frame, by
    _frame_geodesic(..., 1/k), each row read at its length: the stepwise
    recursion itself on the array spaces, where a frame is its stack."""
    out = support[idx[:, 0]]
    targets, frame = space._frame_targets(support), space._frame(out)
    for k in range(2, idx.shape[1] + 1):
        frame = space._frame_geodesic(frame, targets[idx[:, k - 1]], 1.0 / k)
        out[lengths == k] = space._frame_point(frame)[lengths == k]
    return out


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_run_walk_without_repeats_is_the_stepwise_recursion(space, rng):
    # every run is one point, so every step is t = 1/k, bit for bit
    support = random_points(space, rng, 3)
    idx = np.cumsum(rng.integers(1, 3, size=(12, 40)), axis=1) % 3
    lengths = rng.integers(1, 41, size=12)
    want = _stepwise_frames(space, support, idx, lengths)
    assert inductive_rows(space, support, idx, lengths).tobytes() == want.tobytes()
    want = _stepwise_frames(space, support, idx, np.full(12, 40))
    assert inductive_rows(space, support, idx).tobytes() == want.tobytes()
    if not isinstance(space, (SpdAffine, MetricTree)):
        assert want.tobytes() == _stepwise_rows(space, support, idx, np.full(12, 40)).tobytes()


def _count_calls(monkeypatch, owner, name) -> list:
    """A list that grows by one entry per call of ``owner.name``."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("p", [2, 3])
def test_spd_walk_factors_once_per_step(p, rng, monkeypatch):
    # the first run is factored once; each later run is one step, which
    # eigendecomposes only C^{-1} x C^{-T} and hands its factor to the next
    # step.  R, the largest run count of a row, is the width when no row repeats.
    space = SpdAffine(p)
    support = random_points(space, rng, 4)
    for width in (9, 2, 1):
        idx = rng.integers(len(support), size=(6, width))
        R = 1 + int(np.count_nonzero(idx[:, 1:] != idx[:, :-1], axis=1).max(initial=0))
        calls = _count_calls(monkeypatch, np.linalg, "eigh")
        inductive_rows(space, support, idx)
        assert len(calls) == (R if R > 1 else 0)
        monkeypatch.undo()


def test_spd_frame_rows_of_a_step_hold_its_own_inverse(rng):
    # a step's frame carries C' and the parts of its C'^{-T}; the rows of it
    # are (C', C'^{-T}), not the C^{-T} of the frame the step came from
    space = SpdAffine(3)
    frame = space._frame_geodesic(space._frame(random_points(space, rng, 4)),
                                  random_points(space, rng, 4), 0.3)
    C, F = space._frame_rows(frame, [0, 2])
    assert np.abs(C.swapaxes(-1, -2) @ F - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_skewed_walk_steps_once_per_run(space, rng, monkeypatch):
    # two atoms, the first drawn with probability 100/101 as in a Bernstein
    # preset: the walk takes R - 1 steps, R the most runs in a row, not 99
    support = random_points(space, rng, 2)
    idx = (rng.random((16, 100)) < 1 / 101).astype(np.intp)
    R = 1 + int(np.count_nonzero(idx[:, 1:] != idx[:, :-1], axis=1).max())
    calls = _count_calls(monkeypatch, type(space), "_frame_geodesic")
    inductive_rows(space, support, idx)
    assert len(calls) == R - 1 < 99


@pytest.mark.parametrize("p", [2, 3])
def test_spd_pair_statistics_equal_a_per_pair_reference(p, rng):
    # the reference factors x_i once per pair; 260 points take two blocks
    space, n = SpdAffine(p), 260
    xs = random_points(space, rng, n)
    points = list(xs)
    i, j = np.triu_indices(n, 1)
    upper = space.row_dist(xs[i], xs[j])
    assert sample_diameter(space, points) == float(upper.max())
    assert pairwise_variance_estimate(space, points) == 2.0 * sum(
        r**2 for r in upper.tolist()) / (n * n)
    i, j = np.divmod(np.arange(n * n), n)
    radii = space.row_dist(xs[i], xs[j]).reshape(n, n).max(axis=1)
    assert support_ball(space, points) == (int(np.argmin(radii)), float(radii.min()))


def test_pair_distances_factor_each_spd_point_once(rng, monkeypatch):
    space, n = SpdAffine(3), 40
    points = list(random_points(space, rng, n))
    for stat in (sample_diameter, support_ball, pairwise_variance_estimate):
        factored, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda M: factored.append(len(M.reshape(-1, 3, 3))) or eigh(M))
        stat(space, points)
        assert sum(factored) == n  # not one per pair
        monkeypatch.undo()


def _per_iteration(space, points, monkeypatch, counted):
    """Calls of each of ``counted`` ((owner, name) pairs) per fixed-point
    iteration: the difference between two solves of ``points`` that share
    their warm start, over the difference of their iteration counts."""
    runs = []
    for tol in (1e-3, 1e-11):
        calls = [_count_calls(monkeypatch, owner, name) for owner, name in counted]
        res = empirical_barycenter(space, points, tol=tol)
        runs.append((res.iterations, [len(c) for c in calls]))
        monkeypatch.undo()
    (i1, c1), (i2, c2) = runs
    assert i2 > i1
    return [(b - a) / (i2 - i1) for a, b in zip(c1, c2)]


def test_spd_karcher_iteration_work(rng, monkeypatch):
    # one eigendecomposition over the atoms for the log maps, one for the
    # exponential step, and the norm and the step in C^{-1} . C^{-T}
    # coordinates: no iteration forms an ambient tangent vector
    space = SpdAffine(3)
    points = list(random_points(space, rng, 5))
    eigh, solve = _per_iteration(space, points, monkeypatch,
                                 [(np.linalg, "eigh"), (np.linalg, "solve")])
    assert eigh <= 2
    assert solve == 0
    ambient = [_count_calls(monkeypatch, SpdAffine, name) for name in ("log", "row_tangent_norm")]
    assert empirical_barycenter(space, points, tol=1e-11).iterations > 1
    assert ambient == [[], []]


def test_hyperbolic_karcher_iteration_forms_one_norm(rng, monkeypatch):
    space = Hyperbolic(-1.0)
    points = list(random_points(space, rng, 5))
    (norms,) = _per_iteration(space, points, monkeypatch, [(Hyperbolic, "row_tangent_norm")])
    assert norms == 1


def _spd_reference_step(A, B, t):
    """A #_t B with A eigendecomposed afresh, as C (C^{-1} B C^{-T})^t C^T."""
    def eigh_clamped(M):
        w, U = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
        return np.maximum(w, 1e-12 * np.maximum(w[..., -1:], 1e-300)), U

    w, U = eigh_clamped(A)
    C, F = U * np.sqrt(w)[..., None, :], U / np.sqrt(w)[..., None, :]
    m, V = eigh_clamped(F.swapaxes(-1, -2) @ B @ F)
    CV = C @ V
    out = (CV * (m**t)[..., None, :]) @ CV.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def test_spd_carried_factor_does_not_drift(rng):
    # 2,000 steps over atoms of condition number 10^4: the walk that hands
    # its factor on stays with the walk that factors every iterate
    space = SpdAffine(3)
    atoms = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * np.array([1e-2, 1.0, 1e2])) @ q.T
        atoms.append(0.5 * (m + m.T))
    support = space.stack(atoms)
    order = rng.integers(len(atoms), size=2000)
    walked = inductive_rows(space, support, order[None])[0]
    ref = support[order[0]]
    for k, i in enumerate(order[1:].tolist(), start=2):
        ref = _spd_reference_step(ref, support[i], 1.0 / k)
    assert space.dist(walked, ref) <= 1e-10 * (1.0 + sample_diameter(space, atoms))


@pytest.mark.parametrize("tree", [star_tree(), path_tree(), branching_path_tree()],
                         ids=["star", "path", "branching_path"])
def test_tree_frame_walk_does_not_drift(tree, rng):
    # 2,000 steps on vertex distances against the walk that steps by
    # row_geodesic, read at every row's length and at the full width
    support = np.concatenate([random_points(tree, rng, 30), tree.stack(tree.all_vertex_points())])
    idx = rng.integers(len(support), size=(16, 2000))
    lengths = rng.integers(1, 2001, size=16)
    read, walked = inductive_rows(tree, support, idx, lengths), inductive_rows(tree, support, idx)
    ref = support[idx[:, 0]]
    want = ref.copy()
    for k in range(2, 2001):
        ref = tree.row_geodesic(ref, support[idx[:, k - 1]], 1.0 / k)
        want[lengths == k] = ref[lengths == k]
    slack = 1e-13 * (1.0 + sample_diameter(tree, tree.all_vertex_points()))
    assert tree.row_dist(read, want).max() <= slack
    assert tree.row_dist(walked, ref).max() <= slack


def test_tree_walk_takes_no_route(rng, monkeypatch):
    tree = star_tree()
    support = random_points(tree, rng, 5)
    calls = _count_calls(monkeypatch, MetricTree, "_route")
    inductive_rows(tree, support, rng.integers(5, size=(6, 9)))
    assert calls == []


def test_tree_solve_takes_no_route(rng, monkeypatch):
    # the atoms' vertex distances come from the frame, the objective from the edge's quadratic
    tree = star_tree()
    points = tree.unstack(random_points(tree, rng, 5))
    calls = _count_calls(monkeypatch, MetricTree, "_route")
    empirical_barycenter(tree, points, counts=[1, 2, 3, 1, 1])
    assert calls == []


def test_one_vertex_tree_walks():
    # a frame over no edges reads back the vertex
    tree = MetricTree(("x",), ())
    x = tree.vertex_point("x")
    assert inductive_barycenter(tree, [x, x, x]) == x
    support = tree.stack([x])
    rows = inductive_rows(tree, support, np.zeros((3, 4), dtype=np.intp), np.array([1, 2, 4]))
    assert tree.unstack(rows) == [x, x, x]


def test_inductive_is_running_mean(rng):
    space = Euclidean(3)
    pts = [rng.standard_normal(3) for _ in range(11)]
    out = inductive_barycenter(space, pts)
    assert np.max(np.abs(out - np.mean(pts, axis=0))) <= 1e-12


def test_inductive_order_invariance_euclidean(rng):
    space = Euclidean(2)
    pts = [rng.standard_normal(2) for _ in range(5)]
    results = [
        inductive_barycenter(space, [pts[i] for i in perm])
        for perm in itertools.permutations(range(5))
    ]
    for r in results[1:]:
        assert np.max(np.abs(r - results[0])) <= 1e-12


def test_inductive_constant_sequence():
    spd = SpdAffine(2)
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    out = inductive_barycenter(spd, [A, A, A])
    assert np.max(np.abs(out - A)) <= 1e-12


def test_inductive_two_spd_points_is_geometric_mean():
    spd = SpdAffine(2)
    out = inductive_barycenter(spd, [np.eye(2), np.diag([4.0, 4.0])])
    assert np.max(np.abs(out - np.diag([2.0, 2.0]))) <= 1e-10


@pytest.mark.parametrize("space, points", [
    (Euclidean(2), [[0, 0], [1, 1]]),
    (Euclidean(2), [[0, 0], [1, 1], [1, 1], [4, 2]]),
    (Hyperbolic(-1.0), [[0, 0, 1], [2, 2, 3], [2, 2, 3]]),
    (SpdAffine(2), [[[2, 1], [1, 2]], [[4, 0], [0, 1]], [[4, 0], [0, 1]]]),
], ids=["euclidean-pair", "euclidean-run", "hyperbolic", "spd"])
def test_inductive_on_integer_points_walks_in_float(space, points):
    ints = [np.array(p) for p in points]
    want = inductive_barycenter(space, [p.astype(float) for p in ints])
    for n in (1, len(ints)):
        out = inductive_barycenter(space, ints[:n])
        assert out.dtype == np.float64
        assert out.tobytes() == inductive_barycenter(
            space, [p.astype(float) for p in ints[:n]]).tobytes()
    assert space.validate_point(want) is None
    if len(points) == 2:
        assert out.tolist() == [0.5, 0.5]


def test_empirical_euclidean_triangle():
    space = Euclidean(2)
    pts = [np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 3.0])]
    res = empirical_barycenter(space, pts, tol=1e-12)
    assert np.max(np.abs(res.point - np.array([1.0, 1.0]))) <= 1e-10
    assert res.final_displacement <= 1e-12


def test_empirical_single_point():
    space = Euclidean(1)
    res = empirical_barycenter(space, [np.array([3.0])])
    assert res.iterations == 0
    assert res.final_displacement == 0.0
    assert res.objective == 0.0


def test_empirical_tree_star_matches_brute_force():
    tree = star_tree()
    leaves = [tree.vertex_point(v) for v in ("a", "b", "c")]
    oracle = brute_force_barycenter(tree, leaves, grid_step=0.01)
    assert oracle.point == tree.vertex_point("o")
    assert abs(oracle.objective - 1.0) <= 1e-12
    res = empirical_barycenter(tree, leaves, tol=1e-4)
    assert tree.dist(res.point, oracle.point) <= 2e-4
    assert res.objective <= oracle.objective + 1e-3


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_two_point_barycenter_is_midpoint(space, rng):
    for _ in range(5):
        x, y = random_point(space, rng), random_point(space, rng)
        tol = 1e-9 * (1.0 + space.dist(x, y))
        res = empirical_barycenter(space, [x, y], tol=tol)
        assert space.dist(res.point, space.geodesic_point(x, y, 0.5)) <= 10 * tol


# three SPD(2) matrices that pairwise do not commute: their mean needs more
# than five fixed-point iterations to be certified to 1e-12
NON_COMMUTING_SPD2 = (
    ((2.0, 0.3), (0.3, 1.0)),
    ((1.0, 0.0), (0.0, 3.0)),
    ((1.5, -0.7), (-0.7, 1.2)),
)


def test_convergence_error_carries_state():
    mats = [np.array(m) for m in NON_COMMUTING_SPD2]
    with pytest.raises(ConvergenceError) as info:
        empirical_barycenter(SpdAffine(2), mats, tol=1e-12, max_cycles=5)
    err = info.value
    assert err.point is not None
    assert err.displacement > 1e-12
    assert err.iterations > 0


# five points a quarter turn apart: no ball inside pi/2 holds them, so no
# iterate can be certified, while the steps shrink to rounding
UNCERTIFIABLE_SPHERE_POINTS = (
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-0.6, -0.8, 0.0), (0.0, -0.6, -0.8),
)


def test_convergence_error_once_the_steps_stall():
    pts = [np.array(p) for p in UNCERTIFIABLE_SPHERE_POINTS]
    with pytest.raises(ConvergenceError) as info:
        empirical_barycenter(Sphere(1.0), pts)
    assert 0 < info.value.iterations < 1000
    assert info.value.displacement < 1e-12


# ---------------------------------------------------------------------------
# the error bound certifies the distance to the Frechet mean
# ---------------------------------------------------------------------------


CERTIFIED_SPACES = [Euclidean(2), Hyperbolic(-1.0), SpdAffine(2), SpdAffine(3), Sphere(1.0)]


@pytest.mark.parametrize("weights", ["uniform", "float"])
@pytest.mark.parametrize("space", CERTIFIED_SPACES, ids=repr)
def test_error_bound_bounds_the_error(space, weights, rng):
    for _ in range(10):
        if weights == "float":
            sample = WeightedSample(random_tuple(space, rng, 2), (0.9, 1 - 0.9))
        else:
            sample = WeightedSample(random_tuple(space, rng, int(rng.integers(3, 8))))
        tol = 1e-4 * (1.0 + sample_diameter(space, sample.points))
        res = weighted_barycenter(space, sample, tol=tol)
        ref = weighted_barycenter(space, sample, tol=1e-12)
        assert res.error_bound <= tol
        assert space.dist(res.point, ref.point) <= res.error_bound + 1e-12


def test_error_bound_near_the_sphere_cap_limit():
    # every atom within 0.995 * pi/2 of the first: the support-centred ball
    # is just inside the limit, where k_epsilon is about 0.025
    space = Sphere(1.0)
    rng = np.random.default_rng(7)
    for _ in range(40):
        atoms = [space.base_point()]
        for _ in range(int(rng.integers(2, 7))):
            v = rng.standard_normal(2)
            atoms.append(space.exp_from_base(v / np.linalg.norm(v),
                                             rng.uniform(0.0, 0.995) * math.pi / 2))
        res = empirical_barycenter(space, atoms, tol=1e-6)
        ref = empirical_barycenter(space, atoms, tol=1e-12)
        assert res.iterations <= 16
        assert space.dist(res.point, ref.point) <= res.error_bound + 1e-12


@pytest.mark.parametrize("kappa", [1.0, 4.0])
def test_sphere_bound_holds_on_weighted_caps_near_the_limit(kappa):
    # atoms within 0.99 pi/(2 sqrt(kappa)) of the first, random integer
    # masses, coarse tolerances: the ball of the certificate is widened by
    # the bound itself, so that it holds the mean too
    space = Sphere(kappa)
    limit = math.pi / (2.0 * math.sqrt(kappa))
    rng = np.random.default_rng(11)
    for _ in range(40):
        atoms = [space.base_point()]
        for _ in range(int(rng.integers(2, 6))):
            v = rng.standard_normal(2)
            atoms.append(space.exp_from_base(v / np.linalg.norm(v),
                                             rng.uniform(0.0, 0.99) * limit))
        masses = rng.integers(1, 6, size=len(atoms))
        sample = WeightedSample(atoms, [f"{m}/{masses.sum()}" for m in masses])
        tol = float(np.exp(rng.uniform(math.log(1e-3), math.log(3e-2))))
        res = weighted_barycenter(space, sample, tol=tol)
        ref = weighted_barycenter(space, sample, tol=1e-12)
        assert res.error_bound <= tol
        assert space.dist(res.point, ref.point) <= res.error_bound + ref.error_bound


def ball_calls(monkeypatch) -> list:
    """Record the solver's support_ball calls; the list of their sizes."""
    calls = []
    original = barycenter.support_ball
    monkeypatch.setattr(barycenter, "support_ball",
                        lambda space, points: calls.append(len(points)) or original(space, points))
    return calls


@pytest.mark.parametrize("off_circle", [False, True], ids=["five_points", "off_circle_atom"])
def test_sphere_certificate_uses_the_support_centred_ball(monkeypatch, off_circle):
    # the mean is pulled toward the heavy atom, more than a quarter turn from
    # the light one, so only the support-centred ball is inside the limit;
    # an atom off their great circle makes the solve iterate, and that solve
    # measures the ball once
    calls = ball_calls(monkeypatch)
    space = Sphere(1.0)
    u = np.array([1.0, 0.0])
    light, heavy = (space.exp_from_base(d, 0.97 * math.pi / 2) for d in (-u, u))
    points = [space.base_point(), light] + [heavy] * 3
    if off_circle:
        points.insert(2, space.exp_from_base(u[::-1], 0.6))
    res = empirical_barycenter(space, points, tol=1e-8)
    solve_calls = list(calls)
    ref = empirical_barycenter(space, points, tol=1e-12)
    if off_circle:
        assert res.iterations > 1 and solve_calls == [4] and calls == [4, 4]
    assert space.dist(res.point, light) > math.pi / 2
    assert res.error_bound <= 1e-8
    assert space.dist(res.point, ref.point) <= res.error_bound + ref.error_bound


def test_sphere_measures_its_support_ball_only_once_the_gradient_is_within_tol(monkeypatch):
    # no radius brings the bound below ||g||, so while ||g|| > tol no solve
    # measures the support ball, and a solve measures it at most once; the
    # off-circle measure starts far from tol and needs the ball at the end
    events = []
    error_bound, original = barycenter._error_bound, barycenter.support_ball
    monkeypatch.setattr(barycenter, "_error_bound",
                        lambda space, g, r: events.append(g) or error_bound(space, g, r))
    monkeypatch.setattr(barycenter, "support_ball",
                        lambda space, points: events.append("ball") or original(space, points))
    space = Sphere(1.0)
    u = np.array([1.0, 0.0])
    light, heavy = (space.exp_from_base(d, 0.97 * math.pi / 2) for d in (-u, u))
    off_circle = [space.base_point(), light, space.exp_from_base(u[::-1], 0.6)] + [heavy] * 3
    rng = np.random.default_rng(5)
    measures = [off_circle] + [random_tuple(space, rng, k) for k in (3, 17, 40)]
    balls, first_g = [], []
    for points in measures:
        events.clear()
        res = empirical_barycenter(space, points, tol=1e-8)
        at = [i for i, e in enumerate(events) if e == "ball"]
        assert len(at) <= 1
        assert all(events[i - 1] <= 1e-8 for i in at)
        assert res.error_bound <= 1e-8
        balls.append(len(at))
        first_g.append(events[0])
    assert balls[0] == 1 and first_g[0] > 1e-8


def test_two_atom_cap_solves_without_the_support_ball(monkeypatch):
    # the ball centred at the iterate certifies the cap, so no solve measures
    # the support ball: neither one on the atoms nor a coverage run's trials
    dist = sphere_cap_distribution()
    population_barycenter(dist)
    calls = ball_calls(monkeypatch)
    res = empirical_barycenter(dist.space, dist.support, tol=1e-8, counts=[5003, 4997])
    assert res.error_bound <= 1e-8
    run_concentration(ExperimentConfig([dist], n=10_000, estimator="empirical", trials=5,
                                       delta=0.1, seed=3))
    assert calls == []


def test_result_does_not_depend_on_atom_order():
    dist = coverage_distribution("spd_affine")
    sample = dist.as_weighted_sample()
    tol = 1e-4 * (1.0 + dist.diameter())
    weights = sample.resolved_weights()
    first = weighted_barycenter(dist.space, sample, tol=tol)
    for perm in itertools.permutations(range(len(weights))):
        permuted = WeightedSample([sample.points[i] for i in perm], [weights[i] for i in perm])
        res = weighted_barycenter(dist.space, permuted, tol=tol)
        gap = dist.space.dist(res.point, first.point)
        assert gap <= res.error_bound + first.error_bound


# ---------------------------------------------------------------------------
# repeated points collapse into weighted atoms
# ---------------------------------------------------------------------------


SMOOTH_SPACES = [s for s in all_spaces() if not isinstance(s, MetricTree)]


@pytest.mark.parametrize("space", SMOOTH_SPACES, ids=space_id)
def test_repeats_solve_as_weighted_atoms(space, rng):
    for _ in range(3):
        atoms = random_tuple(space, rng, int(rng.integers(2, 6)))
        counts = rng.integers(1, 6, size=len(atoms))
        labels = rng.permutation(np.repeat(np.arange(len(atoms)), counts)).tolist()
        # fresh copies, so that equal values and not shared objects collapse
        pts = [np.array(atoms[i]) for i in labels]
        tol = 1e-6 * (1.0 + sample_diameter(space, atoms))
        res = empirical_barycenter(space, pts, tol=tol)

        order = list(dict.fromkeys(labels))  # the atoms in first-seen order
        sample = WeightedSample([atoms[i] for i in order],
                                [Fraction(int(counts[i]), len(pts)) for i in order])
        ref = weighted_barycenter(space, sample, tol=tol)
        assert space.dist(res.point, ref.point) <= 2 * tol
        per_point = frechet_objective(space, pts, res.point)
        assert abs(res.objective - per_point) <= 1e-12 * per_point


def test_equal_arrays_collapse():
    space = Euclidean(2)
    a, b = [0.0, 1.0], [2.0, -1.0]
    pts = [np.array(a), np.array(b), np.array(a), np.array(a), np.array(b)]
    res = empirical_barycenter(space, pts, tol=1e-12)
    atoms = weighted_barycenter(
        space, WeightedSample([np.array(a), np.array(b)], (Fraction(3, 5), Fraction(2, 5))),
        tol=1e-12)
    assert np.array_equal(res.point, atoms.point)
    assert res.iterations == atoms.iterations
    assert np.max(np.abs(res.point - np.array([0.8, 0.2]))) <= 1e-12


@pytest.mark.parametrize("space", SMOOTH_SPACES, ids=space_id)
def test_shared_objects_and_equal_copies_solve_alike(space, rng):
    # repeated objects and equal copies both merge by value: the atoms,
    # their order and so the result are the same either way
    atoms = random_tuple(space, rng, 3)
    shared = [atoms[i] for i in rng.integers(0, 3, size=40)]
    copies = [np.array(x) for x in shared]
    mixed = [x if k % 3 else np.array(x) for k, x in enumerate(shared)]
    tol = 1e-6 * (1.0 + sample_diameter(space, atoms))
    ref = empirical_barycenter(space, shared, tol=tol)
    for pts in (copies, mixed):
        res = empirical_barycenter(space, pts, tol=tol)
        assert np.array_equal(res.point, ref.point)
        assert (res.iterations, res.objective) == (ref.iterations, ref.objective)


def unique_merge(xs, masses):
    """The merge by one np.unique over the rows' bytes: the oracle for _merge."""
    rows = np.ascontiguousarray(xs).reshape(len(xs), -1)
    _, first, group = np.unique(rows.view(f"V{rows[0].nbytes}")[:, 0],
                                return_index=True, return_inverse=True)
    sums = [0] * len(first)
    for g, m in zip(group.tolist(), masses):
        sums[g] += m
    keep = [g for g, m in enumerate(sums) if m > 0]
    return first[keep], [sums[g] for g in keep]


@pytest.mark.parametrize("k", [1, 2, 3, 10, 257, 10_000])
def test_merge_matches_the_unique_oracle(k, rng):
    tree = star_tree()
    stacks = {
        "rows": rng.standard_normal((k, 2)),
        # signed zeros differ in their bytes, so -0.0 and 0.0 stay two atoms
        "zeros": rng.choice([-0.0, 0.0, 1.0], size=(k, 2)),
        "spd": SpdAffine(2).stack(random_tuple(SpdAffine(2), rng, k)),
        "tree": tree.stack(random_tuple(tree, rng, k)),
    }
    for name, xs in stacks.items():
        xs = xs[rng.integers(0, min(k, max(2, k // 2)), size=k)]  # repeats, in any order
        for masses in (rng.integers(0, 4, size=k).tolist(),
                       [Fraction(int(m), 7) for m in rng.integers(1, 4, size=k)]):
            first, sums = _merge(xs, masses)
            want_first, want_sums = unique_merge(xs, masses)
            assert first.dtype == want_first.dtype, name
            assert first.tobytes() == want_first.tobytes(), name
            assert sums == want_sums and [type(m) for m in sums] == [type(m) for m in want_sums]


def assert_same_result(res, ref):
    if isinstance(ref.point, TreePoint):
        assert res.point == ref.point
    else:
        assert res.point.tobytes() == ref.point.tobytes()
    assert (res.iterations, res.final_displacement, res.objective, res.error_bound) == (
        ref.iterations, ref.final_displacement, ref.objective, ref.error_bound)


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_counts_solve_as_the_expanded_draws(space, rng):
    atoms = random_tuple(space, rng, 3)
    labels = rng.integers(0, 3, size=50).tolist()
    seen = list(dict.fromkeys(labels))  # the draws' atoms in first-seen order
    cases = [
        ([atoms[0]], [7]),
        (atoms, [3, 1, 5]),
        ([atoms[i] for i in seen], [labels.count(i) for i in seen]),
        # a copy equal by value, and the same object again, merge into the first
        (atoms + [copy.copy(atoms[1]), atoms[0]], [2, 4, 1, 3, 2]),
    ]
    tol = 1e-6 * (1.0 + sample_diameter(space, atoms))
    for pts, counts in cases:
        expanded = [x for x, m in zip(pts, counts) for _ in range(m)]
        for t in (tol, None):
            assert_same_result(empirical_barycenter(space, pts, tol=t, counts=counts),
                               empirical_barycenter(space, expanded, tol=t))
    draws = [atoms[i] for i in labels]
    assert_same_result(empirical_barycenter(space, cases[2][0], tol=tol, counts=cases[2][1]),
                       empirical_barycenter(space, draws, tol=tol))


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_a_measure_solves_alike_in_any_order(space, rng):
    # the solver orders the atoms itself, so the order in which a measure's
    # points arrive does not reach the result's bits
    for _ in range(3):
        atoms = random_tuple(space, rng, 4)
        counts = [int(m) for m in rng.integers(1, 6, size=4)]
        weights = [Fraction(m, sum(counts)) for m in counts]
        draws = [atoms[i] for i in range(4) for _ in range(counts[i])]
        tol = 1e-6 * (1.0 + sample_diameter(space, atoms))
        ref = empirical_barycenter(space, atoms, tol=tol, counts=counts)
        for perm in itertools.permutations(range(4)):
            assert_same_result(empirical_barycenter(space, [atoms[i] for i in perm], tol=tol,
                                                    counts=[counts[i] for i in perm]), ref)
            sample = WeightedSample([atoms[i] for i in perm], [weights[i] for i in perm])
            assert_same_result(weighted_barycenter(space, sample, tol=tol), ref)
            shuffled = [draws[i] for i in rng.permutation(len(draws))]
            assert_same_result(empirical_barycenter(space, shuffled, tol=tol), ref)


def test_points_as_one_array_solve_as_their_rows(rng):
    # each access to an array's row makes a new object, so only a merge by
    # value counts the rows right
    xs = rng.standard_normal((4, 2))[[0, 1, 0, 2, 3, 1]]
    assert_same_result(empirical_barycenter(Euclidean(2), xs, tol=1e-9),
                       empirical_barycenter(Euclidean(2), list(xs), tol=1e-9))


@pytest.mark.parametrize("counts", [
    [1], [1, 2, 3], [], [1, 0], [2, -1], [True, 1], [1.0, 2], [Fraction(1), 2],
    [np.int64(1), 2], ["1", 2], [1, None],
])
def test_bad_counts_rejected(counts):
    pts = [np.array([0.0]), np.array([1.0])]
    with pytest.raises(SpaceError, match="counts"):
        empirical_barycenter(Euclidean(1), pts, counts=counts)


def test_criterion_13_instance_takes_three_steps():
    dist = sphere_cap_distribution()
    idx = draw_indices(dist.cumulative_weights(), trial_rng(0, 0), 10_000)
    pts = [dist.support[i] for i in idx]
    res = empirical_barycenter(dist.space, pts, tol=1e-4 * (1.0 + dist.diameter()))
    assert res.iterations <= 3


def test_inductive_still_depends_on_order(rng):
    space = Hyperbolic(-1.0)
    pts = random_tuple(space, rng, 3)
    forward = inductive_barycenter(space, pts)
    permuted = inductive_barycenter(space, [pts[2], pts[0], pts[1]])
    assert space.dist(forward, permuted) > 1e-6


def test_default_tolerance_only_where_the_solver_iterates(monkeypatch, rng):
    def no_diameter(*args, **kwargs):
        raise AssertionError("sample_diameter called")

    monkeypatch.setattr("npcbary.barycenter.sample_diameter", no_diameter)
    tree = star_tree()
    pts = random_tuple(tree, rng, 50)
    empirical_barycenter(tree, pts)
    weighted_barycenter(tree, WeightedSample(pts))
    space = Hyperbolic(-1.0)
    x = random_point(space, rng)
    assert empirical_barycenter(space, [x] * 50).point is x


def test_empty_input_rejected():
    with pytest.raises(SpaceError):
        inductive_barycenter(Euclidean(1), [])
    with pytest.raises(SpaceError):
        empirical_barycenter(Euclidean(1), [])


@pytest.mark.parametrize("call, needle", [
    (lambda: brute_force_barycenter(Euclidean(1), []), "at least one point"),
    (lambda: brute_force_barycenter(star_tree(), [TreePoint(vertex="a")]), "needs grid_step"),
    (lambda: brute_force_barycenter(Euclidean(1), [np.array([0.0])], candidates=[]),
     "candidate set is empty"),
    (lambda: pairwise_variance_estimate(Euclidean(1), []), "at least one point"),
], ids=["brute-force-no-points", "brute-force-tree-no-step", "brute-force-no-candidates",
        "pairwise-no-points"])
def test_oracles_reject_empty_input(call, needle):
    with pytest.raises(SpaceError, match=needle):
        call()


# ---------------------------------------------------------------------------
# weighted barycenters
# ---------------------------------------------------------------------------


def test_weighted_two_points_quarter():
    space = Euclidean(1)
    ws = WeightedSample([np.array([0.0]), np.array([1.0])], (Fraction(1, 4), Fraction(3, 4)))
    res = weighted_barycenter(space, ws, tol=1e-12)
    assert abs(res.point[0] - 0.75) <= 1e-10


@pytest.mark.parametrize(
    "space, weights",
    [
        pytest.param(space, (1 - Fraction(2, 7), Fraction(2, 7)), id=space.kind)
        for space in (Euclidean(2), SpdAffine(2), Hyperbolic(-1.0))
    ]
    + [
        # a float pair, taken as its exact binary rationals (denominator 2^53)
        pytest.param(space, (0.9, 1 - 0.9), id=f"{space.kind}-float")
        for space in (Euclidean(2), SpdAffine(2), Hyperbolic(-1.0))
    ],
)
def test_weighted_two_points_matches_geodesic(space, weights, rng):
    x, y = random_point(space, rng), random_point(space, rng)
    t = weights[1]
    ws = WeightedSample([x, y], weights)
    res = weighted_barycenter(space, ws, tol=1e-10)
    assert space.dist(res.point, space.geodesic_point(x, y, float(t))) <= 1e-8


def test_weighted_uniform_equals_empirical(rng):
    space = Euclidean(2)
    pts = [rng.standard_normal(2) for _ in range(4)]
    a = weighted_barycenter(space, WeightedSample(pts), tol=1e-12)
    b = empirical_barycenter(space, pts, tol=1e-12)
    assert np.max(np.abs(a.point - b.point)) <= 1e-12


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_weighted_equal_points_merge(space, rng):
    # a copy equal by value merges into the first point, and a zero weight drops
    a, b, c = random_tuple(space, rng, 3)
    sample = WeightedSample([a, b, copy.copy(a), c, b],
                            (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 2), 0))
    merged = WeightedSample([a, b, c], (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    assert_same_result(weighted_barycenter(space, sample, tol=1e-9),
                       weighted_barycenter(space, merged, tol=1e-9))


def test_weighted_degenerate_weight():
    space = Euclidean(1)
    ws = WeightedSample([np.array([5.0]), np.array([9.0])], (Fraction(1), Fraction(0)))
    res = weighted_barycenter(space, ws)
    assert res.point[0] == 5.0


def test_weight_validation():
    pts = [np.array([0.0]), np.array([1.0])]
    with pytest.raises(SpaceError):
        WeightedSample(pts, (Fraction(1, 2), Fraction(1, 3)))  # sum != 1
    with pytest.raises(SpaceError):
        WeightedSample(pts, (Fraction(3, 2), Fraction(-1, 2)))  # negative
    with pytest.raises(SpaceError):
        WeightedSample(pts, (Fraction(1, 2),))  # length mismatch
    with pytest.raises(SpaceError):
        as_fraction("sqrt(2)")
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(0.25) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------


def test_frechet_variance_values():
    space = Euclidean(1)
    b = np.array([0.0])
    assert frechet_variance(space, WeightedSample([b, b, b]), b) == 0.0
    ws = WeightedSample([np.array([-1.0]), np.array([1.0])])
    assert frechet_variance(space, ws, b) == 1.0
    tree = star_tree()
    leaves = WeightedSample([tree.vertex_point(v) for v in ("a", "b", "c")])
    assert abs(frechet_variance(tree, leaves, tree.vertex_point("o")) - 1.0) <= 1e-12


def test_pairwise_variance_values():
    space = Euclidean(1)
    x = np.array([1.5])
    assert pairwise_variance_estimate(space, [x, x, x]) == 0.0
    assert pairwise_variance_estimate(space, [x]) == 0.0
    # direct enumeration of the 4 ordered pairs of {0, 2}: (0+4+4+0)/4 = 2
    pv = pairwise_variance_estimate(space, [np.array([0.0]), np.array([2.0])])
    assert pv == 2.0
    sigma_hat_sq = 1.0  # variance at the barycenter 1
    assert sigma_hat_sq <= pv <= 2 * sigma_hat_sq


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_pair_blocks_match_the_full_square_bitwise(space, rng, monkeypatch):
    pts = random_tuple(space, rng, 23)
    n, xs = len(pts), space.stack(pts)
    i, j = np.divmod(np.arange(n * n), n)
    radii = space.row_dist(xs[i], xs[j]).reshape(n, n).max(axis=1)
    ball = (int(np.argmin(radii)), float(radii.min()))
    i, j = np.triu_indices(n, 1)
    upper = space.row_dist(xs[i], xs[j])
    pv = 2.0 * sum(r**2 for r in upper.tolist()) / (n * n)
    sizes = []
    row_dist = type(space).row_dist

    def spy(self, xs, ys):
        sizes.append(len(xs))
        return row_dist(self, xs, ys)

    monkeypatch.setattr(type(space), "row_dist", spy)
    for block in (1, 7, n, 5 * n, PAIR_BLOCK):
        monkeypatch.setattr("npcbary.barycenter.PAIR_BLOCK", block)
        sizes.clear()
        assert support_ball(space, pts) == ball
        assert pairwise_variance_estimate(space, pts) == pv
        assert sample_diameter(space, pts) == float(upper.max())
        assert max(sizes) <= max(block, n)
        assert (len(sizes) == 3) == (block >= n * n)


@pytest.mark.parametrize("space", [Hyperbolic(-1.0, 2), star_tree()], ids=space_id)
def test_diameter_beyond_the_exact_cap_is_within_a_factor_two(space, rng):
    # past DIAMETER_EXACT_CAP points the diameter is 2 max_i d(x_0, x_i)
    pts = random_tuple(space, rng, barycenter.DIAMETER_EXACT_CAP + 1)
    xs = space.stack(pts)
    exact = max(float(space.row_dist(xs, xs[i]).max()) for i in range(len(xs)))
    assert exact <= sample_diameter(space, pts) <= 2.0 * exact


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_pairwise_variance_universal_bounds(space, rng):
    """sigma^2 <= pairwise <= 4 sigma^2 holds in every metric space; the NPC
    variance inequality sharpens the lower bound to 2 sigma^2, with equality
    exactly in flat configurations.  (The two-sided [sigma^2, 2 sigma^2]
    sandwich therefore holds only in flat and positively curved geometry.)"""
    is_npc = not isinstance(space, Sphere)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        pts = random_tuple(space, rng, n)
        pv = pairwise_variance_estimate(space, pts)
        res = empirical_barycenter(space, pts, tol=1e-6 * (1 + sample_diameter(space, pts)))
        var = frechet_variance(space, WeightedSample(pts), res.point)
        assert pv >= var * (1 - 1e-9) - 1e-12
        assert pv <= 4 * var * (1 + 1e-9) + 1e-12
        if is_npc:
            # F(x_j) >= F(b) + d(x_j, b)^2 summed over j
            assert pv >= 2 * var * (1 - 1e-6) - 1e-9
        if isinstance(space, Euclidean):
            assert abs(pv - 2 * var) <= 1e-9 * max(1.0, pv)
        if isinstance(space, Sphere):
            assert var * (1 - 1e-9) <= pv <= 2 * var * (1 + 1e-9)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


def test_brute_force_euclidean_is_mean(rng):
    space = Euclidean(2)
    pts = [rng.standard_normal(2) for _ in range(6)]
    res = brute_force_barycenter(space, pts)
    assert np.max(np.abs(res.point - np.mean(pts, axis=0))) <= 1e-12


def test_brute_force_candidate_set(rng):
    space = Euclidean(1)
    pts = [np.array([0.0]), np.array([2.0])]
    true = np.array([1.0])
    res = brute_force_barycenter(space, pts, candidates=[np.array([0.3]), true, np.array([1.4])])
    assert res.point is true
    assert res.n_candidates == 3


def test_brute_force_needs_candidates():
    with pytest.raises(SpaceError):
        brute_force_barycenter(SpdAffine(2), [np.eye(2)])


# ---------------------------------------------------------------------------
# Lipschitz property of the estimator maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", npc_spaces(), ids=space_id)
def test_barycenter_maps_are_lipschitz(space, rng):
    for _ in range(25):
        n = int(rng.integers(2, 11))
        xs = random_tuple(space, rng, n)
        ys = perturbed_tuple(space, rng, xs)
        d1 = product_l1_dist(space, xs, ys)
        ind = space.dist(inductive_barycenter(space, xs), inductive_barycenter(space, ys))
        assert ind <= d1 / n + 1e-8 * (1.0 + d1)
        tol = 1e-6 * (1.0 + sample_diameter(space, list(xs) + list(ys)))
        ex = space.dist(
            empirical_barycenter(space, xs, tol=tol).point,
            empirical_barycenter(space, ys, tol=tol).point,
        )
        assert ex <= d1 / n + 2 * tol + 1e-4 * (1.0 + d1)


def test_objective_matches_brute_force_on_trees(rng):
    tree = star_tree()
    for _ in range(10):
        pts = random_tuple(tree, rng, int(rng.integers(2, 7)))
        res = empirical_barycenter(tree, pts, tol=1e-4)
        oracle = brute_force_barycenter(tree, pts, grid_step=0.005)
        assert res.objective <= oracle.objective + 5e-3


def random_tree(shape, ids, rng):
    """A star (centre plus 2-4 leaves) or a path of 2-5 vertices with edge
    lengths in [0.5, 2] and shuffled ids, so that edges run both ways
    relative to the lower-id endpoint."""
    size = int(rng.integers(3, 6)) if shape == "star" else int(rng.integers(2, 6))
    names = [int(i) for i in rng.permutation(size)]
    if ids == "str":
        names = [f"v{i}" for i in names]
    if shape == "star":
        pairs = [(names[0], leaf) for leaf in names[1:]]
    else:
        pairs = list(zip(names, names[1:]))
    return MetricTree(tuple(names), tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in pairs))


@pytest.mark.parametrize("shape", ["star", "path"])
@pytest.mark.parametrize("ids", ["str", "int"])
@pytest.mark.parametrize("weights", ["uniform", "float"])
def test_tree_frechet_mean_matches_grid_oracle(shape, ids, weights, rng):
    step = 0.01
    for _ in range(5):
        tree = random_tree(shape, ids, rng)
        if weights == "float":
            pts = [random_point(tree, rng), tree.vertex_point(tree.vertices[-1])]
            ws = (0.9, 1 - 0.9)
        else:
            pts = random_tuple(tree, rng, int(rng.integers(2, 7)))
            pts.append(tree.vertex_point(tree.vertices[0]))
            ws = (Fraction(1, len(pts)),) * len(pts)
        sample = WeightedSample(pts, ws)
        # the solver's atoms and weights: its merge's order, and masses summing to 1
        first, masses = _merge(tree.stack(pts), sample.resolved_weights())
        mean = tree.frechet_mean([pts[i] for i in first], [float(m) for m in masses])
        res = weighted_barycenter(tree, sample)
        assert res.point == mean
        assert abs(res.objective - frechet_variance(tree, sample, mean)) <= 1e-12 * (
            1.0 + sample_diameter(tree, pts) ** 2)
        oracle = min(tree.grid_points(step), key=lambda c: frechet_variance(tree, sample, c))
        assert frechet_variance(tree, sample, mean) <= frechet_variance(tree, sample, oracle) + 1e-12
        assert tree.dist(mean, oracle) <= step


def test_tree_frechet_mean_one_vertex():
    tree = MetricTree(("x",), ())
    pts = [tree.vertex_point("x")] * 3
    assert tree.frechet_mean(pts, [1.0, 1.0, 1.0]) == tree.vertex_point("x")
    oracle = brute_force_barycenter(tree, pts, grid_step=0.01)
    res = empirical_barycenter(tree, pts)
    assert res.point == oracle.point and res.iterations == 0
