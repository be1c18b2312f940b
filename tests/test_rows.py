"""Row-wise forms: each space writes its distance, geodesic and Riemannian
maps once, over stacks of points, and the scalar calls are the one-row
case."""

import numpy as np
import pytest

from npcbary import Euclidean, Hyperbolic, SpaceError, SpdAffine, Sphere
from npcbary.experiments import random_point

from conftest import star_tree

ROW_SPACES = [Euclidean(2), Hyperbolic(-1.0), Sphere(1.0), SpdAffine(2), SpdAffine(3)]


@pytest.mark.parametrize("space", ROW_SPACES, ids=repr)
def test_scalar_calls_are_the_one_row_case(space, rng):
    for _ in range(20):
        x, y = random_point(space, rng), random_point(space, rng)
        d = space.row_dist(x[None], y[None])[0]
        assert space.dist(x, y) == d
        for t in (0.0, 0.3, 1.0):
            g = space.row_geodesic(x[None], y[None], t)[0]
            assert np.array_equal(space.geodesic_point(x, y, t), g)
        v = space.log(x, y[None])[0][0]
        assert np.array_equal(space.exp(x, v), space.row_exp(x[None], v[None])[0])
        assert space.tangent_norm(x, v) == space.row_tangent_norm(x[None], v[None])[0]
    if isinstance(space, (Hyperbolic, Sphere)):
        # the tangent space at the base point: the spatial coordinates of the
        # hyperboloid, all but the first on the sphere
        dirs = rng.standard_normal((5, space.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(0.0, 1.0, 5)
        v = np.zeros((5,) + space.point_shape)
        v[:, slice(0, -1) if isinstance(space, Hyperbolic) else slice(1, None)] = (
            radii[:, None] * dirs)
        assert np.array_equal(space.row_exp_from_base(dirs, radii),
                              space.row_exp(space.base_point(), v))


def test_tree_row_forms_loop_over_the_scalar_calls(rng):
    tree = star_tree()
    xs = [random_point(tree, rng) for _ in range(30)]
    ys = [random_point(tree, rng) for _ in range(30)]
    ts = rng.uniform(size=30)
    assert tree.row_dist(xs, ys).tolist() == [tree.dist(x, y) for x, y in zip(xs, ys)]
    # one point stands for every row
    assert tree.row_dist(xs, ys[0]).tolist() == [tree.dist(x, ys[0]) for x in xs]
    assert list(tree.row_geodesic(xs, ys, 0.4)) == [
        tree.geodesic_point(x, y, 0.4) for x, y in zip(xs, ys)]
    assert list(tree.row_geodesic(np.array(xs), np.array(ys), ts)) == [
        tree.geodesic_point(x, y, t) for x, y, t in zip(xs, ys, ts.tolist())]


@pytest.mark.parametrize("space", ROW_SPACES + [star_tree()], ids=repr)
def test_one_t_per_row(space, rng):
    xs = np.array([random_point(space, rng) for _ in range(9)])
    ys = np.array([random_point(space, rng) for _ in range(9)])
    ts = rng.uniform(size=9)
    ts[[0, 4]] = (0.0, 1.0)
    g = space.row_geodesic(xs, ys, ts)
    for x, y, t, gi in zip(xs, ys, ts.tolist(), g):
        assert space.dist(gi, space.geodesic_point(x, y, t)) <= 1e-12
    for bad in (1.5, -0.1, np.nan):
        ts[3] = bad
        with pytest.raises(SpaceError):
            space.row_geodesic(xs, ys, ts)


def test_sphere_log_distances_are_dist(rng):
    # the solver reads the widened support ball from the log map's distances
    space = Sphere(2.5)
    for _ in range(20):
        s = random_point(space, rng)
        xs = np.array([random_point(space, rng) for _ in range(5)])
        r = space.log(s, xs)[1]
        assert r.tolist() == [space.dist(x, s) for x in xs]
