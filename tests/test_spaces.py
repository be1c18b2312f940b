"""Distance / geodesic exactness and the structural invariants of the five
spaces, on seeded random instances."""

import dataclasses
import json
import math

import numpy as np
import pytest

from npcbary import (
    AntipodalError,
    Euclidean,
    Hyperbolic,
    MetricTree,
    SpaceError,
    SpdAffine,
    Sphere,
    TreePoint,
    point_from_json,
    point_to_json,
    product_l1_dist,
    space_from_json,
    space_to_json,
)
from npcbary.experiments import _midpoint_excess_rows, random_points

from conftest import all_spaces, npc_spaces, random_point, space_id, path_tree, star_tree


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def test_spd_distance_exact():
    spd = SpdAffine(2)
    d = spd.dist(np.eye(2), np.diag([math.e**2, 1.0]))
    # log of the diagonal matrix has entries (2, 0); Frobenius norm 2
    assert abs(d - 2.0) <= 1e-10 * 2.0


def test_spd_commuting_midpoint():
    spd = SpdAffine(2)
    mid = spd.geodesic_point(np.eye(2), np.diag([4.0, 4.0]), 0.5)
    assert np.max(np.abs(mid - np.diag([2.0, 2.0]))) <= 1e-10 * 2.0


def test_hyperbolic_identity_distance():
    hyp = Hyperbolic(-1.0)
    x = np.array([0.0, 0.0, 1.0])
    assert hyp.dist(x, x) == 0.0


def test_sphere_quarter_turn():
    # oracle: direct evaluation of the arc formula, arccos(e1 . e2) = arccos(0)
    oracle = math.acos(0.0)
    sph = Sphere(1.0)
    d = sph.dist(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert abs(d - oracle) <= 1e-12
    assert abs(d - math.pi / 2) <= 1e-12


def test_tree_path_distance():
    tree = path_tree()
    assert tree.dist(tree.vertex_point("a"), tree.vertex_point("c")) == 3.0


def test_euclidean_midpoint():
    space = Euclidean(2)
    mid = space.geodesic_point(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.5)
    assert np.allclose(mid, [1.0, 0.0], atol=0)


def test_tree_geodesic_lands_on_vertex():
    # one third of the 3-unit path from a lands exactly on b
    tree = path_tree()
    g = tree.geodesic_point(tree.vertex_point("a"), tree.vertex_point("c"), 1.0 / 3.0)
    assert g == tree.vertex_point("b")


def test_tree_geodesic_interior_points(rng):
    tree = star_tree()
    x = tree.edge_point(0, 0.25)   # edge (o, a), offsets measured from a
    y = tree.edge_point(1, 0.4)
    d = tree.dist(x, y)
    # distances to o are the offsets measured from the leaf's opposite end
    assert abs(d - ((1 - 0.25) + (1 - 0.4))) < 1e-15
    for t in np.linspace(0.0, 1.0, 17):
        g = tree.geodesic_point(x, y, float(t))
        assert abs(tree.dist(x, g) - t * d) <= 1e-12 * (1 + d)


def test_product_l1():
    space = Euclidean(1)
    xs = [np.array([0.0]), np.array([1.0])]
    ys = [np.array([1.0]), np.array([3.0])]
    assert product_l1_dist(space, xs, xs) == 0.0
    assert product_l1_dist(space, xs, ys) == 3.0
    assert product_l1_dist(space, xs[:1], ys[:1]) == space.dist(xs[0], ys[0])
    with pytest.raises(SpaceError):
        product_l1_dist(space, xs, ys[:1])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_sphere_validation():
    sph = Sphere(1.0)
    assert sph.validate_point(np.array([1.0, 0.0, 0.0])) is None
    diag = sph.validate_point(np.array([2.0, 0.0, 0.0]))
    assert diag is not None and "norm" in diag


def test_spd_validation_indefinite():
    # oracle: eigenvalues of [[1, 2], [2, 1]] are 3 and -1
    w = np.linalg.eigvalsh(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(sorted(w), [-1.0, 3.0])
    spd = SpdAffine(2)
    diag = spd.validate_point(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert diag is not None and "positivity" in diag


def test_spd_validation_asymmetric():
    spd = SpdAffine(2)
    assert spd.validate_point(np.array([[1.0, 0.5], [0.0, 1.0]])) is not None


def test_hyperbolic_validation():
    hyp = Hyperbolic(-1.0)
    assert hyp.validate_point(np.array([0.0, 0.0, 1.0])) is None
    assert hyp.validate_point(np.array([0.0, 0.0, -1.0])) is not None
    assert hyp.validate_point(np.array([0.0, 0.0, 2.0])) is not None


def test_tree_point_validation():
    tree = star_tree()
    assert tree.validate_point(tree.vertex_point("a")) is None
    assert tree.validate_point(TreePoint(vertex="zzz")) is not None
    assert tree.validate_point(TreePoint(edge=99, offset=0.1)) is not None
    with pytest.raises(SpaceError):
        tree.edge_point(0, 5.0)


@pytest.mark.parametrize("make, needle", [
    (lambda tree: TreePoint(), "exactly one of vertex / edge"),
    (lambda tree: TreePoint(vertex="a", edge=0), "exactly one of vertex / edge"),
    (lambda tree: tree.stack([np.array([0.0, 0.5])]), "expected a TreePoint, got ndarray"),
    (lambda tree: tree.grid_points(0), "grid step must be > 0"),
], ids=["neither", "both", "stack-array", "grid-step-zero"])
def test_tree_point_rejections(make, needle):
    with pytest.raises(SpaceError, match=needle):
        make(star_tree())


def test_bad_tree_structures():
    with pytest.raises(SpaceError):
        MetricTree(("a", "b"), ())  # missing edge
    with pytest.raises(SpaceError):
        MetricTree(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)))
    with pytest.raises(SpaceError):
        MetricTree(("a", "b"), (("a", "b", 0.0),))
    with pytest.raises(SpaceError):
        MetricTree(("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0), ("c", "d", 2.0)))


def test_a_tree_is_the_value_of_its_vertices_and_edges():
    # the distance and next-hop tables are derived, not fields
    assert [f.name for f in dataclasses.fields(MetricTree)] == ["vertices", "edges"]
    tree = star_tree()
    read = space_from_json(json.loads(
        '{"kind": "metric_tree", "tree": {"vertices": ["a", "b", "c", "o"], '
        '"edges": [["o", "a", 1], ["o", "b", 1.0], ["o", "c", 1.0]]}}'))
    assert read is not tree and read == tree and hash(read) == hash(tree)
    longer = MetricTree(tree.vertices, tree.edges[:2] + (("o", "c", 1.5),))
    assert longer != tree and longer != read


def test_geodesic_parameter_range():
    space = Euclidean(1)
    with pytest.raises(SpaceError):
        space.geodesic_point(np.array([0.0]), np.array([1.0]), 1.5)
    with pytest.raises(SpaceError):
        space.geodesic_point(np.array([0.0]), np.array([1.0]), -0.1)


def test_sphere_antipodal_error():
    sph = Sphere(1.0)
    with pytest.raises(AntipodalError):
        sph.geodesic_point(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(AntipodalError):
        sph.log(np.array([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]))


def test_payload_shape_mismatch():
    with pytest.raises(SpaceError):
        Euclidean(2).payload_from_json([1.0, 2.0, 3.0])
    with pytest.raises(SpaceError):
        SpdAffine(2).payload_from_json([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", npc_spaces(), ids=space_id)
def test_midpoint_inequality_random(space, rng):
    for _ in range(400):
        x, y, z = (random_points(space, rng, 1) for _ in range(3))
        excess, sq_scale = _midpoint_excess_rows(space, x, y, z)
        assert excess[0] <= 1e-8 * (1.0 + sq_scale[0])


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_constant_speed_and_endpoints(space, rng):
    for _ in range(300):
        x, y = random_point(space, rng), random_point(space, rng)
        d = space.dist(x, y)
        assert space.dist(space.geodesic_point(x, y, 0.0), x) <= 1e-9 * (1 + d)
        assert space.dist(space.geodesic_point(x, y, 1.0), y) <= 1e-9 * (1 + d)
        s, t = rng.uniform(), rng.uniform()
        gap = abs(
            space.dist(space.geodesic_point(x, y, s), space.geodesic_point(x, y, t))
            - abs(s - t) * d
        )
        assert gap <= 1e-8 * (1.0 + d)


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_geodesic_symmetry(space, rng):
    for _ in range(200):
        x, y = random_point(space, rng), random_point(space, rng)
        t = rng.uniform()
        a = space.geodesic_point(x, y, t)
        b = space.geodesic_point(y, x, 1.0 - t)
        assert space.dist(a, b) <= 1e-8 * (1.0 + space.dist(x, y))


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_metric_axioms_random(space, rng):
    for _ in range(200):
        x, y, z = (random_point(space, rng) for _ in range(3))
        dxy = space.dist(x, y)
        assert dxy >= 0.0
        assert space.dist(x, x) <= 1e-12
        assert abs(dxy - space.dist(y, x)) <= 1e-12 * (1 + dxy)
        assert dxy <= space.dist(x, z) + space.dist(z, y) + 1e-9 * (1 + dxy)


def test_sphere_arc_interpolation(rng):
    sph = Sphere(2.5)
    for _ in range(200):
        x, y = random_point(sph, rng), random_point(sph, rng)
        d = sph.dist(x, y)
        t = rng.uniform()
        assert abs(sph.dist(x, sph.geodesic_point(x, y, t)) - t * d) <= 1e-8 * (1 + d)
    assert sph.dist(x, y) <= math.pi / math.sqrt(2.5) + 1e-12


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_random_points_validate(space, rng):
    for _ in range(100):
        assert space.validate_point(random_point(space, rng)) is None


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_no_random_points_make_the_empty_stack(space):
    rng, fresh = np.random.default_rng(3), np.random.default_rng(3)
    empty = random_points(space, rng, 0)
    one = random_points(space, np.random.default_rng(4), 1)
    assert empty.shape == space.stack([]).shape == (0,) + one.shape[1:]
    assert len(space.unstack(empty)) == 0
    # nothing is drawn: the stream goes on where the equal generator is
    assert rng.random() == fresh.random()


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_geodesic_outputs_validate(space, rng):
    for _ in range(100):
        x, y = random_point(space, rng), random_point(space, rng)
        g = space.geodesic_point(x, y, rng.uniform())
        assert space.validate_point(g) is None


@pytest.mark.parametrize(
    "space", [s for s in all_spaces() if not isinstance(s, MetricTree)] + [SpdAffine(2)], ids=repr)
def test_exp_inverts_log(space, rng):
    for _ in range(50):
        x = random_point(space, rng)
        ys = [random_point(space, rng) for _ in range(3)] + [x]
        vs, norms = space.log(x, np.stack(ys))
        for y, v, r in zip(ys, vs, norms):
            d = space.dist(x, y)
            assert abs(r - d) <= 1e-12 * (1.0 + d)
            assert abs(space.tangent_norm(x, v) - d) <= 1e-12 * (1.0 + d)
            assert space.validate_point(space.exp(x, v)) is None
            assert space.dist(space.exp(x, v), y) <= 1e-9 * (1.0 + d)
            t = rng.uniform()
            gap = space.dist(space.exp(x, t * v), space.geodesic_point(x, y, t))
            assert gap <= 1e-9 * (1.0 + d)


def test_hyperbolic_exp_inverts_log_on_far_pairs():
    # the Minkowski norm of a long tangent vector is formed without
    # cancellation, so exp(x, log_x y) lands on y at rounding level
    space = Hyperbolic(-2.5, 3)
    rng = np.random.default_rng(0)
    xs, ys, vs = [], [], []
    for _ in range(200):
        x, y = random_point(space, rng), random_point(space, rng)
        v = space.log(x, y[None])[0][0]
        assert space.dist(space.exp(x, v), y) <= 1e-11
        xs.append(x)
        ys.append(y)
        vs.append(v)
    # and as one stacked call over all the pairs
    X, Y = np.array(xs), np.array(ys)
    assert np.all(space.row_dist(space.row_exp(X, np.array(vs)), Y) <= 1e-11)


# ---------------------------------------------------------------------------
# row-wise forms over a leading axis of pairs
# ---------------------------------------------------------------------------

ROW_SPACES = [Euclidean(2), Hyperbolic(-1.0), Sphere(1.0), SpdAffine(2), SpdAffine(3)]


@pytest.mark.parametrize("space", ROW_SPACES, ids=repr)
def test_row_forms_match_the_scalar_calls(space, rng):
    xs = [random_point(space, rng) for _ in range(12)]
    ys = [random_point(space, rng) for _ in range(12)]
    for i in (2, 7):  # equal pairs, d = 0, among distinct ones
        ys[i] = xs[i].copy()
    X, Y = np.stack(xs), np.stack(ys)
    axes = tuple(range(1, X.ndim))
    d = space.row_dist(X, Y)
    want = np.array([space.dist(x, y) for x, y in zip(xs, ys)])
    assert d.shape == (12,) and np.all(d[[2, 7]] <= 1e-12)
    for t in (0.0, 1.0 / 7.0, 1.0):
        g = space.row_geodesic(X, Y, t)
        want_g = np.stack([space.geodesic_point(x, y, t) for x, y in zip(xs, ys)])
        if isinstance(space, SpdAffine):
            # the scalar calls are the unbatched case of the same code
            assert np.array_equal(g, want_g)
        else:
            gap = np.sqrt(np.sum((g - want_g) ** 2, axis=axes))
            assert np.all(gap <= 1e-12 * np.sqrt(np.sum(want_g**2, axis=axes)))
    if isinstance(space, SpdAffine):
        assert np.array_equal(d, want)
    else:
        assert np.all(np.abs(d - want) <= 1e-12 * want)


def test_row_geodesic_rejects_an_antipodal_row():
    sph = Sphere(1.0)
    x = sph.base_point()
    X = np.stack([x, x, x])
    Y = np.stack([sph.exp_from_base(np.array([1.0, 0.0]), 1.0), x, -x])
    with pytest.raises(AntipodalError):
        sph.row_geodesic(X, Y, 0.5)
    assert sph.row_dist(X, Y)[2] == pytest.approx(math.pi)


@pytest.mark.parametrize("name", ["exp", "tangent_norm", "exp_from_base", "log", "row_exp",
                                  "row_tangent_norm", "row_exp_from_base"])
def test_tree_has_no_riemannian_maps(name):
    tree = star_tree()
    p = tree.vertex_point("o")
    with pytest.raises(NotImplementedError, match="metric trees have no Riemannian maps"):
        getattr(tree, name)(p, p)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_space_json_round_trip(space):
    again = space_from_json(json.loads(json.dumps(space_to_json(space))))
    assert again == space


@pytest.mark.parametrize("space", all_spaces(), ids=space_id)
def test_point_json_round_trip(space, rng):
    for _ in range(20):
        p = random_point(space, rng)
        obj = json.loads(json.dumps(point_to_json(space, p)))
        q = point_from_json(space, obj)
        assert space.dist(p, q) <= 1e-12


def test_point_space_tag_mismatch():
    space = Euclidean(2)
    obj = point_to_json(space, np.array([1.0, 2.0]))
    with pytest.raises(SpaceError):
        point_from_json(Euclidean(3), obj)


def test_unknown_space_kind():
    with pytest.raises(SpaceError):
        space_from_json({"kind": "banach"})
