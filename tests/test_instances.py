"""Random instances are drawn in the stream order of a per-instance loop and
placed on the space a block at a time; metric trees pass canonical points
through unchanged and still validate and snap every other point."""

import json
import math

import numpy as np
import pytest

from npcbary import Euclidean, Hyperbolic, SpaceError, SpdAffine, Sphere
from npcbary.experiments import (PERTURB_SCALE, _draw_instances, _perturb, _tuple_pairs,
                                 perturbed_tuple, random_point, random_points)
from npcbary.spaces import TreePoint, spd_exp, sym_part

from conftest import path_tree, star_tree

EXACT_SPACES = [Euclidean(3), SpdAffine(2), SpdAffine(3), star_tree(), path_tree()]
# at kappa = -0.1 the re-projection onto the sheet moves the base point by an ulp
CURVED_SPACES = [Hyperbolic(-1.0, 3), Hyperbolic(-2.5, 3), Hyperbolic(-0.1), Sphere(1.0),
                 Sphere(2.0, 3)]


def _reference_point(space, rng, place=True):
    """One point drawn by the per-point calls (``uniform`` for every uniform
    variate) and placed on its own by the per-point formulas: the normals,
    the exponential of a symmetric matrix, the exp map at the base point, or
    an edge point.  With ``place=False``, its variates instead, as
    :func:`_place_reference` takes them."""
    if isinstance(space, Euclidean):
        return rng.standard_normal(space.dim)
    if isinstance(space, SpdAffine):
        m = rng.uniform(-1.0, 1.0, (space.p, space.p))
        return spd_exp(sym_part(m)) if place else m
    if isinstance(space, (Hyperbolic, Sphere)):
        u = rng.standard_normal(space.dim)
        u /= math.sqrt(float(u @ u))
        hyp = isinstance(space, Hyperbolic)
        r = rng.uniform(0.0, 2.0 if hyp else math.pi / (4.0 * math.sqrt(space.kappa)))
        if not place:
            return u, r
        v = np.zeros(space.point_shape)
        v[slice(0, -1) if hyp else slice(1, None)] = r * u
        return space.exp(space.base_point(), v)
    eid = int(rng.integers(len(space.edges)))
    off = float(rng.uniform(0.0, space.edges[eid][2]))
    return space.edge_point(eid, off) if place else TreePoint(edge=eid, offset=off)


def _place_reference(space, variates):
    """The stack of the points whose variates ``_reference_point`` drew,
    placed as one block."""
    if isinstance(space, Euclidean):
        return np.array(variates)
    if isinstance(space, SpdAffine):
        return spd_exp(sym_part(np.array(variates)))
    if isinstance(space, (Hyperbolic, Sphere)):
        dirs, radii = zip(*variates)
        return space.row_exp_from_base(np.array(dirs), np.array(radii))
    return space.stack(variates)


def _draws(space, k=40, seed=11):
    """k points three ways from equal generators: one block, k successive
    one-point calls, and the per-point reference formulas."""
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    block = space.unstack(random_points(space, rngs[0], k))
    singles = [random_point(space, rngs[1]) for _ in range(k)]
    refs = [_reference_point(space, rngs[2]) for _ in range(k)]
    # all three generators are left in the same state
    assert len({r.random() for r in rngs}) == 1
    assert len(block) == len(singles) == k
    return block, singles, refs


@pytest.mark.parametrize("space", EXACT_SPACES, ids=repr)
def test_block_equals_successive_draws_bitwise(space):
    block, singles, refs = _draws(space)
    for b, s, r in zip(block, singles, refs):
        if isinstance(s, TreePoint):
            assert b == s == r and type(b.offset) is type(s.offset) is type(r.offset)
        else:
            assert np.array_equal(b, s) and np.array_equal(b, r)


@pytest.mark.parametrize("space", CURVED_SPACES, ids=repr)
def test_block_matches_successive_draws_and_the_exp_map(space):
    block, singles, refs = _draws(space)
    for b, s, r in zip(block, singles, refs):
        assert np.abs(b - s).max() <= 1e-12 * (1.0 + np.linalg.norm(s))
        assert np.abs(b - r).max() <= 1e-12 * (1.0 + np.linalg.norm(r))
        assert space.validate_point(b) is None


DRAW_SPACES = [Euclidean(3), SpdAffine(2), SpdAffine(3), Hyperbolic(-1.0, 3), Sphere(2.0, 3),
               star_tree(), path_tree()]
# points, then plain uniforms, per instance
LAYOUTS = {"midpoint": (3, 0), "constant_speed": (2, 2), "perturbation": (1, 1), "points": (1, 0)}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("space", DRAW_SPACES, ids=repr)
def test_layout_draws_equal_a_per_instance_loop_bitwise(space, layout):
    points, uniforms = LAYOUTS[layout]
    k = 37
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    stacks, u = _draw_instances(space, rng, k, points, uniforms)
    variates, ref_u = [], []
    for _ in range(k):
        variates += [_reference_point(space, ref_rng, place=False) for _ in range(points)]
        ref_u += [ref_rng.uniform() for _ in range(uniforms)]
    ref = _place_reference(space, variates)
    assert len(stacks) == points
    for j, stack in enumerate(stacks):
        assert stack.shape == ref[j::points].shape and np.array_equal(stack, ref[j::points])
    assert u.shape == (k, uniforms) and np.array_equal(u.ravel(), ref_u)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("space", DRAW_SPACES, ids=repr)
def test_perturbation_equals_a_per_point_loop_bitwise(space):
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    xs = random_points(space, rng, 9)
    ref_rng.bit_generator.state = rng.bit_generator.state
    ys = perturbed_tuple(space, rng, space.unstack(xs))
    targets, ts = [], []
    for _ in range(9):  # per point: its target's variates, then its fraction
        targets.append(_reference_point(space, ref_rng, place=False))
        ts.append(ref_rng.uniform(0.0, PERTURB_SCALE))
    ref = space.row_geodesic(xs, _place_reference(space, targets), np.array(ts))
    assert np.array_equal(space.stack(ys), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("space", DRAW_SPACES, ids=repr)
def test_tuple_pairs_placed_once_equal_per_pair_draws_bitwise(space):
    # each pair drawn and placed on its own: its n, its tuple, then its
    # perturbation targets and fractions
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    ns, X, Y = _tuple_pairs(space, rng, 14, (1, 9))
    ref_ns, xs, ys = [], [], []
    for _ in range(14):
        n = int(ref_rng.integers(1, 10))
        x = random_points(space, ref_rng, n)
        (targets,), u = _draw_instances(space, ref_rng, n, 1, 1)
        ref_ns.append(n), xs.append(x), ys.append(_perturb(space, x, targets, u))
    assert list(ns) == ref_ns
    for got, want in ((X, np.concatenate(xs)), (Y, np.concatenate(ys))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _ZeroNormals:
    """A generator whose normals are all zero; it must not be asked for a
    radius once the direction is zero."""

    def standard_normal(self, size):
        return np.zeros(size)

    def uniform(self, *args):
        raise AssertionError("a zero direction draws no radius")

    random = uniform


@pytest.mark.parametrize("space", CURVED_SPACES, ids=repr)
def test_zero_direction_gives_the_base_point(space):
    base = space.base_point()
    assert np.array_equal(random_point(space, _ZeroNormals()), base)
    assert np.array_equal(space.exp_from_base(np.zeros(space.dim), 0.7), base)
    dirs = np.zeros((3, space.dim))
    dirs[0, 0] = dirs[2, -1] = 1.0
    radii = np.array([0.4, 0.9, 0.6])
    rows = space.row_exp_from_base(dirs, radii)
    assert np.array_equal(rows[1], base)
    for d, r, row in zip(dirs[::2], radii[::2], rows[::2]):
        assert np.array_equal(space.exp_from_base(d, r), row)


def test_canonical_tree_points_pass_through(rng):
    tree = path_tree()
    points = [tree.vertex_point(v) for v in tree.vertices]
    points += [random_point(tree, rng) for _ in range(20)]
    for p in points:
        assert tree._canonical(p) is p
        assert tree.validate_point(p) is None


@pytest.mark.parametrize("near", ["low", "high"])
def test_offsets_at_an_endpoint_still_snap(near):
    tree = path_tree()
    eid, length = 1, tree.edges[1][2]  # the edge b-c
    vertex = TreePoint(vertex="b" if near == "low" else "c")
    offsets = (0.0, 1e-14, 0) if near == "low" else (length, length - 1e-14, 2)
    other = TreePoint(vertex="a")
    for off in offsets:
        p = TreePoint(edge=eid, offset=off)
        assert tree._canonical(p) == vertex
        assert tree.dist(p, other) == tree.dist(vertex, other)
        assert tree.geodesic_point(p, other, 0.0) == vertex
        assert tree.geodesic_point(other, p, 1.0) == vertex
        assert tree.payload_to_json(p) == {"vertex": vertex.vertex}


def test_int_offset_still_serialises_as_a_float():
    tree = path_tree()
    p = TreePoint(edge=1, offset=1)
    q = tree._canonical(p)
    assert q is not p and type(q.offset) is float
    assert json.dumps(tree.payload_to_json(p)) == json.dumps(
        tree.payload_to_json(TreePoint(edge=1, offset=1.0))) == '{"edge": 1, "offset": 1.0}'
    assert tree.dist(p, TreePoint(vertex="c")) == 1.0


@pytest.mark.parametrize("bad", [
    TreePoint(vertex="z"),
    TreePoint(edge=2, offset=0.5),
    TreePoint(edge=-1, offset=0.5),
    TreePoint(edge=0, offset=math.nan),
    TreePoint(edge=0, offset=1.0 + 1e-6),
], ids=["unknown-vertex", "edge-past-range", "negative-edge", "nan-offset", "offset-past-length"])
def test_invalid_tree_points_still_raise(bad):
    tree = path_tree()
    good = TreePoint(vertex="a")
    assert tree.validate_point(bad) is not None
    for call in (lambda: tree.dist(bad, good), lambda: tree.geodesic_point(good, bad, 0.5),
                 lambda: tree.payload_to_json(bad)):
        with pytest.raises(SpaceError):
            call()
