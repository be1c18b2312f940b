"""Row-wise forms: each space writes its distance, geodesic and Riemannian
maps once, over stacks of points, and the scalar calls are the one-row
case."""

import math

import numpy as np
import pytest

from npcbary import Euclidean, Hyperbolic, MetricTree, SpaceError, SpdAffine, Sphere, TreePoint

from conftest import path_tree, random_point, star_tree

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


MODEL_SPACES = [Hyperbolic(-1.0), Hyperbolic(-2.5, 3), Sphere(1.0), Sphere(4.0, 3)]


@pytest.mark.parametrize("space", MODEL_SPACES, ids=repr)
def test_model_space_maps_match_the_textbook_formulas(space, rng):
    # the textbook forms, evaluated point by point with the math module:
    # theta = arccos or arccosh of kappa <x, y>, the geodesic
    # (sn((1 - t) theta) x + sn(t theta) y) / sn(theta), the log map
    # (theta / sn(theta)) (y - cs(theta) x) and the exponential
    # cs(|v|) x + sn(|v|) v / |v|, |v| in units of the curvature radius
    hyperbolic = isinstance(space, Hyperbolic)
    sn, cs, arc = (math.sinh, math.cosh, math.acosh) if hyperbolic else (
        math.sin, math.cos, math.acos)
    sign = np.ones(space.point_shape)
    if hyperbolic:
        sign[-1] = -1.0
    k = math.sqrt(abs(space.kappa))
    for _ in range(50):
        x, y = random_point(space, rng), random_point(space, rng)
        tol = 1e-10 * (1.0 + float(np.abs(x).max() + np.abs(y).max()))
        theta = arc(space.kappa * float(x @ (sign * y)))
        assert abs(space.dist(x, y) - theta / k) <= tol
        for t in (0.25, 0.5, 0.9):
            ref = (sn((1.0 - t) * theta) * x + sn(t * theta) * y) / sn(theta)
            assert np.abs(space.geodesic_point(x, y, t) - ref).max() <= tol
        v = space.log(x, y[None])[0][0]
        assert np.abs(v - theta / sn(theta) * (y - cs(theta) * x)).max() <= tol
        w = 0.5 * v
        r = k * math.sqrt(abs(float(w @ (sign * w))))
        ref = cs(r) * x + sn(r) / r * w
        assert np.abs(space.exp(x, w) - ref).max() <= tol


class ReferenceTree:
    """The scalar formulas of a metric tree on TreePoints, kept as the
    reference its stack forms must match bit for bit: the vertex table from
    one traversal per root, the route over the points' anchor vertices, the
    vertex path by parents, and the geodesic walked leg by leg."""

    def __init__(self, tree):
        self.idx = {v: i for i, v in enumerate(tree.vertices)}
        n = len(tree.vertices)
        self.low, self.high, self.length, self.pair_edge = [], [], [], {}
        adj = [[] for _ in range(n)]
        for eid, (u, v, ln) in enumerate(tree.edges):
            i, j = (self.idx[w] for w in sorted((u, v)))
            self.low.append(i)
            self.high.append(j)
            self.length.append(ln)
            self.pair_edge[i, j] = self.pair_edge[j, i] = eid
            adj[i].append((j, eid))
            adj[j].append((i, eid))
        self.table = np.zeros((n, n))
        self.parent = np.full((n, n), -1)
        for root in range(n):
            seen, stack = {root}, [root]
            while stack:
                cur = stack.pop()
                for nxt, eid in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        self.parent[root, nxt] = cur
                        self.table[root, nxt] = self.table[root, cur] + self.length[eid]
                        stack.append(nxt)
        self.vertices = tree.vertices

    def edge_point(self, eid, offset):
        ln = self.length[eid]
        offset = float(offset)
        slack = 1e-9 * (1.0 + ln)
        if not -slack <= offset <= ln + slack:
            raise SpaceError(f"offset {offset} outside [0, {ln}] on edge {eid}")
        if offset <= 1e-12 * (1.0 + ln):
            return TreePoint(vertex=self.vertices[self.low[eid]])
        if offset >= ln - 1e-12 * (1.0 + ln):
            return TreePoint(vertex=self.vertices[self.high[eid]])
        return TreePoint(edge=eid, offset=offset)

    def canonical(self, p):
        return p if p.vertex is not None else self.edge_point(p.edge, p.offset)

    def anchors(self, p):
        if p.vertex is not None:
            return [(self.idx[p.vertex], 0.0)]
        return [(self.low[p.edge], p.offset), (self.high[p.edge], self.length[p.edge] - p.offset)]

    def route(self, x, y):
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset), None, None
        best = None
        for ax, lx in self.anchors(x):
            for ay, ly in self.anchors(y):
                d = lx + self.table[ax, ay] + ly
                if best is None or d < best[0]:
                    best = (d, (ax, lx), (ay, ly))
        return best

    def dist(self, x, y):
        return self.route(self.canonical(x), self.canonical(y))[0]

    def vertex_path(self, a, b):
        path = [b]
        while path[-1] != a:
            path.append(int(self.parent[a, path[-1]]))
        return path[::-1]

    def geodesic_point(self, x, y, t):
        if not 0.0 <= t <= 1.0:
            raise SpaceError(f"geodesic parameter t={t} outside [0, 1]")
        x, y = self.canonical(x), self.canonical(y)
        d, exit_x, entry_y = self.route(x, y)
        target = t * d
        if d == 0.0 or target <= 0.0:
            return x
        if target >= d:
            return y
        if exit_x is None:
            return self.edge_point(x.edge, x.offset + math.copysign(target, y.offset - x.offset))
        (ax, lx), (ay, ly) = exit_x, entry_y
        rem = target
        if x.edge is not None:
            if rem < lx:
                return self.edge_point(
                    x.edge, x.offset - rem if ax == self.low[x.edge] else x.offset + rem)
            rem -= lx
        path = self.vertex_path(ax, ay)
        for cur, nxt in zip(path, path[1:]):
            eid = self.pair_edge[cur, nxt]
            ln = self.length[eid]
            if rem < ln:
                return self.edge_point(eid, rem if cur == self.low[eid] else ln - rem)
            rem -= ln
        if y.edge is None:
            return y
        rem = min(rem, self.length[y.edge])
        ln = self.length[y.edge]
        return self.edge_point(y.edge, rem if ay == self.low[y.edge] else ln - rem)


def branching_path_tree():
    """A tree whose vertex paths run up to five edges, through a branch."""
    return MetricTree(vertices=("a", "b", "c", "d", "e", "f", "g"),
                      edges=(("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 0.5),
                             ("d", "e", 1.25), ("c", "f", 0.75), ("f", "g", 0.3)))


def _tree_points(tree, rng):
    """Every vertex; two points on each edge, for same-edge pairs; points on
    and just inside each edge's snap margins; and random points."""
    pts = tree.all_vertex_points()
    for eid, (_, _, ln) in enumerate(tree.edges):
        margin = 1e-12 * (1.0 + ln)
        pts += [TreePoint(edge=eid, offset=f * ln) for f in (0.3, 0.6)]
        pts += [TreePoint(edge=eid, offset=off)
                for off in (margin, 2.0 * margin, ln - 2.0 * margin, ln - margin)]
    return pts + [random_point(tree, rng) for _ in range(10)]


@pytest.mark.parametrize("tree", [star_tree(), path_tree(), branching_path_tree()],
                         ids=["star", "path", "branching"])
def test_tree_stacks_match_the_reference_formulas_bitwise(tree, rng):
    ref = ReferenceTree(tree)
    pts = _tree_points(tree, rng)
    pairs = [(x, y) for x in pts for y in pts]
    xs, ys = (list(c) for c in zip(*pairs))
    X, Y = tree.stack(xs), tree.stack(ys)

    def same(stack, want):
        got = tree.unstack(stack)
        assert got == want
        assert [type(p.offset) for p in got] == [type(p.offset) for p in want]

    assert tree.row_dist(X, Y).tolist() == [ref.dist(x, y) for x, y in pairs]
    for t in (0.0, 1e-13, 0.4, 1.0 - 1e-13, 1.0):
        same(tree.row_geodesic(X, Y, t), [ref.geodesic_point(x, y, t) for x, y in pairs])
    ts = rng.uniform(size=len(pairs))
    same(tree.row_geodesic(X, Y, ts), [ref.geodesic_point(x, y, t)
                                       for (x, y), t in zip(pairs, ts.tolist())])
    # from each edge's lower end toward its upper end, to offsets on the margins
    lows, highs = zip(*((ref.vertices[ref.low[e]], ref.vertices[ref.high[e]])
                        for e in range(len(tree.edges))))
    ends = [TreePoint(vertex=v) for v in lows], [TreePoint(vertex=v) for v in highs]
    for f in (1.0, 2.0):
        tm = np.array([f * 1e-12 * (1.0 + ln) / ln for (_, _, ln) in tree.edges])
        for t in (tm, 1.0 - tm):
            same(tree.row_geodesic(tree.stack(ends[0]), tree.stack(ends[1]), t),
                 [ref.geodesic_point(x, y, s) for x, y, s in zip(*ends, t.tolist())])
    # the scalar calls are the one-row case
    for x, y in pairs[::7]:
        assert tree.dist(x, y) == ref.dist(x, y)
        assert tree.geodesic_point(x, y, 0.4) == ref.geodesic_point(x, y, 0.4)
    # one point, as a row of its stack, stands for every row
    P = tree.stack(pts)
    for i in (0, len(pts) - 1):
        assert tree.row_dist(P, P[i]).tolist() == [ref.dist(x, pts[i]) for x in pts]
        same(tree.row_geodesic(P[i], P, 0.4), [ref.geodesic_point(pts[i], y, 0.4) for y in pts])
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(SpaceError):
            tree.row_geodesic(X, Y, bad)
        ts[3] = bad
        with pytest.raises(SpaceError):
            tree.row_geodesic(X, Y, ts)


@pytest.mark.parametrize("space", ROW_SPACES + [star_tree()], ids=repr)
def test_one_t_per_row(space, rng):
    xs = space.stack([random_point(space, rng) for _ in range(9)])
    ys = space.stack([random_point(space, rng) for _ in range(9)])
    ts = rng.uniform(size=9)
    ts[[0, 4]] = (0.0, 1.0)
    g = space.unstack(space.row_geodesic(xs, ys, ts))
    for x, y, t, gi in zip(space.unstack(xs), space.unstack(ys), ts.tolist(), g):
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
