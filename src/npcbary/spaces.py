"""Geodesic metric spaces with exact distance and geodesic-point formulas.

Five concrete spaces are implemented:

* ``Euclidean(dim)``      -- R^d with the usual norm; geodesics are segments.
* ``Hyperbolic(kappa)``   -- hyperboloid sheet of constant curvature kappa < 0
                             in Minkowski space R^{d,1}.
* ``SpdAffine(p)``        -- symmetric positive definite p x p matrices with the
                             affine-invariant metric d(A,B) = ||log(A^-1/2 B A^-1/2)||_F.
* ``MetricTree(...)``     -- a finite tree with positive edge lengths and the
                             path-length metric.
* ``Sphere(kappa)``       -- round sphere of radius 1/sqrt(kappa), kappa > 0,
                             with the arc-length metric.

The first four are non-positively curved (the midpoint inequality holds for
every triple); the sphere is positively curved and geodesics between antipodal
points are rejected as non-unique.

Points are raw payloads: numpy vectors for Euclidean / Hyperbolic / Sphere,
numpy (p, p) matrices for SpdAffine, and :class:`TreePoint` for MetricTree.
All operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

# Relative tolerance for point-invariant checks (hyperboloid / sphere / SPD
# membership). Double-precision eigendecomposition error dominates.
REL_POINT_TOL = 1e-9

# Below this, eigenvalues are clamped to 1e-12 * (largest eigenvalue) before
# fractional powers or logs of symmetric matrices.
_EIG_FLOOR_REL = 1e-12


class SpaceError(ValueError):
    """Invalid point payload, malformed space definition, or space mismatch."""


class AntipodalError(SpaceError):
    """Antipodal sphere pair: the connecting geodesic is not unique."""


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise SpaceError(f"geodesic parameter t={t} outside [0, 1]")
    return t


def _over(theta: np.ndarray, fn) -> np.ndarray:
    """theta / fn(theta) elementwise, with its limit 1 at theta = 0, for the
    log-map scale factors theta / sin(theta) and theta / sinh(theta)."""
    return np.divide(theta, fn(theta), out=np.ones_like(theta), where=theta > 0)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class Space:
    """Common interface of all concrete spaces.  The defaults serve the array
    spaces, whose points are float arrays of shape ``point_shape``."""

    kind: str = ""

    def dist(self, x, y) -> float:
        raise NotImplementedError

    def geodesic_point(self, x, y, t: float):
        """Point gamma_{x,y}(t) on the constant-speed geodesic from x to y."""
        raise NotImplementedError

    # Riemannian maps of the smooth spaces (metric trees have none) ----------

    def log(self, x, ys) -> tuple[np.ndarray, np.ndarray]:
        """Tangent vectors log_x(y) at x for a stack ``ys`` of points (leading
        axis of atoms), with their norms, which are the distances d(x, y)."""
        raise NotImplementedError

    def exp(self, x, v):
        """Point reached at time 1 along the geodesic leaving x with velocity v."""
        raise NotImplementedError

    def tangent_norm(self, x, v) -> float:
        """Riemannian norm of the tangent vector v at x."""
        raise NotImplementedError

    def validate_point(self, p) -> str | None:
        """Return None if ``p`` is a valid point, else a diagnostic string."""
        try:
            q = np.asarray(p, dtype=float)
        except (TypeError, ValueError):
            return "not a numeric array"
        if q.shape != self.point_shape:
            return f"expected an array of shape {self.point_shape}, got shape {q.shape}"
        if not np.all(np.isfinite(q)):
            return "non-finite entry"
        return self._constraint_violation(q)

    def _constraint_violation(self, q: np.ndarray) -> str | None:
        """Diagnostic for a finite array of the right shape off the manifold."""
        return None

    def check_point(self, p):
        """Validate ``p``, raising :class:`SpaceError` with the diagnostic."""
        diag = self.validate_point(p)
        if diag is not None:
            raise SpaceError(f"{self.kind}: {diag}")
        return p

    def midpoint(self, x, y):
        return self.geodesic_point(x, y, 0.5)

    # serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    def payload_to_json(self, p):
        return np.asarray(p, dtype=float).tolist()

    def payload_from_json(self, payload):
        return np.asarray(self.check_point(_numbers(payload, self.kind)), dtype=float)


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Euclidean(Space):
    dim: int

    kind = "euclidean"

    def __post_init__(self):
        if self.dim < 1:
            raise SpaceError("euclidean: dimension must be >= 1")

    @property
    def point_shape(self) -> tuple:
        return (self.dim,)

    def dist(self, x, y) -> float:
        d = x - y
        return math.sqrt(float(d @ d))

    def geodesic_point(self, x, y, t):
        t = _check_t(t)
        return (1.0 - t) * x + t * y

    def log(self, x, ys):
        vs = ys - x
        return vs, np.sqrt(np.einsum("ij,ij->i", vs, vs))

    def exp(self, x, v):
        return x + v

    def tangent_norm(self, x, v) -> float:
        return math.sqrt(float(v @ v))


# ---------------------------------------------------------------------------
# Hyperbolic (hyperboloid model)
# ---------------------------------------------------------------------------


def _mink(x: np.ndarray, y: np.ndarray) -> float:
    """Minkowski form x1*y1 + ... + xd*yd - x_{d+1}*y_{d+1}."""
    return float(x @ y) - 2.0 * float(x[-1]) * float(y[-1])


@dataclass(frozen=True)
class Hyperbolic(Space):
    """Hyperboloid sheet {x : <x,x>_M = 1/kappa, x_{d+1} > 0}, kappa < 0.

    Distance is arccosh(kappa * <x,y>_M) / sqrt(-kappa).  Geodesics use the
    closed form gamma(t) = cosh(t*s)*x + sinh(t*s)*u with s the rapidity
    d(x,y)*sqrt(-kappa) and u the initial direction, re-projected onto the
    sheet to control rounding drift.
    """

    kappa: float
    dim: int = 2

    kind = "hyperbolic"

    def __post_init__(self):
        if not self.kappa < 0:
            raise SpaceError("hyperbolic: curvature kappa must be < 0")
        if self.dim < 1:
            raise SpaceError("hyperbolic: dimension must be >= 1")

    @property
    def point_shape(self) -> tuple:
        return (self.dim + 1,)

    def base_point(self) -> np.ndarray:
        x = np.zeros(self.point_shape)
        x[-1] = 1.0 / math.sqrt(-self.kappa)
        return x

    def dist(self, x, y) -> float:
        # arcsinh of the half Minkowski chord: equal to
        # arccosh(kappa*<x,y>_M)/sqrt(-kappa) but accurate for nearby points,
        # where the arccosh form loses half the significand to cancellation
        d = x - y
        q = float(d @ d) - 2.0 * float(d[-1]) * float(d[-1])
        if q <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(-self.kappa * q)) / math.sqrt(-self.kappa)

    def geodesic_point(self, x, y, t):
        t = _check_t(t)
        sk = math.sqrt(-self.kappa)
        d = self.dist(x, y)
        s = d * sk
        if s < 1e-14:
            return x.copy()
        ch, sh = math.cosh(s), math.sinh(s)
        u = (y - ch * x) / sh
        out = math.cosh(t * s) * x + math.sinh(t * s) * u
        # re-project onto the sheet: <out,out>_M should equal 1/kappa
        q = self.kappa * _mink(out, out)
        if q > 0:
            out /= math.sqrt(q)
        return out

    def log(self, x, ys):
        # the rapidity theta = d * sqrt(-kappa) from the Minkowski chord q, as
        # in dist; y - cosh(theta) x is formed as (y - x) + (kappa q / 2) x,
        # since cosh(theta) - 1 = -kappa q / 2, free of cancellation for
        # nearby pairs
        d = ys - x
        q = np.maximum(np.einsum("ij,ij->i", d, d) - 2.0 * d[:, -1] ** 2, 0.0)
        theta = 2.0 * np.arcsinh(0.5 * np.sqrt(-self.kappa * q))
        u = d + (0.5 * self.kappa * q)[:, None] * x
        return _over(theta, np.sinh)[:, None] * u, theta / math.sqrt(-self.kappa)

    def exp(self, x, v):
        theta = self.tangent_norm(x, v) * math.sqrt(-self.kappa)
        if theta == 0.0:
            return x.copy()
        out = math.cosh(theta) * x + (math.sinh(theta) / theta) * v
        q = self.kappa * _mink(out, out)
        if q > 0:
            out /= math.sqrt(q)
        return out

    def tangent_norm(self, x, v) -> float:
        return math.sqrt(max(_mink(v, v), 0.0))

    def exp_from_base(self, direction: np.ndarray, radius: float) -> np.ndarray:
        """Point at metric distance ``radius`` from the base point, in the
        tangent direction given by a Euclidean unit vector of length dim."""
        v = np.zeros(self.point_shape)
        v[:-1] = radius * np.asarray(direction, dtype=float)
        return self.exp(self.base_point(), v)

    def _constraint_violation(self, q):
        if q[-1] <= 0:
            return f"last coordinate must be > 0 (upper sheet), got {q[-1]}"
        m = self.kappa * _mink(q, q)
        scale = max(1.0, abs(self.kappa) * float(q @ q))
        if abs(m - 1.0) > REL_POINT_TOL * scale:
            return f"not on the hyperboloid sheet: kappa*<x,x>_M = {m}, expected 1"
        return None


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sphere(Space):
    """Round sphere of radius 1/sqrt(kappa) in R^{d+1}, kappa > 0, with the
    arc metric d(x,y) = arccos(kappa x.y) / sqrt(kappa).

    Geodesics between antipodal points are not unique and raise
    :class:`AntipodalError`.
    """

    kappa: float
    dim: int = 2

    kind = "sphere"

    def __post_init__(self):
        if not self.kappa > 0:
            raise SpaceError("sphere: curvature kappa must be > 0")
        if self.dim < 1:
            raise SpaceError("sphere: dimension must be >= 1")

    @property
    def point_shape(self) -> tuple:
        return (self.dim + 1,)

    @property
    def radius(self) -> float:
        return 1.0 / math.sqrt(self.kappa)

    def base_point(self) -> np.ndarray:
        x = np.zeros(self.point_shape)
        x[0] = self.radius
        return x

    def dist(self, x, y) -> float:
        # arcsin of the half chord on the near side, complement of it past a
        # quarter turn: matches arccos(kappa x.y)/sqrt(kappa) but stays
        # accurate for nearby and near-antipodal pairs
        sk = math.sqrt(self.kappa)
        if self.kappa * float(x @ y) >= 0.0:
            d = x - y
            half = 0.5 * sk * math.sqrt(float(d @ d))
            return 2.0 * math.asin(min(1.0, half)) / sk
        s = x + y
        half = 0.5 * sk * math.sqrt(float(s @ s))
        return (math.pi - 2.0 * math.asin(min(1.0, half))) / sk

    def geodesic_point(self, x, y, t):
        t = _check_t(t)
        sk = math.sqrt(self.kappa)
        omega = self.dist(x, y) * sk  # angle subtended at the center
        if omega < 1e-14:
            return x.copy()
        if omega >= math.pi * (1.0 - 1e-9):
            raise AntipodalError(
                "antipodal sphere points: the connecting geodesic is not unique"
            )
        so = math.sin(omega)
        out = (math.sin((1.0 - t) * omega) * x + math.sin(t * omega) * y) / so
        nrm = math.sqrt(float(out @ out))
        if nrm > 0:
            out *= self.radius / nrm
        return out

    def log(self, x, ys):
        # the angle theta = d * sqrt(kappa) is twice the angle between the
        # chords y - x and y + x, accurate for nearby and near-antipodal pairs;
        # y - cos(theta) x is formed as (y - x) + (kappa |y - x|^2 / 2) x,
        # since 1 - cos(theta) = kappa |y - x|^2 / 2
        d = ys - x
        s = ys + x
        chord2 = np.einsum("ij,ij->i", d, d)
        theta = 2.0 * np.arctan2(np.sqrt(chord2), np.sqrt(np.einsum("ij,ij->i", s, s)))
        if theta.max() >= math.pi * (1.0 - 1e-9):
            raise AntipodalError("antipodal sphere points: the log map is not unique")
        u = d + (0.5 * self.kappa * chord2)[:, None] * x
        return _over(theta, np.sin)[:, None] * u, theta / math.sqrt(self.kappa)

    def exp(self, x, v):
        theta = self.tangent_norm(x, v) * math.sqrt(self.kappa)
        if theta == 0.0:
            return x.copy()
        out = math.cos(theta) * x + (math.sin(theta) / theta) * v
        out *= self.radius / math.sqrt(float(out @ out))
        return out

    def tangent_norm(self, x, v) -> float:
        return math.sqrt(float(v @ v))

    def exp_from_base(self, direction: np.ndarray, radius: float) -> np.ndarray:
        """Walk ``radius`` along the great circle leaving the base point in the
        tangent direction (a Euclidean unit vector orthogonal to e_1)."""
        v = np.zeros(self.point_shape)
        v[1:] = radius * np.asarray(direction, dtype=float)
        return self.exp(self.base_point(), v)

    def _constraint_violation(self, q):
        nrm = math.sqrt(float(q @ q))
        if abs(nrm - self.radius) > REL_POINT_TOL * self.radius:
            return f"norm violation: |x| = {nrm}, expected {self.radius}"
        return None


# ---------------------------------------------------------------------------
# SPD matrices, affine-invariant metric
# ---------------------------------------------------------------------------


def _eig2(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """Eigendecomposition of the symmetric 2x2 matrix [[a, b], [b, c]].

    Returns (l1, l2, co, si) with l1 <= l2; the eigenvector of l2 is
    (co, si) and the eigenvector of l1 is (-si, co).
    """
    if b == 0.0:
        if a >= c:
            return c, a, 1.0, 0.0
        return a, c, 0.0, 1.0
    half = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    return half - disc, half + disc, math.cos(theta), math.sin(theta)


def _sym2_from_eig(m1: float, m2: float, co: float, si: float):
    """Recompose m1 * v1 v1^T + m2 * v2 v2^T for the _eig2 eigenvectors."""
    r11 = m1 * si * si + m2 * co * co
    r12 = (m2 - m1) * co * si
    r22 = m1 * co * co + m2 * si * si
    return r11, r12, r22


def _spd2_congruence(A: np.ndarray, B: np.ndarray):
    """A's clamped eigenvalue square roots and eigenvector, (s1, s2, co, si)
    in the _eig2 convention, and M = A^{-1/2} B A^{-1/2} as (m11, m12, m22).
    The closed-form 2x2 path avoids LAPACK call overhead in hot loops."""
    a = float(A[0, 0]); b = 0.5 * (float(A[0, 1]) + float(A[1, 0])); c = float(A[1, 1])
    l1, l2, co, si = _eig2(a, b, c)
    floor = _EIG_FLOOR_REL * max(l2, 1e-300)
    s1 = math.sqrt(max(l1, floor)); s2 = math.sqrt(max(l2, floor))
    p11, p12, p22 = _sym2_from_eig(1.0 / s1, 1.0 / s2, co, si)  # A^{-1/2}

    b11 = float(B[0, 0]); b12 = 0.5 * (float(B[0, 1]) + float(B[1, 0])); b22 = float(B[1, 1])
    t11 = p11 * b11 + p12 * b12; t12 = p11 * b12 + p12 * b22
    t21 = p12 * b11 + p22 * b12; t22 = p12 * b12 + p22 * b22
    m11 = t11 * p11 + t12 * p12
    m22 = t21 * p12 + t22 * p22
    m12 = 0.5 * ((t11 * p12 + t12 * p22) + (t21 * p11 + t22 * p12))
    return (s1, s2, co, si), (m11, m12, m22)


def _spd2_geodesic(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    (s1, s2, co, si), (m11, m12, m22) = _spd2_congruence(A, B)
    q11, q12, q22 = _sym2_from_eig(s1, s2, co, si)        # A^{1/2}
    u1, u2, co2, si2 = _eig2(m11, m12, m22)
    floor = _EIG_FLOOR_REL * max(u2, 1e-300)
    w1 = max(u1, floor) ** t
    w2 = max(u2, floor) ** t
    n11, n12, n22 = _sym2_from_eig(w1, w2, co2, si2)      # M^t

    # out = A^{1/2} M^t A^{1/2}
    t11 = q11 * n11 + q12 * n12; t12 = q11 * n12 + q12 * n22
    t21 = q12 * n11 + q22 * n12; t22 = q12 * n12 + q22 * n22
    o11 = t11 * q11 + t12 * q12
    o22 = t21 * q12 + t22 * q22
    o12 = 0.5 * ((t11 * q12 + t12 * q22) + (t21 * q11 + t22 * q12))
    return np.array([[o11, o12], [o12, o22]])


def _spd2_dist(A: np.ndarray, B: np.ndarray) -> float:
    # eigenvalues of M = A^{-1/2} B A^{-1/2} computed through M itself: the
    # generalized-eigenvalue quadratic in det/trace form loses half the
    # significand to discriminant cancellation when A and B are close
    _, (m11, m12, m22) = _spd2_congruence(A, B)
    u1, u2, _, _ = _eig2(m11, m12, m22)
    floor = _EIG_FLOOR_REL * max(u2, 1e-300)
    return math.hypot(math.log(max(u1, floor)), math.log(max(u2, floor)))


def sym_part(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _eigh_clamped(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, U = np.linalg.eigh(sym_part(M))
    floor = _EIG_FLOOR_REL * max(float(w[-1]), 1e-300)
    return np.maximum(w, floor), U


def spd_power(M: np.ndarray, s: float) -> np.ndarray:
    """M^s for symmetric M via eigendecomposition, eigenvalues clamped below
    at 1e-12 times the largest, result re-symmetrized."""
    w, U = _eigh_clamped(M)
    return sym_part((U * w**s) @ U.T)


def _spd_roots(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A^{1/2} and A^{-1/2} from one clamped eigendecomposition."""
    w, U = _eigh_clamped(A)
    return (U * w**0.5) @ U.T, (U * w**-0.5) @ U.T


def spd_exp(S: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(sym_part(S))
    return sym_part((U * np.exp(w)) @ U.T)


@dataclass(frozen=True)
class SpdAffine(Space):
    """Symmetric positive definite p x p matrices with the affine-invariant
    metric d(A,B) = ||log(A^-1/2 B A^-1/2)||_F.

    The geodesic from A to B is the weighted geometric mean
    A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.
    """

    p: int

    kind = "spd_affine"

    def __post_init__(self):
        if self.p < 1:
            raise SpaceError("spd_affine: matrix size p must be >= 1")

    @property
    def point_shape(self) -> tuple:
        return (self.p, self.p)

    def dist(self, x, y) -> float:
        if self.p == 2:
            return _spd2_dist(x, y)
        w, U = _eigh_clamped(x)
        isq = (U * w**-0.5) @ U.T
        w, _ = _eigh_clamped(isq @ y @ isq)
        return math.sqrt(float(np.sum(np.log(w) ** 2)))

    def geodesic_point(self, x, y, t):
        t = _check_t(t)
        if self.p == 2:
            return _spd2_geodesic(x, y, t)
        sq, isq = _spd_roots(x)
        return sym_part(sq @ spd_power(isq @ y @ isq, t) @ sq)

    def log(self, x, ys):
        # log_x(y) = x^{1/2} log(x^{-1/2} y x^{-1/2}) x^{1/2}: one
        # eigendecomposition of x and one stacked over the atoms
        sq, isq = _spd_roots(x)
        lam, V = np.linalg.eigh(sym_part(isq @ ys @ isq))
        logs = np.log(np.maximum(lam, _EIG_FLOOR_REL * np.maximum(lam[:, -1:], 1e-300)))
        vs = sym_part(sq @ (V * logs[:, None, :]) @ np.swapaxes(V, -1, -2) @ sq)
        return vs, np.sqrt(np.sum(logs**2, axis=1))

    def exp(self, x, v):
        sq, isq = _spd_roots(x)
        return sym_part(sq @ spd_exp(isq @ v @ isq) @ sq)

    def tangent_norm(self, x, v) -> float:
        # ||x^{-1/2} v x^{-1/2}||_F^2 = tr(a a) with a = x^{-1} v
        a = np.linalg.solve(x, v)
        return math.sqrt(max(float(np.sum(a * a.T)), 0.0))

    def _constraint_violation(self, q):
        scale = max(1.0, float(np.abs(q).max()))
        if float(np.abs(q - q.T).max()) > REL_POINT_TOL * scale:
            return "not symmetric"
        wmin = float(np.linalg.eigvalsh(sym_part(q))[0])
        if wmin <= 0:
            return f"positivity violation (smallest eigenvalue {wmin})"
        return None


# ---------------------------------------------------------------------------
# metric trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreePoint:
    """A point of a metric tree: either a vertex (by id) or an interior point
    of an edge, located by the edge index and the arclength offset measured
    from the edge's lower-id endpoint."""

    vertex: Any = None
    edge: int | None = None
    offset: float = 0.0

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise SpaceError("tree point must have exactly one of vertex / edge set")


def _edge_key(u, v):
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, eq=False)
class MetricTree(Space):
    """A finite tree with positive edge lengths under the path-length metric.

    ``vertices`` is a sequence of hashable, mutually comparable ids (all
    strings or all integers); ``edges`` lists (u, v, length) triples.  The
    structure must be connected and acyclic.  Vertex-pair distances and
    shortest-path parents are precomputed once (O(V^2) traversal), so
    point-to-point queries reduce to table lookups plus offset arithmetic.
    """

    vertices: tuple
    edges: tuple

    kind = "metric_tree"

    # derived tables, filled in __post_init__
    _idx: dict = field(default=None, repr=False, compare=False)
    _elow: tuple = field(default=None, repr=False, compare=False)
    _ehigh: tuple = field(default=None, repr=False, compare=False)
    _elen: tuple = field(default=None, repr=False, compare=False)
    _adj: tuple = field(default=None, repr=False, compare=False)
    _dist_table: np.ndarray = field(default=None, repr=False, compare=False)
    _parent: np.ndarray = field(default=None, repr=False, compare=False)
    _pair_edge: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(self.vertices)
        edges = tuple((e[0], e[1], float(e[2])) for e in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)

        if len(verts) < 1:
            raise SpaceError("tree must have at least one vertex")
        if len(set(verts)) != len(verts):
            raise SpaceError("duplicate vertex ids")
        idx = {v: i for i, v in enumerate(verts)}
        if len(edges) != len(verts) - 1:
            raise SpaceError(
                f"tree needs |edges| = |vertices| - 1, got {len(edges)} edges for {len(verts)} vertices"
            )

        elow, ehigh, elen = [], [], []
        adj: list[list[tuple[int, int]]] = [[] for _ in verts]
        pair_edge: dict = {}
        for eid, (u, v, ln) in enumerate(edges):
            if u not in idx or v not in idx:
                raise SpaceError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise SpaceError(f"self-loop at vertex {u}")
            if not ln > 0:
                raise SpaceError(f"edge ({u}, {v}) has non-positive length {ln}")
            try:
                lo, hi = (u, v) if u <= v else (v, u)
            except TypeError as exc:
                raise SpaceError(f"vertex ids {u!r} and {v!r} are not comparable") from exc
            i, j = idx[lo], idx[hi]
            key = _edge_key(i, j)
            if key in pair_edge:
                raise SpaceError(f"duplicate edge between {lo} and {hi}")
            pair_edge[key] = eid
            elow.append(i)
            ehigh.append(j)
            elen.append(ln)
            adj[i].append((j, eid))
            adj[j].append((i, eid))

        n = len(verts)
        dist_table = np.zeros((n, n))
        parent = np.full((n, n), -1, dtype=np.int64)
        for root in range(n):
            seen = [False] * n
            seen[root] = True
            stack = [root]
            while stack:
                cur = stack.pop()
                for (nxt, eid) in adj[cur]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        parent[root, nxt] = cur
                        dist_table[root, nxt] = dist_table[root, cur] + elen[eid]
                        stack.append(nxt)
            if not all(seen):
                missing = verts[seen.index(False)]
                raise SpaceError(f"tree is not connected (vertex {missing!r} unreachable)")

        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_elow", tuple(elow))
        object.__setattr__(self, "_ehigh", tuple(ehigh))
        object.__setattr__(self, "_elen", tuple(elen))
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_dist_table", dist_table)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_pair_edge", pair_edge)

    def __eq__(self, other):
        return (
            isinstance(other, MetricTree)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    # point constructors --------------------------------------------------

    def vertex_point(self, vid) -> TreePoint:
        if vid not in self._idx:
            raise SpaceError(f"unknown vertex id {vid!r}")
        return TreePoint(vertex=vid)

    def edge_point(self, eid: int, offset: float) -> TreePoint:
        """Canonical point on edge ``eid`` at arclength ``offset`` from the
        lower-id endpoint; offsets at (or within rounding of) an endpoint
        collapse to the vertex form."""
        if not 0 <= eid < len(self.edges):
            raise SpaceError(f"edge index {eid} out of range")
        ln = self._elen[eid]
        offset = float(offset)
        slack = REL_POINT_TOL * (1.0 + ln)
        if not -slack <= offset <= ln + slack:
            raise SpaceError(f"offset {offset} outside [0, {ln}] on edge {eid}")
        snap = 1e-12 * (1.0 + ln)
        if offset <= snap:
            return TreePoint(vertex=self.vertices[self._elow[eid]])
        if offset >= ln - snap:
            return TreePoint(vertex=self.vertices[self._ehigh[eid]])
        return TreePoint(edge=eid, offset=offset)

    def _canonical(self, p: TreePoint) -> TreePoint:
        if not isinstance(p, TreePoint):
            raise SpaceError(f"expected a TreePoint, got {type(p).__name__}")
        if p.vertex is not None:
            return self.vertex_point(p.vertex)
        return self.edge_point(p.edge, p.offset)

    def _anchors(self, p: TreePoint) -> list[tuple[int, float]]:
        """(vertex index, lead-in length) pairs through which any path from
        ``p`` to the rest of the tree must exit."""
        if p.vertex is not None:
            return [(self._idx[p.vertex], 0.0)]
        eid = p.edge
        return [
            (self._elow[eid], p.offset),
            (self._ehigh[eid], self._elen[eid] - p.offset),
        ]

    # metric ---------------------------------------------------------------

    def _route(self, x: TreePoint, y: TreePoint):
        """d(x, y) for canonical points, with the anchors of x and of y that a
        shortest path runs through (both None when x and y share an edge)."""
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset), None, None
        table = self._dist_table
        best = None
        for ax, lx in self._anchors(x):
            for ay, ly in self._anchors(y):
                d = lx + table[ax, ay] + ly
                if best is None or d < best[0]:
                    best = (d, (ax, lx), (ay, ly))
        return best

    def dist(self, x, y) -> float:
        return self._route(self._canonical(x), self._canonical(y))[0]

    def _vertex_path(self, a: int, b: int) -> list[int]:
        path = [b]
        parents = self._parent[a]
        while path[-1] != a:
            path.append(int(parents[path[-1]]))
        path.reverse()
        return path

    def geodesic_point(self, x, y, t):
        t = _check_t(t)
        x = self._canonical(x)
        y = self._canonical(y)
        d, exit_x, entry_y = self._route(x, y)
        target = t * d
        if d == 0.0 or target <= 0.0:
            return x
        if target >= d:
            return y
        if exit_x is None:
            off = x.offset + math.copysign(target, y.offset - x.offset)
            return self.edge_point(x.edge, off)

        (ax, lx), (ay, ly) = exit_x, entry_y
        rem = target
        # leg 1: along x's own edge toward the exit vertex
        if x.edge is not None:
            if rem < lx:
                off = x.offset - rem if ax == self._elow[x.edge] else x.offset + rem
                return self.edge_point(x.edge, off)
            rem -= lx
        # leg 2: along the vertex path
        path = self._vertex_path(ax, ay)
        for cur, nxt in zip(path, path[1:]):
            eid = self._pair_edge[_edge_key(cur, nxt)]
            ln = self._elen[eid]
            if rem < ln:
                off = rem if cur == self._elow[eid] else ln - rem
                return self.edge_point(eid, off)
            rem -= ln
        # leg 3: into y's edge from the entry vertex
        if y.edge is None:
            return y
        rem = min(rem, self._elen[y.edge])
        off = rem if ay == self._elow[y.edge] else self._elen[y.edge] - rem
        return self.edge_point(y.edge, off)

    def frechet_mean(self, points: Sequence, weights: Sequence[float]) -> TreePoint:
        """Exact minimizer of sum_i w_i d(x_i, .)^2 (Bacak 2014; Sturm 2003).

        On edge e = (a, b) of length L, atom i unfolds to the position
        p_i = (d(x_i,a)^2 - d(x_i,b)^2 + L^2) / (2L), so that d(x_i, e(u)) =
        |p_i - u| for u in [0, L]: the functional is a convex quadratic along
        the edge, minimized at the weighted mean of the p_i clamped to
        [0, L].  The barycenter is the best of these E edge minima.  The
        weights are nonnegative, not all zero, and need not sum to 1.
        """
        if not self.edges:
            return TreePoint(vertex=self.vertices[0])
        w = np.asarray(weights, dtype=float)
        table = self._dist_table
        # (n, V) atom-to-vertex distances, each through the atom's nearer exit
        dv = np.array([np.min([lead + table[a] for a, lead in self._anchors(p)], axis=0)
                       for p in map(self._canonical, points)])
        length = np.asarray(self._elen)
        lo, hi = list(self._elow), list(self._ehigh)
        pos = (dv[:, lo] ** 2 - dv[:, hi] ** 2 + length**2) / (2.0 * length)
        u = np.clip(w @ pos / w.sum(), 0.0, length)
        best = int(np.argmin(w @ (pos - u) ** 2))
        return self.edge_point(best, float(u[best]))

    def validate_point(self, p) -> str | None:
        try:
            self._canonical(p)
        except SpaceError as exc:
            return str(exc)
        return None

    def all_vertex_points(self) -> list[TreePoint]:
        return [TreePoint(vertex=v) for v in self.vertices]

    def grid_points(self, step: float) -> list[TreePoint]:
        """All vertices plus interior subdivision points every ``step`` of
        arclength along each edge."""
        if not step > 0:
            raise SpaceError("grid step must be > 0")
        pts = self.all_vertex_points()
        for eid, ln in enumerate(self._elen):
            k = 1
            while k * step < ln:
                pts.append(TreePoint(edge=eid, offset=k * step))
                k += 1
        return pts

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "tree": {
                "vertices": list(self.vertices),
                "edges": [[u, v, ln] for (u, v, ln) in self.edges],
            },
        }

    def payload_to_json(self, p):
        p = self._canonical(p)
        if p.vertex is not None:
            return {"vertex": p.vertex}
        return {"edge": p.edge, "offset": p.offset}

    def payload_from_json(self, payload):
        vertex = read_field(payload, "vertex", _VERTEX_ID, None)
        if vertex is not None:
            return self.vertex_point(vertex)
        edge = read_field(payload, "edge", int, None)
        if edge is None:
            raise SpaceError("tree point payload needs a 'vertex' or 'edge' field")
        return self.edge_point(edge, read_field(payload, "offset", float, 0.0))


# ---------------------------------------------------------------------------
# module-level operations and serialization
# ---------------------------------------------------------------------------


def product_l1_dist(space: Space, xs: Sequence, ys: Sequence) -> float:
    """L1 product metric on tuples: sum of coordinatewise distances."""
    if len(xs) != len(ys):
        raise SpaceError(f"tuple length mismatch: {len(xs)} vs {len(ys)}")
    return sum(space.dist(x, y) for x, y in zip(xs, ys))


_KINDS = {
    "euclidean": Euclidean,
    "hyperbolic": Hyperbolic,
    "spd_affine": SpdAffine,
    "metric_tree": MetricTree,
    "sphere": Sphere,
}


def space_to_json(space: Space) -> dict:
    return space.descriptor()


# JSON input ------------------------------------------------------------------

_REQUIRED = object()

_VERTEX_ID = (str, int)

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
               dict: "an object", _VERTEX_ID: "a string or an integer",
               (str, dict): "a string or an object"}


def _of_kind(value, kind, what: str):
    """``value`` checked against ``kind``: int takes integral numbers, float
    finite numbers, any other type or tuple of types is an isinstance test.
    JSON true/false match no kind.  A mismatch is a SpaceError naming ``what``."""
    if not isinstance(value, bool):
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if kind is int and integral:
            return int(value)
        if kind is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        if kind not in (int, float) and isinstance(value, kind):
            return value
    raise SpaceError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")


def read_field(obj, name: str, kind, default=_REQUIRED):
    """``obj[name]`` checked by :func:`_of_kind`.  A missing field gives
    ``default``, and null is accepted where the default is None.  A
    non-object ``obj``, a missing required field or a value of another kind
    is a SpaceError naming the field."""
    if not isinstance(obj, dict):
        raise SpaceError(f"expected an object with field {name!r}, got {obj!r}")
    if name not in obj:
        if default is _REQUIRED:
            raise SpaceError(f"missing field {name!r}")
        return default
    if obj[name] is None and default is None:
        return None
    return _of_kind(obj[name], kind, f"field {name!r}")


def check_keys(obj: dict, known) -> None:
    """A SpaceError naming the first key of the JSON object ``obj`` that is
    not in ``known``, so that a misspelt optional field is not ignored."""
    for key in obj:
        if key not in known:
            raise SpaceError(f"unknown field {key!r} (known: {', '.join(known)})")


def _numbers(payload, kind: str):
    """Nested lists with every leaf checked as a finite JSON number, for the
    array spaces' payloads: np.asarray alone would read true as 1.0 and "1.5"
    as 1.5."""
    if isinstance(payload, list):
        return [_numbers(item, kind) for item in payload]
    return _of_kind(payload, float, f"{kind}: array entry")


def read_items(obj, name: str, parse) -> list:
    """The list field ``obj[name]`` with ``parse`` applied to each item; an
    item's SpaceError is re-raised naming ``name[i]``."""
    out = []
    for i, item in enumerate(read_field(obj, name, list)):
        try:
            out.append(parse(item))
        except SpaceError as exc:
            raise SpaceError(f"{name}[{i}]: {exc}") from exc
    return out


def _vertex_id(v):
    return _of_kind(v, _VERTEX_ID, "vertex id")


def _tree_edge(e) -> tuple:
    if not (isinstance(e, list) and len(e) == 3):
        raise SpaceError(f"a tree edge must be [u, v, length], got {e!r}")
    u, v, length = e
    return (_vertex_id(u), _vertex_id(v), _of_kind(length, float, "edge length"))


def space_from_json(obj: dict) -> Space:
    kind = read_field(obj, "kind", str)
    cls = _KINDS.get(kind)
    if cls is None:
        raise SpaceError(f"unknown space kind {kind!r} (known: {sorted(_KINDS)})")
    if cls is MetricTree:
        tree = read_field(obj, "tree", dict)
        return MetricTree(
            vertices=tuple(read_items(tree, "vertices", _vertex_id)),
            edges=tuple(read_items(tree, "edges", _tree_edge)),
        )
    return cls(**{
        f.name: read_field(obj, f.name, {"int": int, "float": float}[f.type],
                           _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    })


def point_to_json(space: Space, p) -> dict:
    return {"space": space.descriptor(), "payload": space.payload_to_json(p)}


def point_from_json(space: Space, obj) -> Any:
    """Parse a {"space": ..., "payload": ...} object, checking that the space
    tag matches ``space``."""
    if isinstance(obj, dict) and "payload" in obj:
        if "space" in obj and space_from_json(obj["space"]) != space:
            raise SpaceError("point is tagged with a different space")
        return space.payload_from_json(obj["payload"])
    return space.payload_from_json(obj)
