"""Geodesic metric spaces with exact distance and geodesic formulas (see README.md)."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Sequence

import numpy as np

# Relative tolerance for point-invariant checks (hyperboloid / sphere / SPD
# membership). Double-precision eigendecomposition error dominates.
REL_POINT_TOL = 1e-9

# Below this, eigenvalues are clamped to 1e-12 * (largest eigenvalue) before
# fractional powers or logs of symmetric matrices.
_EIG_FLOOR_REL = 1e-12

# Constants of the row formulas as 0-d float64 arrays, which numpy applies
# about 0.2 us a call faster than Python floats (2-core Xeon, numpy 2.4)
_ZERO, _HALF, _TWO = np.array(0.0), np.array(0.5), np.array(2.0)
_FLOOR, _TINY = np.array(_EIG_FLOOR_REL), np.array(1e-300)


class SpaceError(ValueError):
    """Invalid point payload, malformed space definition, or space mismatch."""


class AntipodalError(SpaceError):
    """Antipodal sphere pair: the connecting geodesic is not unique."""


def _check_t(t):
    """t checked to lie in [0, 1], as ``Space._frame_geodesic`` takes it: a
    float, or for an array of one t per row a column, to scale the rows of a
    stack.  A walk that builds its t itself checks them once, not per step."""
    if isinstance(t, np.ndarray) and t.ndim:
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise SpaceError(f"geodesic parameter outside [0, 1] in {t}")
        return t[:, None]
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise SpaceError(f"geodesic parameter t={t} outside [0, 1]")
    return t


def _over(theta: np.ndarray, fn) -> np.ndarray:
    """theta / fn(theta) elementwise, with its limit 1 at theta = 0, for the
    log-map scale factors theta / sin(theta) and theta / sinh(theta)."""
    return np.divide(theta, fn(theta), out=np.ones_like(theta), where=theta > 0)


def _dot_rows(d: np.ndarray) -> np.ndarray:
    """d_i . d_i for each row d_i of a stack."""
    return np.einsum("ij,ij->i", d, d)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class Space:
    """Common interface of the spaces, written over stacks of points (see README.md)."""

    kind: str = ""

    def __init_subclass__(cls, **kwargs):
        # every space holds dist and geodesic_point in its own namespace, so
        # that a per-class wrapper reading vars(cls), such as a tracer, finds them
        super().__init_subclass__(**kwargs)
        for name in ("dist", "geodesic_point"):
            if name not in vars(cls):
                setattr(cls, name, getattr(Space, name))

    def stack(self, points) -> np.ndarray:
        """The array the row forms compute on, for a sequence of points: on
        the array spaces, the points stacked along a leading axis, and no
        points the empty (0, *point_shape) stack."""
        xs = np.array(points)
        return xs if len(xs) else xs.reshape(0, *self.point_shape)

    def unstack(self, stack):
        """The points of a stack, indexed like its rows: on the array spaces,
        the rows themselves."""
        return stack

    def dist(self, x, y) -> float:
        """d(x, y), the one-row case of ``row_dist``."""
        return float(self.row_dist(self.stack([x]), self.stack([y]))[0])

    def geodesic_point(self, x, y, t: float):
        """Point gamma_{x,y}(t) on the constant-speed geodesic from x to y,
        the one-row case of ``row_geodesic``."""
        return self.unstack(self.row_geodesic(self.stack([x]), self.stack([y]), t))[0]

    # Row-wise forms: row i of the result is the operation on row i of each
    # stack; either stack may be one row instead (on the array spaces, one
    # point), standing for every row --

    def row_dist(self, xs, ys) -> np.ndarray:
        """d(xs[i], ys[i]) for each row i of two stacks of points."""
        raise NotImplementedError

    def row_geodesic(self, xs, ys, t) -> np.ndarray:
        """gamma_{xs[i], ys[i]}(t) for each row i: one float t for every row,
        or an array of one t per row."""
        return self._frame_point(self._frame_geodesic(self._frame(xs), ys, _check_t(t)))

    # Riemannian maps of the smooth spaces (metric trees have none) ----------

    def log(self, x, ys) -> tuple[np.ndarray, np.ndarray]:
        """Tangent vectors log_x(y) at x for a stack ``ys`` of points (leading
        axis of atoms), with their norms, which are the distances d(x, y)."""
        raise NotImplementedError

    def row_exp(self, xs, vs) -> np.ndarray:
        """exp_{xs[i]}(vs[i]) for each row i: the point reached at time 1
        along the geodesic leaving xs[i] with velocity vs[i]."""
        raise NotImplementedError

    def row_tangent_norm(self, xs, vs) -> np.ndarray:
        """Riemannian norm of the tangent vector vs[i] at xs[i] for each row
        i; by default the norm of the embedding space, which it is on
        Euclidean space and on the sphere."""
        return np.sqrt(_dot_rows(vs))

    def row_exp_from_base(self, directions, radii) -> np.ndarray:
        """exp_from_base of each row of a (k, dim) stack of directions, with
        one radius per row: ``row_exp`` at the base point, whose tangent
        vectors fill the coordinates where the base point is 0."""
        x = self.base_point()
        v = np.zeros((len(radii), x.size))
        v[:, x == 0.0] = radii[:, None] * directions
        return self.row_exp(x, v)

    def exp(self, x, v):
        """Point reached at time 1 along the geodesic leaving x with velocity
        v, the one-row case of ``row_exp``."""
        return self.row_exp(x[None], v[None])[0]

    def tangent_norm(self, x, v) -> float:
        """Riemannian norm of the tangent vector v at x, the one-row case of
        ``row_tangent_norm``."""
        return float(self.row_tangent_norm(x[None], v[None])[0])

    def exp_from_base(self, direction, radius: float) -> np.ndarray:
        """Point at metric distance ``radius`` from the base point along the
        tangent direction of a Euclidean unit vector of length dim, the
        one-row case of ``row_exp_from_base``."""
        return self.row_exp_from_base(np.asarray(direction, dtype=float)[None],
                                      np.array([float(radius)]))[0]

    # A solver holds its iterate as a frame between steps: the stack itself,
    # SPD's factor pair, or a tree's rows of distances to its vertices.  SPD's
    # row forms, ``log`` and ``row_tangent_norm`` take its frame where they
    # take x, so a caller that measures from one stack many times factors it
    # once (``_factor``); a tree's row forms take only stacks.  The Karcher
    # loop's maps (``_frame_log``, ``_frame_norm``, ``_frame_exp``) take
    # tangents in the frame's coordinates, which are the tangents themselves
    # but on SPD, C^{-1} v C^{-T}, so that its iterations stay there.

    def _factor(self, xs):
        """``xs`` as the row forms take it where they take x, factored once:
        its frame on SPD, else the stack itself."""
        return xs

    def _frame(self, xs):
        """The frame of a stack of points; a smooth space's also of a frame."""
        return xs

    def _frame_targets(self, ys):
        """The stack ``ys`` as ``_frame_geodesic`` takes its far ends: the
        stack itself but on a tree, where it is their frame."""
        return ys

    def _frame_point(self, frame) -> np.ndarray:
        """The stack of points that a frame stands for."""
        return frame

    def _frame_rows(self, frame, idx):
        """The frame, or the factor, of the rows ``idx`` of its stack."""
        return frame[idx]

    def _frame_geodesic(self, frame, ys, t):
        """The frame of ``row_geodesic`` from the frame's points, t a float or
        a column as ``_check_t`` returns it, and not checked again."""
        raise NotImplementedError

    def _frame_log(self, frame, ys):
        """``log`` from a frame, its tangents in the frame's coordinates: the
        tangents themselves but on SPD, where they are C^{-1} v C^{-T}."""
        return self.log(frame, ys)

    def _frame_norm(self, frame, vs):
        """``row_tangent_norm`` of tangents in the frame's coordinates."""
        return self.row_tangent_norm(frame, vs)

    def _frame_exp(self, frame, vs, norms):
        """The frame of ``row_exp`` of tangents in the frame's coordinates,
        given their tangent norms."""
        return self.row_exp(frame, vs)

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

    def row_dist(self, xs, ys):
        return np.sqrt(_dot_rows(xs - ys))

    def _frame_geodesic(self, xs, ys, t):
        return (1.0 - t) * xs + t * ys

    def log(self, x, ys):
        return ys - x, self.row_dist(ys, x)

    def row_exp(self, xs, vs):
        return xs + vs


# ---------------------------------------------------------------------------
# model spaces: the hyperboloid and the sphere
# ---------------------------------------------------------------------------


def _mink_rows(d: np.ndarray) -> np.ndarray:
    """<d_i, d_i>_M for each row d_i of a stack."""
    return np.einsum("ij,ij->i", d, d) - _TWO * d[:, -1] ** 2


@dataclass(frozen=True)
class _ModelSpace(Space):
    """The model space of constant curvature kappa != 0, the quadric
    kappa <x, x> = 1 in R^{dim+1}, with each map written once over rows (see
    README.md).  A subclass gives its sine and cosine ``sn`` and ``cs`` and
    its form ``_form`` (<d_i, d_i> per row) as unannotated class attributes,
    so that they are not dataclass fields, and ``_angle(xs, ys, q)``: per
    row, theta = d(x, y) sqrt|kappa| from q = <y - x, y - x>."""

    kappa: float
    dim: int = 2

    @property
    def point_shape(self) -> tuple:
        return (self.dim + 1,)

    def _chords(self, xs, ys):
        """Per row, theta and the column u = y - cs(theta) x, formed as
        (y - x) + (kappa q / 2) x since cs(theta) = 1 - kappa q / 2, free of
        cancellation for nearby points."""
        d = ys - xs
        q = self._form(d)
        return self._angle(xs, ys, q), d + (0.5 * self.kappa * q)[:, None] * xs

    def _project(self, out):
        """Each row divided by sqrt(kappa <out, out>), back onto the quadric
        against rounding drift."""
        return out / np.sqrt(self.kappa * self._form(out))[:, None]

    def row_dist(self, xs, ys):
        return self._angle(xs, ys, self._form(ys - xs)) / math.sqrt(abs(self.kappa))

    def _frame_geodesic(self, xs, ys, t):
        # a row whose theta is below 1e-14 stays at its x
        theta, u = self._chords(xs, ys)
        theta = theta[:, None]
        moves = theta >= 1e-14
        tt = t * theta
        out = self.cs(tt) * xs + self.sn(tt) / np.where(moves, self.sn(theta), 1.0) * u
        return np.where(moves, self._project(out), xs)

    def log(self, x, ys):
        theta, u = self._chords(x, ys)
        return _over(theta, self.sn)[:, None] * u, theta / math.sqrt(abs(self.kappa))

    def row_exp(self, xs, vs):
        return self._frame_exp(xs, vs, self.row_tangent_norm(xs, vs))

    def _frame_exp(self, xs, vs, norms):
        # a row whose tangent is zero stays at its x
        theta = np.asarray(norms).reshape(-1, 1) * math.sqrt(abs(self.kappa))
        moves = theta > 0.0
        out = self.cs(theta) * xs + self.sn(theta) / np.where(moves, theta, 1.0) * vs
        return np.where(moves, self._project(out), xs)


@dataclass(frozen=True)
class Hyperbolic(_ModelSpace):
    """Hyperboloid sheet {x : <x,x>_M = 1/kappa, x_{d+1} > 0}, kappa < 0, with
    the Minkowski form <x,y>_M = x_1 y_1 + ... + x_d y_d - x_{d+1} y_{d+1}
    and distance arccosh(kappa <x,y>_M) / sqrt(-kappa)."""

    kind = "hyperbolic"
    sn, cs, _form = np.sinh, np.cosh, staticmethod(_mink_rows)

    def __post_init__(self):
        if not self.kappa < 0:
            raise SpaceError("hyperbolic: curvature kappa must be < 0")
        if self.dim < 1:
            raise SpaceError("hyperbolic: dimension must be >= 1")

    def base_point(self) -> np.ndarray:
        x = np.zeros(self.point_shape)
        x[-1] = 1.0 / math.sqrt(-self.kappa)
        return x

    def _angle(self, xs, ys, q):
        # 2 arcsinh of the half Minkowski chord equals arccosh(kappa <x,y>_M)
        # but keeps the significand that arccosh loses for nearby points; a
        # chord that rounds below 0 counts as 0
        return _TWO * np.arcsinh(_HALF * np.sqrt(np.maximum(-self.kappa * q, _ZERO)))

    def row_tangent_norm(self, xs, vs):
        # <v,v>_M = |v_s|^2 - v_t^2 cancels for long v, s the spatial and t
        # the last part.  Split v_s = a x_s + p with p orthogonal to x_s:
        # <x,v>_M = 0 then gives <v,v>_M = a^2 |x_s|^2 / (|kappa| x_t^2) + |p|^2
        # (a = 0 where x_s = 0, as at the base point)
        xsp, vsp = xs[..., :-1], vs[..., :-1]
        xx = np.einsum("...j,...j->...", xsp, xsp)
        a = np.einsum("...j,...j->...", xsp, vsp) / np.where(xx > 0.0, xx, 1.0)
        p = vsp - a[..., None] * xsp
        pp = np.einsum("...j,...j->...", p, p)
        return np.sqrt(a * a * xx / (-self.kappa * xs[..., -1] ** 2) + pp)

    def _constraint_violation(self, q):
        if q[-1] <= 0:
            return f"last coordinate must be > 0 (upper sheet), got {q[-1]}"
        m = self.kappa * float(_mink_rows(q[None])[0])
        scale = max(1.0, abs(self.kappa) * float(q @ q))
        if abs(m - 1.0) > REL_POINT_TOL * scale:
            return f"not on the hyperboloid sheet: kappa*<x,x>_M = {m}, expected 1"
        return None


@dataclass(frozen=True)
class Sphere(_ModelSpace):
    """Round sphere of radius 1/sqrt(kappa) in R^{d+1}, kappa > 0, with the
    arc metric d(x,y) = arccos(kappa x.y) / sqrt(kappa).

    Geodesics and log maps between antipodal points are not unique and raise
    :class:`AntipodalError`.
    """

    kind = "sphere"
    sn, cs, _form = np.sin, np.cos, staticmethod(_dot_rows)

    def __post_init__(self):
        if not self.kappa > 0:
            raise SpaceError("sphere: curvature kappa must be > 0")
        if self.dim < 1:
            raise SpaceError("sphere: dimension must be >= 1")

    @property
    def radius(self) -> float:
        return 1.0 / math.sqrt(self.kappa)

    def base_point(self) -> np.ndarray:
        x = np.zeros(self.point_shape)
        x[0] = self.radius
        return x

    def _angle(self, xs, ys, q):
        # twice the angle between the chords y - x and y + x, accurate for
        # nearby and for near-antipodal points
        return _TWO * np.arctan2(np.sqrt(q), np.sqrt(_dot_rows(ys + xs)))

    def _chords(self, xs, ys):
        theta, u = super()._chords(xs, ys)
        if np.maximum.reduce(theta) >= math.pi * (1.0 - 1e-9):
            raise AntipodalError("antipodal sphere points: the connecting geodesic is not unique")
        return theta, u

    def _constraint_violation(self, q):
        nrm = math.sqrt(float(q @ q))
        if abs(nrm - self.radius) > REL_POINT_TOL * self.radius:
            return f"norm violation: |x| = {nrm}, expected {self.radius}"
        return None


# ---------------------------------------------------------------------------
# SPD matrices, affine-invariant metric
# ---------------------------------------------------------------------------


def sym_part(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return _HALF * (M + M.swapaxes(-1, -2))


def _clamp(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix (or of each of a stack) clamped below
    at 1e-12 times the largest."""
    return np.maximum(w, _FLOOR * np.maximum(w[..., -1:], _TINY))


def _eigh_clamped(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of sym_part(M), or of each matrix of a stack, with
    the eigenvalues clamped."""
    w, U = np.linalg.eigh(sym_part(M))
    return _clamp(w), U


def _recompose(U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U^T, for a matrix or each matrix of a stack."""
    return (U * w[..., None, :]) @ U.swapaxes(-1, -2)


def _congruence(F: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C^{-1} B C^{-T} from F = C^{-T}."""
    return F.swapaxes(-1, -2) @ B @ F


def spd_exp(S: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(sym_part(S))
    return sym_part(_recompose(U, np.exp(w)))


@dataclass(frozen=True)
class SpdAffine(Space):
    """Symmetric positive definite p x p matrices with the affine-invariant
    metric d(A,B) = ||log(A^-1/2 B A^-1/2)||_F.

    The geodesic from A to B is the weighted geometric mean
    A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}, computed as
    C (C^{-1} B C^{-T})^t C^T for any A = C C^T.  A frame is (C, C^{-T}); a
    step hands on the factor it holds, C V m^{t/2} ((m, V) the eigenpairs of
    C^{-1} B C^{-T}) or C V e^{E/2}, (E, V) those of the step's tangent in
    the frame's coordinates, where the Karcher loop stays (Bini & Iannazzo
    2013): its logs are V log(m) V^T, its norm their Frobenius norm.  Every
    map is written over stacks.
    """

    p: int

    kind = "spd_affine"

    def __post_init__(self):
        if self.p < 1:
            raise SpaceError("spd_affine: matrix size p must be >= 1")

    @property
    def point_shape(self) -> tuple:
        return (self.p, self.p)

    def _frame(self, xs):
        # (C, C^{-T}), C = U w^{1/2} from clamped eigenpairs; a step's C^{-T} = F V / h
        if isinstance(xs, tuple):
            return xs if len(xs) == 2 else (xs[0], (xs[1] @ xs[2]) / xs[3])
        w, U = _eigh_clamped(xs)
        r = np.sqrt(w)[..., None, :]
        return U * r, U / r

    _factor = _frame

    def _frame_point(self, frame):
        return sym_part(frame[0] @ frame[0].swapaxes(-1, -2))

    def _frame_rows(self, frame, idx):
        C, F = self._frame(frame)
        return C[idx], F[idx]

    def _move(self, C, F, A, t=None):
        """The frame C V h, with F, V and h for ``_frame``, of C V h^2 V^T C^T:
        (m, V) the eigenpairs of A, a target C^{-1} B C^{-T} or a tangent in
        the frame's coordinates, h = m^{t/2} (m clamped) or e^{m/2}."""
        m, V = np.linalg.eigh(sym_part(A))
        h = (np.exp(_HALF * m) if t is None else _clamp(m) ** (0.5 * t))[..., None, :]
        return (C @ V) * h, F, V, h

    def _frame_geodesic(self, frame, ys, t):
        C, F = self._frame(frame)
        return self._move(C, F, _congruence(F, ys), t)

    def _frame_exp(self, frame, vs, norms):
        return self._move(*self._frame(frame), vs)

    def row_dist(self, xs, ys):
        _, F = self._frame(xs)
        m = _clamp(np.linalg.eigvalsh(sym_part(_congruence(F, ys))))
        return np.sqrt(np.add.reduce(np.log(m) ** 2, axis=-1))

    def _frame_log(self, frame, ys):
        # C^{-1} log_x(y) C^{-T} = V log(m) V^T, (m, V) the eigenpairs of C^{-1} y C^{-T}
        m, V = _eigh_clamped(_congruence(self._frame(frame)[1], ys))
        logs = np.log(m)
        return _recompose(V, logs), np.sqrt(np.add.reduce(logs**2, axis=-1))

    def _frame_norm(self, frame, vs):
        return np.sqrt(np.add.reduce(vs * vs, axis=(-2, -1)))

    def log(self, x, ys):
        # log_x(y) = C (C^{-1} log_x(y) C^{-T}) C^T, x a point or a frame
        C, F = frame = self._frame(x)
        vs, r = self._frame_log(frame, ys)
        return sym_part(C @ vs @ C.swapaxes(-1, -2)), r

    def row_exp(self, xs, vs):
        C, F = self._frame(xs)
        return self._frame_point(self._move(C, F, _congruence(F, vs)))

    def row_tangent_norm(self, xs, vs):
        # ||x^{-1/2} v x^{-1/2}||_F = ||C^{-1} v C^{-T}||_F for any x = C C^T
        return self._frame_norm(xs, _congruence(self._frame(xs)[1], vs))

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


def _snap_margin(length):
    """How close to an end of an edge of this length (a float or an array)
    an offset snaps to that end's vertex."""
    return 1e-12 * (1.0 + length)


@dataclass(frozen=True)
class MetricTree(Space):
    """A finite tree with positive edge lengths under the path-length metric.

    ``vertices`` is a sequence of hashable, mutually comparable ids (all
    strings or all integers); ``edges`` lists (u, v, length) triples.  The
    structure must be connected and acyclic.  Vertex-pair distances and
    next hops are tabulated once, as plain attributes rather than fields, so
    a tree compares and hashes by its vertices and edges alone.  A stack of
    tree points is a float (k, 2) array of (code, offset) rows: code v < V
    is vertex ``vertices[v]`` at offset 0, and code V + e the point of edge
    e at ``offset`` from its lower-id endpoint.  The row forms route each
    pair through the tables; a walk holds its iterate as a frame instead,
    its (k, V) distances to the vertices, and steps without a route.
    """

    vertices: tuple
    edges: tuple

    kind = "metric_tree"

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

        n = len(verts)
        # per stack code (the vertices, then the edges): the lower and upper
        # end vertices, a vertex being both, and the length, 0 at a vertex
        ends = [list(range(n)), list(range(n))]
        elen = [0.0] * n
        adj: list[list[tuple[int, int]]] = [[] for _ in verts]
        pairs = set()
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
            if (lo, hi) in pairs:
                raise SpaceError(f"duplicate edge between {lo} and {hi}")
            pairs.add((lo, hi))
            i, j = idx[lo], idx[hi]
            ends[0].append(i)
            ends[1].append(j)
            elen.append(ln)
            adj[i].append((j, n + eid))
            adj[j].append((i, n + eid))

        # per root, each vertex's distance and the code of the edge of its
        # next hop toward the root
        dist_table = np.zeros((n, n))
        hop = np.full((n, n), -1, dtype=np.intp)
        for root in range(n):
            seen = [False] * n
            seen[root] = True
            stack = [root]
            while stack:
                cur = stack.pop()
                for (nxt, code) in adj[cur]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        hop[root, nxt] = code
                        dist_table[root, nxt] = dist_table[root, cur] + elen[code]
                        stack.append(nxt)
            if not all(seen):
                missing = verts[seen.index(False)]
                raise SpaceError(f"tree is not connected (vertex {missing!r} unreachable)")

        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_ends", np.array(ends, dtype=np.intp))
        object.__setattr__(self, "_len", np.array(elen))
        # per edge, the offsets at or beyond which a point snaps to an endpoint
        object.__setattr__(self, "_snap", tuple((_snap_margin(ln), ln - _snap_margin(ln))
                                                for ln in elen[n:]))
        object.__setattr__(self, "_dist_table", dist_table)
        object.__setattr__(self, "_hop", hop)

    # point constructors --------------------------------------------------

    def vertex_point(self, vid) -> TreePoint:
        if vid not in self._idx:
            raise SpaceError(f"unknown vertex id {vid!r}")
        return TreePoint(vertex=vid)

    def edge_point(self, eid: int, offset: float) -> TreePoint:
        """Canonical point on edge ``eid`` at arclength ``offset`` from the
        lower-id endpoint, the one-row case of ``_edge_rows``."""
        if not 0 <= eid < len(self.edges):
            raise SpaceError(f"edge index {eid} out of range")
        code = len(self.vertices) + operator.index(eid)
        return self.unstack(self._edge_rows(np.array([code]), np.array([float(offset)])))[0]

    def _edge_rows(self, codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The stack of the points at ``offsets`` on the edges of stack codes
        ``codes``: an offset outside [0, L] by more than rounding raises, and
        the others are snapped (``_snap_rows``)."""
        ln = self._len.take(codes)
        slack = REL_POINT_TOL * (1.0 + ln)
        bad = ~((offsets >= -slack) & (offsets <= ln + slack))
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise SpaceError(f"offset {float(offsets[i])} outside [0, {float(ln[i])}] "
                             f"on edge {int(codes[i]) - len(self.vertices)}")
        return self._snap_rows(codes, offsets, ln)

    def _snap_rows(self, codes, offsets, ln) -> np.ndarray:
        """``_edge_rows`` of offsets known to lie in range, the edges' lengths
        ``ln``: one within the snap margins of an end becomes that end's vertex."""
        margin = _snap_margin(ln)
        low, high = offsets <= margin, offsets >= ln - margin
        lo, hi = self._ends.take(codes, axis=1)
        return np.array([np.where(low, lo, np.where(high, hi, codes)),
                         np.where(low | high, 0.0, offsets)]).T

    def _canonical(self, p: TreePoint) -> TreePoint:
        """``p`` itself if it is canonical already: a known vertex, or an int
        edge id with a float offset strictly inside the edge's snap margins.
        Any other point is rebuilt by vertex_point or edge_point, which
        validate it and snap it."""
        if not isinstance(p, TreePoint):
            raise SpaceError(f"expected a TreePoint, got {type(p).__name__}")
        if p.vertex is not None:
            return p if p.vertex in self._idx else self.vertex_point(p.vertex)
        eid = p.edge
        if type(eid) is int and type(p.offset) is float and 0 <= eid < len(self._snap):
            lo, hi = self._snap[eid]
            if lo < p.offset < hi:
                return p
        return self.edge_point(eid, p.offset)

    # stacks ---------------------------------------------------------------

    def stack(self, points) -> np.ndarray:
        """The (k, 2) stack of a sequence of tree points, each first put in
        canonical form by ``_canonical``."""
        idx, n = self._idx, len(self.vertices)
        rows = []
        for p in points:
            p = self._canonical(p)
            rows.append((idx[p.vertex], 0.0) if p.vertex is not None else (n + p.edge, p.offset))
        return np.array(rows, dtype=float).reshape(-1, 2)

    def unstack(self, stack) -> list[TreePoint]:
        """The tree points of a stack's rows."""
        verts, n = self.vertices, len(self.vertices)
        return [TreePoint(vertex=verts[c]) if c < n else TreePoint(edge=c - n, offset=off)
                for c, off in zip(stack[:, 0].astype(np.intp).tolist(), stack[:, 1].tolist())]

    # metric ---------------------------------------------------------------

    def _route(self, xs: np.ndarray, ys: np.ndarray):
        """Per row of two stacks: d(x, y), whether x and y share an edge,
        the four anchor-pair path lengths (x-lower/y-lower, x-lower/y-upper,
        x-upper/y-lower, x-upper/y-upper), and x's and y's codes and (2, k)
        anchors, with x's lead-in lengths (see README.md)."""
        cx, cy = xs[:, 0].astype(np.intp), ys[:, 0].astype(np.intp)
        ox, oy = xs[:, 1], ys[:, 1]
        ax, ay = self._ends.take(cx, axis=1), self._ends.take(cy, axis=1)
        lx, ly = np.array([ox, self._len.take(cx) - ox]), np.array([oy, self._len.take(cy) - oy])
        paths = ((lx[:, None] + self._dist_table[ax[:, None], ay]) + ly).reshape(4, -1)
        same = (cx == cy) & (cx >= len(self.vertices))
        d = np.where(same, np.abs(ox - oy), np.minimum.reduce(paths))
        return d, same, paths, (cx, ax, lx), (cy, ay)

    def row_dist(self, xs, ys):
        return self._route(xs.reshape(-1, 2), ys.reshape(-1, 2))[0]

    def row_geodesic(self, xs, ys, t):
        # Each row starts at x, or at y once t d reaches d, and walks t d
        # along the shortest path: x's own edge to its exit vertex, the vertex
        # path by next hops, then y's edge from its entry vertex.  It stops on
        # the first edge its remaining length ends inside, and _edge_rows
        # snaps every row, which leaves a canonical x or y as it is.
        t = _check_t(t)
        xs, ys = xs.reshape(-1, 2), ys.reshape(-1, 2)
        d, same, paths, (cx, ax, lx), (cy, ay) = self._route(xs, ys)
        best = paths.argmin(axis=0)
        up_x, up_y = best >= 2, (best & 1) == 1
        ax, lx, ay = np.where(up_x, ax[1], ax[0]), np.where(up_x, lx[1], lx[0]), np.where(
            up_y, ay[1], ay[0])
        target = (t[:, 0] if isinstance(t, np.ndarray) else t) * d
        (lo, hi), length = self._ends, self._len
        ox, oy = xs[:, 1], ys[:, 1]
        moves = target > 0.0
        left = moves & (target < d)
        at_y = moves ^ left
        code, off = np.where(at_y, cy, cx), np.where(at_y, oy, ox)
        # rows that end on x's own edge: a shared edge, or short of x's exit
        own = left & (same | (target < lx))
        np.copyto(off, ox + np.copysign(target, np.where(same, oy - ox, np.where(
            ax == lo[cx], -1.0, 1.0))), where=own)
        left ^= own
        rem = target - lx
        cur = ax
        walk = left & (cur != ay)
        while walk.any():
            e = self._hop[ay, cur]
            ln = length[e]
            stop = walk & (rem < ln)
            np.copyto(code, e, where=stop)
            np.copyto(off, np.where(cur == lo[e], rem, ln - rem), where=stop)
            left ^= stop
            walk ^= stop
            np.subtract(rem, ln, out=rem, where=walk)
            np.copyto(cur, lo[e] + hi[e] - cur, where=walk)
            walk &= cur != ay
        # rows that reach y's entry vertex end on y's edge, or at y itself
        ln = length[cy]
        r = np.minimum(rem, ln)
        np.copyto(code, cy, where=left)
        np.copyto(off, np.where(ay == lo[cy], r, ln - r), where=left)
        return self._edge_rows(code, off)

    # A walk's frame is a stack's (k, V) distances to the vertices.  A tree is
    # 0-hyperbolic, so the point at arclength s along [x, y] is b + |s - a|
    # from each vertex, a and b the Gromov products ((f_x - f_y) + d) / 2 and
    # ((f_x + f_y) - d) / 2 of the frames, d = max |f_x - f_y|: a step needs
    # no route.

    def _frame(self, xs):
        # the one-edge path to each vertex through the lower or the upper end
        c, off = xs[:, 0].astype(np.intp), xs[:, 1:]
        lo, hi = self._ends.take(c, axis=1)
        return np.minimum(off + self._dist_table.take(lo, axis=0),
                          (self._len.take(c)[:, None] - off) + self._dist_table.take(hi, axis=0))

    _frame_targets = _frame

    def _frame_point(self, frame):
        # the first edge (lo, hi) with f_lo + f_hi - L least holds the point, f_lo from lo
        n = len(self.vertices)
        if n == 1:
            return np.zeros((len(frame), 2))
        (lo, hi), length = self._ends[:, n:], self._len[n:]
        f_lo = frame[:, lo]
        e = np.argmin((f_lo + frame[:, hi]) - length, axis=1)
        return self._edge_rows(n + e, f_lo[np.arange(len(e)), e])

    def _frame_geodesic(self, frame, ys, t):
        # b + |s - a| = max(b + a - s, b - a + s) = max(f_x - s, f_y - (d - s))
        d = np.abs(frame - ys).max(axis=-1, keepdims=True)
        s = t * d
        return np.maximum(frame - s, ys - (d - s))

    def _no_riemannian_maps(self, *args):
        raise NotImplementedError("metric trees have no Riemannian maps (exp, log, tangent norms)")

    log = row_exp = row_tangent_norm = row_exp_from_base = _no_riemannian_maps
    exp = tangent_norm = exp_from_base = _no_riemannian_maps

    def frechet_mean(self, points: Sequence, weights: Sequence[float]) -> TreePoint:
        """Exact minimizer of sum_i w_i d(x_i, .)^2 (Bacak 2014; Sturm 2003).

        On edge e = (a, b) of length L, atom i unfolds to the position
        p_i = (d(x_i,a)^2 - d(x_i,b)^2 + L^2) / (2L), so that d(x_i, e(u)) =
        |p_i - u| for u in [0, L]: the functional is a convex quadratic along
        the edge, minimized at the weighted mean of the p_i clamped to
        [0, L].  The barycenter is the best of these E edge minima.  The
        weights are nonnegative, not all zero, and need not sum to 1.
        """
        row, _ = self._mean(self.stack(points), np.asarray(weights, dtype=float))
        return self.unstack(row)[0]

    def _mean(self, xs, w) -> tuple[np.ndarray, float]:
        """The stack row of ``frechet_mean`` of the stack ``xs`` under weights
        ``w``, and its objective sum_i w_i (p_i - u)^2 / sum_i w_i, read off the
        winning edge's quadratic."""
        n = len(self.vertices)
        if n == 1:
            return np.zeros((1, 2)), 0.0
        sq = self._frame(xs) ** 2
        (lo, hi), length = self._ends[:, n:], self._len[n:]
        pos = (sq[:, lo] - sq[:, hi] + length**2) / (2.0 * length)
        total = np.add.reduce(w)
        u = np.minimum(np.maximum(w @ pos / total, 0.0), length)  # in [0, L]: only snapped
        objective = w @ (pos - u) ** 2
        best = int(objective.argmin())
        row = self._snap_rows(np.array([n + best]), u[best : best + 1], length[best : best + 1])
        return row, float(objective[best]) / float(total)

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
        for eid, (_, _, ln) in enumerate(self.edges):
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
        # {"vertex": id} or {"edge": e, "offset"?: x}, a null vertex or edge read as absent
        vertex, edge, offset = read_fields(payload, vertex=(_VERTEX_ID, None), edge=(int, None),
                                           offset=(float, 0.0)).values()
        if (vertex is None) == (edge is None) or vertex is not None and "offset" in payload:
            raise SpaceError('a tree point is {"vertex": id} or {"edge": e, "offset"?: x}, '
                             f"got {payload!r}")
        return self.vertex_point(vertex) if edge is None else self.edge_point(edge, offset)


# ---------------------------------------------------------------------------
# module-level operations and serialization
# ---------------------------------------------------------------------------


def product_l1_dist(space: Space, xs: Sequence, ys: Sequence) -> float:
    """L1 product metric on tuples: sum of coordinatewise distances."""
    if len(xs) != len(ys):
        raise SpaceError(f"tuple length mismatch: {len(xs)} vs {len(ys)}")
    return sum(space.row_dist(space.stack(xs), space.stack(ys)).tolist())


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

# A bound query's formula parameters, whose values evaluate_bound checks.
FORMULA_ARG = (int, float, str, list)

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
               dict: "an object", _VERTEX_ID: "a string or an integer",
               (str, dict): "a string or an object", (list, dict): "a list or an object",
               FORMULA_ARG: "a number, a string or a list"}


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


def read_fields(obj, /, **fields) -> dict:
    """The fields of the JSON object ``obj``, in the order named: each by
    :func:`read_field` from its kind if required or (kind, default) if not
    (a tuple of types is a kind), or, for a list field, by the parser of its
    items, whose SpaceError is re-raised naming ``name[i]``.  Any other key
    of ``obj`` is a SpaceError naming it."""
    if isinstance(obj, dict):  # read_field rejects any other obj, naming a field
        check_keys(obj, fields)
    out = {}
    for name, spec in fields.items():
        if not callable(spec) or isinstance(spec, type):
            pair = isinstance(spec, tuple) and not isinstance(spec[-1], type)
            out[name] = read_field(obj, name, *(spec if pair else (spec,)))
            continue
        out[name] = []
        for i, item in enumerate(read_field(obj, name, list)):
            try:
                out[name].append(spec(item))
            except SpaceError as exc:
                raise SpaceError(f"{name}[{i}]: {exc}") from exc
    return out


def _numbers(payload, kind: str):
    """Nested lists with every leaf checked as a finite JSON number, for the
    array spaces' payloads: np.asarray alone would read true as 1.0 and "1.5"
    as 1.5."""
    if isinstance(payload, list):
        return [_numbers(item, kind) for item in payload]
    return _of_kind(payload, float, f"{kind}: array entry")


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
        tree = read_fields(obj, kind=str, tree=dict)["tree"]
        return MetricTree(**read_fields(tree, vertices=_vertex_id, edges=_tree_edge))
    _, *values = read_fields(obj, kind=str, **{
        f.name: ({"int": int, "float": float}[f.type], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    }).values()
    return cls(*values)


def point_to_json(space: Space, p) -> dict:
    return {"space": space.descriptor(), "payload": space.payload_to_json(p)}


def point_from_json(space: Space, obj) -> Any:
    """A bare payload, or a {"space"?: ..., "payload": ...} object, checking
    that the space tag matches ``space``."""
    if not (isinstance(obj, dict) and "payload" in obj):
        return space.payload_from_json(obj)
    tag, payload = read_fields(obj, space=(dict, {}), payload=(list, dict)).values()
    if "space" in obj and space_from_json(tag) != space:
        raise SpaceError("point is tagged with a different space")
    return space.payload_from_json(payload)
