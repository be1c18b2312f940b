import numpy as np
import pytest

from npcbary import Euclidean, Hyperbolic, MetricTree, SpdAffine, Sphere
from npcbary.experiments import _draw_instances, _perturb, random_points


def star_tree() -> MetricTree:
    return MetricTree(
        vertices=("a", "b", "c", "o"),
        edges=(("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)),
    )


def path_tree() -> MetricTree:
    return MetricTree(vertices=("a", "b", "c"), edges=(("a", "b", 1.0), ("b", "c", 2.0)))


def npc_spaces():
    return [Euclidean(2), Hyperbolic(-1.0), SpdAffine(3), star_tree()]


def all_spaces():
    return npc_spaces() + [Sphere(1.0), Hyperbolic(-2.5, 3), Sphere(4.0, 3)]


def space_id(space) -> str:
    """A test id: the space's kind, with kappa and dim on a hyperboloid or a
    sphere of other than unit curvature and dimension 2."""
    if isinstance(space, (Hyperbolic, Sphere)) and (abs(space.kappa), space.dim) != (1.0, 2):
        return f"{space.kind}-kappa{space.kappa:g}-dim{space.dim}"
    return space.kind


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_point(space, rng: np.random.Generator):
    """A bounded, well-conditioned random point of the given space, the
    one-row case of :func:`random_points`: k successive calls give the k
    points of one ``random_points`` call on an equal generator."""
    return space.unstack(random_points(space, rng, 1))[0]


def random_tuple(space, rng: np.random.Generator, n: int) -> list:
    return list(space.unstack(random_points(space, rng, n)))


def perturbed_tuple(space, rng: np.random.Generator, xs) -> list:
    """Move each point a random fraction, up to PERTURB_SCALE, of the way
    toward a fresh random point; perturbation sizes vary per coordinate."""
    (targets,), u = _draw_instances(space, rng, len(xs), 1, 1)
    return list(space.unstack(_perturb(space, space.stack(xs), targets, u)))
