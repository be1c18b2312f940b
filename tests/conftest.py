import numpy as np
import pytest

from npcbary import Euclidean, Hyperbolic, MetricTree, SpdAffine, Sphere


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
