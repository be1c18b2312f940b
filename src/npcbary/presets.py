"""Shipped example distributions and experiment configurations.

These are the reference instances used by the verification suite and exposed
through the CLI via ``experiment --preset``.  Coverage presets use n = 100,
delta = 0.1, and 2000 trials; each space gets a two-to-four-atom distribution
whose ground truth is cheap to pin down.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .experiments import DistributionSpec, ExperimentConfig
from .spaces import Euclidean, Hyperbolic, MetricTree, Space, SpdAffine, Sphere

NPC_KINDS = ("euclidean", "hyperbolic", "spd_affine", "metric_tree")


def demo_tree() -> MetricTree:
    """A unit star: center o joined to leaves a, b, c."""
    return MetricTree(
        vertices=("a", "b", "c", "o"),
        edges=(("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)),
    )


def _rademacher_distribution() -> DistributionSpec:
    return DistributionSpec(
        space=Euclidean(1),
        support=[np.array([-1.0]), np.array([1.0])],
        label="uniform on {-1, +1}",
    )


def _euclidean_four_atom() -> DistributionSpec:
    return DistributionSpec(
        space=Euclidean(2),
        support=[
            np.array([1.0, 0.0]),
            np.array([-1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, -1.0]),
        ],
        label="four unit atoms in the plane",
    )


def _spd_three_atom() -> DistributionSpec:
    space = SpdAffine(2)
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    a = np.diag([math.e, 1.0])
    b = rot @ np.diag([1.0, math.e]) @ rot.T
    c = np.eye(2) * math.exp(-0.5)
    return DistributionSpec(
        space=space,
        support=[a, 0.5 * (b + b.T), c],
        label="three non-commuting 2x2 SPD atoms",
    )


def _spd_two_atom() -> DistributionSpec:
    return DistributionSpec(
        space=SpdAffine(2),
        support=[np.diag([math.exp(1.0), math.exp(-0.5)]), np.diag([math.exp(-1.0), math.exp(0.5)])],
        label="two commuting 2x2 SPD atoms",
    )


def _hyperbolic_two_atom() -> DistributionSpec:
    space = Hyperbolic(kappa=-1.0, dim=2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    return DistributionSpec(
        space=space,
        support=[space.exp_from_base(e1, 1.0), space.exp_from_base(e2, 0.8)],
        weights=(Fraction(1, 3), Fraction(2, 3)),
        label="two hyperboloid atoms, weights 1/3 and 2/3",
    )


def _tree_star_distribution() -> DistributionSpec:
    tree = demo_tree()
    return DistributionSpec(
        space=tree,
        support=[tree.vertex_point("a"), tree.vertex_point("b"), tree.vertex_point("c")],
        label="uniform on the star leaves",
    )


def _small_variance_distribution(kind: str) -> DistributionSpec:
    """Two atoms with weights (1/101, 100/101): the Frechet standard deviation
    is exactly one tenth of the support radius around the barycenter, the
    regime where the Bernstein radius beats the Hoeffding radius."""
    w = (Fraction(1, 101), Fraction(100, 101))
    if kind == "euclidean":
        return DistributionSpec(
            Euclidean(1), [np.array([1.0]), np.array([0.0])], w,
            label="small-variance pair on the line",
        )
    if kind == "spd_affine":
        return DistributionSpec(
            SpdAffine(2), [np.diag([math.e, math.e]), np.eye(2)], w,
            label="small-variance SPD pair",
        )
    if kind == "hyperbolic":
        space = Hyperbolic(kappa=-1.0, dim=2)
        return DistributionSpec(
            space,
            [space.exp_from_base(np.array([1.0, 0.0]), 1.0), space.base_point()],
            w,
            label="small-variance hyperboloid pair",
        )
    if kind == "metric_tree":
        tree = demo_tree()
        return DistributionSpec(
            tree, [tree.vertex_point("a"), tree.vertex_point("b")], w,
            label="small-variance pair of star leaves",
        )
    raise ValueError(f"no small-variance preset for {kind!r}")


def coverage_distribution(kind: str) -> DistributionSpec:
    if kind == "euclidean":
        return _euclidean_four_atom()
    if kind == "spd_affine":
        return _spd_three_atom()
    if kind == "hyperbolic":
        return _hyperbolic_two_atom()
    if kind == "metric_tree":
        return _tree_star_distribution()
    raise ValueError(f"no coverage preset for {kind!r}")


def hoeffding_config(kind: str, estimator: str = "empirical", seed: int = 0) -> ExperimentConfig:
    dist = coverage_distribution(kind)
    return ExperimentConfig(
        distributions=[dist],
        n=100,
        estimator=estimator,
        trials=2000,
        delta=0.1,
        seed=seed,
        bound="hoeffding",
        label=f"hoeffding-{kind}-{estimator}",
    )


def bernstein_config(kind: str, estimator: str = "empirical", seed: int = 0) -> ExperimentConfig:
    dist = _small_variance_distribution(kind)
    return ExperimentConfig(
        distributions=[dist],
        n=100,
        estimator=estimator,
        trials=2000,
        delta=0.1,
        seed=seed,
        bound="bernstein",
        bound_overrides={"combine": "max"},
        label=f"bernstein-{kind}-{estimator}",
    )


def noniid_config(estimator: str = "empirical", seed: int = 0, n: int = 100) -> ExperimentConfig:
    """n heterogeneous symmetric two-atom distributions on the line, spreads
    0.5 + i/n, all centered at 0."""
    dists = []
    space = Euclidean(1)
    for i in range(n):
        a = 0.5 + (i + 1) / n
        dists.append(
            DistributionSpec(space, [np.array([-a]), np.array([a])], label=f"spread {a}")
        )
    return ExperimentConfig(
        distributions=dists,
        n=n,
        estimator=estimator,
        trials=2000,
        delta=0.1,
        seed=seed,
        bound="noniid_hoeffding",
        label=f"noniid-hoeffding-{estimator}",
    )


def sturm_config(kind: str, seed: int = 0, n: int = 50, trials: int = 2000) -> ExperimentConfig:
    if kind == "euclidean":
        dist = _rademacher_distribution()
    elif kind == "spd_affine":
        dist = _spd_two_atom()
    else:
        raise ValueError(f"no Sturm preset for {kind!r}")
    return ExperimentConfig(
        distributions=[dist],
        n=n,
        estimator="inductive",
        trials=trials,
        delta=0.1,
        seed=seed,
        bound="hoeffding",
        label=f"sturm-{kind}",
    )


def sphere_cap_distribution() -> DistributionSpec:
    """Two atoms inside a cap of radius pi/4 on the unit sphere."""
    space = Sphere(kappa=1.0, dim=2)
    u = np.array([1.0, 0.0])
    return DistributionSpec(
        space,
        [space.exp_from_base(u, 0.3), space.exp_from_base(-u, 0.5)],
        label="two atoms in a pi/4 cap",
    )


def witness_distribution() -> DistributionSpec:
    return DistributionSpec(
        space=Euclidean(1),
        support=[np.array([-1.0]), np.array([0.0]), np.array([1.0])],
        weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        label="three-atom witness distribution",
    )


def pac_points(small_variance: bool = False) -> tuple[Space, list]:
    """The 100-point instances for the stochastic barycenter runs."""
    space = Euclidean(1)
    if small_variance:
        points = [np.array([0.0])] * 99 + [np.array([2.0])]
    else:
        points = [np.array([-1.0])] * 50 + [np.array([1.0])] * 50
    return space, points


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (known: {sorted(PRESETS)})")
    return PRESETS[name]()


def _make_presets() -> dict:
    presets = {}
    for kind in NPC_KINDS:
        short = {"euclidean": "euclidean", "hyperbolic": "hyperbolic",
                 "spd_affine": "spd", "metric_tree": "tree"}[kind]
        for est in ("empirical", "inductive"):
            presets[f"hoeffding-{short}-{est}"] = (
                lambda k=kind, e=est: hoeffding_config(k, e)
            )
            presets[f"bernstein-{short}-{est}"] = (
                lambda k=kind, e=est: bernstein_config(k, e)
            )
    presets["noniid-hoeffding-empirical"] = lambda: noniid_config("empirical")
    presets["noniid-hoeffding-inductive"] = lambda: noniid_config("inductive")
    presets["sturm-euclidean"] = lambda: sturm_config("euclidean")
    presets["sturm-spd"] = lambda: sturm_config("spd_affine")
    return presets


PRESETS = _make_presets()
