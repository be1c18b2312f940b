"""Shipped example distributions and experiment configurations.

These are the reference instances used by the verification suite and exposed
through the CLI via ``experiment --preset``.  Coverage presets use n = 100,
delta = 0.1, and 2000 trials; each space gets a two-to-four-atom distribution
whose ground truth is cheap to pin down.

Each preset's distribution is one entry of a table keyed by space kind:
``_COVERAGE`` for the Hoeffding presets, ``_SMALL_VARIANCE`` for the Bernstein
ones and ``_STURM`` for Sturm's law.  ``PRESETS`` names a Hoeffding and a
Bernstein preset per kind of ``NPC_KINDS`` (the keys of both coverage tables)
and estimator, and a Sturm preset per key of ``_STURM``, so a new preset is one
table entry.  A name uses the kind's short form (``hoeffding-spd-empirical``)
where its config's ``label`` spells the kind (``hoeffding-spd_affine-empirical``);
labels stay as they are, since the benchmark reference keys its records on them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

from .experiments import ESTIMATORS, DistributionSpec, ExperimentConfig
from .spaces import Euclidean, Hyperbolic, MetricTree, Space, SpdAffine, Sphere

NPC_KINDS = ("euclidean", "hyperbolic", "spd_affine", "metric_tree")
# the short form of each kind in a preset's name
_SHORT = {"euclidean": "euclidean", "hyperbolic": "hyperbolic", "spd_affine": "spd",
          "metric_tree": "tree"}


def demo_tree() -> MetricTree:
    """A unit star: center o joined to leaves a, b, c."""
    return MetricTree(
        vertices=("a", "b", "c", "o"),
        edges=(("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)),
    )


def _star(leaves: str, weights, label: str) -> DistributionSpec:
    """Atoms at the named leaves of :func:`demo_tree`."""
    tree = demo_tree()
    return DistributionSpec(tree, [tree.vertex_point(v) for v in leaves], weights, label)


def _hyperboloid(radii, weights, label: str) -> DistributionSpec:
    """Atom i of H^2 at distance radii[i] from the base point along axis i
    (radius 0 is the base point itself)."""
    space = Hyperbolic(kappa=-1.0, dim=2)
    return DistributionSpec(space, [space.exp_from_base(u, r) for u, r in zip(np.eye(2), radii)],
                            weights, label)


def _spd_three_atom() -> DistributionSpec:
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    b = rot @ np.diag([1.0, math.e]) @ rot.T
    support = [np.diag([math.e, 1.0]), 0.5 * (b + b.T), np.eye(2) * math.exp(-0.5)]
    return DistributionSpec(SpdAffine(2), support, label="three non-commuting 2x2 SPD atoms")


_COVERAGE = {
    "euclidean": lambda: DistributionSpec(
        Euclidean(2), [np.array(p) for p in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])],
        label="four unit atoms in the plane"),
    "spd_affine": _spd_three_atom,
    "hyperbolic": lambda: _hyperboloid((1.0, 0.8), (Fraction(1, 3), Fraction(2, 3)),
                                       "two hyperboloid atoms, weights 1/3 and 2/3"),
    "metric_tree": lambda: _star("abc", None, "uniform on the star leaves"),
}

# Two atoms with weights (1/101, 100/101): the Frechet standard deviation is
# exactly one tenth of the support radius around the barycenter, the regime
# where the Bernstein radius beats the Hoeffding radius.
_W = (Fraction(1, 101), Fraction(100, 101))
_SMALL_VARIANCE = {
    "euclidean": lambda: DistributionSpec(Euclidean(1), [np.array([1.0]), np.array([0.0])], _W,
                                          "small-variance pair on the line"),
    "spd_affine": lambda: DistributionSpec(SpdAffine(2), [np.diag([math.e, math.e]), np.eye(2)], _W,
                                           "small-variance SPD pair"),
    "hyperbolic": lambda: _hyperboloid((1.0, 0.0), _W, "small-variance hyperboloid pair"),
    "metric_tree": lambda: _star("ab", _W, "small-variance pair of star leaves"),
}

_STURM = {
    "euclidean": lambda: DistributionSpec(Euclidean(1), [np.array([-1.0]), np.array([1.0])],
                                          label="uniform on {-1, +1}"),
    "spd_affine": lambda: DistributionSpec(
        SpdAffine(2),
        [np.diag([math.exp(1.0), math.exp(-0.5)]), np.diag([math.exp(-1.0), math.exp(0.5)])],
        label="two commuting 2x2 SPD atoms"),
}


def _lookup(table: dict, what: str, kind: str) -> DistributionSpec:
    if kind not in table:
        raise ValueError(f"no {what} preset for {kind!r}")
    return table[kind]()


def coverage_distribution(kind: str) -> DistributionSpec:
    return _lookup(_COVERAGE, "coverage", kind)


def _config(distributions: list, label: str, estimator: str, seed: int, n: int = 100,
            trials: int = 2000, **fields) -> ExperimentConfig:
    """A config at delta = 0.1, by default with n = 100 and 2000 trials."""
    return ExperimentConfig(distributions=distributions, n=n, estimator=estimator, trials=trials,
                            delta=0.1, seed=seed, label=label, **fields)


def hoeffding_config(kind: str, estimator: str = "empirical", seed: int = 0) -> ExperimentConfig:
    return _config([coverage_distribution(kind)], f"hoeffding-{kind}-{estimator}", estimator, seed)


def bernstein_config(kind: str, estimator: str = "empirical", seed: int = 0) -> ExperimentConfig:
    return _config([_lookup(_SMALL_VARIANCE, "small-variance", kind)],
                   f"bernstein-{kind}-{estimator}", estimator, seed,
                   bound="bernstein", bound_overrides={"combine": "max"})


def noniid_config(estimator: str = "empirical", seed: int = 0, n: int = 100) -> ExperimentConfig:
    """n heterogeneous symmetric two-atom distributions on the line, spreads
    0.5 + i/n, all centered at 0."""
    space = Euclidean(1)
    spreads = [0.5 + (i + 1) / n for i in range(n)]
    dists = [DistributionSpec(space, [np.array([-a]), np.array([a])], label=f"spread {a}")
             for a in spreads]
    return _config(dists, f"noniid-hoeffding-{estimator}", estimator, seed, n=n,
                   bound="noniid_hoeffding")


def sturm_config(kind: str, seed: int = 0, n: int = 50, trials: int = 2000) -> ExperimentConfig:
    return _config([_lookup(_STURM, "Sturm", kind)], f"sturm-{kind}", "inductive", seed,
                   n=n, trials=trials)


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


# preset name -> a builder of its config
PRESETS = {
    **{f"{bound}-{_SHORT[kind]}-{est}": partial(config, kind, est) for kind in NPC_KINDS
       for est in ESTIMATORS
       for bound, config in (("hoeffding", hoeffding_config), ("bernstein", bernstein_config))},
    **{f"noniid-hoeffding-{est}": partial(noniid_config, est) for est in ESTIMATORS},
    **{f"sturm-{_SHORT[kind]}": partial(sturm_config, kind) for kind in _STURM},
}
