"""The Monte Carlo engine: sampling, ground truth, coverage runs,
determinism, and the property suites."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from npcbary import (
    DistributionSpec,
    Euclidean,
    ExperimentConfig,
    SpaceError,
    Sphere,
    npc_property_suite,
    population_barycenter,
    run_concentration,
    run_pac,
    sample,
    verify_sturm_lln,
    verify_subgaussian_witness,
)
from npcbary import bounds
from npcbary.experiments import draw_indices, trial_rng
from npcbary.presets import (
    bernstein_config,
    hoeffding_config,
    noniid_config,
    pac_points,
    sphere_cap_distribution,
    sturm_config,
    witness_distribution,
)

from conftest import star_tree


def rademacher():
    return DistributionSpec(
        Euclidean(1), [np.array([-1.0]), np.array([1.0])], label="rademacher"
    )


def point_mass():
    return DistributionSpec(Euclidean(1), [np.array([2.0])], label="point mass")


# ---------------------------------------------------------------------------
# sampling and ground truth
# ---------------------------------------------------------------------------


def test_sample_point_mass():
    dist = point_mass()
    rng = trial_rng(0, 0)
    for _ in range(20):
        assert sample(dist, rng)[0] == 2.0


def test_sample_degenerate_weights():
    dist = DistributionSpec(
        Euclidean(1),
        [np.array([5.0]), np.array([7.0])],
        weights=(Fraction(1), Fraction(0)),
    )
    rng = trial_rng(1, 0)
    for _ in range(50):
        assert sample(dist, rng)[0] == 5.0


def test_sample_frequencies_binomial():
    dist = rademacher()
    rng = trial_rng(3, 0)
    idx = draw_indices(dist.cumulative_weights(), rng, 1_000_000)
    freq = float(np.mean(idx == 0))
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / 1_000_000)


def test_population_barycenter_values():
    assert population_barycenter(point_mass())[0] == 2.0
    dist = DistributionSpec(Euclidean(1), [np.array([0.0]), np.array([2.0])])
    assert abs(population_barycenter(dist)[0] - 1.0) <= 1e-9


def test_population_barycenter_float_weights():
    # JSON float weights are exact binary rationals with denominator 2^53
    obj = json.loads(json.dumps({"support": [[0.0], [1.0]], "weights": [0.9, 1 - 0.9]}))
    dist = DistributionSpec.from_json(Euclidean(1), obj)
    assert abs(population_barycenter(dist)[0] - (1 - 0.9)) <= 1e-12


def test_population_barycenter_sphere_midpoint():
    space = Sphere(1.0)
    x = space.exp_from_base(np.array([1.0, 0.0]), 0.1)
    y = space.exp_from_base(np.array([-1.0, 0.0]), 0.1)
    dist = DistributionSpec(space, [x, y])
    b = population_barycenter(dist)
    # oracle: brute-force scan of the connecting arc confirms the midpoint
    cands = [space.geodesic_point(x, y, t) for t in np.linspace(0, 1, 201)]
    objs = [sum(space.dist(p, c) ** 2 for p in (x, y)) for c in cands]
    best = cands[int(np.argmin(objs))]
    mid = space.midpoint(x, y)
    assert space.dist(best, mid) <= 2e-3  # scan resolution
    assert space.dist(b, mid) <= 1e-7


def test_population_barycenter_sphere_ball_condition():
    space = Sphere(1.0)
    x = space.base_point()
    y = space.exp_from_base(np.array([1.0, 0.0]), math.pi - 0.05)
    with pytest.raises(SpaceError, match="ball"):
        population_barycenter(DistributionSpec(space, [x, y]))


def test_distribution_weight_validation():
    with pytest.raises(SpaceError):
        DistributionSpec(
            Euclidean(1),
            [np.array([0.0]), np.array([1.0])],
            weights=(Fraction(1, 2), Fraction(1, 3)),
        )


# ---------------------------------------------------------------------------
# concentration runs
# ---------------------------------------------------------------------------


def test_run_point_mass_coverage():
    cfg = ExperimentConfig(
        distributions=[point_mass()], n=10, estimator="inductive",
        trials=50, delta=0.1, seed=0, bound="hoeffding",
    )
    rep = run_concentration(cfg)
    assert rep.distances == [0.0] * 50
    assert rep.coverage == 1.0
    assert rep.passed and not rep.conjectural
    assert rep.sigma == 0.0 and rep.C == 0.0 and rep.D == 0.0


@pytest.mark.parametrize("estimator", ["empirical", "inductive"])
def test_run_rademacher_hoeffding(estimator):
    cfg = ExperimentConfig(
        distributions=[rademacher()], n=100, estimator=estimator,
        trials=300, delta=0.1, seed=0, bound="hoeffding",
    )
    rep = run_concentration(cfg)
    assert rep.sigma == pytest.approx(1.0, abs=1e-8)
    assert rep.C == pytest.approx(1.0, abs=1e-8)
    assert rep.passed


@pytest.mark.parametrize("scale", [None, 0.5], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("bound, overrides, radius", [
    pytest.param("hoeffding", {}, lambda s, C, n, d: bounds.hoeffding_radius(s, C, n, d),
                 id="hoeffding"),
    pytest.param("bernstein", {"combine": "min"},
                 lambda s, C, n, d: bounds.bernstein_radius(s, C, n, d, combine="min"),
                 id="bernstein-min"),
    pytest.param("subgaussian", {"K": 0.7},
                 lambda s, C, n, d: bounds.subgaussian_radius(0.7, s, n, d),
                 id="subgaussian-K"),
    pytest.param("noniid_hoeffding", {},
                 lambda s, C, n, d: bounds.noniid_hoeffding_radius([s] * n, [C] * n, n, d),
                 id="noniid_hoeffding"),
    pytest.param("noniid_bernstein", {},
                 lambda s, C, n, d: bounds.noniid_bernstein_radius([s] * n, C, n, d),
                 id="noniid_bernstein"),
])
def test_bound_value_matches_direct_call(bound, overrides, radius, scale):
    n, delta = 4, 0.1
    if scale is not None:
        overrides = {**overrides, "scale": scale}
    cfg = ExperimentConfig(
        distributions=[rademacher()] * (n if bound.startswith("noniid") else 1),
        n=n, estimator="inductive", trials=3, delta=delta, seed=0,
        bound=bound, bound_overrides=overrides,
    )
    rep = run_concentration(cfg)
    expected = radius(rep.sigma, rep.C, n, delta) * (1.0 if scale is None else scale)
    assert rep.bound_value == expected


def test_config_rejects_unknown_bound():
    with pytest.raises(ValueError, match="nope"):
        ExperimentConfig(
            distributions=[rademacher()], n=10, estimator="inductive",
            trials=5, delta=0.1, bound="nope",
        )


def test_run_scaled_down_bound_fails():
    cfg = ExperimentConfig(
        distributions=[rademacher()], n=100, estimator="inductive",
        trials=300, delta=0.1, seed=0, bound="hoeffding",
        bound_overrides={"scale": 0.01},
    )
    rep = run_concentration(cfg)
    assert not rep.passed


def test_determinism_same_seed():
    cfg = hoeffding_config("euclidean", "inductive")
    cfg.trials = 60
    a = run_concentration(cfg)
    b = run_concentration(cfg)
    assert a.distances == b.distances
    cfg.seed = 1
    c = run_concentration(cfg)
    assert c.distances != a.distances


def test_noniid_identical_matches_iid():
    iid = ExperimentConfig(
        distributions=[rademacher()], n=20, estimator="inductive",
        trials=40, delta=0.1, seed=5, bound="hoeffding",
    )
    noniid = ExperimentConfig(
        distributions=[rademacher() for _ in range(20)], n=20,
        estimator="inductive", trials=40, delta=0.1, seed=5,
        bound="noniid_hoeffding",
    )
    a = run_concentration(iid)
    b = run_concentration(noniid)
    assert a.distances == b.distances


def test_noniid_requires_shared_barycenter():
    shifted = DistributionSpec(Euclidean(1), [np.array([1.0]), np.array([3.0])])
    cfg = ExperimentConfig(
        distributions=[rademacher(), shifted], n=2, estimator="inductive",
        trials=10, delta=0.1, seed=0, bound="noniid_hoeffding",
    )
    with pytest.raises(ValueError, match="shared barycenter"):
        run_concentration(cfg)


def test_noniid_coverage_small():
    cfg = noniid_config("inductive")
    cfg.trials = 150
    rep = run_concentration(cfg)
    assert rep.passed


def test_conjectural_flag_on_trees():
    cfg = hoeffding_config("metric_tree", "empirical")
    cfg.trials = 20
    assert run_concentration(cfg).conjectural
    cfg = hoeffding_config("metric_tree", "inductive")
    cfg.trials = 20
    assert not run_concentration(cfg).conjectural


def test_bernstein_beats_hoeffding_on_small_variance():
    cfg = bernstein_config("euclidean", "inductive")
    cfg.trials = 100
    rep = run_concentration(cfg)
    assert rep.sigma <= 0.1 * rep.C + 1e-12
    from npcbary.bounds import hoeffding_radius

    assert rep.bound_value < hoeffding_radius(rep.sigma, rep.C, rep.n, rep.delta)
    assert rep.passed


def test_config_json_round_trip():
    cfg = hoeffding_config("spd_affine", "empirical")
    again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again.to_json() == cfg.to_json()
    rep_a = run_concentration(_shrunk(cfg))
    rep_b = run_concentration(_shrunk(again))
    assert rep_a.distances == rep_b.distances


def _shrunk(cfg):
    cfg.trials = 10
    return cfg


def test_trial_report_csv_shape():
    cfg = hoeffding_config("euclidean", "inductive")
    cfg.trials = 25
    rep = run_concentration(cfg)
    lines = rep.csv_lines()
    assert lines[0] == "trial,distance,covered"
    assert len(lines) == 26
    trial, dist_s, cov = lines[7].split(",")
    assert trial == "6" and float(dist_s) == rep.distances[6] and cov in "01"


# ---------------------------------------------------------------------------
# Sturm law of large numbers
# ---------------------------------------------------------------------------


def test_sturm_point_mass():
    cfg = ExperimentConfig(
        distributions=[point_mass()], n=5, estimator="inductive",
        trials=30, delta=0.1, seed=0,
    )
    rep = verify_sturm_lln(cfg)
    assert rep.mean_sq_distance == 0.0 and rep.bound == 0.0 and rep.passed


def test_sturm_requires_inductive():
    cfg = ExperimentConfig(
        distributions=[point_mass()], n=5, estimator="empirical",
        trials=10, delta=0.1, seed=0,
    )
    with pytest.raises(ValueError):
        verify_sturm_lln(cfg)


def test_sturm_rademacher_tight():
    cfg = sturm_config("euclidean")
    cfg.trials = 500
    rep = verify_sturm_lln(cfg)
    assert rep.bound == pytest.approx(1.0 / 50.0, abs=1e-10)
    assert rep.passed


def test_sturm_noniid_zero_variance_coordinate():
    """Replacing one coordinate by a point mass drops the bound by exactly
    sigma_1^2/n^2 and the check still passes."""
    n = 10
    mixed = [point_mass() if i == 0 else rademacher_at(1.0 + i / n) for i in range(n)]
    # all symmetric around... point mass at 2.0 breaks the shared barycenter;
    # use a zero-centered point mass instead
    mixed[0] = DistributionSpec(Euclidean(1), [np.array([0.0])], label="zero mass")
    cfg = ExperimentConfig(
        distributions=mixed, n=n, estimator="inductive",
        trials=400, delta=0.1, seed=2, bound="noniid_hoeffding",
    )
    rep = verify_sturm_lln(cfg)
    full = sum((1.0 + i / n) ** 2 for i in range(1, n)) / n**2
    assert rep.bound == pytest.approx(full, rel=1e-9)
    assert rep.passed


def rademacher_at(a: float) -> DistributionSpec:
    return DistributionSpec(Euclidean(1), [np.array([-a]), np.array([a])], label=f"pm {a}")


# ---------------------------------------------------------------------------
# sub-Gaussian witness tails
# ---------------------------------------------------------------------------


def test_witness_point_mass():
    rep = verify_subgaussian_witness(point_mass(), np.array([0.0]), 500, [0.1, 0.5, 1.0])
    assert all(r.empirical == 0.0 for r in rep.rows)
    assert rep.passed


def test_witness_two_atoms_midpoint():
    half = 0.7
    dist = DistributionSpec(Euclidean(1), [np.array([-half]), np.array([half])])
    rep = verify_subgaussian_witness(dist, np.array([0.0]), 2000, [half, 10.0 * half])
    # f is constant: |f - mean| = 0, so even the capped bound is slack
    assert rep.C == half
    assert rep.rows[0].empirical == 0.0
    assert rep.rows[1].empirical == 0.0
    assert rep.passed


def test_witness_three_atom():
    rep = verify_subgaussian_witness(
        witness_distribution(), np.array([0.0]), 20_000, [0.2 * k for k in range(1, 11)]
    )
    assert rep.C == 1.0
    assert rep.passed
    assert rep.rows[-1].empirical == 0.0  # beyond the support range


# ---------------------------------------------------------------------------
# stochastic barycenter computation
# ---------------------------------------------------------------------------


def test_pac_identical_points():
    space = Euclidean(1)
    rep = run_pac(space, [np.array([4.0])] * 20, 0.5, 0.1, 30)
    assert rep.m == 1 and rep.frequency == 1.0


def test_pac_rademacher_instance():
    space, pts = pac_points()
    rep = run_pac(space, pts, 0.5, 0.1, 120, seed=0)
    assert rep.m == 37
    assert rep.frequency >= 0.9


def test_pac_eps_at_least_diameter():
    space, pts = pac_points()
    rep = run_pac(space, pts, 2.0, 0.1, 50)
    assert rep.frequency == 1.0


def test_pac_bernstein_smaller_m():
    space, pts = pac_points(small_variance=True)
    plain = run_pac(space, pts, 0.5, 0.1, 60)
    bern = run_pac(space, pts, 0.5, 0.1, 60, use_bernstein=True)
    assert bern.m < plain.m
    assert bern.frequency >= 0.9


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------


def test_property_suite_euclidean():
    rep = npc_property_suite(Euclidean(2), samples=300, tuple_pairs=20, seed=1)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == [
        "midpoint_inequality",
        "constant_speed",
        "lipschitz_inductive",
        "lipschitz_empirical",
    ]


def test_property_suite_tree():
    rep = npc_property_suite(star_tree(), samples=300, tuple_pairs=15, seed=2)
    assert rep.passed


def test_property_suite_rejects_sphere():
    with pytest.raises(SpaceError):
        npc_property_suite(Sphere(1.0), samples=10)


def test_property_suite_report_json():
    rep = npc_property_suite(Euclidean(2), samples=50, tuple_pairs=5, seed=0)
    obj = json.loads(json.dumps(rep.to_json()))
    assert obj["passed"] is True
    assert len(obj["checks"]) == 4


def test_sphere_cap_distribution_valid():
    dist = sphere_cap_distribution()
    b = population_barycenter(dist)
    assert dist.space.validate_point(b) is None
