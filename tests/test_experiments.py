"""The Monte Carlo engine: sampling, ground truth, coverage runs,
determinism, and the property suites."""

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from npcbary import (
    ConvergenceError,
    DistributionSpec,
    Euclidean,
    ExperimentConfig,
    Hyperbolic,
    SpaceError,
    SpdAffine,
    Sphere,
    npc_property_suite,
    population_barycenter,
    run_concentration,
    run_pac,
    sample,
    verify_sturm_lln,
    verify_subgaussian_witness,
)
from npcbary import (
    bounds, empirical_barycenter, experiments, inductive_barycenter, product_l1_dist,
)
from npcbary.barycenter import sample_diameter
from npcbary.cli import EXIT_CHECK_FAILED, main
from npcbary.experiments import (
    LOCKSTEP_BLOCK,
    PROPERTY_CHUNK,
    PropertyCheck,
    TRIAL_TOL_REL,
    _draw_instances,
    _midpoint_excess_rows,
    _speed_error_rows,
    draw_counts,
    draw_indices,
    random_points,
    trial_rng,
)
from npcbary.spaces import sym_part
from npcbary.presets import (
    PRESETS,
    bernstein_config,
    hoeffding_config,
    noniid_config,
    pac_points,
    preset_config,
    sphere_cap_distribution,
    sturm_config,
    witness_distribution,
)

from conftest import (npc_spaces, perturbed_tuple, random_point, random_tuple, space_id,
                      star_tree)


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


def test_population_barycenter_star_is_centre():
    tree = star_tree()
    dist = DistributionSpec(tree, [tree.vertex_point(v) for v in ("a", "b", "c")])
    assert population_barycenter(dist) == tree.vertex_point("o")


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
    mid = space.geodesic_point(x, y, 0.5)
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


class FixedUniforms:
    """A stand-in generator whose ``random(size, out=None)`` returns given
    uniforms, written into ``out`` when one is given, as numpy's does."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            assert size == len(self.u)
            return self.u.copy()
        out[:] = self.u
        return out


def tenths_with_zero(at: int) -> DistributionSpec:
    """Ten atoms of weight 1/10, whose float partial sums miss 1, and an
    atom of weight 0 at index ``at``."""
    weights = ["1/10"] * 10
    weights.insert(at, "0")
    return DistributionSpec(Euclidean(1), [np.array([float(i)]) for i in range(11)],
                            weights=weights)


# draw_counts sorts 10^4 uniforms from 11 atoms, and counts 10^5 by passes
@pytest.mark.parametrize("uniforms", [10_000, 100_000])
@pytest.mark.parametrize("at", [0, 5, 10])
def test_zero_weight_atoms_are_never_drawn(monkeypatch, at, uniforms):
    cum = tenths_with_zero(at).cumulative_weights()
    assert cum[at] == (cum[at - 1] if at else 0.0)
    assert cum[-1] == 1.0
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges[edges < 1.0],
                        trial_rng(at, 0).random(uniforms)])
    idx = draw_indices(cum, FixedUniforms(u), len(u))
    assert at not in idx
    counts = draw_counts(cum, FixedUniforms(u), len(u))
    assert counts[at] == 0
    assert counts.tobytes() == np.bincount(idx, minlength=len(cum)).tobytes()
    # an i.i.d. block of trials searches all its uniforms in one call
    cfg = ExperimentConfig([tenths_with_zero(at)], n=len(u), estimator="inductive", trials=2,
                           delta=0.1)
    monkeypatch.setattr(experiments, "trial_rngs",
                        lambda seed, block: map(FixedUniforms, [u] * len(block)))
    assert experiments._trial_draws(cfg)(range(2)).tobytes() == np.stack([idx, idx]).tobytes()


def some_zero_weights(k: int) -> DistributionSpec:
    """k atoms of weights proportional to i % 7, so atoms 0, 7, ... weigh 0."""
    return DistributionSpec(Euclidean(1), [np.array([float(i)]) for i in range(k)],
                            weights=[Fraction(i % 7, sum(j % 7 for j in range(k))) for i in range(k)])


COUNT_TABLES = {
    "one atom": point_mass(),
    "rademacher": rademacher(),
    "thirds": DistributionSpec(Euclidean(1), [np.array([float(i)]) for i in range(3)]),
    "zero first": tenths_with_zero(0),
    "zero middle": tenths_with_zero(5),
    "zero last": tenths_with_zero(10),
    "sphere cap": sphere_cap_distribution(),
    "10 atoms, some of weight 0": some_zero_weights(10),
    "11 atoms, some of weight 0": some_zero_weights(11),
    "100 atoms, some of weight 0": some_zero_weights(100),
}


@pytest.mark.parametrize("n", [1, 2, 100, 10_000])
@pytest.mark.parametrize("table", COUNT_TABLES)
def test_draw_counts_are_the_bincount_of_the_draws(table, n, monkeypatch):
    # draw_counts counts by passes over the uniforms where they cost less
    # than a sort: at n = 10^4 up to 10 atoms, at n <= 100 never (but one
    # atom, which needs no pass, from n = 2)
    cum = COUNT_TABLES[table].cumulative_weights()
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **kw: searches.append(1) or searchsorted(*a, **kw))
    for t in range(5):
        want = np.bincount(draw_indices(cum, trial_rng(7, t), n), minlength=len(cum))
        searches.clear()
        got = draw_counts(cum, trial_rng(7, t), n)
        if len(cum) > 1:
            assert bool(searches) == (n < 10_000 or len(cum) > 10)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def sorts_rows(k: int, trials: int, n: int) -> bool:
    """Whether experiments._count_rows sorts a block of trials x n uniforms
    from k atoms, by its cost model, rather than passing over it."""
    return (k - 1) * (trials * n + experiments.COUNT_PASS_FIXED) >= trials * n * math.log2(n)


BLOCK_COUNT_SIZES = [(trials, n) for trials in (1, 4, LOCKSTEP_BLOCK) for n in (1, 100, 10_000)]


def test_block_count_sizes_take_both_cost_model_branches():
    for trials in (4, LOCKSTEP_BLOCK):
        taken = {sorts_rows(len(d.support), trials, n) for d in COUNT_TABLES.values()
                 for t, n in BLOCK_COUNT_SIZES if t == trials}
        assert taken == {True, False}


@pytest.mark.parametrize("trials, n", BLOCK_COUNT_SIZES)
@pytest.mark.parametrize("table", COUNT_TABLES)
def test_block_counts_are_the_bincount_of_the_draws(table, trials, n, monkeypatch):
    # a block of i.i.d. trials is counted from its uniforms into one matrix,
    # each row bitwise the bincount of that trial's draws
    dist = COUNT_TABLES[table]
    cum = dist.cumulative_weights()
    cfg = ExperimentConfig([dist], n=n, estimator="empirical", trials=trials, delta=0.1, seed=7)
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **kw: searches.append(1) or searchsorted(*a, **kw))
    got = experiments._block_counts(cfg)(range(trials))
    if len(cum) > 1:
        assert bool(searches) == sorts_rows(len(cum), trials, n)
    monkeypatch.undo()
    assert got.shape == (trials, len(cum))
    for t, row in enumerate(got):
        want = np.bincount(draw_indices(cum, trial_rng(7, t), n), minlength=len(cum))
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes()


def test_noniid_block_counts_are_the_bincount_of_the_draws():
    cfg = preset_config("noniid-hoeffding-empirical")
    atoms = sum(len(d.support) for d in cfg.distributions)
    block = range(LOCKSTEP_BLOCK, LOCKSTEP_BLOCK + 9)
    got = experiments._block_counts(cfg)(block)
    want = np.stack([np.bincount(row, minlength=atoms)
                     for row in experiments._trial_draws(cfg)(block)])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def counted(monkeypatch, name: str) -> list:
    """Patch ``experiments.<name>`` to record each call; the list of calls."""
    calls = []
    original = getattr(experiments, name)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, record)
    return calls


def test_ground_truth_is_solved_once_per_spec(monkeypatch):
    solves = counted(monkeypatch, "weighted_barycenter")
    diameters = counted(monkeypatch, "sample_diameter")
    cap = sphere_cap_distribution()
    cfg = ExperimentConfig(distributions=[cap], n=100, estimator="empirical", trials=10,
                           delta=0.1)
    first, second = run_concentration(cfg), run_concentration(cfg)
    assert first.distances == second.distances
    assert len(solves) == 1 and len(diameters) == 1
    assert population_barycenter(cap) is population_barycenter(cap)
    assert len(solves) == 1

    # a spec rebuilt from the same JSON is a new spec, and solves again
    rebuilt = DistributionSpec.from_json(cap.space, json.loads(json.dumps(cap.to_json())))
    assert np.array_equal(population_barycenter(rebuilt), population_barycenter(cap))
    assert len(solves) == 2


def test_sturm_check_solves_its_ground_truth_once(monkeypatch):
    solves = counted(monkeypatch, "weighted_barycenter")
    cfg = sturm_config("euclidean", trials=20)
    verify_sturm_lln(cfg)
    assert len(solves) == 1


def test_too_spread_sphere_support_raises_on_every_call():
    space = Sphere(1.0)
    dist = DistributionSpec(space, [space.base_point(),
                                    space.exp_from_base(np.array([1.0, 0.0]), math.pi - 0.05)])
    for _ in range(2):
        with pytest.raises(SpaceError, match="ball"):
            population_barycenter(dist)


def test_a_spec_and_its_ground_truth_are_read_only():
    dist = rademacher()
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.label = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.support = []
    b_star = population_barycenter(dist)
    with pytest.raises(ValueError, match="read-only"):
        b_star[0] = 1.0
    assert population_barycenter(dist)[0] == 0.0


# ---------------------------------------------------------------------------
# concentration runs
# ---------------------------------------------------------------------------


def test_a_config_accepts_equal_trees_built_apart():
    trees = star_tree(), star_tree()
    dists = [DistributionSpec(t, [t.vertex_point("a"), t.vertex_point("b")]) for t in trees]
    cfg = ExperimentConfig(dists, n=2, estimator="empirical", trials=3, delta=0.1,
                           bound="noniid_hoeffding")
    assert trees[0] is not trees[1] and cfg.space == trees[1]
    assert run_concentration(cfg).trials == 3


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


def zero_weight_far_atom():
    """A point mass at 0.5, listed with a second atom, of weight 0, at 1.0."""
    return DistributionSpec(Euclidean(1), [np.array([0.5]), np.array([1.0])], weights=["1", "0"])


@pytest.mark.parametrize("iid", [True, False], ids=["iid", "noniid"])
@pytest.mark.parametrize("estimator", ["empirical", "inductive"])
def test_C_ignores_atoms_of_weight_zero(estimator, iid):
    # the measure is a point mass, so sigma = C = 0 and so is every radius
    dists = [zero_weight_far_atom()] * (1 if iid else 2)
    cfg = ExperimentConfig(dists, n=5 if iid else 2, estimator=estimator, trials=20, delta=0.1,
                           bound="hoeffding" if iid else "noniid_hoeffding")
    rep = run_concentration(cfg)
    assert rep.sigma == 0.0 and rep.C == 0.0 and rep.bound_value == 0.0
    assert rep.D == 0.5  # D spans every atom: it only scales tolerances
    assert rep.distances == [0.0] * 20 and rep.passed


@pytest.mark.parametrize("name", ["hoeffding-spd-empirical", "hoeffding-tree-inductive",
                                  "noniid-hoeffding-empirical"])
def test_ground_truth_measures_each_support_once(name, monkeypatch):
    # sigma and C come from one pass of distances from the atoms to b*
    cfg = preset_config(name)
    space, b_star = cfg.space, population_barycenter(cfg.distributions[0])
    for d in cfg.distributions:
        population_barycenter(d)
    calls = []
    row_dist = type(space).row_dist
    monkeypatch.setattr(type(space), "row_dist", lambda *a: calls.append(1) or row_dist(*a))
    _, sigmas, Cs, _, _ = experiments._setup_ground_truth(cfg)
    k = len(cfg.distributions)  # and k - 1 more, the non-i.i.d. check's gaps between b*s
    assert len(calls) == k + (k - 1)
    monkeypatch.undo()
    (b_row,) = space.stack([b_star])
    for d, sigma, C in zip(cfg.distributions, sigmas, Cs):
        r = space.row_dist(space.stack(d.support), b_row)
        assert sigma == math.sqrt(experiments.frechet_variance(space, d.as_weighted_sample(), b_star))
        assert C == max(ri for ri, w in zip(r.tolist(), d.as_weighted_sample().resolved_weights())
                        if w > 0)


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


def test_config_rejects_distributions_on_two_spaces():
    other = DistributionSpec(Euclidean(2), [np.array([0.0, 1.0])])
    with pytest.raises(ValueError, match="same space"):
        ExperimentConfig(distributions=[rademacher(), other], n=2, estimator="inductive",
                         trials=5, delta=0.1)


def test_spec_rejects_a_non_finite_atom():
    with pytest.raises(SpaceError, match="support point 1: non-finite entry"):
        DistributionSpec(Euclidean(1), [np.array([0.0]), np.array([math.nan])])


@pytest.mark.parametrize("call, needle", [
    (lambda: hoeffding_config("sphere"), "no coverage preset for 'sphere'"),
    (lambda: bernstein_config("sphere"), "no small-variance preset for 'sphere'"),
    (lambda: sturm_config("metric_tree"), "no Sturm preset for 'metric_tree'"),
    (lambda: preset_config("nope"), "unknown preset 'nope'"),
], ids=["coverage-kind", "small-variance-kind", "sturm-kind", "preset-name"])
def test_presets_reject_unknown_names(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


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


def per_trial_draws(cfg, t):
    """Trial t's points, drawn one distribution at a time by draw_indices."""
    rng = trial_rng(cfg.seed, t)
    size = cfg.n if cfg.iid else 1
    return [d.support[i] for d in cfg.distributions
            for i in draw_indices(d.cumulative_weights(), rng, size)]


def per_trial_inductive(cfg):
    """d(T_n, b*) per trial from the scalar recursion over each trial's draws."""
    b_star = population_barycenter(cfg.distributions[0])
    return np.array([cfg.space.dist(inductive_barycenter(cfg.space, per_trial_draws(cfg, t)),
                                    b_star) for t in range(cfg.trials)])


def presets_for(estimator):
    return sorted(name for name in PRESETS if preset_config(name).estimator == estimator)


@pytest.mark.parametrize("name", presets_for("inductive"))
def test_lockstep_trials_match_the_per_trial_recursion(name):
    cfg = preset_config(name)
    cfg.trials = 50
    rep = run_concentration(cfg)
    gap = np.abs(np.array(rep.distances) - per_trial_inductive(cfg))
    assert gap.max() <= 1e-10 * (1.0 + rep.D)


def per_trial_empirical(cfg, D):
    """d(T_n, b*) per trial from empirical_barycenter on each trial's draws."""
    b_star = population_barycenter(cfg.distributions[0])
    tol = cfg.tol if cfg.tol is not None else TRIAL_TOL_REL * (1.0 + D)
    return [cfg.space.dist(empirical_barycenter(cfg.space, per_trial_draws(cfg, t), tol=tol).point,
                           b_star) for t in range(cfg.trials)]


@pytest.mark.parametrize("name", presets_for("empirical"))
def test_empirical_trials_match_the_per_trial_solve(name):
    cfg = preset_config(name)
    cfg.trials = 40
    rep = run_concentration(cfg)
    assert rep.distances == per_trial_empirical(cfg, rep.D)


def test_empirical_trials_merge_support_points_equal_by_value():
    # the third support point repeats the first by value, in a new array
    space = Hyperbolic(-1.0)
    rng = np.random.default_rng(3)
    a, b = random_point(space, rng), random_point(space, rng)
    dist = DistributionSpec(space, [a, b, a.copy()], weights=["1/4", "1/2", "1/4"])
    cfg = ExperimentConfig(distributions=[dist], n=12, estimator="empirical",
                           trials=30, delta=0.1, seed=4)
    rep = run_concentration(cfg)
    assert rep.distances == per_trial_empirical(cfg, rep.D)


def measure_key(points, counts=None):
    """A trial's empirical measure: its distinct objects with their counts,
    in any order, from draws or from atoms with their ``counts``."""
    measure = {}
    for x, m in zip(points, [1] * len(points) if counts is None else counts):
        measure[id(x)] = measure.get(id(x), 0) + m
    return tuple(sorted(measure.items()))


def counting_solves(monkeypatch, fail_on=None):
    """Route run_concentration's empirical_barycenter through a wrapper that
    records each solve's measure, raising ConvergenceError on ``fail_on``."""
    seen = []

    def solve(space, points, **kw):
        seen.append(measure_key(points, kw.get("counts")))
        if seen[-1] == fail_on:
            raise ConvergenceError("forced")
        return empirical_barycenter(space, points, **kw)

    monkeypatch.setattr("npcbary.experiments.empirical_barycenter", solve)
    return seen


@pytest.mark.parametrize("name, trials", [("bernstein-spd-empirical", 400),
                                          ("noniid-hoeffding-empirical", 60)])
def test_each_distinct_measure_is_solved_once(monkeypatch, name, trials):
    cfg = preset_config(name)
    cfg.trials = trials
    keys = [measure_key(per_trial_draws(cfg, t)) for t in range(trials)]
    seen = counting_solves(monkeypatch)
    rep = run_concentration(cfg)
    assert seen == list(dict.fromkeys(keys))
    monkeypatch.undo()
    assert rep.distances == per_trial_empirical(cfg, rep.D)


@pytest.mark.parametrize("name, trials", [("bernstein-spd-empirical", 2 * LOCKSTEP_BLOCK + 5),
                                          ("noniid-hoeffding-empirical", LOCKSTEP_BLOCK + 5)])
def test_block_trials_match_the_per_trial_solve(name, trials):
    # blocks of 128 trials and a last of 5: each count vector is solved in
    # the block of its first trial and its distance shared by later blocks
    cfg = preset_config(name)
    cfg.trials = trials
    rep = run_concentration(cfg)
    assert rep.distances == per_trial_empirical(cfg, rep.D)


def test_shared_solve_error_names_the_first_trial_of_its_measure(monkeypatch):
    cfg = preset_config("bernstein-spd-empirical")
    cfg.trials = 200
    keys = [measure_key(per_trial_draws(cfg, t)) for t in range(cfg.trials)]
    # a measure first drawn after trial 0 and drawn again later
    first = next(t for t in range(1, cfg.trials)
                 if keys[t] not in keys[:t] and keys[t] in keys[t + 1:])
    counting_solves(monkeypatch, fail_on=keys[first])
    with pytest.raises(ConvergenceError, match=f"^trial {first}: forced"):
        run_concentration(cfg)


def test_criterion_13_trials_hand_the_solver_atoms_not_draws(monkeypatch):
    dist = sphere_cap_distribution()
    cfg = ExperimentConfig(distributions=[dist], n=10_000, estimator="empirical", trials=4,
                           delta=0.1, seed=2024, tol=1e-4 * (1.0 + dist.diameter()))
    sizes = []

    def solve(space, points, **kw):
        sizes.append(len(points))
        return empirical_barycenter(space, points, **kw)

    monkeypatch.setattr("npcbary.experiments.empirical_barycenter", solve)
    rep = run_concentration(cfg)
    assert sizes and max(sizes) <= len(dist.support)
    monkeypatch.undo()
    assert rep.distances == per_trial_empirical(cfg, rep.D)


def test_lockstep_blocks_cover_every_trial():
    cfg = hoeffding_config("hyperbolic", "inductive", seed=9)
    cfg.trials = LOCKSTEP_BLOCK + 3
    rep = run_concentration(cfg)
    want = per_trial_inductive(cfg)
    assert len(rep.distances) == len(want)
    assert np.all(np.abs(np.array(rep.distances) - want) <= 1e-10 * (1.0 + rep.D))


@pytest.mark.parametrize("budget", [250, 50])
def test_block_budget_keeps_the_distances(budget, monkeypatch):
    # with BLOCK_ENTRIES at 250 a block of n = 100 draws holds 2 trials, and
    # at 50 one trial, over budget on its own: the distances keep their bits
    pac_space, pac_pts = pac_points(True)
    runs = [lambda name=name: run_concentration(dataclasses.replace(
                preset_config(name), trials=30)).distances
            for name in ("hoeffding-hyperbolic-inductive", "bernstein-spd-empirical",
                         "hoeffding-tree-empirical", "noniid-hoeffding-empirical")]
    runs.append(lambda: run_pac(pac_space, pac_pts, 0.5, 0.1, 30, seed=3))
    blocks, make_blocks = [], experiments._blocks
    block_distances = experiments._block_distances

    def recorded(trials, width):
        for block in make_blocks(trials, width):
            blocks.append((len(block), width))
            yield block

    for run in runs:
        distances = []  # run_pac's, which its report does not list
        monkeypatch.setattr(experiments, "_block_distances",
                            lambda *a: distances.append(block_distances(*a)) or distances[-1])
        want = (run(), distances[:])
        distances.clear()
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", budget)
        monkeypatch.setattr(experiments, "_blocks", recorded)
        assert (run(), distances) == want
        monkeypatch.undo()
    assert blocks and all(size * width <= budget or size == 1 for size, width in blocks)
    for w in {width for _, width in blocks}:  # n = 100, and run_pac's m
        assert max(size for size, width in blocks if width == w) == min(30, max(1, budget // w))


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
# trial streams, anchored to numpy's default_rng([seed, trial])
# ---------------------------------------------------------------------------

STREAM_SEEDS = [0, 1, 5, 12345, 2**32 - 1, 2**32, 2**64 + 7, 2**96 - 1, 2**96, 2**100 + 3,
                2**200 + 11]


def stream_head(rng) -> list:
    """Eight doubles and one integers draw of a generator."""
    return rng.random(8).tolist() + [int(rng.integers(0, 2**62))]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_are_numpys_default_rng(seed):
    # entropies of 1 to 7 seed words and of one or two trial words, and a
    # block that crosses from one-word trials to two-word trials
    for trials in (range(300), range(2**32 - 2, 2**32 + 2), range(2**40, 2**40 + 1)):
        got = [stream_head(rng) for rng in experiments.trial_rngs(seed, trials)]
        assert got == [stream_head(np.random.default_rng([seed, t])) for t in trials]
    for t in (0, 299, 2**32 - 1, 2**32, 2**40):
        assert stream_head(trial_rng(seed, t)) == stream_head(np.random.default_rng([seed, t]))


def test_trial_streams_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="nonnegative"):
        trial_rng(-1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        experiments.trial_rngs(-1, range(3))


def default_rng_draws(cfg, t) -> np.ndarray:
    """Trial t's atom indices into the stacked supports, drawn from
    np.random.default_rng([seed, t]) as the harness drew them one trial at
    a time before it seeded its trials a block at a time."""
    rng = np.random.default_rng([cfg.seed, t])
    if cfg.iid:
        return draw_indices(cfg.distributions[0].cumulative_weights(), rng, cfg.n)
    dists = cfg.distributions
    offsets = np.cumsum([0] + [len(d.support) for d in dists[:-1]])
    cums = np.full((len(dists), max(len(d.support) for d in dists)), np.inf)
    for row, d in zip(cums, dists):
        row[: len(d.support)] = d.cumulative_weights()
    return offsets + np.count_nonzero(cums <= rng.random(cfg.n)[:, None], axis=1)


def default_rng_distances(cfg) -> list[float]:
    """run_concentration's distances from one np.random.default_rng([seed,
    t]) per trial: the harness's code before its trials were seeded a block
    at a time, kept as the oracle."""
    space = cfg.space
    b_star = population_barycenter(cfg.distributions[0])
    atoms = [x for d in cfg.distributions for x in d.support]
    if cfg.estimator == "inductive":
        (b_row,) = space.stack([b_star])
        out = []
        for start in range(0, cfg.trials, LOCKSTEP_BLOCK):
            idx = np.stack([default_rng_draws(cfg, t)
                            for t in range(start, min(start + LOCKSTEP_BLOCK, cfg.trials))])
            out += space.row_dist(experiments.inductive_rows(space, space.stack(atoms), idx),
                                  b_row).tolist()
        return out
    D = max(d.diameter() for d in cfg.distributions)
    tol = TRIAL_TOL_REL * (1.0 + D) if cfg.tol is None else cfg.tol
    solved, out = {}, []
    for t in range(cfg.trials):
        if cfg.iid:
            counts = draw_counts(cfg.distributions[0].cumulative_weights(),
                                 np.random.default_rng([cfg.seed, t]), cfg.n)
        else:
            counts = np.bincount(default_rng_draws(cfg, t), minlength=len(atoms))
        key = counts.tobytes()
        if key not in solved:
            drawn = np.flatnonzero(counts)
            t_n = empirical_barycenter(space, [atoms[i] for i in drawn.tolist()], tol=tol,
                                       counts=counts[drawn].tolist()).point
            solved[key] = space.dist(t_n, b_star)
        out.append(solved[key])
    return out


@pytest.mark.parametrize("name", ["hoeffding-hyperbolic-inductive", "bernstein-spd-empirical",
                                  "noniid-hoeffding-inductive", "noniid-hoeffding-empirical"])
def test_runs_draw_the_default_rng_streams(name):
    cfg = preset_config(name)
    cfg.trials = LOCKSTEP_BLOCK + 3
    assert run_concentration(cfg).distances == default_rng_distances(cfg)


def test_pac_draws_the_default_rng_streams(monkeypatch):
    space, pts = Hyperbolic(-1.0), [random_point(Hyperbolic(-1.0), np.random.default_rng(8))
                                    for _ in range(6)]
    seen = []
    block_distances = experiments._block_distances
    monkeypatch.setattr(experiments, "_block_distances",
                        lambda *a: seen.append(block_distances(*a)) or seen[-1])
    rep = run_pac(space, pts, 0.3, 0.2, LOCKSTEP_BLOCK + 5, seed=2**64 + 7, c_pac=0.05)
    b_star = empirical_barycenter(space, pts, tol=1e-9 * (1.0 + rep.D)).point
    (b_row,) = space.stack([b_star])
    want = []
    for start in range(0, rep.trials, LOCKSTEP_BLOCK):
        idx = np.stack([np.random.default_rng([2**64 + 7, t]).integers(0, len(pts), size=rep.m)
                        for t in range(start, min(start + LOCKSTEP_BLOCK, rep.trials))])
        want += space.row_dist(experiments.inductive_rows(space, space.stack(pts), idx),
                               b_row).tolist()
    assert seen == [want]
    assert rep.successes == sum(d <= 0.3 for d in want)


def test_trial_streams_build_no_seed_sequence_per_trial(monkeypatch):
    # every trial's PCG64 is seeded from precomputed words, never from a
    # SeedSequence of its own, and default_rng is not called
    calls, seeds = [], []
    for name in ("default_rng", "SeedSequence"):
        original = getattr(np.random, name)
        monkeypatch.setattr(np.random, name,
                            lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: seeds.append(seed) or pcg64(seed))
    trials = 0
    for name in ("hoeffding-euclidean-inductive", "bernstein-spd-empirical",
                 "noniid-hoeffding-inductive", "noniid-hoeffding-empirical"):
        cfg = preset_config(name)
        cfg.trials = LOCKSTEP_BLOCK + 3
        run_concentration(cfg)
        trials += cfg.trials
    assert calls == []
    assert len(seeds) == trials
    assert all(isinstance(s, np.random.bit_generator.ISeedSequence)
               and not isinstance(s, np.random.bit_generator.SeedSequence) for s in seeds)


def test_numpy_random_loads_at_the_first_trial_stream():
    # importing npcbary loads numpy.random only where importing numpy does
    # (numpy < 2); the trial streams load it at their first trial
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import npcbary; "
            "print(before, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = proc.stdout.split()
    assert after == before


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


def test_witness_point_mass_at_x0():
    # C = 0: the tail bound is its C -> 0 limit, 1 at t = 0 and 0 beyond
    rep = verify_subgaussian_witness(point_mass(), np.array([2.0]), 500, [0.0, 0.5])
    assert rep.C == 0.0
    assert [(r.empirical, r.bound) for r in rep.rows] == [(1.0, 1.0), (0.0, 0.0)]
    assert rep.passed


def test_witness_C_ignores_atoms_of_weight_zero():
    # all the mass is at x0, so C = 0 and the tail bound is its C -> 0 limit
    rep = verify_subgaussian_witness(zero_weight_far_atom(), np.array([0.5]), 500, [0.0, 0.1, 0.4])
    assert rep.C == 0.0 and rep.mean_f == 0.0
    assert [(r.empirical, r.bound) for r in rep.rows] == [(1.0, 1.0), (0.0, 0.0), (0.0, 0.0)]
    assert rep.passed


@pytest.mark.parametrize("x0", [2.0, 0.0], ids=["C=0", "C=2"])
def test_witness_rejects_negative_t(x0):
    with pytest.raises(ValueError, match="t must be >= 0"):
        verify_subgaussian_witness(point_mass(), np.array([x0]), 500, [0.5, -0.5])


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


@pytest.mark.parametrize("space", [Hyperbolic(-1.0), star_tree()], ids=["hyperbolic", "star-tree"])
def test_pac_trials_match_the_per_trial_recursion(space):
    rng = np.random.default_rng(8)
    pts = [random_point(space, rng) for _ in range(6)]
    # a small c_pac keeps m small, so that some trials miss
    rep = run_pac(space, pts, 0.3, 0.2, LOCKSTEP_BLOCK + 5, seed=2, c_pac=0.05)
    b_star = empirical_barycenter(space, pts, tol=1e-9 * (1.0 + rep.D)).point
    hits = 0
    for t in range(rep.trials):
        sub = [pts[i] for i in trial_rng(2, t).integers(0, len(pts), size=rep.m)]
        hits += space.dist(inductive_barycenter(space, sub), b_star) <= 0.3
    assert 0 < rep.successes == hits < rep.trials


@pytest.mark.parametrize("space, points, needle", [
    (Euclidean(1), [], "at least one point"),
    # once read as diameter 0, m = 1 and a pass
    (Hyperbolic(-1.0, 2), [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0])],
     "support point 1: not on the hyperboloid"),
    # no open ball of radius pi/2 holds the three: once a ConvergenceError
    (Sphere(1.0, 2), [np.array(p) for p in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0])],
     "sphere support too spread"),
], ids=["empty", "off-sheet", "sphere-spread"])
def test_pac_points_are_checked_as_a_distribution(space, points, needle):
    with pytest.raises(SpaceError, match=needle):
        run_pac(space, points, 0.5, 0.1, 10)


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


def test_tree_solve_ignores_the_tolerance(rng):
    # the property suite hands every space a tolerance; the exact tree solve
    # returns the same point, with bound 0.0, whatever it is
    tree = star_tree()
    pts = random_tuple(tree, rng, 7)
    exact = empirical_barycenter(tree, pts)
    for tol in (1e-12, 1e-6, 0.5):
        res = empirical_barycenter(tree, pts, tol=tol)
        assert (res.point, res.iterations, res.error_bound) == (exact.point, 0, 0.0)


@pytest.mark.parametrize("space", [SpdAffine(3), Hyperbolic(-1.0)], ids=repr)
def test_property_suite_checks_in_chunks(space):
    # just past one chunk, the midpoint check equals one unchunked row call
    # over the same stream's 3 * samples points
    samples = PROPERTY_CHUNK + 1
    midpoint = npc_property_suite(space, samples=samples, tuple_pairs=1, seed=4).checks[0]
    P = random_points(space, np.random.default_rng(4), 3 * samples)
    excess, sq_scale = _midpoint_excess_rows(space, P[0::3], P[1::3], P[2::3])
    assert midpoint.max_excess == excess.max()
    assert midpoint.violations == np.count_nonzero(excess > 1e-8 * (1.0 + sq_scale))


@pytest.mark.parametrize("p", [2, 3])
def test_checks_from_frames_equal_plain_stacks_bitwise(p):
    # the plain-stack forms factor the first stack of every call anew
    space = SpdAffine(p)
    rng = np.random.default_rng(5)
    (X, Y, Z), _ = _draw_instances(space, rng, 300, 3)
    dzx, dzy, dxy = space.row_dist(Z, X), space.row_dist(Z, Y), space.row_dist(X, Y)
    lhs = space.row_dist(Z, space.row_geodesic(X, Y, 0.5)) ** 2
    excess, sq_scale = _midpoint_excess_rows(space, X, Y, Z)
    assert excess.tobytes() == (lhs - (0.5 * (dzx**2 + dzy**2) - 0.25 * dxy**2)).tobytes()
    assert sq_scale.tobytes() == (dzx**2 + dzy**2 + dxy**2).tobytes()
    (X, Y), u = _draw_instances(space, rng, 300, 2, 2)
    S, T = u.T
    d = space.row_dist(X, Y)
    err = np.abs(space.row_dist(space.row_geodesic(X, Y, S), space.row_geodesic(X, Y, T))
                 - np.abs(S - T) * d)
    got_err, got_d = _speed_error_rows(space, X, Y, S, T)
    assert got_err.tobytes() == err.tobytes() and got_d.tobytes() == d.tobytes()


def test_spd_suite_places_each_block_once_and_factors_each_stack_once(monkeypatch):
    space, samples = SpdAffine(3), 200
    rng = np.random.default_rng(3)
    drawn = [*_draw_instances(space, rng, samples, 3)[0],
             *_draw_instances(space, rng, samples, 2, 2)[0]]
    places = counted(monkeypatch, "spd_exp")
    factored, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: factored.append(M.tobytes()) or eigh(M))
    npc_property_suite(space, samples=samples, seed=3, tuple_pairs=6)
    # one block each: the midpoint and constant-speed instances, then the
    # Lipschitz pairs' tuples and their perturbation targets
    assert len(places) == 4
    # the checks factor no drawn stack twice (the midpoint's z, for one, is
    # the first stack of three distance calls)
    assert [factored.count(sym_part(stack).tobytes()) for stack in drawn] == [1, 0, 1, 1, 0]


def _record_fold(check, excess, slack, witness):
    """The per-instance fold that the chunk fold replaced: each excess
    raises max_excess by Python's max, one above its slack is a violation,
    and the first violation keeps its witness."""
    for i, e in enumerate(excess.tolist()):
        check.max_excess = max(check.max_excess, e)
        if e > (slack[i] if np.ndim(slack) else slack):
            check.violations += 1
            if check.witness is None:
                check.witness = witness(i)


FOLD_CASES = {  # the chunks of excesses folded in turn
    "no_violation": [np.array([-3.0, -1.0, -2.0])],
    "first_row": [np.array([0.5, -1.0, 0.25])],
    "last_row": [np.array([-1.0, -2.0, 0.75])],
    "second_chunk": [np.array([-1.0, -0.5]), np.array([-2.0, 0.3, 0.9])],
    "equal_excesses": [np.array([-1.0, 0.4, 0.4]), np.array([0.4])],
}


@pytest.mark.parametrize("per_row_slack", [False, True])
@pytest.mark.parametrize("case", FOLD_CASES)
def test_chunk_fold_equals_the_per_instance_fold(case, per_row_slack):
    chunked, looped = PropertyCheck("check", 6), PropertyCheck("check", 6)
    start = 0
    for excess in FOLD_CASES[case]:
        slack = np.linspace(0.1, 0.2, len(excess)) if per_row_slack else 0.0

        def witness(i):  # the row's place across chunks tells witnesses apart
            return {"row": start + i, "excess": float(excess[i])}

        chunked.fold(excess, witness, slack=slack)
        _record_fold(looped, excess, slack, witness)
        start += len(excess)
    assert chunked == looped
    assert json.dumps(chunked.to_json()) == json.dumps(looped.to_json())


NAN_ROWS = [100, 150, 200, 250]


def _nan_distances(monkeypatch):
    """Euclidean.row_dist returns NaN on rows NAN_ROWS of every call over at
    least 300 rows: the property suite's chunks at samples=300, not the
    Lipschitz check's tuples, diameters or solves."""
    row_dist = Euclidean.row_dist

    def patched(self, xs, ys):
        d = row_dist(self, xs, ys)
        if len(d) >= 300:
            d[NAN_ROWS] = np.nan
        return d

    monkeypatch.setattr(Euclidean, "row_dist", patched)


def test_nan_excess_is_a_violation(monkeypatch, capsys):
    space = Euclidean(2)
    P = random_points(space, np.random.default_rng(1), 900)
    excess, _ = _midpoint_excess_rows(space, P[0::3], P[1::3], P[2::3])
    assert npc_property_suite(space, samples=300, tuple_pairs=5, seed=1).passed
    _nan_distances(monkeypatch)
    rep = npc_property_suite(space, samples=300, tuple_pairs=5, seed=1)
    midpoint, speed = rep.checks[:2]
    assert midpoint.violations == speed.violations == len(NAN_ROWS)
    assert not rep.passed
    # max_excess is the max of the other rows
    assert midpoint.max_excess == np.delete(excess, NAN_ROWS).max()
    assert math.isfinite(speed.max_excess)
    code = main(["check", "--space", "euclidean", "--samples", "300", "--tuple-pairs", "5",
                 "--seed", "1"])
    assert code == EXIT_CHECK_FAILED  # with its report written
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    report = json.loads(out.out)
    assert report["passed"] is False
    assert report["checks"][0]["witness"]["excess"] is None


def test_all_nan_check_writes_valid_json():
    check = PropertyCheck("check", 2)
    check.fold(np.array([np.nan, np.nan]), lambda i: {"row": i, "excess": math.nan})
    obj = json.loads(json.dumps(check.to_json(), allow_nan=False))
    assert (obj["violations"], obj["max_excess"], obj["ok"]) == (2, None, False)
    assert obj["witness"] == {"row": 0, "excess": None}


def _lipschitz_per_pair(space, seed, tuple_pairs, n_range):
    """The two Lipschitz checks of npc_property_suite(space, samples=1, ...),
    each pair drawn, perturbed, solved and folded in turn by the public
    helpers, and each check's excesses in pair order."""
    rng = np.random.default_rng(seed)
    random_points(space, rng, 3)  # the midpoint instance
    random_points(space, rng, 2)  # the constant-speed instance, then s and t
    rng.random(2)
    checks, excesses = [], []
    for estimator in ("inductive", "empirical"):
        check, excess = PropertyCheck(f"lipschitz_{estimator}", tuple_pairs), []
        for _ in range(tuple_pairs):
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            xs = random_tuple(space, rng, n)
            ys = perturbed_tuple(space, rng, xs)
            d1 = product_l1_dist(space, xs, ys)
            slack = 1e-8 * (1.0 + d1)
            if estimator == "inductive":
                tx, ty = inductive_barycenter(space, xs), inductive_barycenter(space, ys)
            else:
                tol = 1e-6 * (1.0 + sample_diameter(space, xs + ys))
                rx = empirical_barycenter(space, xs, tol=tol)
                ry = empirical_barycenter(space, ys, tol=tol)
                tx, ty = rx.point, ry.point
                slack += rx.error_bound + ry.error_bound
            e = space.dist(tx, ty) - d1 / n - slack
            check.fold(np.array([e]), lambda _: {"n": n, "d1": d1, "excess": e})
            excess.append(e)
        checks.append(check)
        excesses.append(excess)
    return checks, excesses


def _offset_dist(dist):
    # distances above 1e-3 read 1.0 long, so that pairs violate the check
    return lambda self, x, y: dist(self, x, y) + (dist(self, x, y) > 1e-3)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n_range", [(1, 1), (1, 4), (2, 10)], ids=str)
@pytest.mark.parametrize("space", npc_spaces(), ids=space_id)
def test_lipschitz_checks_equal_a_per_pair_loop(space, n_range, seed, monkeypatch):
    folded = []
    fold = PropertyCheck.fold

    def recording(check, excess, witness, slack=0.0):
        folded.append(excess.tolist())
        fold(check, excess, witness, slack)

    monkeypatch.setattr(PropertyCheck, "fold", recording)
    for corrupt in (False, True):
        if corrupt:  # witnesses too, from the same distance in both loops
            monkeypatch.setattr(type(space), "dist", _offset_dist(type(space).dist))
        folded.clear()
        rep = npc_property_suite(space, samples=1, seed=seed, tuple_pairs=12, n_range=n_range)
        suite_folds = folded[2:]
        checks, excesses = _lipschitz_per_pair(space, seed, 12, n_range)
        assert suite_folds == excesses
        assert rep.checks[2:] == checks
        assert json.dumps(rep.to_json()["checks"][2:]) == json.dumps([c.to_json() for c in checks])
        assert [c.witness is not None for c in checks] == [corrupt, corrupt]


@pytest.mark.parametrize("n_range", [(0, 3), (3, 2), (2,), (1, 2, 3), (1.0, 3), (True, 2), 5, "13"],
                         ids=repr)
def test_property_suite_rejects_bad_n_range(n_range):
    with pytest.raises(SpaceError, match="n_range"):
        npc_property_suite(Euclidean(2), samples=1, tuple_pairs=1, n_range=n_range)


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
