"""Full-scale verification matrix.  Each test prints one PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them stream.

Statistical checks use z = 3 slack on binomial / mean standard errors, so
each has a false-failure rate below 0.3%.  Geometry checks are exact up to
the documented floating-point tolerances.
"""

import math
import time

import numpy as np
import pytest

from npcbary import (
    Euclidean,
    Hyperbolic,
    SpdAffine,
    Sphere,
    WeightedSample,
    empirical_barycenter,
    frechet_variance,
    inductive_barycenter,
    k_epsilon,
    pairwise_variance_estimate,
    run_concentration,
    run_pac,
    verify_sturm_lln,
    verify_subgaussian_witness,
)
from npcbary.barycenter import sample_diameter
from npcbary.bounds import cat_kappa_radius, hoeffding_radius
from npcbary.cli import main as cli_main
from npcbary.experiments import (
    npc_property_suite,
    population_barycenter,
    trial_rng,
)
from npcbary.presets import (
    bernstein_config,
    hoeffding_config,
    noniid_config,
    pac_points,
    sphere_cap_distribution,
    sturm_config,
    witness_distribution,
)

from conftest import random_point, random_tuple, star_tree

SEED = 2024
COVERAGE_TRIALS = 2000
COVERAGE_DELTA = 0.1
# 1 - delta - 3 sqrt(delta (1-delta) / trials) ~= 0.880
COVERAGE_THRESHOLD = 1.0 - COVERAGE_DELTA - 3.0 * math.sqrt(
    COVERAGE_DELTA * (1.0 - COVERAGE_DELTA) / COVERAGE_TRIALS
)

NPC_KINDS = ("euclidean", "spd_affine", "hyperbolic", "metric_tree")


def acceptance_spaces():
    return {
        "euclidean": Euclidean(2),
        "spd_affine": SpdAffine(3),
        "hyperbolic": Hyperbolic(-1.0),
        "metric_tree": star_tree(),
    }


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))


@pytest.fixture(scope="module")
def property_suites():
    """One full-size property-suite run per NPC space, shared by the
    midpoint-inequality, constant-speed, and Lipschitz criteria."""
    out = {}
    for kind, space in acceptance_spaces().items():
        t0 = time.perf_counter()
        out[kind] = npc_property_suite(space, samples=10_000, tuple_pairs=1000, seed=SEED)
        print(f"  [suite {kind}: {time.perf_counter() - t0:.1f}s]")
    return out


def test_criterion_01_geometry_exactness():
    spd = SpdAffine(2)
    d = spd.dist(np.eye(2), np.diag([math.e**2, 1.0]))
    gm = spd.geodesic_point(np.eye(2), np.diag([4.0, 4.0]), 0.5)
    err_d = abs(d - 2.0) / 2.0
    err_gm = float(np.max(np.abs(gm - np.diag([2.0, 2.0])))) / 2.0
    ok = err_d <= 1e-10 and err_gm <= 1e-10
    report_line(1, "geometry exactness", ok, f"dist rel err {err_d:.2e}, mean rel err {err_gm:.2e}")
    assert ok


def test_criterion_02_midpoint_inequality(property_suites):
    checks = {k: s.checks[0] for k, s in property_suites.items()}
    ok = all(c.violations == 0 for c in checks.values())
    detail = ", ".join(f"{k}: {c.violations}/{c.samples}" for k, c in checks.items())
    report_line(2, "midpoint inequality on 10^4 triples", ok, detail)
    assert ok


def test_criterion_03_constant_speed(property_suites):
    checks = {k: s.checks[1] for k, s in property_suites.items()}
    # the positively curved space runs the same check outside the NPC suite
    sph = Sphere(1.0)
    rng = np.random.default_rng(SEED)
    sphere_violations = 0
    for _ in range(10_000):
        x, y = random_point(sph, rng), random_point(sph, rng)
        s, t = rng.uniform(), rng.uniform()
        d = sph.dist(x, y)
        err = abs(
            sph.dist(sph.geodesic_point(x, y, s), sph.geodesic_point(x, y, t))
            - abs(s - t) * d
        )
        if err > 1e-8 * (1.0 + d):
            sphere_violations += 1
    ok = all(c.violations == 0 for c in checks.values()) and sphere_violations == 0
    detail = ", ".join(f"{k}: {c.violations}" for k, c in checks.items())
    report_line(3, "constant-speed geodesics on 10^4 draws", ok,
                detail + f", sphere: {sphere_violations}")
    assert ok


def test_criterion_04_lipschitz(property_suites):
    rows = {}
    for kind, suite in property_suites.items():
        ind, emp = suite.checks[2], suite.checks[3]
        rows[kind] = (ind.violations, emp.violations, ind.samples)
    ok = all(v == (0, 0, 1000) or (v[0] == 0 and v[1] == 0) for v in rows.values())
    detail = ", ".join(f"{k}: ind {a}/{n}, emp {b}/{n}" for k, (a, b, n) in rows.items())
    report_line(4, "1/n-Lipschitz barycenter maps", ok, detail)
    assert ok


def test_criterion_05_euclidean_consistency():
    rng = np.random.default_rng(SEED)
    worst_ind = worst_emp = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        space = Euclidean(dim)
        pts = [rng.standard_normal(dim) for _ in range(int(rng.integers(2, 21)))]
        mean = np.mean(pts, axis=0)
        worst_ind = max(worst_ind, float(np.max(np.abs(inductive_barycenter(space, pts) - mean))))
        res = empirical_barycenter(space, pts, tol=1e-12)
        worst_emp = max(worst_emp, float(np.max(np.abs(res.point - mean))))
    ok = worst_ind <= 1e-10 and worst_emp <= 1e-10
    report_line(5, "euclidean mean consistency", ok,
                f"inductive err {worst_ind:.2e}, empirical err {worst_emp:.2e}")
    assert ok


def test_criterion_06_sturm_lln():
    cfg = sturm_config("euclidean", seed=SEED, n=50, trials=COVERAGE_TRIALS)
    rep_e = verify_sturm_lln(cfg)
    rel = abs(rep_e.mean_sq_distance - rep_e.bound) / rep_e.bound
    cfg = sturm_config("spd_affine", seed=SEED, n=50, trials=COVERAGE_TRIALS)
    rep_s = verify_sturm_lln(cfg)
    ok = rep_e.passed and rel <= 0.15 and rep_s.passed
    report_line(
        6, "Sturm law of large numbers", ok,
        f"euclid mean_sq {rep_e.mean_sq_distance:.5f} vs bound {rep_e.bound:.5f} "
        f"(rel {rel:.3f}), spd mean_sq {rep_s.mean_sq_distance:.5f} vs bound {rep_s.bound:.5f}",
    )
    assert ok


def test_criterion_07_hoeffding_coverage():
    rows = []
    ok = True
    for kind in NPC_KINDS:
        for estimator in ("empirical", "inductive"):
            rep = run_concentration(hoeffding_config(kind, estimator, seed=SEED))
            rows.append(f"{kind}/{estimator}: {rep.coverage:.4f}")
            ok = ok and rep.coverage >= COVERAGE_THRESHOLD
    report_line(7, f"Hoeffding coverage >= {COVERAGE_THRESHOLD:.3f}", ok, "; ".join(rows))
    assert ok


def test_criterion_08_bernstein_coverage():
    rows = []
    ok = True
    for kind in NPC_KINDS:
        for estimator in ("empirical", "inductive"):
            rep = run_concentration(bernstein_config(kind, estimator, seed=SEED))
            hoeff = hoeffding_radius(rep.sigma, rep.C, rep.n, rep.delta)
            sharper = rep.bound_value < hoeff
            small_var = rep.sigma <= 0.1 * rep.C + 1e-12
            rows.append(
                f"{kind}/{estimator}: cov {rep.coverage:.4f}, "
                f"radius {rep.bound_value:.4f} < hoeffding {hoeff:.4f}"
            )
            ok = ok and rep.coverage >= COVERAGE_THRESHOLD and sharper and small_var
    report_line(8, "Bernstein coverage and refinement", ok, "; ".join(rows))
    assert ok


def test_criterion_09_noniid_coverage():
    rows = []
    ok = True
    for estimator in ("empirical", "inductive"):
        rep = run_concentration(noniid_config(estimator, seed=SEED))
        rows.append(f"{estimator}: {rep.coverage:.4f} (bound {rep.bound_value:.4f})")
        ok = ok and rep.coverage >= COVERAGE_THRESHOLD
    report_line(9, "heterogeneous coverage, shared barycenter", ok, "; ".join(rows))
    assert ok


def test_criterion_10_subgaussian_witness():
    dist = witness_distribution()
    rep = verify_subgaussian_witness(
        dist, np.array([0.0]), trials=100_000,
        t_grid=[0.2 * k for k in range(1, 11)], seed=SEED,
    )
    worst = max(r.empirical - (r.bound + 3 * r.stderr) for r in rep.rows)
    report_line(10, "bounded-support witness tails", rep.passed,
                f"C={rep.C}, worst margin {worst:.2e} over {len(rep.rows)} thresholds")
    assert rep.passed


def test_criterion_11_pac_algorithm():
    space, pts = pac_points()
    rep = run_pac(space, pts, eps_target=0.5, delta=0.1, trials=500, c_pac=1.0, seed=SEED)
    space_sv, pts_sv = pac_points(small_variance=True)
    plain_sv = run_pac(space_sv, pts_sv, 0.5, 0.1, trials=500, c_pac=1.0, seed=SEED)
    bern_sv = run_pac(space_sv, pts_sv, 0.5, 0.1, trials=500, use_bernstein=True,
                      c_pac=1.0, seed=SEED)
    ok = (
        rep.m == 37
        and rep.frequency >= 0.9
        and bern_sv.m < plain_sv.m
        and bern_sv.frequency >= 0.9
    )
    report_line(
        11, "stochastic barycenter guarantee", ok,
        f"m={rep.m} success {rep.frequency:.3f}; small-variance m {bern_sv.m} < {plain_sv.m}, "
        f"success {bern_sv.frequency:.3f}",
    )
    assert ok


def test_criterion_12_variance_sandwich():
    """Two-sided sandwich for the pairwise estimator, 200 random instances
    per space, zero violations at 1e-9 relative tolerance.

    The lower half (variance <= pairwise) holds in every metric space.  The
    upper half (pairwise <= 2 * variance) is an equality in Hilbert geometry
    and holds on positively curved caps, but in curved NPC spaces the
    variance inequality forces pairwise >= 2 * variance with strict excess
    away from flat configurations, so this check reports violations on the
    SPD, hyperboloid, and tree instances.  It is kept two-sided on purpose;
    the detail line carries the measured worst ratios.
    """
    spaces = dict(acceptance_spaces())
    spaces["sphere"] = Sphere(1.0)
    rng = np.random.default_rng(SEED)
    rows = []
    all_ok = True
    for kind, space in spaces.items():
        tol_rel = 1e-3 if kind == "metric_tree" else 1e-6
        violations = 0
        worst_hi = 0.0
        worst_lo = math.inf
        for _ in range(200):
            pts = random_tuple(space, rng, int(rng.integers(2, 11)))
            pv = pairwise_variance_estimate(space, pts)
            tol = tol_rel * (1.0 + sample_diameter(space, pts))
            b = empirical_barycenter(space, pts, tol=tol).point
            var = frechet_variance(space, WeightedSample(pts), b)
            ratio = pv / var if var > 0 else 1.0
            worst_hi = max(worst_hi, ratio)
            worst_lo = min(worst_lo, ratio)
            if not var * (1 - 1e-9) <= pv <= 2 * var * (1 + 1e-9):
                violations += 1
        ok = violations == 0
        all_ok = all_ok and ok
        rows.append(f"{kind}: {violations}/200 violations, ratio in [{worst_lo:.3f}, {worst_hi:.3f}]")
    report_line(12, "variance sandwich [1, 2] * variance", all_ok, "; ".join(rows))
    assert all_ok, "; ".join(rows)


def test_criterion_13_cat_kappa_bound():
    ke = k_epsilon(1.0, math.pi / 4)
    ke_ok = abs(ke - math.pi / 2) <= 1e-12

    dist = sphere_cap_distribution()
    space = dist.space
    b_star = population_barycenter(dist)
    n, trials, delta = 10_000, 500, 0.1
    cum = dist.cumulative_weights()
    distances = []
    tol = 1e-4 * (1.0 + dist.diameter())
    for t in range(trials):
        rng = trial_rng(SEED, t)
        idx = np.searchsorted(cum, rng.random(n), side="right")
        pts = [dist.support[i] for i in idx]
        b_hat = empirical_barycenter(space, pts, tol=tol).point
        distances.append(space.dist(b_hat, b_star))
    quantile = float(np.quantile(distances, 1.0 - delta))
    radius = cat_kappa_radius(A=2.0, p=2.0, kappa=1.0, epsilon=math.pi / 4, n=n, delta=delta)
    ok = ke_ok and quantile <= radius
    report_line(
        13, "positively curved radius bound", ok,
        f"k_eps err {abs(ke - math.pi / 2):.1e}; 0.9-quantile {quantile:.5f} <= radius {radius:.3f}",
    )
    assert ok


def test_criterion_14_determinism(tmp_path):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "--preset", "hoeffding-euclidean-empirical", "--seed", str(SEED)]
    code_a = cli_main(args + ["--output", str(tmp_path / "a.json"), "--csv", str(csv_a)])
    code_b = cli_main(args + ["--output", str(tmp_path / "b.json"), "--csv", str(csv_b)])
    identical = csv_a.read_bytes() == csv_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    report_line(14, "bitwise-identical reruns", ok,
                f"{len(csv_a.read_bytes())} CSV bytes compared")
    assert ok
