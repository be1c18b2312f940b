"""Monte Carlo harness: sampling from discrete distributions on the
implemented spaces, barycenter estimation per trial, and empirical
verification of the concentration bounds.

Ground truth (population barycenter, Frechet variance, support radius) is
computed exactly from the weighted support, never estimated from samples, so
coverage checks carry a single layer of Monte Carlo error.  Every trial draws
its own RNG stream from (seed, trial index); reports are therefore identical
regardless of scheduling, and two runs of the same config and seed produce
bitwise-identical distance lists.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .barycenter import (
    ConvergenceError,
    WeightedSample,
    empirical_barycenter,
    frechet_variance,
    inductive_barycenter,
    sample_diameter,
    support_ball,
    weighted_barycenter,
)
from .spaces import (
    Euclidean,
    Hyperbolic,
    MetricTree,
    Space,
    SpaceError,
    SpdAffine,
    Sphere,
    check_keys,
    point_from_json,
    read_field,
    read_items,
    space_from_json,
    space_to_json,
    spd_exp,
    sym_part,
    product_l1_dist,
)

# Statistical pass thresholds use a z = 3 normal-approximation slack:
# false-failure rate below 0.3% per check.
Z_SLACK = 3.0

# Solver tolerances: trial barycenters only need to resolve distances far
# below the bound radius; ground truths are held tighter.
TRIAL_TOL_REL = 1e-4
GROUND_TRUTH_TOL_REL = 1e-9

ESTIMATORS = ("empirical", "inductive")

# The radii a coverage run can check, evaluated through bounds.BOUND_EVALUATORS.
COVERAGE_BOUNDS = ("subgaussian", "hoeffding", "bernstein", "noniid_hoeffding", "noniid_bernstein")

# The bound overrides _resolve_bound reads, with their JSON kinds.
BOUND_OVERRIDES = {"K": float, "scale": float, "combine": str}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index)."""
    return np.random.default_rng([int(seed), int(trial)])


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass
class DistributionSpec:
    """A finitely supported probability measure on one space, holding one
    :class:`WeightedSample` and the cumulative table that sampling searches."""

    space: Space
    support: list
    weights: tuple[Fraction, ...] | None = None
    label: str = ""

    def __post_init__(self):
        self.support = list(self.support)
        self._sample = WeightedSample(self.support, self.weights)
        self.weights = self._sample.weights
        for i, p in enumerate(self.support):
            diag = self.space.validate_point(p)
            if diag is not None:
                raise SpaceError(f"support point {i}: {diag}")
        cum = np.cumsum([float(w) for w in self._sample.resolved_weights()])
        cum[-1] = 1.0
        cum.flags.writeable = False
        self._cum = cum

    def cumulative_weights(self) -> np.ndarray:
        """Read-only cumulative weights, last entry exactly 1."""
        return self._cum

    def as_weighted_sample(self) -> WeightedSample:
        return self._sample

    def diameter(self) -> float:
        return sample_diameter(self.space, self.support)

    def to_json(self) -> dict:
        return {
            "support": [self.space.payload_to_json(p) for p in self.support],
            "weights": None
            if self.weights is None
            else [str(w) for w in self.weights],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, space: Space, obj: dict) -> "DistributionSpec":
        support = read_items(obj, "support", lambda p: point_from_json(space, p))
        check_keys(obj, ("support", "weights", "label"))
        return cls(
            space=space,
            support=support,
            weights=read_field(obj, "weights", list, None),
            label=read_field(obj, "label", str, ""),
        )


def population_barycenter(dist: DistributionSpec, tol: float | None = None):
    """Barycenter of the full weighted support.

    For spheres the support must sit inside an open ball of radius
    pi/(2*sqrt(kappa)) (certified by :func:`~npcbary.barycenter.support_ball`,
    the best support atom as center), which guarantees a unique barycenter;
    otherwise an error names the violated ball condition.
    """
    space = dist.space
    if isinstance(space, Sphere):
        limit = math.pi / (2.0 * math.sqrt(space.kappa))
        _, radius = support_ball(space, dist.support)
        if radius >= limit:
            raise SpaceError(
                "sphere support too spread: needs an open ball of radius "
                f"pi/(2*sqrt(kappa)) = {limit}, best support-centered radius is {radius}"
            )
    if tol is None:
        tol = GROUND_TRUTH_TOL_REL * (1.0 + dist.diameter())
    return weighted_barycenter(space, dist.as_weighted_sample(), tol=tol).point


def sample(dist: DistributionSpec, rng: np.random.Generator):
    """One support point drawn with its weight as probability."""
    return dist.support[int(draw_indices(dist.cumulative_weights(), rng, 1)[0])]


def draw_indices(cum: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` atom indices from ``size`` uniforms of ``rng``, atom i drawn
    with probability cum[i] - cum[i-1].  Every sampling path goes through
    here, so one seed gives the same atoms whichever path draws them."""
    return np.searchsorted(cum, rng.random(size), side="right")


# ---------------------------------------------------------------------------
# experiment configuration and reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment: a single distribution (i.i.d.) or n
    distributions sharing a barycenter (independent non-identically
    distributed), an estimator, a trial budget, and a named bound."""

    distributions: list[DistributionSpec]
    n: int
    estimator: str
    trials: int
    delta: float
    seed: int = 0
    tol: float | None = None
    bound: str = "hoeffding"
    bound_overrides: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if not self.distributions:
            raise ValueError("config needs at least one distribution")
        if len(self.distributions) not in (1, self.n):
            raise ValueError(
                f"need 1 distribution (i.i.d.) or n={self.n} (non-i.i.d.), "
                f"got {len(self.distributions)}"
            )
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.bound not in COVERAGE_BOUNDS:
            raise ValueError(f"bound must be one of {COVERAGE_BOUNDS}, got {self.bound!r}")
        check_keys(self.bound_overrides, BOUND_OVERRIDES)
        spaces = {d.space for d in self.distributions}
        if len(spaces) != 1:
            raise ValueError("all distributions must live on the same space")

    @property
    def space(self) -> Space:
        return self.distributions[0].space

    @property
    def iid(self) -> bool:
        return len(self.distributions) == 1

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "space": space_to_json(self.space),
            "distributions": [d.to_json() for d in self.distributions],
            "n": self.n,
            "estimator": self.estimator,
            "trials": self.trials,
            "delta": self.delta,
            "seed": self.seed,
            "tol": self.tol,
            "bound": {"name": self.bound, "overrides": self.bound_overrides},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        space = space_from_json(read_field(obj, "space", dict))
        check_keys(obj, ("label", "space", "distributions", "n", "estimator", "trials",
                         "delta", "seed", "tol", "bound"))
        bound = read_field(obj, "bound", (str, dict), {})
        if isinstance(bound, str):
            bound = {"name": bound}
        overrides = read_field(bound, "overrides", dict, {})
        check_keys(bound, ("name", "overrides"))
        for name, kind in BOUND_OVERRIDES.items():
            if name in overrides:
                read_field(overrides, name, kind)
        return cls(
            distributions=read_items(
                obj, "distributions", lambda d: DistributionSpec.from_json(space, d)
            ),
            n=read_field(obj, "n", int),
            estimator=read_field(obj, "estimator", str, "empirical"),
            trials=read_field(obj, "trials", int),
            delta=read_field(obj, "delta", float),
            seed=read_field(obj, "seed", int, 0),
            tol=read_field(obj, "tol", float, None),
            bound=read_field(bound, "name", str, "hoeffding"),
            bound_overrides=dict(overrides),
            label=read_field(obj, "label", str, ""),
        )


@dataclass
class TrialReport:
    """Record of one run_concentration experiment."""

    label: str
    estimator: str
    bound_name: str
    n: int
    delta: float
    trials: int
    seed: int
    sigma: float
    C: float
    D: float
    bound_value: float
    distances: list[float]
    mean_sq_distance: float
    quantile: float        # empirical (1 - delta)-quantile of the distances
    coverage: float        # fraction of trials with distance <= bound
    passed: bool
    conjectural: bool      # empirical estimator on a branching space
    wall_clock_s: float

    def to_json(self) -> dict:
        return asdict(self)

    def csv_lines(self) -> list[str]:
        lines = ["trial,distance,covered"]
        for i, d in enumerate(self.distances):
            lines.append(f"{i},{d:.17g},{int(d <= self.bound_value)}")
        return lines

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def coverage_threshold(delta: float, trials: int) -> float:
    return 1.0 - delta - Z_SLACK * math.sqrt(delta * (1.0 - delta) / trials)


def _resolve_bound(config: ExperimentConfig, sigma: float, C: float,
                   sigmas: list[float], Cs: list[float]) -> float:
    """The configured radius via ``bounds.evaluate_bound``; overrides are K
    (default 2C), combine (Bernstein forms) and a final scale factor."""
    overrides = config.bound_overrides
    query = {
        "sigma": sigma, "C": C, "sigmas": sigmas, "Cs": Cs,
        "n": config.n, "delta": config.delta,
        "K": float(overrides.get("K", 2.0 * C)),
    }
    if "combine" in overrides:
        query["combine"] = overrides["combine"]
    return bounds.evaluate_bound(config.bound, query) * float(overrides.get("scale", 1.0))


def _trial_estimator(config: ExperimentConfig, trial_tol: float) -> Callable:
    space = config.space
    if config.estimator == "inductive":
        return lambda pts: inductive_barycenter(space, pts)

    def run(pts):
        return empirical_barycenter(space, pts, tol=trial_tol).point

    return run


def _setup_ground_truth(config: ExperimentConfig):
    """Population barycenter, per-variable sigma/C, and the sampling tables."""
    space = config.space
    dists = config.distributions
    b_star = population_barycenter(dists[0])
    if not config.iid:
        check_tol = config.tol
        if check_tol is None:
            check_tol = TRIAL_TOL_REL * (1.0 + max(d.diameter() for d in dists))
        for i, d in enumerate(dists[1:], start=1):
            b_i = population_barycenter(d)
            gap = space.dist(b_star, b_i)
            if gap > check_tol:
                raise ValueError(
                    f"non-i.i.d. mode needs a shared barycenter: distribution {i} "
                    f"({d.label or 'unlabeled'}) is {gap} away from the first"
                )
    sigmas, Cs = [], []
    for d in dists:
        sigmas.append(math.sqrt(frechet_variance(space, d.as_weighted_sample(), b_star)))
        Cs.append(max(space.dist(b_star, x) for x in d.support))
    return b_star, sigmas, Cs


def run_concentration(config: ExperimentConfig) -> TrialReport:
    """Draw n points per trial, estimate the barycenter, and compare the
    distances d(T_n, b*) against the configured bound.

    The boundedness center x0 is taken to be b* itself and C the largest
    support distance from it, the choice that minimizes C.  A trial whose
    barycenter solve fails aborts the run with the trial index.
    """
    t0 = time.perf_counter()
    space = config.space
    dists = config.distributions
    b_star, sigmas, Cs = _setup_ground_truth(config)
    sigma = math.sqrt(sum(s * s for s in sigmas) / len(sigmas))
    C = max(Cs)
    D = max(d.diameter() for d in dists)

    bound_value = _resolve_bound(config, sigma, C, sigmas, Cs)

    trial_tol = config.tol
    if trial_tol is None:
        trial_tol = TRIAL_TOL_REL * (1.0 + D)
    estimate = _trial_estimator(config, trial_tol)

    # i.i.d.: n draws from the one distribution; otherwise one draw from each
    # distribution in turn, consuming the same uniforms as n draws at once
    size = config.n if config.iid else 1
    blocks = [(d.support, d.cumulative_weights()) for d in dists]
    distances = []
    for t in range(config.trials):
        rng = trial_rng(config.seed, t)
        pts = [support[i] for support, cum in blocks for i in draw_indices(cum, rng, size)]
        try:
            t_n = estimate(pts)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"trial {t}: {exc}", exc.point, exc.displacement, exc.iterations
            ) from exc
        distances.append(space.dist(t_n, b_star))

    arr = np.asarray(distances)
    coverage = float(np.mean(arr <= bound_value))
    passed = coverage >= coverage_threshold(config.delta, config.trials)
    conjectural = config.estimator == "empirical" and isinstance(space, MetricTree)
    return TrialReport(
        label=config.label,
        estimator=config.estimator,
        bound_name=config.bound,
        n=config.n,
        delta=config.delta,
        trials=config.trials,
        seed=config.seed,
        sigma=sigma,
        C=C,
        D=D,
        bound_value=bound_value,
        distances=distances,
        mean_sq_distance=float(np.mean(arr**2)),
        quantile=float(np.quantile(arr, 1.0 - config.delta)),
        coverage=coverage,
        passed=passed,
        conjectural=conjectural,
        wall_clock_s=time.perf_counter() - t0,
    )


@dataclass
class SturmReport:
    label: str
    n: int
    trials: int
    seed: int
    mean_sq_distance: float
    bound: float
    stderr: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def verify_sturm_lln(config: ExperimentConfig) -> SturmReport:
    """Check E[d(S_n, b*)^2] <= (sigma_1^2 + ... + sigma_n^2)/n^2 for the
    inductive barycenter, up to three standard errors of the trial mean."""
    if config.estimator != "inductive":
        raise ValueError("the Sturm bound applies to the inductive estimator")
    report = run_concentration(config)
    _, sigmas, _ = _setup_ground_truth(config)
    if config.iid:
        sigmas = [sigmas[0]] * config.n
    bound = bounds.sturm_lln_bound(sigmas, config.n)
    sq = np.asarray(report.distances) ** 2
    stderr = float(np.std(sq, ddof=1) / math.sqrt(len(sq))) if len(sq) > 1 else 0.0
    mean_sq = float(np.mean(sq))
    return SturmReport(
        label=config.label,
        n=config.n,
        trials=config.trials,
        seed=config.seed,
        mean_sq_distance=mean_sq,
        bound=bound,
        stderr=stderr,
        passed=mean_sq <= bound + Z_SLACK * stderr,
    )


@dataclass
class WitnessRow:
    t: float
    empirical: float
    bound: float
    stderr: float
    ok: bool


@dataclass
class WitnessReport:
    C: float
    mean_f: float
    trials: int
    seed: int
    rows: list[WitnessRow]
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def verify_subgaussian_witness(
    dist: DistributionSpec,
    x0,
    trials: int,
    t_grid: Sequence[float],
    seed: int = 0,
) -> WitnessReport:
    """Tail check for the witness function f = d(., x0): the support sits in
    B(x0, C), so f(X) must satisfy the 4C^2-sub-Gaussian two-sided tail
    2*exp(-t^2/(8 C^2)) up to three binomial standard errors.

    E[f(X)] is computed exactly from the weighted support.
    """
    space = dist.space
    dist.space.check_point(x0)
    atom_f = np.array([space.dist(x, x0) for x in dist.support])
    C = float(atom_f.max())
    weights = np.array([float(w) for w in dist.as_weighted_sample().resolved_weights()])
    mean_f = float(weights @ atom_f)

    rng = trial_rng(seed, 0)
    idx = draw_indices(dist.cumulative_weights(), rng, trials)
    dev = np.abs(atom_f[idx] - mean_f)

    rows = []
    for t in t_grid:
        p_hat = float(np.mean(dev >= t))
        bound = bounds.subgaussian_tail(2.0 * C, t) if C > 0 else 0.0
        se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        rows.append(WitnessRow(float(t), p_hat, bound, se, p_hat <= bound + Z_SLACK * se))
    return WitnessReport(
        C=C,
        mean_f=mean_f,
        trials=trials,
        seed=seed,
        rows=rows,
        passed=all(r.ok for r in rows),
    )


@dataclass
class PacReport:
    m: int
    trials: int
    successes: int
    frequency: float
    eps_target: float
    delta: float
    D: float
    sigma2: float
    use_bernstein: bool
    c_pac: float
    seed: int
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def run_pac(
    space: Space,
    points: Sequence,
    eps_target: float,
    delta: float,
    trials: int,
    use_bernstein: bool = False,
    c_pac: float = 1.0,
    seed: int = 0,
    tol: float | None = None,
) -> PacReport:
    """Stochastic barycenter computation: per trial, draw m uniform indices,
    run the inductive recursion on the subsample, and count a success when
    the result lands within eps_target of the full-set barycenter."""
    n = len(points)
    if n < 1:
        raise SpaceError("need at least one point")
    D = sample_diameter(space, points)
    if tol is None:
        tol = GROUND_TRUTH_TOL_REL * (1.0 + D)
    b_star = empirical_barycenter(space, points, tol=tol).point
    sigma2 = frechet_variance(space, WeightedSample(list(points)), b_star)
    if D == 0.0:
        m = 1
    elif use_bernstein:
        m = bounds.pac_sample_size_bernstein(sigma2, D, eps_target, delta, c_pac)
    else:
        m = bounds.pac_sample_size(D, eps_target, delta, c_pac)

    successes = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        idx = rng.integers(0, n, size=m)
        sub = [points[i] for i in idx]
        b_m = inductive_barycenter(space, sub)
        if space.dist(b_m, b_star) <= eps_target:
            successes += 1
    freq = successes / trials
    return PacReport(
        m=m,
        trials=trials,
        successes=successes,
        frequency=freq,
        eps_target=eps_target,
        delta=delta,
        D=D,
        sigma2=sigma2,
        use_bernstein=use_bernstein,
        c_pac=c_pac,
        seed=seed,
        passed=freq >= coverage_threshold(delta, trials),
    )


# ---------------------------------------------------------------------------
# random instances and property suites
# ---------------------------------------------------------------------------


def random_point(space: Space, rng: np.random.Generator):
    """A bounded, well-conditioned random point of the given space."""
    if isinstance(space, Euclidean):
        return rng.standard_normal(space.dim)
    if isinstance(space, SpdAffine):
        S = sym_part(rng.uniform(-1.0, 1.0, (space.p, space.p)))
        return spd_exp(S)
    if isinstance(space, Hyperbolic):
        v = rng.standard_normal(space.dim)
        nrm = math.sqrt(float(v @ v))
        if nrm == 0.0:
            return space.base_point()
        return space.exp_from_base(v / nrm, rng.uniform(0.0, 2.0))
    if isinstance(space, Sphere):
        v = rng.standard_normal(space.dim)
        nrm = math.sqrt(float(v @ v))
        if nrm == 0.0:
            return space.base_point()
        cap = math.pi / (4.0 * math.sqrt(space.kappa))
        return space.exp_from_base(v / nrm, rng.uniform(0.0, cap))
    if isinstance(space, MetricTree):
        eid = int(rng.integers(len(space.edges)))
        return space.edge_point(eid, float(rng.uniform(0.0, space.edges[eid][2])))
    raise SpaceError(f"no random generator for space kind {space.kind!r}")


def random_tuple(space: Space, rng: np.random.Generator, n: int) -> list:
    return [random_point(space, rng) for _ in range(n)]


def perturbed_tuple(space: Space, rng: np.random.Generator, xs: Sequence, scale: float = 0.3) -> list:
    """Move each point a random fraction of the way toward a fresh random
    point; perturbation sizes vary per coordinate."""
    return [
        space.geodesic_point(x, random_point(space, rng), rng.uniform(0.0, scale))
        for x in xs
    ]


@dataclass
class PropertyCheck:
    name: str
    samples: int
    violations: int = 0
    max_excess: float = -math.inf
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def record(self, excess: float, witness: Callable[[], dict], slack: float = 0.0):
        """Fold in one instance: ``excess`` raises ``max_excess``, and above
        ``slack`` it is a violation; the first violation keeps ``witness()``."""
        self.max_excess = max(self.max_excess, excess)
        if excess > slack:
            self.violations += 1
            if self.witness is None:
                self.witness = witness()

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass
class PropertySuiteReport:
    space_kind: str
    seed: int
    checks: list[PropertyCheck]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "space": self.space_kind,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def npc_midpoint_excess(space: Space, x, y, z) -> tuple[float, float]:
    """Signed violation of the midpoint inequality
    d(z,m)^2 <= (d(z,x)^2 + d(z,y)^2)/2 - d(x,y)^2/4 at m the geodesic
    midpoint, plus the squared scale of the triple for tolerance scaling."""
    m = space.geodesic_point(x, y, 0.5)
    dzx = space.dist(z, x)
    dzy = space.dist(z, y)
    dxy = space.dist(x, y)
    lhs = space.dist(z, m) ** 2
    rhs = 0.5 * (dzx**2 + dzy**2) - 0.25 * dxy**2
    return lhs - rhs, dzx**2 + dzy**2 + dxy**2


def npc_property_suite(
    space: Space,
    samples: int = 10_000,
    seed: int = 0,
    tuple_pairs: int = 200,
    n_range: tuple[int, int] = (2, 10),
    solver_tol_rel: float = 1e-6,
) -> PropertySuiteReport:
    """Randomized verification of the structural properties that hold in
    non-positively curved spaces: the midpoint inequality, constant-speed
    geodesics, and the (1/n)-Lipschitz property of both barycenter maps under
    the L1 product metric.

    Positively curved spaces are rejected; the midpoint inequality is exactly
    what they fail.
    """
    if isinstance(space, Sphere):
        raise SpaceError("the NPC property suite does not apply to positively curved spaces")
    for name, count in (("samples", samples), ("tuple_pairs", tuple_pairs)):
        if count < 1:
            raise SpaceError(f"{name} must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    to_json = space.payload_to_json

    midpoint = PropertyCheck("midpoint_inequality", samples)
    for _ in range(samples):
        x, y, z = (random_point(space, rng) for _ in range(3))
        excess, sq_scale = npc_midpoint_excess(space, x, y, z)
        midpoint.record(excess, lambda: {"x": to_json(x), "y": to_json(y), "z": to_json(z),
                                         "excess": excess},
                        slack=1e-8 * (1.0 + sq_scale))

    speed = PropertyCheck("constant_speed", samples)
    for _ in range(samples):
        x, y = random_point(space, rng), random_point(space, rng)
        s, t = rng.uniform(), rng.uniform()
        d = space.dist(x, y)
        err = abs(space.dist(space.geodesic_point(x, y, s), space.geodesic_point(x, y, t))
                  - abs(s - t) * d)
        speed.record(err - 1e-8 * (1.0 + d),
                     lambda: {"x": to_json(x), "y": to_json(y), "s": s, "t": t, "error": err})
    checks = [midpoint, speed]

    for estimator in ("inductive", "empirical"):
        check = PropertyCheck(f"lipschitz_{estimator}", tuple_pairs)
        for _ in range(tuple_pairs):
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            xs = random_tuple(space, rng, n)
            ys = perturbed_tuple(space, rng, xs)
            d1 = product_l1_dist(space, xs, ys)
            # the inductive maps are exact up to rounding; the empirical ones
            # also carry each solve's certified distance to the true mean
            slack = 1e-8 * (1.0 + d1)
            if estimator == "inductive":
                tx = inductive_barycenter(space, xs)
                ty = inductive_barycenter(space, ys)
            else:
                tol = solver_tol_rel * (1.0 + sample_diameter(space, list(xs) + list(ys)))
                rx = empirical_barycenter(space, xs, tol=tol)
                ry = empirical_barycenter(space, ys, tol=tol)
                tx, ty = rx.point, ry.point
                slack += rx.error_bound + ry.error_bound
            excess = space.dist(tx, ty) - d1 / n - slack
            check.record(excess, lambda: {"n": n, "d1": d1, "excess": excess})
        checks.append(check)

    return PropertySuiteReport(space_kind=space.kind, seed=seed, checks=checks)
