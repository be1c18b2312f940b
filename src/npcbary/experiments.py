"""Monte Carlo harness: sampling from discrete distributions on the
implemented spaces, barycenter estimation, and empirical verification of the
concentration bounds.

Ground truth (population barycenter, Frechet variance, support radius) is
computed exactly from the weighted support, never estimated from samples, so
coverage checks carry a single layer of Monte Carlo error.  Every trial draws
its own RNG stream from (seed, trial index); reports are therefore identical
regardless of scheduling, and two runs of the same config and seed produce
bitwise-identical distance lists.

Trials hold their draws as indices into the stacked support, or, for an
i.i.d. empirical trial, as counts of the atoms, and random instances are
drawn and placed a block at a time; README.md ("Notes on the solver")
describes both.  A distribution's ground truth is solved once per spec.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bounds
from .barycenter import (
    ConvergenceError,
    WeightedSample,
    empirical_barycenter,
    frechet_variance,
    inductive_barycenter,  # not called here; perfbench's tracer and self-test patch it here
    inductive_rows,
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
    read_fields,
    space_from_json,
    space_to_json,
    spd_exp,
    sym_part,
)

# Statistical pass thresholds use a z = 3 normal-approximation slack:
# false-failure rate below 0.3% per check.
Z_SLACK = 3.0

# Solver tolerances: trial barycenters only need to resolve distances far
# below the bound radius; ground truths are held tighter.
TRIAL_TOL_REL = 1e-4
GROUND_TRUTH_TOL_REL = 1e-9

ESTIMATORS = ("empirical", "inductive")

# Trials run this many at a time, inductive ones in lockstep: memory is one
# (block, n) index matrix and one stack of iterates.
LOCKSTEP_BLOCK = 128

# draw_counts' cost model: a pass over n uniforms costs n + COUNT_PASS_FIXED
# units and a sort n log2(n) units, a unit about 0.5 ns (2-core Xeon, numpy 2.4).
COUNT_PASS_FIXED = 4000

# The property suite places and checks its midpoint and constant-speed
# instances this many at a time, so its memory does not grow with samples.
PROPERTY_CHUNK = 1024

# _perturb moves each point at most this fraction of the way to its target.
PERTURB_SCALE = 0.3

# The radii a coverage run can check, by their names for bounds.evaluate_bound.
COVERAGE_BOUNDS = ("subgaussian", "hoeffding", "bernstein", "noniid_hoeffding", "noniid_bernstein")

# The bound overrides _resolve_bound reads, with their JSON kinds.
BOUND_OVERRIDES = {"K": float, "scale": float, "combine": str}


# numpy's SeedSequence mix multipliers and hash shift (NEP 19 fixes them), as
# 0-d arrays, which numpy applies faster than scalars
_MIX_L, _MIX_R, _SHIFT = np.array([0xCA01F9DD, 0x4973F715, 16], np.uint32)


def trial_rngs(seed: int, trials: range) -> Iterator[np.random.Generator]:
    """The generators of a block of consecutive ``trials`` (below 2^64), each
    bitwise ``np.random.default_rng([seed, trial])``, seeded as drawn from
    the words :func:`_seed_words` hashes for the whole block."""
    seed = int(seed)
    if seed < 0 or trials.start < 0:
        raise ValueError(f"seed and trials must be nonnegative, got {seed} and {trials}")
    if trials.start < 1 << 32 < trials.stop:  # trials from 2^32 on take two words
        cut = (1 << 32) - trials.start
        return chain(trial_rngs(seed, trials[:cut]), trial_rngs(seed, trials[cut:]))
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    t, high = np.arange(trials.start, trials.stop, dtype=np.uint64), trials.start >> 32 > 0
    # seed's words, then the trial's, then zeros up to four words, as numpy pads
    entropy = np.zeros((len(t), max(len(words) + 1 + high, 4)), np.uint32)
    entropy[:, : len(words)] = words
    entropy[:, len(words)] = t
    entropy[:, len(words) + high] = t >> 32 * high
    return (np.random.Generator(np.random.PCG64(row)) for row in _seed_words(entropy))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index): the one-trial
    case of :func:`trial_rngs`."""
    return next(trial_rngs(seed, range(int(trial), int(trial) + 1)))


class _SeedWords(np.ndarray):
    """Seed words that are their own numpy ``ISeedSequence`` (registered at
    first use: importing npcbary does not import numpy.random)."""

    def generate_state(self, n_words, dtype=None):  # PCG64 asks for 4 uint64
        return self


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """Row j: ``SeedSequence(entropy[j]).generate_state(4, np.uint64)`` of a
    (trials, words >= 4) uint32 array, by numpy's hash in uint32 arithmetic,
    one array operation for all the trials at each step."""
    xor, mul, out_xor, out_mul = _hash_constants(entropy.shape[1] - 4)

    def hashmix(v, step):
        v = v ^ xor[step]
        v *= mul[step]
        return v ^ v >> _SHIFT

    pool = hashmix(entropy[:, :4], 0)
    # step s <= 4 mixes pool word s - 1 into the others (its own mix is
    # undone), and each later step one more entropy word into all four
    for step in range(1, len(xor)):
        src = (pool if step <= 4 else entropy)[:, step - 1, None]
        mixed = pool * _MIX_L - hashmix(src, step) * _MIX_R
        mixed ^= mixed >> _SHIFT
        if step <= 4:
            mixed[:, step - 1] = src[:, 0]
        pool = mixed
    out = np.concatenate((pool, pool), axis=1) ^ out_xor  # eight words, read in cycle
    out *= out_mul
    out ^= out >> _SHIFT
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False).view(_SeedWords)


@functools.cache
def _hash_constants(extra: int) -> tuple:
    """:func:`_seed_words`' xor and multiplier rows, per step and of the
    output, for 4 + ``extra`` words: numpy's m-th hash xors h_m = a b^m and
    multiplies by h_(m+1), and step s hashes for word d by call calls[s, d]."""
    s, d = np.arange(5 + extra)[:, None], np.arange(4)
    calls = np.where(s <= 4, 3 * s + 1 + d - (d >= s), 4 * s - 4 + d)
    calls[0] = d
    h, out = (np.array([a] + [b] * k, np.uint32).cumprod(dtype=np.uint32) for a, b, k in
              ((0x43B0D7E5, 0x931E8875, 17 + 4 * extra), (0x8B51F9DD, 0x58F38DED, 8)))
    return list(h[calls]), list(h[calls + 1]), out[:8], out[1:]


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """A finitely supported probability measure on one space, holding one
    :class:`WeightedSample` and the cumulative table that sampling searches.

    A spec is frozen, so what is derived from it is computed at most once:
    its diameter on the first :meth:`diameter` call, and its barycenter on
    the first :func:`population_barycenter` call."""

    space: Space
    support: list
    weights: tuple[Fraction, ...] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "support", list(self.support))
        sample = WeightedSample(self.support, self.weights)
        object.__setattr__(self, "weights", sample.weights)
        for i, p in enumerate(self.support):
            diag = self.space.validate_point(p)
            if diag is not None:
                raise SpaceError(f"support point {i}: {diag}")
        # each exact partial sum rounded once: an atom of weight 0 gets its
        # predecessor's entry, so no uniform draws it, and the last is 1
        cum = np.array([float(s) for s in accumulate(sample.resolved_weights())])
        cum.flags.writeable = False
        object.__setattr__(self, "_sample", sample)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_memo", {})  # diameter and b*, once computed

    def cumulative_weights(self) -> np.ndarray:
        """Read-only cumulative weights, last entry exactly 1."""
        return self._cum

    def as_weighted_sample(self) -> WeightedSample:
        return self._sample

    def diameter(self) -> float:
        """The support's :func:`~npcbary.barycenter.sample_diameter`,
        computed on the first call."""
        if "diameter" not in self._memo:
            self._memo["diameter"] = sample_diameter(self.space, self.support)
        return self._memo["diameter"]

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
        return cls(space, **read_fields(obj, support=lambda p: point_from_json(space, p),
                                        weights=(list, None), label=(str, "")))


def population_barycenter(dist: DistributionSpec):
    """Barycenter of the full weighted support, at ``GROUND_TRUTH_TOL_REL *
    (1 + diameter)``: solved on the first call and kept on the spec, so that
    every later call returns that point, read-only.

    For spheres the support must sit inside an open ball of radius
    pi/(2*sqrt(kappa)) (certified by :func:`~npcbary.barycenter.support_ball`,
    the best support atom as center), which guarantees a unique barycenter;
    otherwise an error names the violated ball condition, on every call.
    """
    memo, space = dist._memo, dist.space
    if "b_star" not in memo:
        tol = GROUND_TRUTH_TOL_REL * (1.0 + dist.diameter())
        if isinstance(space, Sphere):
            limit = math.pi / (2.0 * math.sqrt(space.kappa))
            _, radius = support_ball(space, dist.support)
            if radius >= limit:
                raise SpaceError(
                    "sphere support too spread: needs an open ball of radius "
                    f"pi/(2*sqrt(kappa)) = {limit}, best support-centered radius is {radius}"
                )
        b_star = weighted_barycenter(space, dist.as_weighted_sample(), tol=tol).point
        if isinstance(b_star, np.ndarray):  # tree points are immutable already
            b_star = b_star.copy()
            b_star.flags.writeable = False
        memo["b_star"] = b_star
    return memo["b_star"]


def sample(dist: DistributionSpec, rng: np.random.Generator):
    """One support point drawn with its weight as probability."""
    return dist.support[int(draw_indices(dist.cumulative_weights(), rng, 1)[0])]


def draw_indices(cum: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` atom indices from ``size`` uniforms of ``rng``, atom i drawn
    with probability cum[i] - cum[i-1]: the number of entries of cum that
    are <= u.  Every sampling path draws its atoms by this rule, so one seed
    gives the same atoms whichever path draws them; :func:`draw_counts`
    counts them without the indices."""
    return np.searchsorted(cum, rng.random(size), side="right")


def draw_counts(cum: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """How many of ``size`` uniforms of ``rng`` pick each atom by the rule of
    :func:`draw_indices`, ``cum`` ending in 1: bitwise ``np.bincount(
    draw_indices(cum, rng, size), minlength=len(cum))``, from #{u < cum[i]}
    by one pass over the uniforms per entry or by one sort, whichever
    COUNT_PASS_FIXED rates cheaper, as README.md ("Notes on the solver")
    describes."""
    u = rng.random(size)
    if (len(cum) - 1) * (size + COUNT_PASS_FIXED) < size * math.log2(max(size, 1)):
        counts = np.array([np.count_nonzero(u < c) for c in cum[:-1].tolist()] + [size])
    else:
        u.sort()
        counts = np.searchsorted(u, cum)  # #{u < cum[i]}, the last all of them
    counts[1:] -= counts[:-1]  # numpy reads the overlapping operand as it was
    return counts


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
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError(f"tol must be null or > 0, got {self.tol}")
        if self.bound not in COVERAGE_BOUNDS:
            raise ValueError(f"bound must be one of {COVERAGE_BOUNDS}, got {self.bound!r}")
        check_keys(self.bound_overrides, BOUND_OVERRIDES)
        if not self.bound_overrides.get("scale", 0.0) >= 0.0:
            raise ValueError("bound override 'scale' must be >= 0")
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
        config = read_fields(
            obj, label=(str, ""), space=dict,
            distributions=lambda d: DistributionSpec.from_json(space, d), n=int,
            estimator=(str, "empirical"), trials=int, delta=float, seed=(int, 0),
            tol=(float, None), bound=((str, dict), {}))
        del config["space"]
        bound = config.pop("bound")
        name, overrides = read_fields({"name": bound} if isinstance(bound, str) else bound,
                                      name=(str, "hoeffding"), overrides=(dict, {})).values()
        for key, kind in BOUND_OVERRIDES.items():
            if key in overrides:
                read_field(overrides, key, kind)
        return cls(**config, bound=name, bound_overrides=dict(overrides))


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


def _blocks(trials: int) -> Iterator[range]:
    """Trials 0, ..., trials - 1, LOCKSTEP_BLOCK at a time."""
    return (range(i, min(i + LOCKSTEP_BLOCK, trials)) for i in range(0, trials, LOCKSTEP_BLOCK))


def _trial_draws(config: ExperimentConfig) -> Callable[[range], np.ndarray]:
    """A block of trials -> their (trials, n) matrix of draws, as indices
    into the supports stacked in distribution order: all from the one
    distribution if i.i.d., else draw i from distribution i.  Each trial's
    stream gives n uniforms at once, each picking its atom by the rule of
    :func:`draw_indices`; an i.i.d. block searches all its uniforms in one
    call."""
    dists = config.distributions

    def uniforms(block):
        return np.stack([rng.random(config.n) for rng in trial_rngs(config.seed, block)])

    if config.iid:
        cum = dists[0].cumulative_weights()
        return lambda block: np.searchsorted(cum, uniforms(block), side="right")
    offsets = np.cumsum([0] + [len(d.support) for d in dists[:-1]])
    # row i: distribution i's cumulative weights, padded with entries no u reaches
    cums = np.full((len(dists), max(len(d.support) for d in dists)), np.inf)
    for row, d in zip(cums, dists):
        row[: len(d.support)] = d.cumulative_weights()
    return lambda block: np.stack([offsets + np.count_nonzero(cums <= u[:, None], axis=1)
                                   for u in uniforms(block)])


def _trial_counts(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """Each trial's count of each atom of the stacked supports, in trial
    order: ``np.bincount`` of its row of :func:`_trial_draws`, counted as
    README.md ("Notes on the solver") describes."""
    if config.iid:
        cum = config.distributions[0].cumulative_weights()
        return (draw_counts(cum, rng, config.n) for block in _blocks(config.trials)
                for rng in trial_rngs(config.seed, block))
    draws = _trial_draws(config)
    atoms = sum(len(d.support) for d in config.distributions)
    return (np.bincount(row, minlength=atoms)
            for block in _blocks(config.trials) for row in draws(block))


def _block_distances(space: Space, b_star, trials: int, draws, support) -> list[float]:
    """d(T_n, b*) of the inductive barycenter for trials 0, ..., trials - 1,
    LOCKSTEP_BLOCK at a time: :func:`inductive_rows` walks a block of trials
    from their index matrix ``draws(block)`` into the stack ``support``, and
    their distances to b* are one row-wise call."""
    (b_row,) = space.stack([b_star])
    out = []
    for block in _blocks(trials):
        out += space.row_dist(inductive_rows(space, support, draws(block)), b_row).tolist()
    return out


def _setup_ground_truth(config: ExperimentConfig):
    """Population barycenter, per-variable sigma/C, the largest diameter D,
    and the trial tolerance: ``config.tol``, or TRIAL_TOL_REL * (1 + D)."""
    space = config.space
    dists = config.distributions
    b_star = population_barycenter(dists[0])
    D = max(d.diameter() for d in dists)
    trial_tol = TRIAL_TOL_REL * (1.0 + D) if config.tol is None else config.tol
    if not config.iid:
        for i, d in enumerate(dists[1:], start=1):
            b_i = population_barycenter(d)
            gap = space.dist(b_star, b_i)
            if gap > trial_tol:
                raise ValueError(
                    f"non-i.i.d. mode needs a shared barycenter: distribution {i} "
                    f"({d.label or 'unlabeled'}) is {gap} away from the first"
                )
    (b_row,) = space.stack([b_star])
    sigmas, Cs = [], []
    for d in dists:
        sigmas.append(math.sqrt(frechet_variance(space, d.as_weighted_sample(), b_star)))
        Cs.append(float(space.row_dist(b_row, space.stack(d.support)).max()))
    return b_star, sigmas, Cs, D, trial_tol


def run_concentration(config: ExperimentConfig) -> TrialReport:
    """Draw n points per trial, estimate the barycenter, and compare the
    distances d(T_n, b*) against the configured bound.

    The boundedness center x0 is taken to be b* itself and C the largest
    support distance from it, the choice that minimizes C.  b* and the
    diameters are each spec's own, computed once per spec.  Each trial
    draws from its own stream.  Inductive trials advance in lockstep,
    LOCKSTEP_BLOCK at a time.  Empirical trials are keyed by their counts
    (:func:`_trial_counts`), as README.md ("Notes on the solver") describes,
    and solved once per key; a failing solve aborts the run naming the first
    trial with that key.
    """
    t0 = time.perf_counter()
    space = config.space
    dists = config.distributions
    b_star, sigmas, Cs, D, trial_tol = _setup_ground_truth(config)
    sigma = math.sqrt(sum(s * s for s in sigmas) / len(sigmas))
    C = max(Cs)

    bound_value = _resolve_bound(config, sigma, C, sigmas, Cs)

    atoms = [x for d in dists for x in d.support]
    if config.estimator == "inductive":
        distances = _block_distances(space, b_star, config.trials, _trial_draws(config),
                                     space.stack(atoms))
    else:
        solved, distances = {}, []
        for t, counts in enumerate(_trial_counts(config)):
            key = counts.tobytes()
            if key not in solved:
                drawn = np.flatnonzero(counts)
                try:
                    t_n = empirical_barycenter(space, [atoms[i] for i in drawn.tolist()],
                                               tol=trial_tol, counts=counts[drawn].tolist()).point
                except ConvergenceError as exc:
                    raise ConvergenceError(
                        f"trial {t}: {exc}", exc.point, exc.displacement, exc.iterations
                    ) from exc
                solved[key] = space.dist(t_n, b_star)
            distances.append(solved[key])

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


def verify_sturm_lln(config: ExperimentConfig) -> SturmReport:
    """Check E[d(S_n, b*)^2] <= (sigma_1^2 + ... + sigma_n^2)/n^2 for the
    inductive barycenter, up to three standard errors of the trial mean."""
    if config.estimator != "inductive":
        raise ValueError("the Sturm bound applies to the inductive estimator")
    report = run_concentration(config)
    sigmas = _setup_ground_truth(config)[1]
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
    (x0_row,) = space.stack([x0])
    atom_f = space.row_dist(space.stack(dist.support), x0_row)
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


def run_pac(
    space: Space,
    points: Sequence,
    eps_target: float,
    delta: float,
    trials: int,
    use_bernstein: bool = False,
    c_pac: float = 1.0,
    seed: int = 0,
) -> PacReport:
    """Stochastic barycenter computation: per trial, draw m uniform indices,
    run the inductive recursion on the subsample, and count a success when
    the result lands within eps_target of the full-set barycenter, the
    :func:`population_barycenter` of the uniform measure on ``points``.  The
    trials advance in lockstep, LOCKSTEP_BLOCK at a time."""
    spec = DistributionSpec(space, points)
    D = spec.diameter()
    b_star = population_barycenter(spec)
    sigma2 = frechet_variance(space, spec.as_weighted_sample(), b_star)
    n = len(points)
    if D == 0.0:
        m = 1
    elif use_bernstein:
        m = bounds.pac_sample_size_bernstein(sigma2, D, eps_target, delta, c_pac)
    else:
        m = bounds.pac_sample_size(D, eps_target, delta, c_pac)

    def draws(block):
        return np.stack([rng.integers(0, n, size=m) for rng in trial_rngs(seed, block)])

    distances = _block_distances(space, b_star, trials, draws, space.stack(points))
    successes = sum(d <= eps_target for d in distances)
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


def _variates(space: Space, rng: np.random.Generator, k: int, points: int,
              uniforms: int = 0) -> tuple[tuple, np.ndarray]:
    """Raw variates of k instances of a layout (``points`` random points, then
    ``uniforms`` plain uniforms each) from a per-instance loop of generator calls
    only: arrays over the points in instance order, for :func:`_place`, and the uniforms."""
    rows, uniform = k * points, np.empty((k, uniforms))
    if isinstance(space, SpdAffine):
        width = points * space.p ** 2
        u = rng.random((k, width + uniforms))
        return ((-1.0 + 2.0 * u[:, :width]).reshape(rows, space.p, space.p),), u[:, width:]
    if isinstance(space, Euclidean):
        (normals,) = cols = (np.empty((rows, space.dim)),)
        def instance(a, b):
            normals[a:b] = rng.standard_normal((points, space.dim))
    elif isinstance(space, (Hyperbolic, Sphere)):
        # a direction, its norm (1 for a zero direction) and a uniform for its radius
        normals, norms, u = cols = (np.empty((rows, space.dim)), np.ones(rows), np.zeros(rows))
        def instance(a, b):
            for r in range(a, b):
                v = normals[r] = rng.standard_normal(space.dim)
                nrm = math.sqrt(float(v @ v))
                if nrm:  # the zero direction is the base point, and draws no radius
                    norms[r], u[r] = nrm, rng.random()
    elif isinstance(space, MetricTree):
        edges, u = cols = (np.empty(rows, dtype=int), np.empty(rows))  # an edge and a uniform
        def instance(a, b):
            for r in range(a, b):
                edges[r], u[r] = rng.integers(len(space.edges)), rng.random()
    else:
        raise SpaceError(f"no random generator for space kind {space.kind!r}")
    for i in range(k):
        instance(i * points, (i + 1) * points)
        if uniforms:
            uniform[i] = rng.random(uniforms)
    return cols, uniform


def _place(space: Space, variates: tuple) -> np.ndarray:
    """The stack of the points whose variates :func:`_variates` drew, placed with
    one call: the normals, ``spd_exp``, ``row_exp_from_base`` or ``_edge_rows``."""
    if isinstance(space, SpdAffine):
        return spd_exp(sym_part(variates[0]))
    if isinstance(space, (Hyperbolic, Sphere)):
        normals, norms, u = variates
        cap = 2.0 if isinstance(space, Hyperbolic) else math.pi / (4.0 * math.sqrt(space.kappa))
        return space.row_exp_from_base(normals / norms[:, None], cap * u)
    if isinstance(space, MetricTree):
        codes = variates[0] + len(space.vertices)
        return space._edge_rows(codes, space._len[codes] * variates[1])
    return variates[0]


def _draw_instances(space: Space, rng: np.random.Generator, k: int, points: int,
                    uniforms: int = 0) -> tuple[list[np.ndarray], np.ndarray]:
    """The :func:`_variates` of k instances of a layout, placed as one block
    (README.md, "Notes on the solver"): the stack of each of the layout's
    points, and the (k, uniforms) uniforms."""
    variates, uniform = _variates(space, rng, k, points, uniforms)
    block = _place(space, variates)  # the layout's points, in instance order
    return [block[j::points] for j in range(points)], uniform


def random_points(space: Space, rng: np.random.Generator, k: int) -> np.ndarray:
    """A stack (``space.stack``) of k bounded, well-conditioned random
    points of the given space, drawn and placed as README.md ("Notes on the
    solver") describes."""
    return _draw_instances(space, rng, k, 1)[0][0]


def _perturb(space: Space, xs: np.ndarray, targets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row of the stack ``xs`` moved the fraction PERTURB_SCALE * u[i, 0]
    of the way toward row i of ``targets``: one perturbation instance each."""
    return space.row_geodesic(xs, targets, PERTURB_SCALE * u[:, 0])


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

    def fold(self, excess: np.ndarray, witness: Callable[[int], dict], slack=0.0):
        """Fold in a chunk of instances: each non-NaN ``excess`` raises
        ``max_excess``, each not at most ``slack`` (NaN included) is a
        violation, and the first violation keeps ``witness(i)`` of its row."""
        self.max_excess = float(np.fmax.reduce(excess, initial=self.max_excess))
        bad = ~(excess <= slack)
        self.violations += int(np.count_nonzero(bad))
        if self.witness is None and bad.any():
            self.witness = witness(int(np.argmax(bad)))

    def to_json(self) -> dict:
        # a non-finite excess, as a geometry fault gives, is written as null
        # so that a failed check still makes a valid JSON report
        def finite(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v

        witness = self.witness and {key: finite(v) for key, v in self.witness.items()}
        return {**asdict(self), "max_excess": finite(self.max_excess), "witness": witness,
                "ok": self.ok}


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


def _midpoint_excess_rows(space: Space, xs, ys, zs) -> tuple[np.ndarray, np.ndarray]:
    """For each row of three stacks of points, the signed violation of the
    midpoint inequality d(z,m)^2 <= (d(z,x)^2 + d(z,y)^2)/2 - d(x,y)^2/4 at
    m the geodesic midpoint, and the squared scale of the triple for
    tolerance scaling; xs and zs are each factored once (``Space._factor``)."""
    fx, fz = space._factor(xs), space._factor(zs)
    m = space.row_geodesic(fx, ys, 0.5)
    dzx, dzy = space.row_dist(fz, xs), space.row_dist(fz, ys)
    dxy = space.row_dist(fx, ys)
    lhs = space.row_dist(fz, m) ** 2
    rhs = 0.5 * (dzx**2 + dzy**2) - 0.25 * dxy**2
    return lhs - rhs, dzx**2 + dzy**2 + dxy**2


def _speed_error_rows(space: Space, xs, ys, s, t) -> tuple[np.ndarray, np.ndarray]:
    """For each row, |d(gamma(s), gamma(t)) - |s - t| d(x, y)| on the geodesic
    gamma from x to y, and d(x, y); xs is factored once."""
    fx = space._factor(xs)
    d = space.row_dist(fx, ys)
    gs, gt = space.row_geodesic(fx, ys, s), space.row_geodesic(fx, ys, t)
    return np.abs(space.row_dist(gs, gt) - np.abs(s - t) * d), d


def _tuple_pairs(space: Space, rng: np.random.Generator, count: int, n_range):
    """The ns and the stacks X and Y of ``count`` pairs of tuples: xs, and xs
    perturbed, drawn as raw variates in the order of a per-pair loop and placed once."""
    pairs = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        pairs.append((n, _variates(space, rng, n, 1)[0], *_variates(space, rng, n, 1, 1)))
    ns, tuples, targets, fractions = zip(*pairs)
    X, targets = (_place(space, tuple(map(np.concatenate, zip(*v)))) for v in (tuples, targets))
    return ns, X, _perturb(space, X, targets, np.concatenate(fractions))


def npc_property_suite(
    space: Space,
    samples: int = 10_000,
    seed: int = 0,
    tuple_pairs: int = 200,
    n_range: tuple[int, int] = (2, 10),
) -> PropertySuiteReport:
    """Randomized verification of the structural properties that hold in
    non-positively curved spaces: the midpoint inequality, constant-speed
    geodesics, and the (1/n)-Lipschitz property of both barycenter maps under
    the L1 product metric, on ``tuple_pairs`` pairs of n-tuples per map, n
    uniform on the ints ``n_range`` = (lo, hi), 1 <= lo <= hi.

    Each check draws raw variates in the stream order of a per-instance loop,
    places them one call per block (the Lipschitz pairs' too) and factors each
    drawn stack once; both tuples of every inductive pair walk one :func:`inductive_rows`
    call, and the empirical pairs are solved a pair at a time (README.md, "Notes on the solver").

    Positively curved spaces are rejected; the midpoint inequality is exactly
    what they fail.
    """
    if isinstance(space, Sphere):
        raise SpaceError("the NPC property suite does not apply to positively curved spaces")
    for name, count in (("samples", samples), ("tuple_pairs", tuple_pairs)):
        if count < 1:
            raise SpaceError(f"{name} must be >= 1, got {count}")
    if int(seed) < 0:
        raise SpaceError(f"seed must be a nonnegative integer, got {seed}")
    if not (isinstance(n_range, (tuple, list)) and len(n_range) == 2
            and all(type(v) is int for v in n_range) and 1 <= n_range[0] <= n_range[1]):
        raise SpaceError(f"n_range must be two ints lo, hi with 1 <= lo <= hi, got {n_range!r}")
    rng = np.random.default_rng(seed)

    def to_json(row):  # a witness point, from its row of a stack
        return space.payload_to_json(space.unstack(row[None])[0])

    # the instances are drawn in the order of a per-instance loop, placed
    # and checked PROPERTY_CHUNK at a time by row-wise calls
    midpoint = PropertyCheck("midpoint_inequality", samples)
    speed = PropertyCheck("constant_speed", samples)
    chunks = [min(PROPERTY_CHUNK, samples - start) for start in range(0, samples, PROPERTY_CHUNK)]
    for k in chunks:
        (X, Y, Z), _ = _draw_instances(space, rng, k, 3)
        excess, sq_scale = _midpoint_excess_rows(space, X, Y, Z)
        midpoint.fold(excess, lambda i: {"x": to_json(X[i]), "y": to_json(Y[i]),
                                         "z": to_json(Z[i]), "excess": float(excess[i])},
                      slack=1e-8 * (1.0 + sq_scale))
    for k in chunks:
        (X, Y), u = _draw_instances(space, rng, k, 2, 2)
        S, T = u.T
        err, d = _speed_error_rows(space, X, Y, S, T)
        speed.fold(err - 1e-8 * (1.0 + d),
                   lambda i: {"x": to_json(X[i]), "y": to_json(Y[i]), "s": float(S[i]),
                              "t": float(T[i]), "error": float(err[i])})

    # the inductive check's pairs, then the empirical one's; then all their geometry
    P = tuple_pairs
    ns, X, Y = _tuple_pairs(space, rng, 2 * P, n_range)
    ends = np.cumsum(ns)
    starts = ends - ns
    spans = list(zip(starts.tolist(), ends.tolist()))
    d = space.row_dist(X, Y).tolist()
    d1s = [sum(d[a:b]) for a, b in spans]  # in product_l1_dist's order

    # both tuples of each inductive pair walk one recursion, each padded to
    # the longest by repeating its last point
    lengths = np.tile(ns[:P], 2)
    first = np.concatenate([starts[:P], len(X) + starts[:P]])
    idx = first[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    bary = space.unstack(inductive_rows(space, np.concatenate([X, Y]), idx, lengths))
    # each pair's two barycenters and the sum of their certified distances
    # to the true means, 0.0 for the exact inductive maps
    solved = [(bary[i], bary[P + i], 0.0) for i in range(P)]
    for a, b in spans[P:]:
        xs, ys = list(space.unstack(X[a:b])), list(space.unstack(Y[a:b]))
        tol = 1e-6 * (1.0 + sample_diameter(space, xs + ys))
        rx = empirical_barycenter(space, xs, tol=tol)
        ry = empirical_barycenter(space, ys, tol=tol)
        solved.append((rx.point, ry.point, rx.error_bound + ry.error_bound))

    checks = [midpoint, speed]
    for estimator, at in (("inductive", 0), ("empirical", P)):
        # the slack allows rounding, 1e-8 (1 + d1), and the certificates
        excess = np.array([
            space.dist(tx, ty) - d1s[i] / ns[i] - (1e-8 * (1.0 + d1s[i]) + bound)
            for i, (tx, ty, bound) in enumerate(solved[at:at + P], start=at)])
        check = PropertyCheck(f"lipschitz_{estimator}", P)
        check.fold(excess, lambda j: {"n": ns[at + j], "d1": d1s[at + j],
                                      "excess": float(excess[j])})
        checks.append(check)

    return PropertySuiteReport(space_kind=space.kind, seed=seed, checks=checks)
