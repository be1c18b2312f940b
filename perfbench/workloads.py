"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as set-up), then runs fixed units of work called rounds.  ``steps(r)`` lists
round r's library operations, each a callable returning ``(items, failed)``:
the trials or checked instances it completed and how many of them failed a
correctness check.  ``finish`` applies checks that need every round.  An
untraced run does at least ``min_rounds`` rounds.  ``nominal_round_s`` is a
round's wall time when the benchmark was added: the traced run does
``--seconds`` / (2 nominal_round_s) rounds untraced and again traced.

The library sees only the generated configs, spaces and seeds; every call
goes through a module attribute (``experiments.X``, ``cli.main``) so that
the tracer's wrappers, when installed, are the ones called.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from npcbary import bounds, cli, experiments, presets
from npcbary.spaces import Hyperbolic, SpdAffine

import reference

# The coverage presets: 4 NPC spaces x 2 estimators x 2 bounds.
COVERAGE_PRESETS = tuple(
    name for name in sorted(presets.PRESETS)
    if name.split("-")[0] in ("hoeffding", "bernstein")
)
COVERAGE_TRIALS = 100
CLI_PRESET = "hoeffding-euclidean-empirical"

SUITE_SAMPLES = 500
SUITE_TUPLE_PAIRS = 10
SUITE_POOL = 16

CAT_N = 10_000
CAT_TRIALS = 4
CAT_DELTA = 0.1
CAT_EPSILON = math.pi / 4
CAT_TOL_REL = 1e-4


# What a library call raises on bad input, non-convergence or a numerical
# failure (SpaceError, ConvergenceError, LinAlgError, ...).
LIBRARY_ERRORS = (ValueError, RuntimeError, ArithmeticError)


def guarded(label: str, call, *args, **kwargs):
    """The call's result, or None after reporting a library error: an
    operation that raises counts as failed, and the run goes on."""
    try:
        return call(*args, **kwargs)
    except LIBRARY_ERRORS as exc:
        print(f"perfbench: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def coverage_configs(cfg_seed: int) -> list:
    return [
        dataclasses.replace(presets.preset_config(name), trials=COVERAGE_TRIALS, seed=cfg_seed)
        for name in COVERAGE_PRESETS
    ]


def cat_config(dist, cfg_seed: int):
    """Criterion 13's instance: n = 10^4 draws from the 2-atom sphere cap,
    empirical estimator at tol 1e-4 (1 + D).  run_concentration draws each
    trial exactly as criterion 13 does; its Hoeffding bound is not used."""
    return experiments.ExperimentConfig(
        distributions=[dist], n=CAT_N, estimator="empirical", trials=CAT_TRIALS,
        delta=CAT_DELTA, seed=cfg_seed, tol=CAT_TOL_REL * (1.0 + dist.diameter()),
        label="cat-kappa-large-n",
    )


def ground_truth(dist) -> None:
    """What a run computes before its first trial; timed as set-up."""
    b_star = experiments.population_barycenter(dist)
    experiments.frechet_variance(dist.space, dist.as_weighted_sample(), b_star)


class CoverageSweep:
    """The 16 Hoeffding and Bernstein presets at COVERAGE_TRIALS trials each,
    plus the CLI preset through ``cli.main --csv``.  Every round repeats the
    same inputs, so the CLI's CSV bytes must repeat too."""

    name = "coverage_sweep"
    min_rounds = 2  # the CLI check compares two rounds
    nominal_round_s = 6.0

    def __init__(self, seed: int, out_dir: Path, ref: reference.Reference):
        self.cfg_seed = seed % reference.COVERAGE_POOL
        self.out_dir = out_dir
        self.ref = ref
        self.first_csv = None

    def setup(self):
        self.configs = coverage_configs(self.cfg_seed)
        for cfg in self.configs:
            ground_truth(cfg.distributions[0])
        cli_config = next(c for c in self.configs if c.label == CLI_PRESET)
        self.cli_config_path = self.out_dir / "cli_config.json"
        self.cli_config_path.write_text(json.dumps(cli_config.to_json()))

    def steps(self, r: int) -> list:
        return [functools.partial(self.preset, cfg) for cfg in self.configs] + [self.cli_run]

    def preset(self, cfg) -> tuple[int, int]:
        rep = guarded(cfg.label, experiments.run_concentration, cfg)
        if rep is None or (not rep.passed and not rep.conjectural):
            return cfg.trials, cfg.trials
        return cfg.trials, self.ref.mismatches(
            self.name, cfg.label, self.cfg_seed, rep.distances, rep.D)

    def cli_run(self) -> tuple[int, int]:
        csv_path = self.out_dir / "cli_trials.csv"
        csv_path.unlink(missing_ok=True)
        code = guarded("cli", cli.main, [
            "experiment", "--config", str(self.cli_config_path),
            "--seed", str(self.cfg_seed),
            "--output", str(self.out_dir / "cli_report.json"), "--csv", str(csv_path),
        ])
        csv = csv_path.read_bytes() if csv_path.exists() else None
        if self.first_csv is None:
            self.first_csv = csv
        if code != cli.EXIT_OK or csv is None or csv != self.first_csv:
            return COVERAGE_TRIALS, COVERAGE_TRIALS
        return COVERAGE_TRIALS, 0

    def finish(self) -> int:
        return 0


class LipschitzSuite:
    """npc_property_suite on SpdAffine(3), Hyperbolic(-1) and the star tree.
    Samples and tuple pairs keep the CLI default ratio 50:1, so cyclic solves
    dominate as they do at full size.  Round r uses suite seed
    (seed + r) mod SUITE_POOL: the instance mix, and with it the cost, differs
    between suite seeds, so every run covers the whole pool rather than
    drawing fresh seeds."""

    name = "lipschitz_suite"
    min_rounds = SUITE_POOL
    nominal_round_s = 2.0

    def __init__(self, seed: int, out_dir: Path, ref: reference.Reference):
        self.seed = seed

    def setup(self):
        self.spaces = [SpdAffine(3), Hyperbolic(-1.0), presets.demo_tree()]

    def steps(self, r: int) -> list:
        seed = (self.seed + r) % SUITE_POOL
        return [functools.partial(self.suite, space, seed) for space in self.spaces]

    def suite(self, space, seed: int) -> tuple[int, int]:
        rep = guarded(
            space.kind, experiments.npc_property_suite, space,
            samples=SUITE_SAMPLES, seed=seed, tuple_pairs=SUITE_TUPLE_PAIRS)
        items = 2 * SUITE_SAMPLES + 2 * SUITE_TUPLE_PAIRS
        return items, items if rep is None else sum(c.violations for c in rep.checks)

    def finish(self) -> int:
        return 0


class CatKappaLargeN:
    """Criterion 13: CAT_TRIALS trials of n = 10^4 sphere-cap draws per round,
    round r taking pool seed (seed + r) mod CAT_POOL.  The run's 0.9-quantile
    of d(T_n, b*) must stay within the CAT(kappa) radius."""

    name = "cat_kappa_large_n"
    min_rounds = 2
    nominal_round_s = 2.0

    def __init__(self, seed: int, out_dir: Path, ref: reference.Reference):
        self.seed = seed
        self.ref = ref
        self.distances: list[float] = []

    def setup(self):
        dist = presets.sphere_cap_distribution()
        ground_truth(dist)
        self.configs = [cat_config(dist, s) for s in range(reference.CAT_POOL)]
        self.radius = bounds.cat_kappa_radius(
            A=2.0, p=2.0, kappa=dist.space.kappa, epsilon=CAT_EPSILON, n=CAT_N, delta=CAT_DELTA)

    def steps(self, r: int) -> list:
        return [functools.partial(self.trials, self.configs[(self.seed + r) % reference.CAT_POOL])]

    def trials(self, cfg) -> tuple[int, int]:
        rep = guarded(cfg.label, experiments.run_concentration, cfg)
        if rep is None:
            self.distances += [math.nan] * CAT_TRIALS
            return CAT_TRIALS, CAT_TRIALS
        self.distances += rep.distances
        return CAT_TRIALS, self.ref.mismatches(
            self.name, cfg.label, cfg.seed, rep.distances, rep.D)

    def finish(self) -> int:
        d = np.asarray(self.distances)
        if np.quantile(d, 1.0 - CAT_DELTA) <= self.radius:
            return 0
        return int(np.count_nonzero(~(d <= self.radius)))


WORKLOADS = {w.name: w for w in (CoverageSweep, LipschitzSuite, CatKappaLargeN)}
