"""Write tests/golden.json, the recorded outputs that tests/test_golden.py
compares every later build against.

For each shipped preset, run at GOLDEN_SEED with GOLDEN_TRIALS trials, it
records the sha256 of the config's sorted JSON, the support diameter D and
each trial's distance as ``float.hex``, the covered column, the coverage and
the verdict; the ``run_pac`` reports on both ``pac_points`` sets; every
``bounds.BOUND_EVALUATORS`` formula at a few points of BOUND_GRID, as
``float.hex`` (or the integer sample size); and the ``npcbary check`` report
of each space at CHECK_ARGS, parsed and as the sha256 of its bytes.  Run it
from the repository root with ``PYTHONPATH=src python tests/make_golden.py``.
Regenerating the file changes test data: say why, and give the largest
distance change per preset, in the change that does it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tempfile

from npcbary.bounds import evaluate_bound
from npcbary.cli import main
from npcbary.experiments import run_concentration, run_pac
from npcbary.presets import PRESETS, pac_points, preset_config

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
GOLDEN_SEED = 5
GOLDEN_TRIALS = 200
# run_pac arguments: (small_variance, use_bernstein); eps_target 0.5, delta 0.1
PAC_RUNS = ((False, False), (True, False), (True, True))
# bounds queries: a typical point, an edge of the domain, and an extreme one
BOUND_GRID = (
    ("subgaussian", {"K": 2.0, "sigma": 1.0, "n": 100, "delta": 0.1}),
    ("subgaussian", {"K": 0.0, "sigma": 0.0, "n": 1, "delta": 0.5}),
    ("subgaussian", {"K": 0.3, "sigma": 1.7, "n": 10**6, "delta": 1e-300}),
    ("hoeffding", {"sigma": 1.0, "C": 1.0, "n": 100, "delta": 0.1}),
    ("hoeffding", {"sigma": 0.0, "C": 0.0, "n": 5, "delta": 0.9}),
    ("hoeffding", {"sigma": 0.01, "C": 3.5, "n": 10**4, "delta": 1e-9}),
    ("bernstein", {"sigma": 0.1, "C": 1.0, "n": 100, "delta": 0.1}),
    ("bernstein", {"sigma": 0.1, "C": 1.0, "n": 100, "delta": 0.1, "combine": "min"}),
    ("bernstein", {"sigma": 2.0, "C": 0.5, "n": 7, "delta": 0.01, "combine": "sum"}),
    ("noniid_hoeffding", {"sigmas": [0.5, 1.0, 1.5], "Cs": [1.0, 2.0, 0.0], "n": 3,
                          "delta": 0.1}),
    ("noniid_hoeffding", {"sigmas": [1.0], "Cs": [1.0], "n": 1, "delta": 0.05}),
    ("noniid_bernstein", {"sigmas": [0.5, 1.0, 1.5], "C": 2.0, "n": 3, "delta": 0.1}),
    ("noniid_bernstein", {"sigmas": [0.0, 0.1], "C": 1.0, "n": 2, "delta": 0.2,
                          "combine": "min"}),
    ("sturm_lln", {"sigmas": [0.5, 1.0, 1.5], "n": 3}),
    ("sturm_lln", {"sigmas": [0.1] * 100, "n": 100}),
    ("pac_sample_size", {"D": 2.0, "eps_target": 0.5, "delta": 0.1}),
    ("pac_sample_size", {"D": 1.0, "eps_target": 1e-3, "delta": 0.9, "c_pac": 0.25}),
    ("pac_sample_size_bernstein", {"sigma2": 1.0, "D": 2.0, "eps_target": 0.5,
                                   "delta": 0.1}),
    ("pac_sample_size_bernstein", {"sigma2": 0.0, "D": 3.0, "eps_target": 0.1,
                                   "delta": 0.01, "c_pac": 2.0}),
    ("k_epsilon", {"kappa": 1.0, "epsilon": 0.1}),
    ("k_epsilon", {"kappa": 4.0, "epsilon": 0.7}),
    ("cat_kappa", {"A": 3.0, "p": 2.0, "kappa": 1.0, "epsilon": 0.5, "n": 10**4,
                   "delta": 0.1}),
    ("cat_kappa", {"A": 1.0, "p": 1.0, "kappa": 0.25, "epsilon": 3.0, "n": 1, "delta": 0.5}),
    ("subgaussian_tail", {"K": 1.0, "t": 0.0}),
    ("subgaussian_tail", {"K": 0.5, "t": 1.3}),
    ("subgaussian_tail", {"K": 1e-200, "t": 1e-199}),
)
# the sizes of the determinism step of CI's console-script job
CHECK_ARGS = ("--samples", "2000", "--tuple-pairs", "10", "--seed", "7")
CHECK_SPACES = ("spd", "hyperbolic", "tree", "euclidean")


def config_hash(config) -> str:
    return hashlib.sha256(json.dumps(config.to_json(), sort_keys=True).encode()).hexdigest()


def preset_record(name: str) -> dict:
    config = dataclasses.replace(preset_config(name), seed=GOLDEN_SEED, trials=GOLDEN_TRIALS)
    report = run_concentration(config)
    return {
        "config_sha256": config_hash(preset_config(name)),
        "D": float(report.D).hex(),
        "distances": [float(d).hex() for d in report.distances],
        "covered": [int(d <= report.bound_value) for d in report.distances],
        "coverage": report.coverage,
        "passed": report.passed,
    }


def pac_record(small_variance: bool, use_bernstein: bool) -> dict:
    space, points = pac_points(small_variance)
    report = run_pac(space, points, 0.5, 0.1, GOLDEN_TRIALS, use_bernstein=use_bernstein,
                     seed=GOLDEN_SEED)
    return dataclasses.asdict(report)


def bound_value(name: str, query: dict):
    """A formula's value: ``float.hex`` of a radius, or a sample size as is."""
    value = evaluate_bound(name, query)
    return value if isinstance(value, int) else float(value).hex()


def check_text(space: str) -> str:
    """The report file ``npcbary check --space space`` writes at CHECK_ARGS."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "check.json")
        main(["check", "--space", space, *CHECK_ARGS, "--output", str(path)])
        return path.read_text()


def check_record(space: str) -> dict:
    text = check_text(space)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "report": json.loads(text)}


def golden() -> dict:
    return {
        "seed": GOLDEN_SEED,
        "trials": GOLDEN_TRIALS,
        "presets": {name: preset_record(name) for name in PRESETS},
        "pac": [pac_record(*run) for run in PAC_RUNS],
        "bounds": [{"bound": name, "query": query, "value": bound_value(name, query)}
                   for name, query in BOUND_GRID],
        "check": {space: check_record(space) for space in CHECK_SPACES},
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
