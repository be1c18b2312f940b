"""Write tests/golden.json, the recorded outputs that tests/test_golden.py
compares every later build against.

For each shipped preset, run at GOLDEN_SEED with GOLDEN_TRIALS trials, it
records the sha256 of the config's sorted JSON, the support diameter D and
each trial's distance as ``float.hex``, the covered column, the coverage and
the verdict; and the ``run_pac`` reports on both ``pac_points`` sets.  Run it
from the repository root with ``PYTHONPATH=src python tests/make_golden.py``.
Regenerating the file changes test data: say why, and give the largest
distance change per preset, in the change that does it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

from npcbary.experiments import run_concentration, run_pac
from npcbary.presets import PRESETS, pac_points, preset_config

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
GOLDEN_SEED = 5
GOLDEN_TRIALS = 200
# run_pac arguments: (small_variance, use_bernstein); eps_target 0.5, delta 0.1
PAC_RUNS = ((False, False), (True, False), (True, True))


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


def golden() -> dict:
    return {
        "seed": GOLDEN_SEED,
        "trials": GOLDEN_TRIALS,
        "presets": {name: preset_record(name) for name in PRESETS},
        "pac": [pac_record(*run) for run in PAC_RUNS],
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
