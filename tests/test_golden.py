"""Golden outputs: every shipped preset, both PAC instances, a grid of
bounds queries and the four spaces' ``check`` reports, rerun and compared with
tests/golden.json, which tests/make_golden.py wrote.

Config hashes, the covered column, coverage, verdicts and the PAC counts must
be equal.  A distance may move within 1e-13 (1 + D), D the support diameter,
and each preset prints whether its distances kept their bytes.  Bounds values
must keep their bytes.  A check report must keep its verdicts, samples and
violations, and each max_excess may move by CHECK_EXCESS_TOL, far inside the
checks' own slack of 1e-8 (1 + scale): numpy's transcendental ufuncs differ
in the last bit across versions, so each report prints whether its bytes are
equal.
"""

from __future__ import annotations

import json

import pytest

from make_golden import (BOUND_GRID, CHECK_SPACES, GOLDEN_PATH, PAC_RUNS, bound_value,
                         check_record, pac_record, preset_record)
from npcbary.presets import PRESETS

GOLDEN = json.loads(GOLDEN_PATH.read_text())
REL_TOL = 1e-13
CHECK_EXCESS_TOL = 1e-9


def test_golden_covers_every_preset_in_order():
    assert list(GOLDEN["presets"]) == list(PRESETS)


@pytest.mark.parametrize("name", list(GOLDEN["presets"]))
def test_preset_matches_golden(name):
    want, got = GOLDEN["presets"][name], preset_record(name)
    assert got["config_sha256"] == want["config_sha256"]
    for key in ("covered", "coverage", "passed"):
        assert got[key] == want[key], key
    tol = REL_TOL * (1.0 + float.fromhex(want["D"]))
    assert abs(float.fromhex(got["D"]) - float.fromhex(want["D"])) <= tol
    assert len(got["distances"]) == len(want["distances"])
    gaps = [abs(float.fromhex(a) - float.fromhex(b))
            for a, b in zip(got["distances"], want["distances"])]
    assert max(gaps) <= tol, f"largest distance change {max(gaps):.3g} > {tol:.3g}"
    same = got["distances"] == want["distances"]
    print(f"golden {name}: distances {'byte-identical' if same else f'max |delta| {max(gaps):.3g}'}")


@pytest.mark.parametrize("run, want", list(zip(PAC_RUNS, GOLDEN["pac"])),
                         ids=["rademacher", "small-variance", "small-variance-bernstein"])
def test_pac_matches_golden(run, want):
    got = pac_record(*run)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= REL_TOL * (1.0 + want["D"]), key
        else:
            assert got[key] == value, key


def test_bounds_grid_matches_golden_bytes():
    assert [[r["bound"], r["query"]] for r in GOLDEN["bounds"]] == [list(q) for q in BOUND_GRID]
    for (name, query), want in zip(BOUND_GRID, GOLDEN["bounds"]):
        assert bound_value(name, query) == want["value"], (name, query)


def test_bounds_grid_covers_every_formula():
    from npcbary.bounds import BOUND_EVALUATORS

    assert {name for name, _ in BOUND_GRID} == set(BOUND_EVALUATORS)


@pytest.mark.parametrize("space", CHECK_SPACES)
def test_check_report_matches_golden(space):
    want, got = GOLDEN["check"][space], check_record(space)
    a, b = got["report"], want["report"]
    assert (a["space"], a["seed"], a["passed"]) == (b["space"], b["seed"], b["passed"])
    assert len(a["checks"]) == len(b["checks"])
    for x, y in zip(a["checks"], b["checks"]):
        for key in ("name", "samples", "violations", "ok"):
            assert x[key] == y[key], (x["name"], key)
        assert (x["witness"] is None) == (y["witness"] is None), x["name"]
        if y["max_excess"] is None:
            assert x["max_excess"] is None, x["name"]
        else:
            assert abs(x["max_excess"] - y["max_excess"]) <= CHECK_EXCESS_TOL, x["name"]
    same = got["sha256"] == want["sha256"]
    print(f"golden check {space}: report {'byte-identical' if same else 'bytes differ'}")
