"""Golden outputs: every shipped preset and both PAC instances, rerun and
compared with tests/golden.json, which tests/make_golden.py wrote.

Config hashes, the covered column, coverage, verdicts and the PAC counts must
be equal.  A distance may move within 1e-13 (1 + D), D the support diameter,
and each preset prints whether its distances kept their bytes.
"""

from __future__ import annotations

import json

import pytest

from make_golden import GOLDEN_PATH, PAC_RUNS, pac_record, preset_record
from npcbary.presets import PRESETS

GOLDEN = json.loads(GOLDEN_PATH.read_text())
REL_TOL = 1e-13


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
