"""End-to-end CLI runs over the JSON file formats and the exit-code
contract: 0 success, 2 input error, 3 convergence failure, 4 check failure."""

import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcbary.cli import main

from conftest import star_tree


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read(path):
    return json.loads(path.read_text())


def euclidean_points_file(tmp_path, pts):
    return write(
        tmp_path / "points.json",
        {"space": {"kind": "euclidean", "dim": len(pts[0])}, "points": pts},
    )


def test_barycenter_euclidean(tmp_path):
    inp = euclidean_points_file(tmp_path, [[0.0, 0.0], [2.0, 0.0]])
    out = tmp_path / "result.json"
    assert main(["barycenter", "--input", inp, "--output", str(out)]) == 0
    res = read(out)
    assert res["point"] == pytest.approx([1.0, 0.0], abs=1e-10)
    assert res["final_displacement"] <= 1e-8


def test_barycenter_single_point(tmp_path):
    inp = euclidean_points_file(tmp_path, [[3.5]])
    out = tmp_path / "result.json"
    assert main(["barycenter", "--input", inp, "--output", str(out)]) == 0
    res = read(out)
    assert res["point"] == [3.5] and res["iterations"] == 0
    assert res["error_bound"] == 0.0


def test_barycenter_tree_star(tmp_path):
    tree = star_tree()
    inp = write(
        tmp_path / "tree_points.json",
        {
            "space": tree.descriptor(),
            "points": [{"vertex": v} for v in ("a", "b", "c")],
        },
    )
    out = tmp_path / "result.json"
    assert main(["barycenter", "--input", inp, "--tol", "1e-4", "--output", str(out)]) == 0
    res = read(out)
    point = tree.payload_from_json(res["point"])
    assert tree.dist(point, tree.vertex_point("o")) <= 2e-4


def test_barycenter_inductive_estimator(tmp_path):
    inp = euclidean_points_file(tmp_path, [[0.0], [1.0], [5.0]])
    out = tmp_path / "result.json"
    assert main(["barycenter", "--input", inp, "--estimator", "inductive",
                 "--output", str(out)]) == 0
    assert read(out)["point"] == pytest.approx([2.0], abs=1e-12)
    assert read(out)["error_bound"] is None  # the inductive estimator certifies nothing


def test_barycenter_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["barycenter", "--input", str(bad)]) == 2
    missing = write(tmp_path / "missing.json", {"space": {"kind": "euclidean", "dim": 1}})
    assert main(["barycenter", "--input", missing]) == 2


@pytest.mark.parametrize("space, field", [
    ({"kind": "euclidean", "dim": "two"}, "dim"),
    ({"kind": "spd_affine", "p": [2]}, "p"),
    ({"kind": "hyperbolic", "kappa": "negative", "dim": 2}, "kappa"),
], ids=["dim", "p", "kappa"])
def test_barycenter_non_numeric_space_field(tmp_path, capsys, space, field):
    inp = write(tmp_path / "points.json", {"space": space, "points": [[0.0, 0.0]]})
    assert main(["barycenter", "--input", inp]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_barycenter_convergence_failure(tmp_path):
    # three pairwise non-commuting SPD(2) matrices: five iterations cannot certify 1e-12
    inp = write(
        tmp_path / "spd_points.json",
        {"space": {"kind": "spd_affine", "p": 2},
         "points": [[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 3.0]],
                    [[1.5, -0.7], [-0.7, 1.2]]]},
    )
    assert main(["barycenter", "--input", inp, "--tol", "1e-12", "--max-cycles", "5"]) == 3


def test_gm_identical(tmp_path):
    A = [[2.0, 0.3], [0.3, 1.5]]
    inp = write(tmp_path / "mats.json", {"matrices": [A, A]})
    out = tmp_path / "gm.json"
    assert main(["gm", "--input", inp, "--output", str(out)]) == 0
    res = read(out)
    assert np.max(np.abs(np.array(res["inductive"]) - A)) <= 1e-10
    assert np.max(np.abs(np.array(res["empirical"]) - A)) <= 1e-10


def test_gm_two_commuting(tmp_path):
    inp = write(
        tmp_path / "mats.json",
        {"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[4.0, 0.0], [0.0, 4.0]]]},
    )
    out = tmp_path / "gm.json"
    assert main(["gm", "--input", inp, "--output", str(out)]) == 0
    res = read(out)
    for key in ("inductive", "empirical"):
        assert np.max(np.abs(np.array(res[key]) - np.diag([2.0, 2.0]))) <= 1e-9


def test_gm_three_commuting_diagonals(tmp_path):
    # the Karcher mean of commuting diagonals is the entrywise geometric mean:
    # the 1-D Frechet mean under |log x - log y|
    vals = (2.0, 3.0, 12.0)
    oracle = math.exp(sum(math.log(v) for v in vals) / 3)
    inp = write(
        tmp_path / "mats.json",
        {"matrices": [[[v, 0.0], [0.0, v]] for v in vals]},
    )
    out = tmp_path / "gm.json"
    assert main(["gm", "--input", inp, "--tol", "1e-10", "--output", str(out)]) == 0
    res = read(out)
    emp = np.array(res["empirical"])
    assert np.max(np.abs(emp - np.diag([oracle, oracle]))) <= 1e-8
    assert res["error_bound"] <= 1e-10


def test_gm_rejects_non_spd(tmp_path):
    inp = write(tmp_path / "mats.json", {"matrices": [[[1.0, 2.0], [2.0, 1.0]]]})
    assert main(["gm", "--input", inp]) == 2


def test_bounds_queries(tmp_path):
    out = tmp_path / "value.json"
    inp = write(
        tmp_path / "q1.json",
        {"bound": "hoeffding", "sigma": 1.0, "C": 1.0, "n": 100, "delta": 0.05},
    )
    assert main(["bounds", "--input", inp, "--output", str(out)]) == 0
    assert read(out)["value"] == pytest.approx(0.4461636765204571, rel=1e-12)

    inp = write(
        tmp_path / "q2.json",
        {"bound": "pac_sample_size", "D": 2.0, "eps_target": 0.5, "delta": 0.1},
    )
    assert main(["bounds", "--input", inp, "--output", str(out)]) == 0
    assert read(out)["value"] == 37

    inp = write(tmp_path / "q3.json", {"bound": "k_epsilon", "kappa": 1.0, "epsilon": math.pi / 4})
    assert main(["bounds", "--input", inp, "--output", str(out)]) == 0
    assert read(out)["value"] == pytest.approx(math.pi / 2, abs=1e-12)

    inp = write(tmp_path / "q4.json", {"bound": "nope"})
    assert main(["bounds", "--input", inp]) == 2


def test_experiment_config_file(tmp_path):
    cfg = {
        "label": "point mass",
        "space": {"kind": "euclidean", "dim": 1},
        "distributions": [{"support": [[2.0]], "weights": None, "label": "pm"}],
        "n": 10,
        "estimator": "inductive",
        "trials": 40,
        "delta": 0.1,
        "seed": 0,
        "tol": None,
        "bound": {"name": "hoeffding", "overrides": {}},
    }
    inp = write(tmp_path / "cfg.json", cfg)
    out = tmp_path / "report.json"
    csv = tmp_path / "trials.csv"
    assert main(["experiment", "--config", inp, "--output", str(out), "--csv", str(csv)]) == 0
    rep = read(out)
    assert rep["coverage"] == 1.0 and rep["passed"]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "trial,distance,covered"
    assert len(lines) == 41


def test_experiment_preset_and_csv_determinism(tmp_path):
    args = ["experiment", "--preset", "hoeffding-euclidean-inductive"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(rep1), "--csv", str(out1)]) == 0
    assert main(args + ["--output", str(rep2), "--csv", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # everything except the timing is reproduced bit for bit
    a, b = read(rep1), read(rep2)
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert a == b
    # emitted JSON re-parses into an equal value
    assert read(rep1) == json.loads(json.dumps(read(rep1)))


def test_experiment_invalid_config_exit_code(tmp_path, capsys):
    cfg = {
        "space": {"kind": "euclidean", "dim": 1},
        "distributions": [{"support": [[2.0]]}],
        "n": 10,
        "trials": 0,
        "delta": 0.1,
    }
    inp = write(tmp_path / "cfg.json", cfg)
    assert main(["experiment", "--config", inp]) == 2
    assert "trials" in capsys.readouterr().err


def test_experiment_failing_bound_exit_code(tmp_path):
    cfg = {
        "label": "shrunk bound",
        "space": {"kind": "euclidean", "dim": 1},
        "distributions": [{"support": [[-1.0], [1.0]], "weights": None, "label": "pm1"}],
        "n": 100,
        "estimator": "inductive",
        "trials": 120,
        "delta": 0.1,
        "seed": 0,
        "tol": None,
        "bound": {"name": "hoeffding", "overrides": {"scale": 0.01}},
    }
    inp = write(tmp_path / "cfg.json", cfg)
    assert main(["experiment", "--config", inp, "--output", str(tmp_path / "r.json")]) == 4


def test_check_spd(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--space", "spd", "--samples", "300", "--tuple-pairs", "10",
                 "--seed", "0", "--output", str(out)]) == 0
    rep = read(out)
    assert rep["passed"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "midpoint_inequality", "constant_speed",
        "lipschitz_inductive", "lipschitz_empirical",
    }


def test_check_rejects_empty_suite(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", "--space", "euclidean", "--samples", "0", "--tuple-pairs", "0",
                 "--output", str(out)]) == 2
    assert "samples" in capsys.readouterr().err
    assert not out.exists()


def test_check_tree(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--space", "tree", "--samples", "200", "--tuple-pairs", "8",
                 "--output", str(out)]) == 0
    assert read(out)["passed"] is True


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "npcbary.cli", "bounds", "--input", "/nonexistent.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "input error" in proc.stderr


# ---------------------------------------------------------------------------
# malformed input: exit 2 naming the field, never a traceback
# ---------------------------------------------------------------------------

STAR = {"kind": "metric_tree",
        "tree": {"vertices": ["a", "b", "c", "o"],
                 "edges": [["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0]]}}

# One valid input per reader, with the arguments that read it.
VALID_INPUTS = {
    "euclidean": (["barycenter", "--input"], {
        "space": {"kind": "euclidean", "dim": 2},
        "points": [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]],
    }),
    "hyperbolic": (["barycenter", "--input"], {
        "space": {"kind": "hyperbolic", "kappa": -1.0, "dim": 2},
        "points": [[0.0, 0.0, 1.0], [0.75, 0.0, 1.25], [0.0, 0.75, 1.25]],
    }),
    "spd_affine": (["barycenter", "--input"], {
        "space": {"kind": "spd_affine", "p": 2},
        "points": [[[2.0, 0.3], [0.3, 1.5]], [[1.0, 0.0], [0.0, 1.0]]],
    }),
    "sphere": (["barycenter", "--input"], {
        "space": {"kind": "sphere", "kappa": 1.0, "dim": 2},
        "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, 0.8]],
    }),
    "metric_tree": (["barycenter", "--tol", "1e-3", "--input"], {
        "space": STAR,
        "points": [{"vertex": "a"}, {"edge": 0, "offset": 0.25}, {"vertex": "c"}],
    }),
    "gm": (["gm", "--input"], {
        "matrices": [[[2.0, 0.3], [0.3, 1.5]], [[1.0, 0.0], [0.0, 1.0]]],
    }),
    "config": (["experiment", "--config"], {
        "label": "pm1",
        "space": {"kind": "euclidean", "dim": 1},
        "distributions": [{"support": [[-1.0], [1.0]], "weights": ["1/2", "1/2"],
                           "label": "pm1"}],
        "n": 5, "estimator": "empirical", "trials": 3, "delta": 0.1, "seed": 0, "tol": None,
        "bound": {"name": "bernstein",
                  "overrides": {"K": 2.0, "scale": 1.0, "combine": "max"}},
    }),
    "query": (["bounds", "--input"], {
        "bound": "hoeffding", "sigma": 1.0, "C": 1.0, "n": 100, "delta": 0.05,
    }),
    "noniid_query": (["bounds", "--input"], {
        "bound": "noniid_bernstein", "sigmas": [0.5, 0.5], "C": 1.0, "n": 2, "delta": 0.1,
        "combine": "max",
    }),
}


def run_input(doc, command, directory: Path) -> int:
    path = write(directory / "input.json", doc)
    return main(command + [path, "--output", str(directory / "out.json")])


DELETE = object()


def mutated(name, path, value):
    """VALID_INPUTS[name] with the value at ``path`` (keys and indices)
    replaced by ``value``, or removed if it is DELETE."""
    command, doc = VALID_INPUTS[name]
    doc = copy.deepcopy(doc)
    if not path:
        return command, value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return command, doc


@pytest.mark.parametrize("name, path, value, needle", [
    # reproduced as a traceback (exit 1) before the shared reader
    ("euclidean", ("points", 1), [1.0, "x"], "points[1]"),
    ("spd_affine", ("points", 0), [[2.0, 0.3], [0.3]], "points[0]"),
    ("metric_tree", ("space", "tree", "edges", 1, 2), "long", "edges[1]"),
    ("metric_tree", ("points", 1), {"edge": "zero"}, "'edge'"),
    ("gm", ("matrices", 1), [[1.0, 0.0], [0.0]], "matrices[1]"),
    ("config", ("bound",), [1], "'bound'"),
    ("config", ("distributions",), [5], "distributions[0]"),
    # reproduced as a silent run with dim 2 (exit 0)
    ("euclidean", ("space", "dim"), 2.7, "'dim'"),
    # exit 2 before only through a KeyError/TypeError catch-all in main
    ("config", ("bound", "overrides", "K"), None, "'K'"),
    ("config", ("bound", "overrides", "scale"), None, "'scale'"),
    ("config", ("bound", "overrides", "combine"), [1], "'combine'"),
    ("euclidean", ("points",), 5, "'points'"),
    ("gm", ("matrices",), 3, "'matrices'"),
    ("config", ("n",), DELETE, "'n'"),
    ("query", ("sigma",), None, "sigma must"),
    ("noniid_query", ("sigmas",), 3, "sigmas must"),
    # reproduced as a silent run on coerced or ignored input (exit 0)
    ("euclidean", ("points", 0), [True, 0.0], "points[0]"),
    ("euclidean", ("points", 1), ["1.5", 2.0], "points[1]"),
    ("config", ("bound", "overrides", "scal"), 0.01, "'scal'"),
    ("config", ("sede",), 5, "'sede'"),
], ids=["points-payload", "spd-ragged", "tree-edge-length", "tree-point-edge", "gm-ragged",
        "config-bound", "config-distributions", "dim-nonintegral", "override-K",
        "override-scale", "override-combine", "points-number", "matrices-number",
        "config-no-n", "query-sigma", "query-sigmas", "points-bool", "points-string",
        "override-misspelt", "config-misspelt"])
def test_malformed_input_exit_code(tmp_path, capsys, name, path, value, needle):
    command, doc = mutated(name, path, value)
    assert run_input(doc, command, tmp_path) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


def _paths(doc, prefix=()):
    """Every path of keys and indices into ``doc``, the root () included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


MUTATION_TARGETS = [(name, path) for name, (_, doc) in VALID_INPUTS.items()
                    for path in _paths(doc)]
MUTATION_VALUES = [None, "x", 2.7, -1, [], {}, [1], True]


@pytest.mark.parametrize("name", sorted(VALID_INPUTS))
def test_valid_inputs_run(tmp_path, name):
    command, doc = VALID_INPUTS[name]
    assert run_input(doc, command, tmp_path) == 0


@settings(max_examples=800, derandomize=True, deadline=None)
@given(target=st.sampled_from(MUTATION_TARGETS), value=st.sampled_from(MUTATION_VALUES))
def test_mutated_input_exit_code(target, value):
    command, doc = mutated(*target, value)
    with tempfile.TemporaryDirectory() as directory:
        assert run_input(doc, command, Path(directory)) in (0, 2, 3, 4)
