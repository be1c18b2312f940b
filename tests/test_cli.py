"""End-to-end CLI runs over the JSON file formats and the exit-code
contract: 0 success, 2 input error, 3 convergence failure, 4 check failure."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
    tree = star_tree()
    inp = write(
        tmp_path / "tree_points.json",
        {"space": tree.descriptor(), "points": [{"vertex": v} for v in ("a", "b", "c")]},
    )
    assert main(["barycenter", "--input", inp, "--tol", "1e-13", "--max-cycles", "5"]) == 3


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
    # the cyclic mean of commuting diagonals is the entrywise geometric mean:
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
