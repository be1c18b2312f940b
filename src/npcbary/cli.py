"""Command-line interface.

Subcommands::

    barycenter   compute an empirical or inductive barycenter of a points file
    gm           matrix geometric means (inductive endpoint + Karcher mean)
    bounds       evaluate a named concentration formula from a JSON query
    experiment   run a Monte Carlo experiment config, write JSON + CSV reports
    check        run the NPC property suite for one space

Exit codes are a stable contract: 0 success, 2 input error, 3 convergence
failure, 4 property-suite or coverage failure.  Every JSON object is read
by ``spaces.read_fields``, which rejects any key it does not list, so
malformed input is a :class:`SpaceError` naming the field or key and exits 2;
``main`` catches only ``SpaceError`` and ``ConvergenceError``, and any other
exception is a bug that surfaces as a traceback.  All randomness flows from
the single seed in the config or flags (default 0); nothing reads an entropy
source implicitly.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys

from . import presets
from .barycenter import (
    DEFAULT_MAX_CYCLES,
    BarycenterResult,
    ConvergenceError,
    empirical_barycenter,
    inductive_barycenter,
    frechet_objective,
)
from .bounds import BOUND_EVALUATORS, evaluate_bound
from .experiments import ExperimentConfig, npc_property_suite, run_concentration
from .spaces import (
    FORMULA_ARG,
    Euclidean,
    Hyperbolic,
    Space,
    SpaceError,
    SpdAffine,
    point_from_json,
    read_field,
    read_fields,
    space_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4

# The space each `check --space` name runs the property suite on, from the flags.
_CHECK_SPACES = {
    "euclidean": lambda args: Euclidean(2),
    "hyperbolic": lambda args: Hyperbolic(kappa=-1.0, dim=2),
    "spd": lambda args: SpdAffine(args.p),
    "tree": lambda args: presets.demo_tree(),
}


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpaceError(f"cannot read {path}: {exc}") from exc


def _dump_json(obj, path: str | None):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise SpaceError(f"result has a non-finite number, not valid JSON: {exc}") from exc
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_points(path: str) -> tuple[Space, list]:
    obj = _load_json(path)
    space = space_from_json(read_field(obj, "space", dict))
    points = read_fields(obj, space=dict, points=lambda p: point_from_json(space, p))["points"]
    if not points:
        raise SpaceError(f"{path}: needs at least one point")
    return space, points


def cmd_barycenter(args) -> int:
    space, points = _load_points(args.input)
    if args.estimator == "inductive":
        point = inductive_barycenter(space, points)
        result = BarycenterResult(point, len(points) - 1, 0.0,
                                  frechet_objective(space, points, point), None)
    else:
        result = empirical_barycenter(
            space, points, tol=args.tol, max_cycles=args.max_cycles
        )
    out = result.to_json(space)
    out["estimator"] = args.estimator
    _dump_json(out, args.output)
    return EXIT_OK


def cmd_gm(args) -> int:
    obj = _load_json(args.input)
    mats = read_field(obj, "matrices", list)
    p = len(mats[0]) if mats and isinstance(mats[0], list) else 1
    space = SpdAffine(max(p, 1))
    mats = read_fields(obj, matrices=space.payload_from_json)["matrices"]
    if not mats:
        raise SpaceError("field 'matrices' needs at least one matrix")
    inductive = inductive_barycenter(space, mats)
    mean = empirical_barycenter(space, mats, tol=args.tol, max_cycles=args.max_cycles)
    solve = mean.to_json(space)  # its "point" is written as "empirical", in its place
    _dump_json({"p": space.p, "count": len(mats), "inductive": space.payload_to_json(inductive),
                "empirical": solve.pop("point"), **solve}, args.output)
    return EXIT_OK


def cmd_bounds(args) -> int:
    query = _load_json(args.input)
    name = read_field(query, "bound", str)
    if name in BOUND_EVALUATORS:  # evaluate_bound ignores other keys, as a coverage run needs
        params = inspect.signature(BOUND_EVALUATORS[name]).parameters
        read_fields(query, bound=str, **dict.fromkeys(params, (FORMULA_ARG, None)))
    try:
        value = evaluate_bound(name, query)
    except ValueError as exc:
        raise SpaceError(str(exc)) from exc
    _dump_json({"bound": name, "value": value, "query": query}, args.output)
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        if args.preset is not None:
            config = presets.preset_config(args.preset)
        elif args.config is not None:
            config = ExperimentConfig.from_json(_load_json(args.config))
        else:
            raise SpaceError("experiment needs --config or --preset")
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        report = run_concentration(config)
    except ValueError as exc:
        raise SpaceError(str(exc)) from exc
    _dump_json(report.to_json(), args.output)
    if args.csv is not None:
        report.write_csv(args.csv)
    if not report.passed and not report.conjectural:
        print(
            f"coverage check failed: {report.coverage:.4f} below threshold",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_check(args) -> int:
    space = _CHECK_SPACES[args.space](args)
    report = npc_property_suite(
        space, samples=args.samples, seed=args.seed, tuple_pairs=args.tuple_pairs
    )
    _dump_json(report.to_json(), args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npcbary",
        description="Barycenters and concentration-bound experiments in geodesic metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barycenter", help="barycenter of a points file")
    p.add_argument("--input", required=True, help="JSON file with 'space' and 'points'")
    p.add_argument("--estimator", choices=("empirical", "inductive"), default="empirical")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_barycenter)

    p = sub.add_parser("gm", help="matrix geometric means of SPD matrices")
    p.add_argument("--input", required=True, help="JSON file with a 'matrices' list")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_gm)

    p = sub.add_parser("bounds", help="evaluate a concentration formula")
    p.add_argument("--input", required=True,
                   help=f"JSON query with a 'bound' name, one of {sorted(BOUND_EVALUATORS)}")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    p.add_argument("--preset", default=None, choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--csv", default=None, help="per-trial CSV path")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("check", help="NPC property suite for one space")
    p.add_argument("--space", required=True, choices=_CHECK_SPACES)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--tuple-pairs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=int, default=3, help="matrix size for --space spd")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SpaceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
