"""Per-layer metrics: the table of names with what each should move, the L0
micro timings at fixed inputs, and the reduction of a traced phase's spans.

Counts and seconds are per round (a traced phase runs a fixed number of
rounds, so counts repeat exactly for a given seed); ``_us`` values are mean
self microseconds per call.  Times are in reference seconds (speed.py): the
traced phase's by its mean speed, each micro timing by the kernel around
it.  A mean over zero calls reads 0, and a metric of a layer a workload does
not reach reads 0 on it.

``MOVES`` records, for each group of per-layer metrics, the end-to-end metric
and workload it should move (or must not move); changes cite these names.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from npcbary import presets
from npcbary.spaces import Euclidean, Hyperbolic, SpdAffine, Sphere

import speed
import tracer as tr
from workloads import COVERAGE_PRESETS

SPACE_KEYS = ("euclidean", "hyperbolic", "spd_affine_p2", "spd_affine_p3",
              "metric_tree", "sphere")
SUITE_SPACES = ("spd_affine_p3", "hyperbolic", "metric_tree")

MOVES = {
    "spaces.spd_affine_p3.*": "items_per_s on lipschitz_suite",
    "spaces.spd_affine_p2.*": "items_per_s on coverage_sweep; deleting the 2x2 path must not slow it",
    "spaces.sphere.*": "items_per_s on cat_kappa_large_n",
    "spaces.*.*_us_micro": "none: the L0 cost with instrumentation off, at fixed inputs",
    "barycenter.empirical.steps_per_solve": (
        "items_per_s on coverage_sweep and cat_kappa_large_n (atom collapse); unchanged on "
        "lipschitz_suite, where distinct_share = 1, except by certified stopping"),
    "barycenter.empirical.distinct_share": "none: the input redundancy that collapse exploits",
    "barycenter.weighted.s": "setup_s on coverage_sweep",
    "experiments.harness_self_s": "items_per_s on coverage_sweep",
    "experiments.ground_truth_s": "setup_s on coverage_sweep (the exact tree solver targets it)",
    "experiments.*.trial_ms": "items_per_s on coverage_sweep",
    "experiments.suite.*.s": "items_per_s on lipschitz_suite",
    "cli.*": "guards items_per_s on coverage_sweep against slower report writing",
    "trace.*": "none: tracing overhead, traced against untraced items_per_s",
}


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = []
    for k in SPACE_KEYS:
        for op in ("geodesic", "dist"):
            rows += [
                (f"spaces.{k}.{op}_calls", "count", "lower"),
                (f"spaces.{k}.{op}_us", "us", "lower"),
                (f"spaces.{k}.{op}_us_micro", "us", "lower"),
            ]
    rows += [
        ("barycenter.empirical.solves", "count", "lower"),
        ("barycenter.empirical.steps_per_solve", "count", "lower"),
        ("barycenter.empirical.us_per_step", "us", "lower"),
        ("barycenter.empirical.self_s", "s", "lower"),
        ("barycenter.empirical.distinct_share", "ratio", "lower"),
        ("barycenter.inductive.steps", "count", "lower"),
        ("barycenter.inductive.us_per_step", "us", "lower"),
        ("barycenter.weighted.s", "s", "lower"),
    ]
    rows += [(f"experiments.{p}.trial_ms", "ms", "lower") for p in COVERAGE_PRESETS]
    rows += [
        ("experiments.ground_truth_s", "s", "lower"),
        ("experiments.harness_self_s", "s", "lower"),
    ]
    rows += [(f"experiments.suite.{k}.s", "s", "lower") for k in SUITE_SPACES]
    rows += [
        ("cli.experiment_s", "s", "lower"),
        ("cli.io_s", "s", "lower"),
        ("trace.items_per_s_untraced", "1/s", "higher"),
        ("trace.items_per_s_traced", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return rows


# ---------------------------------------------------------------------------
# L0 micro timings
# ---------------------------------------------------------------------------

MICRO_PAIRS = 16
MICRO_BATCH = 64
MICRO_MIN_BATCHES = 7
MICRO_MIN_S = 0.1


def _spd(rng, p):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    m = (q * np.exp(rng.uniform(-1.0, 1.0, p))) @ q.T
    return 0.5 * (m + m.T)


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / math.sqrt(float(v @ v))


def micro_inputs():
    """Fixed (space key, space, pairs): the same points on every run."""
    rng = np.random.default_rng(20240817)
    hyp, sph, tree = Hyperbolic(-1.0), Sphere(1.0), presets.demo_tree()
    makers = {
        "euclidean": (Euclidean(2), lambda: rng.standard_normal(2)),
        "hyperbolic": (hyp, lambda: hyp.exp_from_base(_unit(rng, 2), rng.uniform(0.0, 2.0))),
        "spd_affine_p2": (SpdAffine(2), lambda: _spd(rng, 2)),
        "spd_affine_p3": (SpdAffine(3), lambda: _spd(rng, 3)),
        "metric_tree": (tree, lambda: tree.edge_point(
            int(rng.integers(len(tree.edges))), rng.uniform(0.0, 1.0))),
        "sphere": (sph, lambda: sph.exp_from_base(_unit(rng, 2), rng.uniform(0.0, math.pi / 4))),
    }
    return [(k, space, [(make(), make()) for _ in range(MICRO_PAIRS)])
            for k, (space, make) in makers.items()]


def _per_call_us(call, pairs) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    batches = []
    spent = 0.0
    while len(batches) < MICRO_MIN_BATCHES or spent < MICRO_MIN_S:
        t0 = time.perf_counter()
        for _ in range(MICRO_BATCH // len(pairs)):
            for x, y in pairs:
                call(x, y)
        dt = time.perf_counter() - t0
        spent += dt
        batches.append(dt / MICRO_BATCH * 1e6)
    return statistics.median(batches)


def micro_timings() -> dict[str, float]:
    """L0 cost of geodesic_point (t = 0.3) and dist per space, untraced."""
    out = {}
    k_before = speed.kernel_s()
    for k, space, pairs in micro_inputs():
        for op, call in (("geodesic", lambda x, y: space.geodesic_point(x, y, 0.3)),
                         ("dist", space.dist)):
            us = _per_call_us(call, pairs)
            k_after = speed.kernel_s()
            out[f"spaces.{k}.{op}_us_micro"] = speed.to_reference(us, k_before, k_after)
            k_before = k_after
    return out


# ---------------------------------------------------------------------------
# reduction of a traced phase
# ---------------------------------------------------------------------------


def reduce_spans(t: tr.Tracer, rounds: int, speed_factor: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``rounds`` rounds, its times
    multiplied by ``speed_factor`` (reference over wall seconds)."""
    parent, name, dur = t.arrays()
    self_ns = t.self_times() * speed_factor
    dur = dur * speed_factor
    ids = {n: i for i, n in enumerate(t.names)}
    missing = len(t.names)

    def mask(span_name):
        return name == ids.get(span_name, missing)

    def per_round(ns) -> float:
        return float(ns) / 1e9 / rounds

    out = {}
    for k in SPACE_KEYS:
        for op in ("geodesic", "dist"):
            m = mask(f"spaces.{k}.{op}")
            calls = int(np.count_nonzero(m))
            out[f"spaces.{k}.{op}_calls"] = calls / rounds
            out[f"spaces.{k}.{op}_us"] = float(self_ns[m].sum()) / calls / 1e3 if calls else 0.0

    # a call that raised has no note and drops out of the per-call figures
    emp = [i for i in np.flatnonzero(mask(tr.EMPIRICAL)) if i in t.notes]
    steps = sum(t.notes[i][0] for i in emp)
    points = sum(len(t.notes[i][1]) for i in emp)
    distinct = sum(len({tr.payload_key(p) for p in t.notes[i][1]}) for i in emp)
    out["barycenter.empirical.solves"] = len(emp) / rounds
    out["barycenter.empirical.steps_per_solve"] = steps / len(emp) if len(emp) else 0.0
    out["barycenter.empirical.us_per_step"] = float(dur[emp].sum()) / steps / 1e3 if steps else 0.0
    out["barycenter.empirical.self_s"] = per_round(self_ns[emp].sum())
    out["barycenter.empirical.distinct_share"] = distinct / points if points else 0.0

    ind = [i for i in np.flatnonzero(mask(tr.INDUCTIVE)) if i in t.notes]
    ind_steps = sum(t.notes[i][0] for i in ind)
    out["barycenter.inductive.steps"] = ind_steps / rounds
    out["barycenter.inductive.us_per_step"] = (
        float(dur[ind].sum()) / ind_steps / 1e3 if ind_steps else 0.0)
    out["barycenter.weighted.s"] = per_round(dur[mask(tr.WEIGHTED)].sum())

    # ground truth = population barycenter and Frechet variance, wherever called
    gt = mask(tr.POPULATION) | mask(tr.FRECHET_VARIANCE)
    gt_child = gt & (parent >= 0)
    gt_by_parent = np.bincount(parent[gt_child], weights=dur[gt_child], minlength=len(dur))
    runs = np.flatnonzero(mask(tr.RUN_CONCENTRATION))
    cli_spans = mask(tr.CLI_MAIN)
    trial_ns: dict[str, float] = {}
    trials: dict[str, int] = {}
    for i in runs:
        if i not in t.notes or (parent[i] >= 0 and cli_spans[parent[i]]):
            continue
        label, n_trials = t.notes[i]
        trial_ns[label] = trial_ns.get(label, 0.0) + dur[i] - gt_by_parent[i]
        trials[label] = trials.get(label, 0) + n_trials
    for p in COVERAGE_PRESETS:
        label = presets.preset_config(p).label  # e.g. hoeffding-spd_affine-empirical
        out[f"experiments.{p}.trial_ms"] = (
            trial_ns[label] / trials[label] / 1e6 if label in trials else 0.0)
    out["experiments.ground_truth_s"] = per_round(dur[gt].sum())
    out["experiments.harness_self_s"] = per_round(self_ns[runs].sum())

    suites = np.flatnonzero(mask(tr.PROPERTY_SUITE))
    for k in SUITE_SPACES:
        out[f"experiments.suite.{k}.s"] = per_round(
            sum(dur[i] for i in suites if t.notes.get(i, (None,))[0] == k))

    out["cli.experiment_s"] = per_round(dur[cli_spans].sum())
    out["cli.io_s"] = per_round(self_ns[cli_spans].sum())
    return out
