"""Self-test of the benchmark's own correctness gate.

    python3 perfbench/selftest.py

1. With a corrupted distance (every space's ``dist`` adds 0.05 above 1e-3) and
   with a corrupted barycenter (both estimators return their first input
   point), one round of each workload must count failed operations.
2. Two rounds of each workload on HELD_OUT_SEED, a seed not used while the
   benchmark was written, must pass every check.
3. BENCHMARK.json must list the workloads and metrics the benchmark emits.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

import dataclasses
import json
import sys
from contextlib import ExitStack, contextmanager

import run

HELD_OUT_SEED = 90210


@contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def corrupt_distance():
    import tracer

    with ExitStack() as stack:
        for cls in tracer.SPACE_CLASSES:
            stack.enter_context(patched(cls, "dist", _offset))
        yield


def _offset(dist):
    # distances above 1e-3 read 0.05 long; the solvers' per-cycle
    # displacements stay below that, so every solve still converges
    def offset(space, x, y):
        d = dist(space, x, y)
        return d + 0.05 if d > 1e-3 else d

    return offset


@contextmanager
def corrupt_barycenter():
    from npcbary import experiments

    def first_point_empirical(solve):
        return lambda space, points, **kw: dataclasses.replace(
            solve(space, points, **kw), point=points[0])

    with patched(experiments, "empirical_barycenter", first_point_empirical):
        with patched(experiments, "inductive_barycenter",
                     lambda solve: lambda space, points: points[0]):
            yield


def run_workload(name, seed, rounds):
    import reference
    import workloads

    wl = workloads.WORKLOADS[name](seed, run.OUT_DIR, reference.Reference())
    wl.setup()
    done = run.run_rounds(wl, range(rounds))
    return sum(r.items for r in done), sum(r.failed for r in done) + wl.finish()


def check_benchmark_json(ok) -> bool:
    import layers

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    good = (
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
        and [m["name"] for m in spec["end_to_end"]] == ["items_per_s", "setup_s", "peak_rss_mb"]
        and per_layer == layers.metric_table()
    )
    return ok("BENCHMARK.json lists the emitted workloads and metrics", good)


def main() -> int:
    run.import_library()
    run.OUT_DIR.mkdir(exist_ok=True)
    results = []

    def ok(label, good):
        print(f"{'ok  ' if good else 'FAIL'} {label}")
        results.append(good)
        return good

    for corruption in (corrupt_distance, corrupt_barycenter):
        for name in run.WORKLOAD_NAMES:
            with corruption():
                items, failed = run_workload(name, 0, 1)
            ok(f"{corruption.__name__} on {name}: {failed}/{items} failed", failed > 0)
    for name in run.WORKLOAD_NAMES:
        items, failed = run_workload(name, HELD_OUT_SEED, 2)
        ok(f"held-out seed {HELD_OUT_SEED} on {name}: {failed}/{items} failed", failed == 0)
    check_benchmark_json(ok)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
