"""npcbary benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` of the
checkout; a directory without it exits 2 without a result.

One process, one closed loop: each library call starts when the previous one
returns.  BLAS threads are pinned to 1 (the library is single-threaded).

``--trace 0`` runs set-up SETUP_REPEATS times, then rounds of the workload
until ``--seconds`` have passed and at least the workload's ``min_rounds``
ran, and reports ``items_per_s`` (median over rounds), ``setup_s`` (import
time plus the median set-up) and ``peak_rss_mb``.

Times are in reference seconds (``speed.py``): wall seconds scaled by the
box's speed at the time, which a fixed kernel timed before and after each
library operation and each set-up measures.  On a shared box whose speed
swings by 2x this keeps a neighbour's load out of the figures; the
wall-clock figures are in the ``info`` line.

``--trace 1`` runs the L0 micro timings, then a fixed number of rounds
untraced and the same rounds again with the tracer installed, and reports
the per-layer metrics of ``layers.py``.  The spans and the metrics are
written to ``.perfbench_out/``.

``--workload all`` runs each workload in its own process and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("coverage_sweep", "lipschitz_suite", "cat_kappa_large_n")
CHILD_TIMEOUT_S = 170


class Round(NamedTuple):
    items: int
    failed: int
    wall_s: float
    ref_s: float


def import_library():
    """Import npcbary from the checkout's src/, exiting 2 if it is absent;
    return the seconds since the process started."""
    src = ROOT / "src"
    if not (src / "npcbary" / "__init__.py").is_file():
        print(f"perfbench: no library at {src}/npcbary; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import npcbary

    if Path(npcbary.__file__).resolve().parent != (src / "npcbary").resolve():
        print(f"perfbench: imported npcbary from {npcbary.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - T_START


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def median_setup(wl) -> float:
    """Median set-up time over SETUP_REPEATS, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        k0 = speed.kernel_s()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        times.append(speed.to_reference(dt, k0, speed.kernel_s()))
    return statistics.median(times)


def run_rounds(wl, rounds) -> list[Round]:
    """Run the given rounds, timing each library operation in wall seconds
    and in reference seconds (speed.py), from the kernel timed just before
    and just after the operation."""
    out = []
    for r in rounds:
        items = failed = 0
        wall_s = ref_s = 0.0
        k_before = speed.kernel_s()
        for step in wl.steps(r):
            t0 = time.perf_counter()
            i, f = step()
            dt = time.perf_counter() - t0
            k_after = speed.kernel_s()
            wall_s += dt
            ref_s += speed.to_reference(dt, k_before, k_after)
            k_before = k_after
            items += i
            failed += f
        out.append(Round(items, failed, wall_s, ref_s))
    return out


def timed_phase(wl, seconds: float) -> list[Round]:
    """Rounds 0, 1, ... until ``seconds`` have passed and wl.min_rounds ran."""
    done = []
    t_end = time.perf_counter() + seconds
    while len(done) < wl.min_rounds or time.perf_counter() < t_end:
        done += run_rounds(wl, [len(done)])
    return done


def run_untraced(wl, args, import_s):
    k = speed.kernel_s()
    import_ref_s = speed.to_reference(import_s, k, k)
    setup_s = import_ref_s + median_setup(wl)
    rounds = timed_phase(wl, args.seconds)
    failed = sum(r.failed for r in rounds) + wl.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (statistics.median(r.items / r.ref_s for r in rounds), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {
        "rounds": len(rounds),
        "wall_items_per_s": statistics.median(r.items / r.wall_s for r in rounds),
        "import_wall_s": import_s,
        "speed": [r.wall_s / r.ref_s for r in rounds],
    }
    return metrics, sum(r.items for r in rounds), failed, info


def run_traced(wl, args, import_s):
    import layers
    import tracer

    wl.setup()
    metrics = layers.micro_timings()
    n = max(1, round(args.seconds / (2.0 * wl.nominal_round_s)))
    untraced = run_rounds(wl, range(n))
    t = tracer.Tracer()
    traced = []
    t.install()
    try:
        for r in range(n):
            with t.span(tracer.ROUND):
                traced += run_rounds(wl, [r])
    finally:
        t.uninstall()
    rounds = untraced + traced
    failed = sum(r.failed for r in rounds) + wl.finish()
    t.save(OUT_DIR / f"spans-{wl.name}.npz")
    metrics.update(layers.reduce_spans(
        t, n, sum(r.ref_s for r in traced) / sum(r.wall_s for r in traced)))
    untraced_s = sum(r.ref_s for r in untraced)
    traced_s = sum(r.ref_s for r in traced)
    metrics["trace.items_per_s_untraced"] = sum(r.items for r in untraced) / untraced_s
    metrics["trace.items_per_s_traced"] = sum(r.items for r in traced) / traced_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    units = {name: unit for name, unit, _ in layers.metric_table()}
    return ({k: (metrics[k], units[k]) for k in units},
            sum(r.items for r in rounds), failed, {"rounds": n, "spans": len(t.start)})


def run_one(args) -> dict:
    import_s = import_library()
    import reference
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, reference.Reference())
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, info = runner(wl, args, import_s)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "info": info, "result": result}, indent=1))
    print("environment " + json.dumps(env))
    print("info " + json.dumps(info))
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
            print(f"{name:18s} {k:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:18s} {'failed/attempted':40s} {res['failed']:>7d}/{res['attempted']}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
