"""Per-trial distances d(T_n, b*) recorded from the library as it was when the
benchmark was added, and the check of a run's distances against them.

The benchmark seed selects a pool seed (config seed) for each round; the
reference holds every trial of every pool seed, so each trial a run makes
is checked.  ``record_reference.py`` wrote ``reference.npz``; it is not
re-recorded when the library changes, since it defines what correct output
is.

Tolerance.  A trial's empirical barycenter stops when a cycle moves it by at
most tol = 1e-4 (1 + D) (TRIAL_TOL_REL when recorded); its error to the
exact minimiser can be larger.  Over every trial of the pool, against exact
barycenters (Karcher iteration for SPD, the closed form on the star tree,
the 1-D mean for two leaves of the tree), the recorded distances are off by
at most 1.14 tol on the 3-atom SPD preset, 21.3 tol on the 3-leaf star and
1e-9 on the 2-leaf tree preset; the other presets' samples lie on one
geodesic or in flat space, where the recursion is exact up to rounding.  A
weighted cyclic recursion over collapsed atoms lands within
2.9 tol of the record on every smooth preset.  TOL_FACTOR = 32 admits an
exact solver and such a path; on the star tree that same recursion stops up
to 327 tol from the record, a real error, which the check reports.  The
distances are stored as float32, whose rounding (below 1e-7 relative) is far
inside the tolerance.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PATH = Path(__file__).with_name("reference.npz")
COVERAGE_POOL = 16
CAT_POOL = 32
RECORDED_TRIAL_TOL_REL = 1e-4
TOL_FACTOR = 32.0


def key(workload: str, label: str) -> str:
    return f"{workload}.{label}"


def tolerance(D: float) -> float:
    return TOL_FACTOR * RECORDED_TRIAL_TOL_REL * (1.0 + D)


class Reference:
    def __init__(self, path: Path = PATH):
        with np.load(path, allow_pickle=False) as data:
            self.table = {k: data[k] for k in data.files}

    def mismatches(self, workload: str, label: str, pool_seed: int,
                   distances, D: float) -> int:
        """How many trials are farther than the tolerance from the record
        (a missing record or a NaN counts every trial)."""
        d = np.asarray(distances, dtype=float)
        rows = self.table.get(key(workload, label))
        if rows is None or pool_seed >= len(rows) or len(d) > rows.shape[1]:
            return len(d)
        ref = rows[pool_seed, : len(d)].astype(float)
        return int(np.count_nonzero(~(np.abs(d - ref) <= tolerance(D))))
