"""Write reference.npz: every trial distance the benchmark can produce, for
each pool seed, from the library as it stands.

    python3 perfbench/record_reference.py

This defines correct output for later versions of the library, so it is run
once, on the commit the benchmark was written against, and not again when
the library changes.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from npcbary import experiments, presets  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table: dict[str, list] = {}
    for s in range(reference.COVERAGE_POOL):
        for cfg in workloads.coverage_configs(s):
            rep = experiments.run_concentration(cfg)
            table.setdefault(reference.key("coverage_sweep", cfg.label), []).append(rep.distances)
    dist = presets.sphere_cap_distribution()
    for s in range(reference.CAT_POOL):
        cfg = workloads.cat_config(dist, s)
        rep = experiments.run_concentration(cfg)
        table.setdefault(reference.key("cat_kappa_large_n", cfg.label), []).append(rep.distances)
    np.savez(reference.PATH, **{k: np.asarray(v, dtype=np.float32) for k, v in table.items()})
    print(f"wrote {reference.PATH}: {sum(np.size(v) for v in table.values())} distances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
