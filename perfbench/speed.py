"""The box's speed, for reporting times in reference seconds.

The benchmark's reference box (a 2-core Xeon VM, Python 3.11.7, numpy 2.4.6)
shares its cores: its speed swings by up to 2x over seconds, and the time of
a fixed loop tracks the library's (correlation 0.88 per operation).  So each
timed operation is bracketed by ``kernel_s()`` and its wall time scaled by
KERNEL_REF_S over the mean kernel time: a reference second is a second at
the speed where the kernel takes KERNEL_REF_S, its time on that box when
no neighbour contends for the core.
"""

import time

import numpy as np

KERNEL_REF_S = 0.010
_A = np.diag([2.0, 3.0, 5.0])


def kernel_s() -> float:
    """Time of a fixed kernel of interpreter arithmetic and small numpy
    calls, the mix the library's hot loops make."""
    t0 = time.perf_counter()
    s = 0
    for i in range(120_000):
        s += i * i
    for _ in range(400):
        np.linalg.eigh(_A)
    return time.perf_counter() - t0


def to_reference(wall_s: float, k_before: float, k_after: float) -> float:
    return wall_s * KERNEL_REF_S / (0.5 * (k_before + k_after))
