"""Host speed: a fixed reference kernel, timed before and after each command
of a run, that scales the command's timings to one reference speed.

On a shared virtual machine the speed of a vCPU drifts with the load of
other tenants: one workload pass ranged from 5.2 s to 10.2 s within ten
minutes, with the same work (the call counts of a pass vary by under 0.5%
between seeds).  Both vCPUs drift together, mostly over tens of seconds to
minutes, so a kernel timed next to a command slows with the command.  On
such a VM, scaling halved the run-to-run spread of a workload's time in
noisy stretches; README.md gives the figures.

The kernel mixes what the program does: interpreted Python arithmetic,
numpy calls on 4x4 matrices and a 60x60 SVD.  It lives in the benchmark,
so no change to the program changes it.  A command's times are reported
as ``raw * REFERENCE_S / kernel time``, with the mean of the kernel times
just before and just after the command: seconds on a host on which the
kernel takes ``REFERENCE_S``.  The raw times are kept in the result file.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time that defines the reference speed: a round number near the
#: kernel's median on a shared 2-vCPU x86_64 VM (Xeon, 2.1 GHz), where run
#: medians ranged from 0.09 s to 0.18 s.
REFERENCE_S = 0.12

_RNG = np.random.default_rng(20260418)
_SMALL = [_RNG.standard_normal((4, 4)) for _ in range(8)]
_LARGE = _RNG.standard_normal((60, 60))


def _kernel() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    seen = {}
    for i in range(1500):
        a = _SMALL[i % 8]
        s = np.linalg.svd(a, compute_uv=False)
        np.linalg.qr(a @ a.T)
        key = tuple(sorted(round(float(x), 6) for x in s))
        seen[key] = seen.get(key, 0) + 1
    for _ in range(45):
        np.linalg.svd(_LARGE)
    return total + len(seen)


def sample() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def factor(kernel_s: float) -> float:
    """Factor from raw seconds to reference seconds, given a kernel time."""
    return REFERENCE_S / kernel_s


_kernel()  # first call pays BLAS start-up and page faults; not a sample
