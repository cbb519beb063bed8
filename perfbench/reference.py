"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the CPU time of the same work drifts by a third or more
over minutes, as other tenants load the caches, memory bandwidth and
sibling hyperthreads of the cores. The benchmark runs this kernel right
after each op and reports the op's CPU time divided by the kernel's, times
``REFERENCE_S``: seconds of the baseline machine at its usual speed. The
kernel is independent of ``sounder_sim``: a change to the program moves
the op times and leaves the kernel's alone.

Its mix follows an op's: fresh arrays larger than L3 (page faults, system
time), FFTs, elementwise complex arithmetic, a cumulative sum, a
pure-Python loop and number-to-text formatting. ``measure`` runs it in a
forked child, so that its memory stays out of the benchmark process's
peak RSS and its CPU time out of the op times.
"""

from __future__ import annotations

import os
import time

import numpy as np

# CPU seconds of one kernel call on the baseline machine (see README.md).
REFERENCE_S = 0.20
N = 1 << 20  # complex samples per array


def kernel() -> float:
    """Run the kernel once; its CPU seconds (user + system)."""
    start = time.process_time()
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2 * N)
    z = x[:N] + 1j * x[N:]
    z *= np.exp(1j * 1e-3 * np.arange(N))
    fresh = np.full(4 * N, 0.5)
    fresh[::4] += np.abs(z)
    quarter = N >> 2
    spec = np.fft.ifft(np.fft.fft(z[:quarter]) * np.conj(np.fft.fft(z[-quarter:])))
    power = np.cumsum(np.abs(z) ** 2)
    acc = len("\n".join(f"{p:.9e},{s:.6e}"
                        for p, s in zip(power[:5000].tolist(), spec.real[:5000].tolist())))
    for i in range(25000):
        acc += i * i
    return time.process_time() - start


def measure() -> float:
    """CPU seconds of one kernel call in a forked child.

    Forking is safe here although numpy's BLAS pool has an idle thread:
    the child makes no BLAS call, and the program's own worker threads are
    joined when each op returns.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, repr(kernel()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference kernel child exited with status {status}")
    return float(data)
