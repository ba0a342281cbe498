"""Host-speed calibration of the timings.

On a shared virtual machine the same code runs up to 1.7x slower for seconds
at a time, while the process's CPU time still counts every cycle, so a raw
timing says as much about the neighbours as about the code.  A fixed
reference kernel, made of the kinds of work the library does (tuple loops of
modular products, small int64 numpy arrays, products of multi-kilobyte
integers), runs throughout a measurement, from a profiling timer: once per
``EVERY_S`` of process time, whatever code is running, long solver calls
included.  A timed call excludes the kernel's time and is multiplied by
``REF_S`` over the mean of the kernel runs made during it and of the run on
each side of it, so it reads as seconds on a host where the kernel takes
``REF_S``.

Contention comes and goes within seconds: on a 2-vCPU Xeon virtual machine
one xd-wide ``direct_sim_pade`` call took 0.35-0.62 s within 45 s, and its
time correlated at 0.75 with the kernel runs on either side of it.  Scaled
that way, the median call moved by under 4% between three such windows.

The kernel shares no code with the library, so a change to the library
leaves the kernel's work alone; only the cache state the library resumes
from after a kernel run can differ a little.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

REF_S = 0.011       # the kernel's time on a quiet 2-vCPU Xeon VM
EVERY_S = 0.2       # one kernel run per this much process time
WARM = 5            # kernel runs discarded before the first timed one

_P = 97
_A = tuple(range(1, 41))
_B = tuple(range(3, 43))
_ARR = np.arange(4096, dtype=np.int64)
_PW = np.arange(16, dtype=np.int64)
_BIG_A = random.Random(1).getrandbits(40000)
_BIG_B = random.Random(2).getrandbits(40000)


def kernel():
    """Fixed work of the library's kinds; returns a checksum."""
    acc = 0
    for _ in range(40):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
        reduced = {k: (c % _P, [c]) for k, c in enumerate(out)}
        acc += reduced[40][0]
    for _ in range(150):
        acc += int(((_ARR.reshape(256, 16) @ _PW) % _P)[-1])
        buf = np.zeros((4096, 3), dtype=np.uint8)
        buf[:, 0] = (_ARR >> 3).astype(np.uint8)
        acc += int(np.frombuffer(buf.tobytes(), dtype=np.uint8)
                   .astype(np.int64)[-3])
    for _ in range(6):
        prod = _BIG_A * _BIG_B
        acc += int.from_bytes(
            prod.to_bytes((prod.bit_length() + 7) // 8, "little"),
            "little") & 0xFF
    return acc


class Calibration:
    """Kernel runs spread over a measurement, and the scale they give.

    ``start`` runs the kernel once and then from a ``SIGPROF`` timer, which
    Python handles between two bytecodes of the main thread, so the kernel
    never runs inside a C call of the library or of numpy.  ``stop`` ends
    the timer and runs the kernel once more, after every timed call.
    """

    def __init__(self):
        for _ in range(WARM):   # the first runs of the kernel are cold
            kernel()
        self.runs = []
        self.in_kernel = 0.0    # process seconds spent in the kernel runs

    def _run(self, *_):
        t0 = time.process_time()
        kernel()
        seconds = time.process_time() - t0
        self.runs.append(seconds)
        self.in_kernel += seconds

    def start(self):
        self._run()
        signal.signal(signal.SIGPROF, self._run)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._run()

    def clock(self):
        """(process seconds outside the kernel, index of the latest run)."""
        while True:
            spent, last = self.in_kernel, len(self.runs) - 1
            now = time.process_time()
            if self.in_kernel == spent:     # no kernel run in between
                return now - spent, last

    def scale(self, first, last):
        """REF_S over the kernel's pace during a call timed by ``clock``.

        ``first`` and ``last`` are the indices ``clock`` gave at the call's
        start and end: the runs from ``first`` to ``last + 1`` are the one
        before the call, those during it and the one after it.
        """
        beside = self.runs[first:last + 2]
        return REF_S / (sum(beside) / len(beside))
