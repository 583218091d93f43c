"""How fast the machine is running right now, against a fixed reference.

The sandbox's CPU speed moves by a factor of up to 1.8 within seconds
and drifts over minutes (neighbours on the host), and process CPU time
moves with it, so no amount of repetition inside a 30 s run makes a raw
wall-clock time repeat between runs. The benchmark therefore measures
the machine next to the program: :func:`probe` runs a fixed kernel that
is no part of the program under test and returns how much slower than
the reference speed it ran, and every timed section is divided by the
slowness measured around it. A change to the program moves a scaled time
exactly as it would move the raw one; a change in machine speed moves
the probe with it and cancels.

Replay positions are a tenth of a second long and sit between two
probes. A set-up takes seconds and has no seam to probe at, so a
:class:`Sampler` thread probes while it runs.
"""

from __future__ import annotations

import threading
from time import thread_time

import numpy as np

__all__ = ["Sampler", "probe"]

#: Seconds each half of the kernel takes at the reference speed: the
#: sandbox's median between replay positions on the day the benchmark
#: was defined. Constants, not calibrated per run, so scaled times from
#: different runs compare.
PY_REFERENCE_S = 1.9e-3
NP_REFERENCE_S = 3.1e-3

#: Seconds between two probes of a :class:`Sampler`: a probe costs the
#: sampled thread about 6 % of its time at this period.
SAMPLE_PERIOD_S = 0.1

_PY_STEPS = 25_000
_NP_REPEATS = 6
_ARR = np.random.default_rng(0).random(400_000)
_IDX = (
    np.random.default_rng(1).integers(0, len(_ARR) - 64, 1024)[:, None]
    + np.arange(64)
)


def probe() -> float:
    """Slowness of the machine: 1.0 is the reference speed, 1.5 is 1.5x slower.

    The kernel has an interpreter-bound half and a memory-bound half
    because the two do not slow down together: the program's
    Python-level work (maintenance sweeps, the service layers) follows
    the first, its numpy gathers the second. Timed in thread CPU time,
    which slows with the machine like wall time does but leaves out
    waiting for the GIL or for a core.
    """
    t0 = thread_time()
    slots: dict[int, int] = {}
    x = 0
    for i in range(_PY_STEPS):
        slots[i & 255] = x
        x += i * i % 7
    t1 = thread_time()
    for _ in range(_NP_REPEATS):
        (_ARR[_IDX] + _ARR[_IDX[::-1]]).min(axis=1)
    t2 = thread_time()
    return ((t1 - t0) / PY_REFERENCE_S + (t2 - t1) / NP_REFERENCE_S) / 2


probe()  # the first call runs cold; keep it out of every measurement


class Sampler:
    """Probes the machine from a thread while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples = [probe()]
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._done.wait(SAMPLE_PERIOD_S):
            self.samples.append(probe())

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self.samples.append(probe())

    @property
    def slowness(self) -> float:
        return float(np.mean(self.samples))
