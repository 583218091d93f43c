"""Kernel-phase profiling.

The maintenance driver marks its phases with ``phase(name)`` — batch
seeding, the shortcut sweep, the label sweep (label seeding inside) —
as do the structural and flush steps. When nobody is collecting, the mark is a
dict-free truthiness check returning a shared no-op context manager, so
the update path stays uninstrumented-fast by default.

A caller that wants the breakdown installs a :class:`PhaseCollector`
with ``collect_phases()``; every ``phase()`` that fires while it is
installed adds its wall seconds to the collector. Collectors nest (an
outer bench collector and an inner per-batch ``MaintenanceStats``
collector both see the same phases) and are thread-safe, though no
caller in the package adds to one from more than one thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "phase",
    "phase_laps",
    "PhaseCollector",
    "PhaseLaps",
    "collect_phases",
    "phases_active",
]

# Globally-installed collectors. Appends/removes happen in collect_phases();
# the list is read on every phase() call, so keep it a plain module global.
_collectors: list["PhaseCollector"] = []


class PhaseCollector:
    """Accumulates ``{phase name: total wall seconds}`` and hit counts."""

    __slots__ = ("seconds", "counts", "_lock")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, name: str, dt: float) -> None:
        with self._lock:
            seconds = self.seconds
            if name in seconds:
                seconds[name] += dt
                self.counts[name] += 1
            else:
                seconds[name] = dt
                self.counts[name] = 1

    def add_laps(self, laps: list[tuple[str, float]]) -> None:
        with self._lock:
            seconds, counts = self.seconds, self.counts
            for name, dt in laps:
                if name in seconds:
                    seconds[name] += dt
                    counts[name] += 1
                else:
                    seconds[name] = dt
                    counts[name] = 1

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self.seconds)


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        pass


_NULL_PHASE = _NullPhase()


class _PhaseCM:
    __slots__ = ("_name", "_start")

    def __init__(self, name: str):
        self._name = name
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = perf_counter() - self._start
        # Snapshot the list: a collector uninstalled mid-phase still
        # receives the measurement it was present for.
        for collector in tuple(_collectors):
            collector.add(self._name, dt)


def phase(name: str):
    """Time one kernel phase iteration, if any collector is installed."""
    if not _collectors:
        return _NULL_PHASE
    return _PhaseCM(name)


class PhaseLaps:
    """Back-to-back phases on one clock: :meth:`lap` ends the running
    phase under *name* and starts the next, one clock read per boundary;
    :meth:`close` hands all of them to the collectors at once. For a loop
    whose phases follow each other with nothing in between, where a
    ``phase()`` per step would cost as much as a short step. Each lap
    counts as one ``phase()`` of its name."""

    __slots__ = ("_last", "_laps")

    def __init__(self) -> None:
        self._laps: list[tuple[str, float]] = []
        self._last = perf_counter()

    def restart(self) -> None:
        """Start the next phase now (what ran since the last lap is
        nobody's)."""
        self._last = perf_counter()

    def lap(self, name: str) -> None:
        now = perf_counter()
        self._laps.append((name, now - self._last))
        self._last = now

    def close(self) -> None:
        for collector in tuple(_collectors):
            collector.add_laps(self._laps)
        self._laps = []


class _NullLaps:
    __slots__ = ()

    def restart(self) -> None:
        pass

    def lap(self, name: str) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_LAPS = _NullLaps()


def phase_laps() -> PhaseLaps | _NullLaps:
    """A :class:`PhaseLaps`, or a no-op one when nobody is collecting."""
    return PhaseLaps() if _collectors else _NULL_LAPS


def phases_active() -> bool:
    """True when at least one collector is installed."""
    return bool(_collectors)


@contextmanager
def collect_phases():
    """Install a fresh :class:`PhaseCollector` for the enclosed block."""
    collector = PhaseCollector()
    _collectors.append(collector)
    try:
        yield collector
    finally:
        _collectors.remove(collector)
