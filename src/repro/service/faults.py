"""Deterministic fault injection for the shard runtime.

Chaos testing that is reproducible in CI: a :class:`FaultPlan` is a
scriptable schedule of faults keyed by **which replica incarnation**
and **which request number** — no wall-clock, no randomness, no sleeps.
The plan is consulted at the parent-side transport seam (in the send
half, ``_ReplicaHandle.send``, before the frame is written), which is
exactly where a real network fault would surface to the scheduler, so
every recovery path — failover, breaker trip, shed, supervisor respawn,
resync — is exercised through its production code.

Actions
-------
``kill``
    SIGTERM the replica process (and reap it) before sending. The send
    hits a closed pipe, or still lands in the kernel buffer and the
    receive then hits EOF — the honest shape of "the replica died
    mid-request".
``timeout``
    Raise ``TimeoutError`` as if the request's deadline expired.
    The replica process itself stays up (a *slow* replica, not a dead
    one), but the parent abandons the channel — the supervisor
    replaces it with a fresh incarnation.
``drop``
    The request frame vanishes: raise
    :class:`~repro.exceptions.ProtocolTruncationError` without
    touching the channel.
``truncate``
    The reply arrives torn: same truncation error, same handling — a
    distinct action only so plans document *what* they simulate.
``stall_health``
    Like ``timeout`` but armed only for
    :class:`~repro.service.protocol.HealthCheck` probes, counted on
    the handle's separate health-probe clock — compute traffic passes
    untouched, so plans can test heartbeat-driven death specifically.

Events fire exactly once and are recorded in :attr:`FaultPlan.fired`
(in firing order) so tests can assert the scripted chaos actually
happened.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ProtocolTruncationError
from repro.service.protocol import HealthCheck

__all__ = ["FaultEvent", "FaultPlan", "ACTIONS"]

ACTIONS = ("kill", "timeout", "drop", "truncate", "stall_health")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``at_request`` is the 0-based request counter of the targeted
    ``(sid, replica, incarnation)`` — for ``stall_health`` it counts
    only health probes, for every other action all requests (health
    probes included). Incarnation 0 is the replica spawned at runtime
    construction; each supervised respawn increments it, so a plan can
    kill a replica *and then its replacement*.
    """

    sid: int
    replica: int
    at_request: int
    action: str
    incarnation: int = 0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; one of {ACTIONS}"
            )


class FaultPlan:
    """An ordered, deterministic schedule of :class:`FaultEvent`.

    Pass to the shard runtime (``fault_plan=...``); the runtime hands
    it to every replica handle (respawned incarnations included). Not
    thread-safe beyond the handle locks already serialising requests —
    each event targets exactly one handle, whose own lock is held when
    the plan is consulted.
    """

    def __init__(self, events: tuple = ()):
        self._pending: dict[tuple[int, int, int], list[FaultEvent]] = {}
        #: Events that fired, in firing order.
        self.fired: list[FaultEvent] = []
        for event in events:
            self.add(event)

    def add(self, event: FaultEvent) -> "FaultPlan":
        key = (event.sid, event.replica, event.incarnation)
        self._pending.setdefault(key, []).append(event)
        return self

    # -- convenience constructors ---------------------------------------
    def kill(self, sid, replica, *, at_request, incarnation=0):
        return self.add(FaultEvent(sid, replica, at_request, "kill", incarnation))

    def timeout(self, sid, replica, *, at_request, incarnation=0):
        return self.add(
            FaultEvent(sid, replica, at_request, "timeout", incarnation)
        )

    def drop(self, sid, replica, *, at_request, incarnation=0):
        return self.add(FaultEvent(sid, replica, at_request, "drop", incarnation))

    def truncate(self, sid, replica, *, at_request, incarnation=0):
        return self.add(
            FaultEvent(sid, replica, at_request, "truncate", incarnation)
        )

    def stall_health(self, sid, replica, *, at_request, incarnation=0):
        return self.add(
            FaultEvent(sid, replica, at_request, "stall_health", incarnation)
        )

    @property
    def exhausted(self) -> bool:
        """True once every scripted event has fired."""
        return not any(self._pending.values())

    # -- the transport seam ---------------------------------------------
    def apply(self, handle, message) -> None:
        """Advance the handle's fault clock; fire a due event if any.

        Called from the send half, ``_ReplicaHandle.send``, with the
        handle's lock held, *before* the frame is written; start-up and
        goodbye frames do not advance the clock. Raising here is
        indistinguishable from the same failure occurring on the wire —
        the handle marks itself dead and the scheduler fails over.
        """
        is_health = isinstance(message, HealthCheck)
        request_index = handle.requests
        health_index = handle.health_requests
        handle.requests += 1
        if is_health:
            handle.health_requests += 1
        key = (handle.sid, handle.replica, handle.incarnation)
        pending = self._pending.get(key)
        if not pending:
            return
        due = None
        for event in pending:
            if event.action == "stall_health":
                if is_health and event.at_request == health_index:
                    due = event
                    break
            elif event.at_request == request_index:
                due = event
                break
        if due is None:
            return
        pending.remove(due)
        self.fired.append(due)
        if due.action == "kill":
            handle.process.terminate()
            handle.process.join(10)
            # The send fails, or buffers and the receive hits EOF —
            # either way this request deterministically fails.
            return
        if due.action in ("timeout", "stall_health"):
            raise TimeoutError(
                f"injected {due.action} (shard {due.sid} replica "
                f"{due.replica} incarnation {due.incarnation} request "
                f"{due.at_request})"
            )
        if due.action == "drop":
            raise ProtocolTruncationError(
                f"injected drop: request frame to shard {due.sid} replica "
                f"{due.replica} vanished before the peer saw it"
            )
        raise ProtocolTruncationError(
            f"injected truncation: reply frame from shard {due.sid} "
            f"replica {due.replica} tore mid-stream"
        )

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        remaining = sum(len(v) for v in self._pending.values())
        return f"FaultPlan({remaining} pending, {len(self.fired)} fired)"
