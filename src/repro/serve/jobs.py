"""Job and batch bookkeeping for the simulation service.

A :class:`Job` is one (workload, config) pair moving through the
lifecycle ``queued -> running -> done`` (or ``failed``), or born
terminal as ``cached`` when the result cache already held its key.  The
:class:`JobStore` owns every job, maintains the key index used for
in-flight coalescing, and publishes every state transition as a
monotonically numbered event — the polling and server-sent-events
endpoints both read from the same ring buffer, so a client can resume a
dropped stream with ``?since=<seq>``.

Everything here runs on the server's event loop; no locking is needed
because jobs are only mutated from scheduler coroutines.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

from ..sim.result import SimResult

#: The job lifecycle.  ``cached``/``done``/``failed`` are terminal;
#: ``cached`` means the result was served without a simulation.
JOB_STATES = ("queued", "running", "cached", "done", "failed")

#: States in which a job can still absorb coalesced submissions.
ACTIVE_STATES = ("queued", "running")


@dataclass
class Job:
    """One (workload, config) pair tracked by the server."""

    id: str
    key: str
    workload_name: str
    config_name: str
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Submissions this job served (1 + coalesced duplicates).
    clients: int = 1
    #: Simulation wall seconds (0 for cached/failed jobs).
    sim_seconds: float = 0.0
    #: Failure payload: ``{"kind": ..., "error": ...}`` when failed.
    error: Optional[Dict[str, str]] = None
    result: Optional[SimResult] = None

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.state in ("cached", "done", "failed")

    def to_wire(self, include_result: bool = False) -> Dict[str, object]:
        """JSON-safe view of this job for status responses."""
        payload: Dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "workload": self.workload_name,
            "config": self.config_name,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "clients": self.clients,
            "sim_seconds": self.sim_seconds,
            "error": self.error,
        }
        if include_result:
            payload["result"] = None if self.result is None else self.result.to_dict()
        return payload


@dataclass
class Batch:
    """One multi-pair submission, preserving slot order.

    ``slots`` pairs each submitted position with the job that serves it
    and how the job was obtained: ``"queued"`` (this batch caused the
    simulation), ``"coalesced"`` (attached to a job already in flight),
    or ``"cached"`` (served straight from the result cache).
    """

    id: str
    slots: List[tuple] = field(default_factory=list)
    created_at: float = 0.0

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe summary of the batch submission."""
        by_how: Dict[str, int] = {"queued": 0, "coalesced": 0, "cached": 0}
        for _, how in self.slots:
            by_how[how] = by_how.get(how, 0) + 1
        return {
            "id": self.id,
            "total": len(self.slots),
            "jobs": [job_id for job_id, _ in self.slots],
            "queued": by_how["queued"],
            "coalesced": by_how["coalesced"],
            "cached": by_how["cached"],
            "created_at": self.created_at,
        }


class JobStore:
    """Owns every job and batch; publishes state-transition events."""

    def __init__(self, history: int = 4096) -> None:
        self._jobs: Dict[str, Job] = {}
        self._batches: Dict[str, Batch] = {}
        self._active_by_key: Dict[str, str] = {}
        self._events: Deque[Dict[str, object]] = deque(maxlen=history)
        self._seq = 0
        self._counter = 0
        self._batch_counter = 0
        self._subscribers: Set[asyncio.Queue] = set()

    # ------------------------------------------------------------------
    # creation and lookup
    # ------------------------------------------------------------------

    def create(
        self,
        key: str,
        workload_name: str,
        config_name: str,
        state: str = "queued",
        result: Optional[SimResult] = None,
    ) -> Job:
        """Create (and index) a new job in ``state``."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        self._counter += 1
        job = Job(
            id=f"j{self._counter:06d}",
            key=key,
            workload_name=workload_name,
            config_name=config_name,
            state=state,
            submitted_at=time.time(),
            result=result,
        )
        if job.terminal:
            job.finished_at = job.submitted_at
        self._jobs[job.id] = job
        if state in ACTIVE_STATES:
            self._active_by_key[key] = job.id
        self._emit(job)
        return job

    def create_batch(self, slots: List[tuple]) -> Batch:
        """Create a batch over already-created jobs (slot order kept)."""
        self._batch_counter += 1
        batch = Batch(id=f"b{self._batch_counter:06d}", slots=slots, created_at=time.time())
        self._batches[batch.id] = batch
        return batch

    def get(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or None."""
        return self._jobs.get(job_id)

    def get_batch(self, batch_id: str) -> Optional[Batch]:
        """The batch with ``batch_id``, or None."""
        return self._batches.get(batch_id)

    def active_for_key(self, key: str) -> Optional[Job]:
        """The in-flight (queued/running) job for ``key``, if any."""
        job_id = self._active_by_key.get(key)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        if job.state not in ACTIVE_STATES:  # pragma: no cover - defensive
            self._active_by_key.pop(key, None)
            return None
        return job

    # ------------------------------------------------------------------
    # transitions and events
    # ------------------------------------------------------------------

    def transition(
        self,
        job: Job,
        state: str,
        error: Optional[Dict[str, str]] = None,
        result: Optional[SimResult] = None,
        sim_seconds: Optional[float] = None,
    ) -> None:
        """Move ``job`` to ``state``, stamping times and emitting an event."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        job.state = state
        now = time.time()
        if state == "running":
            job.started_at = now
        if error is not None:
            job.error = dict(error)
        if result is not None:
            job.result = result
        if sim_seconds is not None:
            job.sim_seconds = sim_seconds
        if job.terminal:
            job.finished_at = now
            if self._active_by_key.get(job.key) == job.id:
                self._active_by_key.pop(job.key, None)
        self._emit(job)

    def _emit(self, job: Job) -> None:
        """Append a transition event and wake every subscriber."""
        self._seq += 1
        event = {
            "seq": self._seq,
            "job": job.id,
            "key": job.key,
            "workload": job.workload_name,
            "config": job.config_name,
            "state": job.state,
            "error": job.error,
        }
        self._events.append(event)
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    def subscribe(self) -> asyncio.Queue:
        """Register a live event queue (see :meth:`unsubscribe`)."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Drop a queue registered with :meth:`subscribe`."""
        self._subscribers.discard(queue)

    def end_streams(self) -> None:
        """Queue ``None`` to every subscriber: its stream is over."""
        for queue in list(self._subscribers):
            queue.put_nowait(None)

    def events_since(self, seq: int) -> List[Dict[str, object]]:
        """Buffered events with sequence numbers greater than ``seq``."""
        return [event for event in self._events if int(event["seq"]) > seq]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent event."""
        return self._seq

    def counts(self) -> Dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        tally = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            tally[job.state] += 1
        return tally

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of the whole store (the drain artifact)."""
        return {
            "jobs": [job.to_wire() for job in self._jobs.values()],
            "batches": [batch.to_wire() for batch in self._batches.values()],
            "counts": self.counts(),
            "last_seq": self._seq,
        }
