"""Dynamic batching and admission control for the serve loop.

The batcher sits between the arrival process and the warm engine. It
holds the request queue, rejects arrivals when the queue is full
(backpressure), and decides *when* a batch launches and *which*
requests it contains:

- a batch launches when it is full (``max_batch_size``), when the
  oldest queued request has waited ``max_queue_delay`` simulated
  seconds, when the engine has a free batch slot and nothing is in
  flight (work conservation), or when no further arrivals are coming
  (tail drain);
- request order is FIFO (arrival order) or SJF (shortest estimated
  service time first; ties broken by arrival order so the schedule
  stays deterministic).

The batcher is pure policy — it never touches the engine. The serve
loop (:mod:`repro.serve.cluster`) keeps one batcher per instance and
asks it what to do at each decision instant, which keeps the policy
unit-testable without a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.requests import Request

#: Accepted queue-ordering policies.
ORDERS = ("fifo", "sjf")


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher.

    Attributes:
        max_batch_size: most requests admitted in one batch.
        max_queue_delay: oldest-request wait (simulated seconds) that
            forces a partial batch out; ``None`` disables the timer
            (batches then launch full, work-conserving, or at tail
            drain).
        order: ``"fifo"`` (arrival order) or ``"sjf"`` (shortest
            estimated service time first).
        max_queue_depth: arrivals beyond this queue depth are rejected
            (backpressure); ``None`` means an unbounded queue.
        max_inflight_batches: batches the engine may hold concurrently;
            1 models a strict batch server, higher values pipeline
            admission against in-flight work.
    """

    max_batch_size: int = 8
    max_queue_delay: float | None = None
    order: str = "fifo"
    max_queue_depth: int | None = None
    max_inflight_batches: int = 1

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_queue_delay is not None and self.max_queue_delay < 0:
            raise ParameterError(
                f"max_queue_delay must be >= 0, got {self.max_queue_delay}"
            )
        if self.order not in ORDERS:
            raise ParameterError(
                f"order must be one of {ORDERS}, got {self.order!r}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_inflight_batches < 1:
            raise ParameterError(
                "max_inflight_batches must be >= 1, got "
                f"{self.max_inflight_batches}"
            )


class DynamicBatcher:
    """The request queue plus the launch/ordering/backpressure policy."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self._queue: list["Request"] = []
        # Queue aggregates the router and the launch policy ask for on
        # every decision, recomputed only after the queue changes (a
        # fresh sum/min, never a running update, so the floats are
        # exactly those of a re-scan). ``None`` means stale.
        self._estimate: float | None = None
        self._oldest: float | None = None

    def _changed(self) -> None:
        """Invalidate the cached queue aggregates."""
        self._estimate = self._oldest = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        """Current queue depth."""
        return len(self._queue)

    def offer(self, request: "Request") -> bool:
        """Enqueue an arrival; ``False`` means rejected (queue full)."""
        bound = self.policy.max_queue_depth
        if bound is not None and len(self._queue) >= bound:
            return False
        self._queue.append(request)
        self._changed()
        return True

    def queued_estimate_seconds(self) -> float:
        """Summed service estimates of every queued request.

        The cluster router's shortest-expected-job and key-affinity
        policies use this (plus the inflight estimate the cluster
        tracks) as the instance's expected backlog.
        """
        if self._estimate is None:
            self._estimate = sum(r.service_estimate for r in self._queue)
        return self._estimate

    def queued_count_for(self, tenant: str) -> int:
        """How many queued requests belong to ``tenant``.

        Per-tenant fair admission (cluster ``max_tenant_share``) caps
        this count against the queue depth.
        """
        return sum(1 for r in self._queue if r.tenant == tenant)

    def oldest_arrival(self) -> float | None:
        """Arrival time of the longest-queued request, if any."""
        if not self._queue:
            return None
        if self._oldest is None:
            self._oldest = min(r.arrival_seconds for r in self._queue)
        return self._oldest

    def next_deadline(self) -> float | None:
        """When the queue-delay timer next forces a batch out."""
        if self.policy.max_queue_delay is None:
            return None
        oldest = self.oldest_arrival()
        if oldest is None:
            return None
        return oldest + self.policy.max_queue_delay

    def should_launch(
        self, now: float, inflight_batches: int, arrivals_pending: bool
    ) -> bool:
        """Whether a batch should launch at simulated time ``now``."""
        if not self._queue:
            return False
        if inflight_batches >= self.policy.max_inflight_batches:
            return False
        if len(self._queue) >= self.policy.max_batch_size:
            return True
        deadline = self.next_deadline()
        if deadline is not None and deadline <= now:
            return True
        if inflight_batches == 0:
            return True  # work conservation: never idle with work queued
        return not arrivals_pending  # tail drain

    def drain(self) -> list["Request"]:
        """Remove and return *every* queued request, in arrival order.

        The fault layer calls this when the instance crashes: queued
        requests are lost with the instance and re-enter the cluster's
        retry/abandon machinery.
        """
        lost = sorted(
            self._queue,
            key=lambda r: (r.arrival_seconds, r.request_id),
        )
        self._queue = []
        self._changed()
        return lost

    def expired(self, now: float) -> list["Request"]:
        """Remove and return queued requests whose deadline has passed.

        A request still queued at ``deadline_seconds <= now`` will
        never be served in time — the client has abandoned it, so it
        leaves the queue (freeing backpressure capacity) instead of
        wasting a batch slot.
        """
        out = [
            r for r in self._queue
            if r.deadline_seconds is not None
            and r.deadline_seconds <= now
        ]
        if out:
            gone = {r.request_id for r in out}
            self._queue = [
                r for r in self._queue if r.request_id not in gone
            ]
            self._changed()
            out.sort(
                key=lambda r: (r.arrival_seconds, r.request_id)
            )
        return out

    def next_expiry(self) -> float | None:
        """Earliest queued-request deadline, if any request has one."""
        deadlines = [
            r.deadline_seconds for r in self._queue
            if r.deadline_seconds is not None
        ]
        return min(deadlines) if deadlines else None

    def take_batch(self, now: float) -> list["Request"]:
        """Remove and return the next batch, in admission order."""
        if self.policy.order == "sjf":
            ordered = sorted(
                self._queue,
                key=lambda r: (r.service_estimate, r.arrival_seconds,
                               r.request_id),
            )
        else:
            ordered = sorted(
                self._queue,
                key=lambda r: (r.arrival_seconds, r.request_id),
            )
        batch = ordered[: self.policy.max_batch_size]
        taken = {r.request_id for r in batch}
        self._queue = [
            r for r in self._queue if r.request_id not in taken
        ]
        self._changed()
        return batch
