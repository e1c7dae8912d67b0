"""Priority job queue feeding the service's worker loop.

A small blocking priority queue specialised for :class:`~repro.service.job.Job`:
entries order by ``(priority, submission seq)`` — smaller priority first,
ties in FIFO order — so the pop order is a deterministic function of the
submission sequence.  Cancelled jobs are skipped lazily at pop time, and
:meth:`close` wakes every blocked worker with ``None`` so the pool can
drain and exit.

For backpressure the queue can be **bounded** (``max_depth``): the depth
that counts is :attr:`live_depth` — jobs still poppable — not the heap
length, so cancelled/shed entries awaiting their lazy skip never hold
space hostage.  A full queue makes :meth:`push` block (the service's
``block`` overload policy) until a pop or a :meth:`discard` frees a slot;
the ``reject``/``shed`` policies use :attr:`full`, :meth:`worst_queued`
and :meth:`steal` instead and never block.

Lazy skipping leaves **tombstones** in the heap (entries whose job was
stolen or discarded).  The queue compacts whenever tombstones outnumber
live entries — i.e. exceed half the heap: each compaction then costs
O(heap) but reclaims at least half of it, so the cost amortizes to O(1)
per discard and the heap's size stays within 2x the live job count even
under adversarial cancel/shed storms.
"""

from __future__ import annotations

import heapq
import threading
from typing import List, Optional, Set, Tuple

from repro.service.job import Job, JobState

__all__ = ["JobQueue"]


class JobQueue:
    """Blocking, closable, optionally bounded priority queue of jobs."""

    def __init__(self, max_depth: Optional[int] = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 (or None)")
        self.max_depth = max_depth
        self._heap: List[Tuple[int, int, Job]] = []
        #: Jobs that a pop may still return.  Membership here — not the
        #: heap — is the authoritative occupancy: :meth:`steal` and
        #: :meth:`discard` remove a job instantly while its heap entry
        #: lingers as a tombstone for the lazy skip.
        self._live: Set[Job] = set()
        self._cond = threading.Condition()
        self._closed = False

    # -- producing -----------------------------------------------------------

    def push(
        self, job: Job, timeout: Optional[float] = None, force: bool = False
    ) -> bool:
        """Enqueue *job*; False when a bounded queue stayed full past
        *timeout*.

        On a bounded queue the call blocks while :attr:`live_depth` is at
        ``max_depth`` (indefinitely with ``timeout=None``).  ``force``
        skips the bound — retries use it so a job the service already
        accepted can never be lost to a full queue.  Raises
        ``RuntimeError`` when the queue is (or gets) closed.
        """

        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self.max_depth is not None and not force:
                ok = self._cond.wait_for(
                    lambda: self._closed or self._depth() < self.max_depth,
                    timeout,
                )
                if self._closed:
                    raise RuntimeError("queue is closed")
                if not ok:
                    return False
            heapq.heappush(self._heap, (job.request.priority, job.seq, job))
            self._live.add(job)
            self._cond.notify()
            return True

    # -- consuming -----------------------------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next queued job; blocks while empty.

        Returns ``None`` when the queue is closed and drained, or when
        *timeout* elapses.  Jobs cancelled or stolen while waiting in the
        heap are discarded here, never returned.
        """

        with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    alive = job in self._live and job.state is JobState.QUEUED
                    self._live.discard(job)
                    # a slot opened either way — wake blocked pushers
                    self._cond.notify_all()
                    if alive:
                        return job
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    # -- occupancy -----------------------------------------------------------

    def _depth(self) -> int:
        """Poppable jobs (caller holds the condition)."""

        return sum(1 for job in self._live if job.state is JobState.QUEUED)

    @property
    def live_depth(self) -> int:
        with self._cond:
            return self._depth()

    @property
    def full(self) -> bool:
        if self.max_depth is None:
            return False
        with self._cond:
            return self._depth() >= self.max_depth

    def _compact(self) -> None:
        """Drop tombstones when they exceed half the heap (caller holds
        the condition).

        Every live job has exactly one heap entry (a requeued job is only
        re-pushed after its pop removed both), so the tombstone count is
        simply ``len(heap) - len(live)``.  The >half trigger amortizes:
        each rebuild is O(heap) but at least half the heap was garbage, so
        the cost is O(1) per discard and the heap never exceeds
        ``2 * live + 1`` entries.
        """

        tombstones = len(self._heap) - len(self._live)
        if tombstones * 2 > len(self._heap):
            self._heap = [entry for entry in self._heap if entry[2] in self._live]
            heapq.heapify(self._heap)

    def discard(self, job: Job) -> None:
        """Free *job*'s slot early (it was cancelled outside the queue)."""

        with self._cond:
            if job in self._live:
                self._live.discard(job)
                self._compact()
                self._cond.notify_all()

    def worst_queued(self) -> Optional[Job]:
        """The load-shedding victim candidate: lowest priority (largest
        number), then newest submission.  ``None`` when nothing is
        poppable."""

        with self._cond:
            queued = [j for j in self._live if j.state is JobState.QUEUED]
            if not queued:
                return None
            return max(queued, key=lambda j: (j.request.priority, j.seq))

    def steal(self, job: Job) -> bool:
        """Atomically claim *job* so no pop can return it; False when a
        worker (or another thief) got there first."""

        with self._cond:
            if job not in self._live or job.state is not JobState.QUEUED:
                return False
            self._live.discard(job)
            self._compact()
            self._cond.notify_all()
            return True

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Refuse new pushes and wake every blocked ``pop`` to drain."""

        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        """Jobs still heaped (cancelled-but-unpopped entries included)."""

        with self._cond:
            return len(self._heap)
