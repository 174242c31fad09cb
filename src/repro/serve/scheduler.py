"""Multi-tenant fair-share queueing for the campaign server.

A single FIFO lets one client's 10,000-point campaign starve every
other tenant's single run behind it.  The :class:`FairScheduler` keeps
one FIFO *per tenant* and serves tenants round-robin: successive takes
cycle through the tenants that have work, one item from each, so a
tenant's expected wait scales with the number of *tenants* ahead of it,
not the number of *items*.  Within a tenant, submission order is
preserved.

The scheduler is the synchronization point between connection handler
threads (producers) and the server's dispatch threads (consumers, one
per worker): ``take`` blocks on a condition variable and wakes on submit
or close.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = ["FairScheduler"]


class FairScheduler:
    """Per-tenant FIFOs drained round-robin; thread-safe; closeable."""

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[Any]] = {}
        #: Tenants with pending work, in service order: the head is
        #: served next, then rotated to the tail.
        self._rotation: Deque[str] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self.submitted = 0
        self.served = 0

    def submit(self, tenant: str, item: Any) -> None:
        with self._cv:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                self._rotation.append(tenant)
            queue.append(item)
            self.submitted += 1
            self._cv.notify()

    def take(self, timeout: Optional[float] = None
             ) -> Optional[Tuple[str, Any]]:
        """The next ``(tenant, item)``, round-robin across tenants.
        Blocks until work arrives, the timeout lapses (→ None), or the
        scheduler closes (→ None)."""
        with self._cv:
            if not self._rotation:
                self._cv.wait_for(
                    lambda: self._rotation or self._closed,
                    timeout=timeout)
            if not self._rotation:
                return None
            tenant = self._rotation.popleft()
            queue = self._queues[tenant]
            item = queue.popleft()
            self.served += 1
            if queue:
                self._rotation.append(tenant)
            return tenant, item

    def pending(self) -> int:
        with self._cv:
            return sum(len(queue) for queue in self._queues.values())

    def pending_by_tenant(self) -> Dict[str, int]:
        with self._cv:
            return {tenant: len(queue)
                    for tenant, queue in self._queues.items() if queue}

    def close(self) -> None:
        """Wake every blocked consumer; further submits raise."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
