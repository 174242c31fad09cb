"""Thin client for the campaign server, which existing harnesses can
go through unchanged.

:class:`ServeClient` speaks the line-JSON protocol directly (one
connection per call; ``submit`` holds its connection open to stream
results).  It reaches the server's store only through ``submit``, and
it is itself a campaign dispatcher: :meth:`ServeClient.execute` sends a
:class:`~repro.eval.campaign.CampaignRunner`'s whole task list as one
submission (``CampaignRunner(dispatcher=client)``, the ``campaign
--via-store`` path), so the server answers warm runs from its store and
queues the rest.

The campaign's accounting stays honest: hits arrive as
:class:`~repro.eval.resilient.TaskResult` objects flagged ``stored``,
failures carry the server's error taxonomy.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..eval.campaign import RunSpec
from ..eval.resilient import SIM_ERROR, TaskResult
from ..runtime import SimResult
from ..store.digest import run_digest
from .codec import encode_run
from .protocol import ServeError, connect, recv_message, send_message

__all__ = ["ServeClient", "wait_until_up"]


class ServeClient:
    """One server address, dialed per call.  Safe to share across
    threads — every call uses its own connection."""

    def __init__(self, address: str, timeout: float = 300.0,
                 tenant: str = "default") -> None:
        self.address = address
        self.timeout = timeout
        self.tenant = tenant

    # -- plumbing -------------------------------------------------------
    def _request(self, message: dict) -> dict:
        sock = connect(self.address, timeout=self.timeout)
        try:
            send_message(sock, message)
            reader = sock.makefile("r")
            response = recv_message(reader)
        finally:
            sock.close()
        return self._checked(response)

    @staticmethod
    def _checked(response: Optional[dict]) -> dict:
        if response is None:
            raise ServeError("server closed the connection")
        if not response.get("ok", False):
            raise ServeError(response.get("error", "server error"))
        return response

    # -- simple ops -----------------------------------------------------
    def ping(self) -> dict:
        return self._request({"op": "ping"})

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def shutdown(self) -> dict:
        return self._request({"op": "shutdown"})

    # -- submission -----------------------------------------------------
    def submit(self, runs: Sequence[RunSpec],
               tenant: Optional[str] = None,
               wait: bool = True) -> Dict[str, dict]:
        """Submit runs; with ``wait`` (default), block until every one
        is served and return ``{digest: line}`` where each line carries
        ``result`` (a SimResult dict) or ``error``/``error_kind``.

        ``wait=False`` fire-and-forgets and returns the acceptance
        summary under the reserved key ``""``.
        """
        message = {"op": "submit",
                   "runs": [encode_run(run) for run in runs],
                   "tenant": tenant if tenant is not None
                   else self.tenant,
                   "wait": wait}
        sock = connect(self.address, timeout=self.timeout)
        served: Dict[str, dict] = {}
        try:
            send_message(sock, message)
            reader = sock.makefile("r")
            header = self._checked(recv_message(reader))
            if not wait:
                return {"": header}
            while True:
                line = recv_message(reader)
                if line is None:
                    raise ServeError(
                        "server closed the stream mid-submission")
                if line.get("error") and "digest" not in line:
                    raise ServeError(line["error"])
                if line.get("done"):
                    break
                served[line["digest"]] = line
        finally:
            sock.close()
        return served

    def subscribe(self, kinds: Optional[Sequence[str]] = None,
                  limit: Optional[int] = None,
                  timeout: Optional[float] = None) -> Iterator[dict]:
        """Subscribe to server events; returns an iterator over them.

        The handshake completes before this returns: every event the
        server emits afterwards reaches the iterator, which yields them
        as dicts until ``limit`` events arrive, the timeout lapses, or
        the server goes away.
        """
        sock = connect(self.address, timeout=timeout or self.timeout)
        try:
            send_message(sock, {"op": "subscribe",
                                "kinds": list(kinds) if kinds else None})
            reader = sock.makefile("r")
            self._checked(recv_message(reader))
        except BaseException:
            sock.close()
            raise
        return self._events(sock, reader, limit)

    def _events(self, sock, reader, limit: Optional[int]
                ) -> Iterator[dict]:
        try:
            count = 0
            while limit is None or count < limit:
                try:
                    line = recv_message(reader)
                except socket.timeout:
                    return
                if line is None:
                    return
                yield self._checked(line)["event"]
                count += 1
        finally:
            sock.close()

    # -- campaign dispatch ----------------------------------------------
    def execute(self, tasks: Sequence[Tuple[int, RunSpec]]
                ) -> List[TaskResult]:
        """``execute(tasks)`` for the ``dispatcher=`` argument of
        :class:`~repro.eval.campaign.CampaignRunner`: every task in one
        submission under this client's tenant.  Duplicate RunSpecs in it
        collapse onto one execution server-side."""
        served = self.submit([run for _, run in tasks])
        results: List[TaskResult] = []
        for index, run in tasks:
            line = served.get(run_digest(run)) \
                or {"error": "server returned no result for this run"}
            if line.get("error"):
                results.append(TaskResult(
                    index=index, error=line["error"],
                    error_kind=line.get("error_kind") or SIM_ERROR))
            else:
                results.append(TaskResult(
                    index=index,
                    result=SimResult.from_dict(line["result"]),
                    stored=bool(line.get("cached"))))
        return results


def wait_until_up(address: str, timeout_s: float = 10.0,
                  poll_s: float = 0.05) -> ServeClient:
    """Dial ``address`` until a ping answers (for freshly-spawned
    servers); raises :class:`ServeError` after ``timeout_s``."""
    client = ServeClient(address)
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            client.ping()
            return client
        except (OSError, ServeError):
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"no server answered at {address} within "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)
