"""Always-on campaign serving (:mod:`repro.serve`).

``repro-gecko serve`` puts a :class:`~repro.store.ResultStore` behind a
long-running service: multiple concurrent clients submit single runs or
whole campaigns over a line-JSON protocol (unix socket or localhost
TCP), and ``submit`` is their only way into the store; warm-store hits
are answered immediately, misses flow through multi-tenant fair-share
queues to worker processes kept by the resilient executor, each fed by
its own dispatch thread, and live progress events stream to
subscribers.

See ``docs/serving.md`` for the store layout, wire protocol, and
scheduling policy.
"""

from __future__ import annotations

from .client import ServeClient, wait_until_up
from .codec import decode_run, encode_run
from .protocol import (
    PROTOCOL_VERSION,
    ServeError,
    connect,
    parse_address,
    recv_message,
    send_message,
    server_socket,
)
from .scheduler import FairScheduler
from .server import (
    SERVE_DONE,
    SERVE_ERROR,
    SERVE_HIT,
    SERVE_QUEUED,
    SERVE_STARTED,
    CampaignServer,
)

__all__ = [
    "CampaignServer",
    "FairScheduler",
    "PROTOCOL_VERSION",
    "SERVE_DONE",
    "SERVE_ERROR",
    "SERVE_HIT",
    "SERVE_QUEUED",
    "SERVE_STARTED",
    "ServeClient",
    "ServeError",
    "connect",
    "decode_run",
    "encode_run",
    "parse_address",
    "recv_message",
    "send_message",
    "server_socket",
    "wait_until_up",
]
