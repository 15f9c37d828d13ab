"""The fabric's message schema, over :mod:`repro.rpc` frames.

The wire format itself — 4-byte big-endian length + one UTF-8 JSON
object, :data:`MAX_FRAME_BYTES` cap — lives in :mod:`repro.rpc`; its
names are re-exported here.  Requests and responses are plain dicts::

    {"op": "claim", "token": "…", "worker": "w0", ...}   # request
    {"ok": true,  "value": {...}, "token": "…"}          # response
    {"ok": false, "error": "…", "kind": "JobError", "token": "…"}

``token`` is the caller's idempotency token, minted once per *logical*
operation and reused verbatim across retries; the server echoes it so a
client that timed out and retried can discard any stale response still
in flight on an old connection.  Resends carry ``retry: true``; every
response carries the coordinator's ``server_wall`` clock.
"""

from repro.rpc import (  # noqa: F401
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    new_token,
    recv_frame,
    send_frame,
)
