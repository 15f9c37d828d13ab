"""Clients for the serve front — blocking and asyncio flavours.

:class:`ServeClient` is :class:`repro.rpc.Client` (per-attempt timeout,
deadline, reconnect with backoff, stale replies discarded by token)
plus one helper method per serve op; the CLI and tests use it.
:class:`AsyncServeClient` speaks the same frames on asyncio streams —
the load generator drives many of them concurrently from one event
loop — with no retry: any transport error or timeout closes the
connection, so a late reply can never answer a later request.

Either way a reply's sample arrays arrive as read-only float64
``memoryview`` objects over the received frame, never as lists: index
or iterate them as they are, or ``np.asarray`` one without a copy.
"""

from __future__ import annotations

import asyncio

from repro.rpc import (
    Client,
    ProtocolError,
    RpcError,
    new_token,
    parse_address,
    read_frame_async,
    write_frame_async,
)


class ServeError(RpcError):
    """The server answered ``ok: false``."""


def _checked(resp: dict) -> dict:
    if not resp.get("ok", False):
        raise ServeError(resp.get("error", "request failed"))
    return resp


class ServeClient(Client):
    """Blocking client: ``ServeClient("127.0.0.1:7777").query(2.5)``.

    ``timeout`` bounds one attempt and the whole request alike: a slow
    answer is not re-asked, only a dead connection is re-dialled.  An
    unreachable server raises :class:`repro.rpc.Unreachable`.
    """

    def __init__(self, address, *, timeout: float = 10.0):
        super().__init__(address, rpc_timeout=timeout, deadline=timeout)

    def request(self, req: dict, *, deadline: float | None = None) -> dict:
        """One framed round trip, the reply returned as is."""
        return super().request({"token": new_token(), **req},
                               deadline=deadline)

    def _call(self, req: dict) -> dict:
        return _checked(self.request(req))

    def ping(self) -> dict:
        return self._call({"op": "ping"})

    def query(self, mass_ratio: float, **fields) -> dict:
        """Query a waveform; see the front's ``query`` op for fields
        (detector, f_lo/f_hi, total_mass_msun, distance_mpc,
        max_samples, radius, resolution, max_mismatch)."""
        return self._call({"op": "query", "mass_ratio": float(mass_ratio),
                           **fields})

    def ticket(self, ticket_id: str) -> dict:
        return self._call({"op": "ticket", "id": ticket_id})

    def ingest(self) -> dict:
        return self._call({"op": "ingest"})

    def stats(self) -> dict:
        return self._call({"op": "stats"})

    def shutdown(self) -> dict:
        return self._call({"op": "shutdown"})


class AsyncServeClient:
    """Asyncio client over one connection (load-generator worker)."""

    def __init__(self, address, *, timeout: float = 10.0):
        self.host, self.port = parse_address(address)
        self.timeout = float(timeout)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._reader, self._writer = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _round_trip(self, req: dict) -> dict:
        await write_frame_async(self._writer, req)
        while True:
            resp = await read_frame_async(self._reader)
            if resp is None:
                raise ConnectionError("server closed the connection")
            if resp.get("token") == req["token"]:
                return resp

    async def request(self, req: dict) -> dict:
        """One framed round trip within ``timeout``.  Any failure closes
        the connection (the next request re-dials), and a reply whose
        echoed token is not this request's is discarded."""
        await self.connect()
        try:
            return await asyncio.wait_for(
                self._round_trip({"token": new_token(), **req}),
                self.timeout)
        except (OSError, ProtocolError, asyncio.TimeoutError):
            await self.close()
            raise

    async def query(self, mass_ratio: float, **fields) -> dict:
        return _checked(await self.request({"op": "query",
                                            "mass_ratio": float(mass_ratio),
                                            **fields}))
