"""Pipelined client for the live service's wire protocol.

One :class:`PipelinedConnection` carries many in-flight transactions: a
reader task matches each response to its request (BEGIN by the client
reference it echoes, every other operation by transaction id; a
transaction has at most one request outstanding).  :func:`open_loop` and
:func:`closed_loop` drive transactions over a set of connections and
record, per transaction, its due time, each round trip and the outcome.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.live import protocol
from repro.workload.generator import AckedUpdate
from repro.workload.oids import OidChooser

UPDATES_PER_TX = 2
UPDATE_BYTES = 100


class ConnectionLost(Exception):
    """The server closed the connection with requests outstanding."""


class PipelinedConnection:
    """Many concurrent transactions multiplexed over one connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.protocol_errors = 0
        self._loop = asyncio.get_running_loop()
        self._refs = itertools.count(1)
        self._begins: Dict[int, asyncio.Future] = {}
        self._ops: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "PipelinedConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                body = await protocol.read_frame(self.reader)
                if body is None:
                    break
                response = protocol.decode_response(body)
                waiters = self._begins if response[0] == protocol.OP_BEGIN else self._ops
                future = waiters.pop(response[2], None)
                if future is None:
                    raise protocol.ProtocolError(f"unmatched response {response!r}")
                if not future.done():
                    future.set_result((response, self._loop.time()))
        except protocol.ProtocolError:
            self.protocol_errors += 1
        except (ConnectionError, OSError):
            pass
        finally:
            self._closed = True
            for waiters in (self._begins, self._ops):
                for future in waiters.values():
                    if not future.done():
                        future.set_exception(ConnectionLost())
                waiters.clear()

    async def _send(self, waiters: Dict[int, asyncio.Future], key: int,
                    request: bytes) -> Tuple[tuple, float]:
        if self._closed or self.writer.is_closing():
            raise ConnectionLost()
        future = self._loop.create_future()
        waiters[key] = future
        protocol.write_frame(self.writer, request)
        try:
            await self.writer.drain()
        except (ConnectionError, OSError) as exc:
            waiters.pop(key, None)
            raise ConnectionLost() from exc
        return await future

    async def begin(self) -> Tuple[tuple, float]:
        """BEGIN; returns the decoded response and its arrival time."""
        ref = next(self._refs) & 0xFFFF_FFFF
        return await self._send(self._begins, ref, protocol.encode_begin(ref))

    async def request(self, tid: int, request: bytes) -> Tuple[tuple, float]:
        """UPDATE, COMMIT or ABORT for ``tid``."""
        return await self._send(self._ops, tid, request)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reader_task


@dataclass
class TxRecord:
    """What the client saw of one transaction (times are loop times)."""

    due: float
    tid: Optional[int] = None
    started: float = 0.0
    begin_rtt: Optional[float] = None
    update_rtts: List[float] = field(default_factory=list)
    commit_wait: Optional[float] = None
    done: Optional[float] = None
    #: "ok", or the protocol status name of the failing response, or "lost".
    outcome: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class TrafficSource:
    """Seeded inputs shared by every caller: oids and unique values."""

    def __init__(self, seed: int, num_objects: int = 1_000_000):
        # Exclusivity holds globally: no two in-flight transactions of
        # any connection update the same oid.
        self.chooser = OidChooser(num_objects, random.Random(seed))
        self._values = itertools.count(1)
        self.acked: List[AckedUpdate] = []

    def next_value(self) -> int:
        return next(self._values)


async def run_transaction(conn: PipelinedConnection, source: TrafficSource,
                          record: TxRecord) -> None:
    """BEGIN, two 100-byte UPDATEs, COMMIT; fills in ``record``."""
    loop = asyncio.get_running_loop()
    record.started = loop.time()
    oids: List[int] = []
    try:
        sent = loop.time()
        (_, status, _, tid), arrived = await conn.begin()
        record.begin_rtt = arrived - sent
        record.tid = tid
        if status != protocol.STATUS_OK:
            record.outcome = protocol.STATUS_NAMES[status]
            return
        updates = []
        for _ in range(UPDATES_PER_TX):
            oid = source.chooser.acquire()
            oids.append(oid)
            value = source.next_value()
            sent = loop.time()
            (_, status, _, lsn, timestamp), arrived = await conn.request(
                tid, protocol.encode_update(tid, oid, value, UPDATE_BYTES)
            )
            record.update_rtts.append(arrived - sent)
            if status != protocol.STATUS_OK:
                record.outcome = protocol.STATUS_NAMES[status]
                return
            updates.append(AckedUpdate(oid, value, timestamp, lsn, 0.0))
        sent = loop.time()
        (_, status, _, ack_time), arrived = await conn.request(
            tid, protocol.encode_commit(tid)
        )
        record.commit_wait = arrived - sent
        if status != protocol.STATUS_OK:
            record.outcome = protocol.STATUS_NAMES[status]
            return
        record.done = arrived
        record.outcome = "ok"
        source.acked.extend(u._replace(ack_time=ack_time) for u in updates)
    except ConnectionLost:
        record.outcome = "lost"
    finally:
        source.chooser.release_all(oids)


def poisson_schedule(seed: int, rate: float, start: float, end: float) -> Iterator[float]:
    """Seeded Poisson arrival times in ``[start, end)``."""
    rng = random.Random(f"arrivals-{seed}")
    due = start + rng.expovariate(rate)
    while due < end:
        yield due
        due += rng.expovariate(rate)


async def open_loop(conns: List[PipelinedConnection], source: TrafficSource,
                    schedule: Iterable[float], stop: asyncio.Event,
                    records: List[TxRecord]) -> None:
    """Start one transaction at each due time, whatever is still in flight.

    Connections are used round-robin; ``records`` grows as transactions
    start.  Returns once ``stop`` is set and every started transaction
    has finished.
    """
    loop = asyncio.get_running_loop()
    tasks = []
    for index, due in enumerate(schedule):
        delay = due - loop.time()
        if delay > 0:
            try:
                await asyncio.wait_for(stop.wait(), delay)
            except asyncio.TimeoutError:
                pass
        if stop.is_set():
            break
        record = TxRecord(due=due)
        records.append(record)
        tasks.append(asyncio.ensure_future(
            run_transaction(conns[index % len(conns)], source, record)
        ))
    await asyncio.gather(*tasks)


async def closed_loop(conns: List[PipelinedConnection], source: TrafficSource,
                      callers: int, stop: asyncio.Event,
                      records: List[TxRecord]) -> None:
    """``callers`` loops, each issuing its next transaction on completion."""
    loop = asyncio.get_running_loop()

    async def caller(conn: PipelinedConnection) -> None:
        while not stop.is_set():
            record = TxRecord(due=loop.time())
            records.append(record)
            await run_transaction(conn, source, record)
            if record.outcome == "lost":
                return

    await asyncio.gather(*(caller(conns[i % len(conns)]) for i in range(callers)))
