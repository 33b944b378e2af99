"""The pipelined client against an in-process live server."""

import asyncio
import time

from perfbench.client import (
    PipelinedConnection, TrafficSource, TxRecord, open_loop, run_transaction,
)
from repro.live.server import LiveServer
from repro.live.storage import read_log_directory
from repro.records.base import RecordKind


async def _serve(log_dir):
    server = LiveServer(log_dir)
    task = asyncio.ensure_future(server.run())
    while server._server is None:
        await asyncio.sleep(0.01)
    return server, task


def test_pipelined_transactions_match_their_responses(tmp_path):
    async def scenario():
        server, task = await _serve(tmp_path / "log")
        conn = await PipelinedConnection.open("127.0.0.1", server.port)
        source = TrafficSource(seed=3)
        loop = asyncio.get_running_loop()
        records = [TxRecord(due=loop.time()) for _ in range(24)]
        await asyncio.wait_for(
            asyncio.gather(*(run_transaction(conn, source, r) for r in records)),
            timeout=30,
        )
        await conn.close()
        await server.stop()
        await task
        return records, source, conn

    records, source, conn = asyncio.run(scenario())
    assert conn.protocol_errors == 0
    assert [r.outcome for r in records] == ["ok"] * 24
    assert len({r.tid for r in records}) == 24
    # Every acknowledged update's LSN belongs, in the log, to the
    # transaction that received the acknowledgement.
    tid_of_lsn = {
        record.lsn: record.tid
        for image in read_log_directory(tmp_path / "log")
        for record in image.records
        if record.kind is RecordKind.DATA
    }
    assert len(source.acked) == 48
    by_value = {u.value: u for u in source.acked}
    for record in records:
        assert record.begin_rtt is not None and record.commit_wait is not None
        assert len(record.update_rtts) == 2
    lsn_owner = {tid_of_lsn[u.lsn] for u in source.acked}
    assert lsn_owner == {r.tid for r in records}
    assert len(by_value) == 48


def test_latency_counts_from_the_due_time_through_a_stall(tmp_path):
    stall = 0.3

    async def scenario():
        server, task = await _serve(tmp_path / "log")
        conns = [await PipelinedConnection.open("127.0.0.1", server.port)]
        source = TrafficSource(seed=5)
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05
        schedule = [t0 + 0.01 * i for i in range(10)]
        # Block the loop (and so the generator) right before the first
        # transaction is due.
        loop.call_at(t0 - 0.01, time.sleep, stall)
        records = []
        stop = asyncio.Event()
        await asyncio.wait_for(open_loop(conns, source, schedule, stop, records), 30)
        for conn in conns:
            await conn.close()
        await server.stop()
        await task
        return records, schedule

    records, schedule = asyncio.run(scenario())
    assert [r.due for r in records] == schedule
    assert all(r.outcome == "ok" for r in records)
    first = records[0]
    # The first transaction started late by most of the stall, and its
    # latency includes that lateness.
    assert first.started - first.due > stall - 0.05
    assert first.latency >= first.started - first.due
    # Later transactions were due inside the stall too.
    assert all(r.started - r.due > stall - 0.15 for r in records)
