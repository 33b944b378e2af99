"""The output checks fail on a wrong digest or a lost acknowledged update."""

import asyncio

from perfbench import live, simpaper
from perfbench.client import PipelinedConnection, TrafficSource, TxRecord, run_transaction
from repro.live.server import LiveServer


def _sim_runs(repeats=2):
    return {
        technique: [{
            "failed": None, "killed": 0, "digest": "a" * 64,
            "bandwidth_wps": simpaper.PAPER_SEED0_WPS[technique],
        } for _ in range(repeats)]
        for technique in ("el", "fw")
    }


DIGESTS = {"0": {"el": "a" * 64, "fw": "a" * 64}}


def test_digest_check_accepts_matching_and_rejects_wrong():
    runs = _sim_runs()
    assert simpaper.check_outputs(0, runs, DIGESTS) == []
    for result in runs["fw"]:
        result["digest"] = "b" * 64
    problems = simpaper.check_outputs(0, runs, DIGESTS)
    assert len(problems) == 1 and "fw" in problems[0]


def test_repeats_that_disagree_fail_even_without_digests():
    runs = _sim_runs()
    runs["el"][1]["digest"] = "c" * 64
    assert any("repeats" in p for p in simpaper.check_outputs(0, runs, None))


def test_seed0_must_match_the_paper_and_kill_nothing():
    runs = _sim_runs()
    runs["el"][0]["bandwidth_wps"] = 12.9
    assert any("paper" in p for p in simpaper.check_outputs(0, runs, DIGESTS))
    runs = _sim_runs()
    runs["fw"][0]["killed"] = 2
    assert any("killed" in p for p in simpaper.check_outputs(0, runs, DIGESTS))


def test_unrecorded_seed_fails():
    assert simpaper.check_outputs(12345, _sim_runs(), {})


def test_failed_run_fails_even_without_digests():
    runs = _sim_runs()
    runs["el"][0]["failed"] = "log full"
    assert simpaper.check_outputs(5, runs, None)


def test_recorded_digest_of_seed0_is_present():
    digests = simpaper.load_digests()
    assert set(digests["0"]) == {"el", "fw"}


def _committed_log(tmp_path):
    async def scenario():
        server = LiveServer(tmp_path / "log")
        task = asyncio.ensure_future(server.run())
        while server._server is None:
            await asyncio.sleep(0.01)
        conn = await PipelinedConnection.open("127.0.0.1", server.port)
        source = TrafficSource(seed=9)
        loop = asyncio.get_running_loop()
        records = [TxRecord(due=loop.time()) for _ in range(10)]
        await asyncio.gather(*(run_transaction(conn, source, r) for r in records))
        await conn.close()
        await server.stop()
        await task
        return records, source.acked

    return asyncio.run(scenario())


def test_audit_passes_then_fails_on_a_dropped_acked_update(tmp_path):
    records, acked = _committed_log(tmp_path)
    log_dir = tmp_path / "log"
    audit = live.restart(log_dir, acked)
    assert audit["lost"] == 0 and audit["phantoms"] == 0
    assert live.check_run(0, records, audit) == []

    # Drop one acknowledged update from the files: the audit must see it.
    dropped = acked[0]
    kept = [u for u in acked if u.oid != dropped.oid]
    ghost = dropped._replace(value=10**9, timestamp=dropped.timestamp + 1e6,
                             lsn=dropped.lsn + 10**6)
    audit = live.restart(log_dir, kept + [ghost])
    assert audit["lost"] == 1
    assert any("lost 1" in p for p in live.check_run(0, records, audit))


def test_protocol_errors_and_failed_transactions_fail_the_run():
    audit = {"lost": 0, "phantoms": 0}
    ok = TxRecord(due=0.0)
    ok.outcome = "ok"
    assert live.check_run(1, [ok], audit)
    failed = TxRecord(due=0.0)
    failed.outcome = "killed"
    assert live.check_run(0, [ok, failed], audit)
