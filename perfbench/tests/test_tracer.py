"""Self-time arithmetic of the span tracer."""

import threading

from perfbench.tracer import TimedOs, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0
        traced_leaf()

    def root():
        clock.now += 0.5
        traced_middle()
        clock.now += 0.25

    traced_leaf = tracer.wrap("c", "leaf", leaf)
    traced_middle = tracer.wrap("b", "middle", middle)
    tracer.wrap("a", "root", root)()

    # root: 0.5 + (1 + 2 + 3 + 2) + 0.25 = 8.75 in total, 0.75 of its own.
    assert tracer.self_seconds == {"a": 0.75, "b": 4.0, "c": 4.0}
    assert sum(tracer.self_seconds.values()) == 8.75
    assert tracer.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert tracer.layer_calls == {"a": 1, "b": 1, "c": 2}


def test_parent_ids_and_same_layer_nesting():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    traced_inner = tracer.wrap("x", "inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()

    tracer.wrap("x", "outer", outer)()
    spans = {name: (span_id, parent) for span_id, parent, _, name, *_ in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0]
    assert spans["outer"][1] == 0
    # Same layer nested in itself is not double counted.
    assert tracer.self_seconds["x"] == 2.0


def test_exception_still_closes_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    traced = tracer.wrap("e", "boom", boom)
    try:
        tracer.wrap("p", "parent", traced)()
    except ValueError:
        pass
    assert tracer.self_seconds == {"e": 1.0, "p": 0.0}


def test_kept_spans_are_capped_but_totals_are_not():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=3)

    def tick():
        clock.now += 1.0

    traced = tracer.wrap("t", "tick", tick)
    for _ in range(5):
        traced()
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2
    assert tracer.self_seconds["t"] == 5.0


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=5)

    traced = tracer.wrap("w", "work", work)
    threads = [threading.Thread(target=traced) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert all(parent == 0 for _, parent, *_ in tracer.spans)


def test_timed_os_only_times_listed_fds(tmp_path):
    import os

    tracer = Tracer()
    timed = TimedOs(tracer, os)
    fd_log = os.open(tmp_path / "log", os.O_RDWR | os.O_CREAT)
    fd_db = os.open(tmp_path / "db", os.O_RDWR | os.O_CREAT)
    try:
        timed.fds.add(fd_log)
        timed.pwrite(fd_log, b"x", 0)
        timed.fsync(fd_log)
        timed.pwrite(fd_db, b"y", 0)
        timed.fsync(fd_db)
    finally:
        os.close(fd_log)
        os.close(fd_db)
    assert tracer.calls == {"os.pwrite": 1, "os.fsync": 1}
