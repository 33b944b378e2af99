"""In-memory span tracer that wraps the program's layer entry points.

The program under test carries no tracing of its own for this benchmark,
so spans are recorded from outside: :func:`install` replaces selected
methods on the program's classes (before any instance exists) with
wrappers that time each call.  Every thread keeps its own span stack, so
a span's parent is the innermost wrapped call still open on that thread.

A layer's *self time* is the summed duration of its spans minus the time
their wrapped child spans cover; it is accumulated as each span closes,
so totals cover every call even when the kept span list is capped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

#: Spans kept in memory for the trace file; aggregates cover all of them.
DEFAULT_KEEP_SPANS = 200_000


class Tracer:
    """Records spans with parent ids and per-layer self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = DEFAULT_KEEP_SPANS):
        self.clock = clock
        self.keep = keep
        #: (span id, parent id or 0, layer, name, thread name, start, end)
        self.spans: List[Tuple[int, int, str, str, str, float, float]] = []
        self.dropped = 0
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Calls per wrapped function name and per layer.
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records one span of ``layer``."""
        tracer = self
        clock = self.clock
        ids = self._ids
        spans = self.spans
        self_seconds = self.self_seconds
        calls = self.calls
        layer_calls = self.layer_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # frame: [span id, time covered by child spans]
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_seconds[layer] += duration - frame[1]
                calls[name] += 1
                layer_calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < tracer.keep:
                    spans.append((frame[0], parent, layer, name,
                                  threading.current_thread().name, start, end))
                else:
                    tracer.dropped += 1

        traced.__wrapped_by_tracer__ = True
        return traced

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w") as out:
            for span_id, parent, layer, name, thread, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "thread": thread, "start": start, "end": end,
                }) + "\n")


#: (module, class or None for a module function, attribute, layer)
Target = Tuple[str, str, str, str]


def _targets(module: str, cls: str, names: Iterable[str], layer: str) -> List[Target]:
    return [(module, cls, name, layer) for name in names]


#: Layers shared by the simulator and the live server.
CORE_TARGETS: List[Target] = (
    _targets("repro.core.ephemeral", "EphemeralLogManager",
             ["begin", "log_update", "request_commit", "abort", "drain"],
             "core.manager")
    # Log-space management: the generation ring itself plus the manager's
    # head advancement, which forwards and recirculates records into it.
    + _targets("repro.core.generation", "Generation",
               ["append", "append_migrated", "seal_current", "free_head"],
               "core.generation")
    + _targets("repro.core.ephemeral", "EphemeralLogManager",
               ["_ensure_gap"], "core.generation")
    + _targets("repro.core.lot", "LoggedObjectTable",
               ["add_uncommitted", "promote_on_commit", "drop_uncommitted",
                "drop_committed", "prune"], "core.tables")
    + _targets("repro.core.ltt", "LoggedTransactionTable",
               ["begin", "remove", "oldest_live", "oldest_killable"],
               "core.tables")
    + _targets("repro.core.cells", "CellList",
               ["append_tail", "remove", "pop_head"], "core.tables")
    + _targets("repro.core.flushqueue", "FlushScheduler",
               ["submit", "cancel", "demand_flush", "backlog", "_kick",
                "_install"], "core.flushqueue")
)

SIM_TARGETS: List[Target] = (
    CORE_TARGETS
    + _targets("repro.sim.engine", "Simulator",
               ["run_until", "at", "after"], "sim.engine")
    + _targets("repro.workload.generator", "WorkloadGenerator",
               ["_arrive", "_initiate", "_write_update", "_request_commit",
                "_handle_ack", "_handle_kill"], "workload.generator")
    + _targets("repro.workload.oids", "OidChooser",
               ["acquire", "release_all"], "workload.generator")
    + _targets("repro.db.database", "StableDatabase", ["install"], "db.install")
)

LIVE_TARGETS: List[Target] = (
    CORE_TARGETS
    + _targets("repro.live.storage", "FileBackedDatabase", ["install"],
               "db.install")
    + _targets("repro.records.encoding", "RecordCodec",
               ["encode", "decode"], "records.codec")
    + _targets("repro.live.protocol", None,
               ["decode_request", "encode_begin_ok", "encode_update_ok",
                "encode_commit_ok", "encode_abort_ok", "write_frame"],
               "live.protocol")
    + _targets("repro.live.server", "LiveServer",
               ["_do_update", "_do_commit", "_do_abort", "_gate", "_finish",
                "_handle_kill", "_record_timestamp", "_arm_pacer",
                "_pacer_tick"], "live.server")
    + _targets("repro.live.clock", "RealTimeScheduler",
               ["at", "after", "post", "_fire", "_arm"], "live.clock")
    + _targets("repro.live.storage", None, ["encode_slot"],
               "live.storage.encode_slot")
    + _targets("repro.live.storage", "FileBackedDrive", ["_pump"],
               "live.storage.pump")
    # The event loop: one span per iteration, with the selector wait as
    # a child, so the loop thread's wall time is fully accounted for.
    + _targets("asyncio.base_events", "BaseEventLoop", ["_run_once"],
               "live.loop")
    + _targets("selectors", "EpollSelector", ["select"], "live.idle")
)


def install(tracer: Tracer, targets: Iterable[Target]) -> None:
    """Wrap every target in place.  Call before the program builds objects."""
    for module_name, cls_name, attr, layer in targets:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        original = owner.__dict__[attr] if cls_name else getattr(module, attr)
        if getattr(original, "__wrapped_by_tracer__", False):
            continue
        name = f"{cls_name or module_name}.{attr}"
        setattr(owner, attr, tracer.wrap(layer, name, original))


class TimedOs:
    """Stand-in for the ``os`` module that times pwrite and fsync.

    Only calls on the file descriptors in :attr:`fds` (the log drives) are
    recorded, so database installs, which also pwrite, are not counted as
    log writes.
    """

    def __init__(self, tracer: Tracer, real_os):
        self._os = real_os
        self.fds: set = set()
        self._pwrite = tracer.wrap("live.storage.pwrite", "os.pwrite",
                                   real_os.pwrite)
        self._fsync = tracer.wrap("live.storage.fsync", "os.fsync",
                                  real_os.fsync)

    def pwrite(self, fd, data, offset):
        if fd in self.fds:
            return self._pwrite(fd, data, offset)
        return self._os.pwrite(fd, data, offset)

    def fsync(self, fd):
        if fd in self.fds:
            return self._fsync(fd)
        return self._os.fsync(fd)

    def __getattr__(self, name):
        return getattr(self._os, name)
