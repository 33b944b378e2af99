"""The EL–FW hybrid sketched in the paper's concluding remarks (§6).

"Like EL, the log is segmented into a chain of FIFO queues.  Like FW, a
firewall is maintained for each queue; the oldest non-garbage record in a
queue is its firewall.  Now, the LM retains a pointer to only the oldest log
record from each transaction.  This can drastically reduce main memory
consumption if each transaction updates many objects, but at a price of
higher bandwidth.  When a transaction's oldest non-garbage log record
reaches the head of one queue, all of its log records must be regenerated
and added to the tail of the next queue because the LM does not have
pointers to know their whereabouts in the current queue."

That is the EL machinery with one change to migration, so this class is a
thin configuration of :class:`~repro.core.ephemeral.EphemeralLogManager`,
as :class:`~repro.core.firewall.FirewallLogManager` is:

* RAM is charged per transaction only (40 bytes, nothing per object).  The
  per-record cells the simulator keeps stand in for the transaction's
  in-memory update buffer, which the paper already assumes for rollback;
  they locate the records to regenerate but are not charged as LM state.
* Whenever one of a transaction's records leaves queue *g* for the next
  queue, every other live record of that transaction still in *g* leaves
  with it, and the transaction's later records follow it there, so each
  transaction lives in one queue and one pointer locates it.  The carried
  records are counted in :attr:`HybridLogManager.regenerated_records`.
* Recirculation is always on: in the last queue, records move back into
  the same queue one at a time, as in EL (the transaction stays in one
  queue); a livelocked queue kills transactions exactly as EL does.

Head advancement, group commit, flushing, pressure demand-flushes and
gathered forwarding (which batches the moved records into full migration
blocks) are all inherited.
"""

from __future__ import annotations

from repro.core.ephemeral import EphemeralLogManager
from repro.core.generation import Generation
from repro.core.memory import MemoryModel
from repro.records.base import LogRecord


class HybridLogManager(EphemeralLogManager):
    """EL queues whose transactions move between queues as a whole."""

    trace_source = "hybrid"

    def __init__(self, sim, database, **kwargs):
        super().__init__(
            sim,
            database,
            recirculation=True,
            memory_model=MemoryModel(bytes_per_transaction=40, bytes_per_object=0),
            **kwargs,
        )

    def _migrate(self, record: LogRecord, source_index: int, target: Generation) -> None:
        cell = record.cell
        if cell.address.generation != source_index:
            # Nothing left to move: a gather pass picked this record before
            # an earlier candidate carried it along.  The caller still counts
            # a forward, so take one back to keep
            # appended == fresh + forwarded + recirculated + regenerated.
            self.regenerated_records -= 1
            return
        if target.index == source_index:
            # Recirculating within the last queue keeps the transaction in
            # one queue, where the head scan meets its other records in
            # order: one pointer still suffices, so the record moves alone.
            super()._migrate(record, source_index, target)
            return
        entry = self.ltt.require(record.tid)
        siblings = [entry.tx_cell] if entry.tx_cell is not None else []
        for oid in entry.oids:
            lot_entry = self.lot.get(oid)
            uncommitted = lot_entry.uncommitted_cells.get(entry.tid)
            if uncommitted is not None:
                siblings.append(uncommitted)
            committed = lot_entry.committed_cell
            if committed is not None and committed.record.tid == entry.tid:
                siblings.append(committed)
        siblings.sort(key=lambda c: c.record.lsn)
        super()._migrate(record, source_index, target)
        entry.home_generation = target.index
        moved = 0
        for sibling in siblings:
            # Re-check each one: a nested head advancement may have moved or
            # garbaged it since the list was built.
            if (
                sibling is cell
                or sibling.list is None
                or sibling.address.generation != source_index
            ):
                continue
            super()._migrate(sibling.record, source_index, target)
            moved += 1
        self.regenerated_records += moved
        if moved and self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "hybrid",
                "regenerate",
                {
                    "tid": entry.tid,
                    "records": moved + 1,
                    "from": source_index,
                    "to": target.index,
                },
            )
