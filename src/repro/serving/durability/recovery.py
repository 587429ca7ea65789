"""Replay snapshot + WAL tail back into a live store.

The contract: a store recovered from its on-disk state answers every
query **id-for-id identically** to the pre-crash store at the same
generation.  Three properties make that hold:

* the snapshot persists the full membership ``(ids, rows)``, the
  generation counter and the id-allocation cursor, and
  :meth:`~repro.serving.store.SkylineStore.restore_members` installs
  them verbatim;
* WAL records replay through the *normal* store mutations, so each
  replayed mutation bumps the generation by exactly one and each
  replayed insert draws the same id from the restored cursor;
* every externally-visible answer (global skyline, the four query
  evaluators) is independent of partition boundaries, so the recovered
  store fitting its partitioner on the surviving members — rather than
  the original first batch — cannot change any result.

Replay is tolerant where the WAL is (a torn tail is dropped, an unknown
record op is skipped with an event) and strict where the snapshot is
(a corrupt snapshot raises — see
:class:`~repro.serving.durability.snapshot.SnapshotError`).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, NamedTuple

import numpy as np

from repro.observability.events import get_events
from repro.observability.metrics import get_metrics
from repro.serving.durability.manager import DatasetLog, DurabilityManager
from repro.serving.durability.snapshot import read_snapshot
from repro.serving.durability.wal import read_wal
from repro.serving.store import SkylineStore

__all__ = ["RecoveryReport", "recover_dataset", "recover_store"]


class RecoveryReport(NamedTuple):
    """What a recovery did, for events / bench / operator output."""

    dataset: str
    generation: int
    members: int
    records_replayed: int
    records_skipped: int
    snapshot_generation: int | None
    snapshot_bytes: int
    torn_tail: bool
    duration_s: float


def recover_store(
    log: DatasetLog,
    *,
    kernel: str | None = None,
) -> tuple[SkylineStore | None, RecoveryReport]:
    """Rebuild the store recorded under ``log``; attach the log to it.

    Returns ``(store, report)``; the store is ``None`` when the on-disk
    state contains neither a snapshot nor a register record (nothing to
    recover).  ``kernel`` overrides the persisted config's dominance
    backend — the shard-restart path passes the server's flag so a fleet
    stays homogeneous.
    """
    started = time.perf_counter()
    snapshot = read_snapshot(log.snapshot_path)
    scan = read_wal(log.wal_path)
    # The log's writer trimmed any torn tail when it opened the file, so
    # this scan reads clean — carry the open-time fact into the report.
    torn = scan.torn or log.wal.torn_on_open

    store: SkylineStore | None = None
    covered_seq = -1
    snapshot_generation: int | None = None
    snapshot_bytes = 0
    if snapshot is not None:
        covered_seq = int(snapshot.get("wal_seq", -1))
        snapshot_generation = int(snapshot["generation"])
        snapshot_bytes = os.path.getsize(log.snapshot_path)
        store = _build_store(log.name, snapshot.get("config", {}), kernel=kernel)
        store.restore_members(
            snapshot.get("ids", []),
            np.asarray(snapshot.get("rows", []), dtype=np.float64).reshape(
                len(snapshot.get("ids", [])), -1
            )
            if snapshot.get("ids")
            else np.empty((0, 0)),
            generation=snapshot_generation,
            next_id=int(snapshot["next_id"]),
        )

    replayed = 0
    skipped = 0
    for record in scan.records:
        if record.seq <= covered_seq:
            continue
        payload = record.payload
        op = payload.get("op")
        if op == "register":
            # A re-registration replaces the store wholesale, exactly as
            # the live path does; everything before it is superseded.
            store = _build_store(log.name, payload.get("config", {}), kernel=kernel)
            replayed += 1
        elif store is None:
            # Mutations before any register record have nothing to apply
            # to — possible only with a hand-damaged directory.
            skipped += 1
        elif op == "insert":
            store.insert(payload["row"])
            replayed += 1
        elif op == "remove":
            store.remove(int(payload["id"]))
            replayed += 1
        elif op == "bulk":
            rows = payload["rows"]
            store.bulk_load(
                np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)
            )
            replayed += 1
        else:
            skipped += 1
            get_events().emit(
                "durability.skip_record", dataset=log.name, seq=record.seq, op=op
            )

    if store is not None:
        store.attach_durability(log)
    duration = time.perf_counter() - started
    report = RecoveryReport(
        dataset=log.name,
        generation=store.generation if store is not None else 0,
        members=len(store) if store is not None else 0,
        records_replayed=replayed,
        records_skipped=skipped,
        snapshot_generation=snapshot_generation,
        snapshot_bytes=snapshot_bytes,
        torn_tail=torn,
        duration_s=duration,
    )
    metrics = get_metrics()
    metrics.counter("wal.records_replayed").inc(replayed)
    metrics.counter("durability.recoveries").inc()
    get_events().emit(
        "durability.recover",
        dataset=log.name,
        generation=report.generation,
        members=report.members,
        records_replayed=replayed,
        records_skipped=skipped,
        snapshot_generation=snapshot_generation,
        torn_tail=torn,
        duration_s=round(duration, 6),
    )
    return store, report


def recover_dataset(
    manager: DurabilityManager,
    name: str,
    *,
    kernel: str | None = None,
) -> tuple[SkylineStore | None, RecoveryReport]:
    """Recover one dataset by name out of ``manager``'s data directory."""
    return recover_store(manager.dataset_log(name), kernel=kernel)


def _build_store(
    name: str,
    config: Dict[str, Any],
    *,
    kernel: str | None = None,
) -> SkylineStore:
    """A fresh, silent (no durability attached) store per persisted config.

    Unknown keys are ignored, so a config written by an older release —
    which still carries the worker, executor and threshold settings of
    the since-removed MapReduce bulk-load path — recovers unchanged.
    """
    return SkylineStore(
        name,
        scheme=str(config.get("scheme", "angle")),
        num_partitions=int(config.get("num_partitions", 8)),
        kernel=kernel if kernel is not None else config.get("kernel"),
    )
