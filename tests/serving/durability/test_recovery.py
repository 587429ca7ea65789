"""Differential recovery: the chaos leg of the durability plane.

The contract under test — a store recovered from ``data_dir`` answers
every query kind **id-for-id identically** to a reference store that
applied the surviving mutation prefix — checked across both dominance
kernels and the three crash shapes the WAL design claims to survive:

* crash mid-append (the final frame is physically cut short);
* a torn final record (garbage bytes past the last good frame);
* stale snapshot + long tail (checkpoint long ago, many deltas since) —
  including the crash *between* snapshot replace and WAL truncate, where
  frames the snapshot already covers are still on disk.

Chaos offsets are drawn from the PR-4 :func:`stable_rng`, so every cut
point is reproducible across runs and platforms.
"""

import os

import numpy as np
import pytest

from repro.mapreduce.faults import stable_rng
from repro.serving.durability import (
    DurabilityConfig,
    DurabilityManager,
    read_snapshot,
    read_wal,
    recover_dataset,
)
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.store import SkylineStore

KERNELS = ("scalar", "block")
DATASET = "dur"
DIMS = 3
N_BULK = 60
N_OPS = 30
#: Store-config keys of releases whose large bulk loads ran the MapReduce
#: engine; recovery must ignore them.
LEGACY_CONFIG = {"num_workers": 2, "mr_bulk_threshold": 50_000, "executor": "threads"}


def query_specs():
    """One spec per query kind — the full id-for-id parity surface."""
    return [
        QuerySpec(dataset=DATASET),
        QuerySpec(dataset=DATASET, kind="skyband", k=2),
        QuerySpec(
            dataset=DATASET,
            kind="constrained",
            lower=(0.0,) * DIMS,
            upper=(0.7,) * DIMS,
        ),
        QuerySpec(dataset=DATASET, kind="subspace", dims=(0, 1)),
    ]


def answers_of(store):
    """Generation plus every query kind's ids, from one snapshot."""
    snap = store.snapshot()
    return {
        "generation": snap.generation,
        **{
            spec.kind: evaluate(spec, snap.ids, snap.rows)
            for spec in query_specs()
        },
    }


def bulk_points():
    return np.random.default_rng(42).random((N_BULK, DIMS)) + 0.01


def apply_ops(store, n_ops, *, seed=7):
    """A deterministic insert/remove mix (op ``i`` depends only on the
    rng stream and the state the first ``i`` ops produced, so replaying a
    prefix of this generator reproduces the store at that prefix)."""
    rng = stable_rng(seed, "durability-ops")
    for _ in range(n_ops):
        ids = store.snapshot().ids
        if rng.random() < 0.25 and len(ids) > 1:
            store.remove(int(ids[rng.randrange(len(ids))]))
        else:
            store.insert([rng.random() + 0.01 for _ in range(DIMS)])


def reference_store(kernel, n_ops):
    """The surviving-prefix oracle: same bulk + first ``n_ops`` ops, no
    durability attached."""
    store = SkylineStore(DATASET, num_partitions=4, kernel=kernel)
    store.bulk_load(bulk_points())
    apply_ops(store, n_ops)
    return store


def durable_store(data_dir, *, kernel, snapshot_every=10_000, fsync="never"):
    """A registered, durability-attached store over ``data_dir`` — the
    same wiring order as ``SkylineService.register``."""
    manager = DurabilityManager(
        DurabilityConfig(data_dir, fsync=fsync, snapshot_every=snapshot_every)
    )
    store = SkylineStore(DATASET, num_partitions=4, kernel=kernel)
    log = manager.dataset_log(DATASET)
    store.attach_durability(log)
    log.log_register(store.store_config())
    store.bulk_load(bulk_points())
    return manager, store


def recover(data_dir, *, kernel=None, snapshot_every=10_000):
    manager = DurabilityManager(
        DurabilityConfig(data_dir, fsync="never", snapshot_every=snapshot_every)
    )
    store, report = recover_dataset(manager, DATASET, kernel=kernel)
    return manager, store, report


def assert_parity(recovered, reference):
    got, want = answers_of(recovered), answers_of(reference)
    assert got == want, f"recovery parity broken: {got} != {want}"
    # Id-allocation discipline: the next insert draws the same id and
    # lands on the same generation in both worlds.
    point = [0.005] * DIMS
    assert recovered.insert(point) == reference.insert(point)


class TestCleanRecovery:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wal_only_replay_is_id_for_id(self, tmp_path, kernel):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel=kernel)
        apply_ops(store, N_OPS)
        pre = answers_of(store)
        manager.close()

        manager2, recovered, report = recover(data_dir, kernel=kernel)
        assert recovered is not None
        assert not report.torn_tail
        assert report.snapshot_generation is None  # never checkpointed
        assert report.records_replayed == 2 + N_OPS  # register + bulk + ops
        assert answers_of(recovered) == pre
        assert_parity(recovered, reference_store(kernel, N_OPS))
        manager2.close()

    def test_recovered_store_keeps_logging(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="scalar")
        apply_ops(store, 5)
        manager.close()

        manager2, recovered, _ = recover(data_dir)
        recovered.insert([0.002] * DIMS)
        pre = answers_of(recovered)
        manager2.close()

        manager3, again, report = recover(data_dir)
        assert answers_of(again) == pre, "post-recovery mutations must persist"
        manager3.close()

    def test_failed_remove_is_never_logged(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="scalar")
        with pytest.raises(KeyError):
            store.remove(10_000)
        manager.close()
        ops = [r.payload["op"] for r in read_wal(
            os.path.join(data_dir, DATASET, "wal.log")).records]
        assert "remove" not in ops


class TestCrashMidAppend:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cut_final_frame_loses_exactly_one_mutation(self, tmp_path, kernel):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel=kernel)
        apply_ops(store, N_OPS)
        manager.close()

        # Crash mid-append: cut the final frame at a deterministic chaos
        # offset strictly inside it.
        wal_path = os.path.join(data_dir, DATASET, "wal.log")
        scan = read_wal(wal_path)
        last_frame = os.path.getsize(wal_path) - _frame_start(scan, -1)
        cut = stable_rng(0, "mid-append", kernel).randrange(1, last_frame)
        with open(wal_path, "r+b") as fh:
            fh.truncate(os.path.getsize(wal_path) - cut)

        manager2, recovered, report = recover(data_dir, kernel=kernel)
        assert report.torn_tail
        # Generation arithmetic: bulk = 1, each surviving op = +1; the
        # torn final op is gone, so exactly one mutation was lost.
        assert recovered.generation == 1 + N_OPS - 1
        assert_parity(recovered, reference_store(kernel, N_OPS - 1))
        manager2.close()

    def test_torn_garbage_tail_loses_nothing(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="scalar")
        apply_ops(store, N_OPS)
        pre = answers_of(store)
        manager.close()

        wal_path = os.path.join(data_dir, DATASET, "wal.log")
        garbage = bytes(
            stable_rng(0, "garbage-tail").randrange(256) for _ in range(37)
        )
        with open(wal_path, "ab") as fh:
            fh.write(garbage)

        manager2, recovered, report = recover(data_dir)
        assert report.torn_tail
        assert answers_of(recovered) == pre, "every framed mutation survives"
        manager2.close()


class TestSnapshotRecovery:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_snapshot_plus_long_tail(self, tmp_path, kernel):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel=kernel)
        apply_ops(store, 10)
        assert store.checkpoint(), "forced checkpoint must write a snapshot"
        # A long post-checkpoint tail the snapshot knows nothing about.
        apply_ops(store, N_OPS, seed=8)
        pre = answers_of(store)
        manager.close()

        manager2, recovered, report = recover(data_dir, kernel=kernel)
        assert report.snapshot_generation == 1 + 10
        assert report.records_replayed == N_OPS
        assert report.generation == 1 + 10 + N_OPS
        assert answers_of(recovered) == pre
        manager2.close()

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        """The checkpoint ordering's worst case: the new snapshot is
        durable but the WAL still holds every frame it covers.  Replay
        must skip the covered prefix and apply only the tail."""
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="scalar")
        apply_ops(store, 10)
        wal_path = os.path.join(data_dir, DATASET, "wal.log")
        pre_ckpt_frames = open(wal_path, "rb").read()
        assert store.checkpoint()
        apply_ops(store, 5, seed=9)
        pre = answers_of(store)
        manager.close()

        # Re-prepend the frames the truncate dropped, recreating the
        # crashed-before-truncate file image.
        tail = open(wal_path, "rb").read()
        open(wal_path, "wb").write(pre_ckpt_frames + tail)

        manager2, recovered, report = recover(data_dir)
        assert report.records_replayed == 5, "covered frames must be skipped"
        assert answers_of(recovered) == pre
        manager2.close()

    def test_empty_membership_snapshot_restores_id_cursor(self, tmp_path):
        """Remove-everything then checkpoint: the snapshot holds zero
        members but the id cursor must still survive."""
        data_dir = str(tmp_path / "data")
        manager = DurabilityManager(DurabilityConfig(data_dir, fsync="never"))
        store = SkylineStore(DATASET, num_partitions=4)
        log = manager.dataset_log(DATASET)
        store.attach_durability(log)
        log.log_register(store.store_config())
        for _ in range(3):
            store.insert([0.5] * DIMS)
        for pid in (0, 1, 2):
            store.remove(pid)
        assert store.checkpoint()
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert len(recovered) == 0 and report.members == 0
        new_id, generation = recovered.insert([0.4] * DIMS)
        assert new_id == 3, "id cursor must survive an empty snapshot"
        assert generation == 7
        manager2.close()

    def test_automatic_checkpoint_truncates_wal(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(
            data_dir, kernel="scalar", snapshot_every=8
        )
        apply_ops(store, 20)
        pre = answers_of(store)
        wal_path = os.path.join(data_dir, DATASET, "wal.log")
        snap_path = os.path.join(data_dir, DATASET, "snapshot.bin")
        assert os.path.exists(snap_path)
        assert len(read_wal(wal_path).records) < 22, "WAL must have turned over"
        manager.close()

        manager2, recovered, report = recover(data_dir, snapshot_every=8)
        assert report.snapshot_generation is not None
        assert answers_of(recovered) == pre
        manager2.close()


class TestRecoveryEdges:
    def test_register_only_dataset_recovers_empty(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager = DurabilityManager(DurabilityConfig(data_dir, fsync="never"))
        store = SkylineStore(DATASET, num_partitions=4)
        log = manager.dataset_log(DATASET)
        store.attach_durability(log)
        log.log_register(store.store_config())
        manager.close()

        manager2, recovered, report = recover(data_dir)
        assert recovered is not None and len(recovered) == 0
        assert recovered.insert([0.3] * DIMS) == (0, 1)
        manager2.close()

    def test_nothing_on_disk_recovers_none(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(str(tmp_path / "data"), fsync="never")
        )
        store, report = recover_dataset(manager, "ghost")
        assert store is None
        assert report.members == 0 and report.records_replayed == 0
        manager.close()

    def test_reregister_record_supersedes_history(self, tmp_path):
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="scalar")
        apply_ops(store, 5)
        # Live re-registration: fresh store through the same log.
        log = manager.dataset_log(DATASET)
        fresh = SkylineStore(DATASET, num_partitions=4)
        fresh.attach_durability(log)
        log.log_register(fresh.store_config())
        fresh.insert([0.9] * DIMS)
        pre = answers_of(fresh)
        manager.close()

        manager2, recovered, _ = recover(data_dir)
        assert answers_of(recovered) == pre
        assert len(recovered) == 1
        manager2.close()

    @pytest.mark.parametrize("legacy", [False, True], ids=["current", "legacy"])
    @pytest.mark.parametrize("source", ["register", "snapshot"])
    def test_store_config_roundtrips_kernel(
        self, tmp_path, monkeypatch, source, legacy
    ):
        if legacy:
            current = SkylineStore.store_config
            monkeypatch.setattr(
                SkylineStore,
                "store_config",
                lambda self: {**current(self), **LEGACY_CONFIG},
            )
        data_dir = str(tmp_path / "data")
        manager, store = durable_store(data_dir, kernel="block")
        apply_ops(store, N_OPS)
        log = manager.dataset_log(DATASET)
        if source == "snapshot":
            store.checkpoint()
        pre = answers_of(store)
        manager.close()
        monkeypatch.undo()

        if source == "snapshot":
            config = read_snapshot(log.snapshot_path)["config"]
        else:
            config = read_wal(log.wal_path).records[0].payload["config"]
        assert config["kernel"] == "block"
        assert (LEGACY_CONFIG.items() <= config.items()) == legacy

        manager2, recovered, report = recover(data_dir)  # no kernel override
        assert recovered.kernel_name == "block"
        assert (report.snapshot_generation is not None) == (source == "snapshot")
        assert answers_of(recovered) == pre
        assert_parity(recovered, reference_store("block", N_OPS))
        manager2.close()


def _frame_start(scan, index):
    """Byte offset where frame ``index`` starts (via cumulative sizes)."""
    from repro.serving.durability.wal import encode_record

    offsets = [0]
    for record in scan.records:
        offsets.append(offsets[-1] + len(encode_record(record.payload)))
    return offsets[index - 1 if index < 0 else index]
