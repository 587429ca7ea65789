"""Tests for the slot scheduler behind the cluster timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.scheduler import schedule_tasks


class TestBasics:
    def test_single_slot_is_sequential(self):
        s = schedule_tasks([1.0, 2.0, 3.0], 1)
        assert s.makespan_s == pytest.approx(6.0)
        starts = sorted(t.start_s for t in s.tasks)
        assert starts == pytest.approx([0.0, 1.0, 3.0])

    def test_enough_slots_is_parallel(self):
        s = schedule_tasks([1.0, 2.0, 3.0], 3)
        assert s.makespan_s == pytest.approx(3.0)
        assert all(t.start_s == 0.0 for t in s.tasks)

    def test_two_slots_fifo(self):
        # FIFO: t0->slot0, t1->slot1, t2-> earliest free (slot0 at 3.0)
        s = schedule_tasks([3.0, 1.0, 2.0], 2)
        assert s.makespan_s == pytest.approx(3.0 + 0.0) or s.makespan_s == pytest.approx(3.0)
        t2 = next(t for t in s.tasks if t.task_index == 2)
        assert t2.start_s == pytest.approx(1.0)  # slot1 frees first

    def test_empty(self):
        s = schedule_tasks([], 4)
        assert s.makespan_s == 0.0
        assert s.busy_s == 0.0
        assert s.utilisation == 1.0

    def test_overhead_added_per_task(self):
        s = schedule_tasks([1.0, 1.0], 2, per_task_overhead_s=0.5)
        assert s.makespan_s == pytest.approx(1.5)

    def test_zero_duration_tasks(self):
        s = schedule_tasks([0.0, 0.0, 0.0], 2)
        assert s.makespan_s == 0.0

    def test_task_indices_preserved(self):
        s = schedule_tasks([2.0, 1.0], 1)
        assert [t.task_index for t in s.tasks] == [0, 1]

    def test_slot_timeline_sorted(self):
        # FIFO: each slot runs its tasks in submission order.
        s = schedule_tasks([1.0, 1.0, 1.0, 1.0], 2)
        for slot in range(2):
            starts = [t.start_s for t in s.tasks if t.slot == slot]
            assert starts == sorted(starts)


class TestValidation:
    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            schedule_tasks([1.0], 0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            schedule_tasks([1.0, -0.1], 2)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            schedule_tasks([1.0], 1, per_task_overhead_s=-1)


class TestProperties:
    @given(
        durations=st.lists(st.floats(0, 100, allow_nan=False), max_size=30),
        slots=st.integers(1, 8),
    )
    @settings(max_examples=80)
    def test_makespan_bounds(self, durations, slots):
        s = schedule_tasks(durations, slots)
        total = sum(durations)
        longest = max(durations, default=0.0)
        # Classic bounds: max(longest, total/slots) <= makespan <= total
        assert s.makespan_s >= longest - 1e-9
        assert s.makespan_s >= total / slots - 1e-9
        assert s.makespan_s <= total + 1e-9

    @given(
        durations=st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=20),
        slots=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_no_slot_overlap(self, durations, slots):
        s = schedule_tasks(durations, slots)
        for slot in range(slots):
            timeline = sorted(
                (t for t in s.tasks if t.slot == slot), key=lambda t: t.start_s
            )
            for a, b in zip(timeline, timeline[1:]):
                assert a.end_s <= b.start_s + 1e-9

    @given(
        durations=st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=20),
        slots=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_all_tasks_scheduled_once(self, durations, slots):
        s = schedule_tasks(durations, slots)
        assert sorted(t.task_index for t in s.tasks) == list(range(len(durations)))
        for t in s.tasks:
            assert t.duration_s == pytest.approx(durations[t.task_index])

    @given(slots=st.integers(1, 5))
    def test_more_slots_never_hurts(self, slots):
        durations = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        fewer = schedule_tasks(durations, slots)
        more = schedule_tasks(durations, slots + 1)
        # FIFO list scheduling is not strictly monotone in general, but with
        # this fixed workload the property holds and guards regressions.
        assert more.makespan_s <= fewer.makespan_s + 1e-9
