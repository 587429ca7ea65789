"""Stateful property testing of IncrementalSkyline against a brute-force model.

Hypothesis drives random insert/remove sequences; after every step the
incremental structure's global skyline must equal a from-scratch skyline of
the surviving points.  This is the strongest guard we have on the §II
dynamic-maintenance logic (eviction lists, member bookkeeping, partition
recomputation, cache invalidation), and on the columnar storage under it
(dead-slot compaction keeps the slot count proportional to the live one).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.incremental import IncrementalSkyline
from repro.core.partitioning import AngularPartitioner
from repro.core.skyline import skyline_numpy

coords = st.tuples(
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)


class IncrementalSkylineMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        seed = np.array([[0.01, 0.01, 0.01], [10.0, 10.0, 10.0]])
        partitioner = AngularPartitioner(4).fit(seed)
        self.sky = IncrementalSkyline(partitioner)
        self.model: dict[int, np.ndarray] = {}  # id -> row

    @rule(point=coords)
    def insert(self, point) -> None:
        row = np.array(point)
        pid = self.sky.insert(row)
        assert pid not in self.model
        self.model[pid] = row

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def remove(self, data) -> None:
        victim = data.draw(st.sampled_from(sorted(self.model)))
        self.sky.remove(victim)
        del self.model[victim]

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def remove_skyline_member(self, data) -> None:
        current = self.sky.global_skyline()
        if not current:
            return
        victim = data.draw(st.sampled_from(current))
        self.sky.remove(victim)
        del self.model[victim]

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def remove_many(self, data) -> None:
        # Remove-heavy churn: drops up to every member at once, driving
        # the dead-slot count past the live one (compaction).
        victims = data.draw(
            st.lists(st.sampled_from(sorted(self.model)), min_size=1, unique=True)
        )
        for victim in victims:
            self.sky.remove(victim)
            del self.model[victim]

    @rule()
    def remove_unknown_rejected(self) -> None:
        missing = (max(self.model) + 1000) if self.model else 999
        try:
            self.sky.remove(missing)
        except KeyError:
            return
        raise AssertionError("removing an unknown id must raise KeyError")

    @invariant()
    def matches_bruteforce(self) -> None:
        if not self.model:
            assert self.sky.global_skyline() == []
            return
        ids = sorted(self.model)
        rows = np.vstack([self.model[i] for i in ids])
        expected = sorted(ids[j] for j in skyline_numpy(rows))
        assert self.sky.global_skyline() == expected

    @invariant()
    def size_consistent(self) -> None:
        assert len(self.sky) == len(self.model)

    @invariant()
    def storage_bounded_by_live_members(self) -> None:
        live = len(self.model)
        assert self.sky._size - live <= live  # dead slots never outnumber live
        assert self.sky._rows.shape[0] <= max(16, 4 * live)
        assert self.sky.members()[0].tolist() == sorted(self.model)


IncrementalSkylineMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestIncrementalSkylineStateful = IncrementalSkylineMachine.TestCase
