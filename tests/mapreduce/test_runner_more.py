"""Additional runner coverage: multiprocessing edge cases and chains."""

import numpy as np

from repro.mapreduce import (
    Job,
    JobChain,
    JobConf,
    Mapper,
    Reducer,
    Runner,
)


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


WORDS = [(None, f"w{i % 7} w{i % 3} w{i % 11}") for i in range(60)]


class CountParityMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 2, 1)


class BlockMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(int(value.sum()) % 2, value)


class StackReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, float(np.vstack(list(values)).sum()))


class TestMultiprocessMore:
    def test_with_combiner(self):
        job = Job(
            name="wc",
            mapper=TokenMapper,
            reducer=SumReducer,
            combiner=SumReducer,
            conf=JobConf(num_reducers=3, num_map_tasks=4),
        )
        serial = Runner("serial").run(job, records=WORDS)
        mp = Runner("processes", num_workers=3).run(job, records=WORDS)
        assert dict(mp.output_pairs()) == dict(serial.output_pairs())

    def test_more_workers_than_tasks(self):
        job = Job(
            name="wc",
            mapper=TokenMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1, num_map_tasks=1),
        )
        result = Runner("processes", num_workers=8).run(job, records=WORDS)
        assert sum(result.output_values()) == 180

    def test_chain(self):
        # Mapper/reducer classes must be module-level for the process pool.
        stages = [
            lambda records: Job(
                name="wc",
                mapper=TokenMapper,
                reducer=SumReducer,
                conf=JobConf(num_reducers=2, num_map_tasks=2),
            ),
            lambda records: Job(
                name="parity",
                mapper=CountParityMapper,
                reducer=SumReducer,
                conf=JobConf(num_reducers=1),
            ),
        ]
        serial = Runner("serial").run_chain(JobChain("c", stages), WORDS)
        mp = Runner("processes", num_workers=2).run_chain(JobChain("c", stages), WORDS)
        assert dict(mp.final.output_pairs()) == dict(serial.final.output_pairs())

    def test_file_input(self):
        job = Job(
            name="wc",
            mapper=TokenMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=2, num_map_tasks=3),
        )
        serial = Runner().run(job, records=WORDS)
        mp = Runner("processes", num_workers=2).run(job, records=WORDS)
        assert len(mp.map_stats) > 1
        assert dict(mp.output_pairs()) == dict(serial.output_pairs())

    def test_numpy_blocks_cross_process(self):
        records = [
            (i, np.full((4, 3), float(i))) for i in range(10)
        ]
        job = Job(
            name="blocks",
            mapper=BlockMapper,
            reducer=StackReducer,
            conf=JobConf(num_reducers=2, num_map_tasks=3),
        )
        serial = Runner().run(job, records=records)
        mp = Runner("processes", num_workers=2).run(job, records=records)
        assert dict(mp.output_pairs()) == dict(serial.output_pairs())


class TestStatsUnderMultiprocessing:
    def test_task_stats_complete(self):
        job = Job(
            name="wc",
            mapper=TokenMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=3, num_map_tasks=5),
        )
        result = Runner("processes", num_workers=2).run(job, records=WORDS)
        assert len(result.map_stats) == 5
        assert len(result.reduce_stats) == 3
        assert result.map_stats.records_in == len(WORDS)
        assert result.counters.value("framework", "map_input_records") == len(WORDS)
