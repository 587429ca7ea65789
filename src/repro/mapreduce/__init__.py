"""A from-scratch MapReduce execution engine (Hadoop-like substrate).

The paper runs its three skyline algorithms on Hadoop 0.20.2.  This package
is the substitute substrate: a small but complete MapReduce engine with

* input splits over in-memory records (:mod:`repro.mapreduce.inputs`),
* mapper / combiner / partitioner / reducer task pipeline
  (:mod:`repro.mapreduce.tasks`),
* a streaming sort-based shuffle (:mod:`repro.mapreduce.shuffle`),
* one runner over pluggable serial / thread-pool / process-pool executors
  (:mod:`repro.mapreduce.runner`, :mod:`repro.mapreduce.executors`),
* per-task timing and counters (:mod:`repro.mapreduce.counters`,
  :class:`repro.mapreduce.types.TaskStats`), and
* a deterministic cluster timing simulator used for the server-count
  sweeps of the paper's Figure 6 (:mod:`repro.mapreduce.cluster`,
  :mod:`repro.mapreduce.simulation`).

Quick example::

    from repro.mapreduce import Job, JobConf, Mapper, Reducer, run_job

    class TokenMapper(Mapper):
        def map(self, key, value, ctx):
            for word in value.split():
                ctx.emit(word, 1)

    class SumReducer(Reducer):
        def reduce(self, key, values, ctx):
            ctx.emit(key, sum(values))

    job = Job(name="wordcount", mapper=TokenMapper, reducer=SumReducer,
              conf=JobConf(num_reducers=2))
    result = run_job(job, records=[(None, "a b a"), (None, "b b c")])
    dict(result.output_pairs())   # {'a': 2, 'b': 3, 'c': 1}
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.mapreduce.counters": ("Counters",),
    "repro.mapreduce.errors": (
        "EngineError",
        "JobConfigError",
        "JobFailedError",
        "PartitionLostError",
        "TaskError",
        "TaskTimeoutError",
    ),
    "repro.mapreduce.executors": (
        "EXECUTOR_NAMES",
        "Executor",
        "ProcessExecutor",
        "SerialExecutor",
        "ThreadExecutor",
        "default_executor_name",
        "make_executor",
    ),
    "repro.mapreduce.faults": (
        "FaultInjector",
        "FaultPlan",
        "FaultRule",
        "InjectedFault",
        "get_default_fault_plan",
        "set_default_fault_plan",
    ),
    "repro.mapreduce.inputs": ("InputSplit", "make_splits"),
    "repro.mapreduce.job": ("Job", "JobChain", "JobConf", "JobResult"),
    "repro.mapreduce.partitioner": (
        "HashPartitioner",
        "KeyFieldPartitioner",
        "Partitioner",
        "RangePartitioner",
        "SingleReducerPartitioner",
    ),
    "repro.mapreduce.runner": ("Runner", "run_job"),
    "repro.mapreduce.tasks": (
        "Combiner",
        "MapContext",
        "Mapper",
        "ReduceContext",
        "Reducer",
    ),
    "repro.mapreduce.types": ("KeyValue", "RetryPolicy", "TaskKind", "TaskStats"),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "Combiner",
    "Counters",
    "EXECUTOR_NAMES",
    "EngineError",
    "Executor",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "HashPartitioner",
    "InjectedFault",
    "InputSplit",
    "Job",
    "JobChain",
    "JobConf",
    "JobConfigError",
    "JobFailedError",
    "JobResult",
    "KeyFieldPartitioner",
    "KeyValue",
    "MapContext",
    "Mapper",
    "Partitioner",
    "PartitionLostError",
    "ProcessExecutor",
    "RangePartitioner",
    "ReduceContext",
    "Reducer",
    "RetryPolicy",
    "Runner",
    "SerialExecutor",
    "SingleReducerPartitioner",
    "ThreadExecutor",
    "TaskError",
    "TaskKind",
    "TaskStats",
    "TaskTimeoutError",
    "default_executor_name",
    "get_default_fault_plan",
    "make_executor",
    "make_splits",
    "run_job",
    "set_default_fault_plan",
]
