"""Deterministic, seedable fault injection for the MapReduce engine.

The paper's scaling claims (Fig. 6) assume the merge/reduce phase stays
healthy as servers scale; this module is the chaos plane that lets the test
suite *prove* the engine's answer does not depend on that assumption.  A
:class:`FaultPlan` describes which task attempts to sabotage and how; a
:class:`FaultInjector` turns the plan into per-attempt
:class:`FaultDecision` objects in the driver, and the picklable
:func:`apply_fault` wrapper applies the decision wherever the task body
actually runs (inline, worker thread, or worker process).

Determinism is the design center:

* Probabilistic rules draw from a PRNG seeded by a stable (BLAKE2) digest
  of ``(plan seed, job name, task id, attempt, rule index)`` — never from
  process-global randomness — so the same plan against the same job graph
  injects the same faults on every run, on every executor, regardless of
  pool scheduling order.
* Bounded rules ("crash the first N attempts") count injections per
  ``(job, task, rule)`` in the driver, where attempt numbers are issued
  sequentially, so counts cannot race even under pool executors.

Fault kinds (:data:`FAULT_KINDS`):

``crash``
    The attempt raises :class:`~repro.mapreduce.errors.TaskError` (cause
    :class:`InjectedFault`) *before* running the body, so a crashed attempt
    has no partial side effects.
``hang``
    The attempt sleeps ``hang_s`` before running the body.  When the run's
    :class:`~repro.mapreduce.types.RetryPolicy` sets a task timeout and the
    hang meets it, a *cooperative* hang sleeps exactly the timeout and
    raises :class:`~repro.mapreduce.errors.TaskTimeoutError` itself —
    keeping retry counts deterministic on every executor.  With
    ``cooperative=False`` the task really sleeps through the deadline and
    only the runner's driver-side watchdog can abandon it.
``slow``
    The attempt runs the body, then sleeps ``slow_s`` plus
    ``(slow_factor - 1) ×`` the body's duration — a straggler, the food of
    speculative execution.
``poison``
    An unbounded ``crash``: every attempt of the matching task fails, which
    terminally loses the task.  With ``RetryPolicy(on_lost="degrade")`` the
    job survives and flags the result partial; otherwise it raises
    :class:`~repro.mapreduce.errors.JobFailedError`.

Plans serialize to JSON (see :meth:`FaultPlan.to_dict` and
``docs/fault_tolerance.md`` for the schema) so chaos runs are scriptable:
``repro-skyline fig5a --quick --faults plan.json``.  A process-global
default plan (:func:`set_default_fault_plan`) reaches every runner the way
``REPRO_EXECUTOR`` reaches every executor choice.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Tuple

from repro.mapreduce.errors import TaskError, TaskTimeoutError
from repro.mapreduce.types import RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultDecision",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "apply_fault",
    "get_default_fault_plan",
    "set_default_fault_plan",
    "stable_rng",
]

#: Recognised fault kinds, in documentation order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "slow", "poison")

#: Task kinds a rule may target (``None`` in a rule means both).
_TASK_KINDS = ("map", "reduce")


class InjectedFault(Exception):
    """The cause carried by injected crash/poison faults.

    A distinct type so tests (and trace consumers) can tell injected
    failures from genuine user-code bugs; picklable with the default
    exception protocol so it survives process-pool transport.
    """


def stable_rng(seed: int, *parts: Any) -> random.Random:
    """A PRNG seeded by a stable digest of ``(seed, *parts)``.

    ``hash()`` is salted per process, so it cannot key cross-process
    determinism; this uses BLAKE2 over the ``repr`` of the key tuple
    instead.  Identical inputs produce identical streams on every
    interpreter, platform, and run.
    """
    import hashlib

    digest = hashlib.blake2b(
        repr((seed,) + parts).encode("utf-8"), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One match-and-inject rule of a :class:`FaultPlan`.

    Attributes
    ----------
    fault:
        One of :data:`FAULT_KINDS`.
    kind:
        Target task kind (``"map"`` / ``"reduce"``) or ``None`` for both.
    index:
        Target task index, or ``None`` for every index.
    job:
        Substring matched against the job name, or ``None`` for every job.
    times:
        Maximum injections per matching task (``1`` = crash-once, ``2`` =
        crash-twice, ...); ``None`` = unlimited.  ``poison`` ignores this
        and always injects.
    probability:
        Chance of injecting on an eligible attempt, drawn deterministically
        (see :func:`stable_rng`).  ``1.0`` injects on every eligible attempt.
    hang_s:
        Sleep length for ``hang`` faults.
    slow_factor / slow_s:
        For ``slow`` faults: the body's duration is stretched by
        ``slow_factor`` and padded by ``slow_s`` seconds.
    cooperative:
        ``hang`` only: whether the hung attempt observes the task timeout
        itself (deterministic on all executors) or truly sleeps through it,
        leaving only the driver-side watchdog (pool executors only).
    """

    fault: str
    kind: str | None = None
    index: int | None = None
    job: str | None = None
    times: int | None = 1
    probability: float = 1.0
    hang_s: float = 0.0
    slow_factor: float = 1.0
    slow_s: float = 0.0
    cooperative: bool = True

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault {self.fault!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind is not None and self.kind not in _TASK_KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; expected one of {_TASK_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s}")

    def matches(self, job_name: str, kind: str, index: int) -> bool:
        """Whether this rule targets the given task of the given job."""
        if self.kind is not None and self.kind != kind:
            return False
        if self.index is not None and self.index != index:
            return False
        if self.job is not None and self.job not in job_name:
            return False
        return True


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed, an ordered rule list, and (optionally) the policy to run under.

    The embedded :class:`~repro.mapreduce.types.RetryPolicy` makes a plan
    file self-contained for CLI chaos runs: a runner constructed without an
    explicit policy adopts the plan's, so ``--faults plan.json`` carries
    both the faults and the retry budget that survives them.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (schema documented in docs/fault_tolerance.md)."""
        out: Dict[str, Any] = {
            "seed": self.seed,
            "faults": [
                {f.name: getattr(rule, f.name) for f in fields(FaultRule)}
                for rule in self.rules
            ],
        }
        if self.policy is not None:
            out["policy"] = {
                f.name: getattr(self.policy, f.name)
                for f in fields(RetryPolicy)
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Parse a plan dict, rejecting unknown keys (schema enforcement)."""
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {type(data).__name__}")
        known = {"seed", "faults", "policy"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        rule_fields = {f.name for f in fields(FaultRule)}
        rules = []
        for i, raw in enumerate(data.get("faults", ())):
            if not isinstance(raw, dict):
                raise ValueError(f"faults[{i}] must be an object")
            bad = set(raw) - rule_fields
            if bad:
                raise ValueError(f"faults[{i}] has unknown keys: {sorted(bad)}")
            rules.append(FaultRule(**raw))
        policy = None
        if data.get("policy") is not None:
            raw_policy = data["policy"]
            policy_fields = {f.name for f in fields(RetryPolicy)}
            bad = set(raw_policy) - policy_fields
            if bad:
                raise ValueError(f"policy has unknown keys: {sorted(bad)}")
            policy = RetryPolicy(**raw_policy)
            policy.validate()
        return cls(seed=int(data.get("seed", 0)), rules=tuple(rules), policy=policy)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """One injector verdict for one task attempt — picklable, worker-bound.

    Computed in the driver (where determinism is enforceable) and shipped
    with the task submission; :func:`apply_fault` interprets it wherever
    the task body runs.
    """

    action: str
    task_id: str
    attempt: int
    hang_s: float = 0.0
    slow_factor: float = 1.0
    slow_s: float = 0.0
    cooperative: bool = True


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Audit record of one injected fault (driver-side bookkeeping)."""

    job_name: str
    task_id: str
    attempt: int
    action: str
    rule_index: int


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-attempt decisions.

    Driver-only: :meth:`decide` is called from the runner's submission path
    (a single thread), so injection counts need no lock.  The injected-
    event log (:attr:`events`) is the ground truth chaos tests compare
    retry counters against.

    The first matching rule wins per attempt; later rules see the attempt
    only if earlier ones declined (exhausted ``times`` or probability
    draw).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: List[FaultEvent] = []
        #: (job_name, task_id, rule_index) -> injections so far.
        self._used: Dict[Tuple[str, str, int], int] = {}

    @property
    def injected(self) -> int:
        """Total faults injected so far."""
        return len(self.events)

    def injected_by_action(self) -> Dict[str, int]:
        """Injection counts per fault action (for counter assertions)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.action] = counts.get(event.action, 0) + 1
        return counts

    def decide(
        self, job_name: str, kind: str, index: int, attempt: int
    ) -> FaultDecision | None:
        """The fault (if any) to inject into one task attempt."""
        task_id = f"{kind}-{index}"
        for rule_index, rule in enumerate(self.plan.rules):
            if not rule.matches(job_name, kind, index):
                continue
            key = (job_name, task_id, rule_index)
            used = self._used.get(key, 0)
            if (
                rule.fault != "poison"
                and rule.times is not None
                and used >= rule.times
            ):
                continue
            if rule.probability < 1.0:
                rng = stable_rng(
                    self.plan.seed, job_name, task_id, attempt, rule_index
                )
                if rng.random() >= rule.probability:
                    continue
            self._used[key] = used + 1
            self.events.append(
                FaultEvent(job_name, task_id, attempt, rule.fault, rule_index)
            )
            return FaultDecision(
                action=rule.fault,
                task_id=task_id,
                attempt=attempt,
                hang_s=rule.hang_s,
                slow_factor=rule.slow_factor,
                slow_s=rule.slow_s,
                cooperative=rule.cooperative,
            )
        return None


def apply_fault(
    decision: FaultDecision,
    timeout_s: float | None,
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Execute one task attempt under an injected fault.

    Module-level and argument-picklable, so the same wrapper runs inline,
    in a worker thread, or in a worker process.  ``fn(*args)`` is the real
    task body (e.g. :func:`~repro.mapreduce.tasks.execute_map_task`).
    """
    if decision.action in ("crash", "poison"):
        raise TaskError(
            decision.task_id,
            InjectedFault(
                f"injected {decision.action} (attempt {decision.attempt})"
            ),
        )
    if decision.action == "hang":
        if (
            decision.cooperative
            and timeout_s is not None
            and decision.hang_s >= timeout_s
        ):
            # Cooperative hang: observe the deadline exactly, so retry
            # counts are identical on inline and pool executors.
            time.sleep(timeout_s)
            raise TaskTimeoutError(decision.task_id, timeout_s)
        time.sleep(decision.hang_s)
        return fn(*args)
    if decision.action == "slow":
        start = time.perf_counter()
        result = fn(*args)
        body_s = time.perf_counter() - start
        extra = decision.slow_s + body_s * (decision.slow_factor - 1.0)
        if extra > 0:
            time.sleep(extra)
        return result
    raise ValueError(f"unknown fault action {decision.action!r}")


# -- process-global default plan -------------------------------------------------
#
# Mirrors REPRO_EXECUTOR: the CLI's --faults installs a plan here, and every
# Runner constructed without an explicit plan picks it up, so chaos reaches
# the benchmark pipelines without threading a parameter through every layer.

_default_plan: FaultPlan | None = None


def get_default_fault_plan() -> FaultPlan | None:
    """The process-wide fault plan, or ``None`` when chaos is off."""
    return _default_plan


def set_default_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or, with ``None``, clear) the process-wide fault plan.

    Returns the previous plan so callers can restore it.
    """
    global _default_plan
    previous = _default_plan
    _default_plan = plan
    return previous
