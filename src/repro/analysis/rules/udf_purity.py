"""udf-purity: map/combine/reduce callables must be deterministic and
side-effect-free.

The executor refactor made three backends (serial / threads / processes)
interchangeable, and retried or speculative task attempts replaceable,
**only if** user map, combine, and reduce code is a pure function of its
inputs: a UDF that reads a clock, draws randomness, performs I/O, or
mutates process-global state produces different results per backend or
attempt (combiners may run a different number of times per spill
schedule; process workers see *copies* of globals), silently breaking the
differential parity the test suite asserts.

Flagged inside UDF class bodies (see ``rules/_udf.py`` for how UDF classes
are discovered):

* calls into nondeterminism: ``random.*``, ``np.random.*``, ``time.*``
  clocks/sleep, ``datetime.now``-family, ``uuid.uuid1/uuid4``,
  ``os.urandom``, ``os.getpid``;
* I/O: ``open``/``print``/``input``, ``subprocess.*``, mutating ``os.*``
  filesystem calls, ``sys.stdout``/``sys.stderr`` writes;
* ``global`` / ``nonlocal`` statements, and mutation of module-level
  objects (``STATE.append(...)``, ``CACHE[k] = v``, ...);
* calls reaching process-global observability state (``get_metrics`` /
  ``get_tracer`` / ``set_metrics`` / ``enable_tracing``): process workers
  mutate a *copy* of the registry that never reaches the driver.

Suppress a deliberate exception with ``# repro: allow[udf-purity]`` — e.g.
best-effort metrics in a reducer — and say why in the comment.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project, dotted_name
from repro.analysis.rules._udf import udf_classes

#: Exact dotted-call denylist -> reason fragment.
_BANNED_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads a clock",
    "time.monotonic_ns": "reads a clock",
    "time.perf_counter": "reads a clock",
    "time.perf_counter_ns": "reads a clock",
    "time.process_time": "reads a clock",
    "time.process_time_ns": "reads a clock",
    "time.sleep": "sleeps (timing side effect)",
    "datetime.now": "reads the wall clock",
    "datetime.utcnow": "reads the wall clock",
    "datetime.today": "reads the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "date.today": "reads the wall clock",
    "uuid.uuid1": "is nondeterministic",
    "uuid.uuid4": "is nondeterministic",
    "os.urandom": "is nondeterministic",
    "os.getpid": "differs per worker process",
    "open": "performs file I/O",
    "print": "writes to stdout",
    "input": "reads stdin",
    "os.remove": "mutates the filesystem",
    "os.unlink": "mutates the filesystem",
    "os.rename": "mutates the filesystem",
    "os.makedirs": "mutates the filesystem",
    "os.mkdir": "mutates the filesystem",
    "os.rmdir": "mutates the filesystem",
    "os.system": "spawns a process",
    "os.popen": "spawns a process",
    "sys.stdout.write": "writes to stdout",
    "sys.stderr.write": "writes to stderr",
}

#: Any call rooted at one of these modules is banned outright.
_BANNED_ROOTS = {"random": "draws randomness", "subprocess": "spawns a process"}

#: ``np.random.*`` / ``numpy.random.*``.
_NUMPY_ALIASES = {"np", "numpy"}

#: Calls that reach the process-global observability singletons.
_GLOBAL_STATE_CALLS = {"get_metrics", "get_tracer", "set_metrics", "enable_tracing"}

#: Container methods that mutate their receiver in place.
_MUTATORS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "remove",
    "discard",
    "clear",
    "pop",
    "popitem",
    "setdefault",
}


@register
class UdfPurityRule(Rule):
    """UDFs must not read clocks/randomness, do I/O, or mutate global state."""

    id = "udf-purity"

    def check(self, project: Project) -> Iterator[Finding]:
        for (_, _), (module, classdef) in sorted(
            udf_classes(project).items(), key=lambda kv: (kv[1][0].path, kv[1][1].lineno)
        ):
            yield from self._check_class(module, classdef)

    def _check_class(
        self, module: Module, classdef: ast.ClassDef
    ) -> Iterator[Finding]:
        module_globals = {
            name
            for name, binding in module.bindings.items()
            if binding.kind == "def"
        }
        for method in classdef.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{classdef.name}.{method.name}"
            for node in ast.walk(method):
                yield from self._check_node(
                    module, node, where, module_globals
                )

    def _check_node(
        self,
        module: Module,
        node: ast.AST,
        where: str,
        module_globals: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            names = ", ".join(node.names)
            yield self.finding(
                module,
                node,
                f"UDF {where} declares `{kind} {names}`: map/combine/reduce "
                "callables must not mutate enclosing state (breaks "
                "executor and retry parity)",
            )
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(module, node, where, module_globals)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                root = _subscript_root(target)
                if root is not None and root in module_globals:
                    yield self.finding(
                        module,
                        node,
                        f"UDF {where} writes module-level {root!r}: UDF "
                        "state must live on the task instance (globals "
                        "diverge across process workers)",
                    )

    def _check_call(
        self,
        module: Module,
        call: ast.Call,
        where: str,
        module_globals: Set[str],
    ) -> Iterator[Finding]:
        name = dotted_name(call.func)
        if not name:
            return
        parts = name.split(".")
        reason = _BANNED_CALLS.get(name)
        if reason is None and parts[0] in _BANNED_ROOTS:
            reason = _BANNED_ROOTS[parts[0]]
        if (
            reason is None
            and len(parts) >= 2
            and parts[0] in _NUMPY_ALIASES
            and parts[1] == "random"
        ):
            reason = "draws randomness"
        if reason is not None:
            yield self.finding(
                module,
                call,
                f"UDF {where} calls {name}() which {reason}: map/combine/"
                "reduce callables must be deterministic and side-effect-free",
            )
            return
        if parts[-1] in _GLOBAL_STATE_CALLS:
            yield self.finding(
                module,
                call,
                f"UDF {where} calls {name}() reaching process-global "
                "observability state: under the process executor workers "
                "mutate a copy the driver never sees",
            )
            return
        # STATE.append(...) on a module-level object.
        if (
            len(parts) >= 2
            and parts[-1] in _MUTATORS
            and parts[0] in module_globals
        ):
            yield self.finding(
                module,
                call,
                f"UDF {where} mutates module-level {parts[0]!r} via "
                f".{parts[-1]}(): UDF state must live on the task instance",
            )


def _subscript_root(target: ast.AST) -> str | None:
    """Root name of ``NAME[...]...`` assignment targets; None otherwise."""
    node: ast.AST = target
    seen_subscript = False
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        seen_subscript = seen_subscript or isinstance(node, ast.Subscript)
        node = node.value
    if seen_subscript and isinstance(node, ast.Name):
        return node.id
    return None
