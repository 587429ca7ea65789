"""Every ``src/repro`` module is reachable from an entry point.

The entry points are the CLI (``repro.cli``), the repository benchmark
(``perfbench/*.py``, not its tests) and the runnable examples.  The walk
follows every import statement, including function-level ones, and a
``from package import name`` whose package resolves ``name`` through its
lazy ``_EXPORTS`` table reaches the name's home module — the way the
import happens at run time.  A module nothing reaches is dead code.

A second check resolves every ``from repro.… import name`` in the entry
files themselves, so a stale import inside a function body (which no
plain module import executes) fails here instead of at run time.

A third check goes one level down, to the knobs: each keyword parameter
of the pipeline's driver and filter stage and each field of the engine's
and the server's config objects must be set by some reachable module
other than its own, as a call keyword or an attribute store, or be
allowlisted with the reason it stays.

A fourth check does the same for names: every public module-level
function and class under ``src/repro`` must be named by some reachable
module (its own included) in a load, an attribute or an import, register
itself through ``@register``, or be allowlisted with the reason it stays.
An import in a package ``__init__`` is a re-export, not a use, so a name
does not live on because its package lists it.
"""

from __future__ import annotations

import ast
import glob
import os
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from repro.analysis.project import Module, Project, _absolute_import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

ENTRY_FILES = sorted(
    [os.path.join(SRC, "cli.py")]
    + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    + glob.glob(os.path.join(ROOT, "examples", "*.py"))
)


@pytest.fixture(scope="module")
def project() -> Project:
    project = Project.load([SRC] + ENTRY_FILES)
    assert not project.failures, project.failures
    return project


def _lazy_exports(module: Module) -> Dict[str, str]:
    """``name -> home module`` from a package's ``_EXPORTS`` literal."""
    table: Dict[str, str] = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for key, names in zip(node.value.keys, node.value.values):
                home = ast.literal_eval(key)
                for name in ast.literal_eval(names):
                    table[name] = home
    return table


def _with_parents(dotted: str) -> Iterator[str]:
    """``a.b.c`` -> ``a``, ``a.b``, ``a.b.c``: importing a submodule runs
    every enclosing package's ``__init__`` first."""
    parts = dotted.split(".")
    for i in range(1, len(parts) + 1):
        yield ".".join(parts[:i])


def _from_imports(module: Module) -> Iterator[Tuple[ast.ImportFrom, str]]:
    """Every ``from X import ...`` in ``module`` (any depth), X absolute."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            source = _absolute_import(module.name, node)
            if source is not None:
                yield node, source


def _imported_modules(project: Project, module: Module) -> Set[str]:
    """Project modules that executing ``module``'s imports can load."""
    found: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(_with_parents(alias.name))
    for node, source in _from_imports(module):
        found.update(_with_parents(source))
        package = project.modules.get(source)
        exports = _lazy_exports(package) if package is not None else {}
        for alias in node.names:
            if alias.name == "*":
                found.update(exports.values())
            elif f"{source}.{alias.name}" in project.modules:
                found.add(f"{source}.{alias.name}")
            elif alias.name in exports:
                found.update(_with_parents(exports[alias.name]))
    return {name for name in found if name in project.modules}


def _entry_modules(project: Project) -> List[Module]:
    real = {os.path.realpath(path) for path in ENTRY_FILES}
    return [m for m in project.modules.values() if os.path.realpath(m.path) in real]


def _reachable(project: Project) -> Set[str]:
    """Every module an entry point loads, the entry points included."""
    seen: Set[str] = set()
    frontier = [m.name for m in _entry_modules(project)]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(_imported_modules(project, project.modules[name]))
    return seen


def test_every_module_is_reachable_from_an_entry_point(project):
    seen = _reachable(project)
    package = [name for name in project.modules if name.split(".")[0] == "repro"]
    unreached = sorted(set(package) - seen)
    assert not unreached, f"modules no entry point imports: {unreached}"


def test_entry_point_repro_imports_resolve(project):
    unresolved = []
    for module in _entry_modules(project):
        for node, source in _from_imports(module):
            if source.split(".")[0] != "repro":
                continue
            target = project.modules.get(source)
            if target is None:
                unresolved.append(f"{module.path}:{node.lineno}: no module {source}")
                continue
            exports = _lazy_exports(target)
            for alias in node.names:
                if not (
                    alias.name in target.bindings
                    or alias.name in exports
                    or f"{source}.{alias.name}" in project.modules
                ):
                    unresolved.append(
                        f"{module.path}:{node.lineno}: {source} has no {alias.name}"
                    )
    assert not unresolved, "\n".join(unresolved)


#: Owner of each audited knob set: keyword parameters of a function,
#: annotated fields of a config class.
KNOB_OWNERS = {
    "run_mr_skyline": "repro.core.mr_skyline",
    "compute_filter_points": "repro.core.filtering",
    "JobConf": "repro.mapreduce.job",
    "ServeConfig": "repro.serving.service",
}

#: Knobs no entry point sets, each with the reason it stays.
KNOB_ALLOWLIST = {
    "run_mr_skyline.block_rows": (
        "the chaos differential suite needs many map records on small inputs"
    ),
    "run_mr_skyline.prune_filter_k": (
        "tests run the filter stage under the scalar reference kernel, "
        "whose default turns it off"
    ),
    "run_mr_skyline.runner": (
        "the chaos suite passes a runner that carries a fault plan, and the "
        "driver tests one that holds a process pool"
    ),
    "compute_filter_points.sample": (
        "tests use small samples to reach the sampled path on small inputs"
    ),
}


def _knobs(project: Project) -> Dict[str, str]:
    """``owner.knob -> defining module`` for every audited knob."""
    knobs: Dict[str, str] = {}
    for owner, home in KNOB_OWNERS.items():
        node = project.modules[home].bindings[owner].node
        if isinstance(node, ast.FunctionDef):
            names = [arg.arg for arg in node.args.kwonlyargs]
        else:
            names = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
        assert names, f"{owner} has no knobs to audit"
        for name in names:
            knobs[f"{owner}.{name}"] = home
    return knobs


def _set_names(module: Module) -> Set[str]:
    """Names ``module`` passes as call keywords or stores as attributes."""
    found: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            found.update(kw.arg for kw in node.keywords if kw.arg is not None)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return found


def test_every_knob_is_set_by_an_entry_point(project):
    # A knob counts as set wherever its name is passed or stored, so a
    # knob only forwarded between modules passes: this finds the knobs
    # nothing names at all.
    knobs = _knobs(project)
    setters: Dict[str, Set[str]] = {}
    for name in _reachable(project):
        for knob in _set_names(project.modules[name]):
            setters.setdefault(knob, set()).add(name)
    unset = {
        knob
        for knob, home in knobs.items()
        if not setters.get(knob.split(".", 1)[1], set()) - {home}
    }
    assert not unset - set(KNOB_ALLOWLIST), (
        "knobs no entry point sets (delete them or allowlist them with a "
        f"reason): {sorted(unset - set(KNOB_ALLOWLIST))}"
    )
    stale = sorted(set(KNOB_ALLOWLIST) - unset)
    assert not stale, f"allowlisted knobs that are gone or now set: {stale}"


#: Public names no entry point uses, each with the reason it stays.
NAME_ALLOWLIST = {
    "repro.core.dominance.dominance_matrix": (
        "the O(n^2) oracle the dominated_mask tests check against"
    ),
    "repro.core.hyperspherical.from_hyperspherical": (
        "the inverse of Eq. 1, for the transform's round-trip tests"
    ),
    "repro.core.hyperspherical.to_hyperspherical": (
        "Eq. 1 in full: the oracle angle_columns is checked against bit for "
        "bit, and the forward half of the round trip"
    ),
    "repro.observability.events.set_events": (
        "tests/observability/conftest.py resets the process-wide event log"
    ),
    "repro.observability.metrics.set_metrics": (
        "tests/observability/conftest.py resets the process-wide registry"
    ),
    "repro.observability.sanitizer.active": (
        "tests/conftest.py reads the installed lock-order sanitizer"
    ),
}


def _public_defs(project: Project) -> Dict[str, ast.AST]:
    """``module.name -> node`` for every public module-level function and
    class under ``src/repro``."""
    defs: Dict[str, ast.AST] = {}
    for module in project.modules.values():
        if module.name.split(".")[0] != "repro":
            continue
        for node in module.tree.body:
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not node.name.startswith("_"):
                defs[f"{module.name}.{node.name}"] = node
    return defs


def _registered(node: ast.AST) -> bool:
    """Decorated with ``@register``: the rule packs register themselves."""
    return any(
        (isinstance(d, ast.Name) and d.id == "register")
        or (isinstance(d, ast.Attribute) and d.attr == "register")
        for d in getattr(node, "decorator_list", [])
    )


def _used_names(module: Module) -> Set[str]:
    """Names ``module`` loads, reads as attributes or imports; a package
    ``__init__``'s imports only re-export, so they are left out."""
    reexports = os.path.basename(module.path) == "__init__.py"
    found: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_is_used_by_an_entry_point(project):
    # Matched by name, like the knobs: this finds the names nothing
    # mentions at all, not every name that is only mentioned.
    used: Set[str] = set()
    for name in _reachable(project):
        used |= _used_names(project.modules[name])
    unused = {
        qualname
        for qualname, node in _public_defs(project).items()
        if qualname.rsplit(".", 1)[1] not in used and not _registered(node)
    }
    assert not unused - set(NAME_ALLOWLIST), (
        "public names no entry point uses (delete them or allowlist them "
        f"with a reason): {sorted(unused - set(NAME_ALLOWLIST))}"
    )
    stale = sorted(set(NAME_ALLOWLIST) - unused)
    assert not stale, f"allowlisted names that are gone or now used: {stale}"
