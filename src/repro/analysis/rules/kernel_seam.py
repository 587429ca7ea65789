"""kernel-seam: dominance comparisons must route through the kernel seam.

:mod:`repro.core.kernels` is the single switch point between the scalar
reference backend and the columnar block backend (``--kernel`` /
``$REPRO_KERNEL``).  A hot path that calls the raw primitives of
:mod:`repro.core.dominance` directly is pinned to point-at-a-time
semantics: it ignores the selected backend, its comparisons never reach
the per-stage ``dominance_tests`` accounting the kernels thread through
:class:`~repro.core.dominance.DominanceCounter`, and the differential
parity suite cannot exercise it under both backends.

Flagged: any call to ``dominates`` / ``dominates_any`` /
``dominated_by_any`` / ``dominance_matrix`` / ``dominated_mask`` whose
name is imported from ``repro.core.dominance`` (directly or via the
module object).  Importing the names is fine — re-exports and type
references don't compare anything — only call sites are findings.

Legitimate direct use exists and is pragma'd, with the reason on the
line: the scalar kernel *is* the reference implementation
(``repro.core.kernels``), and the brute-force oracles
(``skyline_numpy``, D&C's base case) are deliberately kernel-independent
cross-checks.  Suppress such a site with ``# repro: allow[kernel-seam]``
and say why.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project

#: The dominance-comparison primitives the kernels wrap.
_PRIMITIVES = frozenset(
    {
        "dominates",
        "dominates_any",
        "dominated_by_any",
        "dominance_matrix",
        "dominated_mask",
    }
)

#: The module that owns the primitives (its own code may call them freely).
_DOMINANCE_MODULE = "repro.core.dominance"


@register
class KernelSeamRule(Rule):
    """Hot paths must compare through DominanceKernel, not raw primitives."""

    id = "kernel-seam"

    def check_module(self, module: Module, project: Project) -> Iterator[Finding]:
        if module.name == _DOMINANCE_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            primitive = _primitive_called(module, node)
            if primitive is not None:
                yield self.finding(
                    module,
                    node,
                    f"direct call to repro.core.dominance.{primitive}() "
                    "bypasses the kernel seam: route it through "
                    "repro.core.kernels.DominanceKernel (get_kernel) so the "
                    "--kernel backend selection and dominance_tests "
                    "accounting apply",
                )


def _primitive_called(module: Module, call: ast.Call) -> str | None:
    """The primitive's name when ``call`` invokes one from the dominance
    module through this module's imports; ``None`` otherwise."""
    func = call.func
    if isinstance(func, ast.Name):
        binding = module.bindings.get(func.id)
        if (
            binding is not None
            and binding.kind == "import"
            and binding.module == _DOMINANCE_MODULE
            and binding.orig_name in _PRIMITIVES
        ):
            return binding.orig_name
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.attr not in _PRIMITIVES:
            return None
        binding = module.bindings.get(func.value.id)
        if binding is None or binding.kind != "import":
            return None
        target = binding.module
        if binding.orig_name:
            target = f"{binding.module}.{binding.orig_name}"
        if target == _DOMINANCE_MODULE:
            return func.attr
    return None
