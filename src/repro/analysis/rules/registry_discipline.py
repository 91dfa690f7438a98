"""registry-discipline: go through the registry getters, not its tables.

:mod:`repro.algorithms.registry` exposes ``get_solver`` / ``get_sweep``
/ ``get_engine_solver`` accessors that validate keys and produce
helpful errors.  Subscripting the underlying ``SOLVERS`` / ``SWEEPS`` /
``ENGINE_KERNELS`` / ``BACKENDS`` tables directly skips that validation
(iterating the tables for discovery is fine, and is what the CI
registry smoke does).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Module, Rule, register

__all__ = ["RegistryDiscipline", "TABLES", "ALLOWED_MODULE"]

#: Registry tables that must not be subscripted outside the registry.
TABLES = frozenset({"SOLVERS", "SWEEPS", "ENGINE_KERNELS", "BACKENDS"})

#: The registry module itself, exempt from the check.
ALLOWED_MODULE = "repro.algorithms.registry"


def _subscripted_table(node: ast.Subscript) -> str | None:
    value = node.value
    if isinstance(value, ast.Name) and value.id in TABLES:
        return value.id
    if isinstance(value, ast.Attribute) and value.attr in TABLES:
        return value.attr
    return None


@register
class RegistryDiscipline(Rule):
    """Flag raw registry-table subscripts outside the registry."""

    name = "registry-discipline"
    description = "use registry getters, not raw table subscripts"

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield one finding per offending subscript."""
        if module.name == ALLOWED_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Subscript):
                continue
            table = _subscripted_table(node)
            if table is None or module.is_suppressed(node.lineno, self.name):
                continue
            yield self.finding(
                module,
                node,
                f"direct subscript of registry table {table}; use "
                "the registry getters (get_solver, get_sweep, ...)",
            )
