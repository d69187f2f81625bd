"""Storage rules (``STORE001``).

The crawl page store (:class:`repro.crawl.store.SqlitePageStore`)
queries SQLite with caller-derived values (host names, URLs, page
bodies).  Its one hard invariant: SQL text handed to
``execute``/``executemany``/``executescript`` must be a *constant* —
parameters travel through ``?`` placeholders, never through string
interpolation.  Interpolated SQL is an injection surface the moment an
outside value reaches it, and it also breaks SQLite's statement cache
(every distinct string is a fresh parse).

The rule is syntactic and conservative: it fires on f-strings,
``%``/``+`` expressions, ``.format(...)`` calls, and ``str.join``
results in the SQL argument position.  Building a statement from
constants still trips it — by design: keep every statement a literal
and pass variable parts as parameters.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.registry import AnalysisContext, ModuleInfo, Rule, register

__all__ = ["InterpolatedSqlRule"]

_EXECUTE_METHODS = ("execute", "executemany", "executescript")


def _interpolation_kind(node: ast.expr) -> str | None:
    """How the expression interpolates, or None for safe shapes."""
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return "% formatting"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        # Literal + literal is still constant SQL; anything else in a
        # concatenation (a name, a call, an f-string piece) is not.
        if _is_constant_sql(node):
            return None
        return "+ concatenation"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "format":
            return ".format() call"
        if node.func.attr == "join":
            return "str.join result"
    return None


def _is_constant_sql(node: ast.expr) -> bool:
    """True for string literals and concatenations of string literals."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_constant_sql(node.left) and _is_constant_sql(node.right)
    return False


@register
class InterpolatedSqlRule(Rule):
    """STORE001: interpolated SQL passed to an ``execute`` method."""

    rule_id = "STORE001"
    summary = "interpolated SQL; use constant statements with ? placeholders"

    def check_module(
        self, module: ModuleInfo, context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Flag non-constant first arguments to execute-family methods."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _EXECUTE_METHODS
            ):
                continue
            if not node.args:
                continue
            sql = node.args[0]
            kind = _interpolation_kind(sql)
            if kind is None:
                continue
            yield Finding(
                module.relpath,
                sql.lineno,
                sql.col_offset,
                self.rule_id,
                f"SQL built by {kind} reaches .{func.attr}(); statements "
                "must be constant strings with `?` placeholders — "
                "interpolation is an injection surface and defeats the "
                "statement cache (see docs/static_analysis.md)",
            )
