"""Hot-path performance rules (``PERF001``–``PERF004``).

The analysis kernels in ``repro.core`` sit inside every experiment's
inner loop, so a quadratic idiom there multiplies across the whole
pipeline.  These rules flag the four patterns that have actually cost
us wall-clock:

- membership tests against a *list* inside a loop (linear scan per
  iteration — use a set);
- ``numpy`` array concatenation inside a loop (reallocates and copies
  the whole accumulated array every iteration — collect chunks and
  concatenate once);
- index-counting loops (``for i in range(len(x))`` and friends), which
  almost always mark a per-row Python loop over array data that a
  vectorized expression should replace;
- a plain ``np.unique(x)``, which numpy >= 2.3 answers through a hash
  table and then sorts: several times slower on integer arrays than
  the one sort of ``repro.core.incidence.sorted_unique``.

They are advisory by nature, so the pyproject per-path config enables
them only where vectorization is the contract (``src/repro/core``;
``PERF004`` also for the corpus and traffic generators).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.astutil import collect_import_aliases, resolve_name
from repro.devtools.findings import Finding
from repro.devtools.registry import AnalysisContext, ModuleInfo, Rule, register

__all__ = [
    "IndexCountingLoopRule",
    "ListMembershipInLoopRule",
    "NumpyConcatInLoopRule",
    "PlainNumpyUniqueRule",
]

# numpy calls that copy the full accumulated array on every call; inside
# a loop each makes the build quadratic.
_NP_GROWERS = frozenset(
    {
        "numpy.concatenate",
        "numpy.append",
        "numpy.vstack",
        "numpy.hstack",
        "numpy.row_stack",
        "numpy.column_stack",
    }
)


def _loop_bodies(tree: ast.AST) -> Iterator[ast.AST]:
    """Yield every statement nested inside a ``for``/``while`` body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in node.body + node.orelse:
                yield from ast.walk(child)


def _list_valued_names(tree: ast.AST) -> frozenset[str]:
    """Names assigned from an expression that is statically a list."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not _is_list_expression(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _is_list_expression(node: ast.expr) -> bool:
    """True for list displays, list comprehensions, and ``list(...)``."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "list"
    )


@register
class ListMembershipInLoopRule(Rule):
    """PERF001: ``x in some_list`` inside a loop; use a set."""

    rule_id = "PERF001"
    summary = "list-membership test inside a loop (linear scan); use a set"

    def check_module(
        self, module: ModuleInfo, context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Flag ``in``/``not in`` against statically-known lists in loops."""
        list_names = _list_valued_names(module.tree)
        seen: set[tuple[int, int]] = set()
        for node in _loop_bodies(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if _is_list_expression(comparator):
                    described = "a list literal"
                elif (
                    isinstance(comparator, ast.Name)
                    and comparator.id in list_names
                ):
                    described = f"list `{comparator.id}`"
                else:
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    self.rule_id,
                    f"membership test against {described} inside a loop "
                    "scans the list every iteration; build a set once",
                )


@register
class NumpyConcatInLoopRule(Rule):
    """PERF002: array concatenation inside a loop is quadratic."""

    rule_id = "PERF002"
    summary = "numpy concatenate/append inside a loop; batch and join once"

    def check_module(
        self, module: ModuleInfo, context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Flag ``np.concatenate``-family calls nested in loop bodies."""
        aliases = collect_import_aliases(module.tree)
        seen: set[tuple[int, int]] = set()
        for node in _loop_bodies(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_name(node.func, aliases)
            if target not in _NP_GROWERS:
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                self.rule_id,
                f"`{target}` inside a loop copies the whole array every "
                "iteration; append chunks to a list and join once after",
            )


@register
class IndexCountingLoopRule(Rule):
    """PERF003: ``for i in range(len(x))`` marks a per-row Python loop."""

    rule_id = "PERF003"
    summary = "index-counting loop over array data; vectorize or enumerate"

    def check_module(
        self, module: ModuleInfo, context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Flag ``range(len(x))`` / ``range(x.shape[...])`` loop iterators."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            call = node.iter
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"
                and len(call.args) == 1
            ):
                continue
            arg = call.args[0]
            if _is_len_call(arg):
                shape = "range(len(...))"
            elif _is_shape_subscript(arg):
                shape = "range(x.shape[...])"
            else:
                continue
            yield Finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                self.rule_id,
                f"`for ... in {shape}` usually means a per-row Python loop; "
                "vectorize the body, or use enumerate()/zip() if indices "
                "are genuinely needed",
            )


# np.unique keywords that ask for more than the sorted distinct values
# (the first three take numpy's sort path; axis asks for unique rows).
_UNIQUE_EXTRAS = frozenset(
    {"return_index", "return_inverse", "return_counts", "axis"}
)


@register
class PlainNumpyUniqueRule(Rule):
    """PERF004: plain ``np.unique(x)``; use ``sorted_unique``."""

    rule_id = "PERF004"
    summary = "plain numpy.unique (hash-based on numpy >= 2.3); use sorted_unique"

    def check_module(
        self, module: ModuleInfo, context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Flag ``np.unique(x)`` calls that ask only for the distinct values."""
        aliases = collect_import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and resolve_name(node.func, aliases) == "numpy.unique"
                and _is_plain_unique(node)
            ):
                continue
            yield Finding(
                module.relpath,
                node.lineno,
                node.col_offset,
                self.rule_id,
                "plain `numpy.unique` hashes and then sorts on numpy >= 2.3; "
                "for an integer array use "
                "`repro.core.incidence.sorted_unique` (one sort)",
            )


def _is_plain_unique(call: ast.Call) -> bool:
    """True when a ``np.unique`` call asks only for the distinct values.

    Extra positional arguments, ``*args``/``**kwargs`` and any of
    ``_UNIQUE_EXTRAS`` (unless a literal False or None) make it not
    plain: the call may want indices, counts or rows.
    """
    if len(call.args) != 1 or isinstance(call.args[0], ast.Starred):
        return False
    for keyword in call.keywords:
        if keyword.arg is None:
            return False
        if keyword.arg in _UNIQUE_EXTRAS and not (
            isinstance(keyword.value, ast.Constant)
            and (keyword.value.value is False or keyword.value.value is None)
        ):
            return False
    return True


def _is_len_call(node: ast.expr) -> bool:
    """True for ``len(anything)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    )


def _is_shape_subscript(node: ast.expr) -> bool:
    """True for ``x.shape[...]`` subscripts."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "shape"
    )
