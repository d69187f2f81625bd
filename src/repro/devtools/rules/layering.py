"""Layering rules: the DESIGN.md §3 subsystem DAG, machine-enforced.

``LAYERS`` is the single source of truth for which ``repro`` subpackage
may import which.  It is a *whitelist*: an edge absent from the map is a
violation (LAY001), which subsumes the specific prohibitions called out
in DESIGN.md §3 — ``core`` imports nothing from ``pipeline``/``report``/
``webgen``/``traffic`` (indeed nothing at all), ``entities`` nothing
from ``webgen``, ``report`` nothing from ``pipeline``.  Cycles in the
*observed* import graph are always errors (LAY002), even between
packages whose individual edges are each allowed.

Root modules (``repro.cli``, ``repro.io``, ``repro.__main__``, the
top-level ``repro/__init__``) sit above the DAG and may import anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.registry import AnalysisContext, ModuleInfo, Rule, register

__all__ = ["LAYERS", "ImportCycleRule", "LayerViolationRule", "package_imports"]

# DESIGN.md §3 DAG: package -> packages it may import.  Leaves first.
LAYERS: dict[str, frozenset[str]] = {
    # Pure leaves: no intra-repro dependencies at all.
    "core": frozenset(),
    "entities": frozenset(),
    "devtools": frozenset(),
    # Fault tolerance: retry policy, run journal, fault injection.
    "resilience": frozenset(),
    # Formatting only; may render core analysis results.
    "report": frozenset({"core"}),
    # Traffic substrate: logs over entities, demand models over core curves.
    "traffic": frozenset({"core", "entities"}),
    # Storage of pages about entities.
    "crawl": frozenset({"core", "entities"}),
    # Corpus generation renders entities into a crawl store.
    "webgen": frozenset({"core", "entities", "crawl"}),
    # Extraction reads the crawl back into core incidence structures.
    "extract": frozenset({"core", "entities", "crawl"}),
    # Higher-level extensions compose extraction.
    "clustering": frozenset({"core", "entities", "crawl", "extract"}),
    "linking": frozenset({"core", "entities", "crawl", "extract"}),
    "discovery": frozenset({"core", "entities"}),
    # Performance layer: caches core artifacts, schedules runners with
    # the resilience layer's retry/fault machinery.
    "perf": frozenset({"core", "resilience"}),
    # Batch orchestration sits on top of everything below the serving
    # and CLI layers.
    "pipeline": frozenset(
        {
            "core",
            "entities",
            "crawl",
            "webgen",
            "extract",
            "clustering",
            "linking",
            "discovery",
            "traffic",
            "report",
            "perf",
            "resilience",
        }
    ),
    # Tiered query storage: compiles the pipeline's cache-aware
    # artifacts into CSR blobs the ram and mmap backends open.
    # Sits above `pipeline` (it replays the same builders) but below
    # `serve` — the storage tiers must never know about HTTP.
    "store": frozenset({"core", "perf", "pipeline", "resilience"}),
    # Online serving: read-optimized indices over the batch pipeline's
    # artifacts.  Allowed above `pipeline` and `store` — it is an
    # online *consumer* of the pipeline's cache-aware builders and the
    # storage tiers — and a sink: nothing below (only the root CLI)
    # may import it.
    "serve": frozenset({"core", "perf", "pipeline", "resilience", "store"}),
}


def package_imports(module: ModuleInfo) -> Iterator[tuple[str, int, int]]:
    """Yield (imported ``repro`` subpackage, line, col) for one module.

    Handles absolute imports (``import repro.core.graph``, ``from
    repro.core import graph``) and relative ones (``from ..core import
    graph``), resolving the latter against the module's own dotted name.
    """
    own = (module.module_name or "").split(".")
    for node in ast.walk(module.tree):
        packages: set[str] = set()
        if isinstance(node, ast.Import):
            for alias in node.names:
                packages.add(_subpackage_of(alias.name.split(".")))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                target = (node.module or "").split(".")
            else:
                if not own or own[0] != "repro":
                    continue
                # Drop the module's own leaf name (unless it *is* the
                # package __init__), then one component per extra level.
                base = own[:] if module.is_package else own[:-1]
                up = node.level - 1
                if up > len(base):
                    continue
                target = base[: len(base) - up]
                if node.module:
                    target = target + node.module.split(".")
            packages.add(_subpackage_of(target))
            # ``from repro import core`` / ``from . import extract``
            # name the subpackage in the alias list, not in the prefix.
            if target == ["repro"] or (node.level and not node.module):
                for alias in node.names:
                    packages.add(_subpackage_of(target + [alias.name]))
        else:
            continue
        for pkg in sorted(p for p in packages if p is not None):
            yield pkg, node.lineno, node.col_offset


def _subpackage_of(parts: list[str]) -> str | None:
    """Map a dotted-name split to its ``repro`` subpackage, if any."""
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


@register
class LayerViolationRule(Rule):
    """LAY001: an import edge not present in the DESIGN §3 DAG."""

    rule_id = "LAY001"
    summary = "import breaches the DESIGN.md §3 layering DAG"
    scope = "project"

    def check_project(
        self, modules: list[ModuleInfo], context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Check every intra-``repro`` import edge against ``LAYERS``."""
        for module in modules:
            source_pkg = module.package
            if source_pkg is None:
                continue  # root modules sit above the DAG
            allowed = LAYERS.get(source_pkg)
            if allowed is None:
                continue
            for target_pkg, line, col in package_imports(module):
                if target_pkg == source_pkg or target_pkg in allowed:
                    continue
                yield Finding(
                    module.relpath,
                    line,
                    col,
                    self.rule_id,
                    f"`{source_pkg}` may not import `{target_pkg}` "
                    f"(allowed: {sorted(allowed) or 'nothing'}); "
                    "see DESIGN.md §3 and docs/static_analysis.md",
                )


@register
class ImportCycleRule(Rule):
    """LAY002: a cycle in the observed package import graph."""

    rule_id = "LAY002"
    summary = "cycle in the subsystem import graph"
    scope = "project"

    def check_project(
        self, modules: list[ModuleInfo], context: AnalysisContext | None = None
    ) -> Iterator[Finding]:
        """Detect strongly-connected components among subpackages."""
        edges: dict[str, set[str]] = {}
        witness: dict[tuple[str, str], tuple[str, int]] = {}
        for module in modules:
            source_pkg = module.package
            if source_pkg is None:
                continue
            for target_pkg, line, _col in package_imports(module):
                if target_pkg == source_pkg:
                    continue
                edges.setdefault(source_pkg, set()).add(target_pkg)
                witness.setdefault((source_pkg, target_pkg), (module.relpath, line))
        for cycle in _find_cycles(edges):
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            relpath, line = witness.get(first_edge, ("<project>", 1))
            pretty = " -> ".join(cycle + (cycle[0],))
            yield Finding(
                relpath,
                line,
                0,
                self.rule_id,
                f"import cycle between subsystems: {pretty}",
            )


def _find_cycles(edges: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Strongly-connected components of size > 1, as sorted tuples.

    Iterative Tarjan over the package graph (a dozen nodes, so clarity
    beats cleverness); returns components in deterministic order.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[tuple[str, ...]] = []
    nodes = sorted(set(edges) | {t for ts in edges.values() for t in ts})

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(edges.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(tuple(sorted(component)))

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return sorted(components)
