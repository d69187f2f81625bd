"""Symbol table for the concurrency analysis (the CONC rule family).

One pass over a parsed module produces a :class:`ModuleSummary`: every
function and method summarised as the facts the CONC rules need —
``self.<attr>`` write/touch sites with the set of locks lexically held,
``with <lock>:`` regions, call edges (``self.m()`` / bare / duck-typed
``obj.m()``), thread/process spawn sites, blocking calls made while
holding a lock, and fork-unsafe resource creations flowing into
instance attributes.

Nested functions and lambdas are scanned as separate summaries with an
*empty* held-lock set: they execute later (on an executor, as a thread
target), not under the locks held at their definition site, so a
closure defined inside ``with self._lock:`` raises no false positive.

``# guarded-by: <lock>`` comments are collected per line so the lock
model can honour explicit guard annotations in addition to inference.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize

from repro.devtools.astutil import collect_import_aliases, dotted_name, resolve_name
from repro.devtools.registry import ModuleInfo

__all__ = [
    "AttrSite",
    "BlockSite",
    "ClassSummary",
    "FunctionSummary",
    "GlobalSite",
    "ModuleSummary",
    "SpawnSite",
    "summarize_module",
]

# Constructors whose result is a with-able mutual-exclusion guard.
_LOCK_CONSTRUCTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}

# Constructors whose result must not cross an os.fork() boundary: the
# child inherits the raw state (lock word, fd, worker pool) without the
# threads/processes that service it.  Values are human-readable kinds.
_FORK_UNSAFE_CONSTRUCTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "socket.socket": "socket",
    "socket.socketpair": "socket",
    "socket.create_connection": "socket",
    "concurrent.futures.ThreadPoolExecutor": "executor",
    "concurrent.futures.ProcessPoolExecutor": "executor",
    "mmap.mmap": "mmap",
}

# Calls that can sleep indefinitely; holding a lock across one turns
# every other thread contending for that lock into a convoy.
_BLOCKING_CALLS = {
    "time.sleep",
    "socket.create_connection",
    "select.select",
    "subprocess.run",
    "subprocess.check_call",
    "subprocess.check_output",
}
_BLOCKING_METHODS = {
    "accept",
    "recv",
    "recvfrom",
    "recv_into",
    "sendall",
    "connect",
    "join",
    "wait",
    "result",
}
# Dotted prefixes whose methods shadow blocking names but never block.
_BLOCKING_EXEMPT_PREFIXES = ("os.path.", "posixpath.", "ntpath.", "str.")

# Method calls that mutate their receiver in place: a write for CONC001.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>[\w.]+)")


@dataclasses.dataclass
class AttrSite:
    """One use of ``self.<attr>`` with the locks lexically held there."""

    attr: str
    lineno: int
    col: int
    kind: str  # "write" or "touch"
    held: tuple[str, ...]


@dataclasses.dataclass
class GlobalSite:
    """One write to a module-level name from inside a function."""

    name: str
    lineno: int
    col: int
    held: tuple[str, ...]


@dataclasses.dataclass
class BlockSite:
    """A potentially-blocking call made while at least one lock is held."""

    call: str
    lineno: int
    col: int
    held: tuple[str, ...]


@dataclasses.dataclass
class SpawnSite:
    """A thread/process/executor hand-off to a callable."""

    kind: str  # "thread", "process" or "submit"
    target: tuple[str, str] | None  # ("self"|"bare", name), None if opaque
    lineno: int


@dataclasses.dataclass
class FunctionSummary:
    """Concurrency-relevant facts about one function or method."""

    name: str
    qualname: str
    lineno: int
    class_name: str | None
    writes: list[AttrSite] = dataclasses.field(default_factory=list)
    touches: list[AttrSite] = dataclasses.field(default_factory=list)
    global_writes: list[GlobalSite] = dataclasses.field(default_factory=list)
    blocking: list[BlockSite] = dataclasses.field(default_factory=list)
    calls: set[tuple[str, str]] = dataclasses.field(default_factory=set)
    spawns: list[SpawnSite] = dataclasses.field(default_factory=list)
    unsafe_creates: dict[str, tuple[str, int]] = dataclasses.field(default_factory=dict)
    nested: list["FunctionSummary"] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ClassSummary:
    """A class and its per-method summaries."""

    name: str
    lineno: int
    methods: dict[str, FunctionSummary] = dataclasses.field(default_factory=dict)
    lock_attrs: set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class ModuleSummary:
    """Everything the CONC rules need to know about one module."""

    relpath: str
    functions: dict[str, FunctionSummary] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassSummary] = dataclasses.field(default_factory=dict)
    annotations: dict[int, str] = dataclasses.field(default_factory=dict)
    module_globals: set[str] = dataclasses.field(default_factory=set)
    module_locks: set[str] = dataclasses.field(default_factory=set)


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Build the per-module concurrency summary."""
    aliases = collect_import_aliases(module.tree)
    summary = ModuleSummary(
        relpath=module.relpath,
        annotations=_guard_annotations(module.source),
    )
    for node in module.tree.body:
        for target in _assigned_names(node):
            summary.module_globals.add(target)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            ctor = resolve_name(node.value.func, aliases)
            if ctor in _LOCK_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        summary.module_locks.add(target.id)
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scanner = _Scanner(aliases, summary, class_name=None, lock_attrs=set())
            summary.functions[node.name] = scanner.scan(node, node.name)
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _summarize_class(node, aliases, summary)
    return summary


def _summarize_class(
    node: ast.ClassDef, aliases: dict[str, str], summary: ModuleSummary
) -> ClassSummary:
    """Summarise one class: lock attributes first, then every method."""
    cls = ClassSummary(name=node.name, lineno=node.lineno)
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)):
            continue
        ctor = resolve_name(sub.value.func, aliases)
        if ctor not in _LOCK_CONSTRUCTORS:
            continue
        for target in sub.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.lock_attrs.add(target.attr)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scanner = _Scanner(
                aliases, summary, class_name=node.name, lock_attrs=cls.lock_attrs
            )
            cls.methods[item.name] = scanner.scan(item, f"{node.name}.{item.name}")
    return cls


def _assigned_names(node: ast.stmt):
    """Top-level names bound by an assignment statement."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    yield elt.id


def _guard_annotations(source: str) -> dict[int, str]:
    """Map line numbers to the lock named by a ``# guarded-by:`` comment."""
    annotations: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _GUARDED_BY.search(token.string)
            if match:
                annotations[token.start[0]] = match.group("lock")
    except tokenize.TokenError:
        pass
    return annotations


class _Scanner:
    """Walks one function body tracking the lexically-held lock set."""

    def __init__(
        self,
        aliases: dict[str, str],
        module: ModuleSummary,
        class_name: str | None,
        lock_attrs: set[str],
    ) -> None:
        self._aliases = aliases
        self._module = module
        self._class_name = class_name
        self._lock_attrs = lock_attrs
        self._local_locks: set[str] = set()
        self._self_name: str | None = None
        self._globals: set[str] = set()
        self._fn: FunctionSummary | None = None
        self._unsafe_locals: dict[str, str] = {}

    def scan(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> FunctionSummary:
        """Produce the summary for ``node`` (and its nested functions)."""
        self._fn = FunctionSummary(
            name=node.name,
            qualname=qualname,
            lineno=node.lineno,
            class_name=self._class_name,
        )
        args = node.args.posonlyargs + node.args.args
        if self._class_name is not None and args:
            self._self_name = args[0].arg
        for sub in self._walk_own(node):
            if isinstance(sub, ast.Global):
                self._globals.update(sub.names)
        self._scan_stmts(node.body, held=())
        return self._fn

    # -- statement walk -------------------------------------------------

    def _scan_stmts(self, stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
        fn = self._fn
        assert fn is not None
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Runs later, not under the locks held here.
                self._scan_nested(stmt, f"{fn.qualname}.<locals>.{stmt.name}")
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                new_held = held
                for item in stmt.items:
                    self._scan_expr(item.context_expr, held)
                    key = self._lock_key(item.context_expr)
                    if key is not None and key not in new_held:
                        new_held = new_held + (key,)
                self._scan_stmts(stmt.body, new_held)
                continue
            self._scan_stmt(stmt, held)
            for field in ("body", "orelse", "finalbody"):
                body = getattr(stmt, field, None)
                if body:
                    self._scan_stmts(body, held)
            for handler in getattr(stmt, "handlers", []):
                self._scan_stmts(handler.body, held)

    def _scan_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, ast.Assign):
            self._record_assign(stmt, held)
            for target in stmt.targets:
                self._record_store(target, held)
            self._scan_expr(stmt.value, held)
            for target in stmt.targets:
                self._scan_expr(target, held)
        elif isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, held)
            self._scan_expr(stmt.value, held)
            self._scan_expr(stmt.target, held)
        elif isinstance(stmt, ast.AnnAssign):
            self._record_store(stmt.target, held)
            if stmt.value is not None:
                self._scan_expr(stmt.value, held)
            self._scan_expr(stmt.target, held)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_store(target, held)
                self._scan_expr(target, held)
        else:
            for field, value in ast.iter_fields(stmt):
                if field in ("body", "orelse", "finalbody", "handlers"):
                    continue
                if isinstance(value, ast.expr):
                    self._scan_expr(value, held)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.expr):
                            self._scan_expr(item, held)

    # -- expression walk ------------------------------------------------

    def _scan_expr(self, expr: ast.expr, held: tuple[str, ...]) -> None:
        fn = self._fn
        assert fn is not None
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                self._scan_nested(node, f"{fn.qualname}.<locals>.<lambda>")
                continue
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == self._self_name
                ):
                    fn.touches.append(
                        AttrSite(node.attr, node.lineno, node.col_offset, "touch", held)
                    )
            elif isinstance(node, ast.Call):
                self._record_call(node, held)
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    def _scan_nested(self, node: ast.AST, qualname: str) -> None:
        """Scan a nested def/lambda as its own later-running summary."""
        fn = self._fn
        assert fn is not None
        scanner = _Scanner(
            self._aliases, self._module, self._class_name, self._lock_attrs
        )
        scanner._self_name = self._self_name  # closures share the method's self
        scanner._local_locks = set(self._local_locks)
        if isinstance(node, ast.Lambda):
            nested = FunctionSummary(
                name="<lambda>",
                qualname=qualname,
                lineno=node.lineno,
                class_name=self._class_name,
            )
            scanner._fn = nested
            scanner._scan_expr(node.body, held=())
        else:
            nested = scanner.scan(node, qualname)  # type: ignore[arg-type]
        fn.nested.append(nested)

    # -- site recording -------------------------------------------------

    def _record_store(self, target: ast.expr, held: tuple[str, ...]) -> None:
        fn = self._fn
        assert fn is not None
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, held)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, held)
            return
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == self._self_name
        ):
            fn.writes.append(
                AttrSite(base.attr, target.lineno, target.col_offset, "write", held)
            )
        elif isinstance(base, ast.Name):
            name = base.id
            is_global = name in self._globals
            # Subscript stores mutate module state even without `global`.
            mutates = isinstance(target, ast.Subscript) and (
                name in self._module.module_globals
            )
            if is_global or mutates:
                fn.global_writes.append(
                    GlobalSite(name, target.lineno, target.col_offset, held)
                )

    def _record_assign(self, stmt: ast.Assign, held: tuple[str, ...]) -> None:
        """Track lock locals and fork-unsafe resource flow into attrs."""
        fn = self._fn
        assert fn is not None
        value = stmt.value
        ctor_kind: str | None = None
        if isinstance(value, ast.Call):
            resolved = resolve_name(value.func, self._aliases)
            if resolved in _LOCK_CONSTRUCTORS:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._local_locks.add(target.id)
            ctor_kind = _FORK_UNSAFE_CONSTRUCTORS.get(resolved or "")
        unsafe_source: str | None = ctor_kind
        if (
            unsafe_source is None
            and isinstance(value, ast.Name)
            and value.id in self._unsafe_locals
        ):
            unsafe_source = self._unsafe_locals[value.id]
        if unsafe_source is None:
            return
        for target in stmt.targets:
            elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for elt in elts:
                if isinstance(elt, ast.Name):
                    self._unsafe_locals[elt.id] = unsafe_source
                elif (
                    isinstance(elt, ast.Attribute)
                    and isinstance(elt.value, ast.Name)
                    and elt.value.id == self._self_name
                ):
                    fn.unsafe_creates.setdefault(
                        elt.attr, (unsafe_source, elt.lineno)
                    )

    def _record_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        fn = self._fn
        assert fn is not None
        func = node.func
        resolved = resolve_name(func, self._aliases)
        # Call-graph edge.
        if isinstance(func, ast.Name):
            fn.calls.add(("bare", func.id))
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == self._self_name:
                fn.calls.add(("self", func.attr))
            else:
                fn.calls.add(("attr", func.attr))
        # Thread / process / executor hand-off.
        spawn_kind: str | None = None
        target_expr: ast.expr | None = None
        if resolved is not None and (
            resolved == "threading.Thread" or resolved.endswith(".Thread")
        ):
            spawn_kind = "thread"
            target_expr = _keyword(node, "target")
        elif (
            resolved is not None and resolved.endswith(".Process")
        ) or (isinstance(func, ast.Attribute) and func.attr == "Process"):
            spawn_kind = "process"
            target_expr = _keyword(node, "target")
        elif isinstance(func, ast.Attribute) and func.attr == "submit" and node.args:
            spawn_kind = "submit"
            target_expr = node.args[0]
        if spawn_kind is not None:
            fn.spawns.append(
                SpawnSite(spawn_kind, self._callable_spec(target_expr), node.lineno)
            )
        # Mutation through a method call is a write to the receiver.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            receiver = func.value
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == self._self_name
            ):
                fn.writes.append(
                    AttrSite(
                        receiver.attr, node.lineno, node.col_offset, "write", held
                    )
                )
                # append(unsafe_local) makes the container fork-unsafe too.
                for arg in node.args:
                    kind = self._unsafe_kind(arg)
                    if kind is not None:
                        fn.unsafe_creates.setdefault(
                            receiver.attr, (kind, node.lineno)
                        )
            elif (
                isinstance(receiver, ast.Name)
                and receiver.id in self._module.module_globals
            ):
                fn.global_writes.append(
                    GlobalSite(receiver.id, node.lineno, node.col_offset, held)
                )
        # Blocking call while holding a lock.
        if held:
            blocking = self._blocking_repr(node, resolved)
            if blocking is not None:
                fn.blocking.append(
                    BlockSite(blocking, node.lineno, node.col_offset, held)
                )

    def _unsafe_kind(self, expr: ast.expr) -> str | None:
        """Fork-unsafe kind of an expression, if statically known."""
        if isinstance(expr, ast.Name):
            return self._unsafe_locals.get(expr.id)
        if isinstance(expr, ast.Call):
            resolved = resolve_name(expr.func, self._aliases)
            return _FORK_UNSAFE_CONSTRUCTORS.get(resolved or "")
        return None

    def _callable_spec(self, expr: ast.expr | None) -> tuple[str, str] | None:
        if expr is None:
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self._self_name
        ):
            return ("self", expr.attr)
        if isinstance(expr, ast.Name):
            return ("bare", expr.id)
        return None

    def _blocking_repr(self, node: ast.Call, resolved: str | None) -> str | None:
        if resolved in _BLOCKING_CALLS:
            return resolved
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _BLOCKING_METHODS:
            return None
        if isinstance(func.value, ast.Constant):
            return None  # ", ".join(...) and friends
        if resolved is not None and resolved.startswith(_BLOCKING_EXEMPT_PREFIXES):
            return None
        return resolved if resolved is not None else f"*.{func.attr}"

    # -- lock identification --------------------------------------------

    def _lock_key(self, expr: ast.expr) -> str | None:
        """Canonical name of a lock-like ``with`` context, else None."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root == self._self_name and self._self_name is not None:
            dotted = "self." + rest if rest else "self"
        if dotted.startswith("self.") and dotted[len("self."):] in self._lock_attrs:
            return dotted
        if dotted in self._local_locks or dotted in self._module.module_locks:
            return dotted
        last = dotted.rsplit(".", 1)[-1].lower()
        if "lock" in last or "mutex" in last:
            return dotted
        return None

    @staticmethod
    def _walk_own(node: ast.AST):
        """Walk a function body without descending into nested defs."""
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            yield child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(child))


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name``, if present."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None
