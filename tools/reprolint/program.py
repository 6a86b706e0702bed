"""Whole-program index: symbol table, import graph, call graph.

Per-file AST rules cannot see a pool worker in one module read a
global of another module three call hops away, so the whole-program
rules (RL203, and the dataflow rules' interprocedural effects) run
against this layer instead: a :class:`ProgramIndex` built once per
lint run over every ``*.py`` under the configured program roots
(``src/`` here).

The index is deliberately a *cheap, sound-enough* static model, not an
interpreter:

* **Symbols** — every module-level function and class gets a stable
  key (``module:Qual.name``), methods hang off :class:`ClassInfo`.
* **Types** — attribute and local types are inferred only from the
  places this codebase actually declares them: annotated parameters
  (``state: OnlineValidState``), ``self.x = ClassName(...)``
  constructor calls, ``self.x = <annotated param>``, class-body
  annotations, and project-function return annotations.  ``X | None``
  and ``Optional[X]`` unwrap to ``X``.
* **Calls** — each :class:`CallSite` resolves to a project function
  key when the receiver's type is known (``self.online.run`` →
  ``OnlineClassifier.run``), otherwise records the dotted external
  name (``os.replace``); :meth:`ProgramIndex.closure` walks the
  project edges transitively.

Unresolvable dynamism (getattr, monkeypatching, containers of
callables) is simply absent from the graph — the rules built on top
are tuned so that missing edges make them quieter, never noisier.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
from dataclasses import dataclass, field

from tools.reprolint.checks._astutil import import_map, resolve_call_name
from tools.reprolint.context import LintConfig

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramIndex",
    "build_index",
]


@dataclass
class CallSite:
    """One call expression inside a function body."""

    #: Project function key the call resolves to ('' when external).
    callee: str
    #: Dotted external name when the target is not project code
    #: (``os.replace``, ``pickle.dumps``, …); '' when resolved.
    external: str
    line: int
    col: int
    #: The AST call node (rules inspect arguments, e.g. ``initargs=``).
    node: ast.Call


@dataclass
class FunctionInfo:
    """One function or method, with its calls."""

    key: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Owning class key, or '' for module-level functions.
    cls: str = ""
    calls: list[CallSite] = field(default_factory=list)
    #: Module-global names read (Load) anywhere in the body.
    global_reads: set[str] = field(default_factory=set)
    #: Names of functions/classes defined *inside* this function.
    nested_defs: set[str] = field(default_factory=set)
    #: Project class key the return annotation names, or ''.
    returns: str = ""
    #: Annotated parameter name → project class key.
    param_types: dict[str, str] = field(default_factory=dict)
    is_property: bool = False


@dataclass
class ClassInfo:
    """One module-level class: methods and attribute types."""

    key: str
    module: str
    name: str
    node: ast.ClassDef
    #: Base classes as project class keys or dotted external names.
    bases: tuple[str, ...] = ()
    #: Method name → function key.
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name → project class key (where inferable).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module under the program roots."""

    name: str
    rel: str
    tree: ast.Module
    sha256: str
    #: Local alias → dotted origin (``mp`` → ``multiprocessing``).
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level function name → function key.
    functions: dict[str, str] = field(default_factory=dict)
    #: Module-level class name → class key.
    classes: dict[str, str] = field(default_factory=dict)
    #: Module-level simple-assigned names.
    module_assigns: set[str] = field(default_factory=set)
    #: Names rebound via ``global`` inside functions (mutable state).
    global_decls: set[str] = field(default_factory=set)
    #: Contents of the worker-global registry tuple, or None when the
    #: module declares none.
    registry: set[str] | None = None
    #: Project module names this module imports.
    project_imports: set[str] = field(default_factory=set)

    @property
    def mutable_globals(self) -> set[str]:
        """Module globals both assigned at top level and rebound via
        ``global`` — the worker-global surface RL203 polices."""
        return self.module_assigns & self.global_decls


def _module_name(rel: str, program_roots: tuple[str, ...]) -> str:
    """``src/repro/core/classifier.py`` → ``repro.core.classifier``."""
    parts = pathlib.PurePosixPath(rel).with_suffix("").parts
    for root in program_roots:
        root_parts = pathlib.PurePosixPath(root).parts
        if parts[: len(root_parts)] == root_parts:
            parts = parts[len(root_parts):]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_name(node: ast.expr | None) -> str:
    """Best-effort dotted name an annotation expression denotes.

    Unwraps ``Optional[X]``, ``X | None`` and string annotations;
    returns '' for anything it cannot name (unions of two real types,
    generics over containers, …).
    """
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _annotation_name(node.value)
        return f"{base}.{node.attr}" if base else ""
    if isinstance(node, ast.Subscript):
        head = _annotation_name(node.value)
        if head.split(".")[-1] == "Optional":
            return _annotation_name(node.slice)
        return ""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        right = _annotation_name(node.right)
        if left in ("", "None"):
            return right
        if right in ("", "None"):
            return left
        return ""
    return ""


class ProgramIndex:
    """The linked whole-program model (see module docstring)."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Project import graph: module name → imported module names.
        self.import_graph: dict[str, set[str]] = {}

    # -- construction --------------------------------------------------

    def add_module(self, rel: str, tree: ast.Module, text: str = "") -> None:
        """Phase 1: collect one module's symbols (no cross-links yet)."""
        name = _module_name(rel, self.config.program_roots)
        digest = hashlib.sha256(text.encode()).hexdigest() if text else ""
        mod = ModuleInfo(name=name, rel=rel, tree=tree, sha256=digest)
        mod.imports = import_map(tree)
        self.modules[name] = mod
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{name}:{node.name}"
                mod.functions[node.name] = key
                self.functions[key] = self._collect_function(
                    key, name, node, cls=""
                )
            elif isinstance(node, ast.ClassDef):
                self._collect_class(mod, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mod.module_assigns.add(target.id)
                        if target.id == self.config.worker_registry:
                            mod.registry = self._literal_strings(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                mod.module_assigns.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                mod.global_decls.update(node.names)

    @staticmethod
    def _literal_strings(node: ast.expr) -> set[str] | None:
        if not isinstance(node, (ast.List, ast.Tuple)):
            return None
        out: set[str] = set()
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                out.add(element.value)
            else:
                return None
        return out

    def _collect_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        key = f"{mod.name}:{node.name}"
        mod.classes[node.name] = key
        info = ClassInfo(key=key, module=mod.name, name=node.name, node=node)
        info.bases = tuple(
            resolve_call_name(base, mod.imports) for base in node.bases
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_key = f"{key}.{item.name}"
                info.methods[item.name] = fn_key
                self.functions[fn_key] = self._collect_function(
                    fn_key, mod.name, item, cls=key
                )
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                named = _annotation_name(item.annotation)
                if named:
                    info.attr_types.setdefault(item.target.id, named)
        self.classes[key] = info

    def _collect_function(
        self,
        key: str,
        module: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        cls: str,
    ) -> FunctionInfo:
        fn = FunctionInfo(key=key, module=module, name=node.name,
                          node=node, cls=cls)
        for deco in node.decorator_list:
            if isinstance(deco, ast.Name) and deco.id in (
                "property", "cached_property"
            ):
                fn.is_property = True
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            named = _annotation_name(arg.annotation)
            if named:
                fn.param_types[arg.arg] = named
        fn.returns = _annotation_name(node.returns)
        for stmt in node.body:
            self._walk_stmt(fn, stmt)
        return fn

    def _walk_stmt(self, fn: FunctionInfo, node: ast.AST) -> None:
        """Collect calls and global reads; a nested def's body still
        *runs* as part of the enclosing callable (closures handed to
        callbacks), so its calls are attributed here too."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            fn.nested_defs.add(node.name)
            for stmt in node.body:
                self._walk_stmt(fn, stmt)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(fn, child)
            else:
                self._walk_stmt(fn, child)

    @staticmethod
    def _self_attr(expr: ast.expr) -> str:
        """``self.x`` (or ``self.x.__enter__()``-free forms) → ``x``."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return ""

    def _scan_expr(self, fn: FunctionInfo, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                fn.calls.append(
                    CallSite(
                        callee="",
                        external="",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        node=node,
                    )
                )
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                fn.global_reads.add(node.id)

    # -- linking -------------------------------------------------------

    def link(self) -> None:
        """Phase 2: resolve imports, types, and call targets."""
        for mod in self.modules.values():
            for dotted in mod.imports.values():
                target = self._owning_module(dotted)
                if target:
                    mod.project_imports.add(target)
            self.import_graph[mod.name] = set(mod.project_imports)
        # Attribute types come from __init__-style assignments, which
        # need param annotations — resolve types before call targets.
        for info in self.classes.values():
            self._infer_attr_types(info)
        for fn in self.functions.values():
            self._resolve_calls(fn)

    def _owning_module(self, dotted: str) -> str:
        """Longest indexed module that is a prefix of ``dotted``."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return ""

    def resolve_symbol(self, dotted: str) -> str:
        """Project key (class or function) a dotted name denotes, or ''."""
        if not dotted:
            return ""
        module = self._owning_module(dotted)
        if not module:
            return ""
        remainder = dotted[len(module):].lstrip(".")
        mod = self.modules[module]
        if not remainder:
            return ""
        head = remainder.split(".")[0]
        if head in mod.classes:
            return mod.classes[head]
        if head in mod.functions:
            return mod.functions[head]
        return ""

    def _class_for_name(self, name: str, module: str) -> str:
        """Class key a bare/dotted name denotes inside ``module``."""
        mod = self.modules.get(module)
        if mod is None:
            return ""
        head = name.split(".")[0]
        if head in mod.classes and "." not in name:
            return mod.classes[name]
        dotted = mod.imports.get(head, name)
        if "." in name:
            dotted = dotted + name[len(head):]
        key = self.resolve_symbol(dotted)
        return key if key in self.classes else ""

    def _infer_attr_types(self, info: ClassInfo) -> None:
        for method_key in info.methods.values():
            fn = self.functions[method_key]
            for stmt in ast.walk(fn.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    attr = self._self_attr(target)
                    if not attr:
                        continue
                    inferred = self._expr_class(
                        stmt.value, fn, local_types={}
                    )
                    if inferred:
                        info.attr_types.setdefault(attr, inferred)

    def _expr_class(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        local_types: dict[str, str],
    ) -> str:
        """Project class key an expression evaluates to, or ''."""
        if isinstance(expr, ast.Name):
            if expr.id in local_types:
                return local_types[expr.id]
            param = fn.param_types.get(expr.id, "")
            if param:
                return self._class_for_name(param, fn.module)
            return ""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                ctor = self._class_for_name(func.id, fn.module)
                if ctor:
                    return ctor
                callee = self._function_for_name(func.id, fn)
                if callee and self.functions[callee].returns:
                    return self._class_for_name(
                        self.functions[callee].returns,
                        self.functions[callee].module,
                    )
                return ""
            if isinstance(func, ast.Attribute):
                target = self._resolve_attribute_callee(
                    func, fn, local_types
                )
                if target and self.functions[target].returns:
                    ret = self.functions[target]
                    return self._class_for_name(ret.returns, ret.module)
                mod = self.modules.get(fn.module)
                dotted = resolve_call_name(func, mod.imports if mod else {})
                key = self.resolve_symbol(dotted)
                return key if key in self.classes else ""
            return ""
        if isinstance(expr, ast.Attribute):
            owner = ""
            attr = self._self_attr(expr)
            if attr and fn.cls:
                owner = fn.cls
            else:
                # ``state.classifier`` where ``state`` is a typed
                # local/parameter — resolve the receiver first.
                owner = self._expr_class(expr.value, fn, local_types)
                attr = expr.attr
            if owner and attr:
                cls = self.classes.get(owner)
                named = cls.attr_types.get(attr, "") if cls else ""
                if named in self.classes:
                    return named
                if named:
                    return self._class_for_name(named, cls.module)
                # A property on the class: use its return annotation.
                if cls and attr in cls.methods:
                    prop = self.functions[cls.methods[attr]]
                    if prop.is_property and prop.returns:
                        return self._class_for_name(
                            prop.returns, prop.module
                        )
            return ""
        return ""

    def _function_for_name(self, name: str, fn: FunctionInfo) -> str:
        mod = self.modules.get(fn.module)
        if mod is None:
            return ""
        if name in mod.functions:
            return mod.functions[name]
        dotted = mod.imports.get(name, "")
        key = self.resolve_symbol(dotted)
        return key if key in self.functions else ""

    def _local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Local variable name → class key, from simple assignments."""
        local: dict[str, str] = {}
        for name, annotation in fn.param_types.items():
            resolved = self._class_for_name(annotation, fn.module)
            if resolved:
                local[name] = resolved
        for _ in range(2):  # two passes handle use-before-def chains
            for stmt in ast.walk(fn.node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        inferred = self._expr_class(stmt.value, fn, local)
                        if inferred:
                            local.setdefault(target.id, inferred)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    named = _annotation_name(stmt.annotation)
                    resolved = self._class_for_name(named, fn.module)
                    if resolved:
                        local.setdefault(stmt.target.id, resolved)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)) and isinstance(
                    stmt.target, ast.Name
                ):
                    # ``for w in self.windows:`` — element types are out
                    # of model; nothing recorded.
                    pass
        return local

    def _method_on(self, cls_key: str, method: str) -> str:
        """Resolve ``method`` on a class, walking project base classes."""
        seen: set[str] = set()
        pending = [cls_key]
        while pending:
            key = pending.pop(0)
            if key in seen or key not in self.classes:
                continue
            seen.add(key)
            info = self.classes[key]
            if method in info.methods:
                return info.methods[method]
            for base in info.bases:
                base_key = base if base in self.classes else (
                    self._class_for_name(base, info.module)
                )
                if base_key:
                    pending.append(base_key)
        return ""

    def _resolve_attribute_callee(
        self,
        func: ast.Attribute,
        fn: FunctionInfo,
        local_types: dict[str, str],
    ) -> str:
        """``<receiver>.<method>(...)`` → project method key, or ''."""
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self" and fn.cls:
            return self._method_on(fn.cls, func.attr)
        receiver_cls = self._expr_class(receiver, fn, local_types)
        if receiver_cls:
            return self._method_on(receiver_cls, func.attr)
        return ""

    def _resolve_calls(self, fn: FunctionInfo) -> None:
        mod = self.modules.get(fn.module)
        imports = mod.imports if mod else {}
        local_types = self._local_types(fn)
        for site in fn.calls:
            func = site.node.func
            if isinstance(func, ast.Name):
                if func.id in fn.nested_defs:
                    continue
                ctor = self._class_for_name(func.id, fn.module)
                if ctor:
                    init = self._method_on(ctor, "__init__")
                    if init:
                        site.callee = init
                    else:
                        site.external = f"<init>{ctor}"
                    continue
                callee = self._function_for_name(func.id, fn)
                if callee:
                    site.callee = callee
                else:
                    site.external = resolve_call_name(func, imports)
                continue
            if isinstance(func, ast.Attribute):
                target = self._resolve_attribute_callee(
                    func, fn, local_types
                )
                if target:
                    site.callee = target
                    continue
                dotted = resolve_call_name(func, imports)
                key = self.resolve_symbol(dotted)
                if key in self.functions:
                    site.callee = key
                elif key in self.classes:
                    init = self._method_on(key, "__init__")
                    if init:
                        site.callee = init
                    else:
                        site.external = f"<init>{key}"
                else:
                    site.external = dotted
                continue
            site.external = resolve_call_name(func, imports)

    # -- queries -------------------------------------------------------

    def closure(self, roots: set[str] | list[str] | tuple[str, ...]
                ) -> set[str]:
        """Roots plus every project function transitively called."""
        seen: set[str] = set()
        pending = [key for key in roots if key in self.functions]
        while pending:
            key = pending.pop()
            if key in seen:
                continue
            seen.add(key)
            for site in self.functions[key].calls:
                if site.callee and site.callee not in seen:
                    pending.append(site.callee)
        return seen

    def reverse_import_cone(self, modules: set[str]) -> set[str]:
        """Given modules plus every module importing them transitively."""
        reverse: dict[str, set[str]] = {}
        for importer, imported in self.import_graph.items():
            for target in imported:
                reverse.setdefault(target, set()).add(importer)
        seen = set(modules) & set(self.modules)
        pending = list(seen)
        while pending:
            name = pending.pop()
            for importer in reverse.get(name, ()):
                if importer not in seen:
                    seen.add(importer)
                    pending.append(importer)
        return seen

    def module_for_rel(self, rel: str) -> str:
        """Module name for a program-root-relative path, or ''."""
        for mod in self.modules.values():
            if mod.rel == rel:
                return mod.name
        return ""


def program_files(
    root: pathlib.Path, config: LintConfig
) -> list[tuple[str, pathlib.Path]]:
    """``(rel, path)`` for every ``*.py`` under the program roots."""
    from tools.reprolint.runner import SKIP_DIRS

    out: list[tuple[str, pathlib.Path]] = []
    for program_root in config.program_roots:
        base = root / program_root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(part in SKIP_DIRS for part in path.parts):
                continue
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            out.append((rel, path))
    return out


def build_index(root: pathlib.Path, config: LintConfig) -> ProgramIndex:
    """Parse every program-root module and return the linked index."""
    index = ProgramIndex(config)
    for rel, path in program_files(root, config):
        try:
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError):
            continue
        index.add_module(rel, tree, text)
    index.link()
    return index
