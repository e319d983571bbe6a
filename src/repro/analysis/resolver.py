"""Shared symbol-resolution layer for the rule pack.

One parse per module produces everything the rules need, so no rule
re-walks the AST:

* **Import resolution** — dotted call chains are rewritten through the
  module's ``import``/``from ... import`` table, so ``from time import
  sleep; sleep(1)`` and ``import time as t; t.sleep(1)`` both resolve to
  ``time.sleep``.
* **Scope index** — every call, assignment, attribute access and
  ``except`` handler is tagged with its enclosing function
  (``Class.method`` qualnames, including classes defined inside
  factory functions).
* **Concurrency facts** — lock attributes (``self._lock =
  threading.Lock()``), the set of ``with self._lock:`` scopes each
  call/attribute access sits inside, and ``threading.Thread(target=
  self.method)`` thread roots; this is the substrate the lock-
  discipline rules (CRL007/CRL008) reason over.
* **Intra-module call graph** — ``self.x()`` edges between methods of
  the same class and bare calls to module functions, with a transitive
  ``closure_of``.
* **Cross-module call graph** — the :class:`Project` links call sites
  through the import table, constructor bindings, and unique-method
  devirtualization into a whole-program graph with its own
  ``closure_of``/``callers_of``; the dataflow rules (taint, lock
  order) walk these interprocedural edges and report them as witness
  paths.
* **Constructor bindings** — ``name = Ctor(...)`` and ``self.attr =
  Ctor(...)`` assignments, resolved through imports, so a rule can ask
  "what was this receiver constructed as?".
"""

import ast

from repro.analysis.pragmas import scan_pragmas

MODULE_SCOPE = "<module>"

#: Constructors whose instances guard shared state (CRL007/CRL008).
LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})

#: Container/stdlib method names the unique-method devirtualizer must
#: never link: they collide with dict/list/set/str/file idioms, and a
#: spurious edge would poison every interprocedural closure.
_DEVIRT_BLACKLIST = frozenset({
    "get", "put", "pop", "append", "add", "remove", "discard", "clear",
    "update", "keys", "values", "items", "copy", "close", "open",
    "read", "write", "send", "recv", "join", "split", "start", "stop",
    "run", "stats", "setdefault", "extend", "insert", "index", "count",
    "sort", "match", "search", "fullmatch", "format", "encode",
    "decode", "strip", "replace", "release", "acquire", "wait",
    "notify", "notify_all", "flush", "seek", "name", "snapshot",
})


def dotted_chain(node):
    """Render a Name/Attribute chain as ``a.b.c``, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(rel_path):
    """Dotted module name for a repo-relative path.

    ``src/repro/service/vault.py`` -> ``repro.service.vault``;
    ``pkg/__init__.py`` -> ``pkg``; fixture trees map the same way
    relative to the lint root.
    """
    path = rel_path
    if path.endswith(".py"):
        path = path[:-3]
    parts = [part for part in path.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


class CallSite:
    """One call expression, located and import-resolved."""

    __slots__ = ("node", "chain", "resolved", "scope", "class_name",
                 "in_with_item", "is_returned", "held_locks", "targets")

    def __init__(self, node, chain, resolved, scope, class_name,
                 in_with_item, is_returned, held_locks=frozenset()):
        self.node = node
        self.chain = chain
        self.resolved = resolved
        self.scope = scope
        self.class_name = class_name
        self.in_with_item = in_with_item
        self.is_returned = is_returned
        #: lock attribute names (``self.X``) lexically held at the call.
        self.held_locks = held_locks
        #: interprocedural targets, filled by Project._link_project:
        #: list of (rel_path, qualname) this call may invoke.
        self.targets = ()

    @property
    def method(self):
        """Last segment of the written chain (``a.b.c`` -> ``c``)."""
        if self.chain is None:
            return None
        return self.chain.rpartition(".")[2]

    @property
    def receiver_parts(self):
        """Chain segments before the method name, as a tuple."""
        if self.chain is None:
            return ()
        return tuple(self.chain.split(".")[:-1])

    def __repr__(self):
        return "CallSite(%s @ line %d in %s)" % (
            self.chain, self.node.lineno, self.scope,
        )


class AttrAccess:
    """One ``self.X`` attribute read or write, with its lock context."""

    __slots__ = ("attr", "kind", "lineno", "col", "scope", "class_name",
                 "held_locks")

    def __init__(self, attr, kind, lineno, col, scope, class_name,
                 held_locks):
        self.attr = attr
        self.kind = kind  # "load" | "store"
        self.lineno = lineno
        self.col = col
        self.scope = scope
        self.class_name = class_name
        self.held_locks = held_locks

    def __repr__(self):
        return "AttrAccess(self.%s %s @ line %d in %s)" % (
            self.attr, self.kind, self.lineno, self.scope,
        )


class Assignment:
    """``target = Ctor(...)``-shaped binding (value resolved)."""

    __slots__ = ("target", "value_chain", "resolved", "scope", "class_name",
                 "lineno")

    def __init__(self, target, value_chain, resolved, scope, class_name,
                 lineno):
        self.target = target
        self.value_chain = value_chain
        self.resolved = resolved
        self.scope = scope
        self.class_name = class_name
        self.lineno = lineno


class FunctionInfo:
    """One function or method: scope metadata plus its outgoing calls."""

    __slots__ = ("node", "name", "qualname", "class_name", "lineno",
                 "params", "calls", "callees")

    def __init__(self, node, name, qualname, class_name):
        self.node = node
        self.name = name
        self.qualname = qualname
        self.class_name = class_name
        self.lineno = node.lineno
        self.params = {arg.arg for arg in node.args.args}
        self.params.update(arg.arg for arg in node.args.kwonlyargs)
        self.params.update(arg.arg for arg in node.args.posonlyargs)
        if node.args.vararg is not None:
            self.params.add(node.args.vararg.arg)
        if node.args.kwarg is not None:
            self.params.add(node.args.kwarg.arg)
        self.calls = []
        self.callees = set()

    def ordered_params(self):
        """Positional parameter names in declaration order."""
        args = self.node.args
        return [arg.arg for arg in args.posonlyargs + args.args]


class ClassInfo:
    """One class: its method names, base chains, and lock attributes."""

    __slots__ = ("node", "name", "methods", "bases", "resolved_bases",
                 "self_ctor_attrs", "lock_attrs", "thread_targets")

    def __init__(self, node, bases, resolved_bases=()):
        self.node = node
        self.name = node.name
        self.methods = set()
        self.bases = bases
        self.resolved_bases = list(resolved_bases)
        self.self_ctor_attrs = {}
        #: attr name -> lineno of the ``self.x = threading.Lock()`` site.
        self.lock_attrs = {}
        #: method names used as ``threading.Thread(target=self.m)``.
        self.thread_targets = set()

    def derives_from(self, name):
        """True if any base chain mentions ``name`` (last segment match)."""
        for base in list(self.bases) + list(self.resolved_bases):
            if base == name or base.rpartition(".")[2] == name:
                return True
        return False


class _Collector(ast.NodeVisitor):
    def __init__(self, module):
        self.mod = module
        # Unified scope stack of ("func", FunctionInfo)/("class", ClassInfo):
        # a class defined inside a factory function still owns its methods.
        self._scopes = []
        self._with_calls = set()
        self._returned_calls = set()
        self._lock_stack = []

    # -- scope bookkeeping -------------------------------------------------

    def _scope(self):
        for kind, info in reversed(self._scopes):
            if kind == "func":
                return info
        return None

    def _scope_name(self):
        func = self._scope()
        return func.qualname if func is not None else MODULE_SCOPE

    def _enclosing_class(self):
        for kind, info in reversed(self._scopes):
            if kind == "class":
                return info
        return None

    def _held_locks(self):
        return frozenset(self._lock_stack)

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname is not None:
                self.mod.import_aliases[alias.asname] = alias.name
            else:
                top = alias.name.split(".")[0]
                self.mod.import_aliases[top] = top

    def visit_ImportFrom(self, node):
        base = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            dotted = "%s.%s" % (base, alias.name) if base else alias.name
            self.mod.from_imports[local] = dotted

    # -- definitions -------------------------------------------------------

    def _visit_function(self, node):
        kind, owner = self._scopes[-1] if self._scopes else (None, None)
        if kind == "class":
            qualname = "%s.%s" % (owner.name, node.name)
            owner.methods.add(node.name)
            class_name = owner.name
        elif kind == "func":
            qualname = "%s.%s" % (owner.qualname, node.name)
            class_name = None
        else:
            qualname = node.name
            class_name = None
        info = FunctionInfo(node, node.name, qualname, class_name)
        self.mod.functions[qualname] = info
        self._scopes.append(("func", info))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node):
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node):
        self._visit_function(node)

    def visit_ClassDef(self, node):
        bases = [dotted_chain(base) for base in node.bases]
        bases = [b for b in bases if b is not None]
        resolved = [self.mod.resolve(b) for b in bases]
        info = ClassInfo(node, bases, [r for r in resolved if r is not None])
        self.mod.classes[node.name] = info
        self._scopes.append(("class", info))
        self.generic_visit(node)
        self._scopes.pop()

    # -- expressions the rules care about ---------------------------------

    def visit_With(self, node):
        pushed = 0
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._with_calls.add(id(item.context_expr))
            else:
                chain = dotted_chain(item.context_expr)
                if (chain is not None and chain.startswith("self.")
                        and chain.count(".") == 1):
                    self._lock_stack.append(chain[len("self."):])
                    pushed += 1
        self.generic_visit(node)
        for _ in range(pushed):
            self._lock_stack.pop()

    def visit_AsyncWith(self, node):
        self.visit_With(node)

    def visit_Return(self, node):
        if isinstance(node.value, ast.Call):
            self._returned_calls.add(id(node.value))
        self.generic_visit(node)

    def visit_Call(self, node):
        chain = dotted_chain(node.func)
        func = self._scope()
        site = CallSite(
            node=node,
            chain=chain,
            resolved=self.mod.resolve(chain),
            scope=self._scope_name(),
            class_name=func.class_name if func is not None else None,
            in_with_item=id(node) in self._with_calls,
            is_returned=id(node) in self._returned_calls,
            held_locks=self._held_locks(),
        )
        self.mod.calls.append(site)
        if func is not None:
            func.calls.append(site)
        self._maybe_thread_target(site)
        self.generic_visit(node)

    def _maybe_thread_target(self, site):
        """Record ``threading.Thread(target=self.m)`` thread roots."""
        if site.resolved != "threading.Thread" and site.method != "Thread":
            return
        for keyword in site.node.keywords:
            if keyword.arg != "target":
                continue
            chain = dotted_chain(keyword.value)
            if (chain is not None and chain.startswith("self.")
                    and chain.count(".") == 1 and site.class_name):
                info = self.mod.classes.get(site.class_name)
                if info is not None:
                    info.thread_targets.add(chain[len("self."):])

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            func = self._scope()
            kind = "store" if isinstance(node.ctx, (ast.Store, ast.Del)) \
                else "load"
            self.mod.attr_accesses.append(AttrAccess(
                attr=node.attr,
                kind=kind,
                lineno=node.lineno,
                col=node.col_offset,
                scope=self._scope_name(),
                class_name=func.class_name if func is not None else None,
                held_locks=self._held_locks(),
            ))
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # ``self.x[k] = v`` (or ``del self.x[k]``) mutates the state
        # behind ``self.x`` as surely as rebinding it does.
        if (isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"):
            func = self._scope()
            self.mod.attr_accesses.append(AttrAccess(
                attr=node.value.attr,
                kind="store",
                lineno=node.lineno,
                col=node.col_offset,
                scope=self._scope_name(),
                class_name=func.class_name if func is not None else None,
                held_locks=self._held_locks(),
            ))
        self.generic_visit(node)

    def visit_Assign(self, node):
        if len(node.targets) == 1 and isinstance(node.value, ast.Call):
            target = dotted_chain(node.targets[0])
            value_chain = dotted_chain(node.value.func)
            if target is not None and value_chain is not None:
                func = self._scope()
                self.mod.assignments.append(Assignment(
                    target=target,
                    value_chain=value_chain,
                    resolved=self.mod.resolve(value_chain),
                    scope=self._scope_name(),
                    class_name=(func.class_name
                                if func is not None else None),
                    lineno=node.lineno,
                ))
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self.mod.except_handlers.append((node, self._scope_name()))
        self.generic_visit(node)


class SourceModule:
    """One parsed + indexed source file."""

    def __init__(self, path, rel_path, text):
        self.path = path
        self.rel_path = rel_path
        self.text = text
        self.module_name = module_name_for(rel_path)
        self.tree = ast.parse(text, filename=rel_path)
        self.import_aliases = {}
        self.from_imports = {}
        self.functions = {}
        self.classes = {}
        self.calls = []
        self.assignments = []
        self.attr_accesses = []
        self.except_handlers = []
        self.pragmas = scan_pragmas(text)
        _Collector(self).visit(self.tree)
        self._link_callees()
        self._collect_ctor_attrs()

    # -- import resolution -------------------------------------------------

    def resolve(self, chain):
        """Rewrite ``chain`` through the import table, or None if local."""
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        if head in self.import_aliases:
            base = self.import_aliases[head]
        elif head in self.from_imports:
            base = self.from_imports[head]
        else:
            return None
        return "%s.%s" % (base, rest) if rest else base

    # -- call graph --------------------------------------------------------

    def _link_callees(self):
        module_funcs = {name for name in self.functions
                        if "." not in name}
        for func in self.functions.values():
            for site in func.calls:
                chain = site.chain
                if chain is None:
                    continue
                if chain.startswith("self.") and func.class_name is not None:
                    method = chain[len("self."):]
                    if "." in method:
                        continue
                    qualname = "%s.%s" % (func.class_name, method)
                    if qualname in self.functions:
                        func.callees.add(qualname)
                elif "." not in chain and chain in module_funcs:
                    func.callees.add(chain)

    def closure_of(self, qualname):
        """Functions reachable from ``qualname`` (itself included)."""
        seen = {qualname}
        stack = [qualname]
        while stack:
            info = self.functions.get(stack.pop())
            if info is None:
                continue
            for callee in info.callees:
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def reachable_from(self, roots):
        """Union of :meth:`closure_of` over ``roots``."""
        out = set()
        for root in roots:
            out |= self.closure_of(root)
        return out

    # -- constructor bindings ----------------------------------------------

    def _collect_ctor_attrs(self):
        for assign in self.assignments:
            if (assign.class_name is not None
                    and assign.target.startswith("self.")
                    and assign.target.count(".") == 1):
                info = self.classes.get(assign.class_name)
                if info is not None:
                    attr = assign.target[len("self."):]
                    ctor = assign.resolved or assign.value_chain
                    info.self_ctor_attrs[attr] = ctor
                    if ctor in LOCK_CTORS or (
                            ctor.rpartition(".")[2] in
                            ("Lock", "RLock", "Condition")):
                        info.lock_attrs.setdefault(attr, assign.lineno)

    def ctor_of(self, receiver_parts, scope, class_name):
        """Best-effort constructor name for a call receiver.

        ``receiver_parts`` is the dotted receiver split into segments,
        e.g. ``("self", "quarantine")``. Looks through function-local
        ``x = Ctor(...)`` bindings and class-level ``self.attr =
        Ctor(...)`` bindings; returns the resolved constructor chain or
        None.
        """
        if not receiver_parts:
            return None
        target = ".".join(receiver_parts)
        for assign in self.assignments:
            if assign.scope == scope and assign.target == target:
                return assign.resolved or assign.value_chain
        if (len(receiver_parts) == 2 and receiver_parts[0] == "self"
                and class_name is not None):
            info = self.classes.get(class_name)
            if info is not None:
                return info.self_ctor_attrs.get(receiver_parts[1])
        return None

    def references(self, name):
        """True if the module imports or dereferences ``name`` anywhere."""
        if name in self.import_aliases or name in self.from_imports:
            return True
        for dotted in self.from_imports.values():
            if dotted == name or dotted.endswith(".%s" % name):
                return True
        for site in self.calls:
            if site.chain is not None and (
                    site.chain == name
                    or site.chain.startswith("%s." % name)
                    or (".%s." % name) in site.chain):
                return True
        return False


class Project:
    """The analyzed file set: parsed modules plus cross-module lookups.

    Construction links every call site to its interprocedural targets
    (``CallSite.targets``) and builds the whole-program call graph the
    dataflow rules close over. Nodes are ``(rel_path, qualname)``
    pairs.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self.by_rel_path = {module.rel_path: module for module in self.modules}
        self.by_module_name = {module.module_name: module
                               for module in self.modules}
        #: (rel_path, qualname) -> FunctionInfo
        self.functions = {}
        #: whole-program edges: node -> set of nodes
        self.callees = {}
        self._callers = {}
        self._method_index = None
        self._cache = {}
        for module in self.modules:
            for qualname, info in module.functions.items():
                self.functions[(module.rel_path, qualname)] = info
        self._link_project()

    def __iter__(self):
        return iter(self.modules)

    def __len__(self):
        return len(self.modules)

    # -- cross-module resolution -------------------------------------------

    def _build_method_index(self):
        """method name -> [(rel_path, class_name)] across the project."""
        index = {}
        for module in self.modules:
            for class_name, info in module.classes.items():
                for method in info.methods:
                    index.setdefault(method, []).append(
                        (module.rel_path, class_name))
        self._method_index = index

    def resolve_callable(self, dotted):
        """Map a resolved dotted name to a project function, or None.

        Accepts ``pkg.mod.func``, ``pkg.mod.Class`` (-> ``__init__``)
        and ``pkg.mod.Class.method``.
        """
        if dotted is None:
            return None
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.by_module_name.get(".".join(parts[:split]))
            if module is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                name = rest[0]
                if name in module.functions:
                    return (module.rel_path, name)
                if name in module.classes:
                    init = "%s.__init__" % name
                    if init in module.functions:
                        return (module.rel_path, init)
                    return (module.rel_path, name)
                return None
            if len(rest) == 2:
                qualname = "%s.%s" % (rest[0], rest[1])
                if qualname in module.functions:
                    return (module.rel_path, qualname)
            return None
        return None

    def resolve_class(self, dotted):
        """Map a resolved dotted name to ``(module, ClassInfo)``, or None."""
        if dotted is None:
            return None
        mod_name, _, class_name = dotted.rpartition(".")
        module = self.by_module_name.get(mod_name)
        if module is not None and class_name in module.classes:
            return (module, module.classes[class_name])
        # Unqualified class name (fixture-local ctors).
        for module in self.modules:
            if dotted in module.classes:
                return (module, module.classes[dotted])
        return None

    def _targets_for(self, module, func, site):
        """Interprocedural targets of one call site."""
        out = []
        chain = site.chain
        # (1) intra-module edges, reusing the per-module linker.
        if chain is not None:
            if chain.startswith("self.") and func.class_name is not None:
                method = chain[len("self."):]
                qualname = "%s.%s" % (func.class_name, method)
                if "." not in method and qualname in module.functions:
                    out.append((module.rel_path, qualname))
            elif "." not in chain:
                if chain in module.functions:
                    out.append((module.rel_path, chain))
                elif chain in module.classes:
                    init = "%s.__init__" % chain
                    if init in module.functions:
                        out.append((module.rel_path, init))
        # (2) import-resolved cross-module edges.
        if not out and site.resolved is not None:
            target = self.resolve_callable(site.resolved)
            if target is not None and target in self.functions:
                out.append(target)
        # (3) constructor-bound receivers: self.queue = Queue() ->
        #     self.queue.enqueue() links to Queue.enqueue.
        if not out and site.receiver_parts and site.method:
            ctor = module.ctor_of(site.receiver_parts, site.scope,
                                  site.class_name)
            if ctor is not None:
                resolved = self.resolve_class(ctor)
                if resolved is not None:
                    target_mod, target_cls = resolved
                    qualname = "%s.%s" % (target_cls.name, site.method)
                    if qualname in target_mod.functions:
                        out.append((target_mod.rel_path, qualname))
        # (4) unique-method devirtualization: a method name defined by
        #     exactly one project class (and not a container idiom)
        #     links calls through untyped receivers, e.g.
        #     ``self.vault.case(...)`` where only CaseVault defines
        #     ``case``.
        if (not out and site.method and site.receiver_parts
                and site.method not in _DEVIRT_BLACKLIST):
            if self._method_index is None:
                self._build_method_index()
            owners = self._method_index.get(site.method, ())
            if len(owners) == 1:
                rel, class_name = owners[0]
                qualname = "%s.%s" % (class_name, site.method)
                if (rel, qualname) in self.functions:
                    out.append((rel, qualname))
        return out

    def _link_project(self):
        for module in self.modules:
            for qualname, func in module.functions.items():
                node = (module.rel_path, qualname)
                edges = self.callees.setdefault(node, set())
                for site in func.calls:
                    targets = self._targets_for(module, func, site)
                    if targets:
                        site.targets = tuple(targets)
                        edges.update(targets)
                for target in edges:
                    self._callers.setdefault(target, set()).add(node)

    # -- whole-program closures --------------------------------------------

    def project_closure_of(self, node):
        """Project-graph nodes reachable from ``node`` (itself included)."""
        seen = {node}
        stack = [node]
        while stack:
            for callee in self.callees.get(stack.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def project_reachable_from(self, roots):
        out = set()
        for root in roots:
            out |= self.project_closure_of(root)
        return out

    def callers_of(self, node):
        """Direct whole-program callers of ``node``."""
        return set(self._callers.get(node, ()))
