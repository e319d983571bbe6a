"""Unit tests for the whole-program layer: cross-module call graph,
taint propagation, guarded-by inference, and lock-order analysis."""

import ast
import textwrap

from repro.analysis.dataflow import (GuardedByModel, LockOrderGraph,
                                     TaintEngine, guard_cleansed_params,
                                     has_integrity_guard,
                                     lock_owning_classes)
from repro.analysis.resolver import (Project, SourceModule,
                                     module_name_for)


def project_of(**sources):
    """Build a Project from {rel_path_with_underscores: source}."""
    modules = []
    for rel, source in sorted(sources.items()):
        rel_path = rel.replace("__", "/") + ".py"
        modules.append(SourceModule("<mem:%s>" % rel_path, rel_path,
                                    textwrap.dedent(source)))
    return Project(modules)


# -- module naming and cross-module closure --------------------------------

def test_module_name_for_strips_src_prefix_and_init():
    assert module_name_for("src/repro/service/vault.py") == \
        "repro.service.vault"
    assert module_name_for("src/repro/analysis/__init__.py") == \
        "repro.analysis"
    assert module_name_for("tool.py") == "tool"


def test_cross_module_closure_follows_imports():
    project = project_of(
        src__repro__util="""
            def helper(value):
                return value + 1

            def unrelated():
                return 0
        """,
        src__repro__main="""
            from repro.util import helper

            def entry(value):
                return helper(value)
        """,
    )
    entry = ("src/repro/main.py", "entry")
    closure = project.project_closure_of(entry)
    assert ("src/repro/util.py", "helper") in closure
    assert ("src/repro/util.py", "unrelated") not in closure
    assert entry in project.callers_of(("src/repro/util.py", "helper"))


def test_unique_method_devirtualization_links_untyped_receiver():
    project = project_of(
        src__repro__store="""
            class PageVault:
                def materialize_case(self, case_id):
                    return case_id
        """,
        src__repro__driver="""
            def drive(vault, case_id):
                return vault.materialize_case(case_id)
        """,
    )
    closure = project.project_closure_of(("src/repro/driver.py", "drive"))
    assert ("src/repro/store.py", "PageVault.materialize_case") in closure


def test_blacklisted_method_names_do_not_devirtualize():
    project = project_of(
        src__repro__store="""
            class PageVault:
                def get(self, key):
                    return key
        """,
        src__repro__driver="""
            def drive(mapping, key):
                return mapping.get(key)
        """,
    )
    closure = project.project_closure_of(("src/repro/driver.py", "drive"))
    assert ("src/repro/store.py", "PageVault.get") not in closure


def test_class_info_records_locks_and_thread_targets():
    project = project_of(
        src__repro__svc="""
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()
                    self._thread = threading.Thread(target=self._loop)

                def _loop(self):
                    pass
        """,
    )
    cls = project.by_rel_path["src/repro/svc.py"].classes["Service"]
    assert set(cls.lock_attrs) == {"_lock", "_cond"}
    assert "_loop" in cls.thread_targets


# -- taint propagation -----------------------------------------------------

def _call_source(name):
    """Taint source: any call to the function named ``name``."""
    def source(module, func, node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name):
            return "untrusted %s() in %s" % (name, func.qualname)
        return None
    return source


def test_taint_flows_through_call_args_with_witness():
    project = project_of(
        src__repro__vault="""
            import os

            def case_dir(root, case_id):
                return os.path.join(root, case_id)
        """,
        src__repro__edge="""
            from repro.vault import case_dir

            def handle(root):
                raw = read_socket()
                case_id = raw.strip()
                return case_dir(root, case_id)
        """,
    )
    engine = TaintEngine(project, _call_source("read_socket"))
    join = [site for site in project.by_rel_path["src/repro/vault.py"].calls
            if site.chain == "os.path.join"][0]
    taint = engine.any_arg_taint(join)
    assert taint is not None
    notes = [hop.note for hop in taint.witness()]
    assert any("untrusted read_socket()" in note for note in notes)
    assert any("case_id" in note for note in notes)
    assert all(hop.line > 0 for hop in taint.witness())


def test_sanitizer_call_returns_clean_value():
    project = project_of(
        src__repro__vault="""
            import os

            def validate_case_id(case_id):
                return case_id

            def store(root):
                raw = read_socket()
                case_id = validate_case_id(raw)
                return os.path.join(root, case_id)

            def leaky(root):
                raw = read_socket()
                return os.path.join(root, raw)
        """,
    )
    engine = TaintEngine(project, _call_source("read_socket"))
    module = project.by_rel_path["src/repro/vault.py"]
    joins = {site.scope: site for site in module.calls
             if site.chain == "os.path.join"}
    assert engine.any_arg_taint(joins["store"]) is None
    assert engine.any_arg_taint(joins["leaky"]) is not None


def test_regex_guard_cleanses_its_parameter():
    project = project_of(
        src__repro__vault="""
            import os
            import re

            _RE = re.compile("^case-[0-9a-f]{16}$")

            def case_dir(root, case_id):
                if not _RE.match(case_id):
                    raise ValueError(case_id)
                return os.path.join(root, case_id)

            def entry(root):
                raw = read_socket()
                return case_dir(root, raw)
        """,
    )
    module = project.by_rel_path["src/repro/vault.py"]
    info = module.functions["case_dir"]
    assert guard_cleansed_params(info) == {"case_id"}
    engine = TaintEngine(project, _call_source("read_socket"))
    join = [site for site in module.calls
            if site.chain == "os.path.join"][0]
    assert engine.any_arg_taint(join) is None


def test_integrity_guard_requires_hash_and_compare_before_load():
    guarded = ast.parse(textwrap.dedent("""
        def load(blob, want):
            import hashlib
            got = hashlib.sha256(blob).hexdigest()
            if got != want:
                raise ValueError("mismatch")
            return blob
    """)).body[0]
    unguarded = ast.parse(textwrap.dedent("""
        def load(blob, want):
            return blob
    """)).body[0]
    assert has_integrity_guard(guarded, before_line=99)
    assert not has_integrity_guard(guarded, before_line=2)
    assert not has_integrity_guard(unguarded, before_line=99)


# -- guarded-by inference --------------------------------------------------

_COUNTER_CLASS = """
    import threading

    class Counters:
        def __init__(self):
            self._lock = threading.Lock()
            self.completed = 0

        def record(self):
            with self._lock:
                self._bump()

        def _bump(self):
            self.completed += 1

        def snapshot(self):
            return self.completed
"""


def test_guarded_by_model_infers_guaranteed_held_and_races():
    project = project_of(src__repro__svc=_COUNTER_CLASS)
    owners = list(lock_owning_classes(project))
    assert len(owners) == 1
    module, cls = owners[0]
    model = GuardedByModel(project, module, cls)
    assert model.lock_attrs == {"_lock"}
    # _bump is only ever called under the lock -> guaranteed-held, so
    # its store establishes the contract without a lexical `with`.
    assert "_bump" in model.guaranteed
    assert "completed" in model.protected
    unguarded = list(model.unguarded_accesses())
    assert [a.scope for a in unguarded] == ["Counters.snapshot"]


def test_init_only_helpers_are_exempt():
    project = project_of(src__repro__svc="""
        import threading

        class Seeded:
            def __init__(self):
                self._lock = threading.Lock()
                self.table = {}
                self._seed()

            def _seed(self):
                self.table = {"a": 1}

            def read(self):
                with self._lock:
                    return dict(self.table)
    """)
    module, cls = next(lock_owning_classes(project))
    model = GuardedByModel(project, module, cls)
    assert "_seed" in model.init_only
    assert list(model.unguarded_accesses()) == []


def test_item_assignment_is_a_mutation_the_lock_guards():
    """``self.table[key] = value`` changes shared state without
    rebinding ``self.table``; it still makes the attribute guarded."""
    project = project_of(src__repro__svc="""
        import threading

        class Index:
            def __init__(self):
                self._lock = threading.Lock()
                self.table = {}

            def add(self, key, value):
                with self._lock:
                    self.table[key] = value

            def keys(self):
                return list(self.table)
    """)
    module, cls = next(lock_owning_classes(project))
    model = GuardedByModel(project, module, cls)
    assert "table" in model.protected
    assert [a.scope for a in model.unguarded_accesses()] == ["Index.keys"]


# -- lock ordering ---------------------------------------------------------

def test_lock_order_cycle_detected_with_witness():
    project = project_of(src__repro__svc="""
        import threading

        class Ledger:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """)
    graph = LockOrderGraph(project)
    cycles = graph.cycles()
    assert len(cycles) == 1
    for edge in cycles[0]:
        assert graph.edges[edge], "every cycle edge carries witness hops"


def test_consistent_lock_order_has_no_cycle():
    project = project_of(src__repro__svc="""
        import threading

        class Ledger:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def also_forward(self):
                with self._a:
                    with self._b:
                        pass
    """)
    assert LockOrderGraph(project).cycles() == []


def test_interprocedural_lock_order_edge():
    project = project_of(src__repro__svc="""
        import threading

        class Ledger:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def outer(self):
                with self._a:
                    self.inner()

            def inner(self):
                with self._b:
                    pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """)
    assert len(LockOrderGraph(project).cycles()) == 1
