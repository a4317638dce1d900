"""Unit tests for the shared flow indexes (symbol/import/call graphs)."""

import ast
from pathlib import Path

from repro.tools.flow.graph import build_index, dotted_path, import_bindings
from repro.tools.lint.engine import Project, load_module


def index_from(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and index the tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    project = Project()
    for relpath in sorted(files):
        module, errors = load_module(tmp_path / relpath, root=tmp_path)
        assert errors == []
        project.modules.append(module)
    return build_index(project)


def test_dotted_path():
    node = ast.parse("a.b.c", mode="eval").body
    assert dotted_path(node) == ("a", "b", "c")
    assert dotted_path(ast.parse("a", mode="eval").body) == ("a",)
    assert dotted_path(ast.parse("f().x", mode="eval").body) is None


def test_import_bindings_resolve_relative_imports(tmp_path):
    index = index_from(tmp_path, {
        "repro/pkg/__init__.py": "",
        "repro/pkg/util.py": "VALUE = 1\n",
        "repro/pkg/mod.py": "from .util import VALUE\nfrom . import util\n",
    })
    module = index.modules["repro.pkg.mod"]
    bindings = import_bindings(module)
    assert bindings["VALUE"].module == "repro.pkg.util"
    assert bindings["VALUE"].symbol == "VALUE"
    assert bindings["util"].module == "repro.pkg"
    assert bindings["util"].symbol == "util"


def test_resolve_symbol_chases_reexport_chains(tmp_path):
    index = index_from(tmp_path, {
        "repro/deep.py": "def origin():\n    return 1\n",
        "repro/middle.py": "from repro.deep import origin\n",
        "repro/top.py": "from repro.middle import origin\n",
    })
    resolved = index.resolve_symbol("repro.top", "origin")
    assert resolved is not None
    assert resolved.module_name == "repro.deep"
    assert resolved.kind == "function"


def test_class_init_chases_base_classes(tmp_path):
    index = index_from(tmp_path, {
        "repro/base.py": (
            "class Base:\n"
            "    def __init__(self, random_state=None):\n"
            "        self.random_state = random_state\n"
        ),
        "repro/child.py": (
            "from repro.base import Base\n"
            "class Child(Base):\n"
            "    pass\n"
        ),
    })
    init = index.class_init("repro.child", "Child")
    assert init is not None
    assert init.module_name == "repro.base"
    assert "random_state" in init.all_param_names()


def test_import_edges_mark_deferred_function_scoped_imports(tmp_path):
    index = index_from(tmp_path, {
        "repro/a.py": "import repro.b\n",
        "repro/b.py": (
            "def late():\n"
            "    import repro.a\n"
            "    return repro.a\n"
        ),
    })
    edges = {(e.source, e.target): e.deferred for e in index.import_edges}
    assert edges[("repro.a", "repro.b")] is False
    assert edges[("repro.b", "repro.a")] is True


def test_call_graph_resolves_local_self_and_constructor_calls(tmp_path):
    index = index_from(tmp_path, {
        "repro/calls.py": (
            "class Widget:\n"
            "    def __init__(self, size=1):\n"
            "        self.size = size\n"
            "    def helper(self):\n"
            "        return self.size\n"
            "    def run(self):\n"
            "        return self.helper()\n"
            "def free():\n"
            "    return 0\n"
            "def driver():\n"
            "    w = Widget(size=2)\n"
            "    return free() + w.run()\n"
        ),
    })
    driver_sites = index.calls[("repro.calls", "driver")]
    targets = {site.target for site in driver_sites if site.target}
    assert ("repro.calls", "Widget.__init__") in targets
    assert ("repro.calls", "free") in targets
    constructor = next(s for s in driver_sites
                       if s.target == ("repro.calls", "Widget.__init__"))
    assert constructor.target_class == "Widget"
    run_sites = index.calls[("repro.calls", "Widget.run")]
    assert [s.target for s in run_sites] == [("repro.calls", "Widget.helper")]


def test_module_body_calls_live_in_pseudo_scope(tmp_path):
    index = index_from(tmp_path, {
        "repro/body.py": (
            "def build():\n"
            "    return 3\n"
            "SINGLETON = build()\n"
        ),
    })
    body_sites = index.calls[("repro.body", "")]
    assert [s.target for s in body_sites] == [("repro.body", "build")]


def site_lines(sites):
    return [(site.node.lineno, site.target) for site in sites]


def test_later_duplicate_def_wins_and_earlier_calls_are_dropped(tmp_path):
    index = index_from(tmp_path, {
        "repro/dup.py": (
            "def helper():\n"
            "    return 1\n"
            "def run():\n"
            "    return helper()\n"
            "def run():\n"
            "    return other()\n"
            "def other():\n"
            "    return 2\n"
        ),
    })
    assert index.functions[("repro.dup", "run")].node.lineno == 5
    assert list(index.calls) == [("repro.dup", "helper"), ("repro.dup", "run"),
                                 ("repro.dup", "other"), ("repro.dup", "")]
    assert site_lines(index.calls[("repro.dup", "run")]) == [
        (6, ("repro.dup", "other"))]
    assert all(sites == [] for key, sites in index.calls.items()
               if key != ("repro.dup", "run"))


def test_calls_in_a_def_nested_in_a_method_belong_to_the_method(tmp_path):
    index = index_from(tmp_path, {
        "repro/box.py": (
            "class Box:\n"
            "    def run(self):\n"
            "        def inner():\n"
            "            return self.step()\n"
            "        return inner()\n"
            "    def step(self):\n"
            "        return 0\n"
        ),
    })
    assert site_lines(index.calls[("repro.box", "Box.run")]) == [
        (5, None), (4, ("repro.box", "Box.step"))]
    assert list(index.calls) == [("repro.box", "Box.run"),
                                 ("repro.box", "Box.step"), ("repro.box", "")]


def test_class_body_and_nested_class_calls_belong_to_no_scope(tmp_path):
    index = index_from(tmp_path, {
        "repro/cls.py": (
            "def make():\n"
            "    return 1\n"
            "class Outer:\n"
            "    LIMIT = make()\n"
            "    class Inner:\n"
            "        def go(self):\n"
            "            return make()\n"
        ),
    })
    assert list(index.calls) == [("repro.cls", "make"), ("repro.cls", "")]
    assert all(sites == [] for sites in index.calls.values())
    assert ("repro.cls", "Outer.Inner.go") not in index.functions


def test_module_body_calls_under_if_and_try_use_the_module_scope(tmp_path):
    index = index_from(tmp_path, {
        "repro/guarded.py": (
            "def build():\n"
            "    return 1\n"
            "if True:\n"
            "    A = build()\n"
            "try:\n"
            "    B = build()\n"
            "except ImportError:\n"
            "    def fallback():\n"
            "        return build()\n"
        ),
    })
    build = ("repro.guarded", "build")
    assert site_lines(index.calls[("repro.guarded", "")]) == [
        (4, build), (6, build), (9, build)]
    assert ("repro.guarded", "fallback") not in index.functions


def test_nested_def_imports_are_deferred_and_class_body_imports_are_not(tmp_path):
    index = index_from(tmp_path, {
        "repro/a.py": (
            "class Holder:\n"
            "    import repro.b\n"
            "    def method(self):\n"
            "        import repro.c\n"
            "def outer():\n"
            "    def inner():\n"
            "        import repro.b\n"
        ),
        "repro/b.py": "",
        "repro/c.py": "",
    })
    assert [(e.source, e.target, e.lineno, e.deferred)
            for e in index.import_edges] == [
        ("repro.a", "repro.b", 2, False),
        ("repro.a", "repro.c", 4, True),
        ("repro.a", "repro.b", 7, True),
    ]


def test_relative_imports_in_a_package_init(tmp_path):
    index = index_from(tmp_path, {
        "repro/top.py": "",
        "repro/pkg/__init__.py": (
            "from .util import VALUE\n"
            "from . import util\n"
            "from .. import top\n"
        ),
        "repro/pkg/util.py": "VALUE = 1\n",
    })
    bindings = index.bindings["repro.pkg"]
    assert [(local, b.module, b.symbol) for local, b in bindings.items()] == [
        ("VALUE", "repro.pkg.util", "VALUE"),
        ("util", "repro.pkg", "util"),
        ("top", "repro", "top"),
    ]
    assert [(e.target, e.lineno) for e in index.import_edges
            if e.source == "repro.pkg"] == [
        ("repro.pkg.util", 1), ("repro.pkg.util", 2), ("repro.top", 3)]


def test_call_sites_keep_ast_walk_order_within_a_function(tmp_path):
    index = index_from(tmp_path, {
        "repro/order.py": (
            "def a(x):\n"
            "    return x\n"
            "def b(x):\n"
            "    return x\n"
            "def c(x):\n"
            "    return x\n"
            "@c(0)\n"
            "def f(x):\n"
            "    y = a(b(x))\n"
            "    return c(y)\n"
        ),
    })
    sites = index.calls[("repro.order", "f")]
    assert [site.target[1] for site in sites] == ["c", "a", "c", "b"]
    assert [site.node.lineno for site in sites] == [7, 9, 10, 9]
    assert index.calls[("repro.order", "")] == []
