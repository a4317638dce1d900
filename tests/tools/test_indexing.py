"""Tests for the memoized project-loading facade shared by the analyzers."""

from pathlib import Path

import pytest

import repro
from repro.tools.indexing import (
    clear_index_cache,
    index_cache_info,
    load_indexed_project,
)

#: A real subtree with code for every analyzer's model (the serving
#: layer's gateway and client included), analyzed without context.
SERVING_ROOT = Path(repro.__file__).resolve().parent / "serving"


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_index_cache()
    yield
    clear_index_cache()


def write_tree(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "alpha.py").write_text(
        '"""Alpha."""\n\n__all__ = ["one"]\n\n\ndef one():\n    return 1\n',
        encoding="utf-8",
    )
    (tmp_path / "beta.py").write_text(
        '"""Beta."""\n\n__all__ = ["two"]\n\n\ndef two():\n    return 2\n',
        encoding="utf-8",
    )
    return tmp_path


def test_identical_arguments_hit_the_cache(tmp_path):
    tree = write_tree(tmp_path)
    first = load_indexed_project([tree], root=tree)
    second = load_indexed_project([tree], root=tree)
    assert second is first  # the exact same object, not an equal copy
    info = index_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    assert first.n_files == 2
    assert {m.dotted_name for m in first.project.modules} == {"alpha", "beta"}


def test_touching_a_file_invalidates_the_entry(tmp_path):
    tree = write_tree(tmp_path)
    first = load_indexed_project([tree], root=tree)
    target = tree / "alpha.py"
    target.write_text(
        target.read_text(encoding="utf-8").replace("return 1", "return 10"),
        encoding="utf-8",
    )
    second = load_indexed_project([tree], root=tree)
    assert second is not first
    assert index_cache_info()["misses"] == 2


def test_different_context_paths_are_distinct_entries(tmp_path):
    tree = write_tree(tmp_path / "pkg")
    context = tmp_path / "ctx"
    context.mkdir()
    (context / "uses.py").write_text(
        '"""Ctx."""\n\nfrom alpha import one\n\nprint(one())\n',
        encoding="utf-8",
    )
    bare = load_indexed_project([tree], root=tree)
    with_context = load_indexed_project([tree], root=tree,
                                        context_paths=[context])
    assert with_context is not bare
    assert len(with_context.context_modules) == 1
    assert index_cache_info()["misses"] == 2


def test_all_six_analyzers_share_one_parse_of_the_real_tree():
    from repro.tools.check import TOOL_NAMES, run_analyzer

    hits = []
    for name in TOOL_NAMES:
        run_analyzer(name, [SERVING_ROOT], context_paths=())
        info = index_cache_info()
        assert info["misses"] == 1  # one parse, whichever tool ran first
        hits.append(info["hits"])
    assert hits == sorted(set(hits))  # every later tool was a cache hit


def _memoized_model(name):
    from repro.tools.check import get_analyzer, run_analyzer

    run_analyzer(name, [SERVING_ROOT], context_paths=())
    loaded = load_indexed_project([SERVING_ROOT])
    model = get_analyzer(name).model(loaded)
    assert model is get_analyzer(name).model(loaded)  # once per cache entry
    return loaded, model


def test_perf_memoizes_its_loop_model_on_the_shared_entry():
    loaded, model = _memoized_model("perf")
    assert model.functions  # and actually populated


def test_shape_memoizes_its_shape_model_on_the_shared_entry():
    from repro.tools.check import get_analyzer

    loaded, model = _memoized_model("shape")
    assert model.functions  # and actually populated
    # Loop and shape models coexist on one entry without eviction.
    perf_loaded, _ = _memoized_model("perf")
    assert perf_loaded is loaded
    assert get_analyzer("shape").model(loaded) is model


def test_wire_memoizes_its_wire_model_on_the_shared_entry():
    from repro.tools.check import get_analyzer

    loaded, model = _memoized_model("wire")
    assert model.gateways and model.clients  # and actually populated
    # The wire model consumes the shape model, so one wire run warms
    # both on the same entry.
    assert model.shape_model is get_analyzer("shape").model(loaded)


def test_check_runs_the_whole_suite_on_one_parse():
    from repro.tools.check import run_check

    report = run_check([SERVING_ROOT], context_paths=())
    assert tuple(report.results) == (
        "lint", "flow", "race", "perf", "shape", "wire",
    )
    assert not report.crashes
    info = index_cache_info()
    assert info["misses"] == 1  # six analyzers, one parse
    assert info["hits"] >= 5


def test_callers_must_copy_parse_violations(tmp_path):
    tree = write_tree(tmp_path)
    (tree / "broken.py").write_text("def nope(:\n", encoding="utf-8")
    loaded = load_indexed_project([tree], root=tree)
    assert len(loaded.parse_violations) == 1
    # The documented contract: consumers copy before appending, so the
    # cached list is still pristine for the next tool in the process.
    again = load_indexed_project([tree], root=tree)
    assert again.parse_violations == loaded.parse_violations
    assert len(again.parse_violations) == 1


# -- derived facts: computed once per entry, never shared across entries --

#: Every analyzer fixture directory, analyzed in isolation below.
FIXTURE_DIRS = sorted(
    path for path in Path(__file__).resolve().parent.glob("*_fixtures/*")
    if path.is_dir()
)


def _check_json(report) -> str:
    from repro.tools.check.cli import _merged_json

    return _merged_json(report, show_suppressed=True)


def _isolated_json(target) -> str:
    """Each analyzer alone on a fresh entry, merged as ``repro check`` would."""
    from repro.tools.check import CheckReport, TOOL_NAMES, run_check

    merged = CheckReport()
    for name in TOOL_NAMES:
        clear_index_cache()
        report = run_check([target], context_paths=(), tools=[name])
        merged.n_files = report.n_files
        merged.results.update(report.results)
        merged.crashes.update(report.crashes)
    return _check_json(merged)


@pytest.mark.parametrize(
    "target", [SERVING_ROOT, *FIXTURE_DIRS],
    ids=lambda path: "/".join(path.parts[-2:]),
)
def test_shared_entry_renders_what_isolated_analyzers_render(target):
    from repro.tools.check import run_check

    shared = _check_json(run_check([target], context_paths=()))
    assert index_cache_info()["misses"] == 1
    assert _isolated_json(target) == shared


def _taxonomy_tree(path, base):
    """Two modules named as in every such tree; ``Foreign`` derives from ``base``."""
    path.mkdir()
    (path / "errors.py").write_text(
        '"""Errors."""\n\n__all__ = ["Foreign", "ReproError"]\n\n\n'
        "class ReproError(Exception):\n    pass\n\n\n"
        f"class Foreign({base}):\n    pass\n",
        encoding="utf-8",
    )
    (path / "use.py").write_text(
        '"""Use."""\n\nfrom errors import Foreign\n\n__all__ = ["fail"]\n\n\n'
        "def fail():\n    raise Foreign()\n",
        encoding="utf-8",
    )
    return path


def test_derived_facts_do_not_leak_across_entries(tmp_path):
    import json

    from repro.tools.check import run_check

    # Same module and class names, different hierarchies: R004 flags the
    # raise only where ``Foreign`` is outside the ReproError family, so a
    # class table kept by name rather than per entry shows in a report.
    foreign = _taxonomy_tree(tmp_path / "foreign", "Exception")
    family = _taxonomy_tree(tmp_path / "family", "ReproError")

    def render(target):
        return _check_json(run_check([target], root=target, context_paths=()))

    def r004(text):
        return [v for v in json.loads(text)["tools"]["lint"]["violations"]
                if v["code"] == "R004"]

    first = render(foreign)
    assert [v["path"] for v in r004(first)] == ["use.py"]
    assert r004(render(family)) == []
    assert render(foreign) == first


def test_check_walks_each_module_tree_at_most_once(monkeypatch):
    import ast
    from collections import Counter

    from repro.tools.check import run_check

    loaded = load_indexed_project([SERVING_ROOT], context_paths=())
    walks = Counter()
    walk = ast.walk

    def counting_walk(node):
        if isinstance(node, ast.Module):
            walks[id(node)] += 1
        return walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    report = run_check([SERVING_ROOT], context_paths=())
    monkeypatch.undo()
    assert not report.crashes
    assert index_cache_info()["misses"] == 1  # the index built above
    # The one whole-module walk is the scope walk cached on each module
    # (``ModuleInfo.nodes`` and the scope lists); no ``ast.walk`` repeats it.
    assert not walks
    assert all("_scoped_walk" in vars(module)
               for module in loaded.project.modules)
    project = loaded.project
    assert project.class_defs() is project.class_defs()
    assert project.subclasses_of(["ReproError"]) \
        is project.subclasses_of({"ReproError"})


def test_index_build_expands_each_node_at_most_once(monkeypatch):
    import ast
    from collections import Counter

    expanded = Counter()
    iter_child_nodes = ast.iter_child_nodes

    def counting_iter_child_nodes(node):
        if node._fields:  # not a shared leaf such as ``ast.Load()``
            expanded[id(node)] += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting_iter_child_nodes)
    loaded = load_indexed_project([SERVING_ROOT], context_paths=())
    monkeypatch.undo()
    assert index_cache_info()["misses"] == 1
    modules = loaded.project.modules
    assert set(expanded) == {id(node) for module in modules
                             for node in ast.walk(module.tree) if node._fields}
    assert max(expanded.values()) == 1
    # Nothing else is derived while the index is built.
    assert not any("nodes" in vars(module) for module in modules)


#: ``ast.iter_child_nodes`` calls per node in one ``repro check`` on a
#: built index: (mean, max).  One walk of each module, then about one
#: pass per function for each of race, perf, shape and flow's taint
#: scopes; the rest reads the shared scope lists.  Reached: serving
#: 4.49 and 11, the W501 fixture 4.12 and 6.  A new re-walk of the same
#: nodes fails here; a change that walks less lowers the pins.
CHECK_EXPANSIONS = {
    "serving": (SERVING_ROOT, 4.5, 11),
    "w501_contract": (Path(__file__).resolve().parent
                      / "wire_fixtures" / "w501_contract", 4.2, 6),
}


@pytest.mark.parametrize("name", sorted(CHECK_EXPANSIONS))
def test_check_expands_each_node_a_pinned_number_of_times(monkeypatch,
                                                          name):
    import ast
    from collections import Counter

    from repro.tools.check import run_check

    target, mean_bound, max_bound = CHECK_EXPANSIONS[name]
    loaded = load_indexed_project([target], context_paths=())
    expanded = Counter()
    iter_child_nodes = ast.iter_child_nodes

    def counting_iter_child_nodes(node):
        if node._fields:  # not a shared leaf such as ``ast.Load()``
            expanded[id(node)] += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting_iter_child_nodes)
    report = run_check([target], context_paths=())
    monkeypatch.undo()
    assert not report.crashes
    assert index_cache_info()["misses"] == 1  # the index built above
    nodes = {id(node) for module in loaded.project.modules
             for node in ast.walk(module.tree) if node._fields}
    assert set(expanded) <= nodes
    mean = sum(expanded.values()) / len(nodes)
    assert mean <= mean_bound, f"{mean:.2f} expansions per node"
    assert max(expanded.values()) <= max_bound


def test_appending_a_module_invalidates_the_class_table(tmp_path):
    from repro.tools.lint.engine import Project, load_module

    (tmp_path / "base.py").write_text("class Root:\n    pass\n",
                                      encoding="utf-8")
    (tmp_path / "child.py").write_text("class Leaf(Root):\n    pass\n",
                                       encoding="utf-8")
    project = Project()
    project.modules.append(load_module(tmp_path / "base.py")[0])
    table = project.class_defs()
    assert set(table) == {"Root"}
    assert project.subclasses_of(["Root"]) == set()

    project.modules.append(load_module(tmp_path / "child.py")[0])
    assert set(project.class_defs()) == {"Root", "Leaf"}
    assert project.class_defs() is not table
    assert project.subclasses_of(["Root"]) == {"Leaf"}
