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
