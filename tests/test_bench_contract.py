"""The names the benchmark's layer trace (bench/tracer.py) wraps.

The tracer rebinds functions by identity in every module that holds them
and refuses to install when a listed binding is missing, so a rename or a
dropped import in src/ would only show when the benchmark runs.  These
checks read the tracer's tables without starting any process.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qdp_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("home, attr, expect", [
    (home, attr, expect) for home, attr, _, expect in tracer.FUNCTION_SPANS],
    ids=[f"{home}.{attr}" for home, attr, _, _ in tracer.FUNCTION_SPANS])
def test_function_span_bound_in_every_listed_module(home, attr, expect):
    orig = getattr(importlib.import_module(home), attr)
    for modname in expect:
        mod = importlib.import_module(modname)
        assert any(value is orig for value in vars(mod).values()), \
            f"{home}.{attr} is not bound in {modname}"


@pytest.mark.parametrize("home, cls, meth", [
    (home, cls, meth) for home, cls, meth, _ in tracer.METHOD_SPANS])
def test_method_span_exists(home, cls, meth):
    klass = getattr(importlib.import_module(home), cls)
    assert callable(getattr(klass, meth))


def test_other_wrapped_names_exist():
    import qdp.bundles
    import qdp.cli
    import qdp.hopf
    import qdp.selftest
    assert callable(qdp.hopf._rewrite_at)
    for mod in (qdp.cli, qdp.selftest):
        assert mod.builtin is qdp.bundles.builtin
    assert callable(qdp.bundles.builtin.cache_info)


def test_criteria_match_the_bench_names():
    # bench/run.py names a span per criterion; read its CRITERIA tuple
    # without importing the runner
    import qdp.selftest
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    bench_names = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "CRITERIA" for t in node.targets))
    assert [name for name, _ in qdp.selftest.CRITERIA] == list(bench_names)
    assert all(isinstance(entry, tuple) and len(entry) == 2
               and isinstance(entry[0], str) and callable(entry[1])
               for entry in qdp.selftest.CRITERIA)
