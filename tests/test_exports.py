"""No dead exports: every module-level def, class or assigned name in
src/qdp is read somewhere in src/, as a name, an attribute or an import."""

import ast
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Names nothing in src/ reads, each kept for a reason.
KEPT = {
    ("hopf", "tensor_multiply"): "bench/tracer.py wraps the product kernel "
                                 "under this name",
    ("freealg", "Element"): "bench/tracer.py wraps Element.truncate",
    ("__init__", "__version__"): "the package version",
}


def _defined(tree: ast.Module) -> list:
    """The module-level names a module binds, in source order."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return out


def _read(trees) -> set:
    """Every name loaded, attribute read or name imported in trees."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
    return out


def _dead_exports(sources: dict) -> list:
    """(module, name) for each module-level name in sources, a
    {module: text} map, that no source reads."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    read = _read(trees.values())
    return [(stem, name) for stem, tree in trees.items()
            for name in _defined(tree) if name not in read]


def _sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.rglob("*.py"))}


def test_every_module_level_name_has_a_reader():
    start = time.perf_counter()
    dead = _dead_exports(_sources())
    assert time.perf_counter() - start < 1
    assert [d for d in dead if d not in KEPT] == []
    assert set(KEPT) <= set(dead)  # an entry that gains a reader goes


def test_a_function_left_with_no_caller_is_flagged():
    sources = _sources()
    sources["hopf"] += "\n\ndef delta_E(a, E, n, P):\n    return a\n"
    assert ("hopf", "delta_E") in _dead_exports(sources)
