"""Only ``model.PrefixStore.prefetch`` builds frozen-prefix activations in ``src/fedtune``.

The session keeps one host store of frozen-prefix activations, and the
store has one builder. A second store, a cache that computes its own
arrays again, or a store method other than ``prefetch`` that builds a
chunk itself would have to read ``compute_boundary_activation``; this
test fails when anything in the package other than
``PrefixStore.prefetch`` reads that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedtune"
NAME = "compute_boundary_activation"


def _readers(tree: ast.AST, owner: str, found: list[str]) -> None:
    for node in ast.iter_child_nodes(tree):
        inner = owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{node.name}"
        if isinstance(node, ast.Name) and node.id == NAME or \
                isinstance(node, ast.Attribute) and node.attr == NAME:
            found.append(inner)
        _readers(node, inner, found)


def test_only_the_prefix_store_computes_boundary_activations():
    found: list[str] = []
    for path in sorted(SRC.glob("*.py")):
        _readers(ast.parse(path.read_text(), str(path)), path.stem, found)
    assert found and set(found) == {"model.PrefixStore.prefetch"}, found
