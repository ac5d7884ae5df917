"""Every top-level function, class and constant in ``src/fedtune`` has a caller in ``src/``.

A name counts as used when some other top-level statement of the package
reads it, as a bare name or as an attribute (``model_mod.evaluate``).
Imports alone do not count, and neither do tests or the benchmark: a helper
only they call is code the simulator does not need.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedtune"

# the reference implementation the gradient tests compare the kernels against
ALLOWED = {"tensor_nn.grad_check"}


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_top_level_name_has_a_caller_in_src():
    statements = []  # (module, names it defines, names it reads)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            statements.append((path.stem, _defined_names(stmt), _read_names(stmt)))
    unused = []
    for i, (module, defined, _) in enumerate(statements):
        for name in defined:
            if not any(name in reads for j, (_, _, reads) in enumerate(statements) if j != i):
                unused.append(f"{module}.{name}")
    dead = sorted(set(unused) - ALLOWED)
    assert not dead, f"no caller in src/: {', '.join(dead)}"
    assert ALLOWED <= set(unused), "an allowlisted name gained a caller; drop it from ALLOWED"
