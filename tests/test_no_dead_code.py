"""Every top-level function, class and constant in ``src/fedtune`` has a caller in ``src/``.

A name counts as used when some other top-level statement of the package
reads it, as a bare name or as an attribute (``model_mod.evaluate``). A
function's own local variables do not count, even when one has the name
of a top-level definition.
Imports alone do not count, and neither do tests or the benchmark: a helper
only they call is code the simulator does not need.

Every method of a class in ``src/fedtune`` is called as an attribute in
``src/`` (``store.retain(...)``), and every property (any other decorated
member) is read or set as one. Dunders are exempt: the language calls them.

Likewise every parameter of every function in ``src/fedtune`` is read in
the function's body: a parameter nothing reads is an input the caller
prepares for nothing. And every dataclass field is read as an attribute
somewhere in ``src/``: a field that is only written is state nothing uses.
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


# nodes that open a scope of their own for the names bound in them
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the scopes nested in it (those are yielded, not entered)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(scope: ast.AST) -> set[str]:
    """Names a function, lambda or comprehension binds in its own scope."""
    names, declared_global = set(), set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        names |= {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if arg is not None}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
    return names - declared_global


def _read_names(stmt: ast.stmt) -> set[str]:
    """Module-level names ``stmt`` reads, as bare names or as attributes.

    A bare name bound in the reading function's own scope, or in a function
    around it, is a local variable (``grad_check``'s ``scale``), not a read
    of the module-level name it shadows.
    """
    names = set()

    def visit(scope: ast.AST, local: set[str]) -> None:
        for node in _own_nodes(scope):
            if isinstance(node, _SCOPES):
                visit(node, local | _bound_names(node))
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id not in local):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)

    visit(stmt, _bound_names(stmt) if isinstance(stmt, _SCOPES) else set())
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


# read only by the prefix store's tests, to see which resume points it holds
ALLOWED_MEMBERS = {"model.PrefixStore.resume_points"}


def test_every_member_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    called = {n.func.attr for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    accessed = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    unused = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or (member.name.startswith("__") and member.name.endswith("__")):
                    continue
                plain = all(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                            for d in member.decorator_list)
                if member.name not in (called if plain else accessed):
                    unused.append(f"{module}.{cls.name}.{member.name}")
    dead = sorted(set(unused) - ALLOWED_MEMBERS)
    assert not dead, f"no caller in src/: {', '.join(dead)}"
    assert ALLOWED_MEMBERS <= set(unused), \
        "an allowlisted member gained a caller; drop it from ALLOWED_MEMBERS"


# the context-manager protocol passes the exception triple whether it is read or not
PROTOCOL_METHODS = {"__exit__"}


def _reads(scope: ast.AST, name: str) -> bool:
    """Whether ``scope``, or a scope nested in it that does not rebind ``name``, loads ``name``."""
    for node in _own_nodes(scope):
        if isinstance(node, _SCOPES):
            if name not in _bound_names(node) and _reads(node, name):
                return True
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
            return True
    return False


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or func.name in PROTOCOL_METHODS:
                continue
            a = func.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and not _reads(func, arg.arg):
                    unread.append(f"{path.stem}.{func.name}({arg.arg}), line {func.lineno}")
    assert not unread, f"parameters never read: {', '.join(unread)}"


# read only by the benchmark, which reports the ledgers' integrity failures
ALLOWED_FIELDS = {"cache.ActivationCache.integrity_failures"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and _is_dataclass(n)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                        and stmt.target.id not in read:
                    unread.append(f"{module}.{cls.name}.{stmt.target.id}")
    dead = sorted(set(unread) - ALLOWED_FIELDS)
    assert not dead, f"dataclass fields never read in src/: {', '.join(dead)}"
    assert ALLOWED_FIELDS <= set(unread), \
        "an allowlisted field gained a reader; drop it from ALLOWED_FIELDS"
