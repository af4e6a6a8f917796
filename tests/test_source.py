import ast
from pathlib import Path

import trispcat


def _package_nodes():
    """(file name, node) for every AST node of every module in the package."""
    for path in sorted(Path(trispcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_package_has_no_assert_statement():
    # `python -O` strips `assert`, so every soundness check must raise instead
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_stage_clock_imports_time():
    # no result may depend on a clock; graphs._StageClock only times stages
    importers = {
        name
        for name, node in _package_nodes()
        if isinstance(node, ast.Import) and any(alias.name == "time" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "time"
    }
    assert importers == {"graphs.py"}


def test_no_quotient_piece_is_an_optional_parameter():
    # a quotient carries its source and its action, so a function that needs
    # one takes it whole; an optional piece would be a second, unchecked path
    pieces = {"qt", "qc", "nerve_q", "nerve_src", "taction"}
    found = []
    for name, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            ]
            found += [f"{name}:{node.lineno} {a.arg}" for a in defaulted if a.arg in pieces]
    assert found == []


def _modules():
    return [(name, node) for name, node in _package_nodes() if isinstance(node, ast.Module)]


def test_every_public_definition_is_used_in_the_package():
    # what only tests reach belongs in tests/oracles.py, not in the package;
    # an import alias is not a use, and neither is a call from its own body;
    # a method is used only as an attribute, so a local variable of the same
    # name does not count
    modules = _modules()
    defined = []
    for name, module in modules:
        if name == "__init__.py":
            continue
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    uses = {}
    for _name, module in modules:
        for node in ast.walk(module):
            if isinstance(node, (ast.Name, ast.Attribute)):
                key = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(key, []).append(node)
    unused = []
    for qualname, node in defined:
        owner, _dot, short = qualname.rpartition(".")
        if short.startswith("_"):
            continue
        own = {id(n) for n in ast.walk(node)}
        found = [n for n in uses.get(short, ()) if not owner or isinstance(n, ast.Attribute)]
        if all(id(n) in own for n in found):
            unused.append(qualname)
    assert unused == []


def _is_dataclass(node):
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_public_field_is_read_in_the_package():
    # a stored value nothing in the package reads is dead weight that its
    # owner keeps alive; exception attributes (errors.py) serve handlers.
    # Reads are matched by attribute name alone, so an unread field passes
    # when another attribute of its name is read: a stored CanonicalMap.qt
    # would pass through PushedClosureMap.qt, and Nerve.category through
    # Poset.category.
    fields = []
    for name, module in _modules():
        if name == "errors.py":
            continue
        for cls in (node for node in module.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if _is_dataclass(cls) and isinstance(item, ast.AnnAssign):
                    fields.append(f"{cls.name}.{item.target.id}")
                if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__post_init__"):
                    fields += [
                        f"{cls.name}.{n.attr}"
                        for n in ast.walk(item)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                    ]
    read = {
        node.attr
        for _name, module in _modules()
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    shorts = {f: f.rpartition(".")[2] for f in fields}
    unread = sorted(f for f, a in shorts.items() if not a.startswith("_") and a not in read)
    assert unread == []
