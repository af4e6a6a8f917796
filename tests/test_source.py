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


def test_every_public_definition_is_used_in_the_package():
    # what only tests reach belongs in tests/oracles.py, not in the package;
    # an import alias is not a use, and neither is a call from its own body
    modules = [(name, node) for name, node in _package_nodes() if isinstance(node, ast.Module)]
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
        short = qualname.rpartition(".")[2]
        if short.startswith("_"):
            continue
        own = {id(n) for n in ast.walk(node)}
        if all(id(n) in own for n in uses.get(short, ())):
            unused.append(qualname)
    assert unused == []
