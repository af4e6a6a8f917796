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
