import ast
from pathlib import Path

import trispcat


def test_package_has_no_assert_statement():
    # `python -O` strips `assert`, so every soundness check must raise instead
    found = []
    for path in sorted(Path(trispcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
