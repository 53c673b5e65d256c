"""Tooling: every imported name in the package, the tests and the benchmark
harness is used.  `__init__.py` is skipped: its imports are re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "dbmatch").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_only_unused_names():
    src = "import os\nimport numpy as np\nfrom x import a, b\nnp.zeros(a)\n"
    assert unused_imports(src) == ["os (line 1)", "b (line 3)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
