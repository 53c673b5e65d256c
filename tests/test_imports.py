"""Tooling: every imported name in the package, the tests and the benchmark
harness is used (`__init__.py` is skipped: its imports are re-exports), and
the package imports only numpy and the standard library, so that scipy
stays a test-only dependency."""

import ast
import sys
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


def foreign_imports(source: str) -> list[str]:
    """Modules imported anywhere in source whose root is not numpy, dbmatch,
    a relative module or part of the standard library."""
    allowed = sys.stdlib_module_names | {"numpy", "dbmatch"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        roots = (name for name in names if name.split(".")[0] not in allowed)
        found += [f"{name} (line {node.lineno})" for name in roots]
    return found


def test_foreign_import_check_flags_only_third_party_modules():
    src = (
        "import os.path\nimport numpy as np\nfrom . import model\nfrom scipy import optimize\n"
        "def f():\n    import pandas\n"
    )
    assert foreign_imports(src) == ["scipy (line 4)", "pandas (line 6)"]


def test_package_imports_only_numpy_and_the_standard_library():
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "dbmatch").glob("*.py"))
        if (names := foreign_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
