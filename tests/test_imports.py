"""Tooling: every imported name in the package, the tests and the benchmark
harness is used (`__init__.py` is skipped: its imports are re-exports), the
package imports only numpy and the standard library, so that scipy stays a
test-only dependency, and no dataclass compares its arrays with numpy's ==."""

import ast
import dataclasses
import importlib
import pkgutil
import sys
import typing
from pathlib import Path

import numpy as np

import dbmatch
from dbmatch.probability import ByValue

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


def holds_arrays(cls) -> bool:
    """A dataclass with a field annotated as an array (or an optional one)."""
    if not dataclasses.is_dataclass(cls):
        return False
    hints = typing.get_type_hints(cls)
    return any(np.ndarray in (t, *typing.get_args(t)) for t in hints.values())


def compares_arrays_elementwise(cls) -> bool:
    """An array dataclass whose == or hash is not object's or ByValue's: a
    generated __eq__ compares the arrays with numpy's ==, which raises for
    two distinct instances, and a generated __hash__ raises as an array is
    unhashable."""
    return holds_arrays(cls) and (cls.__eq__, cls.__hash__) not in (
        (object.__eq__, object.__hash__),
        (ByValue.__eq__, ByValue.__hash__),
    )


def test_elementwise_check_flags_only_generated_array_equality():
    @dataclasses.dataclass(frozen=True)
    class Generated:
        a: np.ndarray | None

    @dataclasses.dataclass(frozen=True)
    class ByValueWithoutEqFalse(ByValue):
        a: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class Identity:
        a: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class Value(ByValue):
        a: np.ndarray

    @dataclasses.dataclass(frozen=True)
    class NoArray:
        a: tuple[int, ...]

    cases = (Generated, ByValueWithoutEqFalse, Identity, Value, NoArray)
    assert [compares_arrays_elementwise(c) for c in cases] == [True, True, False, False, False]


def test_no_dataclass_compares_arrays_elementwise():
    classes = []
    for info in pkgutil.iter_modules(dbmatch.__path__):
        module = importlib.import_module(f"dbmatch.{info.name}")
        classes += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and holds_arrays(obj)
        ]
    assert {"Pmf", "Database", "MatchReport"} <= {c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes if compares_arrays_elementwise(c)] == []
