"""The README's Python examples run as written against the package, and
its config-schema table lists the keys, types and bounds of the config."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

from dbmatch.experiments import CONFIG_FIELDS, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    # the blocks share one namespace, as when they are run in order in one interpreter
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "np.int64" not in capsys.readouterr().out


def config_schema_rows() -> dict[str, dict[str, str]]:
    """The README's config-schema table: key -> its type, bound and default."""
    text = README.read_text()
    section = text[text.index("### Config schema (JSON)") : text.index("### Sweep CSV columns")]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, kind, bound, default = (cell.strip() for cell in line.split("|")[1:5])
            rows[key.strip("`")] = {"type": kind, "bound": bound, "default": default}
    return rows


def test_readme_config_schema_matches_config_fields():
    words = {
        "int": "integer",
        "float": "number",
        "ints": "array of integers",
        "floats": "array of numbers",
        "pmf": "array of numbers",
        "channel": "array",
    }
    rows = config_schema_rows()
    assert list(rows) == list(CONFIG_FIELDS)
    no_default = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    required = {key for key, row in rows.items() if row["default"] == "required"}
    assert required == {key for key, (attr, *_) in CONFIG_FIELDS.items() if attr in no_default}
    for key, (_, kind, low) in CONFIG_FIELDS.items():
        assert rows[key]["type"] == words[kind], key
        bound = "" if low is None else f"{'>' if kind == 'float' else '>='} {low}"
        assert rows[key]["bound"] == bound, key
