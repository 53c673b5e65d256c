"""Golden CLI outputs: the exact stdout of every subcommand in both formats.

`golden_cli.json` holds the expected exit code and stdout of each case,
with `wallTime` values masked.  Two small configs cover the output shapes:
a three-symbol config with a row-major channel, a matched-row subset,
explicit seed rows and a zero seed batch, and an independent channel whose
trials all fail (empty `errorRate` cells, failure strings, NaN aggregates,
and an error exit from `detect-bench`).
"""

import json
import re
from pathlib import Path

import pytest

from dbmatch.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CONFIGS = {
    "k3": {
        "alphabetSize": 3,
        "pX": [0.5, 0.3, 0.2],
        "pS": [0.2, 0.5, 0.3],
        "channel": [0.9, 0.05, 0.05, 0.1, 0.8, 0.1, 0.05, 0.15, 0.8],
        "n": 12,
        "rate": 0.4,
        "trials": 3,
        "masterSeed": 17,
        "matchRows": 6,
        "seedRows": 12,
        "rateGrid": [0.3, 0.5],
        "mGrid": [40],
        "bGrid": [0, 12],
    },
    "independent": {
        "alphabetSize": 2,
        "pX": [0.5, 0.5],
        "pS": [0.2, 0.5, 0.3],
        "channel": [[0.5, 0.5], [0.5, 0.5]],
        "n": 10,
        "m": 32,
        "trials": 2,
        "masterSeed": 3,
        "rateGrid": [0.3],
        "mGrid": [20],
        "bGrid": [4],
    },
}
COMMANDS = ("capacity", "simulate", "sweep", "detect-bench")
FORMATS = ("csv", "json")
CASES = [
    f"{name}/{command}/{fmt}" for name in CONFIGS for command in COMMANDS for fmt in FORMATS
]

_JSON_WALL = re.compile(r'("wallTime": )[^,\n]+')


def mask_wall_time(text: str) -> str:
    """Replace every wallTime value by 0, in JSON records and in CSV rows."""
    text = _JSON_WALL.sub(r"\g<1>0", text)
    lines = text.split("\n")
    if lines and lines[0].startswith("trial,") and "wallTime" in lines[0]:
        col = lines[0].split(",").index("wallTime")
        for i in range(1, len(lines)):
            if lines[i]:
                cells = lines[i].split(",", col + 1)  # failure strings may hold commas
                cells[col] = "0"
                lines[i] = ",".join(cells)
    return "\n".join(lines)


def run_case(case: str, tmp_path, capsys) -> dict:
    name, command, fmt = case.split("/")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    code = main([command, "--config", str(path), "--format", fmt])
    return {"exit": code, "stdout": mask_wall_time(capsys.readouterr().out)}


@pytest.mark.parametrize("case", CASES)
def test_golden_cli_output(case, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[case]
    assert run_case(case, tmp_path, capsys) == expected
