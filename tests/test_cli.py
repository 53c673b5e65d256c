"""CLI surface: subcommands, formats, exit codes, reproducible outputs."""

import json

import pytest

from dbmatch.cli import main
from dbmatch.experiments import CONFIG_FIELDS, load_config
from dbmatch.model import DEFAULT_ENTRY_CAP

CONFIG = {
    "alphabetSize": 2,
    "pX": [0.5, 0.5],
    "pS": [0.2, 0.5, 0.3],
    "channel": [[0.9, 0.1], [0.1, 0.9]],
    "n": 16,
    "rate": 0.2,
    "trials": 3,
    "masterSeed": 5,
    "rateGrid": [0.1, 0.2],
    "mGrid": [100],
    "bGrid": [10],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def write_config(tmp_path, **overrides):
    data = dict(CONFIG)
    data.update(overrides)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_capacity_noiseless_deletion_closed_form(tmp_path, capsys):
    path = write_config(
        tmp_path, channel=[[1.0, 0.0], [0.0, 1.0]], pS=[0.25, 0.5, 0.25]
    )
    assert main(["capacity", "--config", path]) == 0
    out = capsys.readouterr().out
    cap = float(out.split()[1])
    assert cap == pytest.approx(0.75 * 1.0, abs=1e-10)  # (1 - delta) H(X)
    assert "s=0" in out and "s=2" in out


def test_capacity_no_sync_errors_closed_form(tmp_path, capsys):
    path = write_config(tmp_path, pS=[0.0, 1.0])
    assert main(["capacity", "--config", path, "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    # I(X;Y) for the symmetric binary channel at crossover 0.1
    assert blob["capacity"] == pytest.approx(0.5310044064107188, abs=1e-10)
    assert blob["crossCheck"] == pytest.approx(blob["capacity"], abs=1e-10)


def test_capacity_beyond_four_repetitions(tmp_path, capsys):
    path = write_config(tmp_path, pS=[0.1, 0.2, 0.2, 0.2, 0.2, 0.1])
    assert main(["capacity", "--config", path, "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["crossCheck"] == pytest.approx(blob["capacity"], abs=1e-12)
    assert set(blob["perCount"]) == {"0", "1", "2", "3", "4", "5"}
    assert main(["capacity", "--config", path]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_capacity_cross_check_rejects_nan(config_path, capsys, monkeypatch, fmt):
    monkeypatch.setattr("dbmatch.probability.capacity_direct", lambda *args: float("nan"))
    assert main(["capacity", "--config", config_path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "cross-check failed" in captured.err
    assert captured.out == ""


def test_simulate_json_and_csv(config_path, capsys):
    assert main(["simulate", "--config", config_path]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 3
    assert {"trial", "replicaOk", "errorRate"} <= set(records[0])
    assert main(["simulate", "--config", config_path, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("trial,replicaOk,deletionOk,patternOk,errorRate,wallTime")


def test_sweep_writes_file(config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rate,m,trials,")
    assert len(lines) == 3


def test_sweep_grid_flag(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--config", config_path, "--grid", "0.05,0.1,0.15", "--out", str(out)]
    ) == 0
    assert len(out.read_text().splitlines()) == 4


def test_sweep_byte_identical_reruns(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", config_path, "--out", str(a)]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_output(tmp_path):
    # narrow typicality window sits mid-transition: error rates vary by seed
    path = write_config(
        tmp_path,
        pS=[0.0, 1.0],
        n=30,
        rate=0.3,
        trials=6,
    )
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert main(["simulate", "--config", path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", path, "--seed", "99", "--out", str(b)]) == 0
    assert main(["simulate", "--config", path, "--seed", "5", "--out", str(c)]) == 0
    rates = lambda p: [r["errorRate"] for r in json.loads(p.read_text())]
    assert rates(a) != rates(b)
    assert rates(a) == rates(c)  # --seed equal to the config seed is a no-op


def test_detect_bench_csv(config_path, capsys):
    assert main(["detect-bench", "--config", config_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stage,param,trials,successes,successRate,analyticBound"
    assert any(line.startswith("replica,") for line in lines[1:])
    assert any(line.startswith("deletion,") for line in lines[1:])


def test_malformed_pmf_rejected(tmp_path, capsys):
    path = write_config(tmp_path, pX=[0.5, 0.4])
    assert main(["capacity", "--config", path]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, attr, default",
    [
        ("entryCap", "entry_cap", DEFAULT_ENTRY_CAP),
        ("threads", "threads", 1),
        ("rateGrid", "rate_grid", ()),
        ("mGrid", "m_grid", (1_000, 10_000, 100_000)),
        ("epsilon", "epsilon", None),
    ],
)
def test_null_optional_key_loads_default(tmp_path, key, attr, default):
    path = write_config(tmp_path, **{key: None})
    assert getattr(load_config(path), attr) == default
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("key", ["n", "pX", "masterSeed"])
def test_null_required_key_exits_2(tmp_path, capsys, key):
    path = write_config(tmp_path, **{key: None})
    assert main(["simulate", "--config", path]) == 2
    assert f"config missing required keys: ['{key}']" in capsys.readouterr().err


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["capacity", "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


# wrong JSON types per field kind: each must exit 2 naming the key
_NOT_AN_ARRAY = ["x", True, {"a": 1}, 3]
WRONG_TYPES = {
    "int": ["12", True, {"a": 1}, 2.5],
    "float": ["0.5", False, {"a": 1}],
    "ints": _NOT_AN_ARRAY + [[1, "2"], [1.5]],
    "floats": _NOT_AN_ARRAY + [[0.1, "0.2"], [True]],
    "pmf": _NOT_AN_ARRAY + [[0.5, "0.5"]],
    "channel": _NOT_AN_ARRAY + [[[0.9, 0.1], 0.1], [[0.9, "0.1"], [0.1, 0.9]]],
}
# NaN, the infinities and an integer beyond the float range, wherever a float goes
NON_FINITE = {
    "float": {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "huge-int": 10**400},
    "floats": {"nan-entry": [0.1, float("nan")]},
    "pmf": {"nan-entry": [0.5, float("nan")]},
    "channel": {"inf-entry": [[0.9, float("inf")], [0.1, 0.9]]},
}


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, (_, kind, _) in CONFIG_FIELDS.items() for value in WRONG_TYPES[kind]]
    + [
        pytest.param(key, value, id=f"{key}-{label}")
        for key, (_, kind, _) in CONFIG_FIELDS.items()
        for label, value in NON_FINITE.get(kind, {}).items()
    ],
)
def test_wrong_json_type_exits_2_naming_key(tmp_path, capsys, key, value):
    path = write_config(tmp_path, **{key: value})
    assert main(["capacity", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"dbmatch: error: {key}: ")
    assert "is not a" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("matchRows", 0),
        ("threads", 0),
        ("threads", -3),
        ("masterSeed", -1),
        ("n", 0),
        ("trials", 0),
        ("seedRows", -1),
        ("entryCap", 0),
        ("epsilon", 0.0),
        ("mGrid", [100, 0]),
        ("bGrid", [-1]),
        ("alphabetSize", 1),
        # 2**(16 * 100) rows overflow a float
        ("rate", 100),
        ("rateGrid", [0.1, 64.0]),
    ],
)
def test_value_below_bound_exits_2_naming_key(tmp_path, capsys, key, value):
    path = write_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"dbmatch: error: {key} must be ")


@pytest.mark.parametrize(
    "flags, key",
    [(["--threads", "0"], "threads"), (["--seed", "-1"], "masterSeed")],
)
def test_flag_below_bound_exits_2_naming_key(config_path, capsys, flags, key):
    assert main(["sweep", "--config", config_path, *flags]) == 2
    assert capsys.readouterr().err.startswith(f"dbmatch: error: {key} must be ")


def test_flags_override_file_values(config_path):
    cfg = load_config(config_path, masterSeed=9, threads=2, rateGrid=[0.3])
    assert (cfg.master_seed, cfg.threads, cfg.rate_grid) == (9, 2, (0.3,))
    cfg = load_config(config_path, masterSeed=None, threads=None, rateGrid=None)
    assert (cfg.master_seed, cfg.threads, cfg.rate_grid) == (5, 1, (0.1, 0.2))


def test_bad_grid_flag_exits_2(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config_path, "--grid", "0.1,x"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_integral_floats_load_as_ints(tmp_path):
    cfg = load_config(write_config(tmp_path, n=16.0, trials=3.0, mGrid=[100.0]))
    assert (cfg.n, cfg.trials, cfg.m_grid) == (16, 3, (100,))
    assert all(type(v) is int for v in (cfg.n, cfg.trials, *cfg.m_grid))


def test_missing_config_file(capsys, tmp_path):
    assert main(["capacity", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_no_partial_output_on_error(tmp_path, capsys):
    path = write_config(tmp_path, pX=[0.5, 0.4])
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_output_written_atomically(config_path, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "records.json"
    out.write_text("stale")
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 3
    assert [p.name for p in out_dir.iterdir()] == ["records.json"]
