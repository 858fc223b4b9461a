"""Tests for scenario orchestration and the command line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import twinbeam_transfer
from twinbeam_transfer import scenario
from twinbeam_transfer.cli import main
from twinbeam_transfer.errors import ConfigurationError, ValidationError
from twinbeam_transfer.dsp_chain import SignalChainConfig
from twinbeam_transfer.model import MeasurementSetting, TwinPairParams
from twinbeam_transfer.oracle import predict_transfer
from twinbeam_transfer.scenario import (
    SWEEP_COLUMNS,
    ScenarioConfig,
    SweepAxis,
    load_config,
    run_scenario,
    run_selftest,
    run_sweep,
)
from twinbeam_transfer.selection import SelectionConfig


SMALL = ScenarioConfig(n_points=100_000, seed=7)

SCALED_CHAIN = SignalChainConfig(
    lo_frequency_hz=2.0e5,
    synth_rate_hz=2.0e6,
    post_mixer_cutoff_hz=2.0e4,
    output_rate_hz=5.0e4,
    cavity_bandwidth_hz=1.0e6,
)


def _read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


# ---------------------------------------------------------------- sweep axis

def test_sweep_axis_linear_and_log_values():
    lin = SweepAxis("squeezing_db", 0.0, 9.0, 4)
    assert np.allclose(lin.values(), [0.0, 3.0, 6.0, 9.0])
    log = SweepAxis("bandwidth_delta", 0.01, 1.0, 3, scale="log")
    assert np.allclose(log.values(), [0.01, 0.1, 1.0])


@pytest.mark.parametrize("kwargs", [
    dict(parameter="not_a_knob", minimum=0, maximum=1, steps=2),
    dict(parameter="squeezing_db", minimum=1.0, maximum=1.0, steps=2),
    dict(parameter="squeezing_db", minimum=0, maximum=1, steps=1),
    dict(parameter="squeezing_db", minimum=0, maximum=1, steps=2, scale="cubic"),
    dict(parameter="bandwidth_delta", minimum=0.0, maximum=1, steps=2, scale="log"),
])
def test_sweep_axis_validation(kwargs):
    with pytest.raises(ValidationError):
        SweepAxis(**kwargs)


# ------------------------------------------------------------------- config

def test_config_round_trip():
    cfg = ScenarioConfig(
        pair1=TwinPairParams(squeezing_db=5.0, efficiency=0.9),
        setting=MeasurementSetting.TWIN_BEAMS_45DEG,
        selection=SelectionConfig(bandwidth_delta=0.1, min_kept=50),
        n_points=1234,
        seed=42,
        engine="chain",
        sweep=SweepAxis("efficiency", 0.5, 1.0, 6),
        scatter_points=777,
    )
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    # survives a JSON round trip too
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_defaults_match_reference_scenario():
    cfg = ScenarioConfig()
    assert cfg.pair1.squeezing_db == 7.0
    assert cfg.selection.bandwidth_delta == 0.03
    assert cfg.n_points == 300_000
    assert cfg.engine == "direct"
    assert cfg.scatter_points == 20_000


@pytest.mark.parametrize("data,fragment", [
    ({"n_pionts": 100}, "n_pionts"),
    ({"pair1": {"squeezing": 7.0}}, "squeezing"),
    ({"selection": {"bandwidth_delta": 0.03, "window": 1}}, "window"),
    ({"signal_chain": {"sample_rate": 1e6}}, "sample_rate"),
    ({"sweep": {"parameter": "squeezing_db", "minimum": 0, "maximum": 1,
                "steps": 2, "spacing": "log"}}, "spacing"),
    ({"setting": "heterodyne"}, "heterodyne"),
    ({"engine": "gpu"}, "gpu"),
])
def test_config_rejects_unknown_or_invalid_keys(data, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        ScenarioConfig.from_dict(data)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_points": 5000, "seed": 3,
                                "selection": {"bandwidth_delta": 0.5}}))
    cfg = load_config(path)
    assert cfg.n_points == 5000
    assert cfg.selection.bandwidth_delta == 0.5
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_config(path)


# -------------------------------------------------------------- run_scenario

def test_run_scenario_reports_and_artifacts():
    result = run_scenario(SMALL)
    assert result.conditioned.squeezing_db == pytest.approx(
        result.oracle.transferred_db, abs=1.0)
    assert result.unconditioned.preparation_probability == 1.0
    assert result.unconditioned.kept_count == SMALL.n_points
    assert result.conditioned_histogram.total == result.conditioned.kept_count
    assert result.unconditioned_histogram.total == SMALL.n_points
    # conditioned scatter holds every kept event when below the subsample cap
    assert result.conditioned_scatter.shape == (result.conditioned.kept_count, 2)
    assert result.unconditioned_scatter.shape == (SMALL.scatter_points, 2)


def test_run_scenario_scatter_subsample_is_configurable():
    cfg = dataclasses.replace(SMALL, n_points=50_000, scatter_points=500)
    result = run_scenario(cfg)
    assert result.unconditioned_scatter.shape == (500, 2)


def test_run_scenario_deterministic():
    a = run_scenario(SMALL)
    b = run_scenario(SMALL)
    assert a.conditioned == b.conditioned
    assert a.unconditioned == b.unconditioned
    assert np.array_equal(a.conditioned_scatter, b.conditioned_scatter)


def test_run_scenario_chain_engine():
    cfg = ScenarioConfig(n_points=30_000, seed=2, engine="chain",
                         signal_chain=SCALED_CHAIN,
                         selection=SelectionConfig(bandwidth_delta=0.1))
    result = run_scenario(cfg)
    assert result.conditioned.squeezing_db == pytest.approx(
        result.oracle.transferred_db, abs=1.0)


def test_run_scenario_writes_stable_files(tmp_path):
    cfg = dataclasses.replace(SMALL, n_points=50_000, scatter_points=1000)
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    names = ["report.json", "scatter_conditioned.csv", "scatter_unconditioned.csv",
             "histogram_conditioned.csv", "histogram_unconditioned.csv"]
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name

    def reject_nonfinite(literal):
        raise ValueError(f"report.json holds the non-finite literal {literal}")

    report = json.loads((tmp_path / "a" / "report.json").read_text(),
                        parse_constant=reject_nonfinite)
    assert report["config"]["n_points"] == 50_000
    assert report["unconditioned"]["kept_count"] == 50_000
    assert report["unconditioned"]["preparation_probability"] == 1.0
    assert report["unconditioned"]["config_echo"]["selection"]["bandwidth_delta"] is None
    assert report["oracle"]["transferred_db"] == pytest.approx(3.995, abs=0.01)

    comments, header, rows = _read_csv(tmp_path / "a" / "histogram_conditioned.csv")
    assert any("twinbeam-transfer" in c for c in comments)
    assert any("config:" in c for c in comments)
    assert header == ["bin_left_delta", "bin_right_delta", "count"]
    assert sum(int(r[2]) for r in rows) == report["conditioned"]["kept_count"]

    _, header, rows = _read_csv(tmp_path / "a" / "scatter_unconditioned.csv")
    assert header == ["i1", "i2"]
    assert len(rows) == 1000


# ----------------------------------------------------------------- run_sweep

def test_run_sweep_requires_axis():
    with pytest.raises(ConfigurationError, match="sweep"):
        run_sweep(ScenarioConfig())


def test_run_sweep_rows_track_oracle():
    cfg = ScenarioConfig(n_points=60_000, seed=11,
                         selection=SelectionConfig(bandwidth_delta=0.1),
                         sweep=SweepAxis("squeezing_db", 0.0, 9.0, 4))
    rows = run_sweep(cfg)
    assert [set(r) for r in rows] == [set(SWEEP_COLUMNS)] * 4
    assert [r["axis_value"] for r in rows] == [0.0, 3.0, 6.0, 9.0]
    for row in rows:
        assert row["error"] == ""
        pair = TwinPairParams(squeezing_db=row["axis_value"])
        expected = predict_transfer(pair, pair, 0.1)
        assert row["oracle_transferred_db"] == pytest.approx(expected.transferred_db)
        assert row["oracle_probability"] == pytest.approx(
            expected.selection_probability)
        se = (row["ci_high_db"] - row["ci_low_db"]) / 2
        assert abs(row["transferred_db"] - row["oracle_transferred_db"]) < 4 * se


def test_run_sweep_parallel_rows_identical():
    cfg = ScenarioConfig(n_points=40_000, seed=5,
                         selection=SelectionConfig(bandwidth_delta=0.1),
                         sweep=SweepAxis("squeezing_db", 0.0, 9.0, 4))
    assert run_sweep(cfg) == run_sweep(cfg, workers=3)


def test_run_sweep_probability_monotone_in_bandwidth():
    cfg = ScenarioConfig(n_points=200_000, seed=9,
                         sweep=SweepAxis("bandwidth_delta", 0.01, 2.0, 6,
                                         scale="log"))
    rows = run_sweep(cfg)
    probs = [r["preparation_probability"] for r in rows]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    oracle = [r["oracle_probability"] for r in rows]
    assert all(b > a for a, b in zip(oracle, oracle[1:]))


def test_run_sweep_records_row_errors_without_aborting():
    # the smallest windows keep too few events; those rows carry the error
    cfg = ScenarioConfig(n_points=20_000, seed=3,
                         sweep=SweepAxis("bandwidth_delta", 1e-5, 1.0, 5,
                                         scale="log"))
    rows = run_sweep(cfg)
    assert len(rows) == 5
    failed = [r for r in rows if r["error"]]
    passed = [r for r in rows if not r["error"]]
    assert failed and passed
    for row in failed:
        assert math.isnan(row["transferred_db"])
        assert ("InsufficientStatisticsError" in row["error"]
                or "EmptySelectionError" in row["error"])
        # the oracle does not depend on the sampled events
        assert math.isfinite(row["oracle_transferred_db"])
        assert math.isfinite(row["oracle_probability"])
        if "EmptySelectionError" in row["error"]:
            assert row["kept_count"] == 0
        else:
            assert 0 < row["kept_count"] < cfg.selection.min_kept
            assert row["preparation_probability"] == row["kept_count"] / cfg.n_points
    for row in passed:
        assert math.isfinite(row["transferred_db"])


def test_run_sweep_axis_reaches_both_pairs():
    cfg = ScenarioConfig(n_points=40_000, seed=1,
                         selection=SelectionConfig(bandwidth_delta=0.2),
                         sweep=SweepAxis("rotation_deg", 0.0, 45.0, 2))
    rows = run_sweep(cfg)
    rotated = TwinPairParams(squeezing_db=7.0, rotation_deg=45.0)
    expected = predict_transfer(rotated, rotated, 0.2)
    assert rows[1]["oracle_transferred_db"] == pytest.approx(expected.transferred_db)


def test_run_sweep_writes_csv(tmp_path):
    cfg = ScenarioConfig(n_points=40_000, seed=5,
                         selection=SelectionConfig(bandwidth_delta=0.1),
                         sweep=SweepAxis("squeezing_db", 0.0, 9.0, 4))
    run_sweep(cfg, out_dir=tmp_path)
    comments, header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 4
    assert any("sweep: squeezing_db" in c for c in comments)
    # numeric columns survive a text round trip exactly
    assert [float(r[0]) for r in rows] == [0.0, 3.0, 6.0, 9.0]


# --------------------------------------------------------------- run_selftest

def test_run_selftest_passes_and_is_deterministic():
    first = run_selftest(seed=1, points=100_000, cases=4)
    second = run_selftest(seed=1, points=100_000, cases=4)
    assert first == second
    assert all(row["ok"] for row in first)
    assert {row["case"] for row in first} == {0, 1, 2, 3}


# ------------------------------------------------------------------------ cli

def test_cli_run_default_config(capsys):
    assert main(["run", "--points", "100000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "conditioned" in out and "unconditioned" in out and "oracle" in out


def test_cli_run_writes_files(tmp_path, capsys):
    code = main(["run", "--points", "100000", "--seed", "7",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 7
    assert report["version"] == "0.1.0"


def test_cli_run_bit_identical_reruns(tmp_path, capsys):
    args = ["run", "--points", "60000", "--seed", "13"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--workers", "3"]) == 0
    for name in ["report.json", "scatter_conditioned.csv",
                 "histogram_unconditioned.csv"]:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_cli_run_insufficient_statistics_exit_code(capsys):
    assert main(["run", "--points", "10"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_bad_config_exit_codes(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"n_pionts": 5}))
    assert main(["run", "--config", str(bad_key)]) == 2
    assert "n_pionts" in capsys.readouterr().err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{oops")
    assert main(["run", "--config", str(not_json)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 4


@pytest.mark.parametrize("text", [
    '{"seed": NaN}',
    '{"n_points": "abc"}',
    '{"n_points": 1e400}',
    '{"sweep": {"parameter": "squeezing_db", "minimum": 0, "maximum": 1, "steps": "x"}}',
    '{"selection": {"bandwidth_delta": "x"}}',
    '{"sweep": {"parameter": "squeezing_db", "minimum": 0, "maximum": 1, "steps": 2.9}}',
    '{"signal_chain": {"record_points": 7.9}}',
    '{"selection": {"bandwidth_delta": 0.03, "min_kept": 50.5}}',
    '{"seed": true}',
    '{"scatter_points": true}',
    '{"selection": {"bandwidth_delta": 1e400}}',
    # the routing is fixed (gate on s1 - s2, measure i1 - i2): no such keys
    '{"selection": {"bandwidth_delta": 0.03, "trigger_channels": ["s1", "s2"]}}',
    '{"selection": {"bandwidth_delta": 0.03, "target_channels": ["i1", "i2"]}}',
])
def test_cli_malformed_config_value_exit_code(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_model_error_exit_code(tmp_path, capsys):
    # a 12 dB dip at the lo is beyond reach of this narrow cavity: the chain
    # raises ModelError, which exits like any other configuration error
    chain = {**dataclasses.asdict(SCALED_CHAIN), "cavity_bandwidth_hz": 8.0e4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"engine": "chain", "signal_chain": chain,
                                "pair1": {"squeezing_db": 12.0},
                                "pair2": {"squeezing_db": 12.0}}))
    assert main(["run", "--config", str(path), "--points", "1000"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["direct", "chain"])
def test_cli_run_beyond_free_memory_exit_code(monkeypatch, capsys, engine):
    # the available-memory reading is lowered, never the machine's memory used up
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: 1_000_000)
    cfg = dataclasses.replace(SMALL, engine=engine, signal_chain=SCALED_CHAIN)
    with pytest.raises(ValidationError, match="memory"):
        run_scenario(cfg)
    assert main(["run", "--engine", engine, "--points", "100000"]) == 2
    assert "lower n_points (--points) to at most" in capsys.readouterr().err


def test_cli_sweep_beyond_free_memory_exit_code(monkeypatch, tmp_path, capsys):
    # room for one 20k-point row: a one-worker sweep runs every row, while two
    # rows at once are refused as a whole before any row runs, not row by row
    monkeypatch.setattr(scenario, "_available_memory_bytes",
                        lambda: 20_000 * scenario._BYTES_PER_EVENT)
    cfg = ScenarioConfig(n_points=20_000, seed=5,
                         selection=SelectionConfig(bandwidth_delta=0.3),
                         sweep=SweepAxis("squeezing_db", 3.0, 9.0, 2))
    assert [row["error"] for row in run_sweep(cfg)] == ["", ""]
    with pytest.raises(ValidationError, match="--workers, now 2"):
        run_sweep(cfg, workers=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--workers", "3", "--out", str(out)]) == 2
    assert "lower n_points (--points) to at most 10000" in capsys.readouterr().err
    assert not out.exists()
    assert main(["selftest", "--points", "20001"]) == 2
    assert "lower n_points (--points) to at most 20000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_workers_below_one_exit_code(capsys, command, workers):
    with pytest.raises(SystemExit) as info:
        main([command, "--workers", workers])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_sweep_requires_axis(capsys):
    assert main(["sweep", "--points", "1000"]) == 2
    assert "sweep" in capsys.readouterr().err


def test_cli_sweep_stdout_and_files(tmp_path, capsys):
    cfg = {"n_points": 40_000, "seed": 5,
           "selection": {"bandwidth_delta": 0.1},
           "sweep": {"parameter": "squeezing_db", "minimum": 0.0,
                     "maximum": 9.0, "steps": 3, "scale": "linear"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    assert main(["sweep", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 4

    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s1")]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s2"),
                 "--workers", "2"]) == 0
    assert ((tmp_path / "s1" / "sweep.csv").read_bytes()
            == (tmp_path / "s2" / "sweep.csv").read_bytes())


def test_cli_fock_diagonal(tmp_path, capsys):
    path = tmp_path / "fock.json"
    path.write_text(json.dumps({"p1": [[0.5, 0.0], [0.0, 0.5]],
                                "p2": [[0.5, 0.0], [0.0, 0.5]]}))
    assert main(["fock", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagonal"] is True
    assert payload["acceptance_probability"] == pytest.approx(0.5)
    assert payload["joint"] == [[0.5, 0.0], [0.0, 0.5]]


def test_cli_fock_error_paths(tmp_path, capsys):
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({"p1": [[1.0, 0.0], [0.0, 0.0]],
                                    "p2": [[0.0, 0.0], [0.0, 1.0]]}))
    assert main(["fock", "--config", str(disjoint)]) == 3

    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"p1": [[1.0]], "p2": [[1.0]], "p3": [[1.0]]}))
    assert main(["fock", "--config", str(extra)]) == 2
    assert "p3" in capsys.readouterr().err


def test_cli_fock_writes_file(tmp_path, capsys):
    path = tmp_path / "fock.json"
    path.write_text(json.dumps({"p1": [[0.25, 0.25], [0.25, 0.25]],
                                "p2": [[0.25, 0.25], [0.25, 0.25]]}))
    assert main(["fock", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "fock.json").read_text())
    # independent product inputs transfer nothing: output is still a product
    joint = np.array(payload["joint"])
    assert np.allclose(joint, 0.25)
    assert payload["acceptance_probability"] == pytest.approx(0.5)


def test_cli_selftest(capsys):
    assert main(["selftest", "--points", "60000", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "selftest PASS" in out
    assert sum(line.startswith("case ") for line in out.splitlines()) == 3


def test_cli_selftest_negative_seed_exit_code(capsys):
    assert main(["selftest", "--seed", "-1", "--points", "1000", "--cases", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "twinbeam-transfer 0.1.0" in capsys.readouterr().out


def test_cli_without_chain_engine_never_imports_scipy(tmp_path):
    # only the chain engine needs scipy: importing the CLI and running run,
    # sweep, selftest and fock in a fresh interpreter must leave it unloaded
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "n_points": 60_000, "seed": 5, "selection": {"bandwidth_delta": 0.3},
        "sweep": {"parameter": "squeezing_db", "minimum": 3.0, "maximum": 9.0,
                  "steps": 2}}))
    fock = tmp_path / "fock.json"
    fock.write_text(json.dumps({"p1": [[0.5, 0.0], [0.0, 0.5]],
                                "p2": [[0.5, 0.0], [0.0, 0.5]]}))
    commands = [
        ["run", "--points", "100000", "--out", str(tmp_path / "run")],
        ["sweep", "--config", str(sweep), "--out", str(tmp_path / "sweep")],
        ["selftest", "--cases", "1", "--points", "20000"],
        ["fock", "--config", str(fock)],
    ]
    script = textwrap.dedent(f"""
        import sys
        from twinbeam_transfer.cli import main
        for argv in {commands!r}:
            assert main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:10]
        """)
    src = str(Path(twinbeam_transfer.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert (tmp_path / "run" / "report.json").is_file()
    assert (tmp_path / "sweep" / "sweep.csv").is_file()
