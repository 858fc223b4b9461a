"""Tests for scenario orchestration and the command line interface."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twinbeam_transfer
from twinbeam_transfer import cli, dsp_chain, scenario
from twinbeam_transfer.cli import main
from twinbeam_transfer.errors import ConfigurationError, ModelError, ValidationError
from twinbeam_transfer.dsp_chain import SignalChainConfig, simulate
from twinbeam_transfer.model import (
    COHERENT_DELTA,
    MeasurementSetting,
    TwinPairParams,
    _covariance_factor,
    build_covariance,
    sample_batch,
)
from twinbeam_transfer.oracle import predict_transfer
from twinbeam_transfer.scenario import (
    SWEEP_COLUMNS,
    ScenarioConfig,
    SweepAxis,
    acquire,
    load_config,
    run_scenario,
    run_selftest,
    run_sweep,
)
from twinbeam_transfer.selection import (
    SelectionConfig,
    conditional_statistics,
    in_window,
    select,
)
from twinbeam_transfer.stats import BlockedMoments, Moments, _bin_counts, _binned, variance_db


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
    # the LO's common phase moves no reported number: no such key
    ({"signal_chain": {"mixer_phase_rad": 0.0}}, "mixer_phase_rad"),
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
    assert result.conditioned_histogram.counts.sum() == result.conditioned.kept_count
    assert result.unconditioned_histogram.counts.sum() == SMALL.n_points
    # the conditioned scatter holds every kept event below scatter_points
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
    # the config is kept once, at the top level, not echoed by each report
    assert "config_echo" not in report["conditioned"]
    assert "config_echo" not in report["unconditioned"]
    assert report["oracle"]["transferred_db"] == pytest.approx(3.995, abs=0.01)

    comments, header, rows = _read_csv(tmp_path / "a" / "histogram_conditioned.csv")
    assert any("twinbeam-transfer" in c for c in comments)
    assert any("config:" in c for c in comments)
    assert header == ["bin_left_delta", "bin_right_delta", "count"]
    assert sum(int(r[2]) for r in rows) == report["conditioned"]["kept_count"]

    _, header, rows = _read_csv(tmp_path / "a" / "scatter_unconditioned.csv")
    assert header == ["i1", "i2"]
    assert len(rows) == 1000


# awkward values for the table writer: signed zero, the smallest subnormal,
# repr switching to exponent form, the largest double, integer-valued floats
_AWKWARD_FLOATS = [-0.0, 5e-324, 1e-05, 1e+16, 1.7976931348623157e+308, 0.0, -2.5, 0.1]
_AWKWARD_INTS = [0, 2 ** 63 - 1, -(2 ** 63), 7, 1]


@pytest.mark.parametrize("n_rows", [3, 4, 5, 9])
def test_write_table_bytes_match_csv_writer(tmp_path, monkeypatch, n_rows):
    # a slice of 4 rows: one row short of a slice, exactly one, one past it,
    # and two slices and a row; the reference is csv.writer over Python
    # float and int rows
    monkeypatch.setattr(scenario, "_TABLE_SLICE", 4)
    comments = ["twinbeam-transfer test", "config: {}"]
    floats = len(_AWKWARD_FLOATS)
    pairs = np.array([[_AWKWARD_FLOATS[r % floats], _AWKWARD_FLOATS[(r + 3) % floats]]
                      for r in range(n_rows)])
    counts = np.array([_AWKWARD_INTS[r % len(_AWKWARD_INTS)] for r in range(n_rows)],
                      dtype=np.int64)
    tables = [(["i1", "i2"], pairs.T, [(float(a), float(b)) for a, b in pairs]),
              (["left", "right", "count"], (pairs[:, 0], pairs[:, 1], counts),
               [(float(a), float(b), int(c)) for (a, b), c in zip(pairs, counts)])]
    for header, columns, rows in tables:
        scenario._write_table(tmp_path / "table.csv", comments, header, columns)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            fh.writelines(f"# {line}\n" for line in comments)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        assert ((tmp_path / "table.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


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


def test_run_sweep_identical_for_any_worker_count():
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


def test_run_sweep_records_row_errors_without_aborting(monkeypatch):
    # the smallest windows keep too few events; those rows carry the error.
    # The rows share one draw of the record's single chunk, so an empty row
    # fails on its own while the others keep their events
    draws = []

    def counted(*args):
        draws.append(args[1])
        return draw_chunk(*args)

    draw_chunk = scenario._draw_chunk
    monkeypatch.setattr(scenario, "_draw_chunk", counted)
    cfg = ScenarioConfig(n_points=20_000, seed=3,
                         sweep=SweepAxis("bandwidth_delta", 1e-5, 1.0, 5,
                                         scale="log"))
    rows = run_sweep(cfg)
    assert draws == [0]
    assert len(rows) == 5
    failed = [r for r in rows if r["error"]]
    passed = [r for r in rows if not r["error"]]
    assert failed and passed
    assert "EmptySelectionError" in rows[0]["error"]
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


@pytest.mark.parametrize("axis", [
    SweepAxis("squeezing_db", 0.5, 12.0, 4),
    SweepAxis("bandwidth_delta", 0.01, 0.3, 4, scale="log"),
    SweepAxis("excess_sum_db", 0.0, 40.0, 4),
], ids=["squeezing_db", "bandwidth_delta", "excess_sum_db"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_rows_match_acquire_of_each_row(axis, workers):
    # the rows share each chunk's draw, yet row r is bit for bit what
    # acquire gives for that row's config alone, at the sweep's seed;
    # 150k events are three chunks, the last one partial. The excess_sum_db
    # rows reach different layers of |z0| (the 0 dB row every layer, the
    # 40 dB row only |z0| < 2**-9), so alone a row draws far fewer events
    cfg = ScenarioConfig(n_points=150_000, seed=19,
                         selection=SelectionConfig(bandwidth_delta=0.1), sweep=axis)
    rows = run_sweep(cfg, workers=workers)
    row_cfgs = [scenario._apply_axis(cfg, axis.parameter, row["axis_value"]) for row in rows]
    shared = acquire(row_cfgs, workers=workers)
    for row, row_cfg, together in zip(rows, row_cfgs, shared):
        assert row_cfg.seed == cfg.seed
        (alone,) = acquire([row_cfg])
        assert together.kept_moments == alone.kept_moments
        report = alone.report(row_cfg.selection)
        assert row["error"] == ""
        assert (row["transferred_db"], row["ci_low_db"], row["ci_high_db"]) == (
            report.squeezing_db, report.ci_low_db, report.ci_high_db)
        assert row["kept_count"] == report.kept_count
        assert row["preparation_probability"] == report.preparation_probability


def test_narrow_window_draws_only_its_layers(monkeypatch):
    # a 0.01 delta window keeps |z0| <= limit, about 0.0014: acquire draws
    # the other three normals for the events of the layers up to that of
    # the limit only, |z0| < 2**-9, which is fewer than twice the kept
    # events; with the unconditioned summary, as in run, for every event
    cfg = ScenarioConfig(n_points=1_000_000, seed=13,
                         selection=SelectionConfig(bandwidth_delta=0.01))
    sigma, _ = _covariance_factor(build_covariance(cfg.pair1, cfg.pair2))
    limit = 0.01 * COHERENT_DELTA / sigma
    bound = 2.0 ** math.frexp(limit)[1]
    assert limit < bound <= 2 * limit
    counts = []

    def counted(scratch, start, stop, reach, magnitude):
        drawn = draw_chunk(scratch, start, stop, reach, magnitude)
        m = stop - start
        if drawn is not None:
            assert np.array_equal(drawn, np.flatnonzero(magnitude[:m] < bound))
        counts.append((m, m if drawn is None else drawn.size))
        return drawn

    draw_chunk = scenario._draw_chunk
    monkeypatch.setattr(scenario, "_draw_chunk", counted)
    (acquired,) = acquire([cfg], workers=2)
    events, drawn = map(sum, zip(*counts))
    kept = acquired.kept_count
    assert events == cfg.n_points
    assert 1000 < kept < drawn < 2 * kept
    counts.clear()
    summarized, _ = acquire([cfg], workers=2, unconditioned=True)
    events, drawn = map(sum, zip(*counts))
    assert drawn == events == cfg.n_points
    assert summarized.kept_moments == acquired.kept_moments


def test_acquire_rejects_configs_that_do_not_share_the_record():
    for other in (dataclasses.replace(SMALL, seed=8), dataclasses.replace(SMALL, n_points=99),
                  dataclasses.replace(SMALL, engine="chain"),
                  dataclasses.replace(SMALL, scatter_points=10)):
        with pytest.raises(ValidationError, match="share"):
            acquire([SMALL, other])
    assert acquire([]) == []


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

@pytest.mark.parametrize("cases", [0, True, 2.5])
def test_run_selftest_rejects_bad_case_count(cases):
    with pytest.raises(ValidationError, match="cases"):
        run_selftest(points=20_000, cases=cases)


def test_run_selftest_passes_and_is_deterministic():
    first = run_selftest(seed=1, points=100_000, cases=4)
    second = run_selftest(seed=1, points=100_000, cases=4)
    assert first == second
    assert all(row["ok"] for row in first)
    assert {row["case"] for row in first} == {0, 1, 2, 3}


def test_selftest_cases_are_one_acquisition_at_its_seed(monkeypatch):
    # the cases are acquired as a sweep's rows are, in one acquire call at
    # the selftest's own seed, and each case's count and estimates are bit
    # for bit those of acquire for its config alone; seed 32 at 100k points
    # draws a case that keeps fewer than its minimum of 30
    calls = []

    def recorded(cfgs, *args, **kwargs):
        calls.append(tuple(cfgs))
        return acquire(cfgs, *args, **kwargs)

    monkeypatch.setattr(scenario, "acquire", recorded)
    rows = run_selftest(seed=32, points=100_000)
    (cases,) = calls
    assert len(cases) == len(rows) == 8
    assert any(math.isnan(row["mc_db"]) for row in rows)
    for row, case in zip(rows, cases):
        assert (case.seed, case.n_points) == (32, 100_000)
        assert (case.pair1.squeezing_db, case.selection.bandwidth_delta) == (
            row["squeezing_db"], row["bandwidth_delta"])
        (alone,) = acquire([case])
        assert row["kept_count"] == alone.kept_count
        if alone.kept_count < case.selection.min_kept:
            assert math.isnan(row["mc_db"]) and math.isnan(row["se_db"])
            continue
        report = alone.report(case.selection)
        half = (report.ci_high_db - report.ci_low_db) / 2.0
        assert row["mc_db"] == report.squeezing_db
        assert row["se_db"] == max(half / scenario._INTERVAL_HALF_WIDTH_SE, 1e-9)


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
    assert report["version"] == "0.7.0"


def test_cli_run_bit_identical_reruns(tmp_path, capsys):
    # three chunks, so the chunk threads really split the record
    args = ["run", "--points", "150000", "--seed", "13"]
    outputs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / workers
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        outputs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert len(outputs[0][1]) == 5
    assert outputs[0] == outputs[1] == outputs[2]


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
    # a float field takes a number only, as the integer fields do: no
    # boolean (read as 0.0 or 1.0) and no numeric string
    '{"pair1": {"squeezing_db": 7.0, "efficiency": true}}',
    '{"pair1": {"squeezing_db": "7"}}',
    '{"selection": {"bandwidth_delta": "0.1"}}',
    '{"signal_chain": {"lo_frequency_hz": true}}',
    '{"sweep": {"parameter": "squeezing_db", "minimum": false, "maximum": 1, "steps": 2}}',
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


def _room(probability=0.0, workers=1, scatter=0, chain=None, rows=1, points=100_000):
    # an available-memory reading with room for what acquire holds: the
    # direct engine's workers' draw scratch, the kept events of the chunks
    # in flight, each window's held differences and each row's table row
    # and config, for each of the ``scatter`` configs acquired with the
    # unconditioned summary a record window, which keeps every event, and a
    # pair of 20k-row scatters, and, on the engine of the signal chain
    # ``chain``, the stream's buffers and its plan's, where a chunk in
    # flight is at most ceil(_ROWS / q2) points; nothing of it grows with the
    # record past one block of held values
    chunk = item = min(points, scenario._SAMPLE_CHUNK)
    scratch, stream = scenario._BYTES_PER_CHUNK, 0
    if chain is not None:
        item = min(points, -(-dsp_chain._ROWS // dsp_chain.decimation_plan(chain)[1]))
        scratch, stream = 0, scenario._BYTES_PER_CHAIN_STREAM + _plan_bytes(chain)
    flights = scenario._CHUNKS_PER_WORKER * workers + 1
    probability += scatter
    return math.ceil(workers * scratch
                     + probability * item * flights * scenario._BYTES_PER_KEPT
                     + min((rows + scatter) * chunk, probability * points)
                     * scenario._BYTES_PER_HELD
                     + rows * scenario._BYTES_PER_SWEEP_ROW
                     + scatter * min(points, 20_000) * scenario._BYTES_PER_KEPT + stream)


def _plan_bytes(chain):
    # the chain's buffers that grow with its decimation plan, and its
    # low-pass blocks
    q1, q2 = dsp_chain.decimation_plan(chain)
    return (q1 * scenario._BYTES_PER_RUN_Q1
            + q2 * dsp_chain._lowpass_block(chain) * scenario._BYTES_PER_LOWPASS_SAMPLE)


@pytest.mark.parametrize("engine", ["direct", "chain"])
def test_cli_run_beyond_free_memory_exit_code(monkeypatch, tmp_path, capsys, engine):
    # the available-memory reading is lowered, never the machine's memory
    # used up. A run with room for all but its scatters is
    # refused, asking for fewer scatter rows; one with room for all runs
    cfg = dataclasses.replace(SMALL, engine=engine, signal_chain=SCALED_CHAIN)
    room = _room(cfg.predict().selection_probability, scatter=1,
                 chain=SCALED_CHAIN if engine == "chain" else None)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room - 1)
    with pytest.raises(ValidationError, match="memory"):
        run_scenario(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", "--config", str(path)]) == 2
    assert "lower scatter_points (now 20000)" in capsys.readouterr().err
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room)
    assert run_scenario(cfg).conditioned.kept_count > 100


def test_chain_memory_check_charges_no_record(monkeypatch):
    # a 10^9-point chain run was charged 64 GB for the record it no longer
    # holds, then about 0.2 GB for its kept rows; now it needs room for the
    # chunks in flight, the scatter and the stream's buffers, whatever its
    # length, as a 100k-point run does
    cfg = ScenarioConfig(n_points=10 ** 9, engine="chain")
    p = cfg.predict().selection_probability
    needed = _room(p, scatter=1, chain=cfg.signal_chain, points=cfg.n_points)
    assert needed < 2 ** 27
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: needed)
    for points in (100_000, cfg.n_points, 2 ** 63 - 1):
        scenario._check_memory(dataclasses.replace(cfg, n_points=points), p, workers=1,
                               scatter=True)
    # the stream's buffers and its plan's are charged on top of its chunks
    # in flight, which hold at most ceil(_ROWS / q2) points each, fewer than
    # the direct engine's chunks of 65536 events, and its worker draws
    # nothing
    chunks = needed - scenario._BYTES_PER_CHAIN_STREAM - _plan_bytes(cfg.signal_chain)
    assert chunks < _room(p, scatter=1, points=cfg.n_points)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: chunks)
    with pytest.raises(ValidationError, match="memory"):
        scenario._check_memory(cfg, p, workers=1, scatter=True)


def test_chain_memory_check_charges_the_decimation_plan(monkeypatch, tmp_path, capsys):
    # a 2e10 Hz synthesis rate with a 1 GHz cavity decimates by q1 = 20000:
    # its demodulator run buffer needs about 1.3 GB (with the calibration
    # response and a separate last-run padding it took about 3.4 GB, which
    # escaped main as a MemoryError where the memory was not there). With
    # 1 GiB available, 100 points exit 2 before any synthesis, naming the
    # plan and what to lower
    def never(*args, **kwargs):
        raise AssertionError("synthesized before the memory check")

    monkeypatch.setattr(scenario, "stream", never)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: 1 << 30)
    chain = {"synth_rate_hz": 2.0e10, "cavity_bandwidth_hz": 1.0e9}
    assert dsp_chain.decimation_plan(SignalChainConfig(**chain)) == (20_000, 5)
    assert _plan_bytes(SignalChainConfig(**chain)) > 1 << 30
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"engine": "chain", "signal_chain": chain}))
    assert main(["run", "--config", str(path), "--points", "100"]) == 2
    err = capsys.readouterr().err
    assert ("lower the synth_rate_hz / output_rate_hz ratio (the decimation plan is "
            "q1 = 20000, q2 = 5)") in err


def test_chain_memory_check_charges_the_lowpass_blocks(monkeypatch, tmp_path, capsys):
    # a 1 kHz cutoff at the default 200 kHz output rate leads by 100,000
    # points, so its low-pass blocks are 5 * 2**19 mid-rate samples, charged
    # about 250 MB. With 200 MiB available, 100 points exit 2 before any
    # synthesis, naming the ratio to lower and the block
    def never(*args, **kwargs):
        raise AssertionError("synthesized before the memory check")

    monkeypatch.setattr(scenario, "stream", never)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: 200 << 20)
    chain = {"post_mixer_cutoff_hz": 1.0e3}
    assert dsp_chain._lowpass_block(SignalChainConfig(**chain)) == 1 << 19
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"engine": "chain", "signal_chain": chain}))
    assert main(["run", "--config", str(path), "--points", "100"]) == 2
    assert ("lower the output_rate_hz / post_mixer_cutoff_hz ratio (the low-pass blocks "
            "are 2621440 samples)") in capsys.readouterr().err


def test_cli_run_charges_only_workers_with_a_chunk(monkeypatch, capsys):
    # 100k points are 2 chunks, so --workers 8 is charged 2 chunks, not 8;
    # when those 2 chunks do not fit, the refusal asks for fewer workers,
    # and when one worker's chunk alone does not, for memory
    p = SMALL.predict().selection_probability
    charged = _room(p, workers=2, scatter=1)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: charged)
    assert main(["run", "--points", "100000", "--workers", "8"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: charged - 1)
    assert main(["run", "--points", "100000", "--workers", "8"]) == 2
    assert "lower the worker count (--workers, now 8)" in capsys.readouterr().err
    # one worker's chunk alone does not fit: nothing to lower
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: _room(0.0) - 1)
    assert main(["run", "--points", "100000", "--workers", "1"]) == 2
    assert "memory is available; free some memory first" in capsys.readouterr().err


def test_cli_sweep_beyond_free_memory_exit_code(monkeypatch, tmp_path, capsys):
    # room for both 20k-point rows, which share each chunk's draw and so are
    # held at once, and for one chunk, the only one a 20k-point sweep has
    # even with 3 workers: the sweep fits, and one byte less is refused as
    # a whole before any row runs, asking for fewer steps. The charge stops
    # growing once each row holds a chunk: a room that fits 10^7 points
    # fits 10^12 and 2^63 - 1
    cfg = ScenarioConfig(n_points=20_000, seed=5,
                         selection=SelectionConfig(bandwidth_delta=0.3),
                         sweep=SweepAxis("squeezing_db", 3.0, 9.0, 2))
    p_sum = sum(predict_transfer(TwinPairParams(squeezing_db=s), TwinPairParams(squeezing_db=s),
                                 0.3).selection_probability for s in (3.0, 9.0))
    room = _room(p_sum, rows=2, points=20_000)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room)
    assert [row["error"] for row in run_sweep(cfg, workers=3)] == ["", ""]
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room - 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--workers", "3", "--out", str(out)]) == 2
    assert "lower the sweep steps or selftest cases (now 2)" in capsys.readouterr().err
    assert not out.exists()
    room = _room(p_sum, workers=3, rows=2, points=10 ** 7)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room)
    for points in (10 ** 7, 10 ** 12, 2 ** 63 - 1):
        scenario._check_memory(dataclasses.replace(cfg, n_points=points), p_sum, workers=3,
                               rows=2)


def test_cli_sweep_rows_beyond_free_memory_exit_code(monkeypatch, tmp_path, capsys):
    # a sweep's table rows and configs are charged before any row is built:
    # 1000 rows need 1000 * _BYTES_PER_SWEEP_ROW beside one worker's chunk,
    # and a reading with room for one worker's chunk and half of them
    # refuses the sweep, asking for fewer steps
    steps, points = 1000, 1000
    cfg = ScenarioConfig(n_points=points, sweep=SweepAxis("squeezing_db", 1.0, 9.0, steps))
    charge = _room(rows=steps, points=points)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: charge)
    scenario._check_memory(cfg, 0.0, rows=steps)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: charge - 1)
    with pytest.raises(ValidationError, match="memory"):
        scenario._check_memory(cfg, 0.0, rows=steps)

    def no_row(*args):
        raise AssertionError("built a row")

    monkeypatch.setattr(scenario, "_apply_axis", no_row)
    monkeypatch.setattr(scenario, "_available_memory_bytes",
                        lambda: _room(points=points) + steps * scenario._BYTES_PER_SWEEP_ROW // 2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"lower the sweep steps or selftest cases (now {steps})" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_selftest_beyond_free_memory_exit_code(monkeypatch, capsys):
    # room for one worker's chunk and 1 kB: the default cases, charged
    # their rows before they are drawn, are refused before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the memory check")

    monkeypatch.setattr(scenario, "_draw_chunk", no_draw)
    monkeypatch.setattr(scenario, "_available_memory_bytes",
                        lambda: scenario._BYTES_PER_CHUNK + 1000)
    assert main(["selftest", "--points", "1000000"]) == 2
    assert "memory is available; free some memory first" in capsys.readouterr().err


@pytest.mark.parametrize("engine, generator", [("direct", "_draw_chunk"),
                                               ("chain", "stream")])
def test_acquire_refuses_beyond_free_memory_before_any_draw(monkeypatch, engine, generator):
    # acquire itself makes the memory check, so a direct call is refused too,
    # before the engine draws a chunk or starts a stream
    def never(*args, **kwargs):
        raise AssertionError(f"{generator} called before the memory check")

    monkeypatch.setattr(scenario, generator, never)
    cfg = dataclasses.replace(SMALL, engine=engine, signal_chain=SCALED_CHAIN)
    room = _room(cfg.predict().selection_probability,
                 chain=SCALED_CHAIN if engine == "chain" else None)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room - 1)
    for unconditioned in (False, True):
        with pytest.raises(ValidationError, match="memory"):
            acquire([cfg], unconditioned=unconditioned)


def test_acquire_charges_each_config_its_kept_rows_and_scatter(monkeypatch):
    # two configs acquired together hold both their kept events in flight
    # and their held differences and, with the unconditioned summary, a
    # record window and a pair of scatters each
    cfgs = [SMALL, dataclasses.replace(SMALL, selection=SelectionConfig(bandwidth_delta=0.1))]
    room = _room(sum(c.predict().selection_probability for c in cfgs), scatter=2, rows=2)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room)
    acquired = acquire(cfgs, unconditioned=True)
    assert [a.kept_count for a in acquired[2:]] == [SMALL.n_points] * 2
    assert [a.kept_scatter.shape for a in acquired[2:]] == [(20_000, 2)] * 2
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room - 1)
    with pytest.raises(ValidationError, match="memory"):
        acquire(cfgs, unconditioned=True)
    assert len(acquire(cfgs)) == 2


@pytest.fixture
def small_chunks(monkeypatch):
    # a worker scratch of 4096 points, which a chain chunk, at most
    # ceil(_ROWS / q2) points (820 at SCALED_CHAIN's plan), must still fit
    monkeypatch.setattr(scenario, "_SAMPLE_CHUNK", 4096)


def _chain(n_points, **kwargs):
    return ScenarioConfig(n_points=n_points, engine="chain", signal_chain=SCALED_CHAIN,
                          selection=SelectionConfig(bandwidth_delta=0.1), **kwargs)


def test_chain_acquire_keeps_the_rows_of_simulate(small_chunks):
    # the streamed chunks, gated by 3 workers, keep exactly the events that
    # gating the whole simulated record keeps: the same moments of their
    # differences, their first rows as the conditioned scatter; the record
    # window has the moments and histogram of every event's difference and
    # the record's first rows as the unconditioned scatter
    cfg = _chain(30_000, seed=2, scatter_points=200)
    acquired, record = acquire([cfg], workers=3, unconditioned=True)
    batch = simulate(build_covariance(cfg.pair1, cfg.pair2), SCALED_CHAIN, 30_000, 2)
    kept = select(batch, cfg.selection).kept_indices
    assert kept.size > 200
    assert acquired.kept_count == kept.size
    assert acquired.kept_moments == _blocked(batch.i1[kept] - batch.i2[kept])
    assert np.array_equal(acquired.kept_scatter, batch.data[kept[:200]][:, [1, 3]])
    assert record.kept_count == 30_000
    assert record.kept_moments == _blocked(batch.i1 - batch.i2)
    _assert_same_histogram(record.kept_histogram, _histogram(batch.i1 - batch.i2))
    assert np.array_equal(record.kept_scatter, batch.data[:200][:, [1, 3]])


def test_chain_acquire_independent_of_how_the_record_is_cut(monkeypatch):
    # the windows reduce their kept values in blocks cut from the value
    # sequence, and fill their scatters in record order, so the record cut
    # into 7000-point or 1-point chunks gives what the stream's own chunks,
    # of at most 820 points, give: the same moments, histograms, scatters
    # and kept counts of both windows
    cfg = _chain(20_000, seed=6)
    reference = acquire([cfg], workers=2, unconditioned=True)
    assert reference[1].kept_count == 20_000
    for size in (7_000, 1):
        def recut(*args, size=size):
            record = np.concatenate(list(dsp_chain.stream(*args)), axis=1)
            return (record[:, start:start + size] for start in range(0, record.shape[1], size))

        monkeypatch.setattr(scenario, "stream", recut)
        acquired = acquire([cfg], workers=2, unconditioned=True)
        assert [a.kept_count for a in acquired] == [a.kept_count for a in reference]
        for window, expected in zip(acquired, reference):
            assert window.kept_moments == expected.kept_moments
            _assert_same_histogram(window.kept_histogram, expected.kept_histogram)
            assert np.array_equal(window.kept_scatter, expected.kept_scatter)


def test_cli_chain_run_identical_for_any_worker_count(tmp_path, small_chunks):
    # the stream hands the chain's chunks (at most 820 points each, 39
    # here) to 1, 2 or 3 reducers; every output file is the same
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_chain(30_000, scatter_points=1000).to_dict()))
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        assert main(["run", "--config", str(path), "--seed", "4",
                     "--workers", str(workers), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) == 5
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("axis,records", [
    (SweepAxis("bandwidth_delta", 0.05, 0.3, 3, scale="log"), 1),
    (SweepAxis("squeezing_db", 3.0, 9.0, 2), 2),
], ids=["bandwidth_delta", "squeezing_db"])
@pytest.mark.parametrize("workers", [1, 2])
def test_chain_sweep_rows_share_one_record(monkeypatch, small_chunks, axis, records, workers):
    # a chain bandwidth_delta sweep synthesizes its record once and gates
    # every row on it; other axes change the covariance, one record a row.
    # Row r is bit for bit what acquire gives for that row's config alone.
    streamed = []

    def counted(*args):
        streamed.append(args)
        return dsp_chain.stream(*args)

    monkeypatch.setattr(scenario, "stream", counted)
    cfg = _chain(30_000, seed=19, sweep=axis)
    rows = run_sweep(cfg, workers=workers)
    assert len(streamed) == records
    row_cfgs = [scenario._apply_axis(cfg, axis.parameter, row["axis_value"]) for row in rows]
    shared = acquire(row_cfgs, workers=workers)
    for row, row_cfg, together in zip(rows, row_cfgs, shared):
        (alone,) = acquire([row_cfg])
        assert together.kept_moments == alone.kept_moments
        report = alone.report(row_cfg.selection)
        assert row["error"] == ""
        assert (row["transferred_db"], row["ci_low_db"], row["ci_high_db"],
                row["kept_count"]) == (report.squeezing_db, report.ci_low_db,
                                       report.ci_high_db, report.kept_count)


def test_chain_sweep_row_takes_the_error_of_its_pair_2_pipeline(monkeypatch, small_chunks):
    # each row of a squeezing_db chain sweep reads its own stream, whose pair
    # 2 pipeline runs on the stream's helper thread. It fails in the first
    # row's stream, and in the second's makes non-finite values that a
    # worker's gate refuses, which closes the stream early: each becomes its
    # row's error, not a crash, and every helper thread is joined
    synth = dsp_chain._synth_blocks
    broken = []

    def pair_2_broken(taps, cfg, points, seed, modes):
        blocks = synth(taps, cfg, points, seed, modes)
        if modes.start == 0:
            yield from blocks
            return
        broken.append(modes)
        yield next(blocks)
        if len(broken) == 1:
            raise ModelError("pair 2 pipeline failed")
        for block in blocks:
            yield np.full_like(block, np.nan)

    monkeypatch.setattr(dsp_chain, "_synth_blocks", pair_2_broken)
    before = threading.active_count()
    rows = run_sweep(_chain(30_000, seed=19, sweep=SweepAxis("squeezing_db", 3.0, 9.0, 2)))
    assert threading.active_count() == before
    assert len(broken) == 2
    assert [row["error"] for row in rows] == [
        "ModelError: pair 2 pipeline failed",
        "ValidationError: sample data contains non-finite values"]


def test_chain_sweep_keeps_its_rows_when_one_stream_fails():
    # at this chain's lo/cavity ratio no squeezing beyond about 14 dB can be
    # shaped: the 18 dB row's stream raises ModelError, which that row
    # carries, while the rows before it report as usual
    cfg = _chain(20_000, seed=5, sweep=SweepAxis("squeezing_db", 6.0, 18.0, 3))
    rows = run_sweep(cfg, workers=2)
    assert [row["axis_value"] for row in rows] == [6.0, 12.0, 18.0]
    deep = rows[2]
    assert deep["error"].startswith("ModelError: ")
    assert math.isnan(deep["transferred_db"]) and deep["kept_count"] == 0
    assert math.isfinite(deep["oracle_transferred_db"])
    for row in rows[:2]:
        assert row["error"] == ""
        assert math.isfinite(row["transferred_db"]) and row["kept_count"] >= 100


def test_chain_acquire_memory_flat_in_points(small_chunks):
    # nothing of record length is held on the chain's acquire path: the
    # peak at 4 x 30k points stays within 256 KiB of the peak at 30k, where
    # holding the (n, 4) float64 output would add 2.9 MB. A first short run
    # imports scipy, whose allocations tracemalloc would count
    acquire([_chain(5_000, seed=3)])
    peaks = []
    for n in (30_000, 120_000):
        tracemalloc.start()
        try:
            (acquired,) = acquire([_chain(n, seed=3)], workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acquired.n == n
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 256 * 1024


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_memory_flat_in_n(command):
    # nothing of length n is held: the peak is the workers' chunks, the
    # kept rows (~14k at n = 4M and the default window) and the scatters,
    # far below the 128 MB of a (4M, 4) float64 batch
    cfg = ScenarioConfig(n_points=4_000_000, seed=3,
                         sweep=SweepAxis("squeezing_db", 3.0, 9.0, 2))
    tracemalloc.start()
    try:
        if command == "run":
            result = run_scenario(dataclasses.replace(cfg, sweep=None), workers=2)
            assert result.unconditioned.kept_count == cfg.n_points
        else:
            rows = run_sweep(cfg, workers=2)
            assert [row["error"] for row in rows] == [""] * 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


_PEAK_SCRIPT = textwrap.dedent("""
    import io, sys
    from contextlib import redirect_stdout
    from twinbeam_transfer.cli import main
    with redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    assert code == 0, code
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
    """)


_NUMPY_PEAK_SCRIPT = textwrap.dedent("""
    import numpy
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
    """)


def _peak_rss(argv, script=_PEAK_SCRIPT):
    # the peak RSS in bytes of main(argv) (or of ``script``) in a fresh
    # interpreter: VmHWM, the child's own, since Linux carries ru_maxrss
    # across exec, so it would start at this process's peak and hide the
    # rise of a short run
    src = str(Path(twinbeam_transfer.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return int(result.stdout.split()[-1]) * 1024


def _chain_charge(monkeypatch, workers):
    # the least available memory at which a default 100k-point chain run at
    # ``workers`` passes the memory check: its charge
    cfg = ScenarioConfig(n_points=100_000, engine="chain")
    p = cfg.predict().selection_probability
    low, high = 0, 1 << 40
    while low < high:
        room = (low + high) // 2
        monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: room)
        try:
            scenario._check_memory(cfg, p, workers, scatter=1)
        except ValidationError:
            low = room + 1
        else:
            high = room
    return low


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("workers", [1, 3])
def test_chain_run_memory_within_its_charge(monkeypatch, capsys, workers):
    # the memory check charges a default 100k-point chain run at least the
    # peak RSS it grows by over a process that has imported numpy only
    # (about 47 MiB at 1, 2 and 3 workers): with one byte less than that
    # growth available, the run is refused before it synthesizes anything.
    # And at most 16 MiB more, so a charge left behind by a change that
    # shrank the run shows (RSS noise is about 1 MiB)
    argv = ["run", "--engine", "chain", "--points", "100000", "--workers", str(workers)]
    growth = _peak_rss(argv) - _peak_rss([], _NUMPY_PEAK_SCRIPT)

    def never(*args, **kwargs):
        raise AssertionError("synthesized before the memory check")

    monkeypatch.setattr(scenario, "stream", never)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: growth - 1)
    assert main(argv) == 2
    assert "memory is available" in capsys.readouterr().err
    charge = _chain_charge(monkeypatch, workers)
    assert growth <= charge <= growth + (16 << 20), (growth, charge)


def test_chain_charge_flat_in_workers(monkeypatch):
    # a chain worker draws nothing, and the run's peak RSS is flat in the
    # worker count (test_chain_run_memory_within_its_charge): the least
    # available memory at which a default 100k-point chain run passes the
    # memory check is the same to within 1 MiB at 1, 2 and 3 workers (not
    # 12 MiB more a worker, the direct engine's draw scratch)
    charges = [_chain_charge(monkeypatch, workers) for workers in (1, 2, 3)]
    assert max(charges) - min(charges) <= 1 << 20, charges


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_run_scatter_memory_per_row_within_its_charge(tmp_path):
    # the memory check charges _BYTES_PER_KEPT per scatter_points row: the
    # peak RSS of run --out over 1M events, in a fresh interpreter, rises by
    # less than that per row from 20k to 1M scatter rows, and by at most
    # 32 B: the record window's scatter array, which the merge fills, is
    # 16 B a row, 17 B measured (a subsample the workers wrote in place
    # took 24 B, per-chunk parts and their concatenation about 37 B, a list
    # of Python float tuples about 150 B). RSS noise is about 1 MB, against
    # the 15 MB between 32 B a row and 16 B
    peaks = {}
    for scatter in (20_000, 1_000_000):
        config = tmp_path / f"{scatter}.json"
        config.write_text(json.dumps({"scatter_points": scatter}))
        peaks[scatter] = _peak_rss(["run", "--config", str(config), "--points", "1000000",
                                    "--seed", "3", "--out", str(tmp_path / str(scatter))])
    per_row = (peaks[1_000_000] - peaks[20_000]) / (1_000_000 - 20_000)
    assert per_row <= min(scenario._BYTES_PER_KEPT, 32), per_row


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_wide_sweep_peak_rss_flat_in_points(tmp_path):
    # a 10-row sweep of windows from 0.3 to 3 delta keeps about 1.36 events
    # a drawn event over its rows, and reduces them in blocks as they
    # arrive: its peak RSS at 8M events stays within 8 MB of that at 2M,
    # where holding every kept (i1, i2) row until one concatenation took
    # 295 MB more (RSS noise is about 1 MB)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"sweep": {"parameter": "bandwidth_delta", "minimum": 0.3,
                                            "maximum": 3.0, "steps": 10, "scale": "log"}}))
    peaks = [_peak_rss(["sweep", "--config", str(config), "--points", str(points),
                        "--workers", "2", "--out", str(tmp_path / str(points))])
             for points in (2_000_000, 8_000_000)]
    assert abs(peaks[1] - peaks[0]) < 8 << 20, peaks


def test_scatter_filled_by_the_merge_under_thread_switching():
    # the merge fills each window's scatter from the chunks' rows in record
    # order: with more workers than cores and a thread switch every
    # microsecond, all 21 chunks' rows still land where one worker puts them
    cfg = ScenarioConfig(n_points=20 * 65_536 + 7, seed=31, scatter_points=10 ** 7)
    reference = acquire([cfg], workers=1, unconditioned=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        acquired = acquire([cfg], workers=5, unconditioned=True)
    finally:
        sys.setswitchinterval(interval)
    assert acquired[1].kept_scatter.shape == (cfg.n_points, 2)
    for window, expected in zip(acquired, reference):
        assert window.kept_moments == expected.kept_moments
        assert np.array_equal(window.kept_scatter, expected.kept_scatter)


def _blocked(values):
    # the moments of values reduced in blocks, as the batch path reduces them
    blocks = BlockedMoments()
    blocks.add(values)
    return blocks.close().moments


def _histogram(values):
    # the histogram of all the values at once, binned as the reducer bins a block
    return _binned(*_bin_counts(values))


def _batch_path(cfg):
    """run's outputs computed from the whole (n, 4) batch; the conditioned
    ones are None when the window keeps no event."""
    batch = sample_batch(build_covariance(cfg.pair1, cfg.pair2, cfg.setting),
                         cfg.n_points, cfg.seed)
    difference = batch.i1 - batch.i2
    kept = in_window(batch.s1, batch.s2, cfg.selection)
    # each scatter: the first scatter_points events its window keeps
    cond = kept[:cfg.scatter_points]
    uncond = slice(cfg.scatter_points)
    return {
        "batch": batch,
        "kept": kept,
        "selected": select(batch, cfg.selection) if kept.size else None,
        "difference": difference,
        "conditioned_histogram": _histogram(difference[kept]) if kept.size else None,
        "unconditioned_histogram": _histogram(difference),
        "conditioned_scatter": np.column_stack([batch.i1[cond], batch.i2[cond]]),
        "unconditioned_scatter": np.column_stack([batch.i1[uncond], batch.i2[uncond]]),
    }


def _assert_same_histogram(a, b):
    assert np.array_equal(a.bin_edges, b.bin_edges)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("n, scatter_points, window", [
    (65_537, 20_000, 0.03),   # one event past the first chunk
    (20_000, 20_000, 0.3),    # every event in the unconditioned scatter
    (200_003, 500, 0.1),
    (200_003, 20_000, 3.0),   # more kept events than a block of 65,536
])
def test_streamed_run_matches_batch_path(n, scatter_points, window):
    cfg = ScenarioConfig(n_points=n, seed=23, scatter_points=scatter_points,
                         selection=SelectionConfig(bandwidth_delta=window))
    ref = _batch_path(cfg)
    for workers in (1, 2, 3):
        result = run_scenario(cfg, workers=workers)
        assert result.conditioned == conditional_statistics(ref["batch"], ref["selected"],
                                                            cfg.selection)
        _assert_same_histogram(result.conditioned_histogram, ref["conditioned_histogram"])
        _assert_same_histogram(result.unconditioned_histogram,
                               ref["unconditioned_histogram"])
        assert np.array_equal(result.conditioned_scatter, ref["conditioned_scatter"])
        assert np.array_equal(result.unconditioned_scatter, ref["unconditioned_scatter"])
        streamed = (result.unconditioned.squeezing_db, result.unconditioned.ci_low_db,
                    result.unconditioned.ci_high_db)
        assert streamed == pytest.approx(
            (variance_db(ref["difference"], 2.0), *Moments.of(ref["difference"]).estimate()[1:]),
            abs=1e-12)
        assert result.unconditioned.kept_count == n


@pytest.mark.parametrize("n", [5, 65_537])
def test_acquire_keeps_the_batch_path_rows(n):
    # every piece of the streamed summary against the batch, down to a
    # 5-event record, which no run could report on
    cfg = ScenarioConfig(n_points=n, seed=29, scatter_points=4,
                         selection=SelectionConfig(bandwidth_delta=0.5))
    ref = _batch_path(cfg)
    kept = ref["kept"]
    acquired, record = acquire([cfg], workers=2, unconditioned=True)
    assert acquired.kept_count == kept.size
    assert acquired.n == record.n == n
    assert acquired.kept_moments == _blocked(ref["difference"][kept])
    assert np.array_equal(acquired.kept_scatter, ref["conditioned_scatter"])
    if kept.size:
        _assert_same_histogram(acquired.kept_histogram, ref["conditioned_histogram"])
    # the record window keeps every event
    _assert_same_histogram(record.kept_histogram, ref["unconditioned_histogram"])
    assert np.array_equal(record.kept_scatter, ref["unconditioned_scatter"])
    assert record.kept_moments == _blocked(ref["difference"])
    dev = ref["difference"] - ref["difference"].mean()
    assert record.kept_count == n
    for got, power in ((record.kept_moments.m2, 2), (record.kept_moments.m4, 4)):
        assert got == pytest.approx(float((dev ** power).sum()), rel=1e-12)
    # a sweep row or selftest case keeps the same rows, without the summary
    (rows_only,) = acquire([cfg])
    assert rows_only.kept_moments == acquired.kept_moments
    assert rows_only.kept_scatter is None and rows_only.kept_histogram is None



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


@pytest.mark.parametrize("command, content", [
    ("run", b'\xff\xfe{"seed": 1}'),
    ("fock", b'\xff\xfe{"p1": [[1.0]], "p2": [[1.0]]}'),
    ("fock", b'{"p1": "abc", "p2": [[1.0]]}'),
    ("fock", b'{"p1": [[0.5, 0.5], [0.0]], "p2": [[1.0]]}'),
    ("fock", b'{"p1": [[1.0]], "p2": {"n": 1}}'),
    ("fock", b'{"p1": [[1' + b"0" * 400 + b']], "p2": [[1.0]]}'),
], ids=["run-not-utf8", "fock-not-utf8", "fock-string", "fock-ragged", "fock-object",
        "fock-overflow"])
def test_cli_unreadable_input_file_exit_code(tmp_path, capsys, command, content):
    # bad bytes or values in an input file are a configuration error (2),
    # not a crash that exits like a selftest disagreement (1)
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_HUGE = 10 ** 400
_AXIS = {"parameter": "squeezing_db", "minimum": 3.0, "maximum": 9.0, "steps": 2}


@pytest.mark.parametrize("command, config, argv", [
    ("run", None, ["--points", str(_HUGE)]),
    ("run", {"n_points": _HUGE}, []),
    ("run", None, ["--engine", "chain", "--points", str(_HUGE)]),
    ("sweep", {"sweep": _AXIS}, ["--points", str(_HUGE)]),
    ("selftest", None, ["--points", str(_HUGE)]),
], ids=["run-points", "run-config", "chain-points", "sweep-points", "selftest-points"])
def test_cli_absurd_points_exit_code(tmp_path, monkeypatch, capsys, command, config, argv):
    # a record beyond the int64 range of its event positions is a
    # configuration error (2) that names it, refused before any draw, not an
    # OverflowError that exits 1
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the memory check")

    monkeypatch.setattr(scenario, "_draw_chunk", no_draw)
    monkeypatch.setattr(scenario, "stream", no_draw)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_points must be at most 2**63 - 1, got {_HUGE}")


@pytest.mark.parametrize("steps", [10 ** 12, _HUGE], ids=["7-TiB", "beyond-numpy"])
def test_cli_absurd_sweep_steps_exit_code(tmp_path, monkeypatch, capsys, steps):
    # numpy refuses either axis at once (10**12 steps would take 7.28 TiB):
    # exit 2 naming the step count before any row is built, not exit 1
    def no_row(*args):
        raise AssertionError("built a row")

    monkeypatch.setattr(scenario, "_apply_axis", no_row)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {**_AXIS, "steps": steps}}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: sweep steps {steps} are too many")


@pytest.mark.parametrize("cases", [10 ** 12, _HUGE], ids=["4-PB", "beyond-float"])
def test_cli_absurd_selftest_cases_exit_code(monkeypatch, capsys, cases):
    # the cases' rows and configs are charged before any case is drawn:
    # 10**12 cases would take about 4 PB, and a count whose charge is beyond
    # the float range is refused as too many; either exits 2 naming the count
    def no_case(*args, **kwargs):
        raise AssertionError("drew a case")

    monkeypatch.setattr(scenario, "TwinPairParams", no_case)
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: 8 << 30)
    assert main(["selftest", "--cases", str(cases)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cases) in err


def test_memory_refusal_opens_with_what_does_not_fit(monkeypatch, capsys):
    # the refusal opens with the larger part of its charge: 10**12 selftest
    # cases, whose table rows alone take about 4 PB, or, where one chunk of
    # the record is what does not fit, the record's points
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: 8 << 30)
    assert main(["selftest", "--cases", str(10 ** 12)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 1000000000000 sweep steps or selftest cases need about 4096000.01 GB "
        "but only 8.59 GB of memory is available")
    monkeypatch.setattr(scenario, "_available_memory_bytes", lambda: _room(0.0) - 1)
    assert main(["run", "--points", "100000"]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: 100000 points need about \d+\.\d\d GB but only \d+\.\d\d GB "
                    r"of memory is available; free some memory first", err), err


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


def test_cli_selftest_states_false_alarm_rate(monkeypatch, capsys):
    # the verdict line states how often a correct program fails that many
    # cases: 1 - (1 - 0.0028)**cases, 2.2% for the default 8
    rate = scenario.selftest_false_alarm_rate(8)
    assert rate == pytest.approx(1 - (1 - 0.0028) ** 8, rel=0.02)
    assert f"{100 * rate:.2g}%" == "2.2%"
    assert main(["selftest", "--points", "60000", "--cases", "3"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "selftest PASS (3 cases; false-alarm rate 0.83%)"
    real = cli.run_selftest

    def first_case_failed(**kwargs):
        rows = real(**kwargs)
        rows[0]["ok"] = False
        return rows

    monkeypatch.setattr(cli, "run_selftest", first_case_failed)
    assert main(["selftest", "--points", "60000", "--cases", "3"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "selftest FAIL (1 of 3 cases; false-alarm rate 0.83%)"


def test_cli_selftest_reports_a_short_case(monkeypatch, capsys):
    # seed 32 at 100k points draws a case that expects 18.8 kept events and
    # keeps 27, fewer than its minimum of 30: it has no noise estimate, is
    # checked by its count alone, and the run still ends in a verdict
    assert main(["selftest", "--points", "100000", "--seed", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"case {i}" for i in range(8)]
    assert lines[-1] == "selftest PASS (8 cases; false-alarm rate 2.2%)"
    (short,) = [row for row in run_selftest(seed=32, points=100_000)
                if row["kept_count"] < 30]
    assert short["kept_count"] == 27 and short["expected_count"] == pytest.approx(18.8, abs=0.05)
    assert math.isnan(short["mc_db"]) and math.isnan(short["se_db"])
    assert short["ok"]
    # an oracle whose probability is off by 4x fails the short case by its
    # count (4.7 expected, 27 kept) instead of stopping the run
    real = scenario.predict_transfer

    def wrong(*args, **kwargs):
        prediction = real(*args, **kwargs)
        return dataclasses.replace(prediction,
                                   selection_probability=prediction.selection_probability / 4)

    monkeypatch.setattr(scenario, "predict_transfer", wrong)
    rows = run_selftest(seed=32, points=100_000)
    assert [row["case"] for row in rows] == list(range(8))
    assert not rows[short["case"]]["ok"] and rows[short["case"]]["kept_count"] == 27
    assert main(["selftest", "--points", "100000", "--seed", "32"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("selftest FAIL")


def test_selftest_gate_is_three_standard_errors(monkeypatch):
    # the half-width of the reported 68% interval is 0.9945 standard errors,
    # so an oracle 3.01 half-widths (2.993 sigma) from the Monte Carlo value
    # is inside the 3 sigma gate, and one 3.03 half-widths (3.013 sigma) out
    reports = []
    real_statistics = scenario.kept_moment_statistics

    def recorded(*args):
        reports.append(real_statistics(*args))
        return reports[-1]

    monkeypatch.setattr(scenario, "kept_moment_statistics", recorded)
    (row,) = run_selftest(seed=1, points=100_000, cases=1)
    (report,) = reports
    half = (report.ci_high_db - report.ci_low_db) / 2.0
    assert row["ok"] and row["mc_db"] == report.squeezing_db
    assert row["se_db"] == pytest.approx(half / 0.994458, rel=1e-6)
    real_prediction = scenario.predict_transfer
    for gap, ok in ((3.01, True), (3.03, False)):
        def moved(*args, gap=gap, **kwargs):
            return dataclasses.replace(real_prediction(*args, **kwargs),
                                       transferred_db=report.squeezing_db + gap * half)

        monkeypatch.setattr(scenario, "predict_transfer", moved)
        (row,) = run_selftest(seed=1, points=100_000, cases=1)
        assert row["ok"] is ok, gap


def test_cli_sweep_stdout_is_the_sweep_csv_table(tmp_path, capsys):
    # stdout and sweep.csv come from one writer: the file is the stdout
    # table behind its comment lines, error cells quoted alike
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "n_points": 20_000, "seed": 5, "selection": {"bandwidth_delta": 0.01},
        "sweep": {"parameter": "squeezing_db", "minimum": 3.0, "maximum": 9.0,
                  "steps": 2}}))
    assert main(["sweep", "--config", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert '"InsufficientStatisticsError: ' in stdout
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "sweep.csv").read_text()
    assert text.endswith(stdout) and text[:-len(stdout)].count("\n# ") == 3


def test_cli_selftest_negative_seed_exit_code(capsys):
    assert main(["selftest", "--seed", "-1", "--points", "1000", "--cases", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "twinbeam-transfer 0.7.0" in capsys.readouterr().out


def test_distribution_version_is_the_package_version():
    # pyproject.toml reads the version from __version__, so the installed
    # distribution's metadata cannot name another one (Python 3.10 has no tomllib)
    tomllib = pytest.importorskip("tomllib")
    root = Path(twinbeam_transfer.__file__).parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert project["project"]["dynamic"] == ["version"]
    assert "version" not in project["project"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "twinbeam_transfer.__version__"}


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


def test_cli_chain_run_imports_scipy_fft_and_never_scipy_signal(tmp_path):
    # of scipy the chain engine needs only scipy.fft, for its synthesis: a
    # chain run in a fresh interpreter loads it and never scipy.signal,
    # whose import loads scipy.stats, optimize, sparse and more (about
    # 50 MB of RSS and 0.6 s of a run's wall time)
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({"engine": "chain", "selection": {"bandwidth_delta": 1.0}}))
    argv = ["run", "--config", str(config), "--points", "5000", "--out", str(tmp_path / "run")]
    script = textwrap.dedent(f"""
        import sys
        from twinbeam_transfer.cli import main
        assert main({argv!r}) == 0
        assert "scipy.fft" in sys.modules
        loaded = sorted(m for m in sys.modules
                        if m == "scipy.signal" or m.startswith("scipy.signal."))
        assert not loaded, loaded[:10]
        """)
    src = str(Path(twinbeam_transfer.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert (tmp_path / "run" / "report.json").is_file()
