"""Fingerprints of the canonical small cases, pinned for this __version__.

Each case runs in-process and is reduced to a digest of its outputs:
integers (kept counts, histogram counts, row counts) exactly, floats
rounded to 12 significant digits, so any change of the streams or of the
estimates moves a digest. The rounding does not hide every difference
between CPUs: the chain's demodulator product is a float32 OpenBLAS sgemm
whose summation order depends on the kernel OpenBLAS picks, and under
OPENBLAS_CORETYPE=Haswell or Zen (the kernels of AVX2-only and AMD CPUs)
the run_chain and sweep_chain digests move; the direct cases do not. ROADMAP
item 1 makes that product independent of the kernel. A change that moves a
digest on purpose bumps __version__ and re-pins the digests it moves, in
the same commit.

The Philox canary runs first: numpy may change a Generator stream between
versions (NEP 19), and the canary reports such a change as what it is,
not as a defect of this program.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

import twinbeam_transfer
from twinbeam_transfer.cli import main
from twinbeam_transfer.scenario import run_selftest

PINNED_VERSION = "0.5.0"

# the first normals of Philox(0), float64 then float32, exactly
PHILOX_CANARY = (
    [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256],
    [-0.24822916090488434, -0.02676701545715332, -1.9444162845611572],
)

DIGESTS = {
    "run_direct": "2c5eb9f6badf46f4",
    "run_direct_scatter_100": "ca98358f25a554bc",
    "run_chain": "94c9cc7367e0a948",
    "sweep_direct": "22b41f47e80ae3c5",
    "sweep_chain": "b76a11b2fa260db5",
    "selftest": "5f126b48cd7972f2",
}

_DIRECT_SWEEP = {"sweep": {"parameter": "squeezing_db", "minimum": 3.0, "maximum": 9.0,
                           "steps": 3}}
_CHAIN_SWEEP = {"engine": "chain",
                "sweep": {"parameter": "bandwidth_delta", "minimum": 0.1, "maximum": 0.3,
                          "steps": 2}}

# name: (command, config, points); the direct runs are two whole chunks
# and a partial one
CASES = {
    "run_direct": ("run", {}, 140_003),
    "run_direct_scatter_100": ("run", {"scatter_points": 100}, 140_003),
    "run_chain": ("run", {"engine": "chain", "selection": {"bandwidth_delta": 0.1}}, 20_000),
    "sweep_direct": ("sweep", _DIRECT_SWEEP, 140_003),
    "sweep_chain": ("sweep", _CHAIN_SWEEP, 20_000),
}


def _canon(value):
    """``value`` with every float as a 12-significant-digit string."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return "nan" if math.isnan(value) else f"{float(value):.11e}"
    return value


def _digest(value) -> str:
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _outputs(directory) -> dict:
    """Every output file of ``directory``, parsed: report.json less its
    version, each CSV's cells less its ``#`` comment lines."""
    parsed = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            report = json.loads(path.read_text())
            report.pop("version")
            parsed[path.name] = report
        else:
            with open(path, newline="") as fh:
                rows = csv.reader(line for line in fh if not line.startswith("#"))
                parsed[path.name] = [[_cell(c) for c in row] for row in rows]
    return parsed


def test_philox_canary():
    for dtype, expected in zip((np.float64, np.float32), PHILOX_CANARY):
        normals = np.random.Generator(np.random.Philox(0)).standard_normal(3, dtype=dtype)
        assert normals.tolist() == expected, dtype


def test_pins_are_for_this_version():
    assert twinbeam_transfer.__version__ == PINNED_VERSION


@pytest.mark.parametrize("name", list(CASES))
def test_case_fingerprint(name, tmp_path, capsys):
    command, config, points = CASES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--points", str(points),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digest(_outputs(out)) == DIGESTS[name]


def test_selftest_fingerprint():
    assert _digest(run_selftest(points=100_000)) == DIGESTS["selftest"]
