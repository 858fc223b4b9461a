"""Fingerprints of the canonical small cases, pinned for this __version__.

Each case runs in-process and is reduced to a digest of its outputs:
integers (kept counts, histogram counts, row counts) exactly, floats
rounded to 12 significant digits, so any change of the streams or of the
estimates moves a digest. A change that moves a digest on purpose bumps
__version__ and re-pins the digests it moves, in the same commit.

One BLAS product and one LAPACK Cholesky reach every output: each
config's 4 x 4 covariance factor (model._covariance_factor), which every
direct draw and selftest case uses and every chain config's oracle. Their
results may depend on the kernel the BLAS library picks for the CPU. The
per-event and per-sample work makes no BLAS call: the direct engine's
channels are elementwise sums, the chain's demodulator product is an
einsum, whose summation order is fixed in numpy's baseline build, and the
chain's FFT products are spelled out in real multiplies and adds. So
subprocess tests run every case, the chain's, the direct runs and sweep
and the selftest, under OpenBLAS's SkylakeX, Haswell and Zen kernels
(OPENBLAS_CORETYPE, the kernels it picks on AVX-512, AVX2-only and AMD
CPUs) and with numpy's AVX-512 loops switched off
(NPY_DISABLE_CPU_FEATURES), and require the pinned digests under each.
Those variables are set in the child's environment only.

The Philox canary runs first: numpy may change a Generator stream between
versions (NEP 19), and the canary reports such a change as what it is,
not as a defect of this program.
"""
import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import twinbeam_transfer
from twinbeam_transfer.cli import main
from twinbeam_transfer.scenario import run_selftest

PINNED_VERSION = "0.7.0"

# the first normals of Philox(0), float64 then float32, exactly
PHILOX_CANARY = (
    [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256],
    [-0.24822916090488434, -0.02676701545715332, -1.9444162845611572],
)

DIGESTS = {
    "run_direct": "2c5eb9f6badf46f4",
    "run_direct_scatter_100": "ca98358f25a554bc",
    "run_chain": "e85895a5ab473c7e",
    "sweep_direct": "22b41f47e80ae3c5",
    "sweep_chain": "27cded83d6d4ed03",
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


def _case_digest(name, directory) -> str:
    """The digest of case ``name``'s outputs, written under ``directory``;
    the selftest's is of its results, which it writes nowhere."""
    if name == "selftest":
        return _digest(run_selftest(points=100_000))
    command, config, points = CASES[name]
    path = directory / "cfg.json"
    path.write_text(json.dumps(config))
    out = directory / "out"
    assert main([command, "--config", str(path), "--points", str(points),
                 "--out", str(out)]) == 0
    return _digest(_outputs(out))


@pytest.mark.parametrize("name", list(CASES))
def test_case_fingerprint(name, tmp_path, capsys):
    digest = _case_digest(name, tmp_path)
    capsys.readouterr()
    assert digest == DIGESTS[name]


_CHAIN_CASES = ["run_chain", "sweep_chain"]
_DIRECT_CASES = [name for name in DIGESTS if name not in _CHAIN_CASES]

# name: (the child's environment, the /proc/cpuinfo flag its kernels need)
_KERNELS = {
    "openblas-skylakex": ({"OPENBLAS_CORETYPE": "SkylakeX"}, "avx512f"),
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "avx2"),
    "openblas-zen": ({"OPENBLAS_CORETYPE": "Zen"}, "avx2"),
    "numpy-without-avx512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                             "avx512f"),
}

# the named cases' digests as a JSON object, each case in its own directory
_KERNEL_CHILD = textwrap.dedent("""
    import io, json, sys, tempfile
    from contextlib import redirect_stdout
    from pathlib import Path
    sys.path.insert(0, sys.argv[1])
    import test_fingerprints
    digests = {}
    for name in sys.argv[2:]:
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
            digests[name] = test_fingerprints._case_digest(name, Path(tmp))
    print(json.dumps(digests))
    """)


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return set(next(line for line in fh if line.startswith("flags")).split())
    except (OSError, StopIteration):
        return set()


def _kernel_digests(kernel, names) -> dict:
    """The digests of the cases ``names``, run in a child under ``kernel``."""
    # a kernel the CPU cannot run would die of SIGILL, so it is skipped
    variables, flag = _KERNELS[kernel]
    if platform.machine().lower() not in ("x86_64", "amd64") or flag not in _cpu_flags():
        pytest.skip(f"the CPU has no {flag}")
    src = str(Path(twinbeam_transfer.__file__).parents[1])
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", _KERNEL_CHILD, str(Path(__file__).parent),
                             *names], env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_chain_fingerprints_independent_of_cpu_kernels(kernel):
    assert _kernel_digests(kernel, _CHAIN_CASES) == {name: DIGESTS[name] for name in _CHAIN_CASES}


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_direct_fingerprints_independent_of_cpu_kernels(kernel):
    # the direct runs and sweep and the selftest, whose draws go through
    # each config's covariance factor
    assert _kernel_digests(kernel, _DIRECT_CASES) == {name: DIGESTS[name]
                                                       for name in _DIRECT_CASES}


def test_selftest_fingerprint(tmp_path):
    assert _case_digest("selftest", tmp_path) == DIGESTS["selftest"]
