"""Tests of the benchmark itself, at reduced size.

Run from the root of the repository::

    python -m pytest -p no:cacheprovider perfbench/test_perfbench.py

Every workload must emit every end-to-end metric BENCHMARK.json declares,
with its unit; its traced run must emit every per-layer metric, non-zero
for the layers ``run.LAYERS`` lists for it; the host-speed correction must
be exact on synthetic probe series; and in a directory without the
program the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import P_REF_S, PERIOD_S, corrected, speed  # noqa: E402
from run import LAYERS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _series(t0: float, t1: float, probe_s) -> list:
    """Samples every PERIOD_S over [t0, t1), probe duration ``probe_s(t)``.

    Samples sit mid-period, so none lands on a boundary of the tests.
    """
    times = [t0 + (i + 0.5) * PERIOD_S for i in range(round((t1 - t0) / PERIOD_S))]
    return [(t, probe_s(t)) for t in times]


def test_layers_match_declaration():
    assert WORKLOADS == list(LAYERS)
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    ends = {m["name"] for m in DECLARED["end_to_end"]}
    for layers in LAYERS.values():
        assert set(layers) <= per_layer
        assert set(layers.values()) <= ends


def test_correction_is_identity_at_reference_speed():
    samples = _series(100.0, 110.0, lambda t: P_REF_S)
    assert speed(samples, 100.0, 110.0) == 1.0
    assert corrected(samples, 100.0, 110.0) == 10.0
    assert corrected(samples, 102.5, 107.5) == 5.0


def test_correction_is_exact_across_a_speed_switch():
    # Reference speed for the first 3 s, then half speed for 7 s: the
    # interval's work takes 3 + 7 / 2 = 6.5 s at the reference speed.
    samples = _series(0.0, 10.0, lambda t: P_REF_S if t < 3.0 else 2 * P_REF_S)
    assert corrected(samples, 0.0, 10.0) == pytest.approx(6.5, rel=1e-12)
    # Twice as fast as the reference for 4 s, then the reference for 4 s.
    samples = _series(0.0, 8.0, lambda t: P_REF_S / 2 if t < 4.0 else P_REF_S)
    assert corrected(samples, 0.0, 8.0) == pytest.approx(12.0, rel=1e-12)
    # A sub-interval sees only its own samples.
    assert corrected(samples, 4.0, 8.0) == pytest.approx(4.0, rel=1e-12)


def test_correction_falls_back_without_samples():
    samples = _series(0.0, 1.0, lambda t: 2 * P_REF_S)
    assert speed(samples, 5.0, 6.0) is None
    assert corrected(samples, 5.0, 6.0, fallback=0.5) == 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in DECLARED["end_to_end"]]
    for spec in DECLARED["end_to_end"]:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"]
        assert got["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    metrics = _result(workload, 1)["metrics"]
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]
    for spec in DECLARED["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    for name in LAYERS[workload]:
        assert metrics[name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
