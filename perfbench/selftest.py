"""Checks that the benchmark's metrics and correctness gates are live.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload once at a tiny size (about a minute on two
cores). The file name keeps it out of the repository's default pytest
collection, so the tier-1 suite does not run it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = 0.02


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_pass_is_correct_and_emits_every_metric(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=True, scale=TINY)
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        metrics = run.report(result, trace)["metrics"]
        assert list(metrics) == list(units)
        for name, metric in metrics.items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
            assert metric["value"] == metric["value"], name  # not NaN
    assert result.end_to_end["wall_s"] > result.end_to_end["setup_s"] > 0


def test_wrong_reference_value_fails_the_run():
    reference = copy.deepcopy(run.load_reference())
    key = sorted(reference["rician"])[0]
    cell = reference["rician"][key]["mean_outage_numeric"]
    reference["rician"][key]["mean_outage_numeric"] = repr(float(cell) * (1 + 1e-6))
    result = run.measure("mismatch-rician", seed=3, seconds=0, trace=False,
                         scale=TINY, reference=reference)
    assert result.failed / result.attempted > 0
    assert any(key in p and "mean_outage_numeric" in p for p in result.problems)
    assert run.report(result, trace=False)["correct"] is False


def test_import_times_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2112 |     172098 |       numpy",
        "import time:       939 |     673486 |       scipy.optimize",
        "import time:      4656 |       4656 |       statrate.specfun",
        "import time:      6808 |    1461835 | statrate.cli",
    ])
    got = run.import_times(stderr)
    assert got["import.numpy.s"] == pytest.approx(0.172098)
    assert got["import.scipy_optimize.s"] == pytest.approx(0.673486)
    assert got["import.scipy_stats.s"] == 0.0
    assert got["import.statrate.self_s"] == pytest.approx(0.011464)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
