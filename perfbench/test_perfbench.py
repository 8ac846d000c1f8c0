"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::hwmlab.evolution.DegenerateEigenvalueWarning")

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.per_layer_catalog())
    names = [name for name, _, _ in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _sample(wall):
    return reference.RefSample(wall, 5 * wall, 5 * wall, (wall,) * 5)


def test_correction_is_identity_at_nominal():
    at_nominal = _sample(reference.REF_NOMINAL_S)
    assert reference.factor(at_nominal, at_nominal) == 1.0


def test_correction_scales_with_host_speed():
    slow = _sample(2.0 * reference.REF_NOMINAL_S)
    fast = _sample(0.5 * reference.REF_NOMINAL_S)
    assert reference.factor(slow, slow) == pytest.approx(0.5)
    assert reference.factor(slow, fast) == pytest.approx(1.0)


def test_quiet_window_guard():
    assert reference.is_quiet(0.010, 0.010)
    assert not reference.is_quiet(0.020, 0.010)
    assert reference.sample().quiet


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


@pytest.fixture(scope="module")
def states():
    return {name: w.prepare(w.inputs(7)) for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_results_bitwise_identical(name, states):
    w = workloads.WORKLOADS[name]
    plain = w.op(states[name])
    assert w.check(plain) == []
    originals = {(m, f): getattr(sys.modules[m], f) for _, m, f in tracing.TARGETS}
    rec = tracing.Recorder()
    rec.install()
    try:
        traced = rec.run(0, w.op, states[name])
    finally:
        rec.uninstall()
    assert workloads.digest(traced) == workloads.digest(plain)
    assert all(getattr(sys.modules[m], f) is fn for (m, f), fn in originals.items())
    selfs = rec.self_times()[0]
    assert set(selfs) - {tracing.ROOT, tracing.HOOK} <= set(tracing.SPAN_NAMES)
    assert len(selfs) > 3
    assert all(entry[0] >= -1e-9 for entry in selfs.values())


def _flow_rows(states):
    return workloads.flow_op(states["flow"])


def test_flow_check_catches_energy_drift(states):
    result = _flow_rows(states)
    result[1][10][0]["energy"] += 1e-6
    assert workloads.flow_check(result)


def test_flow_check_catches_moved_zeroth_mode(states):
    result = _flow_rows(states)
    diagnostics = result[0][5][1].diagnostics
    moved = diagnostics["mean"].copy()
    moved.real[0, 0] = np.nextafter(moved.real[0, 0], np.inf)
    diagnostics["mean"] = moved
    assert workloads.flow_check(result)


def test_zdbo_check_catches_shifted_onset(states):
    result = workloads.zdbo_op(states["zdbo"])
    for row in result["rows"]:
        if row["t"] == 0.45:
            row["deficit"] = 1e-3
    assert workloads.zdbo_check(result)
    result["onsets"][workloads.ZDBO_CUTOFF] = 0.6
    assert workloads.zdbo_check(result)


def test_crosscheck_check_catches_gap(states):
    result = workloads.crosscheck_op(states["crosscheck"])
    result["max_gap"] = 1e-5
    assert workloads.crosscheck_check(result)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "zdbo", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
