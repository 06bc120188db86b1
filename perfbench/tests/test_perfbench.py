"""Tests of the benchmark itself, on tiny sizes of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from opineq import harness, linalg  # noqa: E402

TINY = {
    "default_sweep": lambda: workloads.DefaultSweep(trials=20, operator_trials=2),
    "scalar_sweep": lambda: workloads.ScalarSweep(trials=20),
    "operator_chains": lambda: workloads.OperatorChains(per_dim=((4, 5), (16, 5))),
    "radius_large": lambda: workloads.RadiusLarge(per_dim=((6, 5), (12, 1))),
}
SEED = 7
COUNT_UNITS = ("count", "calls/call", "calls/trial")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_tiny(name, trace):
    wl = TINY[name]()
    return wl, run.run(wl, SEED, 0.0, trace, setup_rounds=1)


def test_workloads_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    wl, out = _run_tiny(name, trace)
    assert run.report(wl, SEED, trace, out) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in lines)
    assert any(line.split()[:1] == ["fail_ratio"] and " ratio " in line for line in lines)


@pytest.mark.parametrize("name", list(TINY))
def test_counters_repeat_exactly(name):
    first = _run_tiny(name, True)[1]
    second = _run_tiny(name, True)[1]
    counts = [n for n, unit in first["units"].items() if unit in COUNT_UNITS]
    counts.append("operators.verdict_ratio")
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["linalg.lapack.eigvalsh_calls"] + first["metrics"]["scalars.mu.calls"] > 0


def _attributes():
    modules = (*tracer.PROGRAM_MODULES, np.linalg)
    return {(mod.__name__, attr): value for mod in modules for attr, value in vars(mod).items()}


def test_traced_run_restores_every_wrapped_attribute():
    before = _attributes()
    with tracer.Tracer():
        assert harness.numerical_radius is not before[("opineq.linalg", "numerical_radius")]
        assert np.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
    for name in TINY:
        _run_tiny(name, True)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_certificate_rejects_a_wrong_radius():
    wl = TINY["radius_large"]()
    wl.setup(SEED)
    wl.oracle()
    w, nrm = wl.call(0)
    assert wl.record(0, (w, nrm)) == (1, 1, 0) and not wl.errors
    for wrong in (w * (1 + 1e-3), w * (1 - 1e-3)):
        assert wl.record(0, (wrong, nrm))[2] == 1
    assert any("outside certificate" in e for e in wl.errors)
    lo, hi = workloads.radius_certificate(wl.matrices[0][1])
    assert workloads.within_certificate(w, lo, hi)
    assert lo <= hi and not workloads.within_certificate(hi * (1 + 1e-6), lo, hi)


def test_unitary_radius_must_be_one():
    wl = TINY["radius_large"]()
    wl.setup(SEED)
    wl.oracle()
    idx = next(i for i, (kind, _) in enumerate(wl.matrices) if kind == "unitary")
    w, nrm = wl.call(idx)
    assert abs(w - 1.0) <= workloads.UNITARY_RADIUS_TOL
    wl.record(idx, (w + 1e-9, nrm))
    assert any("unitary" in e for e in wl.errors)


def test_sweep_gate_catches_changed_bytes_and_lost_outcomes(capsys):
    wl = TINY["scalar_sweep"]()
    wl.setup(SEED)
    summary = harness.summary_to_dict(wl.call(0), include_wall=False)
    wl._record_summary(summary)
    assert not wl.errors
    summary["checks"][0]["pass"] -= 1
    wl._record_summary(summary)
    assert any("differs" in e for e in wl.errors)
    assert any("outcomes" in e for e in wl.errors)
    out = {"metrics": {}, "units": {}, "notes": {}, "attempted": 1, "failed": 0,
           "errors": wl.errors}
    assert run.report(wl, SEED, False, out) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 4)]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, beyond) == (90.0, 10) and pct == 90.0
    value, pct, beyond = run.tail([float(i) for i in range(1, 10001)])
    assert (value, beyond) == (9900.0, 100) and pct == 99.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    done = subprocess.run(
        [*spec["command"], "--workload", "scalar_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
