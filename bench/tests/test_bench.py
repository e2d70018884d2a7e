"""Tests of the benchmark itself: metric names, checks with teeth, refusal to run bare.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run main() in-process with one timed set-up launch and output in tmp_path."""
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")

    def bench(workload, trace):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
        )
        return code, json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())

    return bench


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, why) for name, (why, _) in workloads.WORKLOADS.items()
    ]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_without_errors(tiny, capsys, workload, trace):
    code, record = tiny(workload, trace)
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert record["error_rate"] == 0
    if trace:
        assert 0.0 < last["metrics"]["trace.accounted_share"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", ["simulate-erasure", "sim-bulk-payload"])
def test_wrong_decoded_bytes_are_counted_as_failures(tiny, monkeypatch, workload):
    import twolane.sim

    real_decode = twolane.sim.decode

    def corrupting_decode(received, coeffs, k, stats=None):
        gen = real_decode(received, coeffs, k, stats)
        flipped = bytes(b ^ 0xFF for b in gen.symbols[0])
        return dataclasses.replace(gen, symbols=(flipped,) + gen.symbols[1:])

    monkeypatch.setattr(twolane.sim, "decode", corrupting_decode)
    code, record = tiny(workload, 0)
    assert code == 0
    assert record["error_rate"] > 0 and not record["correct"]


def test_lost_hook_fails_loudly(tiny, monkeypatch, capsys):
    import twolane.scenario

    monkeypatch.delattr(twolane.scenario, "run")
    code = run.main(["--workload", "simulate-erasure", "--seed", "1", "--seconds", "0.01"])
    assert code == 1
    assert "twolane.scenario.run is gone" in capsys.readouterr().err


@pytest.mark.parametrize("n, p", [(600, 0.0123), (600, 0.58), (1500, 0.5821), (30, 0.9)])
def test_erasure_range_holds_the_stated_tail_mass(n, p):
    from scipy.stats import binom

    lo, hi = workloads.binomial_acceptance(n, p)
    alpha = workloads.ERASURE_ALPHA
    assert binom.cdf(lo - 1, n, p) <= alpha / 2 < binom.cdf(lo, n, p)
    assert binom.sf(hi, n, p) <= alpha / 2 < binom.sf(hi - 1, n, p)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no twolane sources" in done.stderr
