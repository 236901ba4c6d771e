"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

They run in about a minute and check the contract of ``run.py``: every
metric of BENCHMARK.json printed with its unit, failed ops counted rather
than raised, counts that repeat at a fixed seed, and a refusal to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_checkout()

import workloads  # noqa: E402
from funkradon import transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def tiny(workload, trace, seed=3):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_counts_repeat_at_a_fixed_seed():
    keys = ("transform.nodes", "phantom.eval.points", "trigpoly.residue_integral.calls")
    for workload in ("roundtrip-lines", "reconstruct"):
        first, second = (tiny(workload, 1, seed=5)["metrics"] for _ in range(2))
        assert [first[k]["value"] for k in keys] == [second[k]["value"] for k in keys]
    assert first["trigpoly.residue_integral.calls"]["value"] > 0


def test_seed_draws_the_inputs():
    def draws(seed):
        rng = np.random.default_rng(seed)
        cormack = workloads.ROUND_TRIPS["cormack2"].gaussians
        return workloads._rotated(rng, cormack), workloads._sample_disc(rng, 4, 0.05, 0.95).tobytes()

    assert draws(1) == draws(1)
    assert draws(1)[0] != draws(2)[0] and draws(1)[1] != draws(2)[1]
    # the two cormack2 components stay rotated copies of each other
    a, b = draws(1)[0].components
    assert np.allclose(a.center, -np.asarray(b.center)) and a.sigma == b.sigma


def test_a_corrupted_op_counts_as_failed(monkeypatch, tmp_path):
    ops = [op for op in workloads.build_ops("roundtrip-lines", 3, "tiny", tmp_path) if op.label == "radon"]
    assert run.run_round(ops, None, 0).failures == []

    forward = transform.forward_mphi

    def scaled(*args, **kwargs):
        sino = forward(*args, **kwargs)
        return transform.Sinogram(sino.geom, sino.lambda_axis, sino.phi_axis, 1.01 * sino.data)

    monkeypatch.setattr(transform, "forward_mphi", scaled)
    rnd = run.run_round(ops, None, 0)
    assert len(rnd.failures) == 1 and rnd.failures[0].startswith("radon:")


def test_an_op_that_raises_counts_as_failed(monkeypatch, tmp_path):
    ops = workloads.build_ops("reconstruct", 3, "tiny", tmp_path)

    def refuse(*args, **kwargs):
        raise transform.TracingError("injected")

    monkeypatch.setattr(transform, "read_fkr1", refuse)
    rnd = run.run_round(ops, None, 0)
    assert len(rnd.failures) == len(ops) and all("TracingError: injected" in f for f in rnd.failures)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "kernel-check", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
