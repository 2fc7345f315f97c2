"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout.  The runs in subprocesses take about
two minutes.
"""

from __future__ import annotations

import cProfile
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobs as jobmod  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def runner(tmp_path, monkeypatch):
    ditred = run.load_ditred()
    monkeypatch.chdir(tmp_path)
    return run.Runner(ditred, tmp_path)


def _check_job():
    # generics over Q on the Kronecker layer: scalars, layers, reduction,
    # module calculus and generic realization in one short job
    return jobmod.job_generics(random.Random(7), "K", 2)


def test_traced_calls_equal_cprofile(runner):
    prof = cProfile.Profile()
    prof.enable()
    try:
        _, _, why = runner.execute(_check_job())
    finally:
        prof.disable()
    assert why is None
    prof.create_stats()
    ncalls = {code: stat[1] for code, stat in prof.stats.items()}

    tracer = Tracer(runner.ditred).install()
    try:
        _, _, why = tracer.run_job(0, runner.execute, _check_job())
    finally:
        tracer.uninstall()
    assert why is None
    traced = tracer.calls_by_function()
    wrapped = 0
    for name, orig in zip(tracer.names[1:], tracer.originals[1:]):
        code = orig.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert traced[name] == want, name
        wrapped += want > 0
    assert wrapped > 100  # the job reaches most layers


def test_wrappers_rebind_imported_names(runner):
    from ditred import ditmod, generic, qhbridge, reduction

    imported = [(qhbridge, "end_algebra"), (generic, "end_algebra"), (reduction, "hom_space")]
    tracer = Tracer(runner.ditred).install()
    try:
        for mod, name in imported:
            assert getattr(mod, name) is getattr(ditmod, name)
            assert getattr(mod, name).__wrapped__.__module__ == "ditred.ditmod"
    finally:
        tracer.uninstall()
    for mod, name in imported:
        assert not hasattr(getattr(mod, name), "__wrapped__")


def _families(workload, seed, rounds=2):
    rng = run.round_rng(workload, seed)
    out = []
    for _ in range(rounds):
        out.append(Counter(j.family for j in jobmod.make_round(workload, rng)))
    return out


@pytest.mark.parametrize("workload", jobmod.WORKLOADS)
def test_second_seed_gives_same_families_and_sizes(workload):
    assert _families(workload, 1) == _families(workload, 2)
    first = [j.files for j in jobmod.make_round(workload, run.round_rng(workload, 1))]
    second = [j.files for j in jobmod.make_round(workload, run.round_rng(workload, 2))]
    assert first != second


def test_host_speed_scale_is_the_mean_speed_of_the_samples_near_an_interval():
    pad = hostspeed.PAD_S
    sampler = hostspeed.Sampler()
    sampler.at = [0.0, 1.0, 2.0, 3.0]
    sampler.speed = [1.0, 2.0, 4.0, 8.0]
    assert sampler.scale(1.0, 2.0) == pytest.approx(3.0)
    assert sampler.scale(1.0 - pad, 2.0 + pad) == pytest.approx(3.0)
    assert sampler.scale(0.0, 3.0) == pytest.approx(3.75)
    with pytest.raises(ValueError):
        sampler.scale(1.0 + 2 * pad, 2.0 - 2 * pad)


def test_host_speed_sampler_samples_while_running_and_then_stops():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 20 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    taken = len(sampler.at)
    assert taken >= 10
    assert sampler.at == sorted(sampler.at) and all(v > 0 for v in sampler.speed)
    time.sleep(3 * hostspeed.PERIOD_S)
    assert len(sampler.at) == taken
    assert signal.getsignal(signal.SIGALRM) == before


def _run(workload, seed, trace, hashseed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"stdout sha256 of the first \d+ round\(s\) ([0-9a-f]{64})", proc.stdout).group(1)
    return json.loads(lines[-1]), digest


def _declared(kind):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_runs_report_the_declared_metrics_and_equal_digests():
    plain, plain_digest = _run("bridge_qh", 5, 0)
    traced, traced_digest = _run("bridge_qh", 5, 1)
    assert plain["correct"] and traced["correct"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _declared("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _declared("per_layer")
    assert plain_digest == traced_digest
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_traced_counts_repeat_exactly():
    a, _ = _run("rational_q", 3, 1, hashseed=1)
    b, _ = _run("rational_q", 3, 1, hashseed=2)
    assert a["correct"] and b["correct"]
    exact = [k for k in a["metrics"]
             if k.endswith(".calls") or k.endswith("_ratio") or k.startswith("reduction.trace.")]
    assert len(exact) == 58  # 50 call counts, 5 ratios, 3 trace sizes
    assert {k: a["metrics"][k] for k in exact} == {k: b["metrics"][k] for k in exact}
    assert a["metrics"]["reduction.trace.steps"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "verify_fp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
