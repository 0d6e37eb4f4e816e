"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

sys.path.insert(0, str(wl.SRC))

import mnrules  # noqa: E402
from mnrules import perm, poly, schubert  # noqa: E402

with open(run.BENCHMARK) as f:
    SPEC = json.load(f)

# Per-layer metrics that are counts or ratios of counts, not times.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")]


def snapshot() -> dict:
    """Every attribute of every loaded mnrules module and of SparsePoly."""
    spaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "mnrules"] + [poly.SparsePoly]
    return {(id(space), attr): value for space in spaces for attr, value in list(vars(space).items())}


def test_rounds_are_seeded_and_cover_every_cell():
    pool = wl.load_pool("grass_box")
    first = wl.cases("grass_box", 7, 3)
    assert first == wl.cases("grass_box", 7, 3)
    assert first != wl.cases("grass_box", 8, 3)
    for i in range(3):
        batch = first[i * len(pool):(i + 1) * len(pool)]
        cells = {next(name for name, cases in pool.items() if case in cases) for case in batch}
        assert cells == set(pool)


def test_histogram_matches_exact_percentiles():
    rng = random.Random(4)
    samples = [rng.lognormvariate(-7, 1.5) for _ in range(5000)]
    hist = run.Histogram()
    for dt in samples:
        hist.add(dt)
    ordered = sorted(samples)
    assert hist.median() == pytest.approx(statistics.median(samples), rel=0.002)
    assert hist.at_rank(math.ceil(0.9 * len(samples))) == pytest.approx(ordered[math.ceil(0.9 * len(samples)) - 1], rel=0.002)
    assert hist.n == len(samples)
    assert hist.total == pytest.approx(sum(samples))


@pytest.mark.parametrize("workload,limit", [("schubert_deep", 3), ("grass_box", 200), ("cli_session", 3)])
def test_traced_counts_repeat_exactly(workload, limit):
    first = run.trace(workload, seed=5, limit=limit)
    second = run.trace(workload, seed=5, limit=limit)
    assert first["failed"] == second["failed"] == 0
    assert {m: first["metrics"][m] for m in COUNTS} == {m: second["metrics"][m] for m in COUNTS}


def test_traced_run_sees_its_layers():
    deep = run.trace("schubert_deep", seed=5, limit=3)["metrics"]
    assert deep["perm.k_bruhat_covers.self_ms"] > 0.5 * deep["trace.wall_ms"]
    assert deep["partitions.is_rim_hook.calls"] == 0
    box = run.trace("grass_box", seed=5, limit=200)["metrics"]
    assert box["partitions.add_rim_hooks.calls"] > 0
    assert all(box[m] == 0 for m in box if m.startswith("perm."))


def test_wrappers_cover_every_binding_and_are_removed():
    before = snapshot()
    original = perm.k_bruhat_covers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert perm.k_bruhat_covers is not original
        assert schubert.k_bruhat_covers is perm.k_bruhat_covers is mnrules.k_bruhat_covers
        assert poly.SparsePoly.__rmul__ is poly.SparsePoly.__mul__
        assert mnrules.mn_schubert((3, 1, 2), 2, 2) == {(5, 1, 2, 3, 4): 1, (3, 4, 1, 2): 1}
    finally:
        tracer.uninstall()
    assert tracer.layers()["perm.k_bruhat_covers"]["calls"] > 0
    run.trace("grass_box", seed=1, limit=50)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_untraced_run_imports_no_tracing_code():
    code = (
        "import sys; import run; "
        "res = run.measure('grass_box', seed=3, seconds=0.2, min_ops=20); "
        "assert res['failed'] == 0, res; "
        "assert 'tracing' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=wl.HERE, env=wl.CHILD_ENV, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_wrong_outputs_count_as_failures(monkeypatch):
    monkeypatch.setattr(mnrules, "quantum_mn", lambda *args: {})
    res = run.measure("grass_box", seed=3, seconds=0.1, min_ops=24)
    assert 0 < res["failed"] < res["attempted"]
    case = wl.load_pool(wl.CLI)["readme"][0]
    proc = wl.cli_call(case["argv"])
    assert wl.cli_ok(case, proc)
    assert not wl.cli_ok(dict(case, digest="0" * 64), proc)
    assert not wl.cli_ok(dict(case, verify=True), proc)


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grass_box", "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path)
    shutil.copytree(wl.HERE, tmp_path / wl.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grass_box", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
