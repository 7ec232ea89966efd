"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import meshes  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = list(meshes.WORKLOADS)

SMALL = {
    "certify-dense": ["crossed-2", "type1-3", "three_lines-3", "perturbed-4-p0"],
    "screen-topology": ["crossed-4", "perturbed-6-p1"],
    "verify-fields": ["crossed-2", "perturbed-3-p2"],
}
EXACT = ("solver.dense_factorizations", "solver.la_flops_computed",
         "mesh.enumerate_patch.calls_per_vertex",
         "poly.hat_gradients.calls_per_tri",
         "geometry.triangle_geometry.calls_per_tri", "poly.eval.calls",
         "fields.checks", "fields.checks_failed")
# Per-layer metrics each workload must exercise: a zero here means the
# tracer no longer reaches the code the metric names.
EXERCISED = {
    "certify-dense": ["solver.dense_factorizations", "solver.la_flops_computed",
                      "solver.peak_alloc_mb",
                      "mesh.enumerate_patch.calls_per_vertex",
                      "geometry.triangle_geometry.calls_per_tri",
                      "poly.hat_gradients.calls_per_tri"]
                     + [f"{name}.self_s" for name in tracer.LAYER_TIMES
                        if not name.startswith("fields.")],
    "screen-topology": ["mesh.enumerate_patch.calls_per_vertex",
                        "geometry.triangle_geometry.calls_per_tri",
                        "mesh.load_mesh.self_s", "mesh.build_topology.self_s",
                        "mesh.enumerate_patch.self_s",
                        "classify.classify_mesh.self_s",
                        "trees.build_tree_cover.self_s",
                        "trees.check_hypotheses.self_s", "cli.main.self_s"],
    "verify-fields": ["poly.eval.calls", "poly.hat_gradients.calls_per_tri",
                      "fields.checks", "fields.verify_field.self_s",
                      "fields.local_interpolant.self_s",
                      "fields.boundary_interpolant.self_s"],
}


def _small_items(tmp_path, workload):
    items = [meshes.Item(name=key, key=key, scale=1.0, fields_seed=7)
             for key in SMALL[workload]]
    return run.write_meshes(str(tmp_path), workload, items)


def _traced_run(tmp_path, workload):
    os.makedirs(tmp_path)
    items = _small_items(tmp_path, workload)
    return run.run_worker({"workload": workload, "src": run.SRC, "items": items,
                           "warmup": [], "seconds": 0, "trace": True,
                           "threads_vars": run.THREADS_VARS,
                           "spans_path": str(tmp_path / "spans.csv.gz")},
                          str(tmp_path), deadline=time.monotonic() + 300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(tmp_path, workload):
    first = _traced_run(tmp_path / "a", workload)
    second = _traced_run(tmp_path / "b", workload)
    assert set(first["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in EXERCISED[workload]:
        assert first["per_layer"][name] > 0, name
    assert all(first["inert"]) and all(second["inert"])


def test_bounded_workloads_measure_every_layer():
    bounded = [w["name"] for w in SPEC["workloads"]]
    assert set(bounded) <= set(meshes.WORKLOADS)
    exercised = {name for w in bounded for name in EXERCISED[w]}
    # checks_failed is 0 while the program is right; the overhead ratio
    # is a property of the tracer.
    layers = {m["name"] for m in SPEC["per_layer"]} - {
        "fields.checks_failed", "trace.overhead_ratio"}
    assert layers <= exercised, sorted(layers - exercised)


def test_tracer_refuses_a_missing_layer(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import svstokes.solver

    monkeypatch.delattr(svstokes.solver, "divergence_rank")
    with pytest.raises(LookupError, match="solver.divergence_rank"):
        tracer.Tracer().install(svstokes)
    assert svstokes.solver.spurious_modes.__module__ == "svstokes.solver"


def test_tracer_counts_factorizations_imported_by_name(monkeypatch):
    import numpy as np
    import scipy.linalg
    monkeypatch.syspath_prepend(run.SRC)
    import svstokes.solver

    monkeypatch.setattr(svstokes.solver, "svdvals", scipy.linalg.svdvals,
                        raising=False)
    t = tracer.Tracer()
    t.install(svstokes)
    try:
        svstokes.solver.svdvals(np.eye(3))
        scipy.linalg.svdvals(np.eye(3))
    finally:
        t.uninstall()
    assert t.counts["dense_factorizations"] == 2
    assert svstokes.solver.svdvals is scipy.linalg.svdvals


INERT_SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import svstokes, svstokes.cli, tracer
items = json.loads(sys.argv[2])
codes = []
for traced in (False, True):
    t = tracer.Tracer()
    if traced:
        t.install(svstokes)
    for item in items:
        argv = list(item["argv"])
        argv[argv.index("--out") + 1] += ".traced" if traced else ""
        codes.append(svstokes.cli.main(argv))
    t.uninstall()
print(json.dumps(codes))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_reports_byte_identical(tmp_path, workload):
    items = _small_items(tmp_path, workload)
    proc = subprocess.run([sys.executable, "-c", INERT_SCRIPT, run.BENCH,
                           json.dumps(items)], env=run.child_env(),
                          capture_output=True, text=True, timeout=300, check=True)
    codes = json.loads(proc.stdout)
    assert codes[:len(items)] == codes[len(items):]
    for item in items:
        with open(item["out"], "rb") as a, open(item["out"] + ".traced", "rb") as b:
            assert a.read() == b.read(), item["name"]


def test_host_speed_scaling():
    n = hostspeed.NOMINAL_LOOP_S
    assert hostspeed.scale([1.0, 2.0], [n, n]) == [1.0, 2.0]
    assert hostspeed.scale([1.0] * 3, [2 * n] * 3) == [0.5] * 3
    assert hostspeed.scale([1.0], [2 * n], window=0) == [0.5]
    # One stray loop among its neighbours does not move the item it precedes.
    loops = [n] * 11
    loops[5] = 10 * n
    assert hostspeed.scale([1.0] * 11, loops)[5] == 1.0
    assert hostspeed.loop_seconds() > 0


def test_oracle_counts_every_mismatch():
    want = {"exit": 0, "K": 1, "rank": 10, "nullity": 3, "sigma": 2,
            "verdict": "none", "identity_ok": None, "beta": 0.5}
    judge = lambda got, scaled=False: oracle.judge("certify-dense", got, want, scaled)
    assert judge(dict(want)) == (False, False, "")
    assert judge(dict(want, K=0))[:2] == (True, True)
    assert judge(dict(want, beta=0.5 * (1 + 1e-4)))[:2] == (True, True)
    assert judge(dict(want, beta=0.7), scaled=True) == (False, False, "")
    assert judge({"exit": 4})[:2] == (True, False)
    assert judge({"exit": 0, "unreadable": "ValueError"})[:2] == (True, True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plans_are_seeded_and_covered_by_the_reference(workload):
    reference = run.load_reference()
    first = meshes.plan(workload, 3)
    assert first == meshes.plan(workload, 3)
    assert any(meshes.plan(workload, s) != first for s in range(4, 8))
    for seed in range(20):
        for item in meshes.plan(workload, seed):
            assert item.key in reference[workload]
    scales = sorted(item.scale for item in first)
    if workload == "certify-dense":
        assert scales[0] == 1e-7 and scales[-1] == 3e7
    else:
        assert set(scales) == {1.0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "certify-dense", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
