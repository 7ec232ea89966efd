"""The svstokes benchmark: one command, three workloads.

    python3 bench/run.py --workload certify-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Each item is one in-process call of ``svstokes.cli.main`` on a mesh file
this script wrote beforehand, in a closed loop with one client: the next
item starts when the previous one has returned.  Each workload runs in a
fresh worker process, with the BLAS thread count pinned before numpy is
imported.  Every item's output is checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced and then traced, prints the per-layer metrics and the
tracing overhead, and writes every span to ``bench/out``.  The last line
of standard output is the JSON result.  The exit code is nonzero only
when the harness itself fails, never because an item failed.

``meshes.WORKLOADS`` defines the three workloads.  ``BENCHMARK.json`` at
the repository root names the metrics, the default ``--seconds`` and the
workloads whose regressions it bounds: ``certify-dense`` and
``verify-fields``.  ``screen-topology`` runs from this command only (see
README.md, "Noise").

Maintenance:
    python3 bench/run.py --write-reference   # re-record reference.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import hostspeed
import meshes
import oracle

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

THREADS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3          # before the worker, and again after it
SETUP_LOOPS = 5            # host-speed loops timed before each set-up
# The whole run, set-up included, may take TIME_MARGIN_S plus this many
# times --seconds: a traced run measures --seconds / 2 untraced, the same
# passes traced (tracing adds a few per cent), and one more pass.
TIME_PER_SECOND = 2
TIME_MARGIN_S = 50
P90_MIN_ITEMS = 100         # so that 10 or more samples lie beyond p90

class HarnessError(Exception):
    """The benchmark itself could not run; never raised for a failed item."""


def load_spec():
    """``BENCHMARK.json``: the bounded workloads, the metrics and their units."""
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {SPEC_PATH}: {exc}") from exc


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# One BLAS thread: at these sizes a second thread gains nothing measurable
# on a 2-core host, while a busy neighbour core stalls every threaded
# call; one thread also makes the reports byte-identical run to run.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in THREADS_VARS}


def child_env():
    return dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)


def write_meshes(workdir, workload, items):
    """Mesh files and argument lists for the worker plan."""
    out = []
    for item in items:
        verts, tris = meshes.build(item.key)
        path = os.path.join(workdir, f"{item.name}.mesh")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(meshes.mesh_text(verts, tris, item.scale))
        report = os.path.join(workdir, f"{item.name}.out")
        out.append({"name": item.name, "key": item.key, "scale": item.scale,
                    "T": len(tris), "V": len(verts),
                    "out": report,
                    "argv": meshes.argv(workload, item, path, report)})
    return out


def warmup_item(workdir):
    item = meshes.Item(name="warmup", key=meshes.WARMUP_KEY, scale=1.0,
                       fields_seed=0)
    return write_meshes(workdir, "certify-dense", [item])[0]


def measure_setup(warm, deadline):
    """Fresh interpreter to ``import svstokes.cli`` plus the first report
    on the warm-up mesh, timed from outside, several times.  Returns
    (seconds, host-speed loop seconds) per sample."""
    code = ("import sys, svstokes.cli; "
            "sys.exit(svstokes.cli.main(sys.argv[1:]))")
    samples = []
    for _ in range(SETUP_REPEATS):
        loop_s = statistics.median(hostspeed.loop_seconds()
                                   for _ in range(SETUP_LOOPS))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code] + warm["argv"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append((time.perf_counter() - start, loop_s))
        if proc.returncode != 0:
            raise HarnessError(f"warm-up report failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
    return samples


def run_worker(plan, workdir, deadline):
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), plan_path, result_path],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload, seed, trace):
    if not os.path.isfile(os.path.join(SRC, "svstokes", "cli.py")):
        raise HarnessError(f"no svstokes sources under {SRC}")
    workdir = os.path.join(OUT, f"{workload}-s{seed}-t{int(trace)}")
    os.makedirs(workdir, exist_ok=True)
    return workdir


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {REFERENCE}: {exc}") from exc


def judge_records(workload, records, reference, items_by_name):
    """Attach (failed, wrong, reason) to every record."""
    for rec in records:
        item = items_by_name[rec["item"]]
        want = reference.get(workload, {}).get(item["key"])
        if want is None:
            raise HarnessError(f"reference.json has no entry for {workload}/{item['key']}")
        rec["failed"], rec["wrong"], rec["reason"] = oracle.judge(
            workload, rec["outcome"], want, item["scale"] != 1.0)
    return records


def run_workload(spec, workload, seed, seconds, trace):
    """One workload in its own worker process; returns the result dict."""
    deadline = time.monotonic() + TIME_MARGIN_S + TIME_PER_SECOND * seconds
    reference = load_reference()
    workdir = prepare(workload, seed, trace)
    items = write_meshes(workdir, workload, meshes.plan(workload, seed))
    warm = warmup_item(workdir)
    # Set-up is sampled on both sides of the worker, so one slow stretch
    # of a shared host does not decide the median.
    setup = measure_setup(warm, deadline)
    raw = run_worker({"workload": workload, "src": SRC, "items": items,
                      "warmup": [warm], "seconds": seconds, "trace": trace,
                      "threads_vars": THREADS_VARS,
                      "spans_path": os.path.join(workdir, "spans.csv.gz")},
                     workdir, deadline)
    setup += measure_setup(warm, deadline)
    records = judge_records(workload, raw["records"], reference,
                            {it["name"]: it for it in items})
    n_ok = sum(not r["failed"] for r in records)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "env": raw["env"], "passes": raw["passes"],
        "items_per_pass": len(items),
        "attempted": len(records), "failed": len(records) - n_ok,
        "wrong_certificates": sum(r["wrong"] for r in records),
        "failures": dict(Counter(f"{r['item']}: {r['reason']} {r['stderr']}".strip()
                                 for r in records if r["failed"])),
        "setup_samples_s": [wall for wall, _ in setup],
        "item_samples_s": [r["seconds"] for r in records],
    }
    if trace:
        result["metrics"] = {m["name"]: raw["per_layer"][m["name"]]
                             for m in spec["per_layer"]}
        result["spans"] = raw["spans"]
        result["trace_inert"] = all(raw["inert"])
    else:
        # Timings at nominal host speed (hostspeed.py), with the
        # wall-clock figures beside them.
        loops = [r["loop_s"] for r in records]
        setup_s = hostspeed.scale(result["setup_samples_s"],
                                  [loop for _, loop in setup], window=0)
        item_s = hostspeed.scale(result["item_samples_s"], loops)
        ok = [t for t, r in zip(item_s, records) if not r["failed"]]
        ok_wall = [r["seconds"] for r in records if not r["failed"]]
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "items_per_s": n_ok / sum(item_s),
            "item_s.p50": statistics.median(ok or item_s),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        result["item_s.p90"] = (statistics.quantiles(ok, n=10)[-1]
                                if len(ok) >= P90_MIN_ITEMS else None)
        result["wall_clock"] = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "items_per_s": n_ok / sum(result["item_samples_s"]),
            "item_s.p50": statistics.median(ok_wall or result["item_samples_s"]),
        }
        result["host_speed"] = hostspeed.NOMINAL_LOOP_S / statistics.median(loops)
        result["loop_samples_s"] = loops
    with open(os.path.join(OUT, f"result-{workload}-s{seed}-t{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result, unit):
    n_ok = result["attempted"] - result["failed"]
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['trace'] else 'untraced'}  "
          f"{result['passes']} passes x {result['items_per_pass']} items")
    print(f"   env: BLAS threads {env['blas_threads']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['numpy_blas']['name']} "
          f"{env['numpy_blas']['version']}, nproc {env['nproc']}, "
          f"python {env['python']}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(result['setup_samples_s'])}"
        elif name.startswith("item"):
            note = f"n={n_ok} completed correctly"
        print(f"   {name:44s} {value:14.6g} {unit[name]:6s} {note}")
    if not result["trace"]:
        p90 = result["item_s.p90"]
        print(f"   {'item_s.p90':44s} " + (f"{p90:14.6g} s" if p90 is not None else
              f"{'n/a':>14s}        needs >= {P90_MIN_ITEMS} items, n={n_ok}"))
        print(f"   timings above are at nominal host speed; this host ran at "
              f"{result['host_speed']:.3g} x nominal, and the wall clock read:")
        for name, value in result["wall_clock"].items():
            print(f"   {name + ' (wall clock)':44s} {value:14.6g} {unit[name]:6s}")
    else:
        print(f"   spans recorded: {result['spans']}; traced outcomes equal "
              f"untraced: {result['trace_inert']}")
    print(f"   {'fail_ratio':44s} {result['failed'] / result['attempted']:14.6g} "
          f"       {result['failed']}/{result['attempted']} items, "
          f"{result['wrong_certificates']} wrong certificates")
    for reason, count in sorted(result["failures"].items()):
        print(f"     failed x{count}: {reason[:160]}")


def write_reference(workloads):
    """Record every pool mesh's outcome with the current program."""
    reference = {}
    for workload in workloads:
        workdir = prepare(workload, "ref", False)
        items = [meshes.Item(name=key, key=key, scale=1.0, fields_seed=0)
                 for key in meshes.pool_keys(workload)]
        plan_items = write_meshes(workdir, workload, items)
        raw = run_worker({"workload": workload, "src": SRC, "items": plan_items,
                          "warmup": [], "seconds": 0, "trace": False,
                          "threads_vars": THREADS_VARS, "spans_path": ""},
                         workdir, time.monotonic() + 3600)
        reference[workload] = {rec["item"]: rec["outcome"] for rec in raw["records"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    try:
        spec = load_spec()
        workloads = list(meshes.WORKLOADS)
        unit = units(spec)
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", choices=workloads + ["all"], default="all")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--write-reference", action="store_true")
        args = parser.parse_args(argv)
        # The host-speed loop also runs in this process, before each
        # set-up sample, and must use the worker's BLAS thread count.
        os.environ.update(BLAS_ENV)
        if args.write_reference:
            write_reference(workloads)
            return 0
        for workload in workloads if args.workload == "all" else [args.workload]:
            result = run_workload(spec, workload, args.seed, args.seconds,
                                  bool(args.trace))
            print_result(result, unit)
            correct = (result["wrong_certificates"] == 0
                       and result.get("trace_inert", True))
            print(json.dumps({"correct": correct,
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": {name: {"value": value, "unit": unit[name]}
                                          for name, value in result["metrics"].items()}}),
                  flush=True)
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: harness error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
