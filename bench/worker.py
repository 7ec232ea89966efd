"""Runs one workload's items in this fresh process and writes the raw
results as JSON.  Started by ``run.py`` with the BLAS thread count already
pinned in the environment, so it takes effect before numpy is imported.

Usage: python3 worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

import hostspeed
import oracle
import tracer as tracing


def _import_program(src):
    sys.path.insert(0, src)
    import svstokes.cli
    where = os.path.realpath(svstokes.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"svstokes imported from {where}, not from {src}")
    return svstokes


def environment(threads_vars):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ.get(var) for var in threads_vars},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "scipy_blas": {k: scipy_blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_item(main, workload, item):
    """One closed-loop step: the program's own entry point, timed."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = main(item["argv"])
        except Exception as exc:          # a traceback is a failed item
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    elapsed = time.perf_counter() - start
    got = oracle.outcome(workload, code, item["out"])
    message = err.getvalue().strip().splitlines()
    return {"item": item["name"], "seconds": elapsed, "outcome": got,
            "stderr": message[-1] if message else ""}


def run_passes(cli, workload, items, seconds=None, passes=None):
    """Whole passes over the items: as many as end closest to ``seconds``
    of wall time (or exactly ``passes``).  The host-speed loop runs before
    every item.  Returns (records, passes)."""
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        for item in items:
            loop_s = hostspeed.loop_seconds()
            records.append(dict(run_item(cli.main, workload, item), loop_s=loop_s))
        done += 1
        wall = time.perf_counter() - start
        if passes is not None:
            if done >= passes:
                return records, done
        # Another pass of the mean length would end further from
        # ``seconds`` than stopping now.
        elif wall + wall / done / 2 >= seconds:
            return records, done


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    svstokes = _import_program(plan["src"])
    cli = svstokes.cli
    workload, items = plan["workload"], plan["items"]
    env = environment(plan["threads_vars"])

    # Lazy set-up (BLAS thread pool, first-call imports) is paid once here;
    # setup_s measures it separately.
    for warm in plan["warmup"]:
        run_item(cli.main, workload, warm)

    result = {"env": env}
    if not plan["trace"]:
        records, passes = run_passes(cli, workload, items,
                                     seconds=plan["seconds"])
        result.update(records=records, passes=passes,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        plain, passes = run_passes(cli, workload, items,
                                   seconds=plan["seconds"] / 2)
        tracer = tracing.Tracer()
        tracer.install(svstokes)
        try:
            traced = []
            for p in range(passes):
                for i, item in enumerate(items):
                    tracer.item = p * len(items) + i
                    traced.append(run_item(cli.main, workload, item))
        finally:
            tracer.uninstall()
        probe = tracing.AllocProbe()
        probe.install(svstokes)
        try:
            probed, _ = run_passes(cli, workload, items, passes=1)
        finally:
            probe.uninstall()
        per_layer = tracer.metrics(
            len(traced), passes * sum(it["V"] for it in items),
            passes * sum(it["T"] for it in items))
        per_layer["solver.peak_alloc_mb"] = probe.peak / 2 ** 20
        per_layer["trace.overhead_ratio"] = (sum(r["seconds"] for r in traced)
                                             / sum(r["seconds"] for r in plain))
        tracer.write(plan["spans_path"])
        result.update(records=plain + traced + probed,
                      passes=2 * passes + 1, per_layer=per_layer,
                      spans=len(tracer.spans),
                      inert=[a["outcome"] == b["outcome"]
                             for a, b in zip(plain, traced)])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
