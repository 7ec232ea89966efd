"""What the benchmark checks in each item's output, and against what.

``outcome`` reduces one item's output to the quantities the theory fixes:
the exit code and the integer verdicts, plus ``beta``.  ``judge`` compares
an outcome with the reference outcome of the unscaled mesh.  ``gap`` is
never compared: it is a ratio of noise-level singular values and moves
with the BLAS thread count.
"""

from __future__ import annotations

import json

BETA_RTOL = 1e-6

# Integers each kind of item must reproduce exactly.
CHECKED = {
    "certify-dense": ("K", "rank", "nullity", "sigma", "verdict",
                      "identity_ok"),
    "screen-topology": ("T", "E", "V", "sigma", "sigma_i", "sigma_b",
                        "verdict"),
    "verify-fields": ("overall", "vertices", "vertices_failed"),
}


def outcome(workload, exit_code, out_path):
    """The checked quantities of one finished item."""
    result = {"exit": exit_code}
    if exit_code != 0:
        return result
    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        if workload == "verify-fields":
            lines = text.splitlines()
            vertex_lines = [ln for ln in lines if ln.startswith("vertex")]
            result.update(
                overall=lines[-1] if lines else None,
                vertices=len(vertex_lines),
                vertices_failed=sum("FAIL" in ln for ln in vertex_lines))
            return result
        report = json.loads(text)
        summary = report["vertices"]["summary"]
        result.update(sigma=summary["sigma"], verdict=report["trees"]["verdict"])
        if workload == "screen-topology":
            result.update(sigma_i=summary["sigma_i"], sigma_b=summary["sigma_b"],
                          **{k: report["mesh"][k] for k in ("T", "E", "V")})
        else:
            div = report["divergence"]
            result.update(K=div["K"], rank=div["rank"], nullity=div["nullity"],
                          beta=div["beta"],
                          identity_ok=report["spline"]["identity_ok"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result["unreadable"] = f"{type(exc).__name__}: {exc}"
    return result


def judge(workload, got, want, scaled):
    """(failed, wrong_certificate, reason) for one item.

    An item fails when anything differs from the reference.  It is a wrong
    certificate when the program exited 0 yet reported something else:
    an error exit is a failed operation, a wrong report with exit 0 is a
    wrong answer.  Similarity copies are held to the integers of their
    unscaled original; ``beta`` is not similarity invariant in the full H1
    norm, so it is only compared on unscaled meshes.
    """
    if got["exit"] != want["exit"]:
        return True, False, f"exit {got['exit']} != {want['exit']}"
    if "unreadable" in got:
        return True, True, f"unreadable output: {got['unreadable']}"
    for key in CHECKED[workload]:
        if key in want and got.get(key) != want[key]:
            return True, True, f"{key} {got.get(key)!r} != {want[key]!r}"
    if not scaled and "beta" in want:
        beta, ref = got["beta"], want["beta"]
        if abs(beta - ref) > BETA_RTOL * abs(ref):
            return True, True, f"beta {beta!r} != {ref!r}"
    return False, False, ""
