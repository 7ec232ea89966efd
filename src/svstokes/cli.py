"""Command-line front door.

Subcommands: gen, analyze, verify-fields, infsup, spline-dim.

Exit codes: 0 = analysis completed (findings, including K >= 1, live in
the JSON report), 2 = input error, 3 = numerical indeterminacy (no clean
singular-value gap), 4 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, solver
from .classify import Tolerances, classify_mesh
from .fields import (FieldError, boundary_interpolant, local_interpolant,
                     verify_field)
from .mesh import (MeshError, MeshFormatError, PRESETS, Triangulation,
                   build_topology, dump_mesh, generate, load_mesh)
from .trees import build_tree_cover, check_hypotheses, tree_stats

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4

# CLI-friendly aliases for the generator presets.
PRESET_ALIASES = {
    "crossed": "crossed",
    "type1": "type1_diagonal",
    "type1_diagonal": "type1_diagonal",
    "three_lines": "three_lines",
    "three-lines": "three_lines",
    "ngon": "ngon_patch",
    "ngon_patch": "ngon_patch",
    "perturbed_grid": "perturbed_grid",
    "perturbed-grid": "perturbed_grid",
}

# Fixed SVG palette: vertex classes by fill color, spurious-mode triangle
# signs by hue (positive red, negative blue).
CLASS_COLORS = {
    "SingularLI": "#7b2d8b",
    "OddLI": "#2d8b57",
    "EvenLI": "#2d578b",
    "NotLI": "#c0392b",
    "BoundaryNonSingular": "#888888",
}


class _InputError(Exception):
    pass


def _load(path: str) -> Triangulation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_mesh(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (MeshFormatError, MeshError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _tolerances(args) -> Tolerances:
    return Tolerances(singular=args.tol_singular, rank=args.tol_rank,
                      accept=args.tol_accept)


def _write_out(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# Every float in a JSON output is rounded to this many significant digits.
# The last 2-3 of the 17 digits of a dense LAPACK result (beta above all)
# depend on the BLAS kernel and thread count: beta spreads by about 2e-12
# relative at T=128, well inside the 5e-11 half-step of ten digits.
FLOAT_DIGITS = 10


def _rounded(obj):
    """obj as plain JSON values, each float rounded to FLOAT_DIGITS
    significant digits (json.dumps writes floats itself, never through
    a ``default=`` hook, so the rounding has to happen beforehand)."""
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _rounded(obj.tolist())
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.{FLOAT_DIGITS}g}")
    raise TypeError(f"not JSON serializable: {type(obj)}")


def to_json(obj) -> str:
    """The one serialization of every JSON output: sorted keys, two-space
    indent, floats to FLOAT_DIGITS significant digits."""
    return json.dumps(_rounded(obj), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# analysis pipeline

def analyze_mesh(mesh: Triangulation, tol: Tolerances,
                 skip_solver: bool = False) -> tuple[dict, list]:
    """Full classify -> trees -> solver pipeline: the JSON-ready report
    and the spurious modes (raw pressure coefficient vectors)."""
    topology = build_topology(mesh)
    reports, summary, _ = classify_mesh(topology, tol)
    cover = build_tree_cover(topology, reports, tol)
    verdict, narrative = check_hypotheses(topology, reports, cover)

    report = {
        "mesh": {
            "T": topology.T, "E": topology.E, "E0": topology.E0,
            "V": topology.V, "V0": topology.V0,
            "euler_ok": bool(topology.euler_ok),
        },
        "vertices": {
            "summary": summary,
            "reports": [dataclasses.asdict(r) for r in reports],
        },
        "trees": {
            "verdict": verdict,
            "narrative": narrative,
            "complete": cover.complete,
            "rho_bar": cover.rho_bar,
            "upsilon_bar": cover.upsilon_bar,
            "uncovered": sorted(cover.uncovered),
            "trees": [
                {"root": t.root, "vertices": sorted(t.vertices),
                 **tree_stats(t)}
                for t in cover.trees
            ],
        },
        "divergence": {"skipped": True},
        "spline": {"skipped": True},
        "meta": {
            "version": __version__,
            "tolerances": dataclasses.asdict(tol),
        },
    }
    if skip_solver:
        return report, []

    cert = solver.certify(topology, reports)
    rank = solver.divergence_rank(cert, topology, summary["sigma"], tol)
    beta, _ = solver.infsup_constant(cert)
    modes = solver.spurious_modes(cert, rank)
    dims = solver.strang_dimensions(topology, summary["sigma"],
                                    summary["sigma_i"], summary["sigma_b"],
                                    rank.K)
    nullity = solver.nullity_crosscheck(rank, topology, summary["sigma"])
    report["divergence"] = {
        "skipped": False,
        "velocity_dofs": cert.shape[1],
        "pressure_dofs": 6 * topology.T,
        "rank": rank.rank,
        "nullity": rank.nullity,
        "expected_dim": rank.expected_dim,
        "K": rank.K,
        "gap": rank.gap if np.isfinite(rank.gap) else None,
        "beta": beta,
        "spurious_mode_count": len(modes),
        "spurious_checkerboard": [
            bool(solver.checkerboard_signature(topology, m)) for m in modes
        ],
        "nullity_crosscheck": nullity,
    }
    report["spline"] = {"skipped": False, **dataclasses.asdict(dims)}
    return report, modes


def render_svg(mesh: Triangulation, report: dict, modes,
               width: int = 640) -> str:
    """Mesh rendering with vertex-class markers and, when present, the
    first spurious pressure mode as signed triangle fills."""
    pts = mesh.vertices
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-30)
    pad = 0.06 * span
    scale = width / (span + 2 * pad)

    def xy(p):
        return ((p[0] - lo[0] + pad) * scale,
                (span + 2 * pad - (p[1] - lo[1] + pad)) * scale)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{width}" viewBox="0 0 {width} {width}">']
    if modes:
        mode = modes[0]
        mscale = max(float(np.abs(mode).max()), 1e-30)
        for t, tri in enumerate(mesh.triangles):
            vals = mode[6 * t:6 * t + 3]
            mean = float(vals.mean())
            hue = "#d94141" if mean >= 0 else "#4169d9"
            opacity = min(abs(mean) / mscale, 1.0) * 0.6
            corners = " ".join(f"{x:.2f},{y:.2f}"
                               for x, y in (xy(pts[v]) for v in tri))
            lines.append(f'<polygon points="{corners}" fill="{hue}" '
                         f'fill-opacity="{opacity:.3f}" stroke="none"/>')
    drawn = set()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key in drawn:
                continue
            drawn.add(key)
            (x1, y1), (x2, y2) = xy(pts[a]), xy(pts[b])
            lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                         f'y2="{y2:.2f}" stroke="#333" stroke-width="1"/>')
    for r in report["vertices"]["reports"]:
        x, y = xy(pts[r["vertex"]])
        color = CLASS_COLORS.get(r["status"], "#000")
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="{color}"><title>v{r["vertex"]}: '
                     f'{r["status"]}</title></circle>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# field verification suites

def _suite_fields(patch, targets, topology, report, dco):
    """(field, expected vertex divergences) for each row of a target block
    (S, N), or None for a row whose construction raises FieldError."""
    try:
        if report.boundary:
            results = boundary_interpolant(patch, targets, topology, report)
            fields = [res.field for res in results]
            sides = [res.side_effects for res in results]
        else:
            fields = local_interpolant(patch, targets, topology, report, dco)
            sides = [{}] * len(fields)
    except FieldError:
        if len(targets) == 1:
            return [None]
        # find the failing rows one by one
        return [out for row in targets
                for out in _suite_fields(patch, row[None], topology, report,
                                         dco)]
    keys = [(t, patch.z) for t in patch.tris]
    out = []
    for field, side, target in zip(fields, sides, targets.tolist()):
        divs = dict(zip(keys, target))
        divs.update(side)
        out.append((field, divs))
    return out


# Fields per verify_field call.  A call holds its fields, their expected
# values and its check arrays at once, about 1.4 KB per support triangle:
# every benchmark mesh (at most 98 fields) takes one call, and crossed(32)
# at two samples (4226 fields) nine, where a single call would add half
# the run's peak RSS.
FIELD_BATCH = 512


def run_field_suites(mesh: Triangulation, tol: Tolerances, samples: int,
                     seed: int) -> tuple[list, bool]:
    """Random-target interpolation property suite; deterministic per seed.

    Each vertex's targets are drawn as one (samples, N) block, the same
    stream as one draw per sample, and interpolated by one call; the
    fields are checked by stacked ``verify_field`` calls of up to
    FIELD_BATCH fields."""
    topology = build_topology(mesh)
    reports, _, dcoefficients = classify_mesh(topology, tol)
    rng = np.random.default_rng(seed)
    verified = []                  # reports of the verified vertices
    n_fail = []                    # failed samples of each verified vertex
    pending = []                   # (verified index, field, vertex_divs)

    def verify_pending():
        check = verify_field([f for _, f, _ in pending],
                             vertex_divs=[d for _, _, d in pending],
                             mean_zero=True)
        for i in check.failed_fields():
            n_fail[pending[i][0]] += 1
        pending.clear()

    for r in reports:
        patch = topology.patches[r.vertex]
        targets = rng.standard_normal((max(samples, 0), patch.N))
        if r.singular and patch.N > 1:
            signs = (-1.0) ** np.arange(patch.N)
            targets -= signs * (targets @ signs)[:, None] / patch.N
        elif r.singular:
            targets[:] = 0.0
        if not (r.boundary or r.local_interpolating):
            continue
        built = _suite_fields(patch, targets, topology, r,
                              dcoefficients[r.vertex])
        n_fail.append(built.count(None))
        pending += [(len(verified), f, d) for f, d in filter(None, built)]
        verified.append(r)
        if len(pending) >= FIELD_BATCH:
            verify_pending()
    if pending:
        verify_pending()
    lines = [f"vertex {r.vertex:4d} [{r.status}]: "
             f"{'pass' if not n else f'FAIL ({n}/{samples})'}"
             for r, n in zip(verified, n_fail)]
    return lines, not any(n_fail)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    preset = PRESET_ALIASES.get(args.preset)
    if preset is None:
        raise _InputError(f"unknown preset {args.preset!r}; choose from "
                          f"{sorted(PRESET_ALIASES)}")
    params = {}
    if args.n is not None:
        params["n" if preset != "ngon_patch" else "N"] = args.n
    if args.N is not None:
        params["N"] = args.N
    if args.L is not None:
        params["L" if preset != "ngon_patch" else "radius"] = args.L
    if args.seed is not None and preset == "perturbed_grid":
        params["seed"] = args.seed
    try:
        mesh = generate(preset, **params)
    except (MeshError, TypeError, ValueError) as exc:
        raise _InputError(f"generator error: {exc}") from exc
    _write_out(dump_mesh(mesh), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    report, modes = analyze_mesh(mesh, tol, skip_solver=args.skip_solver)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(mesh, report, modes))
    _write_out(to_json(report), args.out)
    return EXIT_OK


def cmd_verify_fields(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    lines, ok = run_field_suites(mesh, tol, args.samples, args.seed)
    _write_out("\n".join(lines + [f"overall: {'pass' if ok else 'FAIL'}"])
               + "\n", args.out)
    return EXIT_OK if ok else EXIT_INTERNAL


def cmd_infsup(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    topology = build_topology(mesh)
    reports, _, _ = classify_mesh(topology, tol)
    cert = solver.certify(topology, reports, seminorm=args.seminorm)
    beta, eigenvalues = solver.infsup_constant(cert)
    out = {
        "beta": beta,
        "smallest_eigenvalues": eigenvalues[:8],
        "constrained_dim": cert.shape[0],
        "velocity_dofs": cert.shape[1],
        "seminorm": bool(args.seminorm),
        "meta": {"version": __version__,
                 "tolerances": dataclasses.asdict(tol)},
    }
    _write_out(to_json(out), args.out)
    return EXIT_OK


def cmd_spline_dim(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    topology = build_topology(mesh)
    reports, summary, _ = classify_mesh(topology, tol)
    cert = solver.certify(topology, reports)
    rank = solver.divergence_rank(cert, topology, summary["sigma"], tol)
    dims = solver.strang_dimensions(topology, summary["sigma"],
                                    summary["sigma_i"], summary["sigma_b"],
                                    rank.K)
    nullity = solver.nullity_crosscheck(rank, topology, summary["sigma"])
    out = {
        "spline": dataclasses.asdict(dims),
        "K": rank.K,
        "rank": rank.rank,
        "nullity_crosscheck": nullity,
        "sigma": summary["sigma"],
        "sigma_i": summary["sigma_i"],
        "sigma_b": summary["sigma_b"],
        "meta": {"version": __version__,
                 "tolerances": dataclasses.asdict(tol)},
    }
    _write_out(to_json(out), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svstokes",
        description="Divergence-stability toolkit for cubic Lagrange "
                    "Stokes elements on 2D triangulations.")
    parser.add_argument("--version", action="version",
                        version=f"svstokes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mesh_required=True):
        if mesh_required:
            p.add_argument("--mesh", required=True, help="mesh file path")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--tol-singular", type=float,
                       default=Tolerances.singular,
                       help="straight-line detector threshold")
        p.add_argument("--tol-rank", type=float, default=Tolerances.rank,
                       help="relative singular-value threshold")
        p.add_argument("--tol-accept", type=float, default=Tolerances.accept,
                       help="edge-weight acceptability threshold")

    g = sub.add_parser("gen", help="generate a preset mesh")
    g.add_argument("preset", help=f"one of {sorted(PRESET_ALIASES)}")
    g.add_argument("--n", type=int, help="grid subdivisions")
    g.add_argument("--N", type=int, help="polygon valence (ngon)")
    g.add_argument("--L", type=float, help="length scale")
    g.add_argument("--seed", type=int, help="perturbation seed")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="full analysis pipeline")
    common(a)
    a.add_argument("--svg", help="write an SVG overlay rendering")
    a.add_argument("--skip-solver", action="store_true",
                   help="topology/classification/trees only")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify-fields",
                       help="run the field-lemma property suites")
    common(v)
    v.add_argument("--samples", type=int, default=10,
                   help="random targets per vertex")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify_fields)

    i = sub.add_parser("infsup", help="inf-sup constant only")
    common(i)
    i.add_argument("--seminorm", action="store_true",
                   help="use the H1 seminorm in the denominator")
    i.set_defaults(func=cmd_infsup)

    s = sub.add_parser("spline-dim", help="spline dimension identities")
    common(s)
    s.set_defaults(func=cmd_spline_dim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MeshError as exc:
        # mesh defects discovered mid-pipeline are still input problems
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except solver.RankIndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (solver.SolverError, FieldError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
