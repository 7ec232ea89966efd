"""Command-line front door.

Subcommands: gen, analyze, verify-fields, infsup, spline-dim.

Exit codes: 0 = analysis completed (findings, including K >= 1, live in
the JSON report), 2 = input error, 3 = numerical indeterminacy (no clean
singular-value gap), 4 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import RankIndeterminateError, SolverError, __version__, poly
from .classify import Tolerances, classify_mesh
from .fields import (FieldBlock, FieldError, FieldRangeError, VertexValues,
                     boundary_interpolant, local_interpolant, verify_field)
from .mesh import (MeshError, MeshFormatError, PRESETS, Triangulation,
                   build_topology, dump_mesh, generate, load_mesh)
from .trees import (VERDICT_COVER, VERDICT_THM_ALL_LOCAL, build_tree_cover,
                    check_hypotheses)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4

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
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (MeshFormatError, MeshError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _tolerances(args) -> Tolerances:
    """The --tol-* flags, each finite and > 0.  Theta(z) and every
    singular value of W are at most 1, so --tol-singular and --tol-rank
    must also lie below 1."""
    tol = Tolerances(singular=args.tol_singular, rank=args.tol_rank,
                     accept=args.tol_accept)
    for name, cap in (("singular", 1.0), ("rank", 1.0), ("accept", np.inf)):
        value = getattr(tol, name)
        if not 0.0 < value < cap:       # a NaN fails every comparison
            bound = "in (0, 1)" if cap == 1.0 else "finite and > 0"
            raise _InputError(f"--tol-{name} must be {bound}, got {value}")
    return tol


def _write_out(text: str, out_path: str | None):
    """Write text to out_path, or to stdout (newline-terminated) without
    one.  A write that fails (a missing directory, a full device, a
    closed pipe) is an _InputError."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            _discard_stdout()
        raise _InputError(f"cannot write {out_path or 'stdout'}: "
                          f"{exc.strerror or exc}") from exc


def _discard_stdout():
    """Point the file descriptor of stdout at the null device: Python
    flushes stdout again at exit, and on a closed pipe that flush would
    fail too (a warning and exit 120).  A stdout without a descriptor (a
    test's capture) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# Every float in a JSON output is rounded to this many significant digits.
# The last 2-3 of the 17 digits of a dense LAPACK result (beta above all)
# depend on the BLAS kernel and thread count: beta spreads by about 2e-12
# relative at T=128, well inside the 5e-11 half-step of ten digits.
FLOAT_DIGITS = 10


def _float_text(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or the text of a float, a
    bool, None or an int, unrounded, in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        text = _float_text(key)
    elif key is None:
        text = "null"
    elif isinstance(key, bool):
        text = "true" if key else "false"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return f'"{text}"'


def _write(obj, indent: str, out: list):
    """Append the JSON text of obj to out, its nested lines indented by
    ``indent`` (a newline and two spaces a level): dicts with their keys
    sorted, tuples and arrays as lists, numpy scalars as Python ones and
    each float rounded to FLOAT_DIGITS significant digits as it is
    written; TypeError on any other value.  The scalars, most of a
    report, are tested first."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(f"{obj:.{FLOAT_DIGITS}g}")))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        opening = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(opening)
            out.append(_key_text(key))
            out.append(": ")
            _write(value, inner, out)
            opening = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        opening = "[" + inner
        for value in obj:
            out.append(opening)
            _write(value, inner, out)
            opening = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), indent, out)
    else:
        raise TypeError(f"not JSON serializable: {type(obj)}")


def to_json(obj) -> str:
    """The one serialization of every JSON output, in one pass: sorted
    keys, two-space indent, floats to FLOAT_DIGITS significant digits;
    the text of json.dumps(indent=2, sort_keys=True) on obj with its
    floats rounded beforehand."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


# ---------------------------------------------------------------------------
# analysis pipeline

def analyze_mesh(mesh: Triangulation, tol: Tolerances,
                 skip_solver: bool = False) -> tuple[dict, list]:
    """Full classify -> trees -> solver pipeline: the JSON-ready report
    and the spurious modes (raw pressure coefficient vectors).  The
    solver needs a disk: a mesh that fails Euler's relation is a
    MeshError before the solver is imported."""
    topology = build_topology(mesh)
    reports, summary = classify_mesh(topology, tol)
    cover = build_tree_cover(topology, reports, tol)
    verdict, narrative = check_hypotheses(topology, reports, cover)
    stats = vars(cover.stats)

    report = {
        "mesh": {
            "T": topology.T, "E": topology.E, "E0": topology.E0,
            "V": topology.V, "V0": topology.V0,
            "euler_ok": bool(topology.euler_ok),
        },
        "vertices": {
            "summary": summary,
            # (their fields are plain scalars: no deep copy needed)
            "reports": [dict(vars(r)) for r in reports],
        },
        "trees": {
            "verdict": verdict,
            "narrative": narrative,
            "complete": cover.complete,
            "rho_bar": cover.rho_bar,
            "upsilon_bar": cover.upsilon_bar,
            "uncovered": cover.uncovered,
            # one entry per tree: its root and its TreeStats fields
            "trees": [dict(zip(["root", *stats], row))
                      for row in zip(cover.roots, *stats.values())],
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
    if not topology.euler_ok:
        raise MeshError("mesh is not simply connected (Euler check failed)")
    from . import solver

    cert = solver.certify(topology, reports)
    rank = solver.divergence_rank(cert, tol)
    _check_verdict(verdict, reports, rank)
    modes = solver.spurious_modes(cert, rank)
    dims = solver.strang_dimensions(topology, summary["sigma_i"],
                                    summary["sigma_b"], rank.K)
    report["divergence"] = {
        "skipped": False,
        "velocity_dofs": cert.shape[1],
        "pressure_dofs": 6 * topology.T,
        "rank": rank.rank,
        "nullity": rank.nullity,
        "expected_dim": cert.shape[0],
        "K": rank.K,
        "gap": rank.gap if np.isfinite(rank.gap) else None,
        "beta": solver.infsup_constant(rank),
        "spurious_mode_count": len(modes),
        "spurious_checkerboard": [
            bool(solver.checkerboard_signature(topology, m)) for m in modes
        ],
    }
    report["spline"] = {"skipped": False, **dataclasses.asdict(dims)}
    return report, modes


def _check_verdict(verdict: str, reports, rank):
    """The paper's theorem: a mesh whose interior vertices are all local
    interpolating, or covered by disjoint transfer trees, has K = 0.  A
    K > 0 under either verdict means that one fact, whether some vertex is
    singular, was decided on two scales: Theta(z) above tol.singular, and
    the singular value it gives below tol.rank times the rank scale.
    That is indeterminate (RankIndeterminateError), never a report."""
    if rank.K == 0 or verdict not in (VERDICT_THM_ALL_LOCAL, VERDICT_COVER):
        return
    nearest = min((r for r in reports if not (r.boundary or r.singular)),
                  key=lambda r: r.theta_value, default=None)
    where = (f"non-singular interior vertex {nearest.vertex} has the "
             f"smallest Theta(z) = {nearest.theta_value:.3e}"
             if nearest else "no interior vertex is non-singular")
    rejected = (f"a singular value {rank.rejected:.3e}"
                if rank.rejected > rank.floor else
                f"singular values at or below the roundoff floor "
                f"{rank.floor:.3e}")
    raise RankIndeterminateError(
        f"verdict {verdict} implies K = 0, but the rank rejects {rejected} "
        f"(K = {rank.K}); {where}")


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
    # each edge once, in the order of its first side and oriented as it
    t, s = np.divmod(np.sort(mesh.sides.first), 3)
    for a, b in mesh.triangles[t[:, None], (s[:, None] + [0, 1]) % 3]:
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

def _suite_fields(topology, group, targets):
    """Yield (vertices, FieldBlock, expected VertexValues) for the fields
    of a group of verified vertices that share (boundary, status), with
    their targets (G, S, N) padded with zeros to the largest valence N:
    field f of a block is the field of a target at vertex ``vertices[f]``,
    and the expected values are the targets at the centers and the spills
    of the fields.  The group is one interpolant call; when it raises
    FieldError, each vertex is retried alone, then each of its rows, and
    the rows that raise again are left out; a FieldRangeError propagates."""
    fans = topology.fans
    vertex = np.array([r.vertex for r in group])
    n = fans.degree[vertex]
    try:
        block, side = (boundary_interpolant if group[0].boundary
                       else local_interpolant)(group, targets, topology)
    except FieldRangeError:
        raise
    except FieldError:
        G, S = targets.shape[:2]
        if G > 1:
            parts = [([r], targets[g:g + 1, :, :n[g]])
                     for g, r in enumerate(group)]
        elif S > 1:
            parts = [(group, targets[:, s:s + 1]) for s in range(S)]
        else:
            return
        for sub, part in parts:
            yield from _suite_fields(topology, sub, part)
        return
    S = targets.shape[1]
    # the center values, in (vertex, sample, triangle) order
    g, s, j = np.nonzero(np.arange(targets.shape[2])
                         < np.repeat(n[:, None, None], S, axis=1))
    center = (g * S + s, fans.tri[fans.offset[vertex[g]] + j], vertex[g],
              targets[g, s, j])
    yield np.repeat(vertex, S), block, VertexValues(
        *map(np.concatenate, zip(center, side)))


# Fields per interpolant call of the suites: the vertices of a class are
# interpolated in calls of at most this many fields, whose edge tables and
# contractions take memory in proportion.  Every benchmark mesh (at most
# 20 vertices of one class, 40 fields at two samples) takes one call per
# class.  At crossed(32) with two samples (classes of up to 1024
# vertices) the peak RSS is 74.6 MiB at 64, 76.0 at 128, 79.9 at 256 and
# 124 MiB with one call per class, at the same speed.
SUITE_FIELDS = 64


def _suite_targets(topology, reports, samples, rng):
    """Every vertex's random targets (samples, N) from one draw of the
    stream, in one array that holds vertex z's block at samples *
    fans.offset[z]: the numbers of one draw per vertex and sample, in
    vertex order.  A singular vertex's block is projected onto the
    alternating-sum constraint, by one stacked product per valence, whose
    (samples, N) products keep the bits of a product per vertex."""
    fans = topology.fans
    draws = rng.standard_normal(samples * fans.offset[-1])
    singular = np.array([r.singular for r in reports], dtype=bool)
    for N in np.unique(fans.degree[singular]).tolist():
        zs = np.flatnonzero(singular & (fans.degree == N))
        at = samples * fans.offset[zs][:, None] + np.arange(samples * N)
        a = draws[at].reshape(len(zs), samples, N)
        if N > 1:
            signs = (-1.0) ** np.arange(N)
            a -= signs * (a @ signs)[..., None] / N
        else:
            a[:] = 0.0
        draws[at] = a.reshape(len(zs), -1)
    return draws


def _padded_targets(topology, draws, vertices, samples):
    """The targets (G, samples, N) of a group of vertices out of
    ``_suite_targets``' draws, zero past each vertex's valence up to the
    largest, N."""
    fans = topology.fans
    n = fans.degree[vertices][:, None, None]
    j = np.arange(n.max())
    at = (samples * fans.offset[vertices][:, None, None]
          + n * np.arange(samples)[:, None] + j)
    return np.where(j < n, draws[np.minimum(at, len(draws) - 1)], 0.0)


def run_field_suites(mesh: Triangulation, tol: Tolerances, samples: int,
                     seed: int) -> tuple[list, bool]:
    """Random-target interpolation property suite; deterministic per seed.

    Every vertex's targets are drawn in one call, vertex by vertex as
    (samples, N) blocks: the stream of one draw per vertex and sample.
    The verified vertices of one class, (boundary, status), are sorted by
    valence and interpolated together, in calls of at most SUITE_FIELDS
    fields whose targets are padded to the call's largest valence; the
    fields go straight into the suite's arrays, and one ``verify_field``
    call checks the fields of every vertex."""
    if samples < 1:
        raise _InputError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise _InputError(f"--seed must be a non-negative integer, got {seed}")
    topology = build_topology(mesh)
    reports, _ = classify_mesh(topology, tol)
    draws = _suite_targets(topology, reports, samples,
                           np.random.default_rng(seed))
    # reports of the verified vertices, and by class
    verified = [r for r in reports if r.boundary or r.local_interpolating]
    classes = {}
    for r in verified:
        classes.setdefault((r.boundary, r.status), []).append(r)

    # A field has at most N rows, and leaves at most 2 N side effects.
    rows = samples * sum(r.valence for r in verified)
    sides = 2 * samples * sum(r.valence for r in verified
                              if r.boundary and not r.singular)
    block = (np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64),
             np.empty((rows, 2, len(poly.MONO3))))
    expected = VertexValues(*(np.empty(rows + sides, dtype=np.int64)
                              for _ in range(3)), np.empty(rows + sides))
    owner = np.empty(samples * len(verified), dtype=np.int64)
    F = R = E = 0                  # fields, rows and expected values so far
    step = max(SUITE_FIELDS // samples, 1)
    chunks = [group[lo:lo + step] for group in
              (sorted(group, key=lambda r: r.valence)
               for group in classes.values())
              for lo in range(0, len(group), step)]
    for chunk in chunks:
        targets = _padded_targets(
            topology, draws, np.array([r.vertex for r in chunk]), samples)
        for vertices, part, values in _suite_fields(topology, chunk, targets):
            owner[F:F + part.F] = vertices
            for out, a in zip(block, (part.field + F, part.tri, part.coeffs)):
                out[R:R + len(a)] = a
            for out, a in zip(expected, (values.field + F, *values[1:])):
                out[E:E + len(a)] = a
            F, R, E = F + part.F, R + len(part.field), E + len(values.field)
    suite = FieldBlock(topology, F, *(a[:R] for a in block))
    for a in (suite.field, suite.tri, suite.coeffs):
        a.setflags(write=False)
    failed = owner[verify_field(suite, VertexValues(
        *(a[:E] for a in expected))).failed_fields()]
    n_fail = (samples - np.bincount(owner[:F], minlength=topology.V)
              + np.bincount(failed, minlength=topology.V))
    n_fail = n_fail[np.array([r.vertex for r in verified], dtype=np.int64)]
    lines = [f"vertex {r.vertex:4d} [{r.status}]: "
             f"{'pass' if not n else f'FAIL ({n}/{samples})'}"
             for r, n in zip(verified, n_fail.tolist())]
    return lines, not n_fail.any()


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    # each flag under its own name: one the preset does not take is a
    # generator error
    params = {name: value for name, value in
              (("n", args.n), ("N", args.N), ("L", args.L),
               ("seed", args.seed)) if value is not None}
    try:
        mesh = generate(args.preset, **params)
    except (MeshError, TypeError, ValueError) as exc:
        raise _InputError(f"generator error: {exc}") from exc
    _write_out(dump_mesh(mesh), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    report, modes = analyze_mesh(mesh, tol, skip_solver=args.skip_solver)
    # the report first: a bad --svg path must not lose it
    _write_out(to_json(report), args.out)
    if args.svg:
        _write_out(render_svg(mesh, report, modes), args.svg)
    return EXIT_OK


def cmd_verify_fields(args) -> int:
    mesh = _load(args.mesh)
    tol = _tolerances(args)
    lines, ok = run_field_suites(mesh, tol, args.samples, args.seed)
    _write_out("\n".join(lines + [f"overall: {'pass' if ok else 'FAIL'}"])
               + "\n", args.out)
    return EXIT_OK if ok else EXIT_INTERNAL


def cmd_infsup(args) -> int:
    # analyze's rank in the chosen norm, without the trees and the checks
    from . import solver

    mesh = _load(args.mesh)
    tol = _tolerances(args)
    topology = build_topology(mesh)
    reports, _ = classify_mesh(topology, tol)
    cert = solver.certify(topology, reports, seminorm=args.seminorm)
    rank = solver.divergence_rank(cert, tol)
    out = {
        "beta": solver.infsup_constant(rank),
        "K": rank.K,
        "constrained_dim": cert.shape[0],
        "velocity_dofs": cert.shape[1],
        "seminorm": bool(args.seminorm),
        "meta": {"version": __version__,
                 "tolerances": dataclasses.asdict(tol)},
    }
    _write_out(to_json(out), args.out)
    return EXIT_OK


def cmd_spline_dim(args) -> int:
    report, _ = analyze_mesh(_load(args.mesh), _tolerances(args))
    div, summary = report["divergence"], report["vertices"]["summary"]
    spline = {k: v for k, v in report["spline"].items() if k != "skipped"}
    out = {"spline": spline, "meta": report["meta"],
           **{k: div[k] for k in ("K", "rank")},
           **{k: summary[k] for k in ("sigma", "sigma_i", "sigma_b")}}
    _write_out(to_json(out), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls (each gets a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="svstokes",
        description="Divergence-stability toolkit for cubic Lagrange "
                    "Stokes elements on 2D triangulations.")
    parser.add_argument("--version", action="version",
                        version=f"svstokes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    g.add_argument("preset", help=f"one of {sorted(PRESETS)}")
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
    except RankIndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (SolverError, FieldError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
