"""Command-line interface: subcommands, JSON schema, exit codes,
determinism, and the SVG rendering."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (BENCH_MESHES, GOLDEN_MESHES, MIXED, PINCHED,
                      bench_mesh, bench_pool, compute_dcoefficients,
                      decision, named_mesh, to_json_oracle)
from svstokes import __version__, classify, cli, fields, mesh, solver
from svstokes.classify import Tolerances, classify_mesh
from svstokes.cli import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, analyze_mesh,
                          main, run_field_suites, to_json)
from svstokes.mesh import (Triangulation, build_topology, crossed, dump_mesh,
                           load_mesh, ngon_patch, perturbed_grid,
                           type1_diagonal)


def _child_env(**extra):
    """The environment of a fresh interpreter that imports this svstokes."""
    import svstokes
    src = os.path.dirname(os.path.dirname(os.path.abspath(svstokes.__file__)))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _gen(tmp_path, preset, *extra):
    path = tmp_path / f"{preset}.mesh"
    assert main(["gen", preset, "--out", str(path), *extra]) == EXIT_OK
    return path


def _write_scaled(path, unit, scale):
    """The mesh file of ``unit`` with every coordinate multiplied by
    ``scale``, which ``gen --L`` may round differently or reject."""
    lines = [f"vertices {unit.num_vertices}"]
    lines += [f"{x * scale!r} {y * scale!r}"
              for x, y in unit.vertices.tolist()]
    path.write_text("\n".join(lines) + "\n"
                    + dump_mesh(unit).split("\n", unit.num_vertices + 1)[-1])
    return path


def test_gen_crossed_counts(tmp_path):
    path = _gen(tmp_path, "crossed", "--n", "2")
    mesh = load_mesh(path.read_text())
    assert len(mesh.triangles) == 16
    assert len(mesh.vertices) == 13          # (n+1)^2 + n^2


def test_gen_unknown_preset_is_input_error(tmp_path, capsys):
    assert main(["gen", "nope", "--out", str(tmp_path / "x")]) == EXIT_INPUT
    assert "unknown preset" in capsys.readouterr().err


def test_gen_hyphenated_aliases(tmp_path):
    """``mesh.PRESETS`` is the one table of the spellings ``gen`` accepts,
    and ``--L`` reaches every preset as ``L``, the ngon's spokes
    included."""
    a = _gen(tmp_path, "perturbed-grid", "--n", "2", "--seed", "3")
    b = _gen(tmp_path, "type1", "--n", "2")
    assert load_mesh(a.read_text()).triangles.shape[0] == 8
    assert load_mesh(b.read_text()).triangles.shape[0] == 8
    assert sorted(mesh.PRESETS) == [
        "crossed", "ngon", "ngon_patch", "perturbed-grid", "perturbed_grid",
        "three-lines", "three_lines", "type1", "type1_diagonal"]
    for preset in mesh.PRESETS:
        size = {"N": 5} if preset.startswith("ngon") else {"n": 2}
        (flag, value), = size.items()
        path = _gen(tmp_path, preset, f"--{flag}", str(value), "--L", "2.5")
        assert path.read_text() == dump_mesh(
            mesh.generate(preset, L=2.5, **size))


@pytest.mark.parametrize("args,name", [
    (["ngon", "--n", "3", "--N", "4"], "'n'"),
    (["crossed", "--n", "2", "--seed", "3"], "'seed'"),
    (["crossed", "--n", "2", "--N", "4"], "'N'"),
], ids=["ngon-n", "crossed-seed", "crossed-N"])
def test_gen_flag_the_preset_does_not_take_is_input_error(tmp_path, capsys,
                                                          args, name):
    """Each flag reaches the generator under its own name: ``--n`` is not
    the valence of ``ngon``, and ``crossed`` takes no seed."""
    out = tmp_path / "x.mesh"
    assert main(["gen", *args, "--out", str(out)]) == EXIT_INPUT
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_analyze_schema_and_exit_zero_on_deficient_mesh(tmp_path):
    # K >= 1 is a finding, not a failure: exit code stays 0
    mesh_path = tmp_path / "t1.mesh"
    mesh_path.write_text(dump_mesh(type1_diagonal(2)))
    out = tmp_path / "report.json"
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert set(report) >= {"mesh", "vertices", "trees", "divergence",
                           "spline", "meta"}
    assert report["divergence"]["K"] >= 1
    assert report["mesh"]["T"] == 8
    assert "tolerances" in report["meta"]
    assert "_modes" not in report


def test_analyze_skip_solver(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    out = tmp_path / "r.json"
    assert main(["analyze", "--mesh", str(mesh_path), "--out", str(out),
                 "--skip-solver"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["divergence"] == {"skipped": True}
    assert report["vertices"] and report["trees"]


def test_analyze_missing_mesh_is_input_error(tmp_path, capsys):
    assert main(["analyze", "--mesh", str(tmp_path / "missing.mesh")]) \
        == EXIT_INPUT
    capsys.readouterr()


def test_analyze_malformed_mesh_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("vertices 2\n0 0\n1 0\ntriangles 1\n0 1 5\n")
    assert main(["analyze", "--mesh", str(bad)]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("text,message", [
    ("vertices -1\n", "line 1: vertex count is negative"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles -2\n",
     "line 5: triangle count is negative"),
    ("vertices 99999999999999\n0 0\n",
     "line 1: unexpected end of file, expected vertex coordinates")],
    ids=["negative-vertices", "negative-triangles", "huge-vertices"])
def test_analyze_bad_header_count_is_input_error(tmp_path, capsys, text,
                                                 message):
    """A header count that is negative, or larger than the lines left, is
    rejected before anything is allocated for it."""
    bad = tmp_path / "count.mesh"
    bad.write_text(text)
    assert main(["analyze", "--mesh", str(bad)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["vertices 0\ntriangles 0\n",
                                  "vertices 3\n0 0\n1 0\n0 1\ntriangles 0\n"],
                         ids=["empty", "no-triangles"])
@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
def test_mesh_without_triangles_is_input_error(tmp_path, capsys, text,
                                               command):
    """A mesh with no triangles is rejected when it is read: no report,
    no vacuous field-suite pass, no traceback."""
    bad = tmp_path / "empty.mesh"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--mesh", str(bad), "--out", str(out)]) == \
        EXIT_INPUT
    assert "mesh has no triangles" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data,message", [
    (b"\xff\xfe", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    (b"vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999999\n",
     "{path}: line 6: vertex index out of range in triangle 0")],
    ids=["not-utf-8", "index-beyond-int64"])
@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
def test_unreadable_mesh_bytes_are_input_error(tmp_path, capsys, data,
                                               message, command):
    """A mesh file that is not UTF-8, or names a vertex index beyond
    int64, is exit 2 in every mesh command, with its message and no
    traceback."""
    bad = tmp_path / "bad.mesh"
    bad.write_bytes(data)
    out = tmp_path / "out"
    assert main([command, "--mesh", str(bad), "--out", str(out)]) == \
        EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=bad)), err
    assert "Traceback" not in err and not out.exists()


def test_analyze_degenerate_mesh_is_input_error(tmp_path, capsys):
    bad = tmp_path / "deg.mesh"
    bad.write_text("vertices 3\n0 0\n1 0\n2 0\ntriangles 1\n0 1 2\n")
    assert main(["analyze", "--mesh", str(bad)]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["nan", "inf", "1e400"])
def test_analyze_non_finite_coordinate_is_input_error(tmp_path, capsys,
                                                      spelling):
    bad = tmp_path / "nonfinite.mesh"
    bad.write_text(f"vertices 3\n0 0\n1 {spelling}\n0 1\n"
                   "triangles 1\n0 1 2\n")
    assert main(["analyze", "--mesh", str(bad)]) == EXIT_INPUT
    assert "line 3: coordinate is not a finite number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("preset,extra,scale", [
    ("crossed", ["--n", "2"], "1e-7"),
    ("perturbed-grid", ["--n", "3", "--seed", "1"], "3e7")])
def test_analyze_scaled_mesh_keeps_the_unscaled_integers(tmp_path, preset,
                                                         extra, scale):
    reports = []
    for L in ("1", scale):
        mesh_path = _gen(tmp_path, preset, *extra, "--L", L)
        out = tmp_path / f"r{L}.json"
        assert main(["analyze", "--mesh", str(mesh_path),
                     "--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text()))
    keys = ("K", "rank", "nullity", "spurious_mode_count")
    assert [{k: r["divergence"][k] for k in keys} for r in reports] == \
        [{k: reports[0]["divergence"][k] for k in keys}] * 2
    assert reports[1]["vertices"]["summary"] == \
        reports[0]["vertices"]["summary"]


@pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX", "Sandybridge",
                                    "Prescott"])
def test_golden_reports_across_blas_kernels(tmp_path, kernel):
    """The golden bytes do not depend on the OpenBLAS kernel, which
    OPENBLAS_CORETYPE picks when numpy loads (a fresh interpreter runs the
    four reports).  Where the BLAS is not a DYNAMIC_ARCH OpenBLAS the
    variable is ignored and this repeats the golden test."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    for name in GOLDEN:
        _gen(tmp_path, GOLDEN[name][0], *GOLDEN[name][1]).rename(
            tmp_path / f"{name}.mesh")
    code = ("import sys; from svstokes.cli import main; sys.exit(max("
            "main(['analyze', '--mesh', f'{n}.mesh', '--out', n]) "
            "for n in sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *GOLDEN],
                          cwd=tmp_path, env=_child_env(OPENBLAS_CORETYPE=kernel),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    for name in GOLDEN:
        assert (tmp_path / name).read_bytes() == \
            (root / "docs" / "golden" / name).read_bytes(), name


def test_analyze_svg_draws_the_spurious_mode(tmp_path):
    mesh_path = _gen(tmp_path, "type1", "--n", "2")
    svg = tmp_path / "overlay.svg"
    assert main(["analyze", "--mesh", str(mesh_path), "--out",
                 str(tmp_path / "r.json"), "--svg", str(svg)]) == EXIT_OK
    assert svg.read_text().count("<polygon") == 8


def test_analyze_svg_is_pure_presentation(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    svg = tmp_path / "overlay.svg"
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(out1)]) == EXIT_OK
    assert main(["analyze", "--mesh", str(mesh_path), "--out", str(out2),
                 "--svg", str(svg)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    text = svg.read_text()
    assert text.startswith("<svg") and "circle" in text


def test_out_in_a_missing_directory_is_exit_2(tmp_path, capsys):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    out = tmp_path / "missing" / "report.json"
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_INPUT
    assert f"cannot write {out}" in capsys.readouterr().err


def test_svg_in_a_missing_directory_is_exit_2_and_keeps_the_report(
        tmp_path, capsys):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    out, plain = tmp_path / "report.json", tmp_path / "plain.json"
    svg = tmp_path / "missing" / "overlay.svg"
    assert main(["analyze", "--mesh", str(mesh_path), "--out", str(out),
                 "--svg", str(svg)]) == EXIT_INPUT
    assert f"cannot write {svg}" in capsys.readouterr().err
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(plain)]) == EXIT_OK
    assert out.read_text() == plain.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_on_a_full_device_is_exit_2(tmp_path, capsys):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", "/dev/full"]) == EXIT_INPUT
    assert "cannot write /dev/full" in capsys.readouterr().err


def test_closed_stdout_is_exit_2(tmp_path):
    """As in ``analyze ... | head -c 10``: the reader is gone before the
    report is written.  The exit flush of stdout must not fail again."""
    mesh_path = _gen(tmp_path, "crossed", "--n", "2")
    proc = subprocess.Popen(
        [sys.executable, "-m", "svstokes.cli", "analyze", "--mesh",
         str(mesh_path)], env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == EXIT_INPUT, err
    assert err == "error: cannot write stdout: Broken pipe\n"


def _set_loop_render_svg(mesh, report, modes, width=640):
    """The rendering that drew each edge the first time a triangle side
    reached it, found by a set of sorted vertex pairs: the oracle of
    ``render_svg``."""
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
        color = cli.CLASS_COLORS.get(r["status"], "#000")
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="{color}"><title>v{r["vertex"]}: '
                     f'{r["status"]}</title></circle>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_svg_edges_from_the_side_table_match_the_set_loop(name):
    """render_svg draws the edges from ``mesh.sides``: the same bytes as
    the set loop, the spurious-mode fills of type1-3 and three-lines-2
    included."""
    mesh = GOLDEN_MESHES[name]()
    report, modes = analyze_mesh(mesh, Tolerances())
    assert bool(modes) == (name in ("type1-3", "three-lines-2"))
    svg = cli.render_svg(mesh, report, modes)
    assert svg == _set_loop_render_svg(mesh, report, modes)
    assert svg.count("<line") == len(mesh.sides.edges)


@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
def test_pinched_vertex_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "pinched.mesh"
    bad.write_text(PINCHED)
    assert main([command, "--mesh", str(bad)]) == EXIT_INPUT
    assert "non-manifold (pinched) patch at vertex 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
def test_overlapping_triangles_are_input_error(tmp_path, capsys, command):
    bad = tmp_path / "overlap.mesh"
    bad.write_text("vertices 4\n0 0\n1 0\n0 1\n0.3 0.3\n"
                   "triangles 2\n0 1 2\n0 1 3\n")
    assert main([command, "--mesh", str(bad)]) == EXIT_INPUT
    assert "triangles 0 and 1 overlap across edge (0, 1)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
@pytest.mark.parametrize("case", ["L1e-200", "L1e-300", "coincident"])
def test_area_underflow_is_input_error(tmp_path, capsys, command, case):
    """Meshes whose triangle areas round to zero exit 2 from every
    command.  Coincident vertices name the first degenerate triangle;
    crossed-3 scaled by 1e-200 or 1e-300 is not degenerate, and names its
    length scale, whose square underflows."""
    bad = tmp_path / f"{case}.mesh"
    if case == "coincident":
        bad.write_text("vertices 3\n1 1\n1 1\n1 1\ntriangles 1\n0 1 2\n")
        message = "triangle 0 is degenerate"
    else:
        # crossed-3 scaled by 1e-200 or 1e-300 (``gen`` rejects it too)
        _write_scaled(bad, crossed(3), float(case[1:]))
        message = (f"length scale 4.24e{case[3:]} is out of range: the "
                   f"squared diameter underflows")
        assert main(["gen", "crossed", "--n", "3", "--L", case[1:], "--out",
                     str(tmp_path / "gen.mesh")]) == EXIT_INPUT
        assert message in capsys.readouterr().err
    assert main([command, "--mesh", str(bad)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


SCALED_UNITS = {"crossed-3": lambda: crossed(3),
                "type1-3": lambda: type1_diagonal(3),
                "perturbed-3-s1": lambda: perturbed_grid(3, seed=1)}


# every warning is an error here: inverse Lanczos overflows at the large
# scales, silenced where it arises
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SCALED_UNITS))
def test_analyze_across_length_scales(tmp_path, name):
    """The mesh scaled by 10^e keeps the unit mesh's K, rank and nullity
    (exit 0) for e = -150 ... 60: the mean pressure constraint row is
    built from the areas scaled exactly by a power of two, so its norm
    neither under- nor overflows (exit 4 from e = -90 down and e = 80 up
    before).  At e = 80, 100 and 150 inverse Lanczos overflows in the
    full-H1 norm: exit 3, never exit 4.  infsup reads the same rank, so
    it gives analyze's exit code, K and beta at every e."""
    unit = SCALED_UNITS[name]()
    path, out = tmp_path / "scaled.mesh", tmp_path / "report.json"
    infsup_out = tmp_path / "infsup.json"

    def analyze(scale):
        _write_scaled(path, unit, scale)
        code = main(["analyze", "--mesh", str(path), "--out", str(out)])
        div = json.loads(out.read_text())["divergence"] if code == EXIT_OK \
            else {}
        assert main(["infsup", "--mesh", str(path), "--out",
                     str(infsup_out)]) == code, scale
        if code == EXIT_OK:
            report = json.loads(infsup_out.read_text())
            assert (report["K"], report["beta"]) == (div["K"], div["beta"])
        return code, [div.get(k) for k in ("K", "rank", "nullity")]

    want = analyze(1.0)
    assert want[0] == EXIT_OK
    for e in range(-150, 61, 10):
        assert analyze(10.0 ** e) == want, e
    for e in (80, 100, 150):
        assert analyze(10.0 ** e)[0] != EXIT_INTERNAL, e


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SCALED_UNITS))
def test_infsup_seminorm_across_length_scales(tmp_path, name):
    """The seminorm beta does not depend on the length scale: infsup
    --seminorm on the mesh scaled by 10^e exits 0 with the unit mesh's K
    and 10-digit beta for e = -150 ... 150."""
    unit = SCALED_UNITS[name]()
    path, out = tmp_path / "scaled.mesh", tmp_path / "infsup.json"

    def infsup(scale):
        _write_scaled(path, unit, scale)
        code = main(["infsup", "--seminorm", "--mesh", str(path), "--out",
                     str(out)])
        report = json.loads(out.read_text()) if code == EXIT_OK else {}
        return code, report.get("K"), report.get("beta")

    want = infsup(1.0)
    assert want[0] == EXIT_OK
    for e in range(-150, 151, 10):
        assert infsup(10.0 ** e) == want, e


# every warning is an error here: the overflows at this length scale are
# silenced where they arise
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "infsup", "verify-fields"])
@pytest.mark.parametrize("preset", [("type1", "--n", "3"),
                                    ("perturbed-grid", "--n", "3", "--seed",
                                     "1")])
def test_gram_overflow_near_the_range_end_is_one_error_line(tmp_path, capsys,
                                                            preset, command):
    """type1-3 and perturbed-3-s1 at length scale 1e-154: the hat-gradient
    Gram products overflow, and so do the D sums of vertices whose D no
    decision reads.  The bubble's Gram entry K_99 is NaN, so analyze and
    infsup exit 4 with one line on stderr and no numpy RuntimeWarning
    (ROADMAP item 8 owns that exit code).  verify-fields builds no Gram
    matrix: on perturbed-3-s1 the seed of its even vertex 10 overflows in
    12 D_0, which is exit 4 with one line too, and type1-3, which has no
    even vertex, passes."""
    path = _gen(tmp_path, *preset, "--L", "1e-154")
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([command, "--mesh", str(path), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if command != "verify-fields":
        message = ("velocity Gram matrix is not SPD: a cubic bubble has a "
                   "Gram entry <= 0")
    elif preset[0] == "perturbed-grid":
        message = "vertex 10: the even seed overflows at this length scale"
    else:
        assert (code, err) == (EXIT_OK, [])
        assert out.read_text().endswith("overall: pass\n")
        return
    assert code == EXIT_INTERNAL
    assert err == [f"internal invariant violation: {message}"]
    assert not out.exists()


# every warning is an error here: the field suites must not overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset", [("crossed", "--n", "3"),
                                    ("type1", "--n", "3"),
                                    ("perturbed-grid", "--n", "3", "--seed",
                                     "1")], ids=["crossed-3", "type1-3",
                                                 "perturbed-3-s1"])
def test_field_suites_across_length_scales(tmp_path, capsys, preset):
    """verify-fields passes at every --L 10^e, e = -150 ... 80: exit 0,
    "overall: pass" and nothing on stderr.  A boundary field's spill is
    dropped only below 1e-12 times its largest coefficient times the reach
    of its row's hat gradients, a bound that scales as a divergence does;
    a bound of 1e-12 times the coefficient alone dropped real spills from
    10^10 or 10^12 up (exit 4).  No even seed overflows on this grid:
    the nearest, perturbed-3-s1 at 1e-154, is pinned by
    test_gram_overflow_near_the_range_end_is_one_error_line."""
    out = tmp_path / "fields.txt"
    for e in range(-150, 81, 10):
        path = _gen(tmp_path, *preset, "--L", f"1e{e}")
        capsys.readouterr()
        code = main(["verify-fields", "--mesh", str(path), "--samples", "2",
                     "--seed", "0", "--out", str(out)])
        assert (code, capsys.readouterr().err) == (EXIT_OK, ""), e
        assert out.read_text().endswith("overall: pass\n"), e


# the five kinds of malformed line, each as (block, text, message): a
# vertex line, a triangle line, or a line after the triangle block
MALFORMED = {
    "field count": [("vertices", "0 0 0", "expected 'x y'"),
                    ("triangles", "0 1", "expected 'i j k'")],
    "bad number": [("vertices", "0 zz", "bad coordinate"),
                   ("triangles", "0 zz 2", "bad vertex index")],
    "non-finite coordinate": [("vertices", "nan 0",
                               "coordinate is not a finite number")],
    "index out of range": [("triangles", "0 1 99",
                            "vertex index out of range in triangle 0")],
    "trailing content": [("after", "0 0", "trailing content")],
}


def _malformed_pairs():
    """Every placement of two malformed lines of different kinds, the
    first on an earlier line: in the vertex block, the triangle block or
    after it, and within one block on its first and last line."""
    order = ["vertices", "triangles", "after"]
    for first, second in ((a, b) for a in MALFORMED for b in MALFORMED
                          if a != b):
        for one in MALFORMED[first]:
            for two in MALFORMED[second]:
                if order.index(one[0]) <= order.index(two[0]) \
                        and one[0] != "after":
                    yield pytest.param(one, two, id=f"{first}-{second}-"
                                       f"{one[0]}-{two[0]}")


@pytest.mark.parametrize("one,two", _malformed_pairs())
def test_parser_names_the_earlier_of_two_malformed_lines(tmp_path, capsys,
                                                         one, two):
    """A file with two malformed lines of different kinds is an input
    error (exit 2) naming the earlier line, with its own message, whatever
    the kind of the later one."""
    blocks = {"vertices": ["0 0", "1 0", "1 1", "0 1"],
              "triangles": ["0 1 2", "0 2 3"], "after": []}
    # the first malformed line opens its block, the second closes its own
    blocks[two[0]][-1:] = [two[1]] if two[0] != "after" else ["", two[1]]
    blocks[one[0]][0] = one[1]
    lines = (["# two malformed lines", "vertices 4", *blocks["vertices"],
              "triangles 2", *blocks["triangles"], *blocks["after"]])
    path = tmp_path / "bad.mesh"
    path.write_text("\n".join(lines) + "\n")
    # the first line of the vertex or the triangle block
    line = 3 if one[0] == "vertices" else 8
    message = f"line {line}: {one[2]}"
    with pytest.raises(mesh.MeshFormatError) as exc:
        load_mesh(path.read_text())
    assert str(exc.value) == message
    assert main(["analyze", "--mesh", str(path), "--out",
                 str(tmp_path / "out")]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every warning is an error here: the squared edge lengths over- or
# underflow, silenced where they arise
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L", ["1e-160", "1e-155", "1e155", "1e160"])
def test_a_non_finite_vertex_decision_is_input_error(tmp_path, capsys, L):
    """crossed-3 at a length scale whose squared edge lengths over- or
    underflow exits 2 from every command.  Where they underflow, gen
    writes it, and every command names the first even-valence grid
    crossing, whose decision |D_i| h_z^s is NaN; it read NotLI with a NaN
    decision value before.  Where the squared diameter overflows, gen and
    every command reject the mesh at load, naming its length scale; that
    decision was NaN too before."""
    if float(L) < 1.0:
        path = _gen(tmp_path, "crossed", "--n", "3", "--L", L)
        message = "vertex 5: the even-valence decision |D_i| h_z^s is nan"
    else:
        # crossed-3 scaled by L, written out (``gen`` rejects it too): its
        # diameter is 3 sqrt(2) L
        path = _write_scaled(tmp_path / "crossed.mesh", crossed(3), float(L))
        message = (f"length scale 4.24e+{L[2:]} is out of range: the squared "
                   f"diameter or a triangle area overflows")
        assert main(["gen", "crossed", "--n", "3", "--L", L, "--out",
                     str(tmp_path / "gen.mesh")]) == EXIT_INPUT
        assert message in capsys.readouterr().err
    out = tmp_path / "out"
    for command in (["analyze", "--skip-solver"], ["analyze"],
                    ["verify-fields"], ["infsup"], ["spline-dim"]):
        capsys.readouterr()
        assert main([*command, "--mesh", str(path), "--out", str(out)]) == \
            EXIT_INPUT, command
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("L", ["1e-150", "1e150"])
def test_crossed_3_near_the_ends_of_the_range_is_even(tmp_path, L):
    """At 1e-150 and 1e150 every decision of crossed-3 is finite, and its
    four grid crossings are EvenLI."""
    path = _gen(tmp_path, "crossed", "--n", "3", "--L", L)
    out = tmp_path / "report.json"
    assert main(["analyze", "--skip-solver", "--mesh", str(path),
                 "--out", str(out)]) == EXIT_OK
    counts = json.loads(out.read_text())["vertices"]["summary"]["counts"]
    assert counts == {"BoundaryNonSingular": 12, "EvenLI": 4,
                      "SingularLI": 9}


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` through every svstokes module
    that binds it; returns the list that collects one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for short in ("mesh", "poly", "geometry", "classify", "fields", "trees",
                  "solver", "cli"):
        mod = importlib.import_module(f"svstokes.{short}")
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda m: analyze_mesh(m, Tolerances()),
    lambda m: run_field_suites(m, Tolerances(), 2, 7)],
    ids=["analyze", "verify-fields"])
@pytest.mark.parametrize("make", [
    lambda: type1_diagonal(3), lambda: crossed(2),
    lambda: perturbed_grid(5, seed=3), lambda: bench_mesh("perturbed-5-p0")],
    ids=["type1-3", "crossed-2", "perturbed-5-s3", "perturbed-5-p0"])
def test_each_vertex_patched_and_classified_once(monkeypatch, run, make):
    """One run builds the fan table, d-coefficients included, in one
    ``enumerate_patch`` call and decides every vertex class in one
    ``classify_mesh`` call; the interpolants read both."""
    m = make()
    patched = _count_calls(monkeypatch, mesh, "enumerate_patch")
    classified = _count_calls(monkeypatch, classify, "classify_mesh")
    run(m)
    assert len(patched) == 1
    assert len(classified) == 1


@pytest.mark.parametrize("run", [
    lambda m: analyze_mesh(m, Tolerances()),
    lambda m: run_field_suites(m, Tolerances(), 2, 7)],
    ids=["analyze", "verify-fields"])
@pytest.mark.parametrize("make", [
    lambda: crossed(2), lambda: perturbed_grid(5, seed=3),
    lambda: bench_mesh("perturbed-5-p0")],
    ids=["crossed-2", "perturbed-5-s3", "perturbed-5-p0"])
def test_dcoefficients_computed_once_per_even_interior_vertex(
        monkeypatch, run, make):
    """A run computes the d-coefficients of each non-singular even-valence
    interior vertex once, as fan-table columns in its one
    ``enumerate_patch`` call, bit for bit those of the per-vertex oracle,
    and the vertex's report decides on them."""
    m = make()
    topo = build_topology(m)
    fans = topo.fans
    th = classify.theta(fans)
    even = [z for z in range(len(th)) if not fans.boundary[z]
            and fans.degree[z] % 2 == 0 and th[z] > Tolerances().singular]
    reports, _ = classify_mesh(topo, Tolerances())
    patched = _count_calls(monkeypatch, mesh, "enumerate_patch")
    run(m)
    assert even
    assert len(patched) == 1
    for z in even:
        dco = compute_dcoefficients(topo, z)
        c = fans.corners(z)
        assert np.array_equal(fans.d0[c], dco.d0), z
        assert np.array_equal(fans.d[c], dco.d), z
        assert np.array_equal(fans.D[z], dco.D), z
        assert reports[z].decision_value == max(
            decision(dco, i) for i in range(3)), z


@pytest.mark.parametrize("key", bench_pool("verify-fields"))
def test_field_suite_builds_one_table_per_vertex_and_verifies_once(
        monkeypatch, key):
    """Each verified vertex builds its edge table rows once for all its
    samples, in one edge_table call per fan kind (interior or boundary)
    with its vertices sorted by valence, and one verify_field call checks
    every field of the mesh."""
    m = bench_mesh(key)
    topo = build_topology(m)
    tables = _count_calls(monkeypatch, fields, "edge_table")
    verified = _count_calls(monkeypatch, fields, "verify_field")
    lines, ok = run_field_suites(m, Tolerances(), 2, 7)
    assert ok
    vertices = [int(line.split()[1]) for line in lines]
    fans = topo.fans
    assert sorted(z for args in tables for z in args[0].tolist()) == vertices
    for args in tables:
        assert len({fans.boundary[z] for z in args[0].tolist()}) == 1
        assert np.all(np.diff(fans.degree[args[0]]) >= 0)
    assert len(tables) == len({fans.boundary[z] for z in vertices})
    assert len(verified) == 1


@pytest.mark.parametrize("key", bench_pool("verify-fields",
                                           perturbed_only=True)[:8])
def test_field_suite_makes_one_call_per_class(monkeypatch, key):
    """A perturbed 5 x 5 benchmark mesh mixes valences 2 to 8 in its
    classes, yet its suite makes at most one interpolant call per class:
    at most five, the singular, odd and even interior vertices and the
    singular and non-singular boundary ones (one per fan kind since the
    classes share their calls)."""
    assert key.startswith("perturbed-5-")
    m = bench_mesh(key)
    local = _count_calls(monkeypatch, fields, "local_interpolant")
    boundary = _count_calls(monkeypatch, fields, "boundary_interpolant")
    lines, ok = run_field_suites(m, Tolerances(), 2, 7)
    assert ok
    assert len(local) + len(boundary) <= 5
    assert any(len({r.valence for r in args[0]}) > 1
               for args in local + boundary)


# Interpolant calls of a benchmark item at two samples: one per fan kind.
# The interior vertices of type1-6 and three_lines-6 are all NotLI, so
# only their boundary call is left.
SUITE_CALLS = {"type1-6": 1, "three_lines-6": 1}


@pytest.mark.parametrize("key", bench_pool("verify-fields"))
def test_field_suite_makes_one_call_per_fan_kind(monkeypatch, key):
    """Every verified vertex of one fan kind, interior or boundary, goes
    through one interpolant call whatever its class: two calls on a
    benchmark item, one on type1-6 and three_lines-6."""
    m = bench_mesh(key)
    reports, _ = classify_mesh(build_topology(m), Tolerances())
    local = _count_calls(monkeypatch, fields, "local_interpolant")
    boundary = _count_calls(monkeypatch, fields, "boundary_interpolant")
    lines, ok = run_field_suites(m, Tolerances(), 2, 7)
    assert ok
    assert len(local) + len(boundary) == SUITE_CALLS.get(key, 2)
    for calls, kind in ((local, False), (boundary, True)):
        want = [r for r in reports
                if r.boundary == kind and (kind or r.local_interpolating)]
        assert sorted(r.vertex for args in calls for r in args[0]) \
            == [r.vertex for r in want]
        assert len(calls) == (len(want) > 0)
        for args in calls:
            assert {r.status for r in args[0]} == {r.status for r in want}


@pytest.mark.parametrize("key", ["crossed-3", "perturbed-5-p0",
                                 "perturbed-6-p3"])
@pytest.mark.parametrize("samples", [1, 3])
def test_field_suite_targets_are_the_per_vertex_draws(key, samples):
    """The suite's one draw of targets gives every vertex the numbers of
    one draw of (samples, N) per vertex, in vertex order, and a singular
    vertex's projection onto the alternating-sum constraint, bit for
    bit."""
    topo = build_topology(bench_mesh(key))
    reports, _ = classify_mesh(topo, Tolerances())
    draws = cli._suite_targets(topo, reports, samples,
                               np.random.default_rng(13))
    rng = np.random.default_rng(13)
    for r in reports:
        N = r.valence
        a = rng.standard_normal((samples, N))
        if r.singular and N > 1:
            signs = (-1.0) ** np.arange(N)
            a -= signs * (a @ signs)[:, None] / N
        elif r.singular:
            a[:] = 0.0
        got = cli._padded_targets(topo, draws, np.array([r.vertex]),
                                  samples)
        assert np.array_equal(got[0], a), r.vertex
    assert any(r.singular for r in reports)
    # a group pads each vertex with zeros to its largest valence
    group = np.array([r.vertex for r in reports])
    padded = cli._padded_targets(topo, draws, group, samples)
    for g, r in enumerate(reports):
        one = cli._padded_targets(topo, draws, group[g:g + 1], samples)
        assert np.array_equal(padded[g, :, :r.valence], one[0])
        assert not padded[g, :, r.valence:].any()


def test_field_suite_field_error_is_one_error_line(tmp_path, capsys,
                                                   monkeypatch):
    """A FieldError of an interpolant call is not retried on a smaller
    group: verify-fields makes that one call, exits 4 with one line on
    stderr and writes no report."""
    calls = []

    def raising(group, targets, topology):
        calls.append(targets.shape)
        raise fields.FieldError("row rejected")

    monkeypatch.setattr(cli, "local_interpolant", raising)
    path = tmp_path / "perturbed-5-p0.mesh"
    path.write_text(dump_mesh(bench_mesh("perturbed-5-p0")))
    out = tmp_path / "fields.txt"
    assert main(["verify-fields", "--mesh", str(path), "--samples", "2",
                 "--seed", "7", "--out", str(out)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [
        "internal invariant violation: row rejected"]
    assert not out.exists()
    assert len(calls) == 1


def test_field_suite_batches_give_the_same_report(monkeypatch):
    """The one verify_field call walks the suite's fields in passes of
    fields.VERIFY_FIELDS, whether a pass ends inside a vertex's fields
    (10 of 3 samples) or holds the whole suite; the pass size does not
    change the report."""
    m = bench_mesh("perturbed-5-p0")
    want = run_field_suites(m, Tolerances(), 3, 11)
    # 36 vertices of 3 samples: 108 fields
    for size, sizes in ((10, [10] * 10 + [8]), (1000, [108])):
        monkeypatch.setattr(fields, "VERIFY_FIELDS", size)
        verified = _count_calls(monkeypatch, fields, "verify_field")
        passes = _count_calls(monkeypatch, fields, "_verify_range")
        assert run_field_suites(m, Tolerances(), 3, 11) == want
        assert [args[0].F for args in verified] == [108]
        assert [args[2] for args in passes] == sizes


@pytest.mark.parametrize("size", [1, 7, 128])
def test_field_suite_splits_large_groups(monkeypatch, size):
    """fields.VERIFY_FIELDS bounds the suite's interpolant calls, at
    VERIFY_FIELDS // samples vertices (at least one), and the passes of
    its one verify_field call, at VERIFY_FIELDS fields.  A fan kind is cut
    after its sort by valence, so that its calls follow in valence order;
    the bound does not change the report."""
    m = bench_mesh("perturbed-5-p0")
    topo = build_topology(m)
    want = run_field_suites(m, Tolerances(), 3, 11)
    monkeypatch.setattr(fields, "VERIFY_FIELDS", size)
    tables = _count_calls(monkeypatch, fields, "edge_table")
    verified = _count_calls(monkeypatch, fields, "verify_field")
    passes = _count_calls(monkeypatch, fields, "_verify_range")
    assert run_field_suites(m, Tolerances(), 3, 11) == want
    step = max(size // 3, 1)
    # the fan kinds in the order of their first vertex
    kinds = {}
    for r in classify_mesh(topo, Tolerances())[0]:
        if r.boundary or r.local_interpolating:
            kinds[r.boundary] = kinds.get(r.boundary, 0) + 1
    assert [len(args[0]) for args in tables] == [
        min(step, n - lo) for n in kinds.values()
        for lo in range(0, n, step)]
    valences = [topo.fans.degree[args[0]].tolist() for args in tables]
    assert all(v == sorted(v) for v in valences)
    assert any(len(set(v)) > 1 for v in valences) == (size > 3)
    # 36 vertices of 3 samples: 108 fields in passes of at most size
    assert [args[0].F for args in verified] == [108]
    assert [args[2] for args in passes] == [size] * (108 // size) + (
        [108 % size] if 108 % size else [])


@pytest.mark.parametrize("samples,seed", [(0, 11), (-3, 11), (2, -1)],
                         ids=["0", "-3", "seed-1"])
def test_field_suite_rejects_samples_below_one(tmp_path, capsys, samples,
                                               seed):
    """No field would be built or checked: an input error, not a pass.
    A negative seed draws no targets either (numpy's generator refuses
    it): an input error too, naming ``--seed``."""
    message = (f"--samples must be at least 1, got {samples}" if samples < 1
               else f"--seed must be a non-negative integer, got {seed}")
    with pytest.raises(cli._InputError, match=message):
        run_field_suites(crossed(2), Tolerances(), samples, seed)
    mesh_path = _gen(tmp_path, "crossed", "--n", "3")
    out = tmp_path / "fields.txt"
    assert main(["verify-fields", "--mesh", str(mesh_path), "--samples",
                 str(samples), "--seed", str(seed), "--out", str(out)]) \
        == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "verify-fields", "infsup",
                                     "spline-dim"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("flag", ["--tol-singular", "--tol-rank",
                                  "--tol-accept"])
def test_tolerance_flags_reject_bad_values(tmp_path, capsys, flag, value,
                                           command):
    """A tolerance that is not finite and > 0 would decide nothing (a NaN
    compares false, a zero or negative bound accepts everything): an
    input error from every analysis command, naming its flag."""
    mesh_path = tmp_path / "type1-3.mesh"
    mesh_path.write_text(dump_mesh(type1_diagonal(3)))
    out = tmp_path / "out"
    assert main([command, "--mesh", str(mesh_path), flag, value,
                 "--out", str(out)]) == EXIT_INPUT
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1", "1.5"])
@pytest.mark.parametrize("flag", ["--tol-singular", "--tol-rank"])
def test_singular_and_rank_tolerances_lie_below_one(tmp_path, capsys, flag,
                                                    value):
    """Theta(z) and every singular value of W are at most 1, so a
    threshold of 1 or more marks every vertex singular or every value
    zero; an edge weight is unbounded, so --tol-accept is not capped."""
    mesh_path = _gen(tmp_path, "crossed", "--n", "2")
    assert main(["analyze", "--mesh", str(mesh_path), flag, value]) \
        == EXIT_INPUT
    assert f"error: {flag} must be in (0, 1), got {float(value)}" in \
        capsys.readouterr().err
    assert main(["analyze", "--mesh", str(mesh_path), "--skip-solver",
                 "--tol-accept", value]) == EXIT_OK


def test_main_calls_share_one_parser_and_leak_no_state(tmp_path, capsys):
    """The parser is built once per process.  Calls across subcommands and
    flags, in either order, give the outputs and exit codes of calls that
    each build a parser of their own: no parsed value carries over to the
    next call."""
    m = str(_gen(tmp_path, "crossed", "--n", "2"))
    runs = [
        ["analyze", "--mesh", m, "--skip-solver", "--tol-singular", "1e-6"],
        ["analyze", "--mesh", m],
        ["infsup", "--mesh", m, "--seminorm"],
        ["infsup", "--mesh", m],
        ["verify-fields", "--mesh", m, "--samples", "0"],
        ["verify-fields", "--mesh", m],
        ["verify-fields", "--mesh", m, "--samples", "3", "--seed", "4"],
        ["verify-fields", "--mesh", m, "--samples", "-3"],
        ["spline-dim", "--mesh", m],
        ["analyze", "--mesh", str(tmp_path / "missing.mesh")],
        ["gen", "type1", "--n", "2"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [EXIT_OK] * 4 + [
        EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK, EXIT_INPUT,
        EXIT_OK]
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in runs] == alone
    assert [run(argv) for argv in runs[::-1]] == alone[::-1]
    assert cli.build_parser.cache_info().misses == 1


def test_verify_fields_deterministic_and_passing(tmp_path):
    mesh_path = _gen(tmp_path, "perturbed-grid", "--n", "2", "--seed", "5")
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    for out in (out1, out2):
        assert main(["verify-fields", "--mesh", str(mesh_path),
                     "--samples", "3", "--seed", "42",
                     "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().strip().endswith("overall: pass")


def test_verify_fields_seed_changes_output(tmp_path):
    mesh_path = _gen(tmp_path, "perturbed-grid", "--n", "2", "--seed", "5")
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    assert main(["verify-fields", "--mesh", str(mesh_path), "--samples", "3",
                 "--seed", "1", "--out", str(out1)]) == EXIT_OK
    assert main(["verify-fields", "--mesh", str(mesh_path), "--samples", "3",
                 "--seed", "2", "--out", str(out2)]) == EXIT_OK
    # both pass, but the sampled deviations differ
    assert out1.read_text().strip().endswith("overall: pass")


def test_infsup_command(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "2")
    out = tmp_path / "infsup.json"
    assert main(["infsup", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["beta"] == pytest.approx(0.4115428141731681, rel=1e-8)
    assert report["velocity_dofs"] == 122
    assert report["seminorm"] is False


def test_infsup_reports_the_deficiency_as_exact_zeros(tmp_path):
    # type1-3 has K = 1: one eigenvalue is zero analytically and comes
    # out as roundoff whose size depends on the BLAS kernel; the rank
    # lifts its direction and counts it
    mesh_path = _gen(tmp_path, "type1", "--n", "3")
    out = tmp_path / "infsup.json"
    assert main(["infsup", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["K"] == 1
    assert report["beta"] == pytest.approx(0.09099515790841745, rel=1e-8)


@pytest.mark.parametrize("n,want", [
    (2, [0.1693674879, 0.1740513361, 0.1761727867, 0.1761727867,
         0.1821457778, 0.1843959526, 0.1843959526, 0.1875669729]),
    (4, [0.1677080169, 0.1677080169, 0.1700160417, 0.1753543979,
         0.1753562758, 0.1778097256, 0.1778097256, 0.17783584])])
def test_infsup_lists_repeated_eigenvalues(tmp_path, n, want):
    """The smallest eigenvalues of the pressure Schur complement as the
    full SVD lists them, with their repeats: crossed-2 has two double
    ones, and the smallest one of crossed-4, beta squared, is double.  A
    single-vector Krylov method finds each distinct eigenvalue once in
    exact arithmetic; the rank's inverse Lanczos still reads beta, the
    square root of the first, and K = 0."""
    mesh_path = _gen(tmp_path, "crossed", "--n", str(n))
    out = tmp_path / "infsup.json"
    assert main(["infsup", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["K"] == 0
    assert report["beta"] == pytest.approx(want[0] ** 0.5, rel=1e-9)


def test_infsup_seminorm_flag(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "1")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["infsup", "--mesh", str(mesh_path),
                 "--out", str(out1)]) == EXIT_OK
    assert main(["infsup", "--mesh", str(mesh_path), "--seminorm",
                 "--out", str(out2)]) == EXIT_OK
    b1 = json.loads(out1.read_text())
    b2 = json.loads(out2.read_text())
    assert b2["seminorm"] is True
    assert b1["beta"] != b2["beta"]


def test_infsup_seminorm_on_one_triangle(tmp_path):
    """One triangle: its bubble is the only velocity node.  The factor,
    born lifted, holds the mean pressure direction at the top of its
    spectrum, and the three singular corners cut the pressures to 2
    constrained ones: the bubble's two seminorm singular values, 0.5 and
    sqrt(0.75) (eigenvalues 0.25 and 0.75), so beta is 0.5 and K = 0."""
    path, out = tmp_path / "one.mesh", tmp_path / "infsup.json"
    path.write_text(dump_mesh(Triangulation([[0.0, 0.0], [1.0, 0.0],
                                             [0.0, 1.0]], [[0, 1, 2]])))
    assert main(["infsup", "--mesh", str(path), "--seminorm",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["K"] == 0 and report["constrained_dim"] == 2
    assert report["beta"] == 0.5 and report["velocity_dofs"] == 2


@pytest.mark.parametrize("scale", [1.0, 1e-7, 3e7])
@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES) + sorted(MIXED)
                         + bench_pool("certify-dense")
                         + bench_pool("verify-fields"))
def test_infsup_prints_the_beta_of_analyze(tmp_path, monkeypatch, name,
                                           scale):
    """infsup and analyze read beta off the same rank of the same
    certificate: the same bits, the same K and the same printed digits,
    at every length scale."""
    path = _write_scaled(tmp_path / "scaled.mesh", named_mesh(name), scale)
    read = solver.infsup_constant
    betas = []
    monkeypatch.setattr(solver, "infsup_constant",
                        lambda rank: betas.append(read(rank)) or betas[-1])
    got = []
    for command in ("analyze", "infsup"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--mesh", str(path), "--out", str(out)]) == \
            EXIT_OK
        report = json.loads(out.read_text())
        got.append({k: report.get("divergence", report)[k]
                    for k in ("K", "beta")})
    assert len(betas) == 2 and betas[0].hex() == betas[1].hex()
    assert got[0] == got[1]


def test_infsup_takes_no_svd(tmp_path, monkeypatch):
    """infsup reads beta off the rank: no full SVD of the factor."""
    def refused(*args, **kwargs):
        raise AssertionError("infsup called an SVD")

    for name in ("svd", "svdvals"):
        monkeypatch.setattr(scipy.linalg, name, refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    path = _gen(tmp_path, "type1", "--n", "3")
    for flags in ([], ["--seminorm"]):
        assert main(["infsup", "--mesh", str(path), "--out",
                     str(tmp_path / "infsup.json"), *flags]) == EXIT_OK


def test_commands_without_the_solver_do_not_import_it(tmp_path):
    """gen, verify-fields and analyze --skip-solver never call the solver,
    and leave it and scipy.linalg unimported; analyze imports both."""
    path = _gen(tmp_path, "crossed", "--n", "2")
    code = ("import sys, svstokes.cli; "
            "code = svstokes.cli.main(sys.argv[1:]); "
            "print(code, 'scipy.linalg' in sys.modules, "
            "'svstokes.solver' in sys.modules)")
    out = str(tmp_path / "out")
    for argv, imported in (
            (["gen", "crossed", "--n", "2", "--out", out], False),
            (["verify-fields", "--mesh", str(path), "--out", out], False),
            (["analyze", "--skip-solver", "--mesh", str(path), "--out", out],
             False),
            (["analyze", "--mesh", str(path), "--out", out], True)):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=_child_env(), capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["0", str(imported), str(imported)], \
            argv


def test_spline_dim_command(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "2")
    out = tmp_path / "dims.json"
    assert main(["spline-dim", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["K"] == 0
    assert report["spline"]["dim_s4"] == 31
    assert report["spline"]["identity_ok"] is True
    assert sorted(report) == ["K", "meta", "rank", "sigma", "sigma_b",
                              "sigma_i", "spline"]


def _composed_spline_dim(m, tol):
    """The spline-dim report composed stage by stage, topology -> classify
    -> certify -> rank -> dimensions: the oracle of the command that reads
    the analyze report."""
    topology = build_topology(m)
    reports, summary = classify_mesh(topology, tol)
    cert = solver.certify(topology, reports)
    rank = solver.divergence_rank(cert, tol)
    dims = solver.strang_dimensions(topology, summary["sigma_i"],
                                    summary["sigma_b"], rank.K)
    return to_json({
        "spline": dataclasses.asdict(dims), "K": rank.K, "rank": rank.rank,
        **{k: summary[k] for k in ("sigma", "sigma_i", "sigma_b")},
        "meta": {"version": __version__,
                 "tolerances": dataclasses.asdict(tol)}})


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES) + ["ngon-5"])
def test_spline_dim_reads_the_analyze_report(tmp_path, monkeypatch, name):
    """spline-dim makes one analyze_mesh call and writes the bytes of the
    stage-by-stage composition."""
    m = ngon_patch(5) if name == "ngon-5" else GOLDEN_MESHES[name]()
    path, out = tmp_path / "m.mesh", tmp_path / "dims.json"
    path.write_text(dump_mesh(m))
    calls = _count_calls(monkeypatch, cli, "analyze_mesh")
    assert main(["spline-dim", "--mesh", str(path), "--out", str(out)]) \
        == EXIT_OK
    assert len(calls) == 1
    assert out.read_text() == _composed_spline_dim(m, Tolerances())


def _annulus():
    """crossed-3 with its centre square removed: a mesh of an annulus,
    T = 32, whose hole leaves the centre vertex unused."""
    m = crossed(3)
    tris = m.triangles[np.abs(m.vertices[m.triangles].mean(axis=1)
                              - 1.5).max(axis=1) > 0.5]
    used = np.unique(tris)
    new = np.zeros(len(m.vertices), dtype=np.int64)
    new[used] = np.arange(len(used))
    return Triangulation(m.vertices[used], new[tris])


@pytest.mark.parametrize("command", ["analyze", "spline-dim"])
def test_a_mesh_with_a_hole_is_exit_2_before_the_certificate(
        tmp_path, monkeypatch, capsys, command):
    """Euler's relation is checked before the dense solve: the annulus
    exits 2 without a call of solver.certify and writes nothing."""
    path, out = tmp_path / "annulus.mesh", tmp_path / "out.json"
    path.write_text(dump_mesh(_annulus()))
    calls = _count_calls(monkeypatch, solver, "certify")
    assert main([command, "--mesh", str(path), "--out", str(out)]) \
        == EXIT_INPUT
    assert "mesh is not simply connected" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_skip_solver_reports_a_hole(tmp_path):
    path, out = tmp_path / "annulus.mesh", tmp_path / "out.json"
    path.write_text(dump_mesh(_annulus()))
    assert main(["analyze", "--mesh", str(path), "--skip-solver",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["mesh"]["T"] == 32 and report["mesh"]["euler_ok"] is False
    assert report["divergence"] == {"skipped": True}


def test_analyze_stable_and_deficient_meta(tmp_path):
    mesh_path = _gen(tmp_path, "crossed", "--n", "2")
    out = tmp_path / "stable.json"
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["divergence"]["K"] == 0
    assert report["divergence"]["beta"] > 0.01
    assert report["trees"]["verdict"] == "all-interior-local"


def test_to_json_rounds_floats_only():
    import numpy as np
    obj = {"b": 0.09099515790841745, "i": np.int64(7), "t": True,
           "s": "0.12345678901234", "n": None, "tiny": 1.2246467991473532e-16,
           "arr": np.array([1.0 / 3.0, 2.0]), "f": np.float64(2.0 / 3.0),
           "nested": [(32.00000000000001, 3)]}
    assert json.loads(to_json(obj)) == {
        "b": 0.09099515791, "i": 7, "t": True, "s": "0.12345678901234",
        "n": None, "tiny": 1.224646799e-16, "arr": [0.3333333333, 2.0],
        "f": 0.6666666667, "nested": [[32.0, 3]]}
    # both ends of a thread-count spread of beta give the same bytes
    assert to_json(0.090995157908416) == to_json(0.09099515790842176)


def _written(monkeypatch, argv):
    """The objects that one ``main(argv)`` call hands to ``cli.to_json``,
    and its exit code."""
    seen, write = [], cli.to_json

    def recorded(obj):
        seen.append(obj)
        return write(obj)

    monkeypatch.setattr(cli, "to_json", recorded)
    return main(argv), seen


@pytest.mark.parametrize("command", ["analyze", "infsup", "spline-dim"])
@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_to_json_writes_the_json_oracle_text(tmp_path, monkeypatch, name,
                                             command):
    """Every JSON output of the golden meshes is, byte for byte, the text of
    json.dumps(indent=2, sort_keys=True) on its rounded object."""
    path, out = tmp_path / "m.mesh", tmp_path / "out.json"
    path.write_text(dump_mesh(GOLDEN_MESHES[name]()))
    code, seen = _written(monkeypatch, [command, "--mesh", str(path),
                                        "--out", str(out)])
    assert code == EXIT_OK and len(seen) == 1
    assert out.read_text() == to_json(seen[0]) == to_json_oracle(seen[0])


@pytest.mark.parametrize("scale", [1.0, 1e-7, 3e7])
@pytest.mark.parametrize("key", bench_pool("certify-dense"))
def test_to_json_is_the_json_oracle_on_the_certify_dense_reports(key, scale):
    """The analyze report of every certify-dense pool mesh, unscaled and
    at the two scales of its similarity copies, is written as the json
    oracle writes it."""
    verts, tris = BENCH_MESHES.build(key)
    report, _ = analyze_mesh(load_mesh(BENCH_MESHES.mesh_text(verts, tris,
                                                              scale)),
                             Tolerances())
    assert to_json(report) == to_json_oracle(report)


_NUMBERS = st.one_of(
    st.integers(), st.floats(), st.sampled_from([-0.0, 1e16, 1.5e16]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32))
_SCALARS = st.one_of(st.none(), st.booleans(), st.text(), _NUMBERS,
                     st.sampled_from(["é", "Θ(z)", "\u2603 \"q\"\n", "😀"]))
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                  st.none())
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
                     hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
# values neither writer takes, a dict key among them
_UNSUPPORTED = st.sampled_from([np.bool_(True), 1j, {1}, b"x", object(),
                                {np.int64(1): 0}, {(1, 2): 0},
                                {np.float32(0.5): 0}, {"a": 0, 1: 0}])


def _json_values(unsupported):
    leaves = st.one_of(_SCALARS, _ARRAYS, *([_UNSUPPORTED] if unsupported
                                           else []))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()),
                        inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=1)), max_leaves=16)


@settings(max_examples=400, deadline=None)
@given(_json_values(unsupported=False))
def test_to_json_equals_the_json_oracle(obj):
    """Nested dicts, lists, tuples and arrays of numpy and Python scalars,
    with str, int, float, bool and None keys, NaN, infinities, -0.0, 1e16
    and non-ASCII strings: the one-pass writer gives the oracle's text."""
    assert to_json(obj) == to_json_oracle(obj)


@settings(max_examples=200, deadline=None)
@given(_json_values(unsupported=True))
def test_to_json_raises_where_the_json_oracle_does(obj):
    """A value or key neither writer takes, anywhere in the object, is a
    TypeError from both; otherwise both write the same text."""
    try:
        want = to_json_oracle(obj)
    except TypeError:
        with pytest.raises(TypeError):
            to_json(obj)
    else:
        assert to_json(obj) == want


@pytest.mark.parametrize("bad", [np.bool_(True), 1j, {1}, b"x", object(),
                                 {np.int64(1): 0}, {(1, 2): 0},
                                 {"a": 0, 1: 0}])
def test_to_json_rejects_what_json_rejects(bad):
    for obj in (bad, {"k": [1.5, {"j": (bad,)}]}):
        for write in (to_json, to_json_oracle):
            with pytest.raises(TypeError):
                write(obj)


GOLDEN = {
    "crossed-2.json": ("crossed", ["--n", "2"]),
    "type1-3.json": ("type1", ["--n", "3"]),
    "three-lines-2.json": ("three-lines", ["--n", "2"]),
    "perturbed-3-s1.json": ("perturbed-grid", ["--n", "3", "--seed", "1"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports(tmp_path, name):
    """Analysis reports are byte-stable against the committed golden files."""
    import pathlib
    golden = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
        "golden" / name
    preset, extra = GOLDEN[name]
    mesh_path = _gen(tmp_path, preset, *extra)
    out = tmp_path / "report.json"
    assert main(["analyze", "--mesh", str(mesh_path),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == golden.read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_field_suites(tmp_path, name):
    """``verify-fields --samples 4 --seed 7`` reproduces the committed
    suite output byte for byte."""
    import pathlib
    golden = (pathlib.Path(__file__).resolve().parent.parent / "docs"
              / "golden" / name.replace(".json", ".fields.txt"))
    preset, extra = GOLDEN[name]
    mesh_path = _gen(tmp_path, preset, *extra)
    out = tmp_path / "fields.txt"
    assert main(["verify-fields", "--mesh", str(mesh_path), "--samples", "4",
                 "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports_across_blas_threads(tmp_path, name, threads):
    """The golden bytes do not depend on the BLAS thread count.  The count
    is read when numpy loads, so each run is a fresh interpreter."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    preset, extra = GOLDEN[name]
    mesh_path = _gen(tmp_path, preset, *extra)
    out = tmp_path / "report.json"
    env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                     MKL_NUM_THREADS=threads)
    done = subprocess.run(
        [sys.executable, "-m", "svstokes.cli", "analyze",
         "--mesh", str(mesh_path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    assert out.read_bytes() == (root / "docs" / "golden" / name).read_bytes()
