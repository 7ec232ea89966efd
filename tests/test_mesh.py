"""Mesh format, validation, topology derivation, patch enumeration, and
the preset generators."""

import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_MESHES, HIGH_VALENCE, MIXED, PINCHED,
                      bench_mesh, bench_pool, edge_index, fan, fan_columns,
                      named_mesh, type1_with_crossed)
from svstokes import poly
from svstokes.mesh import (MeshError, MeshFormatError, Triangulation,
                           build_topology, crossed, dump_mesh,
                           enumerate_patch, generate, load_mesh, ngon_patch,
                           perturbed_grid, three_lines, type1_diagonal)

TWO_TRI = "vertices 4\n0 0\n1 0\n1 1\n0 1\ntriangles 2\n0 1 2\n0 2 3\n"


def test_load_dump_round_trip():
    mesh = load_mesh(TWO_TRI)
    again = load_mesh(dump_mesh(mesh))
    assert np.array_equal(mesh.vertices, again.vertices)
    assert np.array_equal(mesh.triangles, again.triangles)


def test_load_ignores_comments_and_blank_lines():
    text = "# header\n\nvertices 4\n0 0\n1 0\n# mid\n1 1\n0 1\n" \
           "triangles 2\n0 1 2\n0 2 3\n"
    mesh = load_mesh(text)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2


@pytest.mark.parametrize("text, what", [
    ("vertices x\n", "count"),
    ("vertices 1\n0 zz\ntriangles 0\n", "coordinate"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n", "index"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n", "end of file"),
    ("triangles 1\n0 1 2\n", "vertices"),
])
def test_load_rejects_malformed_input(text, what):
    with pytest.raises(MeshFormatError):
        load_mesh(text)


@pytest.mark.parametrize("text, message", [
    ("vertices -1\n", "line 1: vertex count is negative"),
    ("# c\nvertices 3\n0 0\n1 0\n0 1\ntriangles -2\n",
     "line 6: triangle count is negative"),
    ("vertices 99999999999999\n0 0\n",
     "line 1: unexpected end of file, expected vertex coordinates"),
    ("vertices 3\n0 0\n1 0\n# 0 1\n\n",
     "line 1: unexpected end of file, expected vertex coordinates"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles 99999999999999\n0 1 2\n",
     "line 5: unexpected end of file, expected triangle indices"),
], ids=["negative-vertices", "negative-triangles", "huge-vertices",
        "comment-not-counted", "huge-triangles"])
def test_load_rejects_bad_counts_before_allocating(text, message):
    """A header count that is negative, or larger than the non-comment
    lines left, names its line; a huge one allocates nothing."""
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("index", ["99999999999999999999999",
                                   "-99999999999999999999999"])
def test_load_rejects_an_index_beyond_int64(index):
    """A vertex index beyond the int64 range, positive or negative, is out
    of range like any other, on its line."""
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(f"vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 {index}\n")
    assert str(exc.value) == "line 6: vertex index out of range in triangle 0"


def _loop_load_mesh(text):
    """The per-line oracle of ``load_mesh``: one line at a time, each
    checked as it is read; the vertex and triangle arrays, or the message
    of the first error."""
    rows = [(n, line.split()) for n, line in
            enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("#")]
    out = []
    for header, what, item, width, convert, shape, bad, form in (
            ("vertices N", "vertex", "vertex coordinates", 2, float,
             "expected 'x y'", "bad coordinate",
             "coordinate is not a finite number"),
            ("triangles M", "triangle", "triangle indices", 3, int,
             "expected 'i j k'", "bad vertex index",
             "vertex index out of range in triangle {}")):
        if not rows:
            return f"unexpected end of file, expected '{header}'"
        lineno, fields = rows.pop(0)
        if len(fields) != 2 or fields[0] != header.split()[0]:
            return f"line {lineno}: expected '{header}'"
        try:
            n = int(fields[1])
        except ValueError:
            return f"line {lineno}: {what} count is not an integer"
        if n < 0:
            return f"line {lineno}: {what} count is negative"
        if n > len(rows):
            return f"line {lineno}: unexpected end of file, expected {item}"
        block = []
        for i in range(n):
            lineno, fields = rows.pop(0)
            if len(fields) != width:
                return f"line {lineno}: {shape}"
            try:
                values = [convert(f) for f in fields]
            except ValueError:
                return f"line {lineno}: {bad}"
            if (not all(np.isfinite(values)) if width == 2 else
                    not all(0 <= k < len(out[0]) for k in values)):
                return f"line {lineno}: {form.format(i)}"
            block.append(values)
        out.append(block)
    if rows:
        return f"line {rows[0][0]}: trailing content"
    return (np.array(out[0], dtype=float).reshape(-1, 2),
            np.array(out[1], dtype=np.int64).reshape(-1, 3))


_TOKENS = ["0", "1", "2", "3", "-1", "9", "0.5", "1e3", "1_0", "+2", "zz",
           "nan", "inf", "-inf", "1e999", "99999999999999999999999", "#",
           "# c", "vertices", "triangles", "vertices 2", "0 0", "0 1 2", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3),
                          st.sampled_from(_TOKENS)), max_size=4))
@example([(5, 0, "nan"), (9, 1, "9")])
@example([(3, 1, "1e999"), (4, 3, "0 0")])
def test_load_mesh_equals_its_per_line_loop(edits):
    """On a two-triangle file with up to four lines edited (a token
    replaced, a token added, a line replaced or a line inserted), the
    block parser gives the per-line loop's mesh or its first message."""
    lines = TWO_TRI.splitlines()
    for row, op, token in edits:
        row = min(row, len(lines) - 1)
        fields = lines[row].split()
        if op == 0 and fields:
            fields[row % len(fields)] = token
            lines[row] = " ".join(fields)
        elif op == 1:
            lines[row] += " " + token
        elif op == 2:
            lines[row] = token
        else:
            lines.insert(row, token)
    text = "\n".join(lines) + "\n"
    want = _loop_load_mesh(text)
    if isinstance(want, str):
        with pytest.raises(MeshFormatError) as exc:
            load_mesh(text)
        assert str(exc.value) == want
        return
    try:
        mesh = Triangulation(*want)
    except MeshError as exc:
        with pytest.raises(MeshError) as again:
            load_mesh(text)
        assert str(again.value) == str(exc)
        return
    got = load_mesh(text)
    assert got.vertices.tobytes() == mesh.vertices.tobytes()
    assert got.triangles.tobytes() == mesh.triangles.tobytes()


@pytest.mark.parametrize("vertices", [np.zeros((0, 2)), np.eye(2)])
def test_mesh_without_triangles_rejected(vertices):
    with pytest.raises(MeshError, match="no triangles"):
        Triangulation(vertices, np.zeros((0, 3), dtype=np.int64))


def test_duplicate_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n1 2 0\n")


def test_repeated_vertex_in_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 1\n")


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 1\n2 2\ntriangles 1\n0 1 2\n")


@pytest.mark.parametrize("make,message", [
    (lambda: crossed(3, L=1e-200), "length scale 4.24e-200 is out of range: "
                                   "the squared diameter underflows"),
    (lambda: crossed(3, L=1e-300), "length scale 4.24e-300 is out of range: "
                                   "the squared diameter underflows"),
    (lambda: Triangulation(np.full((3, 2), 0.5), [[0, 1, 2]]),
     "triangle 0 is degenerate")],
    ids=["crossed-3-L1e-200", "crossed-3-L1e-300", "coincident"])
def test_area_underflowing_to_zero_is_degenerate(make, message):
    """Areas that round to zero are rejected, not a crash in the hat
    gradients.  Where the squared diameter of a mesh of positive diameter
    rounds to zero too, its length scale is out of range; it is not
    degenerate.  Coincident vertices are."""
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L", [1e-150, 1e-160])
def test_tiny_but_representable_mesh_accepted(L):
    """The fan table of a mesh whose squared edge lengths underflow is
    built without a numpy warning (its d-coefficients are not finite)."""
    topo = build_topology(crossed(3, L=L))
    assert topo.T == 36 and np.all(topo.area > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(MeshError, match="finite"):
        Triangulation([[0.0, 0.0], [1.0, bad], [0.0, 1.0]], [[0, 1, 2]])


def test_generator_rejects_infinite_length_scale():
    with pytest.raises(MeshError, match="finite"):
        generate("crossed", n=1, L=np.inf)


def test_clockwise_triangles_reoriented():
    mesh = load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n")
    p = mesh.vertices[mesh.triangles[0]]
    u, v = p[1] - p[0], p[2] - p[0]
    assert u[0] * v[1] - u[1] * v[0] > 0


def test_mirrored_mesh_reoriented_without_touching_the_input():
    mesh = crossed(2)
    mirrored = Triangulation(mesh.vertices * [-1.0, 1.0], mesh.triangles)
    assert np.array_equal(mirrored.triangles, mesh.triangles[:, [0, 2, 1]])
    # the caller's own float64 and int64 arrays stay writeable and unchanged
    verts = mesh.vertices * [-1.0, 1.0]
    tris = np.array(mesh.triangles)
    Triangulation(verts, tris)
    assert verts.flags.writeable and tris.flags.writeable
    assert np.array_equal(verts, mesh.vertices * [-1.0, 1.0])
    assert np.array_equal(tris, mesh.triangles)


def test_nonmanifold_edge_rejected():
    text = ("vertices 5\n0 0\n1 0\n0 1\n1 1\n0.5 -1\n"
            "triangles 3\n0 1 2\n1 3 2\n0 4 1\n")
    mesh = load_mesh(text)
    topo = build_topology(mesh)  # edge (0,1) has 2 triangles: fine
    assert topo.T == 3
    bad = ("vertices 5\n0 0\n2 0\n1 1\n1 -1\n1 2\n"
           "triangles 3\n0 1 2\n0 3 1\n0 1 4\n")
    with pytest.raises(MeshError):
        build_topology(load_mesh(bad))


def test_hanging_vertex_rejected():
    # vertex 4 sits in the middle of edge (0, 1) of triangle (0, 1, 2)
    text = ("vertices 5\n0 0\n2 0\n1 2\n1 -2\n1 0\n"
            "triangles 3\n0 1 2\n0 4 3\n4 1 3\n")
    with pytest.raises(MeshError):
        build_topology(load_mesh(text))
    # vertex 3 lies on the line of boundary edge (0, 1), but beyond it
    text = ("vertices 4\n0 0\n1 0\n0 1\n2 0\n"
            "triangles 2\n0 1 2\n1 3 2\n")
    assert build_topology(load_mesh(text)).T == 2
    # vertices 4 and 3 both sit inside edge (0, 1); the smaller index is named
    text = ("vertices 6\n0 0\n3 0\n1.5 2\n2 0\n1 0\n1.5 -2\n"
            "triangles 4\n0 1 2\n0 4 5\n4 3 5\n3 1 5\n")
    with pytest.raises(MeshError,
                       match=r"hanging vertex 3 on boundary edge \(0, 1\)"):
        load_mesh(text)


def test_two_triangle_topology_counts():
    topo = build_topology(load_mesh(TWO_TRI))
    assert (topo.T, topo.E, topo.E0, topo.V, topo.V0) == (2, 5, 1, 4, 0)
    assert topo.euler_ok


def test_tri_edges_name_each_side():
    for mesh in (crossed(2), perturbed_grid(3, seed=1)):
        topo = build_topology(mesh)
        # side s joins vertex slots s and s + 1
        tris = mesh.triangles
        sides = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2),
                        axis=2)
        assert np.array_equal(topo.edges[topo.tri_edges], sides)
        assert not topo.tri_edges.flags.writeable


# ---------------------------------------------------------------------------
# Validation messages: each case has two offenders, and the message names
# the first in triangle order, or the first boundary edge in the order the
# triangle sides first reach it (not the lexicographic order).

_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
# edge (0, 1) lies in triangles on both sides and in one more
_FAN = [(0, 0), (2, 0), (1, 1), (1, -1), (1, 2), (1, -2)]
# vertex 4 sits inside boundary edge (0, 1)
_T_JOINT = [(0, 0), (2, 0), (1, 2), (1, -2), (1, 0)]


def _moved(points, dx=10):
    return [(x + dx, y) for x, y in points]


MESSAGE_CASES = {
    "repeated": (_SQUARE, [(0, 1, 2), (0, 2, 2), (1, 1, 3)],
                 "triangle 1 has repeated vertices"),
    "duplicate": (_SQUARE, [(0, 1, 2), (0, 2, 3), (2, 0, 1), (3, 2, 0)],
                  "duplicate triangle 2"),
    "degenerate": (_SQUARE + [(2, 2), (0.5, 0)],
                   [(0, 1, 2), (0, 2, 4), (0, 1, 5)],
                   "triangle 1 is degenerate"),
    # triangle 1 is also degenerate: within a triangle, repeats come first
    "repeated-before-degenerate": (_SQUARE, [(0, 1, 2), (0, 0, 3), (1, 2, 3)],
                                   "triangle 1 has repeated vertices"),
    # across triangles, the earlier triangle comes first
    "triangle-order-before-check-order": (
        _SQUARE + [(2, 2)], [(0, 1, 2), (0, 2, 4), (3, 3, 1)],
        "triangle 1 is degenerate"),
    "shared": (_FAN + _moved(_FAN),
               [(6, 7, 8), (6, 9, 7), (6, 7, 10), (6, 11, 7),
                (0, 1, 2), (0, 3, 1), (0, 1, 4)],
               "edge (6, 7) shared by 4 triangles"),
    "hanging": (_T_JOINT + _moved(_T_JOINT),
                [(5, 6, 7), (5, 9, 8), (9, 6, 8),
                 (0, 1, 2), (0, 4, 3), (4, 1, 3)],
                "hanging vertex 9 on boundary edge (5, 6)"),
    "shared-before-hanging": (_FAN + _moved(_T_JOINT),
                              [(6, 7, 8), (6, 10, 9), (10, 7, 9),
                               (0, 1, 2), (0, 3, 1), (0, 1, 4)],
                              "edge (0, 1) shared by 3 triangles"),
    # two triangles meeting at vertex 0 only, and a third apart
    "disconnected": ([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
                      (5, 5), (6, 5), (5, 6)],
                     [(0, 1, 2), (0, 3, 4), (5, 6, 7)],
                     "triangulation is not edge-connected"),
}


def test_an_overflowing_length_scale_is_named_before_conformity():
    """The three-triangle T-junction at L = 1e155: its squared diameter
    overflows, and the mesh is rejected for its length scale before the
    conformity checks, whose T-junction test overflows too and let it
    through to "not edge-connected"."""
    vertices = np.array(_T_JOINT, dtype=float)
    triangles = np.array([(0, 1, 2), (0, 4, 3), (4, 1, 3)])
    with pytest.raises(MeshError, match="hanging vertex 4"):
        Triangulation(vertices, triangles)
    with pytest.raises(MeshError) as info:
        Triangulation(vertices * 1e155, triangles)
    assert str(info.value) == ("length scale 4.47e+155 is out of range: the "
                               "squared diameter or a triangle area "
                               "overflows")


@pytest.mark.parametrize("name", sorted(MESSAGE_CASES))
def test_validation_message_names_the_first_offender(name):
    vertices, triangles, message = MESSAGE_CASES[name]
    with pytest.raises(MeshError) as info:
        Triangulation(np.array(vertices, dtype=float), np.array(triangles))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The topology against a dict pass over the triangle sides

def _dict_topology(mesh):
    """Edges and incidences derived one triangle side at a time."""
    edge_index = {}
    for tri in mesh.triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_index.setdefault((min(a, b), max(a, b)), len(edge_index))
    edges = np.array(sorted(edge_index), dtype=np.int64).reshape(-1, 2)
    # re-key after sorting edges deterministically
    edge_index = {tuple(e): i for i, e in enumerate(edges.tolist())}
    tris_of = [[] for _ in edge_index]
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for i, tri in enumerate(mesh.triangles.tolist()):
        for side, (a, b) in enumerate(
                ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))):
            j = edge_index[(min(a, b), max(a, b))]
            tri_edges[i, side] = j
            if i not in tris_of[j]:
                tris_of[j].append(i)
    edge_tris = tuple(tuple(ts) for ts in tris_of)
    boundary_edge = np.array([len(ts) == 1 for ts in edge_tris])
    boundary_vertex = np.zeros(mesh.num_vertices, dtype=bool)
    for (a, b), is_b in zip(edges, boundary_edge):
        if is_b:
            boundary_vertex[a] = boundary_vertex[b] = True
    vtris = [[] for _ in range(mesh.num_vertices)]
    for i, tri in enumerate(mesh.triangles.tolist()):
        for v in tri:
            vtris[v].append(i)
    return dict(edges=edges, edge_index=edge_index, edge_tris=edge_tris,
                tri_edges=tri_edges, boundary_edge=boundary_edge,
                boundary_vertex=boundary_vertex,
                vertex_tris=tuple(tuple(ts) for ts in vtris))


def _assert_topology_matches_dict_pass(mesh):
    topo = build_topology(mesh)
    want = _dict_topology(mesh)
    # the topology keeps no per-edge triangle tuple: each edge's triangles
    # are those of its sides and of their twins
    got_tris = [set() for _ in range(topo.E)]
    for s, (e, u) in enumerate(zip(topo.tri_edges.ravel().tolist(),
                                   topo.twin.ravel().tolist())):
        got_tris[e] |= {s // 3} | ({u // 3} if u >= 0 else set())
    assert [tuple(sorted(ts)) for ts in got_tris] == list(
        want.pop("edge_tris"))
    # the topology keeps no edge dict either: the edges' sorted order is
    # the index
    assert edge_index(topo) == want.pop("edge_index")
    # nor per-vertex triangle tuples: each vertex's fan holds its triangles
    fans = topo.fans
    assert [tuple(sorted(fans.tri[a:b].tolist())) for a, b in
            zip(fans.offset[:-1], fans.offset[1:])] == \
        list(want.pop("vertex_tris"))
    for name, ref in want.items():
        got = getattr(topo, name)
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        else:
            assert got == ref, name
            flat = [x for item in ref for x in
                    (item if isinstance(item, tuple) else (item,))]
            assert all(type(x) is int for x in flat), name
    # twin sides: paired, on one edge, run in opposite directions, and
    # missing exactly on the boundary
    twin, tri_edges = topo.twin.ravel(), topo.tri_edges.ravel()
    assert not topo.twin.flags.writeable
    assert np.array_equal(twin < 0, topo.boundary_edge[tri_edges])
    side = np.flatnonzero(twin >= 0)
    other = twin[side]
    assert np.array_equal(twin[other], side)
    assert np.array_equal(tri_edges[other], tri_edges[side])
    tris = mesh.triangles
    start = tris[side // 3, side % 3]
    end = tris[side // 3, (side % 3 + 1) % 3]
    assert np.array_equal(tris[other // 3, other % 3], end)
    assert np.array_equal(tris[other // 3, (other % 3 + 1) % 3], start)


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES) + ["crossed-32"])
def test_topology_matches_dict_pass(name):
    mesh = crossed(32) if name == "crossed-32" else GOLDEN_MESHES[name]()
    _assert_topology_matches_dict_pass(mesh)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 7))
def test_perturbed_topology_matches_dict_pass(seed, n):
    _assert_topology_matches_dict_pass(perturbed_grid(n, seed=seed))


def _mixed_orientation(mesh):
    """The mesh with every other triangle listed clockwise."""
    tris = mesh.triangles.copy()
    tris[::2] = tris[::2, ::-1]
    return Triangulation(mesh.vertices, tris)


@pytest.mark.parametrize("make", [
    lambda: crossed(2), lambda: type1_diagonal(3), lambda: three_lines(2),
    lambda: perturbed_grid(3, seed=1), lambda: perturbed_grid(6, seed=11),
    lambda: _mixed_orientation(perturbed_grid(6, seed=11))],
    ids=["crossed-2", "type1-3", "three-lines-2", "perturbed-3-s1",
         "perturbed-6-s11", "perturbed-6-s11-mixed-orientation"])
def test_geometry_table_matches_the_per_triangle_formulas(make):
    """Each triangle's hat gradients and area are what a per-triangle call
    gives on the reoriented triangle, bit for bit: the areas that
    ``Triangulation`` keeps from its validation, taken before it
    reorients the clockwise triangles, included."""
    mesh = make()
    topo = build_topology(mesh)
    assert topo.area.shape == (topo.T,)
    assert topo.hat_grads.shape == (topo.T, 3, 2)
    assert not topo.area.flags.writeable and not topo.hat_grads.flags.writeable
    for t in range(topo.T):
        p = mesh.vertices[mesh.triangles[t]]
        # bit for bit: the table is what a per-triangle call computes
        assert topo.hat_grads[t].tobytes() == poly.hat_gradients(*p).tobytes()
        assert topo.area[t].tobytes() == \
            np.float64(abs(poly.signed_area(*p))).tobytes()


# The golden meshes, the high-valence fans and the type-1 grids with
# crossed squares, at the length scales 1, 1e-7 and 3e7.
PATCH_TABLE_MESHES = [(name, scale) for scale in (1.0, 1e-7, 3e7)
                      for name in sorted(GOLDEN_MESHES) + HIGH_VALENCE]


@pytest.mark.parametrize("name,scale", PATCH_TABLE_MESHES, ids=[
    name if scale == 1.0 else f"{name}-x{scale:g}"
    for name, scale in PATCH_TABLE_MESHES])
def test_patch_table_matches_enumerate_patch(name, scale):
    """The fan table is read-only, its slices at a vertex id are views of
    it, a second ``enumerate_patch`` call rebuilds it bit for bit, and its
    spoke columns equal the per-vertex oracle ``fan_columns`` bit for
    bit."""
    mesh = named_mesh(name)
    topo = build_topology(Triangulation(mesh.vertices * scale, mesh.triangles))
    fans = topo.fans
    assert len(fans.degree) == len(fans.boundary) == len(fans.h_z) == topo.V
    again = enumerate_patch(topo.mesh, topo.angle, topo.cot)
    for column, arr in vars(fans).items():
        assert not arr.flags.writeable, column
        assert arr.dtype == getattr(again, column).dtype, column
        assert arr.tobytes() == getattr(again, column).tobytes(), column
    for z in range(topo.V):
        patch = fan(topo, z)
        coeffs = ((patch.b, fans.b), (patch.c, fans.c), (patch.d0, fans.d0),
                  (patch.d, fans.d), (patch.D, fans.D))
        spokes = ((patch.far, fans.far), (patch.vec, fans.vec),
                  (patch.edge_len, fans.edge_len),
                  (patch.tangents, fans.tangent),
                  (patch.normals, fans.normal),
                  (patch.pair_sin, fans.pair_sin), (patch.weight, fans.weight))
        for a, base in ((patch.theta, fans.theta),) + spokes + coeffs:
            assert a.base is base and not a.flags.writeable, z
        want = fan_columns(topo, z)
        for (a, base), ref in zip(spokes, vars(want).values()):
            assert a.dtype == ref.dtype and a.shape == ref.shape, z
            assert a.tobytes() == ref.tobytes(), (z, a, ref)
        # the d-coefficients: NaN on a boundary fan, finite elsewhere
        for a, _ in coeffs:
            assert (np.isnan(a).all() if patch.boundary
                    else np.isfinite(a).all()), z
        lo, hi = fans.offset[z], fans.offset[z + 1]
        assert patch.tris.tolist() == fans.tri[lo:hi].tolist()
        assert fans.center[lo:hi].tolist() == [z] * patch.N
        assert fans.position[lo:hi].tolist() == list(range(patch.N))
        assert patch.boundary == fans.boundary[z] == topo.boundary_vertex[z]
        assert patch.z == z and len(patch.slots) == patch.N
        for t, s in zip(patch.tris, patch.slots):
            assert topo.mesh.triangles[t][s] == z
        # the patch diameter: NaN on a boundary fan, elsewhere the
        # pairwise loop over its points
        if patch.boundary:
            assert np.isnan(patch.h_z), z
        else:
            pts = (list(topo.mesh.vertices[list(patch.spokes)])
                   + [topo.mesh.vertices[z]])
            assert patch.h_z == max(float(np.hypot(*(p - q)))
                                    for i, p in enumerate(pts)
                                    for q in pts[i + 1:]), z


def test_pinched_vertex_rejected_by_build_topology():
    mesh = load_mesh(PINCHED)
    with pytest.raises(MeshError, match="pinched\\) patch at vertex 0"):
        build_topology(mesh)


def test_crossed_counts():
    for n in (1, 2, 3):
        topo = build_topology(crossed(n))
        assert topo.T == 4 * n * n
        assert topo.V == (n + 1) ** 2 + n * n
        assert topo.euler_ok
        # Euler for a disk: V - E + T = 1
        assert topo.V - topo.E + topo.T == 1
    topo = build_topology(crossed(1))
    assert (topo.V0, topo.E0, topo.T) == (1, 4, 4)


def test_type1_counts():
    for n in (2, 3):
        topo = build_topology(type1_diagonal(n))
        assert topo.T == 2 * n * n
        assert topo.V == (n + 1) ** 2
        assert topo.V - topo.E + topo.T == 1


def test_three_lines_counts():
    topo = build_topology(three_lines(2))
    assert topo.T == 8
    assert topo.V - topo.E + topo.T == 1
    # every interior vertex is a regular hexagon center
    for v in range(topo.V):
        if not topo.boundary_vertex[v]:
            patch = fan(topo, v)
            assert patch.N == 6
            assert np.allclose(patch.theta, np.pi / 3.0)


def test_ngon_patch_structure():
    topo = build_topology(ngon_patch(6))
    assert topo.T == 6
    assert topo.V0 == 1
    patch = fan(topo, 0)
    assert not patch.boundary
    assert patch.N == 6
    assert np.isclose(sum(patch.theta), 2 * np.pi)


def test_ngon_patch_rejects_bad_perturbations():
    with pytest.raises(MeshError):
        ngon_patch(3, angle_shift=[0.0, -2.0, 0.0])
    with pytest.raises(MeshError):
        ngon_patch(2)


def test_interior_patch_is_ccw_and_closed():
    topo = build_topology(crossed(2))
    for v in range(topo.V):
        if topo.boundary_vertex[v]:
            continue
        patch = fan(topo, v)
        assert len(patch.spokes) == patch.N
        assert np.isclose(sum(patch.theta), 2 * np.pi)
        tris = topo.mesh.triangles
        for k in range(patch.N):
            t = patch.tris[k]
            assert v in tris[t]
            # triangle k is bounded by the incoming and outgoing spokes
            assert patch.spokes[(k - 1) % patch.N] in tris[t]
            assert patch.spokes[k] in tris[t]


def test_boundary_patch_has_extra_spoke():
    topo = build_topology(crossed(2))
    for v in range(topo.V):
        if not topo.boundary_vertex[v]:
            continue
        patch = fan(topo, v)
        assert patch.boundary
        assert len(patch.spokes) == patch.N + 1
        assert sum(patch.theta) < 2 * np.pi - 1e-9


def test_generate_presets_and_errors():
    mesh = generate("crossed", n=2)
    assert mesh.num_triangles == 16
    with pytest.raises(MeshError):
        generate("no_such_preset")


def _dump_or_error(make, *args, **kwargs):
    try:
        return dump_mesh(make(*args, **kwargs))
    except MeshError as exc:
        return f"{exc}\n"


LENGTHS = (1.0, 0.3, 2.5, 1e-7, 3e7)

# The sha256 of each family's mesh texts (or rejection messages), joined in
# order, as the per-preset loops wrote them before the one lattice builder.
GENERATED = {
    "crossed": (
        "558c9fe563910ff39bfc4236e067d8cbc4bc924e3f7adfe169b71a9196b2d571",
        lambda: [_dump_or_error(crossed, n, L)
                 for n in (1, 2, 3, 7, 12) for L in LENGTHS]),
    "type1_diagonal": (
        "94d57f9a50d9d56b8663ae5eda24a2be0de3e7356789587ed81dc863e36ec21f",
        lambda: [_dump_or_error(type1_diagonal, n, L)
                 for n in (1, 2, 3, 7, 12) for L in LENGTHS]),
    "three_lines": (
        "54264a012fd4e892ac08a96bcd9e83e90eff075188114355f9c79cf7599856bb",
        lambda: [_dump_or_error(three_lines, n, L)
                 for n in (1, 2, 3, 7, 12) for L in LENGTHS]),
    # 12 of the 96 draws fold and are rejected
    "perturbed_grid": (
        "cde186d154541b3c0c71b6c2893290f428078919daeefad4fb215a49e6ca6817",
        lambda: [_dump_or_error(perturbed_grid, n, seed=seed, amplitude=a,
                                L=L)
                 for n in (1, 3, 7, 10) for seed in (0, 35, 59)
                 for a in (0.0, 0.15, 0.3, 0.45) for L in (1.0, 3e7)]),
    "ngon_patch": (
        "b6e37ddbb8d0e4c18e1c7aa706e7f7777cc88f0ce83a15b02dfc091f2e99a0b3",
        lambda: [_dump_or_error(ngon_patch, N, L)
                 for N in range(3, 13) for L in (1.0, 2.5)]),
    "mixed": (
        "ab070a196728eed4de7e804d67658c6c244ed1bdb7fd4e4ec277358c86ea6f47",
        lambda: [dump_mesh(type1_with_crossed(*MIXED[name]))
                 for name in sorted(MIXED)]),
}


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_generators_write_the_pinned_meshes(family):
    """Every lattice preset, the ngons and the type-1 grids with crossed
    squares write the same files, bit for bit, as before they shared one
    lattice builder."""
    digest, meshes = GENERATED[family]
    assert hashlib.sha256("".join(meshes()).encode()).hexdigest() == digest


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 4))
def test_perturbed_grid_always_valid(seed, n):
    topo = build_topology(perturbed_grid(n, seed=seed))
    assert topo.euler_ok
    assert topo.V - topo.E + topo.T == 1
    # each triangle contributes 3 vertex incidences
    assert topo.fans.offset[-1] == 3 * topo.T
    for v in range(topo.V):
        patch = fan(topo, v)
        total = sum(patch.theta)
        assert total <= 2 * np.pi + 1e-9


def test_triangulation_arrays_read_only():
    mesh = load_mesh(TWO_TRI)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


# ---------------------------------------------------------------------------
# The fan table against a per-vertex walk over the triangles of each fan

def _incident(mesh):
    """Each vertex's triangles in ascending order, one triangle at a time."""
    incident = [[] for _ in range(mesh.num_vertices)]
    for t, tri in enumerate(mesh.triangles.tolist()):
        for v in tri:
            incident[v].append(t)
    return incident


def _loop_enumerate_patch(topology, z, incident):
    """The fan of z by a dict walk over its triangles ``incident[z]``, one
    at a time: the slices of the fan table at z, the center and the
    normals of the interior edges, by name."""
    mesh = topology.mesh
    incident = incident[z]
    if not incident:
        raise MeshError(f"vertex {z} has no incident triangles")
    # Per triangle, the CCW (incoming, outgoing) far endpoints of the two
    # center edges: for CCW triangle (z, a, b), the angle at z sweeps a -> b.
    inout = {}
    slot_of = {}
    for t in incident:
        tri = mesh.triangles[t]
        s = int(np.where(tri == z)[0][0])
        slot_of[t] = s
        inout[t] = (tri[(s + 1) % 3], tri[(s + 2) % 3])
    by_incoming = {}
    for t, (a, b) in inout.items():
        if a in by_incoming:
            raise MeshError(f"non-manifold patch at vertex {z}")
        by_incoming[a] = t

    outgoing_set = {b for _, b in inout.values()}
    starts = [t for t, (a, b) in inout.items() if a not in outgoing_set]
    if not starts:
        boundary = False
        start = min(incident)
    elif len(starts) == 1:
        boundary = True
        start = starts[0]
    else:
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    order = [start]
    while True:
        nxt = by_incoming.get(inout[order[-1]][1])
        if nxt is None or nxt == start:
            break
        if nxt in order:
            raise MeshError(f"non-manifold patch at vertex {z}")
        order.append(nxt)
    if len(order) != len(incident):
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    center = mesh.vertices[z]
    if boundary:
        spokes = [inout[order[0]][0]] + [inout[t][1] for t in order]
    else:
        spokes = [inout[t][1] for t in order]

    pts = mesh.vertices[np.array(spokes)]
    vecs = pts - center
    edge_len = np.hypot(vecs[:, 0], vecs[:, 1])
    tangents = vecs / edge_len[:, None]

    n = len(order)
    theta = np.empty(n)
    for j, t in enumerate(order):
        a, b = inout[t]
        va = mesh.vertices[a] - center
        vb = mesh.vertices[b] - center
        theta[j] = np.arctan2(va[0] * vb[1] - va[1] * vb[0],
                              va @ vb) % (2 * np.pi)

    n_int = n if not boundary else n - 1
    normals = np.empty((n_int, 2))
    for k in range(n_int):
        s = k if not boundary else k + 1
        tvec = tangents[s]
        # for a CCW fan, the normal out of tris[k] is the CCW rotation
        # of the spoke tangent (it points towards tris[k+1])
        normals[k] = np.array([-tvec[1], tvec[0]])

    # the patch diameter of an interior fan; NaN on a boundary fan
    allpts = np.vstack([pts, center[None, :]])
    diff = allpts[:, None, :] - allpts[None, :, :]
    h_z = (np.nan if boundary
           else float(np.hypot(diff[..., 0], diff[..., 1]).max()))

    for a in (theta, edge_len, tangents, normals):
        a.setflags(write=False)
    return SimpleNamespace(
        z=z, N=n, center=center, tris=np.array(order),
        slots=np.array([slot_of[t] for t in order]), spokes=np.array(spokes),
        boundary=boundary, theta=theta, edge_len=edge_len,
        tangents=tangents, normals=normals, h_z=h_z,
    )


PATCH_MESHES = ([("golden", name) for name in sorted(GOLDEN_MESHES)]
                + [("bench", key) for key in
                   bench_pool("certify-dense") + bench_pool("verify-fields")])


def _fan_mesh(source, name):
    if source == "golden":
        return GOLDEN_MESHES[name]()
    if source == "mixed":
        return type1_with_crossed(*MIXED[name])
    return crossed(32) if name == "crossed-32" else bench_mesh(name)


def _assert_fans_match_the_walk(topo):
    incident = _incident(topo.mesh)
    for z in range(topo.V):
        want = _loop_enumerate_patch(topo, z, incident)
        patch = fan(topo, z)
        bd = int(patch.boundary)
        patch.center = topo.mesh.vertices[z]
        # the table's spoke columns run over the corners, the spoke after
        # each; the walk's over the spokes, the first one on a boundary fan
        # before the first corner, and its normals over the interior edges
        patch.normals = patch.normals[:patch.N - bd]
        want.edge_len, want.tangents = want.edge_len[bd:], want.tangents[bd:]
        for name, ref in vars(want).items():
            got = getattr(patch, name)
            if isinstance(ref, np.ndarray):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (z, name)
            else:
                assert got == ref or np.isnan(got) and np.isnan(ref), (z, name)
                assert type(got) is type(ref), (z, name)


FAN_MESHES = (PATCH_MESHES + [("mixed", name) for name in sorted(MIXED)]
              + [("large", "crossed-32")])


@pytest.mark.parametrize("source,name", FAN_MESHES,
                         ids=[n for _, n in FAN_MESHES])
def test_enumerate_patch_equals_its_per_triangle_loop(source, name):
    """Every field of every patch is bit-identical to the per-vertex dict
    walk, on every golden and benchmark mesh, crossed-32 and the type-1
    grids with crossed squares (NotLI vertices, multi-hop covers)."""
    _assert_fans_match_the_walk(build_topology(_fan_mesh(source, name)))


def _first_rejection(mesh):
    """The message of the first vertex the walk rejects, or None.  The
    walk reads nothing but the mesh before it rejects a vertex."""
    incident = _incident(mesh)
    for z in range(mesh.num_vertices):
        try:
            _loop_enumerate_patch(SimpleNamespace(mesh=mesh), z, incident)
        except MeshError as exc:
            return str(exc)
    return None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9),
       amplitude=st.sampled_from([0.0, 0.15, 0.249, 0.3, 0.45]))
@example(seed=35, n=7, amplitude=0.3)
def test_perturbed_fans_equal_the_per_triangle_loop(seed, n, amplitude):
    """Above amplitude 0.25 some jittered vertices can fold triangles over
    their neighbours: the generator rejects those meshes, which overlap
    (at 0.3, seed 35 and n = 7 does: triangles 4 and 18 overlap across
    edge (10, 11)).  Below it none can fold (``perturbed_grid``).  On any
    other mesh a rejection names the walk's vertex with its message."""
    try:
        mesh = perturbed_grid(n, seed=seed, amplitude=amplitude)
    except MeshError as exc:
        assert amplitude > 0.25
        assert re.fullmatch(rf"amplitude {amplitude} produced an invalid "
                            r"mesh: triangles \d+ and \d+ overlap across "
                            r"edge \(\d+, \d+\)", str(exc))
        return
    message = _first_rejection(mesh)
    if message is None:
        _assert_fans_match_the_walk(build_topology(mesh))
    else:
        with pytest.raises(MeshError) as info:
            build_topology(mesh)
        assert str(info.value) == message


# Two triangles on the same side of their shared edge (0, 1): vertex 3
# lies inside triangle 0.
OVERLAP = np.array([[0, 0], [1, 0], [0, 1], [0.3, 0.3]]), np.array(
    [[0, 1, 2], [0, 1, 3]])


@pytest.mark.parametrize("relabel", range(4))
def test_triangulation_rejects_overlapping_triangles(relabel):
    """The sides of a shared edge run the same way only when both
    triangles lie on the same side of it; ``Triangulation`` rejects that,
    under any vertex and triangle order and either orientation."""
    verts, tris = OVERLAP
    rng = np.random.default_rng(relabel)
    perm = rng.permutation(len(verts)) if relabel else np.arange(len(verts))
    tris = np.argsort(perm)[tris]
    if relabel:
        tris = tris[rng.permutation(len(tris))][:, ::-1]
    a, b = sorted(np.argsort(perm)[[0, 1]])
    with pytest.raises(MeshError, match=rf"triangles [01] and [01] overlap "
                                        rf"across edge \({a}, {b}\)"):
        Triangulation(verts[perm], tris)


def test_folded_perturbed_grid_is_a_generator_error():
    # the walk at the parent rejected vertex 13 ("non-manifold patch")
    with pytest.raises(MeshError, match=r"amplitude 0.45 produced an invalid "
                                        r"mesh: triangles 13 and 23 overlap "
                                        r"across edge \(13, 14\)"):
        perturbed_grid(5, seed=0, amplitude=0.45)
    # a fold at 0.3, above the fold-free amplitude 0.25
    with pytest.raises(MeshError, match=r"amplitude 0.3 produced an invalid "
                                        r"mesh: triangles 4 and 18 overlap "
                                        r"across edge \(10, 11\)"):
        perturbed_grid(7, seed=35, amplitude=0.3)


def _two_closed_fans(M=6):
    """Vertex 1 at the center of two closed fans that share no edge: two
    sheets of a double cover of the disk of radius 3, branched at its
    center (vertex 0, one fan of angle 4 pi).  Rings of radius 1, 2 and 3
    have 2M points each, at the angles 2 pi k / M for k < 2M, so points k
    and k + M lie on top of each other; vertex 1 is both points of the
    middle ring at angle 0.  Every edge has its two triangles on opposite
    sides, so no two triangles overlap across an edge, though whole
    sheets overlap."""
    angle = 2 * np.pi * (np.arange(2 * M) % M) / M      # copies bit-equal
    ring = np.column_stack([np.cos(angle), np.sin(angle)])
    verts = [[0.0, 0.0], [2.0, 0.0]]
    index = np.empty((3, 2 * M), dtype=np.int64)
    for r in range(3):
        for k in range(2 * M):
            if r == 1 and k % M == 0:
                index[r, k] = 1
                continue
            index[r, k] = len(verts)
            verts.append((r + 1) * ring[k])
    tris = []
    for k in range(2 * M):
        k1 = (k + 1) % (2 * M)
        tris.append((0, index[0, k], index[0, k1]))
        for r in range(2):
            a, b = index[r, k], index[r, k1]
            c, d = index[r + 1, k], index[r + 1, k1]
            tris += [(a, c, d), (a, d, b)]
    return np.array(verts), np.array(tris)


def _error_meshes():
    pinched = load_mesh(PINCHED)
    yield "no-triangles", (np.array([[0, 0], [1, 0], [5, 5], [0, 1]], float),
                           np.array([[0, 1, 3]]))
    yield "pinched", (pinched.vertices, pinched.triangles)
    yield "two-closed-fans", _two_closed_fans()


@pytest.mark.parametrize("name", ["no-triangles", "pinched",
                                  "two-closed-fans"])
@pytest.mark.parametrize("relabel", range(4))
def test_fan_errors_name_the_first_offender(name, relabel):
    """A vertex with no triangles, a pinched boundary vertex and a vertex
    with two closed fans: under any vertex and triangle order the message
    is the per-vertex walk's for the first vertex it rejects."""
    verts, tris = dict(_error_meshes())[name]
    rng = np.random.default_rng(relabel)
    perm = rng.permutation(len(verts)) if relabel else np.arange(len(verts))
    tris = np.argsort(perm)[tris]
    if relabel:
        tris = tris[rng.permutation(len(tris))]
    mesh = Triangulation(verts[perm], tris)
    with pytest.raises(MeshError) as info:
        build_topology(mesh)
    message = _first_rejection(mesh)
    assert message is not None and str(info.value) == message


def _loop_corners(mesh):
    """The corner angles and cotangents, one triangle at a time."""
    angle = np.empty((mesh.num_triangles, 3))
    cot = np.empty((mesh.num_triangles, 3))
    for t, tri in enumerate(mesh.triangles):
        pts = mesh.vertices[tri]
        for s in range(3):
            u = pts[(s + 1) % 3] - pts[s]
            v = pts[(s + 2) % 3] - pts[s]
            angle[t, s] = np.arctan2(abs(u[0] * v[1] - u[1] * v[0]), u @ v)
        cot[t] = np.cos(angle[t]) / np.sin(angle[t])
    return angle, cot


@pytest.mark.parametrize("source,name", PATCH_MESHES,
                         ids=[n for _, n in PATCH_MESHES])
def test_corner_table_equals_its_per_triangle_loop(source, name):
    """The corner angles and cotangents are read-only and bit-identical
    to one-triangle-at-a-time numpy on every golden and benchmark mesh;
    each cotangent is -2 |T| grad(lambda_i) . grad(lambda_j) of the hat
    gradients at the other two corners, to roundoff."""
    mesh = GOLDEN_MESHES[name]() if source == "golden" else bench_mesh(name)
    topo = build_topology(mesh)
    angle, cot = _loop_corners(mesh)
    for got, want in ((topo.angle, angle), (topo.cot, cot)):
        assert got.dtype == want.dtype and got.shape == (topo.T, 3)
        assert not got.flags.writeable
        assert np.array_equal(got, want)
    g = topo.hat_grads
    others = [[1, 2], [2, 0], [0, 1]]
    dots = np.einsum("tsd,tsd->ts", g[:, [i for i, _ in others]],
                     g[:, [j for _, j in others]])
    by_grads = -2.0 * topo.area[:, None] * dots
    scale = np.abs(topo.cot).max(axis=1, keepdims=True)
    assert np.all(np.abs(topo.cot - by_grads) <= 1e-12 * scale)
