"""Shared test helpers: random shape-regular patches, admissible
pressure targets, and the golden and benchmark meshes."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from svstokes.mesh import (Triangulation, build_topology, crossed, load_mesh,
                           ngon_patch, perturbed_grid, three_lines,
                           type1_diagonal)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The meshes of the reports under docs/golden/.
GOLDEN_MESHES = {
    "crossed-2": lambda: crossed(2),
    "type1-3": lambda: type1_diagonal(3),
    "three-lines-2": lambda: three_lines(2),
    "perturbed-3-s1": lambda: perturbed_grid(3, seed=1),
}


def _bench_meshes():
    """bench/meshes.py, which generates the benchmark's mesh files."""
    spec = importlib.util.spec_from_file_location(
        "svstokes_bench_meshes", ROOT / "bench" / "meshes.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


BENCH_MESHES = _bench_meshes()


def bench_pool(workload, perturbed_only=False):
    """Keys of every mesh a benchmark workload can draw."""
    return [k for k in BENCH_MESHES.pool_keys(workload)
            if not perturbed_only or k.startswith("perturbed")]


def bench_mesh(key):
    """A benchmark mesh, read back from the file text the benchmark
    writes."""
    return load_mesh(BENCH_MESHES.mesh_text(*BENCH_MESHES.build(key)))


def edge_tris(topo, e):
    """The triangles of edge e in ascending order: the triangle of one of
    its sides and, on an interior edge, that of the side's twin."""
    side = int(np.flatnonzero(topo.tri_edges.ravel() == e)[0])
    twin = int(topo.twin.ravel()[side])
    return tuple(sorted({side // 3} | ({twin // 3} if twin >= 0 else set())))


# Vertex 0 is pinched: its triangles form two fans that share no edge.
PINCHED = ("vertices 9\n0 0\n1 -1\n1 1\n-1 1\n-1 -1\n3 0\n3 3\n-3 3\n"
           "-3 0\ntriangles 8\n0 1 2\n0 3 4\n1 5 2\n2 5 6\n2 6 7\n"
           "2 7 3\n3 7 8\n3 8 4\n")


def random_interior_patch(rng, N=None):
    """Single-interior-vertex mesh with randomized spoke angles/lengths,
    kept shape-regular (bounded angle distortion)."""
    if N is None:
        N = int(rng.integers(3, 9))
    base = 2.0 * np.pi / N
    amp = 0.9 * min(0.3 * base, 0.5 * (np.pi - base))
    shift = rng.uniform(-amp, amp, size=N)
    scale = rng.uniform(0.7, 1.3, size=N)
    mesh = ngon_patch(N, radius=1.0, length_scale=scale, angle_shift=shift)
    topo = build_topology(mesh)
    return mesh, topo, topo.patches[0]


def rigid_motion(mesh, angle=0.0, shift=(0.0, 0.0), scale=1.0):
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    verts = scale * (mesh.vertices @ R.T) + np.asarray(shift)
    return Triangulation(verts, mesh.triangles)


def admissible_target(topology, reports, rng):
    """Random per-triangle vertex values satisfying the alternating-sum
    constraint at every singular vertex (the discrete pressure space's
    pointwise conditions)."""
    p = rng.standard_normal((topology.T, 3))
    for r in reports:
        if not r.singular:
            continue
        patch = topology.patches[r.vertex]
        slots = list(zip(patch.tris, patch.slots))
        if patch.N == 1:
            t, s = slots[0]
            p[t, s] = 0.0
            continue
        signs = np.array([(-1.0) ** j for j in range(patch.N)])
        alt = sum(sg * p[t, s] for sg, (t, s) in zip(signs, slots))
        t, s = slots[-1]
        p[t, s] -= signs[-1] * alt
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
