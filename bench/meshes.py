"""Mesh generators and the per-workload item plans.

The benchmark writes its own mesh files instead of calling
``svstokes gen``, so a change to the program's presets cannot change what
is measured.  Everything here is pure Python: the same seed gives the same
files on every platform and numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Perturbed-grid meshes come from a fixed pool of generator seeds, so the
# reference file can hold their expected reports; the bench seed picks
# which pool members a run uses.
POOL_SIZE = 8
JITTER = 0.15


def _grid_index(n):
    return lambda i, j: i * (n + 1) + j


def crossed(n):
    """n x n unit squares, each split by both diagonals (T = 4 n^2)."""
    idx = _grid_index(n)
    verts = [(float(i), float(j)) for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for i in range(n):
        for j in range(n):
            c = len(verts)
            verts.append((i + 0.5, j + 0.5))
            a, b, d, e = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            tris += [(a, b, c), (b, d, c), (d, e, c), (e, a, c)]
    return verts, tris


def type1(n):
    """n x n unit squares, each split by its lower-left diagonal (T = 2 n^2)."""
    idx = _grid_index(n)
    verts = [(float(i), float(j)) for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, d, e = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            tris += [(a, b, d), (a, d, e)]
    return verts, tris


def three_lines(n):
    """Equilateral rhombus mesh: every interior vertex has valence 6."""
    idx = _grid_index(n)
    h = math.sqrt(3.0) / 2.0
    verts = [(i + 0.5 * j, h * j) for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i, j + 1), idx(i + 1, j + 1)
            tris += [(a, b, c), (b, d, c)]
    return verts, tris


def perturbed(n, seed):
    """Unit grid with jittered interior vertices and a random diagonal per
    square, giving a mix of valences 4..8."""
    rng = random.Random(seed)
    idx = _grid_index(n)
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            x, y = float(i), float(j)
            if 0 < i < n and 0 < j < n:
                x += rng.uniform(-JITTER, JITTER)
                y += rng.uniform(-JITTER, JITTER)
            verts.append((x, y))
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, d, e = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            if rng.random() < 0.5:
                tris += [(a, b, d), (a, d, e)]
            else:
                tris += [(a, b, e), (b, d, e)]
    return verts, tris


def ngon(N):
    """A single interior vertex of valence N."""
    verts = [(0.0, 0.0)] + [(math.cos(2 * math.pi * k / N),
                             math.sin(2 * math.pi * k / N)) for k in range(N)]
    tris = [(0, 1 + k, 1 + (k + 1) % N) for k in range(N)]
    return verts, tris


def mesh_text(verts, tris, scale=1.0):
    """The program's plain-text mesh format, coordinates round-tripping."""
    lines = [f"vertices {len(verts)}"]
    lines += [f"{x * scale!r} {y * scale!r}" for x, y in verts]
    lines.append(f"triangles {len(tris)}")
    lines += [f"{i} {j} {k}" for i, j, k in tris]
    return "\n".join(lines) + "\n"


def pool_seed(n, p):
    return 1000 * n + p


def build(key):
    """Mesh for a key such as ``crossed-6`` or ``perturbed-8-p3``."""
    family, n, *rest = key.split("-")
    n = int(n)
    if family == "perturbed":
        return perturbed(n, pool_seed(n, int(rest[0][1:])))
    return {"crossed": crossed, "type1": type1, "three_lines": three_lines,
            "ngon": ngon}[family](n)


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Item:
    """One call of ``svstokes.cli.main``; ``key`` names the unscaled mesh
    whose reference report this item must reproduce."""
    name: str
    key: str
    scale: float
    fields_seed: int


# Fixed meshes per workload and the sizes of the perturbed pool draws:
# (grid n, how many pool members one pass uses).  The sizes are chosen so
# that most items of a workload cost about the same: the median item time
# then pools the samples of several items instead of resting on one.
WORKLOADS = {
    "certify-dense": {
        "fixed": ["crossed-6", "type1-8", "three_lines-8"],
        "perturbed": [(8, 2)],
        # similarity copies: (mesh key, or "perturbed" for the pass's
        # first perturbed draw; scale factor)
        "scaled": [("crossed-6", 1e-7), ("perturbed", 3e7)],
    },
    "screen-topology": {
        "fixed": ["crossed-21", "type1-28", "three_lines-28"],
        "perturbed": [(28, 3)],
        "scaled": [],
    },
    # Three items cost less than a perturbed n=5 and two cost more, so the
    # median lands in the middle of the block of six perturbed n=5 items.
    "verify-fields": {
        "fixed": ["crossed-3", "crossed-4", "type1-6", "three_lines-6"],
        "perturbed": [(5, 6), (6, 1)],
        "scaled": [],
    },
}

FIELD_SAMPLES = 2
WARMUP_KEY = "ngon-5"


def plan(workload, seed):
    """The items of one pass, in order, for a bench seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    keys = list(spec["fixed"])
    for n, k in spec["perturbed"]:
        keys += [f"perturbed-{n}-p{p}" for p in sorted(rng.sample(range(POOL_SIZE), k))]
    items = [(key, 1.0) for key in keys]
    for base, scale in spec["scaled"]:
        if base == "perturbed":
            base = next(key for key in keys if key.startswith("perturbed"))
        items.append((base, scale))
    rng.shuffle(items)
    return [Item(name=f"{key}" + ("" if scale == 1.0 else f"-x{scale:g}"),
                 key=key, scale=scale, fields_seed=rng.randrange(2 ** 31))
            for key, scale in items]


def pool_keys(workload):
    """Every unscaled mesh key any seed can draw for a workload."""
    spec = WORKLOADS[workload]
    keys = list(spec["fixed"])
    for n, _ in spec["perturbed"]:
        keys += [f"perturbed-{n}-p{p}" for p in range(POOL_SIZE)]
    return keys


def argv(workload, item, mesh_path, out_path):
    """Command line of one item, as a user would type it."""
    if workload == "verify-fields":
        return ["verify-fields", "--mesh", mesh_path, "--samples",
                str(FIELD_SAMPLES), "--seed", str(item.fields_seed),
                "--out", out_path]
    args = ["analyze", "--mesh", mesh_path, "--out", out_path]
    if workload == "screen-topology":
        args.append("--skip-solver")
    return args
