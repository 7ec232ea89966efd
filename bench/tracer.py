"""Span recorder that wraps the public functions of the ``svstokes``
modules from outside the package.

Every public function a module defines is replaced by a wrapper at every
place it is bound, including the names other modules import with
``from .mesh import enumerate_patch``.  In ``cli`` only ``main`` is
wrapped, so its self time is the command layer itself: argument parsing,
file I/O, report assembly and JSON.  Calls into ``scipy.linalg`` are not
spans (the library time belongs to the calling layer); they are counted,
with leading-order LAPACK flop counts computed from the matrix shapes
(Golub & Van Loan, 4th ed.).

Spans stay in memory and are written out once, by ``write``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("mesh", "poly", "geometry", "classify", "fields", "trees",
           "solver", "cli")

# Layers whose mean self time per item is reported.
LAYER_TIMES = (
    "solver.divergence_rank", "solver.constrained_basis",
    "solver.infsup_constant", "solver.spurious_modes",
    "solver.assemble_divergence", "solver.assemble_norms",
    "solver.checkerboard_signature",
    "mesh.load_mesh", "mesh.build_topology", "mesh.enumerate_patch",
    "classify.classify_mesh", "trees.build_tree_cover",
    "trees.check_hypotheses",
    "fields.verify_field", "fields.local_interpolant",
    "fields.boundary_interpolant",
    "cli.main",
)

# Functions whose calls are reported per item, vertex or triangle.
LAYER_CALLS = ("mesh.enumerate_patch", "poly.hat_gradients",
               "geometry.triangle_geometry", "poly.eval2", "poly.eval3")


def _mn(a):
    shape = getattr(a, "shape", ())
    return shape if len(shape) == 2 else (0, 0)


def _svd_flops(a, full=True, uv=True):
    m, n = _mn(a)
    m, n = max(m, n), min(m, n)
    if not uv:
        return 4 * m * n * n - 4 * n ** 3 / 3
    if full:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 6 * m * n * n + 20 * n ** 3


def _eigh_flops(a, b=None, *args, eigvals_only=False, **kwargs):
    n = _mn(a)[0]
    flops = 4 * n ** 3 / 3 if eigvals_only else 9 * n ** 3
    if b is not None:       # Cholesky of b plus the congruence transform
        flops += n ** 3 / 3 + 2 * n ** 3
    return flops


def _solve_flops(a, b, *args, assume_a="gen", **kwargs):
    n = _mn(a)[0]
    k = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
    factor = n ** 3 / 3 if assume_a in ("pos", "positive definite") else 2 * n ** 3 / 3
    return factor + 2 * n * n * k


# The dense factorizations the solver calls, with their flop counts.
LA_FLOPS = {
    "svd": lambda a, *r, full_matrices=True, compute_uv=True, **k:
        _svd_flops(a, full_matrices, compute_uv),
    "svdvals": lambda a, *r, **k: _svd_flops(a, uv=False),
    "null_space": lambda a, *r, **k: _svd_flops(a, full=True),
    "solve": _solve_flops,
    "eigh": _eigh_flops,
}


class _Patches:
    """Module attributes replaced by wrappers, restored by ``uninstall``."""

    def __init__(self):
        self._undo = []

    def rebind(self, modules, wrappers):
        """Point every attribute of ``modules`` that holds a function in
        ``wrappers`` (keyed by ``id``) at that function's wrapper."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def rebind_layers(self, package, wrap, required=()):
        """Replace every binding of each layer function by ``wrap(name,
        fn)``; a ``None`` wrapper leaves that function alone.  Raises
        ``LookupError``, before anything is replaced, when a name in
        ``required`` is not a function of its module, so a renamed layer
        cannot silently read 0.  Returns the modules."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in MODULES}
        wrappers, found = {}, set()
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (short == "cli" and attr != "main")):
                    continue
                found.add(f"{short}.{attr}")
                wrapper = wrap(f"{short}.{attr}", fn)
                if wrapper is not None:
                    wrappers[id(fn)] = wrapper
        missing = sorted(set(required) - found)
        if missing:
            raise LookupError(f"{package.__name__} has no function "
                              f"{', '.join(missing)}; the tracer names it")
        self.rebind(modules.values(), wrappers)
        return list(modules.values())

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer(_Patches):
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        super().__init__()
        self.item = -1
        self.spans = []             # (id, parent, item, name, start, end)
        self._stack = []            # [id, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _span(self, name, fn):
        tracer = self
        on_result = self._count_checks if name == "fields.verify_field" else None

        def traced(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, tracer.item, name,
                                     start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_la(self, name, fn):
        flops = LA_FLOPS[name]

        def counted(*args, **kwargs):
            self.counts["dense_factorizations"] += 1
            self.counts["la_flops"] += flops(*args, **kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_checks(self, report):
        self.counts["fields.checks"] += len(report.checks)
        self.counts["fields.checks_failed"] += len(report.failed())

    def install(self, package):
        """Wrap the layers of an imported ``svstokes`` package."""
        import scipy.linalg

        modules = self.rebind_layers(package, self._span,
                                     required=LAYER_TIMES + LAYER_CALLS)
        # scipy.linalg itself, and any name a module imported from it.
        self.rebind([scipy.linalg] + modules,
                    {id(getattr(scipy.linalg, attr)):
                     self._count_la(attr, getattr(scipy.linalg, attr))
                     for attr in LA_FLOPS})

    def metrics(self, n_items, n_vertices, n_triangles):
        """Per-layer metrics over the traced items: self times and counts
        are means per item, call ratios are per mesh vertex or triangle."""
        out = {f"{name}.self_s": self.self_s.get(name, 0.0) / n_items
               for name in LAYER_TIMES}
        calls = self.calls
        out.update({
            "solver.dense_factorizations": self.counts["dense_factorizations"] / n_items,
            "solver.la_flops_computed": self.counts["la_flops"] / n_items,
            "mesh.enumerate_patch.calls_per_vertex": calls["mesh.enumerate_patch"] / n_vertices,
            "poly.hat_gradients.calls_per_tri": calls["poly.hat_gradients"] / n_triangles,
            "geometry.triangle_geometry.calls_per_tri": calls["geometry.triangle_geometry"] / n_triangles,
            "poly.eval.calls": (calls["poly.eval2"] + calls["poly.eval3"]) / n_items,
            "fields.checks": self.counts["fields.checks"] / n_items,
            "fields.checks_failed": self.counts["fields.checks_failed"] / n_items,
        })
        return out

    def write(self, path):
        """All spans as gzipped CSV: id,parent,item,name,start_s,end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,item,name,start_s,end_s\n")
            for span_id, parent, item, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{item},{name},{start!r},{end!r}\n")


class AllocProbe(_Patches):
    """``tracemalloc`` peak across the outermost ``solver`` calls.

    Kept apart from ``Tracer`` because tracing allocations slows
    allocation-heavy Python loops several-fold and would distort the
    self times.
    """

    def __init__(self):
        super().__init__()
        self.peak = 0
        self._depth = 0

    def _probe(self, name, fn):
        if not name.startswith("solver."):
            return None
        probe = self

        def probed(*args, **kwargs):
            probe._depth += 1
            if probe._depth == 1:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                probe._depth -= 1
                if probe._depth == 0:
                    probe.peak = max(probe.peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        probed.__wrapped__ = fn
        return probed

    def install(self, package):
        self.rebind_layers(package, self._probe)
