"""The corner kernel: interior angles and their cotangents at the three
corners of a stack of triangles."""

from __future__ import annotations

import numpy as np


def triangle_geometry(p0, p1, p2):
    """Angles and cotangents at the corners of non-degenerate triangles.

    Points of shape (..., 2) give a stack of triangles and two arrays of
    shape (..., 3), ``(angles, cotangents)``: slot s holds the corner at
    vertex p_s.  The angle between u = p_{s+1} - p_s and v = p_{s+2} - p_s
    is ``arctan2(|u x v|, u . v)``, so it does not depend on the
    orientation, and the cotangent is its cosine over its sine.  Raises
    ValueError on a zero-area triangle.
    """
    pts = np.stack([np.asarray(p, dtype=float) for p in (p0, p1, p2)], axis=-2)
    u = pts[..., [1, 2, 0], :] - pts
    v = pts[..., [2, 0, 1], :] - pts
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    if np.any(cross == 0.0):
        raise ValueError("degenerate triangle")
    # Stacked 1 x 2 by 2 x 1 products take the BLAS dot of a 1-D ``u @ v``
    # (which a kernel may fuse into a multiply-add), so every corner gets
    # the bits of its triangle computed alone.
    dots = (u[..., None, :] @ v[..., :, None])[..., 0, 0]
    angles = np.arctan2(np.abs(cross), dots)
    return angles, np.cos(angles) / np.sin(angles)
