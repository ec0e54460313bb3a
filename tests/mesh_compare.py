"""Helpers shared by several suites: comparing meshes up to renumbering,
and the edge roles of a snub-refined mesh in the frozen oracles' form."""

from __future__ import annotations

import math

import numpy as np

from weaving_reference import EdgeTag

#: The arrays a ``Mesh`` holds, in the order its constructor takes them.
MESH_ARRAYS = ("positions", "face_vertex_flat", "face_starts", "edges",
               "edge_left", "edge_right", "face_edge_flat")


def snub_edge_tags(mesh, provenance):
    """The :class:`EdgeTag` of every edge of ``mesh``, made by the snub step
    whose record is ``provenance``, read off the step's numbering for the
    source's counts ``V`` and ``E``: an edge ``(lo, hi)`` is an outer Z
    segment if ``lo < V``, a middle segment if ``hi < V + 2E``, and a spoke
    otherwise."""
    V, E = provenance.vertex_count, provenance.edge_count
    lo, hi = mesh.edges.T
    return np.select([lo < V, hi < V + 2 * E],
                     [EdgeTag.Z_OUTER, EdgeTag.Z_MIDDLE],
                     EdgeTag.SPOKE).astype(np.int8)


def canonical_cycle(cycle):
    """Rotation- and direction-independent form of a face cycle."""
    cycle = tuple(cycle)
    n = len(cycle)
    best = None
    for candidate in (cycle, cycle[::-1]):
        k = min(range(n), key=lambda i: candidate[i])
        rotated = candidate[k:] + candidate[:k]
        if best is None or rotated < best:
            best = rotated
    return best


def match_vertices(a_positions, b_positions, tol=1e-9):
    """Bijection from A-vertices to B-vertices by position within ``tol``.

    Requires distinct vertices to be separated by more than ``tol`` (true for
    every mesh these suites compare).  Plain coordinate sorting is *not* used
    because ties in one coordinate flip under last-bit noise.
    """
    A = np.asarray(a_positions, dtype=float)
    B = np.asarray(b_positions, dtype=float)
    assert len(A) == len(B), f"vertex counts differ: {len(A)} vs {len(B)}"
    h = max(tol, 1e-12)
    cells = {}
    for j, (x, y) in enumerate(B):
        cells.setdefault((math.floor(x / h), math.floor(y / h)), []).append(j)
    used = set()
    remap = np.empty(len(A), dtype=np.int64)
    for i, (x, y) in enumerate(A):
        cx, cy = math.floor(x / h), math.floor(y / h)
        candidates = [
            j
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for j in cells.get((cx + dx, cy + dy), ())
            if j not in used
            and abs(B[j][0] - x) <= tol
            and abs(B[j][1] - y) <= tol
        ]
        assert len(candidates) == 1, (
            f"vertex {i} at ({x!r}, {y!r}) has {len(candidates)} matches")
        remap[i] = candidates[0]
        used.add(candidates[0])
    return remap


def assert_isomorphic(mesh, points, faces, tol=1e-9):
    """Assert ``mesh`` equals the (points, faces) lists up to renumbering."""
    remap = match_vertices(np.asarray(mesh.positions), points, tol)
    got = {canonical_cycle(tuple(int(remap[v]) for v in cycle))
           for cycle in mesh.faces}
    want = {canonical_cycle(tuple(cycle)) for cycle in faces}
    assert got == want, "face structure differs"
