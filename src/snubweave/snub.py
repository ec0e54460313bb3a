"""Pentagon-producing snub subdivision with boundary-preserving smoothing.

One refinement step applies four operations to a planar mesh:

1. every edge is replaced by a *Z-triplet*: three segments of equal length
   ``|e|/sqrt(7)`` whose consecutive segments enclose an angle of ``2*pi/3``
   and whose bend points sit symmetrically about the edge midpoint;
2. every face receives a new vertex at its vertex centroid (*barycenter*);
3. each bend point is joined by a *spoke* to the barycenter lying in the
   same open half-plane of its source edge, which cuts every refined region
   into pentagons;
4. optionally, every inner vertex is moved (simultaneously) to the mean of
   the barycenters of its incident faces, while outer vertices stay exactly
   where they are.

The bend direction of each Z is set by a side flag.  Reversing an edge's
direction swaps both the reference endpoint and left/right, so the flag
reads the same from both incident faces, and the all-pentagon structure
forces every edge to bend the same way: one global flag ``s`` (+1 or -1)
picks between two mirror-image refinements.

Positions use an exact closed form: on an edge from ``a`` to ``b`` with
``d = b - a``, the bend point near ``a`` for flag ``s`` is
``a + ((5*dx - s*sqrt(3)*dy) / 14, (s*sqrt(3)*dx + 5*dy) / 14)``, i.e. the
edge direction rotated by ``s * atan(sqrt(3)/5)`` and scaled by
``1/sqrt(7)``; the bend point near ``b`` mirrors it through the midpoint.

Operations 1-3 are built in one pass from closed-form connectivity, with no
edge hashing.  For a source mesh with ``V`` vertices, edges ``(lo, hi)`` and
``F`` faces, edge ``e`` gets the bend points ``V + 2e`` (near ``lo``) and
``V + 2e + 1``, and face ``f`` the barycenter ``V + 2E + f``.  Source face
slot ``i`` becomes refined face ``i``, a fixed row of five: the barycenter,
then a window of four on the slot's walk ``(first bend, second bend, next
corner, next edge's first bend, its second bend)`` that starts at the first
bend for ``s = +1`` and at the second for ``s = -1`` (the bend that gets the
spoke).  The refined edge table is written directly in the sorted
``(lo, hi)`` order :func:`~.mesh_core.build_mesh` would produce: first the
``2E`` outer Z segments ``(source vertex, bend)``, then, per source edge,
its middle segment followed by the spokes at its two bend points.  That
order is load-bearing, because the next step numbers its bend points by
edge id, and it is the only record of where each element came from.

The rows of five and the checks run over blocks of whole source faces,
about 16k slots each.  A block derives its slots' next slot and face from
``face_starts``, so no per-slot array is built at full size but the refined
mesh's own, and none is cached on the meshes a history keeps; small blocks
keep the step's temporaries small and short-lived, which lowers the memory
peak of a run.  A pinched source boundary is rejected before the build.
The other checks run before the refined mesh is smoothed or recorded, and
gather the positions of each of the five columns of a block's rows once:
the source side reads each slot's corner and next corner from the source
and its barycenter and spoke bend point from columns 0 and 1; the refined
side pairs each column with the next for the face areas and zero-length
edges, which go to the raiser every mesh construction shares
(:func:`~.mesh_core._reject_bad_faces`) after the pass, and sums the face
centroids the smoothing reuses.  Smoothing writes the positions in place.
The errors fire in this order, whatever block they are in: a pinched
source boundary raises :class:`~.errors.NonManifoldError`; a spoke's bend
point on its source edge's line raises
:class:`~.errors.AmbiguousHalfPlaneError`; then a zero-area refined face
raises :class:`~.errors.DegenerateFaceError`, a clockwise (folded) one
:class:`~.errors.NonManifoldError`, and a zero-length refined edge
:class:`~.errors.DegenerateFaceError`; last, a count that breaks the
recursion raises :class:`~.errors.InternalInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import logging
import math

import numpy as np

from .errors import (
    AmbiguousHalfPlaneError,
    InternalInvariantError,
    InvalidParameterError,
)
from .mesh_core import (
    EdgeTag,
    Mesh,
    Provenance,
    _centroids,
    _checked_int,
    _reject_bad_faces,
    _reject_pinched_boundary,
)

__all__ = [
    "ALPHA",
    "StepRecord",
    "SubdivisionHistory",
    "assign_z_orientations",
    "smooth_inner_vertices",
    "snub_subdivide",
]

logger = logging.getLogger(__name__)

#: Initial turn of a Z-triplet against its edge direction.
ALPHA = math.atan(math.sqrt(3.0) / 5.0)

_SQRT3 = math.sqrt(3.0)


def assign_z_orientations(seed_flag: int = 1) -> int:
    """The bend side shared by every edge, checked to be +1 or -1.

    +1 puts the bend point near an edge's lower-index endpoint to the
    *left* of the edge walked towards its higher-index endpoint, -1 to the
    right.  That reading is the same from both incident faces, and on a
    connected mesh one edge's flag forces every other (see the module
    docstring); the two values give mirror refinements.
    """
    return _checked_flag(seed_flag)


def _checked_flag(seed_flag) -> int:
    """``seed_flag`` as an int; numpy integers pass, bools do not."""
    if isinstance(seed_flag, bool) or not isinstance(
            seed_flag, (int, np.integer)) or seed_flag not in (1, -1):
        raise InvalidParameterError(
            f"seed flag must be +1 or -1, got {seed_flag!r}")
    return int(seed_flag)


# ---------------------------------------------------------------------------
# operations 1-3: bend points, barycenters and spokes in one pass
# ---------------------------------------------------------------------------

#: Slots per block of the step's rows and checks (lowest measured peak RSS).
_BLOCK = 1 << 14


def _blocks(starts: np.ndarray):
    """Runs of whole faces of about :data:`_BLOCK` slots, in slot order: per
    run its faces ``f0:f1``, its slots ``a:b`` (a slice), each slot's face
    and the slot of the next vertex in its cycle, counted from ``a``."""
    cuts = np.searchsorted(starts, np.arange(0, starts[-1], _BLOCK))
    bounds = list(dict.fromkeys(cuts.tolist() + [len(starts) - 1]))
    for f0, f1 in zip(bounds, bounds[1:]):
        first, end = starts[f0:f1], starts[f0 + 1:f1 + 1]
        a, b = int(first[0]), int(end[-1])
        nxt = np.arange(1, b - a + 1, dtype=np.int64)
        nxt[end - 1 - a] = first - a
        yield f0, f1, slice(a, b), np.repeat(
            np.arange(f0, f1, dtype=np.int64), end - first), nxt


def _bend_points(mesh: Mesh, s: int):
    """Positions of the two bend points of every edge for flag ``s``."""
    pa = np.take(mesh.positions, mesh.edges[:, 0], axis=0)
    pb = np.take(mesh.positions, mesh.edges[:, 1], axis=0)
    d = pb - pa
    near_a = np.empty_like(pa)
    near_a[:, 0] = pa[:, 0] + (5.0 * d[:, 0] - s * _SQRT3 * d[:, 1]) / 14.0
    near_a[:, 1] = pa[:, 1] + (s * _SQRT3 * d[:, 0] + 5.0 * d[:, 1]) / 14.0
    near_b = pa + pb - near_a
    return near_a, near_b


def _refine(source: Mesh, s: int) -> tuple[tuple, Provenance]:
    """Operations 1-3: the pentagon mesh's arrays, in the order the
    :class:`~.mesh_core.Mesh` constructor takes them, and its edge roles.

    Each source slot gives one pentagon, a fixed row of five chosen by the
    flag (see the module docstring).  The arrays stay writeable, so the
    positions can be smoothed in place once :func:`_check_geometry` passed.
    """
    _reject_pinched_boundary(source.edges, source.edge_left,
                             source.edge_right, source.vertex_count)
    V, E, F = source.vertex_count, source.edge_count, source.face_count
    k = (1 - s) // 2
    positions = np.empty((V + 2 * E + F, 2))
    positions[:V] = source.positions
    positions[V:V + 2 * E:2], positions[V + 1:V + 2 * E:2] = \
        _bend_points(source, s)

    # edge ids: block 1 holds the outer segment (edges.ravel()[k], V + k) of
    # bend k at rank k of a stable sort by source vertex; block 2 holds, per
    # source edge, the middle segment, then the spokes at V + 2e, V + 2e + 1.
    # Walked from lower to higher vertex id an edge has its left face on the
    # side of the bend V + 2e + k, which gets that face's spoke (-1: none)
    ends = source.edges.ravel()
    order = np.argsort(ends, kind="stable")
    outer_id = np.empty(2 * E, dtype=np.int64)
    outer_id[order] = np.arange(2 * E, dtype=np.int64)
    sides = (source.edge_left, source.edge_right)
    spoke_face = np.column_stack((sides[k], sides[1 - k])).ravel()
    has_spoke = spoke_face >= 0
    per_edge = 1 + has_spoke.reshape(E, 2).sum(axis=1)
    mid_id = 2 * E + np.cumsum(per_edge) - per_edge
    spoke_id = np.repeat(mid_id + 1, 2)
    spoke_id[1::2] += has_spoke[0::2]
    E_out = 2 * E + int(per_edge.sum())

    edges = np.empty((E_out, 2), dtype=np.int64)
    edges[:2 * E, 0] = ends[order]
    edges[:2 * E, 1] = V + order
    edges[mid_id, 0] = V + 2 * np.arange(E, dtype=np.int64)
    edges[mid_id, 1] = edges[mid_id, 0] + 1
    bends = np.flatnonzero(has_spoke)
    edges[spoke_id[bends], 0] = V + bends
    edges[spoke_id[bends], 1] = V + 2 * E + spoke_face[bends]
    edge_tags = np.full(E_out, EdgeTag.Z_OUTER, dtype=np.int8)
    edge_tags[mid_id] = EdgeTag.Z_MIDDLE
    edge_tags[spoke_id[bends]] = EdgeTag.SPOKE
    del ends, order, spoke_face, has_spoke, per_edge, bends

    # one pentagon per source slot, block by block and column by column:
    # the vertex row and, entry j joining vertices j and j + 1, its edge
    # row.  Per slot: the bend points met walking the slot's edge (the edge
    # is ``(lo, hi)``, so walked forwards when the corner is the lower id)
    # and the one of them on the face's side, which gets the spoke.  Each
    # slot's face is left of its edge when walked from lower to higher
    # vertex id, right otherwise; ids rise from source vertex to bend point
    # to barycenter, so only the middle segment's column has both sides
    n = len(source.face_vertex_flat)
    out_flat = np.empty(5 * n, dtype=np.int64)
    out_edge = np.empty(5 * n, dtype=np.int64)
    rows = out_flat.reshape(n, 5)
    row_edges = out_edge.reshape(n, 5)
    edge_left = np.full(E_out, -1, dtype=np.int64)
    edge_right = np.full(E_out, -1, dtype=np.int64)
    for f0, f1, slots, slot_face, nxt in _blocks(source.face_starts):
        corner = source.face_vertex_flat[slots]
        e_slot = source.face_edge_flat[slots]
        corner_next = corner[nxt]
        walk_first = V + 2 * e_slot + (corner > corner_next)
        walk_second = (2 * V + 4 * e_slot + 1) - walk_first
        first_next = walk_first[nxt]
        spoke_here = spoke_id[(walk_first, walk_second)[k] - V]
        verts = (V + 2 * E + slot_face,) + (
            walk_first, walk_second, corner_next, first_next,
            walk_second[nxt])[k:k + 4]
        vert_edges = (spoke_here,) + (
            mid_id[e_slot], outer_id[walk_second - V],
            outer_id[first_next - V], mid_id[e_slot[nxt]])[k:k + 3] \
            + (spoke_here[nxt],)
        face = np.arange(slots.start, slots.stop, dtype=np.int64)
        for j, e in enumerate(vert_edges):
            rows[slots, j] = verts[j]
            row_edges[slots, j] = e
            right = verts[j] > verts[(j + 1) % 5]
            if right.all():
                edge_right[e] = face
            elif not right.any():
                edge_left[e] = face
            else:
                edge_right[e[right]] = face[right]
                edge_left[e[~right]] = face[~right]
        positions[V + 2 * E + f0:V + 2 * E + f1] = _centroids(
            source.positions, source.face_vertex_flat,
            source.face_starts[f0:f1 + 1])

    return (positions, out_flat, np.arange(0, 5 * n + 1, 5, dtype=np.int64),
            edges, edge_left, edge_right, out_edge), \
        Provenance(edge_tags=edge_tags)


def _row_sum(columns) -> np.ndarray:
    """``c0 + (((c1 + c2) + c3) + c4)`` over five columns (or a generator of
    them): the order ``np.add.reduceat`` adds a row of five in, so the sums
    equal its sums bit for bit."""
    columns = iter(columns)
    return next(columns) + functools.reduce(np.add, columns)


def _check_geometry(source: Mesh, refined: Mesh, s: int) -> np.ndarray:
    """The step's checks in one blocked pass; returns the face centroids.

    Each block of rows of five works on its five columns (see the module
    docstring).  A spoke whose bend point is on its source edge's line
    raises :class:`AmbiguousHalfPlaneError`; the spokes that disagree with
    the half-plane rule, or with plain nearest-barycenter distance, are
    counted and logged once (never asserted).
    """
    positions = refined.positions
    rows = refined.face_vertex_flat.reshape(-1, 5)
    bary0 = source.vertex_count + 2 * source.edge_count
    areas = np.empty(len(rows))
    zero_len = np.empty(rows.shape, dtype=bool)
    centroids = np.empty((len(rows), 2))
    mismatches = disagreements = 0
    for _, _, slots, slot_face, _ in _blocks(source.face_starts):
        # the x and y of every column, where column j + 1 holds each slot's
        # next vertex (``np.take`` of whole rows moves each position in one
        # piece); source side: per slot its corner and the next corner, read
        # from the source, and the barycenter and spoke bend point columns
        block = rows[slots]
        columns = [np.take(positions, block[:, j], axis=0) for j in range(5)]
        pb, pz = columns[:2]
        pu = np.take(source.positions, source.face_vertex_flat[slots], axis=0)
        d = np.take(source.positions, block[:, 3 - (1 - s) // 2], axis=0) - pu
        z = pz - pu
        bc = pb - pu
        cross_z = d[:, 0] * z[:, 1] - d[:, 1] * z[:, 0]
        cross_b = d[:, 0] * bc[:, 1] - d[:, 1] * bc[:, 0]
        scale = np.hypot(d[:, 0], d[:, 1]) * np.hypot(z[:, 0], z[:, 1])
        ambiguous = np.flatnonzero(np.abs(cross_z) <= 1e-12 * scale)
        if len(ambiguous):
            # the first fault in the documented order, at its lowest row
            raise AmbiguousHalfPlaneError(
                f"bend point {int(block[ambiguous[0], 1])} lies on its "
                f"source edge's supporting line")
        mismatches += int(np.count_nonzero(np.sign(cross_z)
                                           != np.sign(cross_b)))
        # nearest-barycenter comparison on interior edges
        e_slot = source.face_edge_flat[slots]
        left, right = source.edge_left[e_slot], source.edge_right[e_slot]
        other = np.take(positions, bary0 + np.where(left == slot_face,
                                                    right, left), axis=0)
        disagreements += int(np.count_nonzero(
            (left >= 0) & (right >= 0)
            & (np.hypot(*(other - pz).T) < np.hypot(*(pb - pz).T))))

        x, y = [p[:, 0] for p in columns], [p[:, 1] for p in columns]
        pairs = list(zip(x, x[1:] + x[:1], y, y[1:] + y[:1]))
        areas[slots] = 0.5 * _row_sum(x0 * y1 - x1 * y0
                                      for x0, x1, y0, y1 in pairs)
        for j, (x0, x1, y0, y1) in enumerate(pairs):
            zero_len[slots, j] = (x0 == x1) & (y0 == y1)
        centroids[slots, 0] = _row_sum(x) / 5
        centroids[slots, 1] = _row_sum(y) / 5

    if mismatches:
        logger.warning(
            "half-plane rule disagreed with the bend-side construction for "
            "%d spokes (non-convex source faces?)", mismatches)
    if disagreements:
        logger.debug(
            "nearest-barycenter distance disagreed with the half-plane "
            "rule for %d spokes", disagreements)
    _reject_bad_faces(areas, zero_len.ravel(), refined.face_edge_flat,
                      refined.edges)
    return centroids


# ---------------------------------------------------------------------------
# operation 4: smoothing
# ---------------------------------------------------------------------------

def smooth_inner_vertices(mesh: Mesh) -> Mesh:
    """Move every inner vertex to the mean of its faces' barycenters.

    The inner vertices are read off the mesh
    (:attr:`~.mesh_core.Mesh.inner_vertex_mask`).  All moves use the
    pre-move positions (simultaneous update); outer vertices are returned
    bitwise unchanged.
    """
    positions = mesh.positions.copy()
    _smooth(positions, mesh.face_vertex_flat, mesh.face_starts,
            mesh.face_centroids(), mesh.inner_vertex_mask)
    return mesh.with_positions(positions)


def _smooth(positions: np.ndarray, flat: np.ndarray, starts: np.ndarray,
            centroids: np.ndarray, inner: np.ndarray) -> None:
    """:func:`smooth_inner_vertices` in place, on the face cycles ``(flat,
    starts)`` with their centroids and inner-vertex mask given."""
    V = len(positions)
    cnt = np.bincount(flat, minlength=V)
    inner = inner & (cnt > 0)
    for axis in (0, 1):
        acc = np.bincount(flat, minlength=V, weights=np.repeat(
            centroids[:, axis], np.diff(starts)))
        np.divide(acc, cnt, out=positions[:, axis], where=inner)
        del acc


# ---------------------------------------------------------------------------
# multi-step driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """The edge roles of one refinement step (producing mesh t); where each
    vertex and face came from is the step's numbering (module docstring)."""

    provenance: Provenance


@dataclass(frozen=True)
class SubdivisionHistory:
    """Meshes ``M_0 .. M_t`` plus per-step records.

    ``records[k]`` describes the step that produced ``meshes[k + 1]`` from
    ``meshes[k]``, numbered as the module docstring states; every step
    bends by ``seed_flag`` (see :func:`assign_z_orientations`).  Smoothing
    moves positions only, so ``meshes[k + 1]`` keeps the step's numbering.
    """

    meshes: list[Mesh]
    records: list[StepRecord]
    smoothing: bool
    seed_flag: int

    @property
    def final(self) -> Mesh:
        return self.meshes[-1]

    @property
    def steps(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.meshes)


def _check_count_recursion(source: Mesh, refined: Mesh) -> None:
    sum_n = len(source.face_vertex_flat)
    expect = (source.vertex_count + 2 * source.edge_count + source.face_count,
              3 * source.edge_count + sum_n,
              sum_n)
    got = (refined.vertex_count, refined.edge_count, refined.face_count)
    if got != expect:
        raise InternalInvariantError(
            f"element counts {got} do not match the recursion {expect}")


def snub_subdivide(mesh: Mesh, steps: int, smoothing: bool = True,
                   seed_flag: int = 1) -> SubdivisionHistory:
    """Apply ``steps`` snub refinements, recording every intermediate mesh.

    The bend sides are re-derived at every step from ``seed_flag``, so
    identical inputs and parameters give bitwise-identical histories.  With
    ``smoothing`` off, operation 4 is skipped.

    A step that folds a face raises :class:`~.errors.NonManifoldError`, but
    only clockwise faces are rejected: two counterclockwise faces can still
    overlap, so edges can cross (without smoothing this happens at modest
    depth, e.g. on ``ngon(3)`` at t=4).  ``_check_self_intersections`` in
    :mod:`~.mesh_core` finds such crossings; the step does not run it.
    """
    steps = _checked_int(steps, "steps", 0)
    if not isinstance(smoothing, (bool, np.bool_)):
        raise InvalidParameterError(
            f"smoothing must be a bool, got {smoothing!r}")
    # checked before the loop too, for a history of no steps
    seed_flag = _checked_flag(seed_flag)
    meshes = [mesh]
    records: list[StepRecord] = []
    current = mesh
    for _ in range(steps):
        s = assign_z_orientations(seed_flag)
        arrays, prov = _refine(current, s)
        # the checks read views, so the arrays stay writeable for smoothing
        refined = Mesh(*(a.view() for a in arrays))
        centroids = _check_geometry(current, refined, s)
        _check_count_recursion(current, refined)
        if smoothing:
            _smooth(*arrays[:3], centroids, refined.inner_vertex_mask)
        records.append(StepRecord(provenance=prov))
        current = Mesh(*arrays)
        meshes.append(current)
    return SubdivisionHistory(meshes=meshes, records=records,
                              smoothing=bool(smoothing), seed_flag=seed_flag)
