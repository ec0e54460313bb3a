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
:func:`_bend_points` is the one statement of that Z: :func:`_positions`
writes every edge's bend points with it, and
:func:`~.fractal.lsystem_expand` draws the boundary curve with it.

Operations 1-3 are built in one pass from closed-form connectivity, with no
edge hashing.  For a source mesh with ``V`` vertices, edges ``(lo, hi)`` and
``F`` faces, edge ``e`` gets the bend points ``V + 2e`` (near ``lo``) and
``V + 2e + 1``, and face ``f`` the barycenter ``V + 2E + f``; a walk along
``e`` meets ``V + 2e + 1`` first when it runs from ``hi`` to ``lo``.  Source
face slot ``i`` becomes refined face ``i``, a fixed row of five: the
barycenter, then a window of four on the slot's walk ``(first bend, second
bend, next corner, next edge's first bend, its second bend)`` that starts at
the first bend for ``s = +1`` and at the second for ``s = -1`` (the bend that
gets the spoke).  The refined edge table is written directly in the sorted
``(lo, hi)`` order :func:`~.mesh_core.build_mesh` would produce: first the
``2E`` outer Z segments ``(source vertex, bend)``, then, per source edge,
its middle segment ``(V + 2e, V + 2e + 1)`` followed by the spokes at its
two bend points.  That order is load-bearing, because the next step numbers
its bend points by edge id, and it is the only record of where each element
came from.  So the role of a refined edge ``(lo, hi)`` follows from ``V``
and ``E`` alone: it is an outer Z segment if ``lo < V``, a middle segment if
``hi < V + 2E``, and a spoke otherwise.  Each pentagon holds one middle
segment, and touches one other middle at its *designated bend*: the vertex
three slots after its middle's slot in the row (the next edge's first bend
for ``s = +1``, the slot edge's second bend for ``s = -1``).  A step's record
(:class:`Provenance`) keeps the source's three counts and nothing more.

This module is the one place the numbering is stated.  The weaving reads
each face's middle edge and designated bend off :func:`_face_table`, and
curve tracking walks the bend points with :func:`_walked_bends`.

A step writes every refined position first (:func:`_positions`), all
barycenters in one call: a slot's nearest-barycenter comparison reads the
barycenter across its edge, which can lie in a later block.  Then one walk
over blocks of whole source faces, about 16k slots each, writes the rows of
five and checks them (:func:`_refine`).  A block derives its slots' next
slot and face from ``face_starts``, so no per-slot array is built at full
size but the refined mesh's own, and none is cached on the meshes a history
keeps.  The refined mesh's index arrays are allocated in the mesh index
dtype (:data:`~.mesh_core.INDEX_DTYPE`) and written in place, never
copied.  Small blocks keep the step's temporaries small enough to stay in
cache, which is what they pay for: in one block the step runs slower
(:data:`_BLOCK`), and the run's memory peak is a little higher.  A block
gathers the positions of each of its five columns once: the source side
reads each slot's corner and next corner from the source and its
barycenter and spoke bend point from columns 0 and 1; the refined side
pairs each column with the next for the face areas and zero-length edges,
which go to the shared raiser (:func:`~.mesh_core._reject_bad_faces`) after
the walk, and sums the face centroids the smoothing reuses, both in the
face-sum order (:func:`~.mesh_core._row_sum`).  The numbering also gives
each row's edge sides: ids rise from source vertex to bend point to
barycenter, so every column's edge has a fixed side of its pentagon but the
middle segment's, whose side is the walk's direction along its source edge.
The two checks on the spokes, the half-plane test and the nearest-barycenter
count, decide each slot as their ``np.hypot`` expressions do, but first by a
bound without a square root (:func:`_on_line`, :func:`_closer`); only the
slots the bound leaves, near ties and under- or overflowing ones, go
through the expression itself.  Smoothing runs after every check and writes
the positions in place; its inner-vertex mask and those vertices' face
counts are read off the numbering from the source's (:func:`_refined_inner`,
:func:`_refined_faces_at`), not off the refined edge table or a count of
the refined faces.
The errors fire in this order, whatever block they are in: a pinched
source boundary (rejected before the walk) raises
:class:`~.errors.NonManifoldError`; a spoke's bend point on its source
edge's line raises :class:`~.errors.AmbiguousHalfPlaneError`; then a
zero-area refined face raises :class:`~.errors.DegenerateFaceError`, a
clockwise (folded) one :class:`~.errors.NonManifoldError`, and a
zero-length refined edge :class:`~.errors.DegenerateFaceError`; last, a
count that breaks the recursion raises
:class:`~.errors.InternalInvariantError`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
import logging
import math

import numpy as np

from .errors import (
    AmbiguousHalfPlaneError,
    DepthTooLargeError,
    InternalInvariantError,
    InvalidParameterError,
)
from .mesh_core import (
    INDEX_DTYPE,
    Mesh,
    _checked_int,
    _fits_index,
    _next_slots,
    _reject_bad_faces,
    _reject_pinched_boundary,
    _require_record,
    _row_sum,
    _slot_faces,
    _vertex_sums,
)

__all__ = [
    "ALPHA",
    "Provenance",
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

#: Slots per block of the step's one walk, which writes the rows and checks
#: them.  Blocks this small keep each block's temporaries in cache: one
#: block of the whole step ran the t=8 ``deep_refine`` op about 25% slower
#: (median paired ratio 1.247, slower in 20 of 20 pairs, in one process on
#: a shared 2-vCPU host) and peaked 2.7% higher in RSS; blocks of
#: ``1 << 13``, ``1 << 15`` and ``1 << 16`` slots read 1.020, 1.048 and
#: 1.057 against this size in the same runs.
_BLOCK = 1 << 14


def _blocks(starts: np.ndarray):
    """Runs of whole faces of about :data:`_BLOCK` slots, in slot order: per
    run its slots ``a:b`` (a slice), each slot's face and the slot of the
    next vertex in its cycle, counted from ``a``."""
    cuts = np.searchsorted(starts, np.arange(0, starts[-1], _BLOCK))
    bounds = list(dict.fromkeys(cuts.tolist() + [len(starts) - 1]))
    for f0, f1 in zip(bounds, bounds[1:]):
        run = starts[f0:f1 + 1]
        nxt, slot_face = _next_slots(run), _slot_faces(run)
        yield slice(int(starts[f0]), int(starts[f1])), slot_face + f0, nxt


def _walked_bends(V: int, e, backwards):
    """The bend points of source edges ``e`` in the order a walk along each
    meets them: ``V + 2e + backwards`` first, where ``backwards`` says the
    walk runs from the edge's higher vertex to its lower, then its pair.
    In int64, as ``2V + 4e + 1`` can pass the index dtype's range."""
    e = e.astype(np.int64)
    first = V + 2 * e + backwards
    return first, (2 * V + 4 * e + 1) - first


def _bend_points(pa: np.ndarray, pb: np.ndarray, s: int,
                 out: np.ndarray) -> None:
    """The Z of every segment ``pa[i] -> pb[i]`` for flag ``s``, written
    into ``out`` (``(n, 2, 2)``): ``out[i, 0]`` the bend point near
    ``pa[i]`` by the closed form of the module docstring, ``out[i, 1]`` its
    mirror through the segment's midpoint."""
    d = pb - pa
    near_a = out[:, 0]
    near_a[:, 0] = pa[:, 0] + (5.0 * d[:, 0] - s * _SQRT3 * d[:, 1]) / 14.0
    near_a[:, 1] = pa[:, 1] + (s * _SQRT3 * d[:, 0] + 5.0 * d[:, 1]) / 14.0
    out[:, 1] = pa + pb - near_a


def _positions(source: Mesh, s: int) -> np.ndarray:
    """The refined vertices' positions before smoothing, numbered as the
    module docstring states: the source's vertices, the two bend points of
    every edge for flag ``s`` (:func:`_bend_points`), then every face's
    barycenter."""
    V, E = source.vertex_count, source.edge_count
    positions = np.empty((V + 2 * E + source.face_count, 2))
    positions[:V] = source.positions
    pa = np.take(source.positions, source.edges[:, 0], axis=0)
    pb = np.take(source.positions, source.edges[:, 1], axis=0)
    _bend_points(pa, pb, s, positions[V:V + 2 * E].reshape(E, 2, 2))
    positions[V + 2 * E:] = source.face_centroids()
    return positions


def _on_line(d: np.ndarray, z: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Per row of the ``(n, 2)`` vectors ``d`` and ``z`` and their cross
    products ``cross``, whether ``|cross| <= 1e-12 * hypot(d) * hypot(z)``,
    as that expression evaluates it.

    ``hypot(d) * hypot(z)`` is at most ``2 * ‖d‖∞ * ‖z‖∞``, so a row whose
    ``|cross|`` exceeds twice that bound times ``1e-12`` is off the line,
    with a factor of two to spare for rounding, also for a ``hypot`` in the
    subnormals (at most 1.91 times its ``‖·‖∞``; were both there, the
    expression's right side would be 0).  The bound decides only rows
    whose ``‖d‖∞`` and ``‖z‖∞`` are at most ``1e150``, so that no ``hypot``
    or product overflows; the other rows, and rows the bound leaves (NaN
    among them), go through the expression.
    """
    md = np.maximum(np.abs(d[:, 0]), np.abs(d[:, 1]))
    mz = np.maximum(np.abs(z[:, 0]), np.abs(z[:, 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        off = (np.abs(cross) > 4e-12 * (md * mz)) \
            & (np.maximum(md, mz) <= 1e150)
    on = ~off
    rest = np.flatnonzero(on)
    if len(rest):
        on[rest] = np.abs(cross[rest]) <= 1e-12 * (
            np.hypot(d[rest, 0], d[rest, 1]) * np.hypot(z[rest, 0], z[rest, 1]))
    return on


def _closer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of the ``(n, 2)`` vectors ``a`` and ``b``, whether
    ``hypot(a) < hypot(b)``, as that expression evaluates it.

    The squared lengths decide where they differ by more than ``1e-13`` of
    their sum, far above their rounding, and that sum is at least
    ``1e-290``, so that the larger square is clear of the subnormals.  An
    overflow makes the sum inf, which no difference exceeds; so those rows,
    near ties and NaN go through the expression.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1]
        b2 = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1]
        total = a2 + b2
        sure = (np.abs(a2 - b2) > 1e-13 * total) & (total >= 1e-290)
    closer = a2 < b2
    rest = np.flatnonzero(~sure)
    if len(rest):
        closer[rest] = np.hypot(a[rest, 0], a[rest, 1]) \
            < np.hypot(b[rest, 0], b[rest, 1])
    return closer


def _refine(source: Mesh, s: int, positions: np.ndarray) -> tuple:
    """Operations 1-3 and the step's checks in one blocked pass: the
    pentagon mesh's arrays, in the order the :class:`~.mesh_core.Mesh`
    constructor takes them, and its face centroids.

    Each source slot gives one pentagon, a fixed row of five chosen by the
    flag (see the module docstring).  ``positions`` are the refined
    vertices' (:func:`_positions`); they are returned as given and stay
    writeable, so they can be smoothed in place; areas and centroids are
    summed in the face-sum order of :mod:`~.mesh_core`, and the edges' sides
    follow from the numbering.  A spoke's bend point on its source edge's
    line raises :class:`AmbiguousHalfPlaneError` (:func:`_on_line`); the
    spokes that disagree with the half-plane rule, or with nearest-barycenter
    distance (:func:`_closer`), are counted and logged once (never
    asserted).  Both checks decide as their ``np.hypot`` expressions do.
    """
    _reject_pinched_boundary(source.edges, source.edge_left,
                             source.edge_right, source.vertex_count)
    V, E = source.vertex_count, source.edge_count
    k = (1 - s) // 2

    # edge ids: block 1 holds the outer segment (edges.ravel()[k], V + k) of
    # bend k at rank k of a stable sort by source vertex; block 2 holds, per
    # source edge, the middle segment, then the spokes at V + 2e, V + 2e + 1.
    # Walked from lower to higher vertex id an edge has its left face on the
    # side of the bend V + 2e + k, which gets that face's spoke (-1: none)
    ends = source.edges.ravel()
    order = np.argsort(ends, kind="stable")
    outer_id = np.empty(2 * E, dtype=INDEX_DTYPE)
    outer_id[order] = np.arange(2 * E, dtype=INDEX_DTYPE)
    sides = (source.edge_left, source.edge_right)
    spoke_face = np.column_stack((sides[k], sides[1 - k])).ravel()
    has_spoke = spoke_face >= 0
    per_edge = 1 + has_spoke[0::2] + has_spoke[1::2]
    mid_id = 2 * E + np.cumsum(per_edge) - per_edge
    spoke_id = np.repeat(mid_id + 1, 2)
    spoke_id[1::2] += has_spoke[0::2]
    E_out = 2 * E + int(per_edge.sum())

    edges = np.empty((E_out, 2), dtype=INDEX_DTYPE)
    edges[:2 * E, 0] = ends[order]
    edges[:2 * E, 1] = V + order
    edges[mid_id, 0] = V + 2 * np.arange(E, dtype=np.int64)
    edges[mid_id, 1] = edges[mid_id, 0] + 1
    bends = np.flatnonzero(has_spoke)
    edges[spoke_id[bends], 0] = V + bends
    edges[spoke_id[bends], 1] = V + 2 * E + spoke_face[bends]
    del ends, order, spoke_face, has_spoke, per_edge, bends

    # one pentagon per source slot, block by block and column by column:
    # the vertex row and, entry j joining vertices j and j + 1, its edge
    # row.  Per slot: the bend points met walking the slot's edge (the edge
    # is ``(lo, hi)``, so walked forwards when the corner is the lower id)
    # and the one of them on the face's side, which gets the spoke.  Each
    # slot's face is left of its edge when walked from lower to higher
    # vertex id, right otherwise.  Ids rise from source vertex to bend point
    # to barycenter, so a row walks down from its barycenter to its corner
    # (column 3 - k) and up again: columns before the corner's are right,
    # the others left, but the middle segment's (column 1 + 2k), which is
    # right where its source edge is walked backwards
    n = len(source.face_vertex_flat)
    out_flat = np.empty(5 * n, dtype=INDEX_DTYPE)
    out_edge = np.empty(5 * n, dtype=INDEX_DTYPE)
    rows = out_flat.reshape(n, 5)
    row_edges = out_edge.reshape(n, 5)
    edge_left = np.full(E_out, -1, dtype=INDEX_DTYPE)
    edge_right = np.full(E_out, -1, dtype=INDEX_DTYPE)
    areas = np.empty(n)
    zero_len = np.empty((n, 5), dtype=bool)
    centroids = np.empty((n, 2))
    mismatches = disagreements = 0
    for slots, slot_face, nxt in _blocks(source.face_starts):
        corner = source.face_vertex_flat[slots]
        e_slot = source.face_edge_flat[slots]
        corner_next = corner[nxt]
        backwards = corner > corner_next
        walk_first, walk_second = _walked_bends(V, e_slot, backwards)
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
        # the x and y of every column (``np.take`` of whole rows moves each
        # position in one piece), where column j + 1 holds each slot's next
        # vertex
        columns = [np.take(positions, v, axis=0) for v in verts]
        x, y = [p[:, 0] for p in columns], [p[:, 1] for p in columns]
        for j, e in enumerate(vert_edges):
            rows[slots, j] = verts[j]
            row_edges[slots, j] = e
            zero_len[slots, j] = (x[j] == x[(j + 1) % 5]) \
                & (y[j] == y[(j + 1) % 5])
            if j == 1 + 2 * k:
                right = backwards if k == 0 else backwards[nxt]
                edge_right[e[right]] = face[right]
                edge_left[e[~right]] = face[~right]
            elif j < 3 - k:
                edge_right[e] = face
            else:
                edge_left[e] = face
        areas[slots] = 0.5 * _row_sum(
            x[j] * y[(j + 1) % 5] - x[(j + 1) % 5] * y[j] for j in range(5))
        centroids[slots, 0] = _row_sum(x) / 5
        centroids[slots, 1] = _row_sum(y) / 5

        # source side: per slot its corner and the next corner, read from
        # the source, against the barycenter and the spoke's bend point
        pb, pz = columns[:2]
        pu = np.take(source.positions, corner, axis=0)
        d = np.take(source.positions, corner_next, axis=0) - pu
        z = pz - pu
        bc = pb - pu
        cross_z = d[:, 0] * z[:, 1] - d[:, 1] * z[:, 0]
        cross_b = d[:, 0] * bc[:, 1] - d[:, 1] * bc[:, 0]
        ambiguous = np.flatnonzero(_on_line(d, z, cross_z))
        if len(ambiguous):
            # the first fault in the documented order, at its lowest row
            raise AmbiguousHalfPlaneError(
                f"bend point {int(verts[1][ambiguous[0]])} lies on its "
                f"source edge's supporting line")
        mismatches += int(np.count_nonzero(np.sign(cross_z)
                                           != np.sign(cross_b)))
        # nearest-barycenter comparison with the face across the slot's
        # edge (right of it walked forwards, left backwards; -1 on the
        # boundary)
        other = np.where(backwards, source.edge_left[e_slot],
                         source.edge_right[e_slot])
        disagreements += int(np.count_nonzero((other >= 0) & _closer(
            np.take(positions, V + 2 * E + other, axis=0) - pz, pb - pz)))

    if mismatches:
        logger.warning(
            "half-plane rule disagreed with the bend-side construction for "
            "%d spokes (non-convex source faces?)", mismatches)
    if disagreements:
        logger.debug(
            "nearest-barycenter distance disagreed with the half-plane "
            "rule for %d spokes", disagreements)
    _reject_bad_faces(areas, zero_len.ravel(), out_edge, edges)
    starts = np.arange(0, 5 * n + 1, 5, dtype=INDEX_DTYPE)
    return (positions, out_flat, starts, edges, edge_left, edge_right,
            out_edge), centroids


# ---------------------------------------------------------------------------
# operation 4: smoothing
# ---------------------------------------------------------------------------

def smooth_inner_vertices(mesh: Mesh) -> Mesh:
    """Move every inner vertex to the mean of its faces' barycenters.

    The inner vertices are read off the mesh
    (:attr:`~.mesh_core.Mesh.inner_vertex_mask`).  All moves use the
    pre-move positions (simultaneous update); outer vertices are returned
    bitwise unchanged.  Each vertex's barycenters are summed in face order,
    in :mod:`~.mesh_core`'s vertex-sum order.
    """
    _require_record(mesh, Mesh, "mesh")
    positions = mesh.positions.copy()
    faces_at = np.bincount(mesh.face_vertex_flat, minlength=mesh.vertex_count)
    _smooth(positions, mesh.face_vertex_flat, mesh.face_starts,
            mesh.face_centroids(), mesh.inner_vertex_mask & (faces_at > 0),
            faces_at)
    return mesh.with_positions(positions)


def _smooth(positions: np.ndarray, flat: np.ndarray, starts: np.ndarray,
            centroids: np.ndarray, inner: np.ndarray,
            faces_at: np.ndarray) -> None:
    """:func:`smooth_inner_vertices` in place, on the face cycles ``(flat,
    starts)`` with their centroids given, and the vertices to move
    (``inner``) with their face counts (``faces_at``, read only where
    ``inner`` holds), so nothing here counts; one
    :func:`~.mesh_core._vertex_sums` per axis, in the vertex-sum order."""
    V = len(positions)
    flat = flat.astype(np.intp, copy=False)     # once, not per bincount
    repeats = np.diff(starts)
    if (repeats == repeats[0]).all():       # a snub step's: all pentagons
        repeats = int(repeats[0])
    for axis in (0, 1):
        acc = _vertex_sums(flat, np.repeat(centroids[:, axis], repeats), V)
        np.divide(acc, faces_at, out=positions[:, axis], where=inner)
        del acc


# ---------------------------------------------------------------------------
# multi-step driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """The element counts of the mesh a snub step refined.

    With the step's numbering (module docstring) they say where each
    refined vertex, edge and face came from, and which role each edge
    plays, so no per-element array is stored.
    """

    vertex_count: int
    edge_count: int
    face_count: int


@dataclass(frozen=True)
class StepRecord:
    """One refinement step (producing mesh t): the counts of the mesh it
    refined, from which the step's numbering (module docstring) gives each
    refined element's origin and role."""

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


def _counts(mesh: Mesh) -> tuple:
    return mesh.vertex_count, mesh.edge_count, mesh.face_count


def _step_counts(counts: tuple, slots: int) -> tuple:
    """The count recursion: the vertex, edge and face counts the step gives
    a mesh of ``counts`` ``(V, E, F)`` and ``slots`` face slots.  A vertex
    per source vertex, bend point and face, three segments per source edge
    and a spoke per slot, and a pentagon per slot."""
    V, E, F = counts
    return V + 2 * E + F, 3 * E + slots, slots


def _check_depth(mesh: Mesh, steps: int) -> None:
    """Raise :class:`DepthTooLargeError`, naming the first step that does,
    when ``steps`` steps of ``mesh`` make a mesh of more vertices, edges or
    face slots than :data:`~.mesh_core.INDEX_DTYPE` numbers; read off the
    count recursion, before anything is allocated.  Every refined face is a
    pentagon, so each step multiplies the slots by five."""
    counts, slots = _counts(mesh), len(mesh.face_vertex_flat)
    for t in range(1, steps + 1):
        counts, slots = _step_counts(counts, slots), 5 * slots
        if not _fits_index(counts[0], counts[1], slots):
            raise DepthTooLargeError(
                f"step {t} of {steps} would make a mesh of {counts[0]} "
                f"vertices, {counts[1]} edges and {slots} face slots, too "
                f"many for {INDEX_DTYPE} indices")


def _refined_inner(source: Mesh, inner: np.ndarray) -> np.ndarray:
    """The refined mesh's :attr:`~.mesh_core.Mesh.inner_vertex_mask`, read
    off the numbering from ``inner``, the source's: a source vertex keeps
    its mask (its outer segments border what its edges did), both bend
    points of a source edge are inner when the edge is, and every
    barycenter is inner (its spokes each lie between two pentagons)."""
    return np.concatenate((inner, np.repeat(~source.boundary_edge_mask, 2),
                           np.ones(source.face_count, dtype=bool)))


def _refined_faces_at(source: Mesh, faces_at: np.ndarray) -> np.ndarray:
    """Per refined vertex its number of faces, read off the numbering from
    ``faces_at``, the source's, and right at every vertex
    :func:`_refined_inner` marks, which is all the smoothing reads: a
    source vertex keeps its count (one pentagon per slot at it), both bend
    points of an inner source edge lie on three pentagons (an outer edge's
    on fewer), and a barycenter on one per slot of its face."""
    V, E = source.vertex_count, source.edge_count
    refined = np.empty(V + 2 * E + source.face_count, dtype=faces_at.dtype)
    refined[:V] = faces_at
    refined[V:V + 2 * E] = 3
    refined[V + 2 * E:] = np.diff(source.face_starts)
    return refined


def _check_count_recursion(counts: tuple, slots: int, refined: Mesh) -> None:
    expect, got = _step_counts(counts, slots), _counts(refined)
    if got != expect:
        raise InternalInvariantError(
            f"element counts {got} do not match the recursion {expect}")


def _middle_mask(edges: np.ndarray, V: int, E: int) -> np.ndarray:
    """The role rule, per refined edge ``(lo, hi)`` of a source with ``V``
    vertices and ``E`` edges: a middle segment, not an outer segment
    (``lo < V``) or a spoke (``hi >= V + 2E``)."""
    return (edges[:, 0] >= V) & (edges[:, 1] < V + 2 * E)


def _face_table(mesh: Mesh, provenance: Provenance) -> tuple:
    """Per face of ``mesh``, which the step with record ``provenance`` made:
    its middle edge, its designated bend and the middle edge at that bend,
    each in :data:`~.mesh_core.INDEX_DTYPE`.

    :class:`InvalidParameterError` for a record of another step (``mesh``
    without the counts and pentagons it gives) and for a mesh numbered
    otherwise: a face without exactly one middle edge, middle edges that
    are not the bend pairs, a designated vertex that is no bend point of
    another middle edge, or one designated twice.
    """
    counts = astuple(provenance) if isinstance(provenance, Provenance) \
        else None
    if counts is None or (np.diff(mesh.face_starts) != 5).any() \
            or _step_counts(counts, mesh.face_count) != _counts(mesh):
        raise InvalidParameterError(
            f"{provenance!r} does not describe the snub step that made "
            f"{mesh!r} (the record of another step?)")
    V, E, _ = counts
    is_middle = _middle_mask(mesh.edges, V, E)
    hit = is_middle[mesh.face_edge_flat]
    per_face = hit.reshape(-1, 5).sum(axis=1)
    bad = np.flatnonzero(per_face != 1)
    if len(bad):
        raise InvalidParameterError(
            f"face {int(bad[0])} has {int(per_face[bad[0]])} bend-middle "
            f"edges by the snub step's numbering, expected 1 (a mesh "
            f"numbered otherwise?)")
    middles = np.flatnonzero(is_middle).astype(INDEX_DTYPE)
    ends = mesh.edges[middles].ravel()
    if len(ends) != 2 * E or (ends != np.arange(V, V + 2 * E)).any():
        raise InvalidParameterError(
            f"the middle edges are not the {E} bend pairs (V + 2e, V + 2e + "
            f"1) for V = {V} (a mesh numbered otherwise?)")

    slot = np.flatnonzero(hit)
    middle = mesh.face_edge_flat[slot]
    bend = mesh.face_vertex_flat[slot - slot % 5 + (slot + 3) % 5]
    bend_edge = (bend - V) // 2
    off = (bend < V) | (bend >= V + 2 * E) \
        | (bend_edge == (mesh.edges[middle, 0] - V) // 2)
    if off.any():
        f = int(np.flatnonzero(off)[0])
        raise InvalidParameterError(
            f"face {f} designates vertex {int(bend[f])}, not a bend point of "
            f"another middle edge (a mesh numbered otherwise?)")
    count = np.bincount(bend - V, minlength=2 * E)
    if count.max() > 1:
        v = V + int(np.argmax(count > 1))
        raise InvalidParameterError(
            f"bend point {v} is designated by {int(count[v - V])} faces, "
            f"expected 1 (a mesh numbered otherwise?)")
    return middle, bend, middles[bend_edge]


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

    A mesh's index arrays are :data:`~.mesh_core.INDEX_DTYPE` (int32), so
    a depth whose meshes would have more than ``2**31 - 1`` vertices, edges
    or face slots raises :class:`~.errors.DepthTooLargeError`, naming the
    first step that would, before any step runs: the counts follow from
    the count recursion alone.  A pentagon reaches that at step 13.
    """
    _require_record(mesh, Mesh, "mesh")
    steps = _checked_int(steps, "steps", 0)
    if not isinstance(smoothing, (bool, np.bool_)):
        raise InvalidParameterError(
            f"smoothing must be a bool, got {smoothing!r}")
    # checked before the loop too, for a history of no steps
    seed_flag = _checked_flag(seed_flag)
    _check_depth(mesh, steps)
    meshes = [mesh]
    records: list[StepRecord] = []
    current = mesh
    if smoothing:
        inner = mesh.inner_vertex_mask
        faces_at = np.bincount(mesh.face_vertex_flat,
                               minlength=mesh.vertex_count)
    for _ in range(steps):
        s = assign_z_orientations(seed_flag)
        counts = _counts(current)
        arrays, centroids = _refine(current, s, _positions(current, s))
        # a mesh of views, so the arrays stay writeable for smoothing
        refined = Mesh(*(a.view() for a in arrays))
        _check_count_recursion(counts, len(current.face_vertex_flat), refined)
        if smoothing:
            inner = _refined_inner(current, inner)
            faces_at = _refined_faces_at(current, faces_at)
            _smooth(*arrays[:3], centroids, inner, faces_at)
        records.append(StepRecord(provenance=Provenance(*counts)))
        current = Mesh(*arrays)
        meshes.append(current)
    return SubdivisionHistory(meshes=meshes, records=records,
                              smoothing=bool(smoothing), seed_flag=seed_flag)
