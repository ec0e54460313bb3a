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

The bend direction of each Z is controlled by a per-edge side flag.  A
geometric fact makes flag assignment trivial: reversing an edge's direction
swaps both the reference endpoint and left/right, so the flag reads the same
from both incident faces, and the all-pentagon structure forces one global
flag value.  The two values (+1/-1) produce mirror-image refinements.

Positions use an exact closed form: on an edge from ``a`` to ``b`` with
``d = b - a``, the bend point near ``a`` for flag ``s`` is
``a + ((5*dx - s*sqrt(3)*dy) / 14, (s*sqrt(3)*dx + 5*dy) / 14)``, i.e. the
edge direction rotated by ``s * atan(sqrt(3)/5)`` and scaled by
``1/sqrt(7)``; the bend point near ``b`` mirrors it through the midpoint.

Operations 1-3 are built in one pass from closed-form connectivity, with no
edge hashing.  For a source mesh with ``V`` vertices, edges ``(lo, hi)`` and
``F`` faces, edge ``e`` gets the bend points ``V + 2e`` (near ``lo``) and
``V + 2e + 1``, and face ``f`` the barycenter ``V + 2E + f``; source face
slot ``i`` becomes refined face ``i``.  The refined edge table is written
directly in the sorted ``(lo, hi)`` order :func:`~.mesh_core.build_mesh`
would produce: first the ``2E`` outer Z segments ``(source vertex, bend)``,
then, per source edge, its middle segment followed by the spokes at its two
bend points.  That order is load-bearing, because the next step numbers its
bend points by edge id.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging
import math

import numpy as np

from .errors import (
    AmbiguousHalfPlaneError,
    DegenerateFaceError,
    InternalInvariantError,
    InvalidParameterError,
    NonManifoldError,
)
from .mesh_core import (
    EdgeTag,
    ElementClass,
    Mesh,
    ParentKind,
    Provenance,
    VertexTag,
    classify,
)

__all__ = [
    "ALPHA",
    "ZOrientation",
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


@dataclass(frozen=True)
class ZOrientation:
    """Bend-side flags, one per undirected edge.

    ``edge_flags[e]`` is +1 when, looking along the edge from its
    lower-index endpoint to its higher-index endpoint, the bend point near
    the lower-index endpoint lies to the *left*; -1 when it lies to the
    right.  The reading is direction-symmetric (reversing the viewing
    direction swaps both the reference endpoint and left/right), so the
    same value serves both incident faces.
    """

    edge_flags: np.ndarray
    seed_flag: int

    def flag_between(self, mesh: Mesh, u: int, v: int) -> int:
        """Bend-side flag of the edge joining ``u`` and ``v``.

        The value is the same whichever way the pair is given (the reading
        is direction-symmetric; see the class docstring).
        """
        return int(self.edge_flags[mesh.edge_id(u, v)])


def assign_z_orientations(mesh: Mesh, seed_flag: int = 1) -> ZOrientation:
    """Choose a bend side for every edge.

    Consistency around every face requires all edges of the face to carry
    the same flag, and sharing an edge transfers that requirement to the
    neighboring face, so on a connected mesh one edge's flag determines
    every flag: all edges receive ``seed_flag``.  The two possible values
    yield mirror refinements.
    """
    if seed_flag not in (1, -1):
        raise InvalidParameterError(f"seed flag must be +1 or -1, got {seed_flag}")
    flags = np.full(mesh.edge_count, seed_flag, dtype=np.int8)
    return ZOrientation(edge_flags=flags, seed_flag=int(seed_flag))


# ---------------------------------------------------------------------------
# operations 1-3: bend points, barycenters and spokes in one pass
# ---------------------------------------------------------------------------

def _bend_points(mesh: Mesh, orient: ZOrientation):
    """Positions of the two bend points of every edge, shape (E, 2) each."""
    pa = mesh.positions[mesh.edges[:, 0]]
    pb = mesh.positions[mesh.edges[:, 1]]
    d = pb - pa
    s = orient.edge_flags.astype(np.float64)
    near_a = np.empty_like(pa)
    near_a[:, 0] = pa[:, 0] + (5.0 * d[:, 0] - s * _SQRT3 * d[:, 1]) / 14.0
    near_a[:, 1] = pa[:, 1] + (s * _SQRT3 * d[:, 0] + 5.0 * d[:, 1]) / 14.0
    near_b = pa + pb - near_a
    return near_a, near_b


def _edge_flags_from_bends(source: Mesh, positions: np.ndarray) -> np.ndarray:
    """Read every edge's bend side back from its bend point ``V + 2e``.

    Flag +1 means that bend point lies left of the edge walked from its
    lower- to its higher-index endpoint.  A bend point exactly on its edge
    raises :class:`AmbiguousHalfPlaneError`.
    """
    V, E = source.vertex_count, source.edge_count
    pa = source.positions[source.edges[:, 0]]
    d = source.positions[source.edges[:, 1]] - pa
    zna = positions[V:V + 2 * E:2] - pa
    bend_cross = d[:, 0] * zna[:, 1] - d[:, 1] * zna[:, 0]
    if (bend_cross == 0.0).any():
        raise AmbiguousHalfPlaneError(
            "a bend point lies exactly on its source edge")
    return np.where(bend_cross > 0.0, 1, -1).astype(np.int64)


def _check_source_boundary(source: Mesh) -> None:
    """Reject a source whose boundary is pinched; the refinement keeps it."""
    boundary = source.edges[(source.edge_left < 0) | (source.edge_right < 0)]
    bdeg = np.bincount(boundary.ravel(), minlength=source.vertex_count)
    bad_v = np.flatnonzero((bdeg != 0) & (bdeg != 2))
    if len(bad_v):
        raise NonManifoldError(
            f"boundary is pinched at vertex {int(bad_v[0])} "
            f"({int(bdeg[bad_v[0]])} boundary edges meet there)")


def _check_refined_geometry(refined: Mesh) -> None:
    """The failures the construction's structure does not rule out.

    A zero-area face or a zero-length edge raises
    :class:`DegenerateFaceError`; a clockwise (folded) face overlaps its
    neighbors and raises :class:`NonManifoldError`.
    """
    areas = refined.face_signed_areas()
    if (areas == 0.0).any():
        raise DegenerateFaceError(
            f"face {int(np.flatnonzero(areas == 0.0)[0])} has zero area")
    if (areas < 0.0).any():
        raise NonManifoldError(
            f"face {int(np.flatnonzero(areas < 0.0)[0])} is folded over its "
            f"neighbors (clockwise after refinement)")
    zero_len = refined.edge_lengths() == 0.0
    if zero_len.any():
        a, b = refined.edges[int(np.flatnonzero(zero_len)[0])]
        raise DegenerateFaceError(f"edge ({int(a)}, {int(b)}) has zero length")


def _refine(source: Mesh, orient: ZOrientation) -> tuple[Mesh, Provenance]:
    """Operations 1-3: the pentagon mesh and its provenance.

    For every walk position of every source face, the bend point on the
    face's side of the source edge receives a spoke to that face's
    barycenter; the region between consecutive spokes is a pentagon.  The
    faces are built structurally from the bend-side flags, then the stated
    half-plane rule is verified for every spoke: any disagreement with it,
    or with plain nearest-barycenter distance, is logged (never asserted).
    """
    _check_source_boundary(source)
    V, E, F = source.vertex_count, source.edge_count, source.face_count
    near_a, near_b = _bend_points(source, orient)
    positions = np.empty((V + 2 * E + F, 2))
    positions[:V] = source.positions
    positions[V:V + 2 * E:2] = near_a
    positions[V + 1:V + 2 * E:2] = near_b
    positions[V + 2 * E:] = source.face_centroids()
    edge_flags = _edge_flags_from_bends(source, positions)

    # per source slot: the bend points met walking the slot's edge, and the
    # one of them on the face's side, which gets the spoke
    flat = source.face_vertex_flat
    nxt = source.slot_next
    e_slot = source.face_edge_flat
    slot_face = source.slot_face
    s_here = edge_flags[e_slot]
    s_next = s_here[nxt]
    walk_first = np.where(flat == source.edges[e_slot, 0],
                          V + 2 * e_slot, V + 2 * e_slot + 1)
    walk_second = (2 * V + 4 * e_slot + 1) - walk_first
    spoke_z = np.where(s_here == 1, walk_first, walk_second)
    bary = V + 2 * E + slot_face
    corner_next = flat[nxt]

    # edge ids: block 1 holds the outer segment (edges.ravel()[k], V + k) of
    # bend k at rank k of a stable sort by source vertex; block 2 holds, per
    # source edge, the middle segment, then the spokes at V + 2e, V + 2e + 1
    ends = source.edges.ravel()
    order = np.argsort(ends, kind="stable")
    outer_id = np.empty(2 * E, dtype=np.int64)
    outer_id[order] = np.arange(2 * E, dtype=np.int64)
    spoke_face = np.full(2 * E, -1, dtype=np.int64)
    spoke_face[spoke_z - V] = slot_face
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

    # one pentagon per source slot: the barycenter, the spoke's bend point,
    # [the other bend point if the spoke sits first on the edge], the next
    # corner, the next edge's first bend point [and its second one if the
    # next spoke sits there]; each slot also records its edge to the next
    a_bit = (s_here == 1).astype(np.int64)
    b_bit = (s_next == -1).astype(np.int64)
    lens = 4 + a_bit + b_bit
    out_starts = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_starts[1:])
    out_flat = np.empty(out_starts[-1], dtype=np.int64)
    out_edge = np.empty(out_starts[-1], dtype=np.int64)
    p0 = out_starts[:-1]
    spoke_here = spoke_id[spoke_z - V]
    out_flat[p0] = bary
    out_edge[p0] = spoke_here
    out_flat[p0 + 1] = spoke_z
    two = np.flatnonzero(a_bit)
    out_flat[p0[two] + 2] = walk_second[two]
    out_edge[p0[two] + 1] = mid_id[e_slot[two]]
    out_flat[p0 + 2 + a_bit] = corner_next
    out_edge[p0 + 1 + a_bit] = outer_id[walk_second - V]
    out_flat[p0 + 3 + a_bit] = walk_first[nxt]
    out_edge[p0 + 2 + a_bit] = outer_id[walk_first[nxt] - V]
    tail = np.flatnonzero(b_bit)
    out_flat[p0[tail] + 4 + a_bit[tail]] = walk_second[nxt][tail]
    out_edge[p0[tail] + 3 + a_bit[tail]] = mid_id[e_slot[nxt][tail]]
    out_edge[out_starts[1:] - 1] = spoke_here[nxt]

    # each slot's face is left of its edge when walked from lower to higher
    # vertex id, right otherwise
    out_next = np.arange(1, len(out_flat) + 1, dtype=np.int64)
    out_next[out_starts[1:] - 1] = p0
    sides = np.full((2, E_out), -1, dtype=np.int64)
    sides[(out_flat > out_flat[out_next]).astype(np.int64), out_edge] = \
        np.repeat(np.arange(len(flat), dtype=np.int64), lens)
    edge_left, edge_right = sides

    refined = Mesh(positions, out_flat, out_starts, edges,
                   edge_left, edge_right, out_edge)
    _check_refined_geometry(refined)
    _verify_half_plane_rule(source, positions, spoke_z, bary, flat,
                            corner_next, e_slot)

    vertex_tags = np.repeat(np.array([VertexTag.ORIGINAL, VertexTag.Z_VERTEX,
                                      VertexTag.BARYCENTER], dtype=np.int8),
                            (V, 2 * E, F))
    kind = np.repeat(np.array([ParentKind.VERTEX, ParentKind.EDGE,
                               ParentKind.FACE], dtype=np.int8), (V, 2 * E, F))
    pid = np.concatenate([np.arange(V, dtype=np.int64),
                          np.repeat(np.arange(E, dtype=np.int64), 2),
                          np.arange(F, dtype=np.int64)])
    prov = Provenance(vertex_tags=vertex_tags, edge_tags=edge_tags,
                      vertex_parent_kind=kind, vertex_parent_id=pid,
                      face_parent=slot_face.copy(), source=source)
    return refined, prov


def _verify_half_plane_rule(source: Mesh, positions: np.ndarray,
                            spoke_z: np.ndarray, bary: np.ndarray,
                            walk_u: np.ndarray, walk_v: np.ndarray,
                            e_slot: np.ndarray) -> None:
    """Check every structural spoke against the half-plane statement."""
    pu = positions[walk_u]
    pv = positions[walk_v]
    d = pv - pu
    z = positions[spoke_z] - pu
    bc = positions[bary] - pu
    cross_z = d[:, 0] * z[:, 1] - d[:, 1] * z[:, 0]
    cross_b = d[:, 0] * bc[:, 1] - d[:, 1] * bc[:, 0]
    scale = np.hypot(d[:, 0], d[:, 1]) * np.hypot(z[:, 0], z[:, 1])
    ambiguous = np.abs(cross_z) <= 1e-12 * scale
    if ambiguous.any():
        raise AmbiguousHalfPlaneError(
            f"bend point {int(spoke_z[np.flatnonzero(ambiguous)[0]])} lies on "
            f"its source edge's supporting line")
    mism = np.sign(cross_z) != np.sign(cross_b)
    if mism.any():
        logger.warning(
            "half-plane rule disagreed with the bend-side construction for "
            "%d spokes (non-convex source faces?)", int(mism.sum()))

    # nearest-barycenter comparison on interior edges (logged, never asserted)
    e = e_slot
    inner = (source.edge_left[e] >= 0) & (source.edge_right[e] >= 0)
    if inner.any():
        V0, E0 = source.vertex_count, source.edge_count
        other_face = np.where(source.edge_left[e] == bary - V0 - 2 * E0,
                              source.edge_right[e], source.edge_left[e])
        zp = positions[spoke_z]
        d_own = np.hypot(*(positions[bary] - zp).T)
        d_oth = np.hypot(*(positions[V0 + 2 * E0 + other_face] - zp).T)
        disagree = inner & (d_oth < d_own)
        if disagree.any():
            logger.warning(
                "nearest-barycenter distance disagreed with the half-plane "
                "rule for %d spokes", int(disagree.sum()))


# ---------------------------------------------------------------------------
# operation 4: smoothing
# ---------------------------------------------------------------------------

def smooth_inner_vertices(mesh: Mesh, classes: ElementClass) -> Mesh:
    """Move every inner vertex to the mean of its faces' barycenters.

    All moves use the pre-move positions (simultaneous update); outer
    vertices are returned bitwise unchanged.
    """
    barys = mesh.face_centroids()[mesh.slot_face]
    flat = mesh.face_vertex_flat
    V = mesh.vertex_count
    cnt = np.bincount(flat, minlength=V)
    inner = classes.vertex_is_inner & (cnt > 0)
    new_positions = mesh.positions.copy()
    for axis in (0, 1):
        acc = np.bincount(flat, weights=barys[:, axis], minlength=V)
        new_positions[inner, axis] = acc[inner] / cnt[inner]
    return mesh.with_positions(new_positions)


# ---------------------------------------------------------------------------
# multi-step driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """Everything recorded about one refinement step (producing mesh t)."""

    orientation: ZOrientation
    provenance: Provenance
    element_class: ElementClass      # classification of the refined mesh
    fixed_vertices: np.ndarray       # outer-vertex ids (never smoothed)


@dataclass(frozen=True)
class SubdivisionHistory:
    """Meshes ``M_0 .. M_t`` plus per-step lineage records.

    ``records[k]`` describes the step that produced ``meshes[k + 1]``.
    """

    meshes: list[Mesh]
    records: list[StepRecord]
    smoothing: bool

    @property
    def final(self) -> Mesh:
        return self.meshes[-1]

    @property
    def steps(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.meshes)


def _check_count_recursion(source: Mesh, refined: Mesh) -> None:
    sum_n = int(source.face_sizes.sum())
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
    """
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    meshes = [mesh]
    records: list[StepRecord] = []
    current = mesh
    for _ in range(steps):
        orient = assign_z_orientations(current, seed_flag=seed_flag)
        refined, prov = _refine(current, orient)
        _check_count_recursion(current, refined)
        refined_classes = classify(refined)
        result = (smooth_inner_vertices(refined, refined_classes)
                  if smoothing else refined)
        records.append(StepRecord(
            orientation=orient, provenance=prov,
            element_class=refined_classes,
            fixed_vertices=refined_classes.outer_vertex_ids))
        meshes.append(result)
        current = result
    return SubdivisionHistory(meshes=meshes, records=records,
                              smoothing=smoothing)
