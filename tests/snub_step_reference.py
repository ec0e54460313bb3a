"""Frozen snub step as it was before its checks became one geometry pass
(test oracle).

The refinement ``_refine`` with its two check passes: the half-plane rule
verified on about a dozen per-slot gathers before the mesh is built, then
the refined mesh's signed areas and edge lengths measured afresh; and
smoothing, which recomputes the face centroids.  They are kept verbatim,
apart from imports and the small loop ``subdivide`` (the one of
``snub_subdivide``), so the library's step can be checked against them bit
for bit: meshes, provenance, errors and log records.  The log records go to
this module's own logger.  ``_reject_zero_length_edges`` is a verbatim copy
of the edge-table check ``mesh_core`` had then, and ``VertexTag``,
``EdgeTag``, ``ParentKind``, ``Provenance`` and ``ZOrientation`` are
verbatim copies of the record types the library had then (it has since
dropped the orientation record, the parent-kind array, which equals
``vertex_tags``, and every per-vertex, per-edge and per-face array, which
restate the step's numbering).  ``ElementClass`` and
``classify`` are verbatim copies of the inner/outer classification the
library had then (it now reads inner vertices off
``Mesh.inner_vertex_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import logging
import math

import numpy as np

from snubweave.errors import (
    AmbiguousHalfPlaneError,
    DegenerateFaceError,
    NonManifoldError,
)
from snubweave.mesh_core import (
    Mesh,
    _reject_pinched_boundary,
)

logger = logging.getLogger(__name__)


class VertexTag(IntEnum):
    """How a vertex of a refined mesh came to exist."""

    ORIGINAL = 0      # carried over from the previous mesh
    Z_VERTEX = 1      # one of the two bend points replacing an edge
    BARYCENTER = 2    # inserted at a face's vertex centroid


class EdgeTag(IntEnum):
    """Role of an edge in a refined mesh."""

    ORIGINAL = 0      # edge of an unrefined mesh
    Z_MIDDLE = 1      # middle segment of a bend triplet
    Z_OUTER = 2       # first or last segment of a bend triplet
    SPOKE = 3         # connection between a bend point and a barycenter


class ParentKind(IntEnum):
    """What source element a refined vertex descends from."""

    VERTEX = 0
    EDGE = 1
    FACE = 2


@dataclass(frozen=True)
class Provenance:
    """Per-element role tags for one refinement step, plus lineage maps.

    ``vertex_tags`` and ``edge_tags`` label every vertex/edge of the refined
    mesh with a :class:`VertexTag` / :class:`EdgeTag` value.  The optional
    lineage fields record where each element came from:

    * ``vertex_parent_kind[v]`` / ``vertex_parent_id[v]`` — the source
      vertex, edge, or face of the previous mesh that produced vertex ``v``;
    * ``face_parent[f]`` — the source face that produced face ``f``;
    * ``source`` — the mesh the step was applied to.
    """

    vertex_tags: np.ndarray
    edge_tags: np.ndarray
    vertex_parent_kind: np.ndarray | None = None
    vertex_parent_id: np.ndarray | None = None
    face_parent: np.ndarray | None = None
    source: "Mesh | None" = None


@dataclass(frozen=True)
class ZOrientation:
    """The bend side shared by every edge.

    ``seed_flag`` is +1 when, looking along any edge from its lower-index
    endpoint to its higher-index endpoint, the bend point near the
    lower-index endpoint lies to the *left*; -1 when it lies to the right.
    The reading is direction-symmetric (reversing the viewing direction
    swaps both the reference endpoint and left/right), so the same value
    serves both incident faces.
    """

    seed_flag: int


@dataclass(frozen=True)
class ElementClass:
    """Inner/outer classification of every edge and vertex of a mesh.

    ``edge_is_inner[e]`` is true when edge ``e`` has two incident faces;
    ``vertex_is_inner[v]`` is true when vertex ``v`` has at least one
    incident edge and every incident edge is inner.
    """

    edge_is_inner: np.ndarray
    vertex_is_inner: np.ndarray

    @property
    def inner_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_is_inner)

    @property
    def outer_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.edge_is_inner)

    @property
    def inner_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(self.vertex_is_inner)

    @property
    def outer_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.vertex_is_inner)


def classify(mesh: Mesh) -> ElementClass:
    """Split edges and vertices into inner and outer classes."""
    edge_is_inner = (mesh.edge_left >= 0) & (mesh.edge_right >= 0)
    V = mesh.vertex_count
    has_edge = np.zeros(V, dtype=bool)
    if mesh.edge_count:
        has_edge[mesh.edges.ravel()] = True
    on_outer = np.zeros(V, dtype=bool)
    outer_edges = mesh.edges[~edge_is_inner]
    if len(outer_edges):
        on_outer[outer_edges.ravel()] = True
    return ElementClass(edge_is_inner=edge_is_inner,
                        vertex_is_inner=has_edge & ~on_outer)


_SQRT3 = math.sqrt(3.0)


def _reject_zero_length_edges(positions: np.ndarray,
                              edges: np.ndarray) -> None:
    """Raise :class:`DegenerateFaceError` for an edge whose ends coincide."""
    zero_len = np.all(np.take(positions, edges[:, 0], axis=0)
                      == np.take(positions, edges[:, 1], axis=0), axis=1)
    if zero_len.any():
        a, b = edges[int(np.flatnonzero(zero_len)[0])]
        raise DegenerateFaceError(f"edge ({int(a)}, {int(b)}) has zero length")


def _bend_points(mesh: Mesh, s: int):
    """Positions of the two bend points of every edge for flag ``s``."""
    pa = mesh.positions[mesh.edges[:, 0]]
    pb = mesh.positions[mesh.edges[:, 1]]
    d = pb - pa
    near_a = np.empty_like(pa)
    near_a[:, 0] = pa[:, 0] + (5.0 * d[:, 0] - s * _SQRT3 * d[:, 1]) / 14.0
    near_a[:, 1] = pa[:, 1] + (s * _SQRT3 * d[:, 0] + 5.0 * d[:, 1]) / 14.0
    near_b = pa + pb - near_a
    return near_a, near_b


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
    _reject_zero_length_edges(refined.positions, refined.edges)


def _refine(source: Mesh, orient: ZOrientation) -> tuple[Mesh, Provenance]:
    """Operations 1-3: the pentagon mesh and its provenance.

    Each source slot gives one pentagon, a fixed row of five chosen by the
    flag (see the module docstring).  The stated half-plane rule is
    verified for every spoke before the mesh is built: any disagreement
    with it, or with plain nearest-barycenter distance, is logged (never
    asserted).
    """
    _reject_pinched_boundary(source.edges, source.edge_left,
                             source.edge_right, source.vertex_count)
    V, E, F = source.vertex_count, source.edge_count, source.face_count
    s = orient.seed_flag
    k = (1 - s) // 2
    near_a, near_b = _bend_points(source, s)
    positions = np.empty((V + 2 * E + F, 2))
    positions[:V] = source.positions
    positions[V:V + 2 * E:2] = near_a
    positions[V + 1:V + 2 * E:2] = near_b
    positions[V + 2 * E:] = source.face_centroids()

    # per source slot: the bend points met walking the slot's edge, and the
    # one of them on the face's side, which gets the spoke
    flat = source.face_vertex_flat
    nxt = source.slot_next
    e_slot = source.face_edge_flat
    slot_face = source.slot_face
    walk_first = np.where(flat == source.edges[e_slot, 0],
                          V + 2 * e_slot, V + 2 * e_slot + 1)
    walk_second = (2 * V + 4 * e_slot + 1) - walk_first
    spoke_z = (walk_first, walk_second)[k]
    bary = V + 2 * E + slot_face
    corner_next = flat[nxt]
    _verify_half_plane_rule(source, positions, spoke_z, bary, flat,
                            corner_next, e_slot)

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

    # one pentagon per source slot, written column by column: the vertex
    # row and, entry j joining vertices j and j + 1, its edge row
    n = len(flat)
    out_flat = np.empty(5 * n, dtype=np.int64)
    out_edge = np.empty(5 * n, dtype=np.int64)
    rows = out_flat.reshape(n, 5)
    row_edges = out_edge.reshape(n, 5)
    chain = (walk_first, walk_second, corner_next, walk_first[nxt],
             walk_second[nxt])
    links = (mid_id[e_slot], outer_id[walk_second - V],
             outer_id[walk_first[nxt] - V], mid_id[e_slot[nxt]])
    spoke_here = spoke_id[spoke_z - V]
    rows[:, 0] = bary
    row_edges[:, 0] = spoke_here
    for j, column in enumerate(chain[k:k + 4], start=1):
        rows[:, j] = column
    for j, column in enumerate(links[k:k + 3], start=1):
        row_edges[:, j] = column
    row_edges[:, 4] = spoke_here[nxt]

    # each slot's face is left of its edge when walked from lower to higher
    # vertex id, right otherwise
    sides = np.full((2, E_out), -1, dtype=np.int64)
    sides[(rows > np.roll(rows, -1, axis=1)).astype(np.int8), row_edges] = \
        np.arange(n, dtype=np.int64)[:, None]
    edge_left, edge_right = sides

    refined = Mesh(positions, out_flat,
                   np.arange(0, 5 * n + 1, 5, dtype=np.int64), edges,
                   edge_left, edge_right, out_edge)
    _check_refined_geometry(refined)

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
            logger.debug(
                "nearest-barycenter distance disagreed with the half-plane "
                "rule for %d spokes", int(disagree.sum()))



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



def subdivide(mesh: Mesh, steps: int, smoothing: bool = True,
              seed_flag: int = 1) -> tuple[list[Mesh], list[Provenance]]:
    """The meshes ``M_0 .. M_steps`` and the provenance of every step."""
    meshes, provenances = [mesh], []
    current = mesh
    for _ in range(steps):
        refined, prov = _refine(current, ZOrientation(seed_flag=seed_flag))
        result = (smooth_inner_vertices(refined, classify(refined))
                  if smoothing else refined)
        meshes.append(result)
        provenances.append(prov)
        current = result
    return meshes, provenances
