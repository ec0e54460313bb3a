"""Frozen loop implementations of the classic subdivision schemes (test oracle).

These are the per-vertex and per-edge Python loops the comparison schemes
were first written with: neighbour lists built edge by edge, a dictionary
edge index and per-wing ``mesh.face()`` sums for the butterfly, per-edge
face lists for sqrt-3 and a per-vertex ``fan_next`` dictionary for the
mid-edge vertex faces.  They are kept verbatim, apart from imports, so the
array implementations in :mod:`snubweave.classic_schemes` can be checked
against them bit for bit.  They are slow; use small inputs.
``ElementClass`` and ``classify`` are verbatim copies of the inner/outer
classification the library had then (it now reads inner vertices off
``Mesh.inner_vertex_mask``), and ``SchemeStepResult`` is a verbatim copy of
the record type the library had then, and ``OriginKind`` a verbatim copy
of the enum its ``vertex_origin_kind`` holds (the library has since dropped
both arrays, which restate the block sizes of the step's numbering).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import math

import numpy as np

from snubweave.errors import NotTriangleMeshError
from snubweave.mesh_core import Mesh, build_mesh


class OriginKind(IntEnum):
    """What a refined-mesh vertex was created from."""

    OLD_VERTEX = 0
    EDGE_MIDPOINT = 1
    FACE_CENTER = 2


@dataclass(frozen=True)
class SchemeStepResult:
    """One scheme application: the refined mesh plus per-vertex origins.

    ``vertex_origin_id[v]`` indexes into the source mesh's vertices, edges,
    or faces according to ``vertex_origin_kind[v]``.  For
    :func:`doo_sabin_step` (defined as two mid-edge applications) the ids
    reference the *intermediate* mesh, which is carried in ``intermediate``.
    ``flipped_edges`` lists the source-mesh edges re-connected by
    :func:`sqrt3_step`; it is empty for every other scheme.
    """

    mesh: Mesh
    vertex_origin_kind: np.ndarray
    vertex_origin_id: np.ndarray
    flipped_edges: np.ndarray
    source: Mesh
    intermediate: "SchemeStepResult | None" = None


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


def _require_triangles(mesh: Mesh, scheme: str) -> None:
    if (mesh.face_sizes != 3).any():
        raise NotTriangleMeshError(f"{scheme} requires a pure triangle mesh")


def _neighbor_lists(mesh: Mesh):
    """All neighbors per vertex, and boundary neighbors per vertex."""
    neighbors = [[] for _ in range(mesh.vertex_count)]
    boundary_neighbors = [[] for _ in range(mesh.vertex_count)]
    boundary = mesh.boundary_edge_mask
    for e, (a, b) in enumerate(np.asarray(mesh.edges)):
        neighbors[a].append(int(b))
        neighbors[b].append(int(a))
        if boundary[e]:
            boundary_neighbors[a].append(int(b))
            boundary_neighbors[b].append(int(a))
    return neighbors, boundary_neighbors


def _triangle_opposites(mesh: Mesh):
    """Per edge: the opposite vertex in the left / right face (or -1)."""
    face_sum = mesh.face_vertex_flat.reshape(-1, 3).sum(1)
    a = mesh.edges[:, 0]
    b = mesh.edges[:, 1]
    left = np.where(mesh.edge_left >= 0,
                    face_sum[mesh.edge_left] - a - b, -1)
    right = np.where(mesh.edge_right >= 0,
                     face_sum[mesh.edge_right] - a - b, -1)
    return left, right


def _one_to_four_faces(mesh: Mesh):
    """The standard triangle split: three corner triangles plus the core.

    Returned as flat CSR arrays ``(face_vertex_flat, face_starts)``.
    """
    a, b, c = mesh.face_vertex_flat.reshape(-1, 3).T
    m_ab, m_bc, m_ca = (mesh.vertex_count
                        + mesh.face_edge_flat.reshape(-1, 3).T)
    flat = np.stack([a, m_ab, m_ca, b, m_bc, m_ab, c, m_ca, m_bc,
                     m_ab, m_bc, m_ca], axis=1).ravel()
    return flat, np.arange(0, len(flat) + 1, 3)


def _origins_old_plus_edges(mesh: Mesh):
    kind = np.concatenate([
        np.full(mesh.vertex_count, OriginKind.OLD_VERTEX, dtype=np.int8),
        np.full(mesh.edge_count, OriginKind.EDGE_MIDPOINT, dtype=np.int8)])
    ids = np.concatenate([np.arange(mesh.vertex_count, dtype=np.int64),
                          np.arange(mesh.edge_count, dtype=np.int64)])
    return kind, ids


def loop_step(mesh: Mesh) -> SchemeStepResult:
    """One approximating 1-to-4 triangle refinement.

    Edge vertices use the 3/8, 3/8, 1/8, 1/8 stencil on interior edges and
    the midpoint on boundary edges.  Old interior vertices of degree ``d``
    move to ``(1 - d*beta) v + beta * (neighbor sum)`` with ``beta = 3/16``
    for degree 3 and ``3/(8d)`` otherwise; old boundary vertices use the
    1/8, 3/4, 1/8 rule along the boundary.
    """
    _require_triangles(mesh, "loop_step")
    pos = np.asarray(mesh.positions)
    opp_l, opp_r = _triangle_opposites(mesh)
    boundary = mesh.boundary_edge_mask

    edge_pos = np.empty((mesh.edge_count, 2))
    a = mesh.edges[:, 0]
    b = mesh.edges[:, 1]
    inner = ~boundary
    edge_pos[boundary] = (pos[a[boundary]] + pos[b[boundary]]) / 2.0
    edge_pos[inner] = (3.0 / 8.0 * (pos[a[inner]] + pos[b[inner]])
                       + 1.0 / 8.0 * (pos[opp_l[inner]] + pos[opp_r[inner]]))

    neighbors, boundary_neighbors = _neighbor_lists(mesh)
    old_pos = pos.copy()
    for v in range(mesh.vertex_count):
        if boundary_neighbors[v]:
            b1, b2 = boundary_neighbors[v][0], boundary_neighbors[v][1]
            old_pos[v] = (pos[b1] + 6.0 * pos[v] + pos[b2]) / 8.0
        elif neighbors[v]:
            d = len(neighbors[v])
            beta = 3.0 / 16.0 if d == 3 else 3.0 / (8.0 * d)
            old_pos[v] = ((1.0 - d * beta) * pos[v]
                          + beta * pos[neighbors[v]].sum(axis=0))

    refined = build_mesh(np.vstack([old_pos, edge_pos]),
                         _one_to_four_faces(mesh))
    kind, ids = _origins_old_plus_edges(mesh)
    return SchemeStepResult(mesh=refined, vertex_origin_kind=kind,
                            vertex_origin_id=ids,
                            flipped_edges=np.empty(0, dtype=np.int64),
                            source=mesh)


def butterfly_step(mesh: Mesh) -> SchemeStepResult:
    """One interpolating 1-to-4 triangle refinement.

    Old vertices keep their positions bitwise.  Interior edge vertices use
    the eight-point stencil (1/2 endpoints, 1/8 the two opposite vertices,
    -1/16 the four wing vertices, i.e. tension 1/16); a wing across a
    boundary edge is synthesized by parallelogram reflection.  Boundary
    edge vertices are midpoints.
    """
    _require_triangles(mesh, "butterfly_step")
    pos = np.asarray(mesh.positions)
    boundary = mesh.boundary_edge_mask
    edges = np.asarray(mesh.edges)
    edge_index = {}
    for e, (u, v) in enumerate(edges):
        edge_index[(int(u), int(v))] = e

    def opposite_in(f: int, u: int, v: int) -> int:
        return int(sum(mesh.face(f)) - u - v)

    def wing(u: int, v: int, behind: int) -> np.ndarray:
        """Vertex across edge (u, v) seen from the triangle holding ``behind``."""
        e = edge_index[(u, v) if u < v else (v, u)]
        f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        for cand in (f, g):
            if cand >= 0 and opposite_in(cand, u, v) != behind:
                return pos[opposite_in(cand, u, v)]
        return pos[u] + pos[v] - pos[behind]   # boundary: reflect

    edge_pos = np.empty((mesh.edge_count, 2))
    for e, (u, v) in enumerate(edges):
        u, v = int(u), int(v)
        if boundary[e]:
            edge_pos[e] = (pos[u] + pos[v]) / 2.0
            continue
        c = opposite_in(int(mesh.edge_left[e]), u, v)
        d = opposite_in(int(mesh.edge_right[e]), u, v)
        wings = (wing(u, c, v) + wing(v, c, u)
                 + wing(u, d, v) + wing(v, d, u))
        edge_pos[e] = (0.5 * (pos[u] + pos[v])
                       + 0.125 * (pos[c] + pos[d]) - wings / 16.0)

    refined = build_mesh(np.vstack([pos, edge_pos]), _one_to_four_faces(mesh))
    kind, ids = _origins_old_plus_edges(mesh)
    return SchemeStepResult(mesh=refined, vertex_origin_kind=kind,
                            vertex_origin_id=ids,
                            flipped_edges=np.empty(0, dtype=np.int64),
                            source=mesh)


def sqrt3_step(mesh: Mesh) -> SchemeStepResult:
    """One sqrt-3 triangle refinement.

    A vertex is inserted at every face barycenter and connected to the
    face's corners, then every interior edge is flipped to join the two new
    barycenters; two applications cut every original triangle into nine.
    Old interior vertices relax with weight ``alpha_n = (4 - 2 cos(2 pi /
    n)) / 9``; boundary vertices and edges stay fixed.
    """
    _require_triangles(mesh, "sqrt3_step")
    pos = np.asarray(mesh.positions)
    centers = mesh.face_centroids()
    V = mesh.vertex_count

    neighbors, boundary_neighbors = _neighbor_lists(mesh)
    old_pos = pos.copy()
    for v in range(mesh.vertex_count):
        if boundary_neighbors[v] or not neighbors[v]:
            continue
        n = len(neighbors[v])
        alpha = (4.0 - 2.0 * math.cos(2.0 * math.pi / n)) / 9.0
        old_pos[v] = ((1.0 - alpha) * pos[v]
                      + alpha / n * pos[neighbors[v]].sum(axis=0))

    faces = []
    boundary = mesh.boundary_edge_mask
    for e, (a, b) in enumerate(np.asarray(mesh.edges)):
        a, b = int(a), int(b)
        f = int(mesh.edge_left[e])
        g = int(mesh.edge_right[e])
        if boundary[e]:
            keeper = f if f >= 0 else g
            if keeper == g:
                a, b = b, a          # walk the edge as its face does
            faces.append([a, b, V + keeper])
        else:
            faces.append([a, V + g, V + f])
            faces.append([b, V + f, V + g])

    refined = build_mesh(np.vstack([old_pos, centers]), faces)
    kind = np.concatenate([
        np.full(V, OriginKind.OLD_VERTEX, dtype=np.int8),
        np.full(mesh.face_count, OriginKind.FACE_CENTER, dtype=np.int8)])
    ids = np.concatenate([np.arange(V, dtype=np.int64),
                          np.arange(mesh.face_count, dtype=np.int64)])
    return SchemeStepResult(mesh=refined, vertex_origin_kind=kind,
                            vertex_origin_id=ids,
                            flipped_edges=np.flatnonzero(~boundary),
                            source=mesh)


def midedge_step(mesh: Mesh) -> SchemeStepResult:
    """One mid-edge (simplest) refinement.

    The refined vertices are exactly the edge midpoints.  Each original
    face contributes the cycle of its edge midpoints; each original vertex
    whose edges are all interior contributes the cycle of its incident-edge
    midpoints (a face of the same degree).  Boundary corners fall away,
    which shrinks the outline; near the boundary the clipping can leave
    refined faces touching only at a shared midpoint, so the result is
    built with the pinched-boundary check relaxed.
    """
    midpoints = (np.asarray(mesh.positions)[mesh.edges[:, 0]]
                 + np.asarray(mesh.positions)[mesh.edges[:, 1]]) / 2.0

    faces = [[int(e) for e in mesh.face_edges(f)]
             for f in range(mesh.face_count)]

    # one face per fully interior vertex: walk its corners fan-wise
    classes = classify(mesh)
    fan_next = [{} for _ in range(mesh.vertex_count)]   # in-edge -> out-edge
    for f in range(mesh.face_count):
        cycle = mesh.face(f)
        face_edges = mesh.face_edges(f)
        n = len(cycle)
        for k in range(n):
            fan_next[cycle[k]][int(face_edges[(k - 1) % n])] = \
                int(face_edges[k])
    for v in classes.inner_vertex_ids:
        chain = fan_next[int(v)]
        start = next(iter(chain))
        cycle = []
        e = start
        while True:
            e = chain[e]
            cycle.append(e)
            if e == start:
                break
        faces.append(cycle[::-1])

    refined = build_mesh(midpoints, faces, allow_pinched_boundary=True)
    kind = np.full(mesh.edge_count, OriginKind.EDGE_MIDPOINT, dtype=np.int8)
    ids = np.arange(mesh.edge_count, dtype=np.int64)
    return SchemeStepResult(mesh=refined, vertex_origin_kind=kind,
                            vertex_origin_id=ids,
                            flipped_edges=np.empty(0, dtype=np.int64),
                            source=mesh)


def catmull_clark_step(mesh: Mesh) -> SchemeStepResult:
    """One Catmull-Clark refinement (all output faces quadrilaterals).

    Face points at face vertex centroids; interior edge points average the
    edge's endpoints and the two adjacent face points; boundary edge points
    at midpoints.  Old interior vertices of degree ``d`` move to
    ``(Q + 2R + (d - 3) v) / d`` (``Q``: mean incident face point, ``R``:
    mean incident edge midpoint); old boundary vertices use the 1/8, 3/4,
    1/8 boundary rule.
    """
    pos = np.asarray(mesh.positions)
    V, E = mesh.vertex_count, mesh.edge_count
    face_pts = mesh.face_centroids()
    boundary = mesh.boundary_edge_mask
    a = mesh.edges[:, 0]
    b = mesh.edges[:, 1]

    edge_pts = np.empty((E, 2))
    edge_pts[boundary] = (pos[a[boundary]] + pos[b[boundary]]) / 2.0
    inner = ~boundary
    edge_pts[inner] = (pos[a[inner]] + pos[b[inner]]
                       + face_pts[mesh.edge_left[inner]]
                       + face_pts[mesh.edge_right[inner]]) / 4.0

    neighbors, boundary_neighbors = _neighbor_lists(mesh)
    vertex_faces = [[] for _ in range(V)]
    for f in range(mesh.face_count):
        for v in mesh.face(f):
            vertex_faces[v].append(f)
    old_pos = pos.copy()
    midpoints = (pos[a] + pos[b]) / 2.0
    vertex_edges = [[] for _ in range(V)]
    for e in range(E):
        vertex_edges[int(a[e])].append(e)
        vertex_edges[int(b[e])].append(e)
    for v in range(V):
        if boundary_neighbors[v]:
            b1, b2 = boundary_neighbors[v][0], boundary_neighbors[v][1]
            old_pos[v] = (pos[b1] + 6.0 * pos[v] + pos[b2]) / 8.0
        elif vertex_edges[v]:
            d = len(vertex_edges[v])
            q = face_pts[vertex_faces[v]].mean(axis=0)
            r = midpoints[vertex_edges[v]].mean(axis=0)
            old_pos[v] = (q + 2.0 * r + (d - 3.0) * pos[v]) / d

    # one quad per face corner: vertex, next edge, face, previous edge
    prev = np.empty_like(mesh.slot_next)
    prev[mesh.slot_next] = np.arange(len(prev))
    edge_of_slot = V + mesh.face_edge_flat
    quads = np.column_stack((mesh.face_vertex_flat, edge_of_slot,
                             V + E + mesh.slot_face, edge_of_slot[prev]))

    refined = build_mesh(np.vstack([old_pos, edge_pts, face_pts]),
                         (quads.ravel(), np.arange(0, quads.size + 1, 4)))
    kind = np.concatenate([
        np.full(V, OriginKind.OLD_VERTEX, dtype=np.int8),
        np.full(E, OriginKind.EDGE_MIDPOINT, dtype=np.int8),
        np.full(mesh.face_count, OriginKind.FACE_CENTER, dtype=np.int8)])
    ids = np.concatenate([np.arange(V, dtype=np.int64),
                          np.arange(E, dtype=np.int64),
                          np.arange(mesh.face_count, dtype=np.int64)])
    return SchemeStepResult(mesh=refined, vertex_origin_kind=kind,
                            vertex_origin_id=ids,
                            flipped_edges=np.empty(0, dtype=np.int64),
                            source=mesh)


def doo_sabin_step(mesh: Mesh) -> SchemeStepResult:
    """One Doo-Sabin-equivalent refinement, defined as two mid-edge steps.

    The returned origin records reference the intermediate mesh (carried in
    ``intermediate``), since each output vertex is the midpoint of an
    intermediate edge.
    """
    first = midedge_step(mesh)
    second = midedge_step(first.mesh)
    return SchemeStepResult(mesh=second.mesh,
                            vertex_origin_kind=second.vertex_origin_kind,
                            vertex_origin_id=second.vertex_origin_id,
                            flipped_edges=np.empty(0, dtype=np.int64),
                            source=mesh, intermediate=first)
