"""Comparison subdivision schemes: Loop, butterfly, sqrt-3, mid-edge,
Catmull-Clark, and Doo-Sabin.

Each step returns the refined mesh with the scheme's name and three block
sizes: the refined vertices are the old vertices, then one per source edge,
then one per source face (a scheme leaves out the blocks it does not make),
each block in source order.  That numbering says where every refined
vertex came from; the weaving constructions read it to transport vertex
colorings through refinement.

Every rule is an array gather on the source mesh's tables; Python loops run
over the valence only.  A vertex rule's sum runs over the vertex's edges
(keyed by ``edges.ravel()``, so in edge order) or its face slots (keyed by
``face_vertex_flat``, so in face order), in :mod:`~.mesh_core`'s vertex-sum
order (:func:`~.mesh_core._vertex_sums`).  Wings and opposite corners are
read off the slot twins (:func:`~.mesh_core._slot_twins`) and each slot's
previous slot.

Every refined mesh is written with its sorted edge table, derived in closed
form from the source's tables rather than by hashing the refined faces, and
handed to :func:`~.mesh_core._direct_mesh` for the checks that derivation
cannot rule out; the result equals what :func:`~.mesh_core.build_mesh`
gives for the same faces, errors included, except that a clockwise
(folded) refined face raises :class:`~.errors.NonManifoldError` naming the
lowest such face, where ``build_mesh`` would reverse it and name an edge
walked twice in one direction.  New vertices are numbered
after the old ones, so the edges at an old vertex come first: they are
ranked by a stable argsort of their old ends (``edges.ravel()`` for the
edge vertices ``V + e``, ``face_vertex_flat`` for the sqrt-3 face
centers).  The edges among new vertices follow, ranked by one sort of
their keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import DegenerateFaceError, NotTriangleMeshError
from .mesh_core import (INDEX_DTYPE, Mesh, _direct_mesh, _edge_slots,
                        _grouped, _inverse, _next_slots, _require_record,
                        _slot_faces, _slot_twins, _vertex_sums)

__all__ = [
    "SchemeStepResult",
    "loop_step",
    "butterfly_step",
    "sqrt3_step",
    "midedge_step",
    "catmull_clark_step",
    "doo_sabin_step",
]


@dataclass(frozen=True)
class SchemeStepResult:
    """One scheme application: the refined mesh, the mesh it refined, the
    scheme's name and the sizes of the refined mesh's three vertex blocks.

    The refined vertices come in blocks, in order: ``sizes[0]`` old
    vertices, ``sizes[1]`` edge vertices and ``sizes[2]`` face centers,
    each made from the source's vertices, edges or faces ``0, 1, ...``.
    ``scheme`` is the step's name without ``_step`` (``"loop"``,
    ``"butterfly"``, ``"sqrt3"``, ``"midedge"``, ``"catmull_clark"`` or
    ``"doo_sabin"``); the weaving readers check it.  :func:`doo_sabin_step`
    is two mid-edge applications, so its edge vertices are made from the
    edges of the *intermediate* mesh, carried in ``intermediate``.
    """

    mesh: Mesh
    source: Mesh
    scheme: str
    sizes: tuple[int, int, int]
    intermediate: "SchemeStepResult | None" = None

    @property
    def flipped_edges(self) -> np.ndarray:
        """The source edges :func:`sqrt3_step` re-connected, its inner
        edges in order (empty for every other scheme); built on each read."""
        if self.scheme != "sqrt3":
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(~self.source.boundary_edge_mask)


def _require_triangles(mesh: Mesh, scheme: str) -> None:
    _require_record(mesh, Mesh, "mesh")
    if (mesh.face_sizes != 3).any():
        raise NotTriangleMeshError(f"{scheme} requires a pure triangle mesh")


def _neighbor_sums(mesh: Mesh) -> np.ndarray:
    """Per vertex, its neighbours' positions summed in edge order."""
    return _vertex_sums(mesh.edges.ravel(),
                        mesh.positions[mesh.edges[:, ::-1].ravel()],
                        mesh.vertex_count)


def _boundary_rule(mesh: Mesh, old_pos: np.ndarray,
                   boundary: np.ndarray) -> None:
    """Move each boundary vertex ``v``, in place, to ``(b1 + 6 v + b2) / 8``,
    with ``b1``, ``b2`` its first two neighbours in edge order across the
    ``boundary`` edges (:attr:`~.mesh_core.Mesh.boundary_edge_mask`); a
    boundary vertex has an even number of them."""
    pos = mesh.positions
    ends = mesh.edges[boundary]
    order, offsets = _grouped(ends.ravel(), mesh.vertex_count)
    other = ends[:, ::-1].ravel()[order]
    v = np.flatnonzero(np.diff(offsets))
    b1 = offsets[v]
    old_pos[v] = (pos[other[b1]] + 6.0 * pos[v] + pos[other[b1 + 1]]) / 8.0


def _ranked(lo: np.ndarray, hi: np.ndarray, n: int):
    """The distinct pairs ``(lo, hi)``, entries below ``n``, in sorted order,
    and the place of each pair in that order (by an int64 key)."""
    order = np.argsort(lo.astype(np.int64) * n + hi)
    return np.column_stack((lo[order], hi[order])), _inverse(order)


def _half_edges(mesh: Mesh, prev: np.ndarray):
    """The refined edges ``(v, V + e)`` from each source edge's new vertex
    to the edge's ends, in ``(v, e)`` order, and per slot the ids of those
    along its out-edge and its in-edge, the out-edge of slot ``prev``.

    A stable argsort of ``edges.ravel()`` ranks end ``2e + j`` of edge
    ``e``; a slot's vertex is end ``j = 1`` of an edge exactly when it is
    not the edge's lower end.
    """
    ends = mesh.edges.ravel()
    order = np.argsort(ends, kind="stable")
    rank = _inverse(order)
    table = np.column_stack((ends[order], mesh.vertex_count + order // 2))
    flat = mesh.face_vertex_flat

    def along(e):
        return rank[2 * e + (mesh.edges[e, 0] != flat)]

    e_out = mesh.face_edge_flat
    return table, along(e_out), along(e_out[prev])


def _one_to_four_mesh(mesh: Mesh, positions: np.ndarray,
                      prev: np.ndarray) -> Mesh:
    """The standard triangle split at the edge vertices ``V + e``: per
    source face, its three corner triangles, then the core; ``prev`` is
    each slot's previous slot.

    The edges are the ``2E`` half edges, then the ``3F`` core edges, which
    each corner triangle shares with the core.
    """
    V, E = mesh.vertex_count, mesh.edge_count
    a, b, c = mesh.face_vertex_flat.reshape(-1, 3).T
    m = V + mesh.face_edge_flat.reshape(-1, 3)
    m_ab, m_bc, m_ca = m.T
    flat = np.stack([a, m_ab, m_ca, b, m_bc, m_ab, c, m_ca, m_bc,
                     m_ab, m_bc, m_ca], axis=1).ravel()
    half, out_h, in_h = _half_edges(mesh, prev)
    m_next = np.roll(m, -1, axis=1)
    core, rank = _ranked(np.minimum(m, m_next).ravel(),
                         np.maximum(m, m_next).ravel(), V + E)
    # core[:, k] joins the edge vertices of corner slots k and k + 1
    core_id = (2 * E + rank).reshape(-1, 3)
    out_h, in_h = out_h.reshape(-1, 3), in_h.reshape(-1, 3)
    face_edges = np.column_stack([
        np.column_stack((out_h[:, k], core_id[:, (k + 2) % 3], in_h[:, k]))
        for k in range(3)] + [core_id]).ravel()
    edges = np.concatenate((half, core))
    del m, m_ab, m_bc, m_ca, half, out_h, in_h, m_next, core, rank, core_id
    return _direct_mesh(positions, flat, np.arange(0, len(flat) + 1, 3),
                        edges, face_edges)


def loop_step(mesh: Mesh) -> SchemeStepResult:
    """One approximating 1-to-4 triangle refinement.

    Edge vertices use the 3/8, 3/8, 1/8, 1/8 stencil on interior edges and
    the midpoint on boundary edges.  Old interior vertices of degree ``d``
    move to ``(1 - d*beta) v + beta * (neighbor sum)`` with ``beta = 3/16``
    for degree 3 and ``3/(8d)`` otherwise; old boundary vertices use the
    1/8, 3/4, 1/8 rule along the boundary, with their first two boundary
    neighbours in edge order.  An inner edge's opposite corners are the
    previous slots of its two edge slots; the neighbour sum is in edge
    order.
    """
    _require_triangles(mesh, "loop_step")
    pos = mesh.positions
    flat = mesh.face_vertex_flat
    nxt = mesh.slot_next
    prev = _inverse(nxt)
    left, right = _edge_slots(mesh, nxt)
    boundary = mesh.boundary_edge_mask

    edge_pos = np.empty((mesh.edge_count, 2))
    a = mesh.edges[:, 0]
    b = mesh.edges[:, 1]
    inner = ~boundary
    opp_l, opp_r = flat[prev[left[inner]]], flat[prev[right[inner]]]
    edge_pos[boundary] = (pos[a[boundary]] + pos[b[boundary]]) / 2.0
    edge_pos[inner] = (3.0 / 8.0 * (pos[a[inner]] + pos[b[inner]])
                       + 1.0 / 8.0 * (pos[opp_l] + pos[opp_r]))

    v = np.flatnonzero(mesh.inner_vertex_mask)
    d = mesh.vertex_degrees[v]
    beta = np.where(d == 3, 3.0 / 16.0, 3.0 / (8.0 * d))
    old_pos = pos.copy()
    old_pos[v] = ((1.0 - d * beta)[:, None] * pos[v]
                  + beta[:, None] * _neighbor_sums(mesh)[v])
    _boundary_rule(mesh, old_pos, boundary)

    refined = _one_to_four_mesh(mesh, np.vstack([old_pos, edge_pos]), prev)
    return SchemeStepResult(refined, mesh, "loop",
                            (mesh.vertex_count, mesh.edge_count, 0))


def butterfly_step(mesh: Mesh) -> SchemeStepResult:
    """One interpolating 1-to-4 triangle refinement.

    Old vertices keep their positions bitwise.  Interior edge vertices use
    the eight-point stencil (1/2 endpoints, 1/8 the two opposite vertices,
    -1/16 the four wing vertices, i.e. tension 1/16); a wing across a
    boundary edge is synthesized by parallelogram reflection.  Boundary
    edge vertices are midpoints.  An inner edge's two slots give its
    opposite corners (their previous slots) and its four wing edges (the
    out-edges of their next and previous slots); each wing vertex is the
    opposite corner of that slot's twin, for all edges at once.
    """
    _require_triangles(mesh, "butterfly_step")
    pos = mesh.positions
    flat = mesh.face_vertex_flat
    nxt = mesh.slot_next
    prev = _inverse(nxt)
    left, right = _edge_slots(mesh, nxt)
    twin = _slot_twins(mesh, left, right)

    def wing(slot, u, v, behind):
        """Vertex across the out-edge ``(u, v)`` of ``slot``'s triangle,
        whose third corner is ``behind``."""
        across = twin[slot]
        return np.where((across >= 0)[:, None], pos[flat[prev[across]]],
                        pos[u] + pos[v] - pos[behind])   # boundary: reflect

    edge_pos = (pos[mesh.edges[:, 0]] + pos[mesh.edges[:, 1]]) / 2.0
    e = np.flatnonzero(~mesh.boundary_edge_mask)
    u, v = mesh.edges[e].T
    s, t = left[e], right[e]        # at u in the left face, v in the right
    c, d = flat[prev[s]], flat[prev[t]]
    wings = (wing(prev[s], u, c, v) + wing(nxt[s], v, c, u)
             + wing(nxt[t], u, d, v) + wing(prev[t], v, d, u))
    edge_pos[e] = (0.5 * (pos[u] + pos[v])
                   + 0.125 * (pos[c] + pos[d]) - wings / 16.0)

    refined = _one_to_four_mesh(mesh, np.vstack([pos, edge_pos]), prev)
    return SchemeStepResult(refined, mesh, "butterfly",
                            (mesh.vertex_count, mesh.edge_count, 0))


def sqrt3_step(mesh: Mesh) -> SchemeStepResult:
    """One sqrt-3 triangle refinement.

    A vertex is inserted at every face barycenter and connected to the
    face's corners, then every interior edge is flipped to join the two new
    barycenters; two applications cut every original triangle into nine.
    Old interior vertices relax with weight ``alpha_n = (4 - 2 cos(2 pi /
    n)) / 9``, computed once per distinct valence; boundary vertices and
    edges stay fixed.  The new faces come in edge order: one per boundary
    edge, walked as its face walks it, and two per interior edge.
    """
    _require_triangles(mesh, "sqrt3_step")
    pos = mesh.positions
    centers = mesh.face_centroids()
    V = mesh.vertex_count

    v = np.flatnonzero(mesh.inner_vertex_mask)
    n = mesh.vertex_degrees[v]
    valences, which = np.unique(n, return_inverse=True)
    alpha = np.array([(4.0 - 2.0 * math.cos(2.0 * math.pi / int(k))) / 9.0
                      for k in valences])[which]
    old_pos = pos.copy()
    old_pos[v] = ((1.0 - alpha)[:, None] * pos[v]
                  + (alpha / n)[:, None] * _neighbor_sums(mesh)[v])
    positions = np.vstack([old_pos, centers])
    del centers, v, n, which, alpha, old_pos

    # edges: the boundary edges and the spokes (v, V + f), one per source
    # slot, merged by lower end, boundary edges first (their upper ends
    # are below V); then the flipped edges (V + f, V + g)
    boundary = mesh.boundary_edge_mask
    inner = ~boundary
    a, b = mesh.edges.T
    f, g = mesh.edge_left, mesh.edge_right
    kept = np.flatnonzero(boundary)
    lower = np.concatenate((a[kept], mesh.face_vertex_flat))
    nxt = _next_slots(mesh.face_starts)
    slot_face = _slot_faces(mesh.face_starts)
    upper = np.concatenate((b[kept], V + slot_face))
    order = np.argsort(lower, kind="stable")
    rank = _inverse(order)
    flips, flip_rank = _ranked(V + np.minimum(f, g)[inner],
                               V + np.maximum(f, g)[inner],
                               V + mesh.face_count)
    edges = np.concatenate((np.column_stack((lower[order], upper[order])),
                            flips))
    e_id = np.empty(mesh.edge_count, dtype=np.int64)
    e_id[kept] = rank[:len(kept)]
    e_id[inner] = len(order) + flip_rank
    spoke = rank[len(kept):]
    left, right = _edge_slots(mesh, nxt)
    a_f, b_f = spoke[left], spoke[nxt[left]]
    b_g, a_g = spoke[right], spoke[nxt[right]]

    # per new face its three vertices, then the edges leaving them
    first = np.where(boundary[:, None],
                     np.where((f >= 0)[:, None],
                              np.column_stack((a, b, V + f, e_id, b_f, a_f)),
                              np.column_stack((b, a, V + g, e_id, a_g, b_g))),
                     np.column_stack((a, V + g, V + f, a_g, e_id, a_f)))
    count = np.where(boundary, 1, 2)
    at = np.cumsum(count) - count
    rows = np.empty((count.sum(), 6), dtype=INDEX_DTYPE)
    rows[at] = first
    rows[at[inner] + 1] = np.column_stack((b, V + f, V + g,
                                           b_f, e_id, b_g))[inner]
    del (boundary, inner, kept, lower, nxt, slot_face, upper, order, rank,
         flips, flip_rank, e_id, spoke, left, right, a_f, b_f, b_g, a_g,
         first, count, at)

    refined = _direct_mesh(positions, rows[:, :3].ravel(),
                           np.arange(0, 3 * len(rows) + 1, 3), edges,
                           rows[:, 3:].ravel())
    return SchemeStepResult(refined, mesh, "sqrt3", (V, 0, mesh.face_count))


def midedge_step(mesh: Mesh) -> SchemeStepResult:
    """One mid-edge (simplest) refinement.

    The refined vertices are exactly the edge midpoints.  Each original
    face contributes the cycle of its edge midpoints; each original vertex
    whose edges are all interior contributes the cycle of its incident-edge
    midpoints (a face of the same degree).  Boundary corners fall away,
    which shrinks the outline; near the boundary the clipping can leave
    refined faces touching only at a shared midpoint, so the result is
    not checked for a pinched boundary.  An inner vertex of degree 2 would
    give a 2-cycle face and raises :class:`DegenerateFaceError`.

    The vertex cycles are walked for all inner vertices at once, one step
    per unit of valence: from a face slot of the vertex, the next slot is
    the vertex's slot in the other face of the slot's out-edge.  Each walk
    starts at the vertex's lowest face slot and is reversed, so the cycle
    begins with that slot's in-edge.

    Every refined edge joins the midpoints of a corner's in-edge and
    out-edge: the face cycle walks it from the in-edge's midpoint, and the
    cycle of the corner's vertex, when inner, walks it back.  So the edges
    are one per source slot, ranked by one sort.
    """
    _require_record(mesh, Mesh, "mesh")
    pos = mesh.positions
    midpoints = (np.take(pos, mesh.edges[:, 0], axis=0)
                 + np.take(pos, mesh.edges[:, 1], axis=0)) / 2.0

    flat = mesh.face_vertex_flat
    out_edge = mesh.face_edge_flat
    nxt = mesh.slot_next
    # a boundary slot has no twin (-1), but no walk around an inner vertex
    # leaves through a boundary edge
    twin = _slot_twins(mesh, *_edge_slots(mesh, nxt))

    v = np.flatnonzero(mesh.inner_vertex_mask)
    valence = mesh.vertex_degrees[v]
    short = np.flatnonzero(valence < 3)
    if len(short):
        raise DegenerateFaceError(
            f"mid-edge refinement needs inner vertices of degree 3 or more; "
            f"vertex {int(v[short[0]])} has degree {int(valence[short[0]])}")
    order, offsets = _grouped(flat, mesh.vertex_count)
    walk = [order[offsets[v]]]
    for _ in range(int(valence.max(initial=1))):
        walk.append(nxt[twin[walk[-1]]])
    walk = np.column_stack(walk)
    length = np.argmax(walk[:, 1:] == walk[:, :1], axis=1) + 1
    row = np.repeat(np.arange(len(v)), length)
    ends = np.cumsum(length)
    back = np.repeat(ends, length) - 1 - np.arange(len(row))
    corner_of_cycle = walk[row, back]

    del twin, v, valence, order, offsets, walk, length, row, back
    in_edge = out_edge[_inverse(nxt)]
    edges, corner = _ranked(np.minimum(in_edge, out_edge),
                            np.maximum(in_edge, out_edge), mesh.edge_count)
    flat = np.concatenate([out_edge, out_edge[corner_of_cycle]])
    starts = np.concatenate([mesh.face_starts, len(out_edge) + ends])
    face_edges = np.concatenate([corner[nxt], corner[corner_of_cycle]])
    del nxt, corner_of_cycle, ends, in_edge, corner
    refined = _direct_mesh(midpoints, flat, starts, edges, face_edges,
                           pinch_check=False)
    return SchemeStepResult(refined, mesh, "midedge", (0, mesh.edge_count, 0))


def catmull_clark_step(mesh: Mesh) -> SchemeStepResult:
    """One Catmull-Clark refinement (all output faces quadrilaterals).

    Face points at face vertex centroids; interior edge points average the
    edge's endpoints and the two adjacent face points; boundary edge points
    at midpoints.  Old interior vertices of degree ``d`` move to
    ``(Q + 2R + (d - 3) v) / d`` (``Q``: mean incident face point in face
    order, ``R``: mean incident edge midpoint in edge order; an inner
    vertex has as many faces as edges); old boundary vertices use the 1/8,
    3/4, 1/8 boundary rule.  The quads are one per face corner, written
    straight into CSR arrays.
    """
    _require_record(mesh, Mesh, "mesh")
    pos = mesh.positions
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

    nxt = _next_slots(mesh.face_starts)
    slot_face = _slot_faces(mesh.face_starts)
    v = np.flatnonzero(mesh.inner_vertex_mask)
    d = mesh.vertex_degrees[v][:, None]
    q = _vertex_sums(mesh.face_vertex_flat, face_pts[slot_face], V)[v] / d
    r = _vertex_sums(mesh.edges.ravel(),
                     np.repeat((pos[a] + pos[b]) / 2.0, 2, axis=0), V)[v] / d
    old_pos = pos.copy()
    old_pos[v] = (q + 2.0 * r + (d - 3.0) * pos[v]) / d
    _boundary_rule(mesh, old_pos, boundary)
    positions = np.vstack([old_pos, edge_pts, face_pts])
    del face_pts, edge_pts, boundary, inner, v, d, q, r, old_pos

    # one quad per face corner: vertex, next edge, face, previous edge
    prev = _inverse(nxt)
    edge_of_slot = V + mesh.face_edge_flat
    quads = np.column_stack((mesh.face_vertex_flat, edge_of_slot,
                             V + E + slot_face, edge_of_slot[prev]))

    # edges: the half edges, then per source edge (V + e, V + E + f) to
    # each of its faces f, the lower face first
    half, out_h, in_h = _half_edges(mesh, prev)
    f, g = mesh.edge_left, mesh.edge_right
    both = (f >= 0) & (g >= 0)
    first = np.where(both, np.minimum(f, g), np.maximum(f, g))
    n_faces = 1 + both
    at = np.cumsum(n_faces) - n_faces
    face_of = np.empty(len(mesh.face_vertex_flat), dtype=np.int64)
    face_of[at] = first
    face_of[at[both] + 1] = np.maximum(f, g)[both]
    links = np.column_stack((np.repeat(np.arange(V, V + E), n_faces),
                             V + E + face_of))
    e = mesh.face_edge_flat
    link = 2 * E + at[e] + (slot_face != first[e])
    edges = np.concatenate((half, links))
    face_edges = np.column_stack((out_h, link, link[prev], in_h)).ravel()
    del (nxt, slot_face, prev, edge_of_slot, half, out_h, in_h, both, first,
         n_faces, at, face_of, links, link)
    refined = _direct_mesh(positions, quads.ravel(),
                           np.arange(0, quads.size + 1, 4), edges, face_edges)
    return SchemeStepResult(refined, mesh, "catmull_clark",
                            (V, E, mesh.face_count))


def doo_sabin_step(mesh: Mesh) -> SchemeStepResult:
    """One Doo-Sabin-equivalent refinement, defined as two mid-edge steps.

    Its vertices are the second step's: vertex ``e`` is the midpoint of
    edge ``e`` of the intermediate mesh, the first step's result, carried
    in ``intermediate``.
    """
    first = midedge_step(mesh)
    return replace(midedge_step(first.mesh), source=mesh, scheme="doo_sabin",
                   intermediate=first)
