"""Weaving patterns derived from subdivision meshes.

Three constructions are provided:

* pentagon-pair gluing on snub-refined meshes, with strand tracing through
  the glued tiles (tiles hop across the bend-middle edges touched by their
  designated bend vertices).  Each face's middle edge and designated bend
  are read off the snub step's numbering, which only :mod:`~.snub` states
  (:func:`~.snub._face_table`), and not searched for in the tile mesh;
* two-colored quad weavings, where every quad is a crossing of two strands
  and the entering strand whose first-walked edge endpoint carries color
  ``c1`` passes over;
* triangle-pair gluing with color transport through refinement, the
  sqrt-3 quadization, and the face-split weaving that works on any mesh
  with interior edges.

All tracing is deterministic: tiles, strands, and colors follow index
order of the underlying mesh elements.

* Tile order: each tile of a glued tiling is named by its lowest source
  face id, and tiles are numbered in that order.
* Walker rule: a glued pair's cycle is walked by the face that lies to the
  left of the shared edge (its ``edge_left``).  The cycle starts at the slot
  after the shared edge and runs once around that face; the other face's
  cycle follows, without the two shared vertices.

Every table (tile cycles, per-slot successors, designated bend vertices,
ribbon points) is built with array operations in time linear in the mesh
size.  The strands are walks of a successor table; :func:`_rank_walks`
orders them by pointer jumping, in O(n log L) array work for walks of at
most L steps, and a :class:`Weaving` keeps them as flat arrays.  The
ribbons are one :class:`Ribbons` record of the same kind: every strand's
points, half widths and under flags in flat arrays, cut by one offsets
array of strand count + 1 entries, so its ``len`` is the strand count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import numbers

import numpy as np

from .classic_schemes import SchemeStepResult
from .errors import (
    InternalInvariantError,
    InvalidParameterError,
    InvalidTriangleColoringError,
    NoInteriorEdgesError,
    NotBipartiteError,
    NotTriangleMeshError,
)
from .mesh_core import (Mesh, _cycle_links, _direct_mesh, _edge_slots,
                        _reject_repeats, _slot_faces)
from .snub import Provenance, _face_table

__all__ = [
    "VertexColoring",
    "GluedTiling",
    "Strand",
    "Weaving",
    "two_color_vertices",
    "catmull_clark_coloring",
    "triangle_coloring_check",
    "loop_color_update",
    "glue_triangle_pairs",
    "sqrt3_quadization",
    "glue_snub_pairs",
    "trace_snub_strands",
    "quad_weaving",
    "general_face_split_weaving",
    "strand_ribbons",
    "Ribbons",
]


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexColoring:
    """Two-class vertex coloring; ``is_c1[v]`` marks the first class."""

    is_c1: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.is_c1, dtype=bool)
        object.__setattr__(self, "is_c1", arr)

    def swapped(self) -> "VertexColoring":
        """The coloring with both classes exchanged."""
        return VertexColoring(~self.is_c1)


def two_color_vertices(mesh: Mesh) -> VertexColoring:
    """Breadth-first 2-coloring of a quad mesh's vertex graph.

    Starts each connected component at its lowest-index vertex with ``c1``.
    Raises :class:`NotBipartiteError` when an odd cycle makes a proper
    coloring impossible.
    """
    if (mesh.face_sizes != 4).any():
        raise InvalidParameterError(
            "two_color_vertices expects a pure quad mesh")
    neighbors = [[] for _ in range(mesh.vertex_count)]
    for a, b in np.asarray(mesh.edges):
        neighbors[a].append(int(b))
        neighbors[b].append(int(a))

    color = np.full(mesh.vertex_count, -1, dtype=np.int8)
    for start in range(mesh.vertex_count):
        if color[start] >= 0:
            continue
        color[start] = 1
        queue = [start]
        while queue:
            nxt = []
            for v in queue:
                for w in neighbors[v]:
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        nxt.append(w)
                    elif color[w] == color[v]:
                        raise NotBipartiteError(
                            f"odd cycle: vertices {v} and {w} are adjacent "
                            f"but were assigned the same color")
            queue = nxt
    return VertexColoring(color == 1)


def _require_scheme(step: SchemeStepResult, reader: str, *schemes) -> None:
    """:class:`InvalidParameterError`, naming ``schemes``, unless one of
    them made ``step``."""
    if step.scheme not in schemes:
        needed = " or ".join(f"{name}_step" for name in schemes)
        raise InvalidParameterError(
            f"{reader} needs a {needed} result, got a {step.scheme}_step "
            f"result")


def catmull_clark_coloring(step: SchemeStepResult) -> VertexColoring:
    """Color a Catmull-Clark result: edge vertices ``c1``, the rest ``c2``.

    Every refined quad walks an old vertex, an edge vertex, a face point
    and an edge vertex in turn, so the rule always yields a proper
    2-coloring.  Another scheme's step raises :class:`InvalidParameterError`.
    """
    _require_scheme(step, "catmull_clark_coloring", "catmull_clark")
    V, E, _ = step.sizes
    is_c1 = np.zeros(step.mesh.vertex_count, dtype=bool)
    is_c1[V:V + E] = True
    return VertexColoring(is_c1)


def triangle_coloring_check(mesh: Mesh,
                            coloring: VertexColoring) -> VertexColoring:
    """Validate that every triangle has exactly one ``c1`` vertex."""
    if (mesh.face_sizes != 3).any():
        raise NotTriangleMeshError(
            "triangle_coloring_check expects a triangle mesh")
    if len(coloring.is_c1) != mesh.vertex_count:
        raise InvalidParameterError(
            f"coloring covers {len(coloring.is_c1)} vertices, mesh has "
            f"{mesh.vertex_count}")
    counts = np.add.reduceat(
        coloring.is_c1[mesh.face_vertex_flat].astype(np.int64),
        mesh.face_starts[:-1])
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        raise InvalidTriangleColoringError(
            f"face {int(bad[0])} has {int(counts[bad[0]])} c1 vertices "
            f"(needs exactly 1)")
    return coloring


def loop_color_update(coloring: VertexColoring,
                      step: SchemeStepResult) -> VertexColoring:
    """Transport a triangle coloring through a 1-to-4 refinement step.

    Old vertices keep their colors; an edge vertex becomes ``c1`` when both
    parent endpoints are ``c2`` and ``c2`` otherwise.  The refined coloring
    is validated before it is returned.  A step that is not a
    ``loop_step`` or ``butterfly_step`` result raises
    :class:`InvalidParameterError`.
    """
    _require_scheme(step, "loop_color_update", "loop", "butterfly")
    source = step.source
    V = source.vertex_count
    if len(coloring.is_c1) != V:
        raise InvalidParameterError(
            f"coloring covers {len(coloring.is_c1)} vertices, source mesh "
            f"has {V}")
    old = coloring.is_c1
    a = source.edges[:, 0]
    b = source.edges[:, 1]
    new = ~(old[a] | old[b])
    refined = VertexColoring(np.concatenate([old, new]))
    return triangle_coloring_check(step.mesh, refined)


# ---------------------------------------------------------------------------
# glued tilings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluedTiling:
    """Faces of a source mesh merged pairwise into larger tiles.

    ``mesh`` holds one face per tile over the source vertex set.
    ``tile_faces`` is a ``(T, 2)`` int64 array: row ``k`` holds the source
    faces forming tile ``k``, the lower one first, with ``-1`` in the
    second column for a singleton.  The face-split construction has no
    source-face tiles (``tile_faces`` has shape ``(0, 2)``); its quad ``k``
    covers the ``k``-th interior source edge, in edge order.
    """

    source: Mesh
    mesh: Mesh
    tile_faces: np.ndarray

    @property
    def pairs(self) -> np.ndarray:
        """Rows of ``tile_faces`` that glue two faces (built on each access)."""
        return self.tile_faces[self.tile_faces[:, 1] >= 0]

    @property
    def singletons(self) -> np.ndarray:
        """The faces that are tiles on their own (built on each access)."""
        return self.tile_faces[self.tile_faces[:, 1] < 0, 0]


def _build_tiling(source: Mesh, partner: np.ndarray,
                  shared_edge: np.ndarray) -> GluedTiling:
    """Assemble a tiling from per-face partner faces and shared edges.

    ``partner[f]`` is the face glued to ``f`` across edge ``shared_edge[f]``
    (-1 for a singleton, whose shared edge is not read).  Each tile is named by its lowest face id
    and tiles come out in that order.  A glued pair's cycle is walked by
    the face on the shared edge's left: its own cycle from the slot after
    the shared edge, then the other face's cycle without the two shared
    vertices.

    The tiling keeps the source's vertex ids and positions, and its edge
    table is the source's minus the glued edges, in the same order.  A
    tile slot's edge is its source slot's, except at the walker's last
    vertex, whose edge leads into the other face's cycle.
    """
    sizes = source.face_sizes
    tile_faces = _tile_faces(partner)
    lead = tile_faces[:, 0]
    glued = tile_faces[:, 1] >= 0
    # each tile is two cycle segments: the walker's (all of a singleton)
    # and the other face's (empty for a singleton)
    walker = lead.copy()
    other = lead.copy()
    e = shared_edge[lead[glued]]
    walker[glued] = source.edge_left[e]
    other[glued] = source.edge_right[e]
    # segments start after the shared edge's slot (-1 for a singleton)
    # in the walker, and one slot later in the other face
    nxt = source.slot_next
    left, right = _edge_slots(source, nxt)
    seg_face = np.column_stack((walker, other))
    seg_rot = np.full(seg_face.shape, -1, dtype=np.int64)
    seg_rot[glued] = np.column_stack((left[e], right[e])) \
        - source.face_starts[seg_face[glued]]
    seg_face, seg_rot = seg_face.ravel(), (seg_rot + (1, 2)).ravel()
    seg_len = np.column_stack((sizes[walker],
                               np.where(glued, sizes[other] - 2, 0))).ravel()
    seg_starts = np.zeros(len(seg_len) + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_starts[1:])
    within = np.arange(seg_starts[-1], dtype=np.int64) \
        - np.repeat(seg_starts[:-1], seg_len)
    gather = np.repeat(source.face_starts[seg_face], seg_len) \
        + (np.repeat(seg_rot, seg_len) + within) \
        % np.repeat(sizes[seg_face], seg_len)
    kept = np.ones(source.edge_count, dtype=bool)
    kept[e] = False
    new_id = np.cumsum(kept) - 1
    edge_gather = gather.copy()
    edge_gather[seg_starts[1::2][glued] - 1] = nxt[right[e]]
    flat, starts = source.face_vertex_flat[gather], seg_starts[::2]
    # two faces may share a vertex besides the glued edge's
    _reject_repeats(flat, _slot_faces(starts), source.vertex_count)
    mesh = _direct_mesh(source.positions, flat, starts, source.edges[kept],
                        new_id[source.face_edge_flat[edge_gather]],
                        pinch_check=False)
    return GluedTiling(source=source, mesh=mesh, tile_faces=tile_faces)


def _tile_faces(partner: np.ndarray) -> np.ndarray:
    """The tiles of per-face ``partner`` faces (-1: none), as
    :attr:`GluedTiling.tile_faces`: in order of their lowest face."""
    lead = np.flatnonzero((partner < 0) | (partner > np.arange(len(partner))))
    return np.column_stack((lead, partner[lead]))


def _glue_across(mesh: Mesh, edges: np.ndarray) -> GluedTiling:
    """Glue the two faces flanking each of ``edges`` (interior ones only)."""
    edges = edges[~mesh.boundary_edge_mask[edges]]
    partner = np.full(mesh.face_count, -1, dtype=np.int64)
    shared = np.full(mesh.face_count, -1, dtype=np.int64)
    for side, mate in ((mesh.edge_left, mesh.edge_right),
                       (mesh.edge_right, mesh.edge_left)):
        partner[side[edges]] = mate[edges]
        shared[side[edges]] = edges
    return _build_tiling(mesh, partner, shared)


def glue_triangle_pairs(mesh: Mesh, coloring: VertexColoring) -> GluedTiling:
    """Merge triangles across their ``c2``–``c2`` edges into quads.

    Every validly colored triangle has exactly one edge joining its two
    ``c2`` vertices; deleting the interior ones merges the flanking
    triangles pairwise.  The triangles whose ``c2``–``c2`` edge lies on the
    boundary stay behind, and are exactly the tiling's ``singletons``.
    """
    triangle_coloring_check(mesh, coloring)
    is_c1 = coloring.is_c1
    c2c2 = np.flatnonzero(~is_c1[mesh.edges[:, 0]] & ~is_c1[mesh.edges[:, 1]])
    return _glue_across(mesh, c2c2)


def sqrt3_quadization(step: SchemeStepResult,
                      ) -> tuple[GluedTiling, VertexColoring]:
    """Remove the re-connected edges of a sqrt-3 step, forming quads.

    Each quad holds two source-mesh vertices and two face centers on
    opposite diagonals.  Triangles along the boundary (whose edges were
    never re-connected) remain singletons.  The returned coloring marks
    source vertices ``c1`` and face centers ``c2``.  A step that is not a
    ``sqrt3_step`` result raises :class:`InvalidParameterError`.
    """
    _require_scheme(step, "sqrt3_quadization", "sqrt3")
    mesh = step.mesh
    V = step.sizes[0]       # the centers follow: (lo, hi) joins two if lo does
    tiling = _glue_across(mesh, np.flatnonzero(mesh.edges[:, 0] >= V))
    if len(tiling.pairs) != len(step.flipped_edges):
        raise InternalInvariantError(
            f"{len(tiling.pairs)} quads formed but {len(step.flipped_edges)} "
            f"edges were re-connected")
    return tiling, VertexColoring(np.arange(mesh.vertex_count) < V)


def _snub_partners(mesh: Mesh, middle: np.ndarray) -> np.ndarray:
    """Per face, the face across its ``middle`` edge (-1: a boundary one)."""
    left, right = mesh.edge_left[middle], mesh.edge_right[middle]
    return np.where((left >= 0) & (right >= 0),
                    left + right - np.arange(len(middle)), -1)


def glue_snub_pairs(mesh: Mesh, provenance: Provenance) -> GluedTiling:
    """Pair every pentagon with its neighbor across the bend-middle edge.

    Each face of a snub-refined mesh contains exactly one middle edge of a
    bend triplet; interior middles glue their two pentagons into an
    octagon, boundary middles leave singletons.  ``provenance`` is the
    record of the step that made ``mesh``; each face's middle edge follows
    from its counts by the numbering (:func:`~.snub._face_table`).  A record
    of another step, and a mesh not numbered as the step numbers (a face
    without exactly one middle edge, for one), raise
    :class:`InvalidParameterError`.
    """
    middle = _face_table(mesh, provenance)[0]
    return _build_tiling(mesh, _snub_partners(mesh, middle), middle)


# ---------------------------------------------------------------------------
# weavings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Strand:
    """One maximal woven strand, as :attr:`Weaving.strands` presents it.

    ``tiles`` are the tile ids visited in order (quad faces for quad
    weavings, tiling indices for snub weavings).  ``crossings`` are the
    crossing ids met in order: the quads themselves for quad weavings, the
    crossed middle-edge ids for snub weavings.  ``over[i]`` says whether
    this strand passes over at ``crossings[i]``.  Quad strands also record
    the edge they enter and leave each tile through.  ``lead_terminal``
    marks open snub strands whose first crossing precedes the first tile
    (the strand starts by emerging across a boundary middle edge).

    A :class:`Weaving` stores no strand objects; it builds these tuples
    from its flat arrays each time :attr:`Weaving.strands` is read.
    """

    tiles: tuple[int, ...]
    crossings: tuple[int, ...]
    over: tuple[bool, ...]
    closed: bool
    color_index: int
    enter_edges: tuple[int, ...] = ()
    exit_edges: tuple[int, ...] = ()
    lead_terminal: bool = False


@dataclass(frozen=True)
class Weaving:
    """A full strand decomposition with per-crossing over/under records.

    Strands are stored as flat arrays in CSR form.  Strand ``i`` visits
    ``tiles[tile_offsets[i]:tile_offsets[i + 1]]`` and meets the crossings
    ``crossings[crossing_offsets[i]:crossing_offsets[i + 1]]``; ``over``
    has one entry per crossing visit, true where the strand passes over.
    ``closed``, ``color_index`` and ``lead_terminal`` have one entry per
    strand (see :class:`Strand`).  Quad weavings visit each quad once per
    axis and cross exactly there, so their ``crossings`` are their
    ``tiles``; they also record, per tile visit, the edge the strand enters
    through (``enter_edges``) and leaves through (``exit_edges``), which
    are ``None`` for snub weavings.

    ``crossing_ids`` lists every crossing once, with the strand passing
    over it in ``over_strands`` and the one passing under in
    ``under_strands``: in strand order of the over visits for quad
    weavings, of the crossing visits for snub weavings.

    :attr:`strands`, :attr:`over_strand` and :attr:`under_strand` are
    read-only views built from the arrays on each access.  Snub weavings
    keep a reference to the glued tiling they were traced on, because
    their crossing ids name middle edges of the refined mesh underneath
    it.
    """

    kind: str                       # "quad" or "snub"
    tile_offsets: np.ndarray
    tiles: np.ndarray
    crossing_offsets: np.ndarray
    crossings: np.ndarray
    over: np.ndarray
    closed: np.ndarray
    color_index: np.ndarray
    lead_terminal: np.ndarray
    crossing_ids: np.ndarray
    over_strands: np.ndarray
    under_strands: np.ndarray
    enter_edges: np.ndarray | None = None
    exit_edges: np.ndarray | None = None
    tiling: "GluedTiling | None" = None

    def __post_init__(self):
        _lock_arrays(self)

    @property
    def strands(self) -> tuple[Strand, ...]:
        """Every strand as a :class:`Strand`, in strand order."""
        t_off = self.tile_offsets.tolist()
        c_off = self.crossing_offsets.tolist()
        tiles = _split(self.tiles.tolist(), t_off)
        if self.enter_edges is None:
            enters = exits = [()] * len(tiles)
        else:
            enters = _split(self.enter_edges.tolist(), t_off)
            exits = _split(self.exit_edges.tolist(), t_off)
        return tuple(
            Strand(tiles=t, crossings=c, over=o, closed=z, color_index=r,
                   enter_edges=ei, exit_edges=eo, lead_terminal=ld)
            for t, c, o, z, r, ei, eo, ld in zip(
                tiles, _split(self.crossings.tolist(), c_off),
                _split(self.over.tolist(), c_off), self.closed.tolist(),
                self.color_index.tolist(), enters, exits,
                self.lead_terminal.tolist()))

    @property
    def over_strand(self) -> dict:
        """Crossing id to the strand passing over it."""
        return dict(zip(self.crossing_ids.tolist(),
                        self.over_strands.tolist()))

    @property
    def under_strand(self) -> dict:
        """Crossing id to the strand passing under it.

        Snub crossings come in the order of :attr:`over_strand`; quad
        crossings in strand order of their under visits.
        """
        if self.kind == "snub":
            return dict(zip(self.crossing_ids.tolist(),
                            self.under_strands.tolist()))
        under = ~self.over
        strand = np.repeat(np.arange(len(self.closed)),
                           np.diff(self.crossing_offsets))
        return dict(zip(self.crossings[under].tolist(),
                        strand[under].tolist()))

    def crossing_count(self) -> int:
        return len(self.crossing_ids)


def _lock_arrays(record) -> None:
    """Make every array field of the dataclass ``record`` read-only."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _split(flat: list, offsets: list) -> list[tuple]:
    """Cut a flat list into tuples at ``offsets`` (length strands + 1)."""
    return [tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])]


def _first_repeat(values: np.ndarray) -> int:
    """Position of the first value seen before in ``values`` (-1: none).

    ``values`` are non-negative ints.  A bincount rules a repeat out; only
    when there is one does a sort find where it first shows.
    """
    if len(values) == 0 or np.bincount(values).max() < 2:
        return -1
    _, first = np.unique(values, return_index=True)
    return int(np.setdiff1d(np.arange(len(values)), first)[0])


def _color_ranks(tiles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Deterministic color indices: rank strands by their lowest tile id."""
    lowest = np.minimum.reduceat(tiles, offsets[:-1])
    ranks = np.empty(len(lowest), dtype=np.int64)
    ranks[np.argsort(lowest, kind="stable")] = np.arange(len(lowest))
    return ranks


def _pointer_jump(succ: np.ndarray, order: np.ndarray):
    """Pointer jumping over the partial injection ``succ`` (-1: no next).

    Returns ``(ptr, dist, low, on_cycle)``.  On a chain, ``ptr[s]`` is the
    chain's last node and ``dist[s]`` the number of steps from ``s`` to
    it.  On a cycle, ``low[s]`` is the lowest ``order`` on the cycle.

    Round ``r`` moves every unfinished node's pointer ``2**r`` steps ahead,
    adding up ``dist`` on the way.  A chain node is finished once its
    pointer reaches the chain's end, which a node ``d`` steps before the
    end does in round ``ceil(log2 d)``; so a round that finishes no node
    has finished every chain, and the nodes left lie on cycles.  On those,
    a second series of rounds folds the lowest ``order`` over windows of
    ``2**r`` nodes; it stops once a round lowers no node's window, as a
    window whose minimum equals that of the window after it, on every
    node of a cycle, already holds the cycle's minimum.
    """
    n = len(succ)
    end = succ < 0
    ptr = np.where(end, np.arange(n, dtype=np.int64), succ)
    dist = (~end).astype(np.int64)
    active = np.flatnonzero(~end[ptr])
    while len(active):
        ahead = ptr[active]
        dist[active] += dist[ahead]
        ahead = ptr[ahead]
        ptr[active] = ahead
        done = end[ahead]
        if not done.any():
            break
        active = active[~done]

    low = order.copy()      # lowest order from s up to step[s], exclusive
    step = succ.copy()
    while len(active):
        ahead = step[active]
        mine = low[active]
        lowered = np.minimum(mine, low[ahead])
        if (lowered == mine).all():
            break
        low[active] = lowered
        step[active] = step[ahead]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[active] = True
    return ptr, dist, low, on_cycle


def _rank_walks(succ: np.ndarray, rev: np.ndarray, order: np.ndarray):
    """Strand walks of the partial injection ``succ``, each walked once.

    Every node lies on one walk of ``succ``: a chain (open, ending where
    ``succ`` is -1) or a cycle.  ``rev`` maps a node to the same step
    taken the other way, so a walk and its reverse make one strand:
    ``rev`` of a chain's last node is the first node of the reverse chain,
    and ``rev`` of a cycle node lies on the reverse cycle (-1: the walk has
    no reverse).  ``order`` ranks the nodes, all distinct.

    A chain is kept when its first node comes before (in ``order``) the
    first node of its reverse; a chain that is its own reverse is dropped.
    A cycle is kept when its lowest node comes before its reverse's lowest
    node, and is cut before that node to become a chain.

    Returns ``(path, offsets, closed)``: the nodes of the kept walks, walk
    by walk and each in ``succ`` order from its first node, with walk
    ``i`` at ``path[offsets[i]:offsets[i + 1]]``.  Kept chains come first,
    by the order of their first node, then kept cycles by the order of
    their lowest node; ``closed`` marks the cycles.
    """
    n = len(succ)
    ptr, dist, low, on_cycle = _pointer_jump(succ, order)

    # chains: a node's first node is found through the chain's last node
    has_pred = np.zeros(n, dtype=bool)
    has_pred[succ[succ >= 0]] = True
    heads = np.flatnonzero(~has_pred & ~on_cycle)
    back = rev[ptr[heads]]
    heads = heads[(back < 0) | (order[heads] < order[back])]
    heads = heads[np.argsort(order[heads])]
    head_of_last = np.full(n, -1, dtype=np.int64)
    head_of_last[ptr[heads]] = heads
    nodes = np.flatnonzero(~on_cycle)
    head = head_of_last[ptr[nodes]]
    nodes, head = nodes[head >= 0], head[head >= 0]
    rank = dist[head] - dist[nodes]

    # cycles: each kept one is cut before its lowest node and ranked as a
    # chain on its own
    cycle = np.flatnonzero(on_cycle)
    mate = rev[cycle]
    cycle = cycle[(mate < 0) | (low[cycle] < low[mate])]
    local = np.full(n, -1, dtype=np.int64)
    local[cycle] = np.arange(len(cycle))
    nxt = succ[cycle]
    cut = np.where(order[nxt] == low[cycle], -1, local[nxt])
    c_ptr, c_dist, _, _ = _pointer_jump(cut, order[cycle])
    firsts = np.flatnonzero(order[cycle] == low[cycle])
    firsts = firsts[np.argsort(order[cycle[firsts]])]
    head_of_last = np.empty(len(cycle), dtype=np.int64)
    head_of_last[c_ptr[firsts]] = firsts
    c_head = head_of_last[c_ptr]
    nodes = np.concatenate((nodes, cycle))
    head = np.concatenate((head, cycle[c_head]))
    rank = np.concatenate((rank, c_dist[c_head] - c_dist))
    heads = np.concatenate((heads, cycle[firsts]))

    S = len(heads)
    walk = np.empty(n, dtype=np.int64)
    walk[heads] = np.arange(S)
    offsets = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(np.bincount(walk[head], minlength=S), out=offsets[1:])
    path = np.empty(len(nodes), dtype=np.int64)
    path[offsets[walk[head]] + rank] = nodes
    return path, offsets, np.arange(S) >= S - len(firsts)


def quad_weaving(mesh: Mesh, coloring: VertexColoring) -> Weaving:
    """Trace the two-strand crossings of a two-colored quad mesh.

    Each quad is a crossing of the two strands running through its
    opposite edge pairs.  The strand entering across an edge whose ``c1``
    endpoint lies to the left of the entry direction passes over — with
    counterclockwise faces that endpoint is the one the face walks first.
    Weaving :meth:`VertexColoring.swapped` instead flips the chirality.
    Faces that are not quads (boundary leftovers of a gluing) terminate
    strands.

    Open strands come first, each walked from the end whose entry edge
    comes first in edge order (left face before right face); closed
    strands follow, by their lowest (quad, axis), each walked from that
    quad's slot on that axis with cycle position 0 or 1.

    Raises :class:`NotBipartiteError` if any quad edge joins two vertices
    of the same color.
    """
    if len(coloring.is_c1) != mesh.vertex_count:
        raise InvalidParameterError(
            f"coloring covers {len(coloring.is_c1)} vertices, mesh has "
            f"{mesh.vertex_count}")
    is_c1 = coloring.is_c1
    is_quad = mesh.face_sizes == 4
    if not is_quad.any():
        raise InvalidParameterError("mesh has no quad faces to weave")

    flat = mesh.face_vertex_flat
    slot_next, slot_face = _cycle_links(mesh.face_starts)
    on_quad = is_quad[slot_face]
    same = on_quad & (is_c1[flat] == is_c1[flat[slot_next]])
    if same.any():
        s = int(np.flatnonzero(same)[0])
        raise NotBipartiteError(
            f"edge ({int(flat[s])}, {int(flat[slot_next[s]])}) of quad "
            f"{int(slot_face[s])} joins two same-colored vertices")

    # a strand enters a quad at a slot (the edge from that slot's vertex),
    # leaves through the opposite slot and goes on at the twin slot across;
    # the opposite slot is the same step walked the other way, and a slot
    # off the quads is its own opposite, so the ranking drops it
    left, right = _edge_slots(mesh, slot_next)
    edge = mesh.face_edge_flat
    slots = np.arange(len(flat), dtype=np.int64)
    local = slots - mesh.face_starts[slot_face]
    opposite = np.where(on_quad,
                        mesh.face_starts[slot_face] + (local + 2) % 4, slots)
    twin = np.where(left[edge] == slots, right[edge], left[edge])
    ahead = np.where(on_quad, twin[opposite], -1)
    nxt = np.where((ahead >= 0) & on_quad[ahead], ahead, -1)

    # open strands start wherever a quad is entered from outside the quad
    # set (mesh boundary or a non-quad face), in edge order; closed ones at
    # their lowest (quad, axis), from cycle position 0 or 1
    quad_of = np.append(on_quad, False)         # slot -1: no face
    lq, rq = quad_of[left], quad_of[right]
    entries = np.column_stack((np.where(lq & ~rq, left, -1),
                               np.where(rq & ~lq, right, -1))).ravel()
    entries = entries[entries >= 0]
    order = len(entries) + 4 * slot_face + 2 * (local % 2) + local // 2
    order[entries] = np.arange(len(entries))
    path, offsets, closed = _rank_walks(nxt, opposite, order)

    tiles = slot_face[path]
    over = is_c1[flat[path]]
    dup = _first_repeat(2 * tiles + over)       # one per (quad, side)
    if dup >= 0:
        raise InternalInvariantError(
            f"quad {int(tiles[dup])} has two "
            f"{'over' if over[dup] else 'under'} strands")
    n_quads = int(is_quad.sum())
    if len(tiles) != 2 * n_quads or int(over.sum()) != n_quads:
        raise InternalInvariantError(
            "every quad must carry exactly one over and one under strand")

    strand = np.repeat(np.arange(len(closed)), np.diff(offsets))
    crossing_ids = tiles[over]
    under_of = np.empty(mesh.face_count, dtype=np.int64)
    under_of[tiles[~over]] = strand[~over]
    return Weaving(kind="quad", tile_offsets=offsets, tiles=tiles,
                   crossing_offsets=offsets, crossings=tiles, over=over,
                   closed=closed, color_index=_color_ranks(tiles, offsets),
                   lead_terminal=np.zeros(len(closed), dtype=bool),
                   crossing_ids=crossing_ids, over_strands=strand[over],
                   under_strands=under_of[crossing_ids],
                   enter_edges=edge[path], exit_edges=edge[opposite[path]])


def trace_snub_strands(tiling: GluedTiling,
                       provenance: Provenance) -> Weaving:
    """Trace strands through a glued pentagon tiling.

    Besides the two bend vertices of its own middle edge, every pentagon
    touches exactly one other middle edge, at its designated bend vertex.
    A strand hops from tile to tile across such a middle edge — leaving by
    one endpoint's designating tile and arriving at the other's.  Crossing
    a boundary middle edge (or reaching a tile with no further designated
    vertex) ends the strand.  The tile glued over a crossed middle edge is
    a node of its own strand; the over/under of the two strands meeting
    there alternates along the crossing strand.

    Each face's middle edge and designated bend are read off the numbering
    (:func:`~.snub._face_table`), for ``provenance``, the record of the
    step that made ``tiling.source``, as for :func:`glue_snub_pairs`.  So a
    tile's own middle is its first face's, and a glued tile designates its
    walking face's bend first (the face left of the middle), then the
    other's.  A tiling whose tiles are not those :func:`glue_snub_pairs`
    makes of ``tiling.source`` raises :class:`InvalidParameterError`.

    Open strands come first, by their lower end tile, each walked from
    that end; closed strands follow, by their lowest tile, each walked
    from that tile's first designated vertex.
    """
    source = tiling.source
    middle, bend, crossed = _face_table(source, provenance)
    got, want = tiling.tile_faces, _tile_faces(_snub_partners(source, middle))
    if not np.array_equal(got, want):
        n = min(len(got), len(want))
        t = int(np.argmin(np.append((got[:n] == want[:n]).all(axis=1),
                                    False)))
        raise InvalidParameterError(
            f"tile {t} is not the one glue_snub_pairs makes there, of the "
            f"faces on a middle edge (a tiling glue_snub_pairs did not "
            f"make?)")
    low, mate = got.T
    T = len(got)
    paired = mate >= 0
    own = middle[low]
    tile_of_middle = np.full(source.edge_count, -1, dtype=np.int64)
    tile_of_middle[own] = np.arange(T)

    # designated indices, tile by tile: the walking face's, then the
    # other face's; designator per vertex
    n_faces = 1 + paired.astype(np.int64)
    des_off = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_faces, out=des_off[1:])
    des_face = np.empty(des_off[-1], dtype=np.int64)
    des_face[des_off[:-1]] = np.where(paired, source.edge_left[own], low)
    des_face[des_off[:-1][paired] + 1] = source.edge_right[own[paired]]
    des_t = np.repeat(np.arange(T), n_faces)
    des_v = bend[des_face]
    D = len(des_v)
    index_of = np.full(source.vertex_count, -1, dtype=np.int64)
    index_of[des_v] = np.arange(D)

    # hopping from designated index d crosses middle hop_m[d] and arrives
    # at the far endpoint's designated index arrive[d] in tile hop_t[d]
    # (the hop back from there is d's); a strand arriving at a goes on from
    # the other designated index of its tile, other[a] (-1: none), as a
    # tile designates one or two vertices
    hop_m = crossed[des_face]
    far = source.edges[hop_m].sum(axis=1) - des_v
    arrive = index_of[far]
    live = arrive >= 0
    hop_t = np.where(live, des_t[arrive], -1)
    other = np.where(n_faces[des_t] == 2,
                     2 * des_off[des_t] + 1 - np.arange(D), -1)
    back = np.flatnonzero(live & (hop_t == des_t))
    if len(back):
        raise InvalidParameterError(
            f"tile {int(des_t[back[0]])} designates both bend points of "
            f"middle edge {int(hop_m[back[0]])} (a mesh numbered otherwise?)")
    # walks over designated indices, d -> other[arrive[d]]; an open walk's
    # reverse starts at the far end of its last hop, or (a dead last hop)
    # at the other index of its last tile; indices are in tile order, so
    # the lower end tile starts a strand
    path, offsets, closed = _rank_walks(
        np.where(live, other[arrive], -1), np.where(live, arrive, other),
        np.arange(D))

    # an open strand also visits the tile its last hop arrives at and,
    # when its first tile holds a dead hop, starts with that crossing
    S = len(closed)
    n_d = np.diff(offsets)
    first, last = path[offsets[:-1]], path[offsets[1:] - 1]
    lead = ~closed & (other[first] >= 0)
    end_tile = np.where(closed, -1, hop_t[last])
    t_off = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(n_d + (end_tile >= 0), out=t_off[1:])
    c_off = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(n_d + lead, out=c_off[1:])
    sid = np.repeat(np.arange(S), n_d)
    k = np.arange(len(path)) - offsets[sid]
    tiles = np.empty(t_off[-1], dtype=np.int64)
    tiles[t_off[sid] + k] = des_t[path]
    tiles[t_off[1:][end_tile >= 0] - 1] = end_tile[end_tile >= 0]
    crossings = np.empty(c_off[-1], dtype=np.int64)
    crossings[c_off[sid] + lead[sid] + k] = hop_m[path]
    crossings[c_off[:-1][lead]] = hop_m[other[first[lead]]]

    dup = _first_repeat(crossings)
    if dup >= 0:
        raise InternalInvariantError(
            f"middle edge {int(crossings[dup])} crossed twice")
    n_c = np.diff(c_off)
    strand_of_tile = np.empty(T, dtype=np.int64)
    strand_of_tile[tiles] = np.repeat(np.arange(S), np.diff(t_off))
    c_sid = np.repeat(np.arange(S), n_c)
    over = (np.arange(len(crossings)) - np.repeat(c_off[:-1], n_c)) % 2 == 0
    node = strand_of_tile[tile_of_middle[crossings]]
    return Weaving(kind="snub", tile_offsets=t_off, tiles=tiles,
                   crossing_offsets=c_off, crossings=crossings, over=over,
                   closed=closed, color_index=_color_ranks(tiles, t_off),
                   lead_terminal=lead, crossing_ids=crossings,
                   over_strands=np.where(over, c_sid, node),
                   under_strands=np.where(over, node, c_sid), tiling=tiling)


def general_face_split_weaving(mesh: Mesh,
                               ) -> tuple[GluedTiling, VertexColoring,
                                          Weaving]:
    """Weaving for an arbitrary mesh via face midpoints.

    Add one vertex per face at its centroid and connect it to the face's
    vertices; dropping the original edges leaves one quad per interior
    original edge (the edge's endpoints and the two adjacent face centers,
    pairwise diagonal).  Original vertices are colored ``c1``, centers
    ``c2``, and the quads are woven by the two-coloring rule — one
    crossing per interior original edge.

    Every quad edge joins a source vertex ``v`` to the center ``V + f`` of
    a face at it, so the edges are the source slots next to an interior
    edge, in ``(v, f)`` order: a stable argsort of their vertices.
    """
    inner = np.flatnonzero(~mesh.boundary_edge_mask)
    if len(inner) == 0:
        raise NoInteriorEdgesError(
            "face-split weaving needs at least one interior edge")
    V = mesh.vertex_count
    centers = mesh.face_centroids()
    quads = np.column_stack((mesh.edges[inner, 0], V + mesh.edge_right[inner],
                             mesh.edges[inner, 1], V + mesh.edge_left[inner]))
    # per quad slot, the source slot (v, f) of its edge (v, V + f)
    nxt, slot_face = _cycle_links(mesh.face_starts)
    left, right = _edge_slots(mesh, nxt)
    corner = np.column_stack((nxt[right[inner]], right[inner],
                              nxt[left[inner]], left[inner]))
    used = np.zeros(len(nxt), dtype=bool)
    used[corner.ravel()] = True
    slots = np.flatnonzero(used)
    slots = slots[np.argsort(mesh.face_vertex_flat[slots], kind="stable")]
    edge_of = np.empty(len(nxt), dtype=np.int64)
    edge_of[slots] = np.arange(len(slots), dtype=np.int64)
    quad_mesh = _direct_mesh(
        np.vstack([mesh.positions, centers]), quads.ravel(),
        np.arange(0, quads.size + 1, 4),
        np.column_stack((mesh.face_vertex_flat[slots],
                         V + slot_face[slots])),
        edge_of[corner].ravel(), pinch_check=False)
    tiling = GluedTiling(source=mesh, mesh=quad_mesh,
                         tile_faces=np.zeros((0, 2), dtype=np.int64))
    coloring = VertexColoring(np.concatenate([
        np.ones(V, dtype=bool), np.zeros(mesh.face_count, dtype=bool)]))
    return tiling, coloring, quad_weaving(quad_mesh, coloring)


# ---------------------------------------------------------------------------
# ribbons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ribbons:
    """Render geometry for every strand of a weaving, in flat arrays.

    Strand ``i``'s ribbon is the ``point_offsets[i]:point_offsets[i + 1]``
    slice of ``points`` (through tile centers and crossing midpoints),
    ``half_widths`` and ``under`` (true where the strand passes under,
    rendered with a gap).  ``len`` is the strand count.  The arrays are
    read-only.
    """

    point_offsets: np.ndarray
    points: np.ndarray
    half_widths: np.ndarray
    under: np.ndarray

    def __post_init__(self):
        _lock_arrays(self)

    def __len__(self) -> int:
        return len(self.point_offsets) - 1


def strand_ribbons(weaving: Weaving, mesh: Mesh,
                   width_fraction: float) -> Ribbons:
    """Ribbon polylines for every strand of a weaving, in one
    :class:`Ribbons` record: ``(S + 1,)`` offsets cut its ``(P, 2)`` points
    and ``(P,)`` half widths and under flags by strand, so ``len`` is S.

    ``mesh`` is the mesh the weaving was traced on: the quad mesh for quad
    weavings, the tiling mesh (or one equal to it) for snub weavings, which
    also need their tiling.  Another mesh, and a ``width_fraction`` that is
    not a number strictly between 0 and 1, raise
    :class:`InvalidParameterError`.  The ribbon width is ``width_fraction``
    times the local edge length.
    """
    if not isinstance(width_fraction, numbers.Real) \
            or not 0.0 < width_fraction < 1.0:
        raise InvalidParameterError(
            f"width_fraction must be a number strictly between 0 and 1, got "
            f"{width_fraction!r}")
    tiles = weaving.tiles
    if weaving.kind == "quad":
        e = np.concatenate((weaving.enter_edges, weaving.exit_edges))
        e = np.where((e >= 0) & (e < mesh.edge_count), e, -1)
        t = np.concatenate((tiles, tiles))
        bad = np.flatnonzero((np.append(mesh.edge_left, -1)[e] != t)
                             & (np.append(mesh.edge_right, -1)[e] != t))
        if len(bad):
            raise InvalidParameterError(
                f"tile visit {int(bad[0]) % len(tiles)} passes through an "
                f"edge that does not border tile {int(t[bad[0]])} in this "
                f"mesh (not the mesh the weaving was traced on?)")
    elif weaving.tiling is None:
        raise InvalidParameterError(
            "a snub weaving needs the glued tiling it was traced on: its "
            "crossing ids name edges of the refined mesh under the tiling")
    elif mesh is not weaving.tiling.mesh and mesh != weaving.tiling.mesh:
        raise InvalidParameterError(
            "a snub weaving's ribbons are drawn on the mesh of the tiling "
            "it was traced on, and this mesh is another")
    # tile centers with the midpoints of the crossed edges between, after a
    # leading edge if any, and the first point again if the strand closes:
    # a quad strand leads with its entry edge and crosses each exit edge, a
    # snub strand crosses middle edges of the refined mesh under the tiling
    S = len(weaving.closed)
    n_t = np.diff(weaving.tile_offsets)
    t_sid = np.repeat(np.arange(S), n_t)
    k = np.arange(len(tiles)) - weaving.tile_offsets[t_sid]  # tile's place
    lengths = mesh.edge_lengths()
    if weaving.kind == "quad":
        e_in, e_out = weaving.enter_edges, weaving.exit_edges
        first = weaving.tile_offsets[:-1]
        src, mids = mesh, np.insert(e_out, first, e_in[first])
        m_off = weaving.tile_offsets + np.arange(S + 1)
        lead, loops = np.ones(S, dtype=np.int64), np.zeros(S, dtype=bool)
        tile_width = (lengths[e_in] + lengths[e_out]) * width_fraction / 4.0
        mid_len = lengths[mids]             # every quad crossing is drawn
    else:
        src, mids = weaving.tiling.source, weaving.crossings
        m_off = weaving.crossing_offsets
        lead, loops = weaving.lead_terminal.astype(np.int64), weaving.closed
        tile_width = np.empty(mesh.face_count)
        sizes = mesh.face_sizes
        for n in np.unique(sizes).tolist():
            faces = np.flatnonzero(sizes == n)
            ids = mesh.face_edge_flat[mesh.face_starts[faces][:, None]
                                      + np.arange(n)]
            tile_width[faces] = lengths[ids].mean(axis=1) \
                * width_fraction / 2.0
        tile_width = tile_width[tiles]
    n_m = np.diff(m_off)
    drawn = np.minimum(n_m - lead, n_t)
    p_off = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(lead + n_t + drawn + loops, out=p_off[1:])
    points, widths = np.empty((p_off[-1], 2)), np.empty(p_off[-1])
    at_tile = p_off[t_sid] + lead[t_sid] + k + np.minimum(k, drawn[t_sid])
    points[at_tile] = mesh.face_centroids()[tiles]
    widths[at_tile] = tile_width
    m_sid = np.repeat(np.arange(S), n_m)
    # j: place after the leading edge (-1 for the leading edge itself)
    j = np.arange(len(mids)) - m_off[m_sid] - lead[m_sid]
    on = j < drawn[m_sid]
    at = (p_off[m_sid] + np.where(j < 0, 0, lead[m_sid] + 2 * j + 1))[on]
    ends = np.take(src.positions, src.edges[mids[on]], axis=0)
    points[at] = (ends[:, 0] + ends[:, 1]) / 2.0
    if weaving.kind == "snub":      # a crossing's length, from its two ends
        d = ends[:, 1] - ends[:, 0]
        mid_len = np.hypot(d[:, 0], d[:, 1])
    widths[at] = mid_len * width_fraction / 2.0
    loops = np.flatnonzero(loops)
    points[p_off[loops + 1] - 1] = points[p_off[loops]]
    widths[p_off[loops + 1] - 1] = widths[p_off[loops]]
    # a quad strand passes under at a tile, a snub strand at a crossing
    under = np.zeros(len(widths), dtype=bool)
    under[at_tile[~weaving.over] if weaving.kind == "quad"
          else at[~weaving.over[on]]] = True
    return Ribbons(point_offsets=p_off, points=points, half_widths=widths,
                   under=under)
