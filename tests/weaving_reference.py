"""Frozen loop implementations of the weaving constructions (test oracle).

These are the per-element Python loops the weaving layer was first written
with: dictionary partner maps, per-face ``np.isin`` and ``mesh.face()``
calls, cycle merging by search, per-strand edge-length tables, and a
breadth-first two-coloring over neighbour lists appended edge by edge.  They
are kept verbatim, apart from imports and the local record types below, so
the vectorized implementations in :mod:`snubweave.weaving` can be checked
against them bit for bit.  They are slow (quadratic in places); use small
inputs.

:class:`GluedTiling` and :class:`Weaving` are the records these loops were
written for: tile faces as a tuple of tuples, strands as a tuple of
:class:`~snubweave.weaving.Strand` objects and crossings as two dicts.  The
library stores the same data as arrays; the tests compare the two through
the library's views.  :class:`BoundaryC2EdgeError` is a verbatim copy of
the error ``glue_triangle_pairs(strict=True)`` raised then; the library has
since dropped ``strict``, whose raise is the same as a non-empty
``singletons``.  ``EdgeTag``, ``Provenance``, ``MissingProvenanceError``
and ``MissingOriginRecordsError`` are verbatim copies of the record types
and errors the library had then: the library has since dropped the
per-edge tags, which restate the snub step's numbering, and reads the
classic steps' vertex blocks off their sizes.  These loops take the
frozen classic step of :mod:`classic_reference`, which still carries
``vertex_origin_kind``, and a :class:`Provenance` of edge tags.
:class:`Ribbon` is a verbatim copy of the per-strand ribbon record the
library had then; the library now returns every strand's ribbon in one
:class:`~snubweave.weaving.Ribbons` record of flat arrays, and the tests
cut it into these.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from classic_reference import OriginKind, SchemeStepResult
from snubweave.errors import (
    InternalInvariantError,
    InvalidParameterError,
    NoInteriorEdgesError,
    NotBipartiteError,
    SnubWeaveError,
)
from snubweave.mesh_core import Mesh, _require_record, build_mesh
from snubweave.weaving import (
    Strand,
    VertexColoring,
    triangle_coloring_check,
)


class BoundaryC2EdgeError(SnubWeaveError):
    """A second-color edge lies on the boundary, leaving an unglued triangle."""


class MissingProvenanceError(SnubWeaveError):
    """The operation needs per-element role tags that are not available."""


class MissingOriginRecordsError(SnubWeaveError):
    """The step result lacks the origin records this operation consumes."""


class EdgeTag(IntEnum):
    """Role of an edge in a refined mesh."""

    ORIGINAL = 0      # edge of an unrefined mesh
    Z_MIDDLE = 1      # middle segment of a bend triplet
    Z_OUTER = 2       # first or last segment of a bend triplet
    SPOKE = 3         # connection between a bend point and a barycenter


@dataclass(frozen=True)
class Ribbon:
    """Render geometry for one strand.

    ``centerline`` runs through tile centers and crossing midpoints;
    ``half_widths`` give the ribbon's half width at each centerline point;
    ``under_spans`` lists the centerline point indices at which this
    strand passes under (rendered with a gap).
    """

    strand_index: int
    centerline: np.ndarray
    half_widths: np.ndarray
    under_spans: tuple[int, ...]
    closed: bool


@dataclass(frozen=True)
class Provenance:
    """The role of every edge of a snub-refined mesh (:class:`EdgeTag`).

    Where each vertex and face came from is not stored: the numbering of
    the step, stated in :mod:`~snubweave.snub`, says it.
    """

    edge_tags: np.ndarray


@dataclass(frozen=True)
class GluedTiling:
    """Faces of a source mesh merged pairwise into larger tiles.

    ``mesh`` holds one face per tile over the source vertex set;
    ``tile_faces[k]`` lists the source faces forming tile ``k`` (two for a
    glued pair, one for a singleton).  The face-split construction has no
    source-face tiles; it records the interior source edge each quad
    covers in ``tile_source_edges`` instead.
    """

    source: Mesh
    mesh: Mesh
    pairs: np.ndarray
    singletons: np.ndarray
    tile_faces: tuple[tuple[int, ...], ...]
    tile_source_edges: np.ndarray | None = None


@dataclass(frozen=True)
class Weaving:
    """A full strand decomposition with per-crossing over/under records.

    Snub weavings keep a reference to the glued tiling they were traced
    on, because their crossing ids name middle edges of the refined mesh
    underneath it.
    """

    kind: str                       # "quad" or "snub"
    strands: tuple[Strand, ...]
    over_strand: dict
    under_strand: dict
    tiling: "GluedTiling | None" = None

    def crossing_count(self) -> int:
        return len(self.over_strand)


def two_color_vertices(mesh: Mesh) -> VertexColoring:
    """Breadth-first 2-coloring of a quad mesh's vertex graph.

    Starts each connected component at its lowest-index vertex with ``c1``.
    Raises :class:`NotBipartiteError` when an odd cycle makes a proper
    coloring impossible.
    """
    _require_record(mesh, Mesh, "mesh")
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


def _merge_cycles(cycle_f, cycle_g, a: int, b: int) -> list[int]:
    """Union cycle of two faces sharing edge (a, b), walked a→b by ``f``."""
    cf = [int(x) for x in cycle_f]
    cg = [int(x) for x in cycle_g]
    n, m = len(cf), len(cg)
    k = next(i for i in range(n) if cf[i] == a and cf[(i + 1) % n] == b)
    part_f = [cf[(k + 1 + i) % n] for i in range(n)]          # b ... a
    k = next(i for i in range(m) if cg[i] == b and cg[(i + 1) % m] == a)
    part_g = [cg[(k + 1 + i) % m] for i in range(m)]          # a ... b
    return part_f + part_g[1:-1]


def _build_tiling(source: Mesh, partner_of: dict[int, tuple[int, int]],
                  ) -> GluedTiling:
    """Assemble a tiling from a face → (partner face, shared edge) map."""
    tiles = []
    tile_faces = []
    pairs = []
    singles = []
    done = np.zeros(source.face_count, dtype=bool)
    for f in range(source.face_count):
        if done[f]:
            continue
        done[f] = True
        if f in partner_of:
            g, e = partner_of[f]
            done[g] = True
            a, b = int(source.edges[e, 0]), int(source.edges[e, 1])
            walker = f if int(source.edge_left[e]) == f else g
            other = g if walker == f else f
            tiles.append(_merge_cycles(source.face(walker),
                                       source.face(other), a, b))
            tile_faces.append((f, g))
            pairs.append((f, g))
        else:
            tiles.append([int(v) for v in source.face(f)])
            tile_faces.append((f,))
            singles.append(f)
    mesh = build_mesh(source.positions, tiles, allow_pinched_boundary=True)
    return GluedTiling(
        source=source, mesh=mesh,
        pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2),
        singletons=np.array(singles, dtype=np.int64),
        tile_faces=tuple(tile_faces))


def glue_triangle_pairs(mesh: Mesh, coloring: VertexColoring, *,
                        strict: bool = False) -> GluedTiling:
    """Merge triangles across their ``c2``–``c2`` edges into quads.

    Every validly colored triangle has exactly one edge joining its two
    ``c2`` vertices; deleting the interior ones merges the flanking
    triangles pairwise.  A triangle whose ``c2``–``c2`` edge lies on the
    boundary stays behind as a singleton (or raises
    :class:`BoundaryC2EdgeError` when ``strict``).
    """
    triangle_coloring_check(mesh, coloring)
    is_c1 = coloring.is_c1
    partner_of: dict[int, tuple[int, int]] = {}
    for e, (a, b) in enumerate(np.asarray(mesh.edges)):
        if is_c1[a] or is_c1[b]:
            continue
        f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        if f < 0 or g < 0:
            if strict:
                raise BoundaryC2EdgeError(
                    f"c2-c2 edge ({int(a)}, {int(b)}) lies on the boundary; "
                    f"its triangle cannot be glued")
            continue
        partner_of[f] = (g, e)
        partner_of[g] = (f, e)
    return _build_tiling(mesh, partner_of)


def sqrt3_quadization(step: SchemeStepResult,
                      ) -> tuple[GluedTiling, VertexColoring]:
    """Remove the re-connected edges of a sqrt-3 step, forming quads.

    Each quad holds two source-mesh vertices and two face centers on
    opposite diagonals.  Triangles along the boundary (whose edges were
    never re-connected) remain singletons.  The returned coloring marks
    source vertices ``c1`` and face centers ``c2``.
    """
    kinds = step.vertex_origin_kind
    if kinds is None or step.flipped_edges is None:
        raise MissingOriginRecordsError(
            "sqrt3_quadization needs the origin records of a sqrt3_step")
    mesh = step.mesh
    if (kinds == OriginKind.FACE_CENTER).sum() != step.source.face_count \
            or mesh.vertex_count != step.source.vertex_count \
            + step.source.face_count:
        raise MissingOriginRecordsError(
            "step does not look like a sqrt3_step result")
    is_center = kinds == OriginKind.FACE_CENTER
    partner_of: dict[int, tuple[int, int]] = {}
    for e, (a, b) in enumerate(np.asarray(mesh.edges)):
        if is_center[a] and is_center[b]:
            f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
            if f >= 0 and g >= 0:
                partner_of[f] = (g, e)
                partner_of[g] = (f, e)
    tiling = _build_tiling(mesh, partner_of)
    if len(tiling.pairs) != len(step.flipped_edges):
        raise InternalInvariantError(
            f"{len(tiling.pairs)} quads formed but {len(step.flipped_edges)} "
            f"edges were re-connected")
    return tiling, VertexColoring(~is_center)


def glue_snub_pairs(mesh: Mesh, provenance: Provenance) -> GluedTiling:
    """Pair every pentagon with its neighbor across the bend-middle edge.

    Each face of a snub-refined mesh contains exactly one middle edge of a
    bend triplet; interior middles glue their two pentagons into an
    octagon, boundary middles leave singletons.
    """
    if provenance is None or provenance.edge_tags is None:
        raise MissingProvenanceError(
            "glue_snub_pairs needs edge tags from a snub refinement step")
    middles = np.flatnonzero(np.asarray(provenance.edge_tags)
                             == EdgeTag.Z_MIDDLE)
    if len(middles) == 0:
        raise MissingProvenanceError(
            "mesh carries no bend-middle edges (unrefined input?)")
    per_face = np.zeros(mesh.face_count, dtype=np.int64)
    for f in range(mesh.face_count):
        per_face[f] = np.isin(mesh.face_edges(f), middles).sum()
    if (per_face != 1).any():
        raise InternalInvariantError(
            "every refined face must contain exactly one middle edge")
    partner_of: dict[int, tuple[int, int]] = {}
    for e in middles:
        f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        if f >= 0 and g >= 0:
            partner_of[f] = (g, int(e))
            partner_of[g] = (f, int(e))
    return _build_tiling(mesh, partner_of)


def _assign_color_ranks(strand_specs: list[dict]) -> list[int]:
    """Deterministic color indices: rank strands by their lowest tile id."""
    order = sorted(range(len(strand_specs)),
                   key=lambda i: (min(strand_specs[i]["tiles"]), i))
    ranks = [0] * len(strand_specs)
    for rank, i in enumerate(order):
        ranks[i] = rank
    return ranks


def quad_weaving(mesh: Mesh, coloring: VertexColoring, *,
                 mirror: bool = False) -> Weaving:
    """Trace the two-strand crossings of a two-colored quad mesh.

    Each quad is a crossing of the two strands running through its
    opposite edge pairs.  The strand entering across an edge whose ``c1``
    endpoint lies to the left of the entry direction passes over — with
    counterclockwise faces that endpoint is the one the face walks first.
    ``mirror`` flips the chirality.  Faces that are not quads (boundary
    leftovers of a gluing) terminate strands.

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

    face_cycles = {}
    face_edges = {}
    for f in np.flatnonzero(is_quad):
        f = int(f)
        cyc = mesh.face(f)
        face_cycles[f] = [int(v) for v in cyc]
        face_edges[f] = [int(e) for e in mesh.face_edges(f)]
        for k in range(4):
            u, v = cyc[k], cyc[(k + 1) % 4]
            if is_c1[u] == is_c1[v]:
                raise NotBipartiteError(
                    f"edge ({int(u)}, {int(v)}) of quad {f} joins two "
                    f"same-colored vertices")

    def other_face(e: int, f: int) -> int:
        l, r = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        return r if l == f else l

    visited = set()          # (face, axis) pairs

    def trace(f0: int, e0: int):
        """Walk from quad ``f0`` entered across its edge ``e0``."""
        tiles, crossings, over, enters, exits = [], [], [], [], []
        f, e_in = f0, e0
        closed = False
        while True:
            slot = face_edges[f].index(e_in)
            axis = slot % 2
            key = (f, axis)
            if key in visited:
                closed = True       # returned to the starting crossing
                break
            visited.add(key)
            origin = face_cycles[f][slot]
            e_out = face_edges[f][(slot + 2) % 4]
            tiles.append(f)
            crossings.append(f)
            over.append(bool(is_c1[origin]) ^ mirror)
            enters.append(e_in)
            exits.append(e_out)
            g = other_face(e_out, f)
            if g < 0 or not is_quad[g]:
                break
            f, e_in = g, e_out
        return dict(tiles=tiles, crossings=crossings, over=over,
                    enters=enters, exits=exits, closed=closed)

    specs = []
    # open strands start wherever a quad is entered from outside the
    # quad set (mesh boundary or a non-quad face)
    for e in range(mesh.edge_count):
        for f in (int(mesh.edge_left[e]), int(mesh.edge_right[e])):
            if f < 0 or not is_quad[f]:
                continue
            g = other_face(e, f)
            if g >= 0 and is_quad[g]:
                continue
            slot = face_edges[f].index(e)
            if (f, slot % 2) not in visited:
                specs.append(trace(f, e))
    # remaining strands are closed cycles
    for f in sorted(face_cycles):
        for axis in (0, 1):
            if (f, axis) not in visited:
                specs.append(trace(f, face_edges[f][axis]))

    ranks = _assign_color_ranks(specs)
    strands = tuple(
        Strand(tiles=tuple(s["tiles"]), crossings=tuple(s["crossings"]),
               over=tuple(s["over"]), closed=s["closed"],
               color_index=ranks[i], enter_edges=tuple(s["enters"]),
               exit_edges=tuple(s["exits"]))
        for i, s in enumerate(specs))

    over_strand, under_strand = {}, {}
    for i, s in enumerate(strands):
        for f, o in zip(s.crossings, s.over):
            side = over_strand if o else under_strand
            if f in side:
                raise InternalInvariantError(
                    f"quad {f} has two {'over' if o else 'under'} strands")
            side[f] = i
    if set(over_strand) != set(under_strand) \
            or len(over_strand) != int(is_quad.sum()):
        raise InternalInvariantError(
            "every quad must carry exactly one over and one under strand")
    return Weaving(kind="quad", strands=strands,
                   over_strand=over_strand, under_strand=under_strand)


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
    """
    if provenance is None or provenance.edge_tags is None:
        raise MissingProvenanceError(
            "trace_snub_strands needs the edge tags of the refined mesh")
    source = tiling.source
    edge_tags = np.asarray(provenance.edge_tags)
    middles = np.flatnonzero(edge_tags == EdgeTag.Z_MIDDLE)

    middle_of_vertex = np.full(source.vertex_count, -1, dtype=np.int64)
    for e in middles:
        middle_of_vertex[source.edges[e, 0]] = e
        middle_of_vertex[source.edges[e, 1]] = e

    # tile owning each middle edge: the pair glued across it, or the
    # singleton whose own middle it is
    tile_of_middle = {}
    internal_middle = []
    for t, faces in enumerate(tiling.tile_faces):
        if len(faces) == 2:
            shared = set(source.face_edges(faces[0]).tolist()) \
                & set(source.face_edges(faces[1]).tolist())
            (m,) = shared
        else:
            (m,) = [int(e) for e in source.face_edges(faces[0])
                    if edge_tags[e] == EdgeTag.Z_MIDDLE]
        internal_middle.append(int(m))
        tile_of_middle[int(m)] = t

    # designated vertices per tile; designator per vertex
    designator = {}
    tile_designated = []
    for t in range(tiling.mesh.face_count):
        own = internal_middle[t]
        designated = [int(v) for v in tiling.mesh.face(t)
                      if middle_of_vertex[v] >= 0
                      and int(middle_of_vertex[v]) != own]
        expected = len(tiling.tile_faces[t])
        if len(designated) != expected:
            raise InternalInvariantError(
                f"tile {t} has {len(designated)} designated bend vertices, "
                f"expected {expected}")
        tile_designated.append(designated)
        for v in designated:
            if v in designator:
                raise InternalInvariantError(
                    f"bend vertex {v} designated by two tiles")
            designator[v] = t

    def hop(t: int, v: int):
        """Cross the middle edge at designated vertex ``v`` of tile ``t``."""
        m = int(middle_of_vertex[v])
        a, b = int(source.edges[m, 0]), int(source.edges[m, 1])
        far = b if a == v else a
        return m, designator.get(far)

    visited = np.zeros(tiling.mesh.face_count, dtype=bool)

    def trace(t0: int, first_vertex: int | None):
        """Walk from tile ``t0``, first hopping at ``first_vertex``."""
        tiles, crossings = [t0], []
        visited[t0] = True
        if first_vertex is None:
            return dict(tiles=tiles, crossings=crossings, closed=False)
        t, v = t0, first_vertex
        closed = False
        while True:
            m, nxt = hop(t, v)
            crossings.append(m)
            if nxt is None:
                break
            if nxt == t0 and len(tiles) > 1:
                closed = True
                break
            if visited[nxt]:
                raise InternalInvariantError(
                    f"strand re-entered tile {nxt}")
            visited[nxt] = True
            tiles.append(nxt)
            outs = [w for w in tile_designated[nxt]
                    if int(middle_of_vertex[w]) != m]
            if not outs:
                break
            if len(outs) > 1:
                raise InternalInvariantError(
                    f"tile {nxt} offers {len(outs)} continuations")
            t, v = nxt, outs[0]
        return dict(tiles=tiles, crossings=crossings, closed=closed)

    def continues(t: int, v: int) -> bool:
        return hop(t, v)[1] is not None

    specs = []
    # open strands: start at tiles with at most one continuing hop;
    # trace away from the dead side
    for t in range(tiling.mesh.face_count):
        if visited[t]:
            continue
        designated = tile_designated[t]
        live = [v for v in designated if continues(t, v)]
        if len(designated) < 2 or len(live) < 2:
            if len(designated) == 0:
                specs.append(trace(t, None))
            elif len(live) == 1:
                spec = trace(t, live[0])
                # prepend the terminal crossing on the dead side, if any
                dead = [v for v in designated if v not in live]
                if dead:
                    spec["crossings"] = [hop(t, dead[0])[0]] \
                        + spec["crossings"]
                    spec["lead"] = True
                specs.append(spec)
            else:
                # both hops terminate: strand is this single tile
                spec = trace(t, designated[0])
                if len(designated) > 1:
                    spec["crossings"] = [hop(t, designated[1])[0]] \
                        + spec["crossings"]
                    spec["lead"] = True
                specs.append(spec)
    # remaining tiles lie on closed strands
    for t in range(tiling.mesh.face_count):
        if not visited[t]:
            specs.append(trace(t, tile_designated[t][0]))

    ranks = _assign_color_ranks(specs)
    strands = []
    strand_of_tile = {}
    for i, s in enumerate(specs):
        for t in s["tiles"]:
            strand_of_tile[t] = i
    for i, s in enumerate(specs):
        over = tuple(k % 2 == 0 for k in range(len(s["crossings"])))
        strands.append(Strand(tiles=tuple(s["tiles"]),
                              crossings=tuple(s["crossings"]), over=over,
                              closed=s["closed"], color_index=ranks[i],
                              lead_terminal=s.get("lead", False)))
    strands = tuple(strands)

    over_strand, under_strand = {}, {}
    for i, s in enumerate(strands):
        for m, o in zip(s.crossings, s.over):
            if m in over_strand:
                raise InternalInvariantError(
                    f"middle edge {m} crossed twice")
            node = strand_of_tile[tile_of_middle[m]]
            over_strand[m] = i if o else node
            under_strand[m] = node if o else i
    return Weaving(kind="snub", strands=strands,
                   over_strand=over_strand, under_strand=under_strand,
                   tiling=tiling)


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
    """
    inner = np.flatnonzero(~mesh.boundary_edge_mask)
    if len(inner) == 0:
        raise NoInteriorEdgesError(
            "face-split weaving needs at least one interior edge")
    V = mesh.vertex_count
    centers = mesh.face_centroids()
    quads = []
    for e in inner:
        a, b = int(mesh.edges[e, 0]), int(mesh.edges[e, 1])
        f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        quads.append([a, V + g, b, V + f])
    quad_mesh = build_mesh(np.vstack([mesh.positions, centers]), quads,
                           allow_pinched_boundary=True)
    tiling = GluedTiling(
        source=mesh, mesh=quad_mesh,
        pairs=np.zeros((0, 2), dtype=np.int64),
        singletons=np.zeros(0, dtype=np.int64),
        tile_faces=(), tile_source_edges=np.asarray(inner, dtype=np.int64))
    coloring = VertexColoring(np.concatenate([
        np.ones(V, dtype=bool), np.zeros(mesh.face_count, dtype=bool)]))
    return tiling, coloring, quad_weaving(quad_mesh, coloring)


def strand_ribbons(weaving: Weaving, mesh: Mesh,
                   width_fraction: float) -> list[Ribbon]:
    """Ribbon polylines for every strand of a weaving.

    ``mesh`` is the mesh the weaving was traced on (the quad mesh for quad
    weavings, the tiling mesh for snub weavings).  The ribbon width is
    ``width_fraction`` times the local edge length.
    """
    if not (0.0 < width_fraction < 1.0):
        raise InvalidParameterError(
            f"width_fraction must lie strictly between 0 and 1, got "
            f"{width_fraction}")
    centers = mesh.face_centroids()
    pos = np.asarray(mesh.positions)
    lengths = mesh.edge_lengths()

    def edge_mid(e: int) -> np.ndarray:
        return (pos[mesh.edges[e, 0]] + pos[mesh.edges[e, 1]]) / 2.0

    ribbons = []
    for i, strand in enumerate(weaving.strands):
        points, widths, unders = [], [], []
        if weaving.kind == "quad":
            for k, f in enumerate(strand.tiles):
                e_in, e_out = strand.enter_edges[k], strand.exit_edges[k]
                if k == 0:
                    points.append(edge_mid(e_in))
                    widths.append(lengths[e_in] * width_fraction / 2.0)
                if not strand.over[k]:
                    unders.append(len(points))
                points.append(centers[f])
                widths.append((lengths[e_in] + lengths[e_out])
                              * width_fraction / 4.0)
                points.append(edge_mid(e_out))
                widths.append(lengths[e_out] * width_fraction / 2.0)
        else:
            # snub: tile centers with crossed middle-edge midpoints
            # between; crossing ids name edges of the refined mesh under
            # the tiling, not of the tiling mesh itself
            src = weaving.tiling.source if weaving.tiling is not None \
                else mesh
            src_pos = np.asarray(src.positions)
            src_len = src.edge_lengths()

            def middle_mid(m: int) -> np.ndarray:
                return (src_pos[src.edges[m, 0]]
                        + src_pos[src.edges[m, 1]]) / 2.0

            seq_c = list(strand.crossings)
            idx = 0
            if strand.lead_terminal:
                if not strand.over[0]:
                    unders.append(0)
                points.append(middle_mid(seq_c[0]))
                widths.append(src_len[seq_c[0]] * width_fraction / 2.0)
                idx = 1
            for k, t in enumerate(strand.tiles):
                points.append(centers[t])
                widths.append(np.mean(lengths[mesh.face_edges(t)])
                              * width_fraction / 2.0)
                if idx < len(seq_c):
                    if not strand.over[idx]:
                        unders.append(len(points))
                    points.append(middle_mid(seq_c[idx]))
                    widths.append(src_len[seq_c[idx]]
                                  * width_fraction / 2.0)
                    idx += 1
            if strand.closed and points:
                points.append(points[0])
                widths.append(widths[0])
        ribbons.append(Ribbon(strand_index=i,
                              centerline=np.asarray(points, dtype=float),
                              half_widths=np.asarray(widths, dtype=float),
                              under_spans=tuple(unders),
                              closed=strand.closed))
    return ribbons
