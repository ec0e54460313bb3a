"""Indexed planar polygon meshes.

A :class:`Mesh` stores vertex positions and counterclockwise face cycles and
derives the undirected edge table with face incidences.  Meshes are immutable
after construction: every operation in this package returns new meshes.

Conventions used throughout the package:

* faces are simple cycles, oriented counterclockwise (positive signed area)
  in a y-up plane;
* an edge is *inner* when it has two incident faces, *outer* otherwise;
* a vertex is *inner* when it has at least one incident edge and all of its
  incident edges are inner;
* the face "barycenter" is the arithmetic mean of the face's vertex
  positions (the vertex centroid), not the area centroid.

Large meshes are handled with flat index arrays (CSR-style face storage), so
all derived tables are built with vectorized numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFaceError,
    IndexRangeError,
    InvalidParameterError,
    NonManifoldError,
    SelfIntersectionError,
)

__all__ = [
    "Point2",
    "Mesh",
    "ElementClass",
    "VertexTag",
    "EdgeTag",
    "Provenance",
    "build_mesh",
    "classify",
    "euler_characteristic",
    "convexity_report",
    "pentagon",
    "ngon",
    "square_grid",
    "fan_ngon",
    "pentagon_flower",
    "generate_demo_mesh",
]


@dataclass(frozen=True)
class Point2:
    """A point in the plane.  Coordinates must be finite."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


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


class Mesh:
    """Immutable planar polygon mesh with derived connectivity tables.

    Use :func:`build_mesh` (or a generator) instead of calling the
    constructor directly; the constructor trusts its arguments.  Only code
    that derives every table in closed form, such as the snub step, calls
    it directly.
    """

    def __init__(self, positions, face_vertex_flat, face_starts,
                 edges, edge_left, edge_right, face_edge_flat):
        self.positions = positions                  # (V, 2) float64
        self.face_vertex_flat = face_vertex_flat    # (sum n_f,) int64
        self.face_starts = face_starts              # (F + 1,) int64
        self.edges = edges                          # (E, 2) int64, a < b
        self.edge_left = edge_left                  # (E,) face walking a->b
        self.edge_right = edge_right                # (E,) face walking b->a
        self.face_edge_flat = face_edge_flat        # edge id per face slot
        for a in (positions, face_vertex_flat, face_starts,
                  edges, edge_left, edge_right, face_edge_flat):
            a.flags.writeable = False

    # -- basic counts -------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.face_starts) - 1

    def __repr__(self):
        return (f"Mesh(V={self.vertex_count}, E={self.edge_count}, "
                f"F={self.face_count})")

    # -- faces --------------------------------------------------------------

    @cached_property
    def face_sizes(self) -> np.ndarray:
        return np.diff(self.face_starts)

    def face(self, f: int) -> np.ndarray:
        """Vertex indices of face ``f`` in counterclockwise order."""
        return self.face_vertex_flat[self.face_starts[f]:self.face_starts[f + 1]]

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        """All face cycles as tuples (materialized lazily)."""
        flat = self.face_vertex_flat.tolist()
        starts = self.face_starts.tolist()
        return [tuple(flat[starts[f]:starts[f + 1]])
                for f in range(self.face_count)]

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        """All vertex positions as :class:`Point2` (materialized lazily)."""
        return tuple(Point2(float(x), float(y)) for x, y in self.positions)

    def face_edges(self, f: int) -> np.ndarray:
        """Edge ids along face ``f``; entry ``k`` joins cycle slots k, k+1."""
        return self.face_edge_flat[self.face_starts[f]:self.face_starts[f + 1]]

    @cached_property
    def slot_next(self) -> np.ndarray:
        """For each flat face slot, the slot of the next vertex in its cycle."""
        total = len(self.face_vertex_flat)
        nxt = np.arange(1, total + 1, dtype=np.int64)
        nxt[self.face_starts[1:] - 1] = self.face_starts[:-1]
        return nxt

    @cached_property
    def slot_face(self) -> np.ndarray:
        """For each flat face slot, the face it belongs to."""
        return np.repeat(np.arange(self.face_count, dtype=np.int64),
                         self.face_sizes)

    def face_centroids(self) -> np.ndarray:
        """Vertex centroid of every face, shape (F, 2)."""
        sums = np.add.reduceat(self.positions[self.face_vertex_flat],
                               self.face_starts[:-1], axis=0)
        return sums / self.face_sizes[:, None]

    def face_signed_areas(self) -> np.ndarray:
        """Shoelace signed area of every face (positive = counterclockwise)."""
        p = self.positions[self.face_vertex_flat]
        q = self.positions[self.face_vertex_flat[self.slot_next]]
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        return 0.5 * np.add.reduceat(cross, self.face_starts[:-1])

    # -- edges --------------------------------------------------------------

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map from an undirected vertex pair ``(min, max)`` to its edge id."""
        return {(int(a), int(b)): e
                for e, (a, b) in enumerate(self.edges.tolist())}

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise IndexRangeError(f"no edge joins vertices {u} and {v}") from None

    @cached_property
    def boundary_edge_mask(self) -> np.ndarray:
        return (self.edge_left < 0) | (self.edge_right < 0)

    @cached_property
    def vertex_degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)

    def edge_lengths(self) -> np.ndarray:
        d = self.positions[self.edges[:, 1]] - self.positions[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    # -- derived meshes ------------------------------------------------------

    def with_positions(self, positions: np.ndarray) -> "Mesh":
        """Same connectivity with replaced vertex positions (no re-validation)."""
        if positions.shape != self.positions.shape:
            raise InvalidParameterError("replacement positions have wrong shape")
        return Mesh(np.ascontiguousarray(positions, dtype=np.float64),
                    self.face_vertex_flat, self.face_starts,
                    self.edges, self.edge_left, self.edge_right,
                    self.face_edge_flat)

    # -- equality (exact; used by round-trip tests) --------------------------

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (np.array_equal(self.positions, other.positions)
                and np.array_equal(self.face_starts, other.face_starts)
                and np.array_equal(self.face_vertex_flat, other.face_vertex_flat))

    __hash__ = None


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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _flatten_faces(faces) -> tuple[np.ndarray, np.ndarray]:
    """Turn a sequence of index cycles into flat CSR arrays."""
    if isinstance(faces, tuple) and len(faces) == 2 \
            and isinstance(faces[0], np.ndarray):
        flat, starts = faces
        return (np.ascontiguousarray(flat, dtype=np.int64),
                np.ascontiguousarray(starts, dtype=np.int64))
    sizes = np.fromiter((len(f) for f in faces), dtype=np.int64,
                        count=len(faces))
    starts = np.zeros(len(faces) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    flat = np.empty(starts[-1], dtype=np.int64)
    for f, cycle in enumerate(faces):
        flat[starts[f]:starts[f + 1]] = cycle
    return flat, starts


def _check_point_array(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        positions = np.ascontiguousarray(points, dtype=np.float64)
    else:
        positions = np.array([(p.x, p.y) if isinstance(p, Point2) else tuple(p)
                              for p in points], dtype=np.float64)
    if positions.size == 0:
        positions = positions.reshape(0, 2)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise InvalidParameterError("points must be pairs of coordinates")
    if not np.isfinite(positions).all():
        raise InvalidParameterError("vertex coordinates must be finite")
    return positions


def build_mesh(points, faces, *, check_self_intersections: bool = False,
               allow_pinched_boundary: bool = False) -> Mesh:
    """Build a validated mesh from vertex positions and face index cycles.

    Faces given clockwise are reversed to counterclockwise.  Raises
    :class:`IndexRangeError` for out-of-range indices,
    :class:`DegenerateFaceError` for short/repeating/zero-area cycles or
    zero-length edges, and :class:`NonManifoldError` when an edge has more
    than two incident faces or the boundary is pinched at a vertex.

    ``allow_pinched_boundary`` skips the pinch check; mid-edge refinement
    legitimately produces faces that touch at a single vertex after its
    boundary clipping, and such meshes are otherwise well-formed.

    The optional quadratic self-intersection test is off by default because
    it is far too slow for deeply refined meshes.
    """
    positions = _check_point_array(points)
    flat, starts = _flatten_faces(faces)
    V = len(positions)
    F = len(starts) - 1

    sizes = np.diff(starts)
    if F and sizes.min() < 3:
        raise DegenerateFaceError(
            f"face {int(np.argmin(sizes))} has fewer than 3 vertices")
    if len(flat) and (flat.min() < 0 or flat.max() >= V):
        bad = int(np.flatnonzero((flat < 0) | (flat >= V))[0])
        raise IndexRangeError(
            f"face index {int(flat[bad])} out of range for {V} vertices")

    slot_face = np.repeat(np.arange(F, dtype=np.int64), sizes)

    # repeated vertex inside one cycle
    pair_key = slot_face * V + flat
    if len(np.unique(pair_key)) != len(pair_key):
        order = np.argsort(pair_key, kind="stable")
        dup = order[np.flatnonzero(np.diff(pair_key[order]) == 0)[0]]
        raise DegenerateFaceError(
            f"face {int(slot_face[dup])} repeats vertex {int(flat[dup])}")

    # orient all faces counterclockwise
    total = len(flat)
    nxt = np.arange(1, total + 1, dtype=np.int64)
    nxt[starts[1:] - 1] = starts[:-1]
    p = positions[flat]
    q = positions[flat[nxt]]
    doubled = np.add.reduceat(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1],
                              starts[:-1]) if F else np.zeros(0)
    if F and (doubled == 0.0).any():
        raise DegenerateFaceError(
            f"face {int(np.flatnonzero(doubled == 0.0)[0])} has zero area")
    flip = doubled < 0.0
    if F and flip.any():
        within = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], sizes)
        flip_slot = flip[slot_face]
        new_within = np.where(flip_slot,
                              np.repeat(sizes, sizes) - 1 - within, within)
        flat_fixed = np.empty_like(flat)
        flat_fixed[np.repeat(starts[:-1], sizes) + new_within] = flat
        flat = flat_fixed
        nxt = np.arange(1, total + 1, dtype=np.int64)
        nxt[starts[1:] - 1] = starts[:-1]

    # undirected edge table
    u = flat
    v = flat[nxt]
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    key = a * np.int64(V) + b
    unique_keys, inverse = np.unique(key, return_inverse=True)
    E = len(unique_keys)
    edges = np.column_stack((unique_keys // V, unique_keys % V)) \
        if E else np.zeros((0, 2), dtype=np.int64)

    edge_left = np.full(E, -1, dtype=np.int64)
    edge_right = np.full(E, -1, dtype=np.int64)
    left_slots = u < v
    if np.bincount(inverse[left_slots], minlength=E).max(initial=0) > 1 or \
       np.bincount(inverse[~left_slots], minlength=E).max(initial=0) > 1:
        counts = np.bincount(inverse, minlength=E)
        bad = int(np.argmax(counts))
        raise NonManifoldError(
            f"edge ({int(edges[bad, 0])}, {int(edges[bad, 1])}) has more than "
            f"two incident faces or is traversed twice in the same direction")
    edge_left[inverse[left_slots]] = slot_face[left_slots]
    edge_right[inverse[~left_slots]] = slot_face[~left_slots]

    if E:
        zero_len = np.all(positions[edges[:, 0]] == positions[edges[:, 1]],
                          axis=1)
        if zero_len.any():
            e = int(np.flatnonzero(zero_len)[0])
            raise DegenerateFaceError(
                f"edge ({int(edges[e, 0])}, {int(edges[e, 1])}) has zero length")

        if not allow_pinched_boundary:
            boundary = (edge_left < 0) | (edge_right < 0)
            bdeg = np.bincount(edges[boundary].ravel(), minlength=V)
            bad_v = np.flatnonzero((bdeg != 0) & (bdeg != 2))
            if len(bad_v):
                raise NonManifoldError(
                    f"boundary is pinched at vertex {int(bad_v[0])} "
                    f"({int(bdeg[bad_v[0]])} boundary edges meet there)")

    mesh = Mesh(positions.copy(), flat, starts, edges,
                edge_left, edge_right, inverse)
    if check_self_intersections:
        _check_self_intersections(mesh)
    return mesh


def _check_self_intersections(mesh: Mesh) -> None:
    """Quadratic proper-crossing test between all edge pairs."""
    P = mesh.positions
    E = mesh.edge_count
    a = P[mesh.edges[:, 0]]
    b = P[mesh.edges[:, 1]]

    def cross2(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    for e in range(E):
        shares = ((mesh.edges[:, 0, None] == mesh.edges[e][None, :]) |
                  (mesh.edges[:, 1, None] == mesh.edges[e][None, :])).any(axis=1)
        d1 = b[e] - a[e]
        c1 = cross2(d1, a - a[e])
        c2 = cross2(d1, b - a[e])
        d2 = b - a
        c3 = cross2(d2, a[e] - a)
        c4 = cross2(d2, b[e] - a)
        crossing = (~shares) & (c1 * c2 < 0) & (c3 * c4 < 0)
        crossing[:e + 1] = False
        if crossing.any():
            other = int(np.flatnonzero(crossing)[0])
            raise SelfIntersectionError(
                f"edges {e} and {other} cross each other")


# ---------------------------------------------------------------------------
# classification and reports
# ---------------------------------------------------------------------------

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


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F (1 for a disc, 2 for a sphere-like mesh without boundary)."""
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


def convexity_report(mesh: Mesh, tolerance: float = 1e-9) -> list[int]:
    """Ids of faces with a reflex corner.

    A corner counts as reflex when its normalized turn cross product is
    below ``-tolerance``; near-straight corners produced by smoothing are
    therefore not reported.
    """
    flat = mesh.face_vertex_flat
    if not len(flat):
        return []
    nxt = mesh.slot_next
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(len(nxt), dtype=np.int64)
    p0 = mesh.positions[flat[prv]]
    p1 = mesh.positions[flat]
    p2 = mesh.positions[flat[nxt]]
    d1 = p1 - p0
    d2 = p2 - p1
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    norm = np.hypot(*d1.T) * np.hypot(*d2.T)
    turn = cross / np.where(norm == 0.0, 1.0, norm)
    worst = np.minimum.reduceat(turn, mesh.face_starts[:-1])
    return [int(f) for f in np.flatnonzero(worst < -tolerance)]


# ---------------------------------------------------------------------------
# demo-input generators
# ---------------------------------------------------------------------------

def ngon(n: int) -> Mesh:
    """Regular n-gon with unit circumradius, one face, first vertex on top."""
    if n < 3:
        raise InvalidParameterError(f"an n-gon needs n >= 3, got {n}")
    angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
    pts = np.column_stack((np.cos(angles), np.sin(angles)))
    return build_mesh(pts, [list(range(n))])


def pentagon() -> Mesh:
    """Regular pentagon with unit circumradius, one face."""
    return ngon(5)


def square_grid(w: int, h: int) -> Mesh:
    """Grid of w x h unit squares spanning [0, w] x [0, h]."""
    if w < 1 or h < 1:
        raise InvalidParameterError(f"grid needs w, h >= 1, got {w}x{h}")
    xs, ys = np.meshgrid(np.arange(w + 1), np.arange(h + 1))
    pts = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)

    def vid(x, y):
        return y * (w + 1) + x

    faces = [[vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y + 1)]
             for y in range(h) for x in range(w)]
    return build_mesh(pts, faces)


def fan_ngon(n: int) -> Mesh:
    """Regular n-gon triangulated by fanning from its centroid."""
    if n < 3:
        raise InvalidParameterError(f"a fan n-gon needs n >= 3, got {n}")
    ring = ngon(n).positions
    pts = np.vstack((ring, [[0.0, 0.0]]))
    faces = [[k, (k + 1) % n, n] for k in range(n)]
    return build_mesh(pts, faces)


def pentagon_flower() -> Mesh:
    """A regular pentagon with a reflected regular pentagon on each edge."""
    core = pentagon().positions
    pts = [tuple(p) for p in core]
    faces = [[0, 1, 2, 3, 4]]
    for k in range(5):
        pk, pk1 = core[k], core[(k + 1) % 5]
        d = pk1 - pk
        nn = d / np.hypot(*d)

        def reflect(p):
            rel = p - pk
            along = rel.dot(nn)
            perp = rel - along * nn
            return tuple(pk + along * nn - perp)

        new_ids = []
        for j in (2, 3, 4):
            pts.append(reflect(core[(k + j) % 5]))
            new_ids.append(len(pts) - 1)
        faces.append([k, (k + 1) % 5, new_ids[0], new_ids[1], new_ids[2]])
    return build_mesh(np.array(pts), faces)


def generate_demo_mesh(kind: str) -> Mesh:
    """Build a demo input from a text spec.

    Accepted forms: ``pentagon``, ``ngon:N``, ``grid:WxH``, ``fan:N``,
    ``pentaflower``.
    """
    name, _, arg = kind.partition(":")
    try:
        if name == "pentagon" and not arg:
            return pentagon()
        if name == "pentaflower" and not arg:
            return pentagon_flower()
        if name == "ngon":
            return ngon(int(arg))
        if name == "fan":
            return fan_ngon(int(arg))
        if name == "grid":
            w, _, h = arg.partition("x")
            return square_grid(int(w), int(h))
    except ValueError as exc:
        raise InvalidParameterError(f"bad generator spec {kind!r}: {exc}") from exc
    raise InvalidParameterError(f"unknown generator spec {kind!r}")
