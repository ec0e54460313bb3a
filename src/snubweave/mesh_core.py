"""Indexed planar polygon meshes.

A :class:`Mesh` stores vertex positions and counterclockwise face cycles and
derives the undirected edge table with face incidences.  Meshes are immutable
after construction: every operation in this package returns new meshes.

Conventions used throughout the package:

* faces are simple cycles, oriented counterclockwise (positive signed area)
  in a y-up plane;
* an edge is *inner* when it has two incident faces, *outer* otherwise
  (:attr:`Mesh.boundary_edge_mask` marks the outer ones);
* a vertex is *inner* when it has at least one incident edge and all of its
  incident edges are inner (:attr:`Mesh.inner_vertex_mask`);
* the face "barycenter" is the arithmetic mean of the face's vertex
  positions (the vertex centroid), not the area centroid;
* a sum over a face's slots is ``c0 + (((c1 + c2) + c3) + ...)`` from its
  first slot, the order :func:`_face_sums` states (not a numpy loop's);
* a sum over a vertex's entries (its edges' other ends, its face slots) is
  ``((0 + t0) + t1) + ...`` from zero in the order they are listed, the
  scatter order of ``np.bincount`` that :func:`_vertex_sums` states.

Large meshes are handled with flat index arrays (CSR-style face storage), so
all derived tables are built with vectorized numpy passes.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import (
    DegenerateFaceError,
    IndexRangeError,
    InvalidParameterError,
    NonManifoldError,
    SelfIntersectionError,
)

__all__ = [
    "INDEX_DTYPE",
    "Mesh",
    "build_mesh",
    "euler_characteristic",
    "convexity_report",
    "pentagon",
    "ngon",
    "square_grid",
    "fan_ngon",
    "pentagon_flower",
    "generate_demo_mesh",
]


#: The dtype of a mesh's six index arrays, whatever made the mesh: every
#: vertex, edge and face id and every face-slot offset.  The positions are
#: float64.  A mesh of more vertices, edges or face slots than it can number
#: is refused before it is built (:func:`_fits_index`).  Every index array
#: of a :class:`~.weaving.Weaving` (quad, snub and face-split weaves) is in
#: it too; a glued tiling's ``tile_faces`` and a ribbon record's offsets
#: are int64.
INDEX_DTYPE = np.dtype(np.int32)

_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)


def _fits_index(vertices: int, edges: int, slots: int) -> bool:
    """Whether :data:`INDEX_DTYPE` numbers a mesh of these counts: its
    vertices, its edges and its face slots (the offset past the last face,
    and never fewer than its faces)."""
    return max(vertices, edges, slots) <= _INDEX_MAX


class Mesh:
    """Immutable planar polygon mesh: the seven read-only arrays the
    constructor takes, and nothing else.  Every other table is derived from
    them on each access and stored nowhere, so a caller that needs one more
    than once reads it once and keeps it.

    The positions are float64 and the six index arrays :data:`INDEX_DTYPE`
    (int32), so a mesh has at most ``2**31 - 1`` vertices, edges and face
    slots; :func:`_direct_mesh` raises :class:`InvalidParameterError` for
    more, and :func:`~.snub.snub_subdivide` refuses a depth that would reach
    them.  A product of two id ranges, such as an edge's ``(lo, hi)`` key,
    is computed in int64.

    Use :func:`build_mesh` (or a generator) instead of calling the
    constructor directly; the constructor trusts its arguments.  Meshes
    are made one way: :func:`build_mesh` hashes the face cycles into an
    edge table and hands it to :func:`_direct_mesh`, which runs the face
    and pinch checks and calls the constructor.  The classic schemes, the
    glued tilings and the face-split weaving derive their tables in closed
    form and call :func:`_direct_mesh` themselves; the snub step calls the
    constructor and sums its areas by column for :func:`_reject_bad_faces`.

    The edge table holds each undirected edge once as ``(lo, hi)`` with
    ``lo < hi``, sorted by ``(lo, hi)``.  :meth:`edge_id` binary-searches
    it, so every maker of a mesh (:func:`_direct_mesh`, and so
    :func:`build_mesh`; the snub step; :meth:`with_positions`) keeps that
    order.
    """

    def __init__(self, positions, face_vertex_flat, face_starts,
                 edges, edge_left, edge_right, face_edge_flat):
        self.positions = positions                  # (V, 2) float64
        self.face_vertex_flat = face_vertex_flat    # (sum n_f,) int32
        self.face_starts = face_starts              # (F + 1,) int32
        self.edges = edges                          # (E, 2) int32, a < b
        self.edge_left = edge_left                  # (E,) int32, face a->b
        self.edge_right = edge_right                # (E,) int32, face b->a
        self.face_edge_flat = face_edge_flat        # (sum n_f,) int32 edges
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

    @property
    def face_sizes(self) -> np.ndarray:
        return np.diff(self.face_starts)

    def face(self, f: int) -> np.ndarray:
        """Vertex indices of face ``f`` in counterclockwise order."""
        return self.face_vertex_flat[self.face_starts[f]:self.face_starts[f + 1]]

    @property
    def faces(self) -> list[tuple[int, ...]]:
        """All face cycles as tuples (built on each access)."""
        flat = self.face_vertex_flat.tolist()
        starts = self.face_starts.tolist()
        return [tuple(flat[starts[f]:starts[f + 1]])
                for f in range(self.face_count)]

    def face_edges(self, f: int) -> np.ndarray:
        """Edge ids along face ``f``; entry ``k`` joins cycle slots k, k+1."""
        return self.face_edge_flat[self.face_starts[f]:self.face_starts[f + 1]]

    @property
    def slot_next(self) -> np.ndarray:
        """For each flat face slot, the slot of the next vertex in its cycle."""
        return _next_slots(self.face_starts)

    @property
    def slot_face(self) -> np.ndarray:
        """For each flat face slot, the face it belongs to."""
        return _slot_faces(self.face_starts)

    def face_centroids(self) -> np.ndarray:
        """Vertex centroid of every face, shape (F, 2)."""
        p = np.take(self.positions, self.face_vertex_flat, axis=0)
        return _face_sums(p, self.face_starts) / self.face_sizes[:, None]

    def face_signed_areas(self) -> np.ndarray:
        """Shoelace signed area of every face (positive = counterclockwise)."""
        p = np.take(self.positions, self.face_vertex_flat, axis=0)
        return 0.5 * _shoelace(p, np.take(p, self.slot_next, axis=0),
                               self.face_starts)

    # -- edges --------------------------------------------------------------

    def edge_id(self, u, v):
        """Id of the edge joining ``u`` and ``v``, given in either order.

        ``u`` and ``v`` are ints or equal-length int arrays (then an array
        of ids is returned).  A binary search over the sorted edge table;
        raises :class:`IndexRangeError` when a pair is not an edge, and
        :class:`InvalidParameterError` for an index that is not an integer.
        """
        ids = np.asarray(u), np.asarray(v)
        if any(a.size and a.dtype.kind not in "iu" for a in ids):
            raise InvalidParameterError(
                f"vertex ids must be integers, got {u!r} and {v!r}")
        u, v = (a.astype(np.int64, copy=False) for a in ids)
        V = self.vertex_count
        # one int64 key per edge, then a sentinel for searches past the last
        keys = np.append(
            self.edges[:, 0].astype(np.int64) * V + self.edges[:, 1], -1)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        want = lo * V + hi
        e = np.searchsorted(keys[:-1], want)
        found = (lo >= 0) & (hi < V) & (keys[e] == want)
        if not found.all():
            bad = np.flatnonzero(~found.ravel())[0]
            raise IndexRangeError(
                f"no edge joins vertices {int(u.ravel()[bad])} and "
                f"{int(v.ravel()[bad])}")
        return int(e) if e.ndim == 0 else e

    @property
    def boundary_edge_mask(self) -> np.ndarray:
        """Per edge, whether it has fewer than two incident faces (outer)."""
        return (self.edge_left < 0) | (self.edge_right < 0)

    @property
    def inner_vertex_mask(self) -> np.ndarray:
        """Per vertex, whether it has an edge and no edge on the boundary."""
        inner = np.zeros(self.vertex_count, dtype=bool)
        inner[self.edges.ravel()] = True
        inner[self.edges[self.boundary_edge_mask].ravel()] = False
        return inner

    @property
    def vertex_degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)

    def edge_lengths(self) -> np.ndarray:
        d = np.take(self.positions, self.edges[:, 1], axis=0) \
            - np.take(self.positions, self.edges[:, 0], axis=0)
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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _row_sum(columns) -> np.ndarray:
    """The face-sum order ``c0 + (((c1 + c2) + c3) + ...)`` over three or
    more columns (or a generator of them), added in place after ``c1 + c2``."""
    columns = iter(columns)
    first, total = next(columns), next(columns) + next(columns)
    for column in columns:
        total += column
    return first + total


def _face_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per face of ``starts``, its slots' ``values`` (a value or a row each)
    summed in the face-sum order: faces grouped by size with one stable
    sort, and each group's columns (views when all sizes agree) added by
    :func:`_row_sum`."""
    sizes = np.diff(starts)
    if (sizes == sizes[0]).all():       # one size: columns are slot views
        rows = values.reshape((len(sizes), -1) + values.shape[1:])
        return _row_sum(rows[:, j] for j in range(rows.shape[1]))
    order = np.argsort(sizes, kind="stable")
    sums = np.empty((len(sizes),) + values.shape[1:], dtype=values.dtype)
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        first = starts[group].astype(np.intp)    # numpy's own index type
        sums[group] = _row_sum(values[first + j]
                               for j in range(sizes[group[0]]))
    return sums


def _vertex_sums(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per key in ``[0, n)``, the ``values`` (a value or a row each) keyed
    to it, added in the vertex-sum order: from zero, in input order, with
    one ``np.bincount`` per column."""
    if values.ndim == 1:
        return np.bincount(keys, weights=values, minlength=n)
    return np.column_stack([np.bincount(keys, weights=values[:, j],
                                        minlength=n)
                            for j in range(values.shape[1])])


def _grouped(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` (ints in ``[0, n)``) grouped by one stable argsort: the
    order, which lists each key's entries in input order, and the ``n + 1``
    offsets of the groups in it, so key ``k``'s entries are
    ``order[offsets[k]:offsets[k + 1]]``."""
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return order, offsets


def _shoelace(p: np.ndarray, q: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Twice each face's signed area, from slots ``p`` and next slots ``q``."""
    return _face_sums(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1], starts)


def _next_slots(starts: np.ndarray) -> np.ndarray:
    """Per slot of the faces that ``starts`` bounds, a run of whole faces
    that need not begin at slot 0: the slot of the next vertex in its
    cycle, counted from the run's first slot."""
    nxt = np.arange(1, starts[-1] - starts[0] + 1, dtype=np.int64)
    nxt[starts[1:] - 1 - starts[0]] = starts[:-1] - starts[0]
    return nxt


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``order``: the rank of each entry.
    Of :func:`_next_slots`, it gives each slot's previous slot."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank


def _slot_faces(starts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Per slot, as for :func:`_next_slots`: its face, counted likewise, in
    ``dtype``."""
    return np.repeat(np.arange(len(starts) - 1, dtype=dtype), np.diff(starts))


def _reject_repeats(flat: np.ndarray, slot_face: np.ndarray, V: int) -> None:
    """Raise :class:`DegenerateFaceError` where a cycle repeats a vertex,
    naming the lowest ``(face, vertex)`` pair; one sort of the pair keys."""
    keys = np.sort(slot_face * V + flat)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if len(dup):
        f, v = divmod(int(keys[dup[0]]), V)
        raise DegenerateFaceError(f"face {f} repeats vertex {v}")


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int64 array; :class:`InvalidParameterError` for
    entries that are not integers (a float, even a whole one, included)."""
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise InvalidParameterError(
            f"{name} must be a flat sequence of integers, got {a.dtype} "
            f"values of shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.int64)


def _flatten_faces(faces) -> tuple[np.ndarray, np.ndarray]:
    """Turn a sequence of index cycles, or a CSR pair, into CSR arrays."""
    if isinstance(faces, tuple) and len(faces) == 2 \
            and isinstance(faces[0], np.ndarray):
        flat = _index_array(faces[0], "face_vertex_flat")
        starts = _index_array(faces[1], "face_starts")
        if not len(starts) or starts[0] != 0 or starts[-1] != len(flat) \
                or (starts[1:] < starts[:-1]).any():
            raise InvalidParameterError(
                f"face_starts must rise from 0 to {len(flat)}, the length "
                f"of face_vertex_flat, without decreasing")
        return flat, starts
    try:
        sizes = np.fromiter((len(f) for f in faces), dtype=np.int64,
                            count=len(faces))
        indices = list(itertools.chain.from_iterable(faces))
    except TypeError:
        indices = [None]        # not a sequence of cycles: rejected below
    # checked by type, as numpy would take a bool for an int
    if any(t is bool or not issubclass(t, numbers.Integral)
           for t in set(map(type, indices))):
        raise InvalidParameterError(
            "face indices must be a flat sequence of integers, not of bools, "
            "floats or sequences")
    starts = np.zeros(len(faces) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return _index_array(indices, "face indices"), starts


def _checked_int(value, name: str, low: int | None) -> int:
    """``value`` as an int; :class:`InvalidParameterError` unless it is an
    integer of at least ``low`` (None: any integer; numpy integers pass,
    bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or low is not None and value < low:
        bound = "" if low is None else f" >= {low}"
        raise InvalidParameterError(
            f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _require_record(value, kind: type, name: str) -> None:
    """:class:`InvalidParameterError` naming the argument ``name`` unless
    ``value`` is a ``kind``: a :class:`Mesh`, a history, a tiling or a
    weaving."""
    if not isinstance(value, kind):
        raise InvalidParameterError(
            f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _check_point_array(points) -> np.ndarray:
    try:
        positions = np.ascontiguousarray(
            points if isinstance(points, np.ndarray)
            else [tuple(p) for p in points], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"points must be pairs of numbers: {exc}") from exc
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

    ``faces`` is a sequence of index cycles, or the CSR pair of arrays
    ``(face_vertex_flat, face_starts)``: a tuple of two arrays is always
    read as CSR, so give two faces as arrays in a list.  In the CSR pair,
    face ``f`` is ``face_vertex_flat[face_starts[f]:face_starts[f + 1]]``,
    so ``face_starts`` holds ``F + 1`` offsets that start at 0, never
    decrease and end at ``len(face_vertex_flat)``; both arrays are flat and
    of an integer dtype.  Any other pair, or an index that is not an
    integer in either form, raises :class:`InvalidParameterError`.

    Faces given clockwise are reversed to counterclockwise.  Raises
    :class:`InvalidParameterError` for no faces, in either form,
    :class:`IndexRangeError` for out-of-range indices,
    :class:`DegenerateFaceError` for short/repeating/zero-area cycles, an
    area within its shoelace sum's rounding error or zero-length edges, and
    :class:`NonManifoldError` when an edge is walked twice in the same
    direction (so also when it has more than two incident faces) or the
    boundary is pinched at a vertex.

    The edge table is found by hashing the cycles; the rest is
    :func:`_direct_mesh`, which runs the face and pinch checks.
    ``allow_pinched_boundary`` skips the pinch check, for meshes whose
    faces may touch at a single vertex and are otherwise well-formed.

    ``check_self_intersections`` also rejects two edges that cross (see
    :func:`_check_self_intersections`); it is off by default.
    """
    positions = _check_point_array(points)
    flat, starts = _flatten_faces(faces)
    V = len(positions)
    if len(starts) == 1:
        raise InvalidParameterError("a mesh needs at least one face")

    sizes = np.diff(starts)
    if sizes.min() < 3:
        raise DegenerateFaceError(
            f"face {int(np.argmin(sizes))} has fewer than 3 vertices")
    if flat.min() < 0 or flat.max() >= V:
        bad = int(np.flatnonzero((flat < 0) | (flat >= V))[0])
        raise IndexRangeError(
            f"face index {int(flat[bad])} out of range for {V} vertices")

    nxt, slot_face = _next_slots(starts), _slot_faces(starts)
    _reject_repeats(flat, slot_face, V)

    # orient all faces counterclockwise; an n-gon's shoelace sum may be off
    # by (n + 1) eps times the sum of its products' magnitudes, so a sum no
    # larger than that has not even a sign to trust
    p = np.take(positions, flat, axis=0)
    q = np.take(p, nxt, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        doubled = _shoelace(p, q, starts)
        rounding = (sizes + 1) * np.finfo(np.float64).eps * _face_sums(
            np.abs(p[:, 0] * q[:, 1]) + np.abs(q[:, 0] * p[:, 1]), starts)
    del p, q
    if not np.isfinite(doubled).all():
        raise InvalidParameterError(
            f"face {int(np.flatnonzero(~np.isfinite(doubled))[0])} has an "
            f"area that is not finite (coordinates too large)")
    if (doubled == 0.0).any():
        raise DegenerateFaceError(
            f"face {int(np.flatnonzero(doubled == 0.0)[0])} has zero area")
    lost = np.abs(doubled) <= rounding
    if lost.any():
        raise DegenerateFaceError(
            f"face {int(np.flatnonzero(lost)[0])} has an area below the "
            f"rounding error of its shoelace sum (too small for where it is)")
    flip = doubled < 0.0
    if flip.any():      # a clockwise cycle is read from its last slot back
        slot = np.arange(len(flat), dtype=np.int64)
        flat = flat[np.where(flip[slot_face], 2 * starts[slot_face]
                             + sizes[slot_face] - 1 - slot, slot)]

    # undirected edge table
    u = flat
    v = flat[nxt]
    key = np.minimum(u, v) * np.int64(V) + np.maximum(u, v)
    unique_keys, inverse = np.unique(key, return_inverse=True)
    E = len(unique_keys)
    edges = np.column_stack((unique_keys // V, unique_keys % V)) \
        if E else np.zeros((0, 2), dtype=np.int64)

    # an edge walked twice in one direction has two faces on one side
    left_slots = u < v
    twice = (np.bincount(inverse[left_slots], minlength=E) > 1) \
        | (np.bincount(inverse[~left_slots], minlength=E) > 1)
    if twice.any():
        bad = int(np.argmax(twice))
        raise NonManifoldError(
            f"edge ({int(edges[bad, 0])}, {int(edges[bad, 1])}) has more than "
            f"two incident faces or is traversed twice in the same direction")

    mesh = _direct_mesh(positions.copy(), flat, starts, edges, inverse,
                        pinch_check=not allow_pinched_boundary)
    if check_self_intersections:
        _check_self_intersections(mesh)
    return mesh


def _reject_bad_faces(areas: np.ndarray, zero_len: np.ndarray,
                      face_edge_flat: np.ndarray, edges: np.ndarray) -> None:
    """Raise for a face of zero area, a clockwise face or a zero-length edge.

    The one raiser of these faults, for :func:`_direct_mesh` and the snub
    step.  ``areas`` holds each face's signed area, ``zero_len`` marks each
    slot whose vertex and the next in its cycle coincide.  A zero-area face
    raises :class:`DegenerateFaceError`, then a clockwise one, folded over
    its neighbors, :class:`NonManifoldError`, each naming the lowest such
    face; then a zero-length edge raises :class:`DegenerateFaceError`
    naming the lowest such edge.
    """
    if (areas == 0.0).any():
        raise DegenerateFaceError(
            f"face {int(np.flatnonzero(areas == 0.0)[0])} has zero area")
    if (areas < 0.0).any():
        raise NonManifoldError(
            f"face {int(np.flatnonzero(areas < 0.0)[0])} is folded over its "
            f"neighbors (clockwise after refinement)")
    if zero_len.any():
        a, b = edges[int(face_edge_flat[zero_len].min())]
        raise DegenerateFaceError(f"edge ({int(a)}, {int(b)}) has zero length")


def _reject_pinched_boundary(edges: np.ndarray, edge_left: np.ndarray,
                             edge_right: np.ndarray, V: int) -> None:
    """Raise :class:`NonManifoldError` where more than two boundary edges
    (or just one) meet at a vertex."""
    boundary = (edge_left < 0) | (edge_right < 0)
    bdeg = np.bincount(edges[boundary].ravel(), minlength=V)
    bad_v = np.flatnonzero((bdeg != 0) & (bdeg != 2))
    if len(bad_v):
        raise NonManifoldError(
            f"boundary is pinched at vertex {int(bad_v[0])} "
            f"({int(bdeg[bad_v[0]])} boundary edges meet there)")


def _direct_mesh(positions: np.ndarray, flat: np.ndarray, starts: np.ndarray,
                 edges: np.ndarray, face_edge_flat: np.ndarray, *,
                 pinch_check: bool = True) -> Mesh:
    """A mesh from known connectivity, checked where that cannot rule a
    fault out.

    ``edges`` is the ``(lo, hi)``-sorted edge table of the face cycles
    ``(flat, starts)``, and ``face_edge_flat`` the edge from each slot to
    the next; each edge's two faces are read off the slots.  The index
    arrays may come in any integer dtype, and the mesh holds them in
    :data:`INDEX_DTYPE`; more vertices, edges or face slots than that
    numbers raise :class:`InvalidParameterError` before anything else.
    There must be a face, indices in range and no edge walked twice in one
    direction, as every caller (:func:`build_mesh`, the classic schemes,
    the glued tilings and the face-split weaving) ensures.  The checks follow
    :func:`build_mesh`'s order and raise its errors: finite coordinates, at
    least 3 vertices per face, the face checks of :func:`_reject_bad_faces`
    (a clockwise face is not reversed but rejected as folded) and, with
    ``pinch_check``, no pinched boundary.  A vertex twice in a cycle is not
    looked for here: :func:`build_mesh` and the gluing, whose merged cycles
    can hold one, check that first (:func:`_reject_repeats`).
    """
    V, E = len(positions), len(edges)
    if not _fits_index(V, E, len(flat)):
        raise InvalidParameterError(
            f"a mesh of {V} vertices, {E} edges and {len(flat)} face slots "
            f"is too many for {INDEX_DTYPE} indices (at most {_INDEX_MAX} "
            f"of each)")
    sizes = np.diff(starts)
    if not np.isfinite(positions).all():
        raise InvalidParameterError("vertex coordinates must be finite")
    if sizes.min() < 3:
        raise DegenerateFaceError(
            f"face {int(np.argmin(sizes))} has fewer than 3 vertices")
    nxt = _next_slots(starts)
    p = np.take(positions, flat, axis=0)
    q = np.take(p, nxt, axis=0)
    areas = 0.5 * _shoelace(p, q, starts)
    zero_len = (p[:, 0] == q[:, 0]) & (p[:, 1] == q[:, 1])
    del p, q
    _reject_bad_faces(areas, zero_len, face_edge_flat, edges)
    sides = np.full(2 * E, -1, dtype=INDEX_DTYPE)
    sides[(flat > flat[nxt]) * E + face_edge_flat] = _slot_faces(starts)
    if pinch_check:
        _reject_pinched_boundary(edges, sides[:E], sides[E:], V)
    flat, starts, edges, face_edge_flat = (
        np.ascontiguousarray(a, dtype=INDEX_DTYPE)
        for a in (flat, starts, edges, face_edge_flat))
    return Mesh(positions, flat, starts, edges, sides[:E], sides[E:],
                face_edge_flat)


def _edge_slots(mesh: Mesh, nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, its flat face slot in the left and the right face (-1), in
    :data:`INDEX_DTYPE`; ``nxt`` is the mesh's :attr:`Mesh.slot_next`."""
    flat, E = mesh.face_vertex_flat, mesh.edge_count
    sides = np.full(2 * E, -1, dtype=INDEX_DTYPE)
    sides[(flat > flat[nxt]) * E + mesh.face_edge_flat] = np.arange(
        len(flat), dtype=INDEX_DTYPE)
    return sides[:E], sides[E:]


def _slot_twins(mesh: Mesh, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per flat face slot, the slot across its out-edge in the other face,
    or -1 on the boundary, in :data:`INDEX_DTYPE`; ``left`` and ``right``
    are the mesh's :func:`_edge_slots` tables."""
    edge = mesh.face_edge_flat
    slots = np.arange(len(edge), dtype=INDEX_DTYPE)
    return np.where(left[edge] == slots, right[edge], left[edge])


def _check_self_intersections(mesh: Mesh) -> None:
    """Raise :class:`SelfIntersectionError` when two edges cross.

    Two edges cross when they share no endpoint and the endpoints of each
    lie strictly on opposite sides of the other's line.  Of all crossing
    pairs, the one named has the lowest first edge, then the lowest
    second edge.

    Only edges whose bounding boxes cover a common cell of a uniform grid
    are tested against each other, which crossing edges always do.  The
    cell side is the mean bounding-box side of the edges, but at least a
    sixteenth of the longest, so no edge covers more than about 17 x 17
    cells.  On meshes whose edges have similar lengths, each cell holds a
    few edges and the test takes time linear in the edge count.
    """
    E = mesh.edge_count
    if E < 2:
        return
    edges = mesh.edges
    a = np.take(mesh.positions, edges[:, 0], axis=0)
    b = np.take(mesh.positions, edges[:, 1], axis=0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    side = (hi - lo).max(axis=1)
    cell = max(float(side.mean()), float(side.max()) / 16.0)
    origin = lo.min(axis=0)
    first = ((lo - origin) / cell).astype(np.int64)
    span = ((hi - origin) / cell).astype(np.int64) - first + 1
    covered = span[:, 0] * span[:, 1]

    # one entry per (edge, cell) its box covers, grouped by cell; within a
    # cell the edges stay in id order
    edge = np.repeat(np.arange(E, dtype=np.int64), covered)
    k = np.arange(len(edge), dtype=np.int64) \
        - np.repeat(np.cumsum(covered) - covered, covered)
    cx = first[edge, 0] + k % span[edge, 0]
    cy = first[edge, 1] + k // span[edge, 0]
    order = np.lexsort((cy, cx))
    edge, cx, cy = edge[order], cx[order], cy[order]
    new_cell = np.flatnonzero((cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])) + 1
    ends = np.append(new_cell, len(edge))
    group_end = np.repeat(ends, np.diff(ends, prepend=0))
    # every pair of entries in one cell, the lower edge id first
    n_later = group_end - np.arange(len(edge)) - 1
    at = np.repeat(np.arange(len(edge)), n_later)
    later = np.arange(len(at)) - np.repeat(np.cumsum(n_later) - n_later,
                                           n_later)
    e, o = edge[at], edge[at + 1 + later]

    def cross2(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    shares = (edges[o][:, :, None] == edges[e][:, None, :]).any(axis=(1, 2))
    d1 = b[e] - a[e]
    c1 = cross2(d1, a[o] - a[e])
    c2 = cross2(d1, b[o] - a[e])
    d2 = b[o] - a[o]
    c3 = cross2(d2, a[e] - a[o])
    c4 = cross2(d2, b[e] - a[o])
    crossing = ~shares & (c1 * c2 < 0) & (c3 * c4 < 0)
    if crossing.any():
        pair = np.argmin(e[crossing] * E + o[crossing])
        raise SelfIntersectionError(
            f"edges {int(e[crossing][pair])} and {int(o[crossing][pair])} "
            f"cross each other")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F (1 for a disc, 2 for a sphere-like mesh without boundary)."""
    _require_record(mesh, Mesh, "mesh")
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


def convexity_report(mesh: Mesh, tolerance: float = 1e-9) -> list[int]:
    """Ids of faces with a reflex corner.

    A corner counts as reflex when its normalized turn cross product is
    below ``-tolerance``; near-straight corners produced by smoothing are
    therefore not reported.  A ``tolerance`` that is not a finite number
    raises :class:`InvalidParameterError`.
    """
    _require_record(mesh, Mesh, "mesh")
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real) \
            or not math.isfinite(tolerance):
        raise InvalidParameterError(
            f"tolerance must be a finite number, got {tolerance!r}")
    flat = mesh.face_vertex_flat
    if not len(flat):
        return []
    nxt = mesh.slot_next
    prv = _inverse(nxt)
    p1 = np.take(mesh.positions, flat, axis=0)
    p0 = np.take(p1, prv, axis=0)
    p2 = np.take(p1, nxt, axis=0)
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
    n = _checked_int(n, "n", 3)
    angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
    pts = np.column_stack((np.cos(angles), np.sin(angles)))
    return build_mesh(pts, [list(range(n))])


def pentagon() -> Mesh:
    """Regular pentagon with unit circumradius, one face."""
    return ngon(5)


def square_grid(w: int, h: int) -> Mesh:
    """Grid of w x h unit squares spanning [0, w] x [0, h]."""
    w, h = _checked_int(w, "w", 1), _checked_int(h, "h", 1)
    xs, ys = np.meshgrid(np.arange(w + 1), np.arange(h + 1))
    pts = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)

    # per square its lower left corner, then counterclockwise
    low = (np.arange(h)[:, None] * (w + 1) + np.arange(w)).ravel()
    flat = np.column_stack((low, low + 1, low + w + 2, low + w + 1)).ravel()
    return build_mesh(pts, (flat, np.arange(0, len(flat) + 1, 4)))


def fan_ngon(n: int) -> Mesh:
    """Regular n-gon triangulated by fanning from its centroid."""
    n = _checked_int(n, "n", 3)
    pts = np.vstack((ngon(n).positions, [[0.0, 0.0]]))
    k = np.arange(n)
    flat = np.column_stack((k, (k + 1) % n, np.full(n, n))).ravel()
    return build_mesh(pts, (flat, np.arange(0, 3 * n + 1, 3)))


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
    if not isinstance(kind, str):
        raise InvalidParameterError(
            f"generator spec must be a string, got {kind!r}")
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
