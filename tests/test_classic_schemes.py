"""Tests for the comparison subdivision schemes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snubweave as sw
from snubweave import mesh_core
from snubweave import (
    DegenerateFaceError,
    NonManifoldError,
    NotTriangleMeshError,
    build_mesh,
    butterfly_step,
    catmull_clark_step,
    doo_sabin_step,
    fan_ngon,
    loop_step,
    midedge_step,
    ngon,
    sqrt3_step,
    square_grid,
)
from mesh_compare import match_vertices, snub_edge_tags
import classic_reference as ref
from classic_reference import OriginKind
import weaving_reference as wref

ROOT3 = math.sqrt(3.0)


def unit_triangle():
    return build_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, ROOT3 / 2)], [[0, 1, 2]])


def tri_grid(cols, rows):
    """Equilateral triangulation of a parallelogram-ish patch."""
    pts = []
    for j in range(rows + 1):
        for i in range(cols + 1):
            pts.append((i + 0.5 * (j % 2), j * ROOT3 / 2))

    def vid(i, j):
        return j * (cols + 1) + i

    faces = []
    for j in range(rows):
        for i in range(cols):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            if j % 2 == 0:
                faces += [[a, b, c], [b, d, c]]
            else:
                faces += [[a, b, d], [a, d, c]]
    return build_mesh(pts, faces)


def irregular_fan(n=7, seed=5):
    """A triangle fan with deterministically jittered ring positions."""
    base = fan_ngon(n)
    rng = np.random.default_rng(seed)
    pts = np.asarray(base.positions).copy()
    pts[:n] += rng.uniform(-0.08, 0.08, size=(n, 2))
    return build_mesh(pts, [list(f) for f in base.faces])


def euler(mesh):
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


class TestLoop:
    def test_single_triangle_counts(self):
        result = loop_step(unit_triangle())
        assert (result.mesh.vertex_count, result.mesh.edge_count,
                result.mesh.face_count) == (6, 9, 4)
        assert (result.mesh.face_sizes == 3).all()

    def test_rejects_quads(self):
        with pytest.raises(NotTriangleMeshError):
            loop_step(square_grid(2, 2))

    def test_new_interior_vertices_have_degree_six(self):
        mesh = tri_grid(4, 4)
        result = loop_step(mesh)
        inner = ~mesh.boundary_edge_mask
        new_ids = mesh.vertex_count + np.flatnonzero(inner)
        assert set(result.mesh.vertex_degrees[new_ids].tolist()) == {6}

    def test_regular_fan_center_is_fixed(self):
        mesh = fan_ngon(6)
        result = loop_step(mesh)
        center = mesh.vertex_count - 1
        assert np.allclose(result.mesh.positions[center], [0.0, 0.0],
                           atol=1e-15)

    def test_boundary_vertex_rule(self):
        mesh = unit_triangle()
        result = loop_step(mesh)
        p = np.asarray(mesh.positions)
        expected = (6.0 * p[0] + p[1] + p[2]) / 8.0
        assert np.allclose(result.mesh.positions[0], expected, atol=1e-15)

    def test_interior_edge_stencil(self):
        mesh = tri_grid(2, 2)
        # find an interior edge and apply the 3/8 3/8 1/8 1/8 weights by hand
        e = int(np.flatnonzero(~mesh.boundary_edge_mask)[0])
        a, b = mesh.edges[e]
        f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
        c = int(sum(mesh.face(f)) - a - b)
        d = int(sum(mesh.face(g)) - a - b)
        p = np.asarray(mesh.positions)
        expected = 3.0 / 8.0 * (p[a] + p[b]) + 1.0 / 8.0 * (p[c] + p[d])
        result = loop_step(mesh)
        assert np.allclose(result.mesh.positions[mesh.vertex_count + e],
                           expected, atol=1e-15)

    def test_moves_interior_vertices(self):
        mesh = irregular_fan()
        result = loop_step(mesh)
        center = mesh.vertex_count - 1
        assert not np.allclose(result.mesh.positions[center],
                               mesh.positions[center], atol=1e-12)

    def test_origin_records(self):
        mesh = tri_grid(2, 1)
        result = loop_step(mesh)
        V, E = mesh.vertex_count, mesh.edge_count
        assert (result.scheme, result.sizes) == ("loop", (V, E, 0))
        # the numbering the blocks state, as the frozen step records it
        want = ref.loop_step(mesh)
        assert (want.vertex_origin_kind[:V] == OriginKind.OLD_VERTEX).all()
        assert (want.vertex_origin_kind[V:] == OriginKind.EDGE_MIDPOINT).all()
        assert len(want.vertex_origin_kind) == V + E
        ids = want.vertex_origin_id
        assert np.array_equal(ids[:V], np.arange(V))
        assert np.array_equal(ids[V:], np.arange(E))
        assert result.flipped_edges.size == 0

    def test_euler_preserved(self):
        assert euler(loop_step(tri_grid(3, 3)).mesh) == 1


class TestButterfly:
    def test_old_positions_bitwise_identical(self):
        mesh = irregular_fan()
        result = butterfly_step(mesh)
        assert np.array_equal(result.mesh.positions[:mesh.vertex_count],
                              mesh.positions)

    def test_counts_are_one_to_four(self):
        mesh = tri_grid(3, 2)
        result = butterfly_step(mesh)
        assert result.mesh.face_count == 4 * mesh.face_count
        assert result.mesh.vertex_count == mesh.vertex_count + mesh.edge_count
        assert (result.mesh.face_sizes == 3).all()

    def test_flat_regular_patch_gives_midpoints(self):
        mesh = tri_grid(4, 4)
        result = butterfly_step(mesh)
        p = np.asarray(mesh.positions)
        midpoints = (p[mesh.edges[:, 0]] + p[mesh.edges[:, 1]]) / 2.0
        got = result.mesh.positions[mesh.vertex_count:]
        assert np.abs(got - midpoints).max() < 1e-12

    def test_irregular_interior_edge_is_not_midpoint(self):
        mesh = irregular_fan()
        result = butterfly_step(mesh)
        p = np.asarray(mesh.positions)
        inner = np.flatnonzero(~mesh.boundary_edge_mask)
        midpoints = (p[mesh.edges[inner, 0]] + p[mesh.edges[inner, 1]]) / 2.0
        got = result.mesh.positions[mesh.vertex_count + inner]
        assert np.abs(got - midpoints).max() > 1e-6

    def test_boundary_edges_use_midpoint(self):
        mesh = irregular_fan()
        result = butterfly_step(mesh)
        p = np.asarray(mesh.positions)
        outer = np.flatnonzero(mesh.boundary_edge_mask)
        midpoints = (p[mesh.edges[outer, 0]] + p[mesh.edges[outer, 1]]) / 2.0
        got = result.mesh.positions[mesh.vertex_count + outer]
        assert np.abs(got - midpoints).max() < 1e-15

    def test_rejects_quads(self):
        with pytest.raises(NotTriangleMeshError):
            butterfly_step(square_grid(1, 1))


class TestSqrt3:
    def test_two_triangles_give_six(self):
        mesh = build_mesh([(0, 0), (1, 0), (0.5, 1), (0.5, -1)],
                          [[0, 1, 2], [1, 0, 3]])
        result = sqrt3_step(mesh)
        assert result.mesh.face_count == 6
        assert (result.mesh.face_sizes == 3).all()
        inner = np.flatnonzero(~mesh.boundary_edge_mask)
        assert np.array_equal(result.flipped_edges, inner)
        assert len(inner) == 1

    def test_single_triangle_gives_three_without_flips(self):
        result = sqrt3_step(unit_triangle())
        assert result.mesh.face_count == 3
        assert result.flipped_edges.size == 0

    def test_twice_gives_nine_per_triangle(self):
        once = sqrt3_step(unit_triangle())
        twice = sqrt3_step(once.mesh)
        assert twice.mesh.face_count == 9

    def test_twice_multiplies_face_count_by_nine_globally(self):
        # per step: 2 triangles per interior edge + 1 per boundary edge,
        # and 3F = 2*E_int + E_bnd, so the count triples exactly each step
        for mesh in (tri_grid(4, 3), tri_grid(6, 6), fan_ngon(9)):
            once = sqrt3_step(mesh)
            twice = sqrt3_step(once.mesh)
            assert once.mesh.face_count == 3 * mesh.face_count
            assert twice.mesh.face_count == 9 * mesh.face_count

    def test_boundary_vertices_fixed_interior_relaxed(self):
        mesh = irregular_fan()
        result = sqrt3_step(mesh)
        ring = np.arange(mesh.vertex_count - 1)
        assert np.array_equal(result.mesh.positions[ring],
                              np.asarray(mesh.positions)[ring])
        center = mesh.vertex_count - 1
        assert not np.allclose(result.mesh.positions[center],
                               mesh.positions[center], atol=1e-12)

    def test_relaxation_weight(self):
        mesh = irregular_fan(n=5, seed=11)
        center = mesh.vertex_count - 1
        p = np.asarray(mesh.positions)
        n = 5
        alpha = (4.0 - 2.0 * math.cos(2.0 * math.pi / n)) / 9.0
        expected = (1 - alpha) * p[center] + alpha / n * p[:n].sum(axis=0)
        result = sqrt3_step(mesh)
        assert np.allclose(result.mesh.positions[center], expected,
                           atol=1e-15)

    def test_face_center_origins(self):
        mesh = unit_triangle()
        result = sqrt3_step(mesh)
        assert result.sizes == (mesh.vertex_count, 0, 1)
        assert (ref.sqrt3_step(mesh).vertex_origin_kind[-1]
                == OriginKind.FACE_CENTER)
        # the last vertex is V + 0, the center of face 0
        assert result.mesh.vertex_count == mesh.vertex_count + 1
        assert ref.sqrt3_step(mesh).vertex_origin_id[-1] == 0
        assert np.allclose(result.mesh.positions[-1],
                           np.asarray(mesh.positions).mean(axis=0))

    def test_rejects_quads(self):
        with pytest.raises(NotTriangleMeshError):
            sqrt3_step(square_grid(1, 1))


class TestMidedge:
    def test_square_becomes_rotated_square(self):
        result = midedge_step(square_grid(1, 1))
        mesh = result.mesh
        assert (mesh.vertex_count, mesh.edge_count, mesh.face_count) == (4, 4, 1)
        match_vertices(mesh.positions,
                       np.array([(0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)],
                                dtype=float), tol=1e-15)

    def test_interior_vertex_yields_same_degree_face(self):
        mesh = fan_ngon(6)
        result = midedge_step(mesh)
        assert sorted(result.mesh.face_sizes.tolist()) == [3] * 6 + [6]

    def test_grid_interior_vertex_diamond(self):
        mesh = square_grid(2, 2)
        result = midedge_step(mesh)
        quads = [f for f in result.mesh.faces if len(f) == 4]
        assert len(quads) == 5          # 4 face cycles + 1 vertex cycle
        diamond = np.array([(1.0, 0.5), (1.5, 1.0), (1.0, 1.5), (0.5, 1.0)])
        found = [f for f in quads
                 if np.abs(np.sort(result.mesh.positions[list(f)], axis=0)
                           - np.sort(diamond, axis=0)).max() < 1e-15]
        assert found

    def test_triangle_face_persists(self):
        mesh = unit_triangle()
        for _ in range(3):
            result = midedge_step(mesh)
            mesh = result.mesh
            assert mesh.face_count == 1 and mesh.face_sizes[0] == 3

    def test_outline_shrinks(self):
        mesh = square_grid(2, 2)
        result = midedge_step(mesh)
        # clipped corners: total covered area strictly decreases and the
        # original corner positions are gone
        assert result.mesh.face_signed_areas().sum() < \
            mesh.face_signed_areas().sum()
        corners = {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)}
        got = {tuple(p) for p in result.mesh.positions.tolist()}
        assert not (corners & got)

    def test_all_origins_are_edge_midpoints(self):
        mesh = square_grid(2, 1)
        result = midedge_step(mesh)
        assert result.sizes == (0, mesh.edge_count, 0)
        want = ref.midedge_step(mesh)
        assert (want.vertex_origin_kind == OriginKind.EDGE_MIDPOINT).all()
        assert np.array_equal(want.vertex_origin_id,
                              np.arange(mesh.edge_count))
        p = np.asarray(mesh.positions)
        midpoints = (p[mesh.edges[:, 0]] + p[mesh.edges[:, 1]]) / 2.0
        assert np.array_equal(result.mesh.positions, midpoints)

    @pytest.mark.parametrize("step", [midedge_step, doo_sabin_step])
    def test_rejects_inner_vertex_of_degree_two(self, step):
        # every glued snub tiling has inner vertices of degree 2, whose
        # vertex cycle would be a 2-gon; the error names the source vertex
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        tiling = sw.glue_snub_pairs(hist.final, hist.records[-1].provenance)
        mesh = tiling.mesh
        short = np.flatnonzero(mesh.inner_vertex_mask
                               & (mesh.vertex_degrees == 2))
        assert len(short) == 10
        with pytest.raises(DegenerateFaceError) as got:
            step(mesh)
        assert str(got.value) == (
            f"mid-edge refinement needs inner vertices of degree 3 or more; "
            f"vertex {short[0]} has degree 2")


class TestCatmullClark:
    def test_ngon_becomes_n_quads(self):
        for n in (3, 5, 8):
            result = catmull_clark_step(ngon(n))
            assert result.mesh.face_count == n
            assert (result.mesh.face_sizes == 4).all()

    def test_pentagon_creates_degree_five_vertex(self):
        mesh = ngon(5)
        result = catmull_clark_step(mesh)
        face_pt = mesh.vertex_count + mesh.edge_count
        assert result.mesh.vertex_degrees[face_pt] == 5

    def test_grid_interior_vertex_stays_degree_four(self):
        mesh = square_grid(2, 2)
        result = catmull_clark_step(mesh)
        center = 4   # vertex at (1, 1)
        assert np.allclose(mesh.positions[center], [1.0, 1.0])
        assert result.mesh.vertex_degrees[center] == 4

    def test_output_is_pure_quads(self):
        for mesh in (square_grid(3, 3), fan_ngon(7), irregular_fan()):
            result = catmull_clark_step(mesh)
            assert (result.mesh.face_sizes == 4).all()
            assert euler(result.mesh) == 1

    def test_face_and_edge_point_rules(self):
        mesh = build_mesh([(0, 0), (2, 0), (2, 1), (0, 1), (3, 0.5)],
                          [[0, 1, 2, 3], [1, 4, 2]])
        result = catmull_clark_step(mesh)
        V, E = mesh.vertex_count, mesh.edge_count
        p = np.asarray(mesh.positions)
        fp_quad = p[[0, 1, 2, 3]].mean(axis=0)
        fp_tri = p[[1, 4, 2]].mean(axis=0)
        assert np.allclose(result.mesh.positions[V + E], fp_quad, atol=1e-15)
        assert np.allclose(result.mesh.positions[V + E + 1], fp_tri,
                           atol=1e-15)
        shared = mesh.edge_id(1, 2)
        expected = (p[1] + p[2] + fp_quad + fp_tri) / 4.0
        assert np.allclose(result.mesh.positions[V + shared], expected,
                           atol=1e-15)
        border = mesh.edge_id(0, 1)
        assert np.allclose(result.mesh.positions[V + border],
                           (p[0] + p[1]) / 2.0, atol=1e-15)

    def test_interior_vertex_rule(self):
        mesh = irregular_fan()
        center = mesh.vertex_count - 1
        p = np.asarray(mesh.positions)
        d = int(mesh.vertex_degrees[center])
        q = mesh.face_centroids().mean(axis=0)   # center touches every face
        mids = [(p[center] + p[k]) / 2.0 for k in range(d)]
        r = np.mean(mids, axis=0)
        expected = (q + 2 * r + (d - 3) * p[center]) / d
        result = catmull_clark_step(mesh)
        assert np.allclose(result.mesh.positions[center], expected,
                           atol=1e-14)

    def test_boundary_vertex_rule(self):
        mesh = square_grid(1, 1)
        result = catmull_clark_step(mesh)
        assert np.allclose(result.mesh.positions[0], [0.125, 0.125],
                           atol=1e-15)

    def test_origin_records(self):
        mesh = square_grid(1, 2)
        result = catmull_clark_step(mesh)
        V, E, F = mesh.vertex_count, mesh.edge_count, mesh.face_count
        assert result.sizes == (V, E, F)
        kinds = ref.catmull_clark_step(mesh).vertex_origin_kind
        assert (kinds[:V] == OriginKind.OLD_VERTEX).all()
        assert (kinds[V:V + E] == OriginKind.EDGE_MIDPOINT).all()
        assert (kinds[V + E:] == OriginKind.FACE_CENTER).all()
        # vertex V + E + f is the face point of face f
        assert np.array_equal(result.mesh.positions[V + E:],
                              mesh.face_centroids())
        assert np.array_equal(ref.catmull_clark_step(mesh).vertex_origin_id[
            V + E:], np.arange(F))


def direct_doo_sabin_grid(mesh):
    """Corner-point Doo-Sabin construction for a pure quad grid.

    New vertex per (face, corner) with weights 9/16, 3/16, 3/16, 1/16;
    faces for every original face, every interior vertex, and every edge
    joining two interior vertices (matching the mid-edge boundary
    clipping).
    """
    pos = np.asarray(mesh.positions)
    corner_id = {}
    new_pts = []
    for f in range(mesh.face_count):
        cyc = [int(v) for v in mesh.face(f)]
        for k, v in enumerate(cyc):
            c = pos[cyc[k]]
            n1 = pos[cyc[(k + 1) % 4]]
            opp = pos[cyc[(k + 2) % 4]]
            n2 = pos[cyc[(k - 1) % 4]]
            corner_id[(f, v)] = len(new_pts)
            new_pts.append((9 * c + 3 * (n1 + n2) + opp) / 16.0)

    faces = [[corner_id[(f, int(v))] for v in mesh.face(f)]
             for f in range(mesh.face_count)]

    classes = ref.classify(mesh)
    vertex_faces = [[] for _ in range(mesh.vertex_count)]
    for f in range(mesh.face_count):
        for v in mesh.face(f):
            vertex_faces[int(v)].append(f)
    inner = set(classes.inner_vertex_ids.tolist())
    for v in inner:
        ring = []
        fs = set(vertex_faces[v])
        f = vertex_faces[v][0]
        while True:
            ring.append(corner_id[(f, v)])
            cyc = [int(u) for u in mesh.face(f)]
            prev_vertex = cyc[cyc.index(v) - 1]
            e = mesh.edge_id(v, prev_vertex)
            f = int(mesh.edge_left[e]) if int(mesh.edge_right[e]) == f \
                else int(mesh.edge_right[e])
            if f == vertex_faces[v][0]:
                break
        assert len(ring) == len(fs)
        faces.append(ring)
    for e in range(mesh.edge_count):
        a, b = int(mesh.edges[e, 0]), int(mesh.edges[e, 1])
        if a in inner and b in inner:
            f, g = int(mesh.edge_left[e]), int(mesh.edge_right[e])
            faces.append([corner_id[(f, a)], corner_id[(f, b)],
                          corner_id[(g, b)], corner_id[(g, a)]])
    return build_mesh(new_pts, faces, allow_pinched_boundary=True)


class TestDooSabin:
    @pytest.mark.parametrize("maker", [lambda: square_grid(3, 3),
                                       lambda: fan_ngon(8)],
                             ids=["grid3x3", "fan8"])
    def test_equals_two_midedge_steps(self, maker):
        result = doo_sabin_step(maker())
        first = midedge_step(maker())
        second = midedge_step(first.mesh)
        assert result.mesh == second.mesh
        assert result.intermediate.mesh == first.mesh
        assert (result.scheme, result.sizes) == ("doo_sabin", second.sizes)
        assert result.intermediate.scheme == "midedge"
        # the origins are the intermediate mesh's edges, in order
        assert np.array_equal(ref.doo_sabin_step(maker()).vertex_origin_id,
                              np.arange(first.mesh.edge_count))

    def test_direct_construction_matches_on_grid(self):
        mesh = square_grid(3, 3)
        ours = doo_sabin_step(mesh).mesh
        direct = direct_doo_sabin_grid(mesh)
        assert (ours.vertex_count, ours.edge_count, ours.face_count) == \
               (direct.vertex_count, direct.edge_count, direct.face_count)
        assert sorted(ours.face_sizes.tolist()) == \
               sorted(direct.face_sizes.tolist())
        assert sorted(ours.vertex_degrees.tolist()) == \
               sorted(direct.vertex_degrees.tolist())
        match_vertices(ours.positions, direct.positions, tol=1e-12)

    def test_octagon_face_persists(self):
        result = doo_sabin_step(fan_ngon(8))
        assert 8 in result.mesh.face_sizes

    def test_one_square(self):
        result = doo_sabin_step(square_grid(1, 1))
        mesh = result.mesh
        assert (mesh.vertex_count, mesh.edge_count, mesh.face_count) == (4, 4, 1)
        match_vertices(mesh.positions,
                       np.array([(0.75, 0.25), (0.75, 0.75),
                                 (0.25, 0.75), (0.25, 0.25)]), tol=1e-15)


# ---------------------------------------------------------------------------
# the array implementation against the frozen loop implementation
# ---------------------------------------------------------------------------

MESH_ARRAYS = ("positions", "face_vertex_flat", "face_starts", "edges",
               "edge_left", "edge_right", "face_edge_flat")
TRIANGLE_SCHEMES = ("loop_step", "butterfly_step", "sqrt3_step",
                    "midedge_step", "doo_sabin_step")


def assert_same_bits(a, b, what):
    """``a`` equals ``b`` bit for bit; but a mesh's index array ``what``
    equals by value and must be in the library's index dtype."""
    assert a.shape == b.shape, what
    if what in MESH_ARRAYS[1:]:
        assert a.dtype == sw.INDEX_DTYPE and np.array_equal(a, b), what
    else:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), what


def assert_same_step(got, want):
    """Every field of two :class:`SchemeStepResult` values, bit for bit."""
    for name in MESH_ARRAYS:
        assert_same_bits(getattr(got.mesh, name), getattr(want.mesh, name),
                         name)
    assert_same_bits(got.flipped_edges, want.flipped_edges, "flipped_edges")
    # the frozen step's origin kinds restate the block sizes, and its ids
    # the blocks' order: block k holds the source elements 0, 1, ...
    assert all(type(n) is int for n in got.sizes)
    kinds = np.repeat(np.arange(3, dtype=np.int8), got.sizes)
    assert_same_bits(want.vertex_origin_kind, kinds, "vertex_origin_kind")
    assert_same_bits(want.vertex_origin_id,
                     np.arange(len(kinds)) - np.searchsorted(kinds, kinds),
                     "vertex_origin_id")
    assert got.source is want.source
    assert (got.intermediate is None) == (want.intermediate is None)
    if got.intermediate is not None:
        assert_same_step(got.intermediate, want.intermediate)


def step_outcome(step, *args):
    """``("returned", step(*args))``, or ``("raised", type, message)`` when
    the step raises a typed error."""
    try:
        return "returned", step(*args)
    except sw.SnubWeaveError as exc:
        return "raised", type(exc), str(exc)


FOLD = "face {} is folded over its neighbors (clockwise after refinement)"


def clockwise_faces(points, faces):
    """Ids of the cycles of ``faces`` (lists, or CSR arrays) that wind
    clockwise, by the shoelace sum :func:`build_mesh` takes."""
    if isinstance(faces, tuple):
        flat, starts = faces
    else:
        starts = np.cumsum([0] + [len(cycle) for cycle in faces])
        flat = np.concatenate([np.asarray(cycle, dtype=np.int64)
                               for cycle in faces])
    p = np.asarray(points, dtype=np.float64)[flat]
    nxt = np.arange(1, len(flat) + 1)
    nxt[starts[1:] - 1] = starts[:-1]
    doubled = mesh_core._shoelace(p, p[nxt], np.asarray(starts))
    return np.flatnonzero(doubled < 0.0)


def oracle_outcome(oracle, *args):
    """``step_outcome(oracle, *args)``, and the points and faces of the
    oracle's ``build_mesh`` call that raised (None if none did)."""
    failed = []

    def spy(points, faces, **kwargs):
        try:
            return build_mesh(points, faces, **kwargs)
        except sw.SnubWeaveError:
            failed.append((points, faces))
            raise

    with mock.patch.object(ref, "build_mesh", spy), \
            mock.patch.object(wref, "build_mesh", spy):
        outcome = step_outcome(oracle, *args)
    return outcome, (failed[-1] if failed else None)


def assert_outcome_as_oracle(got, oracle, *args):
    """Check a library step's outcome ``got`` against ``oracle(*args)``, and
    return the oracle's outcome.

    A library step rejects a clockwise face as folded, where the oracle's
    ``build_mesh`` reverses it and then finds an edge walked twice in one
    direction.  So a library fold passes when the oracle raises
    :class:`NonManifoldError` and the folded face is the lowest clockwise
    face of the oracle's failing ``build_mesh`` call.  Any other outcome
    must be the oracle's: the same error and message, or a returned
    result (compared by the caller).
    """
    want, failed = oracle_outcome(oracle, *args)
    clockwise = clockwise_faces(*failed) if failed else []
    if want[:2] == ("raised", NonManifoldError) and len(clockwise) \
            and got == ("raised", NonManifoldError, FOLD.format(clockwise[0])):
        return want
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
    return want


def mixed_triangulation(w, h, splits, seed):
    """Jittered ``w`` x ``h`` grid of unit squares, square ``k`` cut by
    ``splits[k]``: 0 or 1 picks a diagonal, 2 also cones the first triangle
    to its centroid.  Interior valences run from 3 (a cone apex) upward; a
    corner that its square's diagonal misses has valence 2."""
    xs, ys = np.meshgrid(np.arange(w + 1), np.arange(h + 1))
    points = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)
    points += np.random.default_rng(seed).uniform(-0.15, 0.15, points.shape)
    points = list(map(tuple, points))
    faces = []
    for k, split in enumerate(splits):
        y, x = divmod(k, w)
        a = y * (w + 1) + x
        b, c, d = a + 1, a + w + 2, a + w + 1
        first, second = ([a, b, c], [a, c, d]) if split != 1 \
            else ([a, b, d], [b, c, d])
        if split == 2:
            points.append(tuple(np.mean([points[i] for i in first], axis=0)))
            apex = len(points) - 1
            faces += [[first[i], first[(i + 1) % 3], apex] for i in range(3)]
        else:
            faces.append(first)
        faces.append(second)
    return build_mesh(np.array(points), faces)


@st.composite
def triangle_meshes(draw):
    """Jittered fans, whose center reaches valence 16, and mixed
    triangulations."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return irregular_fan(draw(st.integers(3, 16)), seed)
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    splits = draw(st.lists(st.integers(0, 2), min_size=w * h,
                           max_size=w * h))
    return mixed_triangulation(w, h, splits, seed)


@st.composite
def jittered_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = square_grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    moved = grid.positions + rng.uniform(-0.15, 0.15, grid.positions.shape)
    return build_mesh(moved, grid.faces)


@st.composite
def polygon_meshes(draw):
    """Jittered quad grids, snubbed pentagons with their 5- and 8-gon glued
    tilings, and mid-edge outputs of grids and triangle meshes, whose
    boundaries can pinch: up to four boundary edges meet at a vertex."""
    kind = draw(st.sampled_from(["grid", "snub", "midedge"]))
    if kind == "grid":
        return draw(jittered_grids())
    if kind == "midedge":
        return midedge_step(draw(st.one_of(jittered_grids(),
                                           triangle_meshes()))).mesh
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = sw.generate_demo_mesh(draw(st.sampled_from(["pentagon",
                                                       "pentaflower"])))
    moved = base.positions + rng.uniform(-0.04, 0.04, base.positions.shape)
    hist = sw.snub_subdivide(build_mesh(moved, base.faces),
                             draw(st.integers(1, 2)))
    if draw(st.booleans()):
        return hist.final
    return sw.glue_snub_pairs(hist.final, hist.records[-1].provenance).mesh


class TestOracleEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(mesh=triangle_meshes())
    def test_triangle_schemes_match_oracle(self, mesh):
        # butterfly can fold a jittered mesh (see assert_outcome_as_oracle)
        for name in TRIANGLE_SCHEMES:
            got = step_outcome(getattr(sw, name), mesh)
            want = assert_outcome_as_oracle(got, getattr(ref, name), mesh)
            if got[0] == "returned":
                assert got[1].scheme == name.removesuffix("_step")
                assert_same_step(got[1], want[1])

    @settings(max_examples=25, deadline=None)
    @given(mesh=polygon_meshes())
    def test_catmull_clark_matches_oracle(self, mesh):
        # a pinched mid-edge output fails the refined mesh's pinch check
        got = step_outcome(catmull_clark_step, mesh)
        want = assert_outcome_as_oracle(got, ref.catmull_clark_step, mesh)
        if got[0] == "returned":
            assert_same_step(got[1], want[1])

    def test_butterfly_fold_raises_as_the_oracle_does(self):
        # a jittered 3 x 3 grid with one coned square, on which butterfly
        # folds refined triangle 30 = (16, 33, 45) clockwise; the oracle's
        # build_mesh reverses it and finds its edge (16, 33) walked twice
        # the same way
        mesh = mixed_triangulation(3, 3, [1, 0, 1, 2, 1, 0, 1, 0, 0], seed=782)
        got = step_outcome(butterfly_step, mesh)
        assert got == ("raised", NonManifoldError, FOLD.format(30))
        assert assert_outcome_as_oracle(got, ref.butterfly_step, mesh) == (
            "raised", NonManifoldError,
            "edge (16, 33) has more than two incident faces or is traversed "
            "twice in the same direction")
        _, (points, (flat, starts)) = oracle_outcome(ref.butterfly_step, mesh)
        assert sorted(flat[starts[30]:starts[31]]) == [16, 33, 45]

    def test_all_schemes_match_oracle_on_mixed_valences(self):
        mesh = mixed_triangulation(4, 4, [2, 0, 1, 2, 1, 1, 0, 0,
                                          2, 0, 1, 1, 0, 2, 0, 1], seed=7)
        inner = mesh.inner_vertex_mask
        assert set(range(3, 9)) <= set(mesh.vertex_degrees[inner].tolist())
        assert 2 in mesh.vertex_degrees[~inner]
        for name in TRIANGLE_SCHEMES + ("catmull_clark_step",):
            assert_same_step(getattr(sw, name)(mesh), getattr(ref, name)(mesh))


# ---------------------------------------------------------------------------
# meshes written from closed-form tables against build_mesh
# ---------------------------------------------------------------------------

def built_meshes(result):
    """The meshes a construction writes from its closed-form tables."""
    if isinstance(result, sw.SchemeStepResult):
        return ([result.mesh] if result.intermediate is None
                else [result.intermediate.mesh, result.mesh])
    if isinstance(result, tuple):   # sqrt3_quadization, face-split weaving
        result = result[0]
    return [result.mesh]


def assert_built_as_build_mesh(ours, oracle, *args, pinch_check=True):
    """``ours(*args)`` writes meshes equal, in all seven arrays, to what
    :func:`build_mesh` makes of their faces, without calling it; or it
    raises the error of ``oracle``, which hands the same faces to
    ``build_mesh`` (see :func:`assert_outcome_as_oracle` for a fold).
    """
    with mock.patch.object(mesh_core, "build_mesh",
                           wraps=mesh_core.build_mesh) as full_build:
        got = step_outcome(ours, *args)
    assert not full_build.called
    if got[0] == "raised":
        assert_outcome_as_oracle(got, oracle, *args)
        return
    for mesh in built_meshes(got[1]):
        rebuilt = build_mesh(mesh.positions,
                             (mesh.face_vertex_flat, mesh.face_starts),
                             allow_pinched_boundary=not pinch_check)
        for name in MESH_ARRAYS:
            assert_same_bits(getattr(mesh, name), getattr(rebuilt, name),
                             name)


class TestDirectBuild:
    @settings(max_examples=30, deadline=None)
    @given(mesh=triangle_meshes())
    def test_triangle_schemes_quadization_and_face_split(self, mesh):
        for name in ("loop_step", "butterfly_step", "sqrt3_step"):
            assert_built_as_build_mesh(getattr(sw, name), getattr(ref, name),
                                       mesh)
        for name in ("midedge_step", "doo_sabin_step"):
            assert_built_as_build_mesh(getattr(sw, name), getattr(ref, name),
                                       mesh, pinch_check=False)
        sqrt3 = step_outcome(sqrt3_step, mesh)
        if sqrt3[0] == "returned":
            # the oracle reads the frozen step's origin records
            assert_built_as_build_mesh(
                sw.sqrt3_quadization,
                lambda step: wref.sqrt3_quadization(ref.sqrt3_step(mesh)),
                sqrt3[1], pinch_check=False)
        assert_built_as_build_mesh(sw.general_face_split_weaving,
                                   wref.general_face_split_weaving, mesh,
                                   pinch_check=False)

    @settings(max_examples=25, deadline=None)
    @given(mesh=polygon_meshes())
    def test_catmull_clark_and_face_split(self, mesh):
        assert_built_as_build_mesh(catmull_clark_step, ref.catmull_clark_step,
                                   mesh)
        assert_built_as_build_mesh(sw.general_face_split_weaving,
                                   wref.general_face_split_weaving, mesh,
                                   pinch_check=False)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 2))
    def test_glued_triangle_pairs(self, n, seed, steps):
        # the fan's center is its one c1 vertex, then Loop carries the
        # coloring along
        mesh = irregular_fan(n, seed)
        coloring = sw.VertexColoring(np.arange(mesh.vertex_count) == n)
        for _ in range(steps):
            step = loop_step(mesh)
            coloring = sw.loop_color_update(coloring, step)
            mesh = step.mesh
        assert_built_as_build_mesh(sw.glue_triangle_pairs,
                                   wref.glue_triangle_pairs, mesh, coloring,
                                   pinch_check=False)

    @settings(max_examples=20, deadline=None)
    @given(spec=st.sampled_from(["pentagon", "pentaflower", "grid:2x2",
                                 "fan:6"]),
           seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 3),
           flag=st.sampled_from([1, -1]))
    def test_glued_snub_pairs(self, spec, seed, steps, flag):
        base = sw.generate_demo_mesh(spec)
        rng = np.random.default_rng(seed)
        moved = base.positions + rng.uniform(-0.04, 0.04, base.positions.shape)
        hist = sw.snub_subdivide(build_mesh(moved, base.faces), steps,
                                 seed_flag=flag)
        prov = hist.records[-1].provenance
        assert_built_as_build_mesh(
            sw.glue_snub_pairs,
            lambda mesh, prov: wref.glue_snub_pairs(
                mesh, wref.Provenance(snub_edge_tags(mesh, prov))),
            hist.final, prov, pinch_check=False)
