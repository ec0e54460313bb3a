"""Mesh construction, validation, inner/outer masks, and demo generators."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import snubweave as sw
from snubweave import (
    DegenerateFaceError,
    IndexRangeError,
    InvalidParameterError,
    NonManifoldError,
    SelfIntersectionError,
)
from snubweave.mesh_core import (_check_self_intersections, _direct_mesh,
                                 _edge_slots, _face_sums, _grouped, _row_sum,
                                 _slot_twins, _vertex_sums)

import classic_reference
from mesh_compare import MESH_ARRAYS

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

#: Values that are not an integer where one is expected.
NOT_INTEGERS = [True, 2.5, math.inf, math.nan, None]


def assert_same_arrays(got, want):
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# build_mesh
# ---------------------------------------------------------------------------

class TestBuildMesh:
    def test_unit_square_single_face(self):
        m = sw.build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]])
        assert (m.vertex_count, m.edge_count, m.face_count) == (4, 4, 1)
        assert m.boundary_edge_mask.sum() == 4

    def test_two_triangles_share_one_inner_edge(self):
        m = sw.build_mesh(UNIT_SQUARE, [[0, 1, 2], [0, 2, 3]])
        assert np.count_nonzero(~m.boundary_edge_mask) == 1
        assert np.count_nonzero(m.boundary_edge_mask) == 4

    def test_a_pair_of_arrays_is_read_as_csr(self):
        # (face_vertex_flat, face_starts): two faces as arrays need a list
        split = [np.array([0, 1, 2]), np.array([0, 2, 3])]
        two = sw.build_mesh(UNIT_SQUARE, split)
        assert two.faces == [(0, 1, 2), (0, 2, 3)]
        with pytest.raises(DegenerateFaceError,
                           match="^face 1 has fewer than 3 vertices$"):
            sw.build_mesh(UNIT_SQUARE, tuple(split))
        csr = sw.build_mesh(UNIT_SQUARE, (np.array([0, 1, 2, 0, 2, 3]),
                                          np.array([0, 3, 6])))
        assert csr == two

    @pytest.mark.parametrize("faces", [
        [[0, 1, 2.7]],
        [[0, 1, 2.0]],
        (np.array([0.0, 1.0, 2.7]), np.array([0, 3])),
        (np.array([0, 1, 2]), np.array([0.0, 3.0])),
        [[0, True, 2]],
        [[0, 1, [2, 3]]],
        None,
        [5]])
    def test_non_integer_indices_rejected(self, faces):
        # the first five would otherwise be read as the face (0, 1, 2); the
        # last three are not cycles of indices at all
        with pytest.raises(InvalidParameterError,
                           match="must be a flat sequence of integers"):
            sw.build_mesh(UNIT_SQUARE, faces)

    def test_overflowing_area_rejected(self):
        # 1e200 squared overflows: the face would get an area of inf
        with pytest.raises(InvalidParameterError,
                           match="^face 0 has an area that is not finite"):
            sw.build_mesh(np.array(UNIT_SQUARE) * 1e200, [[0, 1, 2, 3]])
        # 1e153 squared does not, and the mesh snubs to finite positions
        m = sw.build_mesh(np.array(UNIT_SQUARE) * 1e153, [[0, 1, 2, 3]])
        assert np.isfinite(m.face_signed_areas()).all()
        final = sw.snub_subdivide(m, 2).final
        assert final.face_count == 20
        assert np.isfinite(final.positions).all()

    @pytest.mark.parametrize("flat, starts", [
        ([0, 1, 2, 0, 2, 3], [1, 3, 6]),        # does not begin at 0
        ([0, 1, 2, 0, 2, 3], [0, 4, 3, 6]),     # decreases
        ([0, 1, 2, 0, 2], [0, 3]),              # does not end at len(flat)
        ([0, 1, 2], [])])
    def test_csr_starts_must_rise_from_zero_to_the_flat_length(self, flat,
                                                               starts):
        with pytest.raises(InvalidParameterError,
                           match=f"^face_starts must rise from 0 to "
                                 f"{len(flat)}, "):
            sw.build_mesh(UNIT_SQUARE, (np.array(flat), np.array(starts,
                                                                  dtype=int)))

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), UNIT_SQUARE])
    def test_no_faces_rejected_in_either_form(self, points):
        csr = (np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
        for faces in ([], csr):
            with pytest.raises(InvalidParameterError,
                               match="^a mesh needs at least one face$"):
                sw.build_mesh(points, faces)

    def test_three_faces_on_one_edge_rejected(self):
        pts = UNIT_SQUARE + [(0.5, -1.0), (0.5, -2.0)]
        with pytest.raises(NonManifoldError):
            sw.build_mesh(pts, [[0, 1, 2], [0, 1, 4], [0, 1, 5]])

    def test_clockwise_face_is_reoriented(self):
        m = sw.build_mesh(UNIT_SQUARE, [[3, 2, 1, 0]])
        assert m.face_signed_areas()[0] > 0
        assert m.faces[0] in {(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1),
                              (3, 0, 1, 2)}

    def test_short_cycle_rejected(self):
        with pytest.raises(DegenerateFaceError):
            sw.build_mesh(UNIT_SQUARE, [[0, 1]])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(DegenerateFaceError):
            sw.build_mesh(UNIT_SQUARE, [[0, 1, 1, 2]])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexRangeError):
            sw.build_mesh(UNIT_SQUARE, [[0, 1, 7]])

    def test_zero_area_face_rejected(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        with pytest.raises(DegenerateFaceError):
            sw.build_mesh(pts, [[0, 1, 2]])

    def test_coincident_vertices_rejected(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(DegenerateFaceError):
            sw.build_mesh(pts, [[0, 1, 3], [1, 2, 3]])

    def test_pinched_boundary_rejected(self):
        # two squares meeting only at one shared vertex (boundary degree 4)
        pts = UNIT_SQUARE + [(2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
        with pytest.raises(NonManifoldError):
            sw.build_mesh(pts, [[0, 1, 2, 3], [2, 4, 5, 6]])

    def test_non_manifold_error_names_the_edge_walked_twice(self):
        # edge (1, 4) has two faces, one on each side; (4, 5) is walked from
        # 5 to 4 by both the right quad and the triangle
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (1.0, 1.0),
               (2.0, 1.0), (1.5, 0.5)]
        with pytest.raises(NonManifoldError, match=r"^edge \(4, 5\) has "):
            sw.build_mesh(pts, [[0, 1, 4, 3], [1, 2, 5, 4], [5, 4, 6]])

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(InvalidParameterError):
            sw.build_mesh([(0.0, 0.0), (1.0, float("nan")), (0.0, 1.0)],
                          [[0, 1, 2]])
        # coordinates that are not numbers leaked numpy's ValueError
        with pytest.raises(InvalidParameterError,
                           match="^points must be pairs of numbers: "):
            sw.build_mesh([("a", "b"), (1, 2), (3, 4)], [[0, 1, 2]])

    @pytest.mark.parametrize("points", [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)], np.zeros((3, 3)), np.zeros(6),
        np.zeros((3, 2, 1))])
    def test_points_must_be_pairs(self, points):
        with pytest.raises(InvalidParameterError,
                           match="^points must be pairs of coordinates$"):
            sw.build_mesh(points, [[0, 1, 2]])

    def test_area_lost_to_rounding_rejected(self):
        # a triangle of side 64 offset by 1e17: its shoelace sum reads
        # 1.15e18 where twice its area is about 3,546, and the snub step
        # raised AmbiguousHalfPlaneError on it
        triangle = np.array([[0.0, 0.0], [64.0, 0.0], [32.0, 55.4]])
        with pytest.raises(DegenerateFaceError, match=(
                r"^face 0 has an area below the rounding error of its "
                r"shoelace sum \(too small for where it is\)$")):
            sw.build_mesh(triangle + 1e17, [[0, 1, 2]])
        # named by its face, beside a face that keeps its area
        large = np.array([[0.0, 0.0], [1e17, 0.0], [0.0, 1e17]])
        with pytest.raises(DegenerateFaceError, match="^face 1 has an area "):
            sw.build_mesh(np.vstack((large, triangle)) + 1e17,
                          [[0, 1, 2], [3, 4, 5]])
        m = sw.build_mesh(triangle + 1e6, [[0, 1, 2]])
        assert m.face_signed_areas()[0] == pytest.approx(64 * 55.4 / 2)

    @pytest.mark.parametrize("spec", [
        "pentagon", "pentaflower", "ngon:3", "ngon:9", "ngon:24", "fan:3",
        "fan:9", "fan:24", "grid:1x1", "grid:7x5"])
    def test_every_demo_spec_keeps_its_area_over_the_rounding(self, spec):
        m = sw.generate_demo_mesh(spec)
        for moved in (m.positions, m.positions * 1e6, m.positions + 1e3):
            assert sw.build_mesh(moved, m.faces).face_count == m.face_count

    def test_self_intersection_check_is_opt_in(self):
        # two overlapping triangles have crossing edges but are manifold
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 2.0),
               (0.0, 1.2), (2.0, 1.2), (1.0, -0.8)]
        faces = [[0, 1, 2], [3, 5, 4]]
        sw.build_mesh(pts, faces)  # accepted silently by default
        with pytest.raises(SelfIntersectionError):
            sw.build_mesh(pts, faces, check_self_intersections=True)


# ---------------------------------------------------------------------------
# face sums: one stated order
# ---------------------------------------------------------------------------

def fold(terms):
    """``c0 + (((c1 + c2) + c3) + ...)`` in Python floats."""
    return terms[0] + functools.reduce(operator.add, terms[1:])


#: Signed zeros and magnitudes over 2**-20 .. 2**20, so that any other order
#: of the additions rounds differently somewhere.
TERMS = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.builds(math.ldexp, st.floats(-1.0, 1.0),
                            st.integers(-20, 20)))


def star_faces(sizes, seed, offset):
    """Disjoint faces of ``sizes`` vertices in a row, each star-shaped about
    its center (jittered angles, so no gap reaches pi), counterclockwise:
    the points and the cycles."""
    rng = np.random.default_rng(seed)
    points, cycles = [], []
    for k, n in enumerate(sizes):
        angles = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.4, n)) / n
        radii = rng.uniform(0.5, 1.0, n)
        cycles.append(list(range(len(points), len(points) + n)))
        points += zip(offset + 3.0 * k + radii * np.cos(angles),
                      offset + radii * np.sin(angles))
    return np.array(points), cycles


class TestFaceSums:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 17), data=st.data())
    def test_row_sum_is_a_fold_after_the_first_column_bitwise(self, n, data):
        rows = data.draw(st.lists(st.lists(TERMS, min_size=n, max_size=n),
                                  min_size=1, max_size=20))
        values = np.array(rows)
        want = np.array([fold(row) for row in rows])
        assert _row_sum(values[:, j] for j in range(n)).tobytes() \
            == want.tobytes()
        starts = np.arange(0, values.size + 1, n)
        assert _face_sums(values.ravel(), starts).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(3, 12), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1),
           offset=st.sampled_from([0.0, 1.0, 2.0**10, 2.0**16]),
           data=st.data())
    def test_centroids_and_areas_are_per_face_folds_in_any_face_order(
            self, sizes, seed, offset, data):
        points, cycles = star_faces(sizes, seed, offset)
        m = sw.build_mesh(points, cycles)
        centroids, areas = m.face_centroids(), m.face_signed_areas()
        x, y = points[:, 0].tolist(), points[:, 1].tolist()
        want_centroids, want_areas = [], []
        for cycle in cycles:
            n = len(cycle)
            xs, ys = [x[v] for v in cycle], [y[v] for v in cycle]
            want_centroids.append((fold(xs) / n, fold(ys) / n))
            want_areas.append(0.5 * fold([
                xs[i] * ys[(i + 1) % n] - xs[(i + 1) % n] * ys[i]
                for i in range(n)]))
        assert centroids.tobytes() == np.array(want_centroids).tobytes()
        assert areas.tobytes() == np.array(want_areas).tobytes()
        perm = data.draw(st.permutations(range(len(cycles))))
        shuffled = sw.build_mesh(points, [cycles[f] for f in perm])
        assert shuffled.face_centroids().tobytes() \
            == centroids[perm].tobytes()
        assert shuffled.face_signed_areas().tobytes() == areas[perm].tobytes()


# ---------------------------------------------------------------------------
# _direct_mesh: known connectivity, the checks it cannot rule out
# ---------------------------------------------------------------------------

# hand-written tables: positions, face cycles, the sorted edge table and
# each slot's edge id
TWO_TRIANGLES = (UNIT_SQUARE, [0, 1, 2, 0, 2, 3], [0, 3, 6],
                 [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)],
                 [0, 3, 1, 1, 4, 2])
BOWTIE = ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
          [0, 1, 2, 0, 3, 4], [0, 3, 6],
          [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)],
          [0, 4, 1, 2, 5, 3])


def direct(points, flat, starts, edges, face_edge_flat, **options):
    return _direct_mesh(np.array(points, dtype=np.float64),
                        np.array(flat, dtype=np.int64),
                        np.array(starts, dtype=np.int64),
                        np.array(edges, dtype=np.int64).reshape(-1, 2),
                        np.array(face_edge_flat, dtype=np.int64), **options)


class TestDirectMesh:
    def test_equals_build_mesh(self):
        assert_same_arrays(direct(*TWO_TRIANGLES),
                           sw.build_mesh(UNIT_SQUARE, [[0, 1, 2], [0, 2, 3]]))

    def test_nonfinite_coordinates_rejected_first(self):
        points = [(0.0, 0.0), (1.0, float("inf")), (0.0, 1.0)]
        with pytest.raises(InvalidParameterError,
                           match="^vertex coordinates must be finite$"):
            direct(points, [0, 1], [0, 2], [(0, 1)], [0, 0])

    def test_short_cycle_rejected(self):
        with pytest.raises(DegenerateFaceError,
                           match="^face 1 has fewer than 3 vertices$"):
            direct(UNIT_SQUARE, [0, 1, 2, 0, 2], [0, 3, 5],
                   [(0, 1), (0, 2), (1, 2)], [0, 2, 1, 1, 1])

    def test_zero_area_face_rejected(self):
        with pytest.raises(DegenerateFaceError,
                           match="^face 0 has zero area$"):
            direct([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 1, 2], [0, 3],
                   [(0, 1), (0, 2), (1, 2)], [0, 2, 1])

    def test_clockwise_face_rejected_as_folded(self):
        # build_mesh reverses face 1 and builds the square; known
        # connectivity is not reoriented
        points, _, starts, edges, _ = TWO_TRIANGLES
        with pytest.raises(NonManifoldError,
                           match=r"^face 1 is folded over its neighbors "
                                 r"\(clockwise after refinement\)$"):
            direct(points, [0, 1, 2, 0, 3, 2], starts, edges,
                   [0, 3, 1, 2, 4, 1])
        assert sw.build_mesh(points, [[0, 1, 2], [0, 3, 2]]).face_count == 2

    def test_zero_length_edge_names_the_lowest_edge(self):
        # slot 1 walks (1, 2) first, but (0, 4) has the lower edge id
        points = [(0.0, 0.0), (2.0, 0.0), (2.0, 0.0), (1.0, 2.0), (0.0, 0.0)]
        with pytest.raises(DegenerateFaceError,
                           match=r"^edge \(0, 4\) has zero length$"):
            direct(points, [0, 1, 2, 3, 4], [0, 5],
                   [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)], [0, 2, 3, 4, 1])

    def test_pinched_boundary_rejected_unless_allowed(self):
        with pytest.raises(NonManifoldError,
                           match=r"^boundary is pinched at vertex 0 "
                                 r"\(4 boundary edges meet there\)$"):
            direct(*BOWTIE)
        assert direct(*BOWTIE, pinch_check=False).face_count == 2

    def test_counts_past_the_index_dtype_rejected_before_any_check(self):
        # 2**31 vertices as a broadcast view: nothing that size is
        # allocated, and the guard fires before the coordinates are read
        points = np.broadcast_to(np.zeros(2), (2 ** 31, 2))
        _, flat, starts, edges, face_edge_flat = (
            np.array(a) for a in TWO_TRIANGLES)
        with pytest.raises(InvalidParameterError,
                           match=r"^a mesh of 2147483648 vertices, 5 edges "
                                 r"and 6 face slots is too many for int32 "
                                 r"indices \(at most 2147483647 of each\)$"):
            _direct_mesh(points, flat, starts, edges, face_edge_flat)


def first_crossing(mesh, block=64):
    """The lowest ``(e, other)`` pair of crossing edges, by testing every
    pair in blocks of rows (None: no two edges cross)."""
    edges = mesh.edges
    ax, ay = mesh.positions[edges[:, 0]].T
    bx, by = mesh.positions[edges[:, 1]].T
    for start in range(0, len(edges), block):
        e = np.arange(start, min(start + block, len(edges)))[:, None]
        o = np.arange(start, len(edges))[None, :]
        shares = ((edges[e, 0] == edges[o, 0]) | (edges[e, 0] == edges[o, 1])
                  | (edges[e, 1] == edges[o, 0])
                  | (edges[e, 1] == edges[o, 1]))
        d1x, d1y = bx[e] - ax[e], by[e] - ay[e]
        c1 = d1x * (ay[o] - ay[e]) - d1y * (ax[o] - ax[e])
        c2 = d1x * (by[o] - ay[e]) - d1y * (bx[o] - ax[e])
        d2x, d2y = bx[o] - ax[o], by[o] - ay[o]
        c3 = d2x * (ay[e] - ay[o]) - d2y * (ax[e] - ax[o])
        c4 = d2x * (by[e] - ay[o]) - d2y * (bx[e] - ax[o])
        hit = ~shares & (c1 * c2 < 0) & (c3 * c4 < 0) & (o > e)
        if hit.any():
            row, col = np.argwhere(hit)[0]
            return int(start + row), int(start + col)
    return None


def edges_after(mesh, steps):
    """Edge count after ``steps`` snub steps, from the count recursion."""
    e, sum_n = mesh.edge_count, len(mesh.face_vertex_flat)
    for _ in range(steps):
        e, sum_n = 3 * e + sum_n, 5 * sum_n
    return e


class TestSelfIntersections:
    @settings(max_examples=12, deadline=None)
    @given(spec=st.sampled_from(["pentagon", "pentaflower", "fan:6",
                                 "grid:2x2"]),
           steps=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           moved=st.integers(0, 3))
    @example(spec="pentagon", steps=5, seed=0, moved=2)
    def test_grid_test_names_the_pair_brute_force_finds(self, spec, steps,
                                                         seed, moved):
        # snub histories up to t=5 (8,420 edges on the pentagon), with a
        # few vertices thrown up to three edge lengths to make crossings
        source = sw.generate_demo_mesh(spec)
        steps = min(steps, next(t for t in range(6, -1, -1)
                                if edges_after(source, t) <= 8420))
        rng = np.random.default_rng(seed)
        for mesh in sw.snub_subdivide(source, steps).meshes:
            scale = float(np.median(mesh.edge_lengths()))
            positions = mesh.positions.copy()
            picks = rng.choice(mesh.vertex_count, moved)
            positions[picks] += rng.uniform(-3, 3, (moved, 2)) * scale
            mesh = mesh.with_positions(positions)
            want = first_crossing(mesh)
            if want is None:
                _check_self_intersections(mesh)
                continue
            with pytest.raises(SelfIntersectionError) as got:
                _check_self_intersections(mesh)
            assert str(got.value) == \
                f"edges {want[0]} and {want[1]} cross each other"


# ---------------------------------------------------------------------------
# inner/outer classification: Mesh.inner_vertex_mask, Mesh.boundary_edge_mask
# ---------------------------------------------------------------------------

DEMO_SPECS = ("pentagon", "pentaflower", "ngon:3", "ngon:7", "fan:3",
              "fan:5", "fan:8", "grid:1x1", "grid:3x2", "grid:3x3")


@st.composite
def classified_meshes(draw):
    """A mesh and the ids of its unused points: a demo spec as built, its
    snub output up to t = 3 (smoothing on or off; the last step before a
    fold), a classic step's output, or the demo with one unused point."""
    mesh = sw.generate_demo_mesh(draw(st.sampled_from(DEMO_SPECS)))
    kind = draw(st.sampled_from(("demo", "snub", "classic", "unused point")))
    if kind == "snub":
        smoothing = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            try:
                mesh = sw.snub_subdivide(mesh, 1, smoothing=smoothing).final
            except NonManifoldError:
                break
    elif kind == "classic":
        names = ["midedge_step", "catmull_clark_step", "doo_sabin_step"]
        if (mesh.face_sizes == 3).all():
            names += ["loop_step", "butterfly_step", "sqrt3_step"]
        mesh = getattr(sw, draw(st.sampled_from(names)))(mesh).mesh
    elif kind == "unused point":
        spare = draw(st.integers(0, mesh.vertex_count))
        points = np.insert(mesh.positions, spare, [[7.0, 7.0]], axis=0)
        flat = mesh.face_vertex_flat + (mesh.face_vertex_flat >= spare)
        mesh = sw.build_mesh(points, (flat, mesh.face_starts))
        return mesh, np.array([spare])
    return mesh, np.zeros(0, dtype=np.int64)

class TestClassify:
    def test_single_pentagon_all_outer(self):
        m = sw.pentagon()
        assert np.count_nonzero(m.boundary_edge_mask) == 5
        assert np.count_nonzero(~m.boundary_edge_mask) == 0
        assert np.count_nonzero(~m.inner_vertex_mask) == 5
        assert np.count_nonzero(m.inner_vertex_mask) == 0

    def test_fan_with_two_inner_and_three_outer_vertices(self):
        # hull triangle with two interior vertices, fully triangulated
        pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0),   # hull
               (1.6, 0.9), (2.2, 1.6)]               # interior
        faces = [[0, 1, 3], [1, 4, 3], [1, 2, 4], [2, 0, 4], [0, 3, 4]]
        inner = sw.build_mesh(pts, faces).inner_vertex_mask
        assert np.flatnonzero(inner).tolist() == [3, 4]
        assert np.count_nonzero(~inner) == 3

    def test_grid_3x3_inner_counts(self):
        m = sw.square_grid(3, 3)
        assert np.count_nonzero(m.inner_vertex_mask) == 4
        assert np.count_nonzero(~m.boundary_edge_mask) == 12

    def test_inner_edge_has_two_faces(self):
        m = sw.square_grid(2, 2)
        for e in np.flatnonzero(~m.boundary_edge_mask):
            assert m.edge_left[e] >= 0 and m.edge_right[e] >= 0
        for v in np.flatnonzero(~m.inner_vertex_mask):
            touching = set(m.edges[m.boundary_edge_mask].ravel().tolist())
            assert int(v) in touching

    @settings(max_examples=60, deadline=None)
    @given(classified_meshes())
    def test_masks_equal_the_reference_classification(self, case):
        mesh, unused = case
        ref = classic_reference.classify(mesh)
        assert np.array_equal(mesh.inner_vertex_mask, ref.vertex_is_inner)
        assert np.array_equal(mesh.boundary_edge_mask, ~ref.edge_is_inner)
        # a point no face uses has no edge, so it is outer
        assert not mesh.inner_vertex_mask[unused].any()


# ---------------------------------------------------------------------------
# vertex sums and incidence: one stated order
# ---------------------------------------------------------------------------

#: Signed zeros and magnitudes over 2**-40 .. 2**40, so that any other order
#: of the additions rounds differently somewhere.
WIDE_TERMS = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.builds(math.ldexp, st.floats(-1.0, 1.0),
                                 st.integers(-40, 40)))


def vertex_fold(keys, values, n):
    """Per key in ``range(n)``, its ``values`` added to ``0.0`` in input
    order, in Python floats."""
    sums = [0.0] * n
    for k, x in zip(keys, values):
        sums[k] += x
    return sums


class TestVertexSums:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), width=st.sampled_from([0, 2]),
           dtype=st.sampled_from([np.int32, np.int64]), data=st.data())
    def test_sums_and_groups_follow_input_order(self, n, width, dtype, data):
        keys = data.draw(st.lists(st.integers(0, n - 1), max_size=60))
        keys = np.array(data.draw(st.permutations(keys)), dtype=dtype)
        size = len(keys) * max(width, 1)
        values = np.array(data.draw(st.lists(WIDE_TERMS, min_size=size,
                                             max_size=size)), dtype=np.float64)
        if width:
            values = values.reshape(-1, width)
            want = np.column_stack([vertex_fold(keys.tolist(),
                                                values[:, j].tolist(), n)
                                    for j in range(width)])
        else:
            want = np.array(vertex_fold(keys.tolist(), values.tolist(), n))
        got = _vertex_sums(keys, values, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

        order, offsets = _grouped(keys, n)
        assert offsets[0] == 0 and offsets[-1] == len(keys)
        for k in range(n):
            assert order[offsets[k]:offsets[k + 1]].tolist() \
                == np.flatnonzero(keys == k).tolist()

    @settings(max_examples=60, deadline=None)
    @given(classified_meshes())
    def test_slot_twins_pair_the_slots_of_each_inner_edge(self, case):
        mesh, _ = case
        flat, edge, nxt = (mesh.face_vertex_flat, mesh.face_edge_flat,
                           mesh.slot_next)
        twin = _slot_twins(mesh, *_edge_slots(mesh, nxt))
        assert twin.dtype == sw.INDEX_DTYPE
        on_boundary = mesh.boundary_edge_mask[edge]
        assert np.array_equal(twin == -1, on_boundary)
        assert (twin >= -1).all()
        s = np.flatnonzero(~on_boundary)
        t = twin[s]
        assert (twin[t] == s).all() and (t != s).all()
        # the twin walks the same edge the other way
        assert (edge[t] == edge[s]).all()
        assert (flat[t] == flat[nxt[s]]).all() \
            and (flat[nxt[t]] == flat[s]).all()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_pentagon_counts(self):
        m = sw.pentagon()
        assert (m.vertex_count, m.edge_count, m.face_count) == (5, 5, 1)

    def test_pentagon_is_regular_unit_circumradius(self):
        r = np.hypot(*np.asarray(sw.pentagon().positions).T)
        assert np.allclose(r, 1.0, atol=1e-12)
        lengths = sw.pentagon().edge_lengths()
        assert np.allclose(lengths, 2 * math.sin(math.pi / 5), atol=1e-12)

    def test_square_grid_counts(self):
        m = sw.square_grid(2, 2)
        assert (m.vertex_count, m.edge_count, m.face_count) == (9, 12, 4)

    def test_fan_ngon_counts(self):
        m = sw.fan_ngon(24)
        assert (m.vertex_count, m.edge_count, m.face_count) == (25, 48, 24)

    def test_ngon_validation(self):
        with pytest.raises(InvalidParameterError):
            sw.ngon(2)
        with pytest.raises(InvalidParameterError):
            sw.square_grid(0, 2)
        with pytest.raises(InvalidParameterError):
            sw.fan_ngon(2)

    @pytest.mark.parametrize("n", NOT_INTEGERS)
    def test_ngon_needs_an_integer(self, n):
        with pytest.raises(InvalidParameterError,
                           match="^n must be an integer >= 3, got "):
            sw.ngon(n)

    @pytest.mark.parametrize("n", NOT_INTEGERS)
    def test_fan_ngon_needs_an_integer(self, n):
        with pytest.raises(InvalidParameterError,
                           match="^n must be an integer >= 3, got "):
            sw.fan_ngon(n)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_square_grid_needs_integers(self, value):
        for w, h in ((value, 1), (1, value)):
            with pytest.raises(InvalidParameterError,
                               match="^[wh] must be an integer >= 1, got "):
                sw.square_grid(w, h)

    def test_generators_accept_numpy_integers(self):
        assert sw.ngon(np.int64(5)) == sw.pentagon()
        assert sw.fan_ngon(np.int32(6)) == sw.fan_ngon(6)
        assert sw.square_grid(np.int64(2), np.uint8(3)) == sw.square_grid(2, 3)

    @pytest.mark.parametrize("w, h", [(1, 1), (1, 4), (3, 2), (7, 7)])
    def test_square_grid_equals_build_mesh_of_list_faces(self, w, h):
        def vid(x, y):
            return y * (w + 1) + x

        faces = [[vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y + 1)]
                 for y in range(h) for x in range(w)]
        m = sw.square_grid(w, h)
        assert_same_arrays(m, sw.build_mesh(m.positions, faces))

    @pytest.mark.parametrize("n", [3, 5, 8, 24])
    def test_fan_ngon_equals_build_mesh_of_list_faces(self, n):
        m = sw.fan_ngon(n)
        faces = [[k, (k + 1) % n, n] for k in range(n)]
        assert_same_arrays(m, sw.build_mesh(m.positions, faces))

    def test_pentagon_flower_counts(self):
        m = sw.pentagon_flower()
        assert (m.vertex_count, m.edge_count, m.face_count) == (20, 25, 6)

    def test_generate_demo_mesh_grammar(self):
        assert sw.generate_demo_mesh("pentagon").face_count == 1
        assert sw.generate_demo_mesh("ngon:7").vertex_count == 7
        assert sw.generate_demo_mesh("grid:3x2").face_count == 6
        assert sw.generate_demo_mesh("fan:8").face_count == 8
        assert sw.generate_demo_mesh("pentaflower").face_count == 6
        with pytest.raises(InvalidParameterError):
            sw.generate_demo_mesh("cube")
        with pytest.raises(InvalidParameterError):
            sw.generate_demo_mesh("grid:0x2")
        with pytest.raises(InvalidParameterError,
                           match=r"^bad generator spec 'ngon:x': invalid "
                                 r"literal for int\(\) with base 10: 'x'$"):
            sw.generate_demo_mesh("ngon:x")
        # an int leaked AttributeError from str.partition
        with pytest.raises(InvalidParameterError,
                           match="^generator spec must be a string, got 5$"):
            sw.generate_demo_mesh(5)

    def test_all_generators_are_valid_and_counterclockwise(self):
        for m in (sw.pentagon(), sw.ngon(3), sw.ngon(24), sw.square_grid(1, 1),
                  sw.square_grid(4, 2), sw.fan_ngon(5), sw.pentagon_flower()):
            rebuilt = sw.build_mesh(np.asarray(m.positions),
                                    [list(f) for f in m.faces])
            assert rebuilt == m
            assert (m.face_signed_areas() > 0).all()


# ---------------------------------------------------------------------------
# euler characteristic / convexity
# ---------------------------------------------------------------------------

class TestDerivedQuantities:
    def test_euler_characteristic_of_discs(self):
        for m in (sw.pentagon(), sw.square_grid(3, 3), sw.fan_ngon(24),
                  sw.pentagon_flower()):
            assert sw.euler_characteristic(m) == 1

    def test_convexity_report_regular_pentagon(self):
        assert sw.convexity_report(sw.pentagon()) == []

    def test_convexity_report_dart(self):
        dart = sw.build_mesh([(0.0, 0.0), (2.0, 1.0), (0.5, 0.5), (1.0, 2.0)],
                             [[0, 1, 2, 3]])
        assert sw.convexity_report(dart) == [0]

    def test_convexity_tolerance_spares_straight_vertices(self):
        # a vertex exactly on a straight segment is not reported
        m = sw.build_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.5)],
                          [[0, 1, 2, 3]])
        assert sw.convexity_report(m) == []

    @pytest.mark.parametrize("tolerance", ["x", None, True, np.nan, np.inf])
    def test_convexity_tolerance_must_be_a_finite_number(self, tolerance):
        with pytest.raises(InvalidParameterError,
                           match="^tolerance must be a finite number"):
            sw.convexity_report(sw.pentagon(), tolerance)


# ---------------------------------------------------------------------------
# Mesh object behavior
# ---------------------------------------------------------------------------

class TestMeshObject:
    def test_edge_id_lookup(self):
        m = sw.square_grid(1, 1)
        e = m.edge_id(0, 1)
        assert sorted(m.edges[e].tolist()) == [0, 1]
        assert m.edge_id(1, 0) == e
        with pytest.raises(IndexRangeError):
            m.edge_id(0, 3)  # diagonal of the square is not an edge
        # equal-length arrays give an array of ids, pairs in either order
        u, v = m.edges[:, 1][::-1], m.edges[:, 0][::-1]
        assert m.edge_id(u, v).tolist() == [3, 2, 1, 0]
        with pytest.raises(IndexRangeError, match="vertices 0 and 3"):
            m.edge_id(np.array([0, 0]), np.array([1, 3]))
        with pytest.raises(IndexRangeError):
            m.edge_id(0, 7)  # out of range; 0 * V + 7 is edge (1, 3)'s key

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_edge_id_needs_integer_vertex_ids(self, value):
        m = sw.square_grid(1, 1)
        for u, v in ((value, 1), (0, value)):
            with pytest.raises(InvalidParameterError,
                               match="^vertex ids must be integers, got "):
                m.edge_id(u, v)

    def test_edge_id_refuses_float_arrays_and_takes_numpy_integers(self):
        m = sw.square_grid(1, 1)
        with pytest.raises(InvalidParameterError):
            m.edge_id(0.7, 1.2)         # would otherwise be edge (0, 1)
        with pytest.raises(InvalidParameterError):
            m.edge_id(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert m.edge_id(np.int64(1), np.uint8(0)) == m.edge_id(0, 1)

    def test_positions_are_immutable(self):
        m = sw.pentagon()
        with pytest.raises(ValueError):
            np.asarray(m.positions)[0, 0] = 7.0

    def test_with_positions_keeps_connectivity(self):
        m = sw.square_grid(2, 1)
        moved = m.with_positions(np.asarray(m.positions) * 2.0)
        assert moved.faces == m.faces
        assert np.allclose(np.asarray(moved.positions),
                           2.0 * np.asarray(m.positions))

    @pytest.mark.parametrize("shape", [(5, 2), (7, 2), (6, 3), (12,),
                                       (6, 2, 1)])
    def test_with_positions_needs_the_same_shape(self, shape):
        m = sw.square_grid(2, 1)        # 6 vertices
        with pytest.raises(InvalidParameterError,
                           match="^replacement positions have wrong shape$"):
            m.with_positions(np.zeros(shape))

    def test_equality_is_exact(self):
        assert sw.pentagon() == sw.pentagon()
        assert sw.pentagon() != sw.ngon(6)
        # a mesh is no other kind of value
        assert (sw.pentagon() == 3) is False
        assert (sw.pentagon() != 3) is True

    def test_vertex_degrees(self):
        m = sw.square_grid(2, 2)
        deg = m.vertex_degrees
        assert deg[4] == 4      # center vertex of the 2x2 grid
        assert deg[0] == 2      # corner
