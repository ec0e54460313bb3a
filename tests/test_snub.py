"""Snub subdivision: refinement step, multi-step driver, oracle equivalence."""

import contextlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import snubweave as sw
from snubweave import (
    AmbiguousHalfPlaneError,
    DegenerateFaceError,
    InvalidParameterError,
    NonManifoldError,
    SelfIntersectionError,
)
from snubweave.mesh_core import _check_self_intersections
from snubweave import snub
from snubweave.snub import _face_table, _positions, _refine

import snub_reference
import snub_step_reference
from mesh_compare import MESH_ARRAYS, assert_isomorphic, snub_edge_tags
from weaving_reference import EdgeTag

SQRT7 = math.sqrt(7.0)


def count_recursion(v, e, f, face_sizes):
    """Expected (V, E, F) after one refinement of a mesh with those counts."""
    total = sum(face_sizes)
    return v + 2 * e + f, 3 * e + total, total


# ---------------------------------------------------------------------------
# orientation flags
# ---------------------------------------------------------------------------

class TestAssignZOrientations:
    def test_pentagon_all_edges_flagged(self):
        assert sw.assign_z_orientations() == 1
        assert sw.snub_subdivide(sw.pentagon(), 1).seed_flag == 1

    def test_unit_grid_flags_every_edge(self):
        flag = sw.assign_z_orientations(seed_flag=1)
        assert type(flag) is int and flag == 1
        assert sw.snub_subdivide(sw.square_grid(1, 1), 2).seed_flag == 1

    def test_seed_flag_controls_all_flags(self):
        assert sw.assign_z_orientations(seed_flag=-1) == -1
        hist = sw.snub_subdivide(sw.pentagon(), 2, seed_flag=-1)
        assert hist.seed_flag == -1

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            sw.assign_z_orientations(seed_flag=0)
        with pytest.raises(InvalidParameterError):
            sw.snub_subdivide(sw.pentagon(), 1, seed_flag=2)
        # True == 1.0 == 1, so a membership test alone would take them
        for flag in (True, 1.0):
            with pytest.raises(InvalidParameterError):
                sw.assign_z_orientations(seed_flag=flag)
            with pytest.raises(InvalidParameterError):
                sw.snub_subdivide(sw.pentagon(), 1, seed_flag=flag)

    def test_numpy_flags_pass(self):
        hist = sw.snub_subdivide(sw.pentagon(), 1, seed_flag=np.int64(-1),
                                 smoothing=np.bool_(False))
        assert (hist.seed_flag, hist.smoothing) == (-1, False)
        assert type(hist.seed_flag) is int and type(hist.smoothing) is bool

    @pytest.mark.parametrize("smoothing", ["no", None, 0, 1, 1.0])
    def test_smoothing_must_be_a_bool(self, smoothing):
        with pytest.raises(InvalidParameterError,
                           match="^smoothing must be a bool"):
            sw.snub_subdivide(sw.pentagon(), 1, smoothing=smoothing)

    @pytest.mark.parametrize("flag", [2, 0, -2])
    def test_zero_steps_check_the_flag(self, flag):
        with pytest.raises(InvalidParameterError,
                           match=f"^seed flag must be \\+1 or -1, got {flag}$"):
            sw.snub_subdivide(sw.pentagon(), 0, seed_flag=flag)


def refine_once(mesh, flag=1):
    """One unsmoothed step: the refined mesh and its provenance."""
    hist = sw.snub_subdivide(mesh, 1, smoothing=False, seed_flag=flag)
    return hist.final, hist.records[0].provenance


# ---------------------------------------------------------------------------
# operation 1: Z-triplets
# ---------------------------------------------------------------------------

class TestReplaceEdges:
    def test_unit_edge_bend_coordinates(self):
        # one horizontal unit edge of a square; flag +1 bends its first
        # segment upward
        m = sw.build_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                          [[0, 1, 2, 3]])
        refined, _ = refine_once(m)
        e = m.edge_id(0, 1)
        p = np.asarray(refined.positions)[4 + 2 * e]       # bend near (0,0)
        q = np.asarray(refined.positions)[4 + 2 * e + 1]   # bend near (1,0)
        # published truncated coordinates (x to 5 digits, y to 3)
        assert abs(p[0] - 0.35714) < 5e-5 and abs(p[1] - 0.123) < 1e-3
        assert abs(q[0] - 0.64286) < 5e-5 and abs(q[1] + 0.123) < 1e-3
        # exact closed form
        assert abs(p[0] - 5.0 / 14.0) < 1e-12
        assert abs(p[1] - math.sqrt(3.0) / 14.0) < 1e-12
        assert np.allclose(p + q, [1.0, 0.0], atol=1e-12)

    def test_segment_lengths_and_bend_angles(self):
        m = sw.pentagon_flower()
        refined, _ = refine_once(m)
        pos = np.asarray(refined.positions)
        src = np.asarray(m.positions)
        for e, (a, b) in enumerate(np.asarray(m.edges)):
            pa, pb = src[a], src[b]
            p, q = pos[m.vertex_count + 2 * e], pos[m.vertex_count + 2 * e + 1]
            ref = np.linalg.norm(pb - pa) / SQRT7
            for seg in (p - pa, q - p, pb - q):
                assert abs(np.linalg.norm(seg) - ref) < 1e-12
            for u, v in ((pa - p, q - p), (p - q, pb - q)):
                cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
                assert abs(math.acos(cosang) - 2 * math.pi / 3) < 1e-12

    def test_pentagon_becomes_single_15_cycle(self):
        # the refined pentagon's boundary is the 15-cycle of Z-triplets:
        # its 5 source vertices, then the bend points 5 + 2e and 5 + 2e + 1
        # that the middle segment of each source edge e joins
        source = sw.pentagon()
        refined, prov = refine_once(source)
        V, E = source.vertex_count, source.edge_count
        assert np.array_equal(refined.positions[:V], source.positions)
        tags = snub_edge_tags(refined, prov)
        middles = refined.edges[tags == EdgeTag.Z_MIDDLE]
        assert middles.tolist() == [[V + 2 * e, V + 2 * e + 1]
                                    for e in range(E)]
        assert V + 2 * E == 15
        boundary = refined.boundary_edge_mask
        assert int(boundary.sum()) == 15
        assert set(refined.edges[boundary].ravel().tolist()) == set(range(15))
        assert (tags[boundary] == EdgeTag.Z_MIDDLE).sum() == 5
        assert (tags[boundary] == EdgeTag.Z_OUTER).sum() == 10

    def test_mirror_flag_reflects_bends(self):
        m = sw.square_grid(1, 1)
        plus, _ = refine_once(m, flag=1)
        minus, _ = refine_once(m, flag=-1)
        e = m.edge_id(0, 1)   # bottom edge, y = 0
        y_plus = np.asarray(plus.positions)[4 + 2 * e, 1]
        y_minus = np.asarray(minus.positions)[4 + 2 * e, 1]
        assert y_plus > 0 and abs(y_plus + y_minus) < 1e-15


# ---------------------------------------------------------------------------
# operation 2: barycenters
# ---------------------------------------------------------------------------

class TestInsertBarycenters:
    def test_pentagon_barycenter_at_origin(self):
        source = sw.pentagon()
        refined, _ = refine_once(source)
        assert refined.vertex_count == 16
        assert np.allclose(np.asarray(refined.positions)[15], [0.0, 0.0],
                           atol=1e-12)
        # vertex 15 is V + 2E + 0, the barycenter of source face 0, which
        # opens every refined face
        assert source.vertex_count + 2 * source.edge_count == 15
        assert (refined.face_vertex_flat[refined.face_starts[:-1]]
                == 15).all()

    def test_unit_square_barycenter(self):
        refined, _ = refine_once(sw.square_grid(1, 1))
        assert np.allclose(np.asarray(refined.positions)[-1], [0.5, 0.5],
                           atol=1e-12)


# ---------------------------------------------------------------------------
# operation 3: spokes
# ---------------------------------------------------------------------------

class TestConnectNewVertices:
    def test_pentagon_yields_five_pentagons(self):
        refined, _ = refine_once(sw.pentagon())
        assert (refined.vertex_count, refined.edge_count,
                refined.face_count) == (16, 20, 5)
        assert set(refined.face_sizes.tolist()) == {5}

    def test_unit_grid_yields_four_pentagons(self):
        refined, _ = refine_once(sw.square_grid(1, 1))
        assert refined.face_count == 4
        assert set(refined.face_sizes.tolist()) == {5}

    def test_edge_tag_partition(self):
        m = sw.square_grid(2, 2)
        refined, prov = refine_once(m)
        tags = snub_edge_tags(refined, prov)
        total_slots = int(m.face_sizes.sum())
        assert (tags == EdgeTag.Z_MIDDLE).sum() == m.edge_count
        assert (tags == EdgeTag.Z_OUTER).sum() == 2 * m.edge_count
        assert (tags == EdgeTag.SPOKE).sum() == total_slots
        assert len(tags) == 3 * m.edge_count + total_slots

    def test_face_parent_points_to_source_face(self):
        m = sw.square_grid(2, 1)
        refined, _ = refine_once(m)
        # refined face i is made from source slot i and opens with the
        # barycenter V + 2E + f of that slot's face f
        parent = refined.face_vertex_flat[refined.face_starts[:-1]] \
            - (m.vertex_count + 2 * m.edge_count)
        assert np.array_equal(parent, m.slot_face)
        assert len(parent) == refined.face_count
        counts = np.bincount(parent, minlength=m.face_count)
        assert counts.tolist() == [4, 4]     # one pentagon per corner walk

    def test_bend_point_on_edge_line_is_rejected(self):
        m = sw.square_grid(1, 1)
        refined, _ = refine_once(m)
        pos = np.asarray(refined.positions).copy()
        # drag the bend point V + 2e onto the middle of its edge, y = 0
        e = m.edge_id(0, 1)
        pos[4 + 2 * e] = (0.5, 0.0)
        with pytest.raises(AmbiguousHalfPlaneError,
                           match=f"^bend point {4 + 2 * e} lies on its source "
                                 f"edge's supporting line$"):
            _refine(m, 1, pos)
        # a collapsed source edge puts its bend points on its ends; that is
        # caught before the zero-length refined edges it would make
        collapsed = np.asarray(m.positions).copy()
        collapsed[1] = collapsed[0]
        with pytest.raises(AmbiguousHalfPlaneError):
            sw.snub_subdivide(m.with_positions(collapsed), 1)


class TestRefinedGeometryChecks:
    def test_unjittered_fan3_folds_at_depth_three(self):
        with pytest.raises(NonManifoldError, match=r"^face \d+ is folded"):
            sw.snub_subdivide(sw.fan_ngon(3), 3)

    def test_unsmoothed_triangle_overlaps_without_a_fold(self):
        # known defect: only clockwise faces are rejected, and at t=4 without
        # smoothing two counterclockwise faces of the triangle's refinement
        # overlap, so their edges cross
        mesh = sw.snub_subdivide(sw.ngon(3), 4, smoothing=False).meshes[4]
        assert (mesh.face_signed_areas() > 0).all()
        with pytest.raises(SelfIntersectionError,
                           match="^edges 104 and 717 cross each other$"):
            _check_self_intersections(mesh)

    def test_pinched_source_is_non_manifold(self):
        bowtie = sw.build_mesh([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
                               [[0, 1, 2], [0, 3, 4]],
                               allow_pinched_boundary=True)
        with pytest.raises(NonManifoldError,
                           match=r"^boundary is pinched at vertex 0 "
                                 r"\(4 boundary edges meet there\)$"):
            sw.snub_subdivide(bowtie, 1)

    def test_folded_face_is_non_manifold(self):
        m = sw.pentagon()
        refined, _ = refine_once(m)
        pos = np.asarray(refined.positions).copy()
        pos[15] = 3.0 * pos[5] - 2.0 * pos[15]   # barycenter past a bend
        with pytest.raises(NonManifoldError,
                           match=r"^face 0 is folded over its neighbors "
                                 r"\(clockwise after refinement\)$"):
            _refine(m, 1, pos)

    def test_collapsed_face_is_degenerate(self):
        m = sw.pentagon()
        refined, _ = refine_once(m)
        pos = np.asarray(refined.positions).copy()
        pos[refined.face(0)] = pos[15]
        with pytest.raises(DegenerateFaceError, match="^face 0 has zero area$"):
            _refine(m, 1, pos)

    def test_zero_length_edge_is_degenerate(self):
        # with flag -1 the bend V + 2e gets no spoke, so moving it onto its
        # endpoint leaves the half-plane rule and every face area intact;
        # of the two edges collapsed, face 0 holds (1, 9) but the lowest
        # edge id is (0, 5)'s
        m = sw.pentagon()
        refined, _ = refine_once(m, flag=-1)
        pos = np.asarray(refined.positions).copy()
        for e in (0, 2):                         # edges (0, 1) and (1, 2)
            pos[5 + 2 * e] = pos[m.edges[e, 0]]  # bend onto its endpoint
        assert refined.edge_id(0, 5) < refined.edge_id(1, 9)
        with pytest.raises(DegenerateFaceError,
                           match=r"^edge \(0, 5\) has zero length$"):
            _refine(m, -1, pos)

    def test_returns_the_face_centroids_bitwise(self):
        m = jittered(sw.pentagon_flower(), 5)
        refined, _ = refine_once(m, flag=-1)
        positions = _positions(m, -1)
        assert positions.tobytes() == refined.positions.tobytes()
        _, centroids = _refine(m, -1, positions)
        assert centroids.tobytes() == refined.face_centroids().tobytes()


# ---------------------------------------------------------------------------
# operation 4: smoothing
# ---------------------------------------------------------------------------

class TestSmoothing:
    def test_identity_on_all_outer_mesh(self):
        m = sw.pentagon()
        smoothed = sw.smooth_inner_vertices(m)
        assert np.array_equal(np.asarray(smoothed.positions),
                              np.asarray(m.positions))

    def test_symmetric_fan_center_is_fixed_point(self):
        m = sw.fan_ngon(8)
        smoothed = sw.smooth_inner_vertices(m)
        assert np.allclose(np.asarray(smoothed.positions)[8], [0.0, 0.0],
                           atol=1e-12)

    def test_outer_vertices_bitwise_unchanged(self):
        hist = sw.snub_subdivide(sw.square_grid(2, 2), 1, smoothing=False)
        m = hist.final
        smoothed = sw.smooth_inner_vertices(m)
        outer = np.flatnonzero(~m.inner_vertex_mask)
        assert np.array_equal(np.asarray(smoothed.positions)[outer],
                              np.asarray(m.positions)[outer])
        inner = np.flatnonzero(m.inner_vertex_mask)
        assert not np.array_equal(np.asarray(smoothed.positions)[inner],
                                  np.asarray(m.positions)[inner])

    def test_matches_add_at_reference_bitwise(self):
        m = sw.snub_subdivide(sw.pentagon_flower(), 2, smoothing=False).final
        acc = np.zeros((m.vertex_count, 2))
        np.add.at(acc, m.face_vertex_flat, m.face_centroids()[m.slot_face])
        cnt = np.bincount(m.face_vertex_flat, minlength=m.vertex_count)
        expect = m.positions.copy()
        inner = m.inner_vertex_mask
        expect[inner] = acc[inner] / cnt[inner, None]
        smoothed = sw.smooth_inner_vertices(m)
        assert np.array_equal(smoothed.positions, expect)

    def test_smoothing_restores_convexity(self):
        smoothed = sw.snub_subdivide(sw.pentagon(), 4, smoothing=True)
        raw = sw.snub_subdivide(sw.pentagon(), 4, smoothing=False)
        assert sw.convexity_report(smoothed.final) == []
        assert sw.convexity_report(raw.final) != []


# ---------------------------------------------------------------------------
# multi-step driver
# ---------------------------------------------------------------------------

class TestSnubSubdivide:
    def test_zero_steps_returns_input_only(self):
        m = sw.pentagon()
        hist = sw.snub_subdivide(m, 0)
        assert len(hist) == 1 and hist.final is m and hist.records == []
        assert hist.steps == 0

    def test_steps_counts_the_records(self):
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        assert hist.steps == len(hist.records) == 2 and len(hist) == 3

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            sw.snub_subdivide(sw.pentagon(), -1)

    @pytest.mark.parametrize("steps", [2.0, None, True, 2.5, math.inf,
                                       math.nan])
    def test_steps_must_be_an_int(self, steps):
        with pytest.raises(InvalidParameterError,
                           match=f"^steps must be an integer >= 0, got "
                                 f"{steps!r}$"):
            sw.snub_subdivide(sw.pentagon(), steps)

    def test_depth_past_the_index_dtype_raises_before_any_step(self):
        # a pentagon's step 13 has 6,103,515,625 face slots; the guard
        # reads the count recursion, so nothing large is allocated
        tracemalloc.start()
        try:
            with pytest.raises(sw.DepthTooLargeError,
                               match=r"^step 13 of 14 would make a mesh of "
                                     r"1835040496 vertices, 3055743620 "
                                     r"edges and 6103515625 face slots, too "
                                     r"many for int32 indices$"):
                sw.snub_subdivide(sw.pentagon(), 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # step 12, the deepest a pentagon's indices can number, passes the
        # guard (only the guard runs here)
        snub._check_depth(sw.pentagon(), 12)

    def test_pentagon_count_recursion_six_steps(self):
        hist = sw.snub_subdivide(sw.pentagon(), 6)
        v, e, f = 5, 5, 1
        for t in range(1, 7):
            m = hist.meshes[t]
            v, e, f = count_recursion(v, e, f, [5] * f)
            assert (m.vertex_count, m.edge_count, m.face_count) == (v, e, f)
            assert f == 5 ** t
            assert set(m.face_sizes.tolist()) == {5}
        assert (hist.meshes[1].vertex_count, hist.meshes[1].edge_count,
                hist.meshes[1].face_count) == (16, 20, 5)
        assert (hist.meshes[2].vertex_count, hist.meshes[2].edge_count,
                hist.meshes[2].face_count) == (61, 85, 25)

    def test_mixed_input_count_recursion(self):
        for m0 in (sw.square_grid(3, 3), sw.ngon(24), sw.fan_ngon(24)):
            m1 = sw.snub_subdivide(m0, 1).final
            expect = count_recursion(m0.vertex_count, m0.edge_count,
                                     m0.face_count, m0.face_sizes.tolist())
            assert (m1.vertex_count, m1.edge_count, m1.face_count) == expect
            assert set(m1.face_sizes.tolist()) == {5}

    def test_fan24_single_step_face_count(self):
        assert sw.snub_subdivide(sw.fan_ngon(24), 1).final.face_count == 72

    def test_boundary_edge_growth(self):
        hist = sw.snub_subdivide(sw.pentagon(), 4)
        for t, m in enumerate(hist.meshes):
            assert int(m.boundary_edge_mask.sum()) == 5 * 3 ** t

    def test_euler_characteristic_preserved(self):
        hist = sw.snub_subdivide(sw.square_grid(2, 2), 3)
        for m in hist.meshes:
            assert sw.euler_characteristic(m) == 1

    def test_new_inner_vertex_degrees_three_or_five(self):
        hist = sw.snub_subdivide(sw.pentagon(), 3)
        for t in (2, 3):
            m = hist.meshes[t]
            # the step numbers the source's vertices first
            new = np.arange(m.vertex_count) >= hist.meshes[t - 1].vertex_count
            inner = m.inner_vertex_mask
            degrees = m.vertex_degrees[new & inner]
            assert set(degrees.tolist()) <= {3, 5}

    def test_original_vertices_keep_degree(self):
        hist = sw.snub_subdivide(sw.pentagon(), 3)
        for m in hist.meshes[1:]:
            assert set(m.vertex_degrees[:5].tolist()) == {2}

    def test_determinism_bitwise(self):
        a = sw.snub_subdivide(sw.pentagon_flower(), 3)
        b = sw.snub_subdivide(sw.pentagon_flower(), 3)
        for ma, mb in zip(a.meshes, b.meshes):
            assert ma == mb   # exact positions and identical face arrays

    def test_half_plane_vs_distance_disagreement_is_logged(self, caplog):
        # at refinement depth 4 of the pentagon, five bend points sit nearer
        # to the *other* side's barycenter; the half-plane rule wins and the
        # discrepancy is logged at debug level, never asserted
        with caplog.at_level(logging.DEBUG, logger="snubweave.snub"):
            sw.snub_subdivide(sw.pentagon(), 4)
        assert any(r.levelno == logging.DEBUG
                   and "nearest-barycenter" in r.getMessage()
                   for r in caplog.records)

    def test_normal_steps_log_no_warning(self, caplog):
        # the nearest-barycenter disagreement is expected on every deep
        # step, so it must not surface as a warning
        with caplog.at_level(logging.WARNING, logger="snubweave"):
            sw.snub_subdivide(sw.pentagon(), 4)
            sw.snub_subdivide(sw.pentagon_flower(), 3)
        assert caplog.records == []

    def test_half_plane_sign_mismatch_is_a_warning(self, caplog):
        # a bend point on the other side of its source edge than its
        # barycenter is a real anomaly, so it stays a warning
        source = sw.build_mesh([[0, 0], [4, 0], [4, 4], [0, 4]],
                               [[0, 1, 2, 3]])
        refined, _ = refine_once(source)
        pos = np.asarray(refined.positions).copy()
        pos[4 + 2 * source.edge_id(0, 1), 1] = -0.05  # spoke bend below y = 0
        with caplog.at_level(logging.DEBUG, logger="snubweave.snub"):
            _refine(source, 1, pos)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert caplog.messages == [
            "half-plane rule disagreed with the bend-side construction for "
            "1 spokes (non-convex source faces?)"]


# ---------------------------------------------------------------------------
# property: every refined mesh is what the validating constructor builds
# ---------------------------------------------------------------------------

MESH_ARRAYS = ("positions", "face_vertex_flat", "face_starts", "edges",
               "edge_left", "edge_right", "face_edge_flat")

demo_specs = st.one_of(
    st.just("pentagon"),
    st.just("pentaflower"),
    st.integers(3, 9).map(lambda n: f"ngon:{n}"),
    st.integers(3, 8).map(lambda n: f"fan:{n}"),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda wh: f"grid:{wh[0]}x{wh[1]}"),
)


def jittered(mesh, seed, amount=0.04):
    """``mesh`` with every vertex moved by up to ``amount`` edge lengths."""
    rng = np.random.default_rng(seed)
    scale = float(np.median(mesh.edge_lengths()))
    moved = mesh.positions + rng.uniform(-amount, amount,
                                         mesh.positions.shape) * scale
    return sw.build_mesh(moved, mesh.faces)


class TestRefinedMeshesValidate:
    @settings(max_examples=60, deadline=None)
    @given(spec=demo_specs, seed=st.integers(0, 2**32 - 1),
           steps=st.integers(1, 3), flag=st.sampled_from([1, -1]),
           smoothing=st.booleans())
    def test_history_matches_build_mesh(self, spec, seed, steps, flag,
                                        smoothing):
        current = jittered(sw.generate_demo_mesh(spec), seed)
        for _ in range(steps):
            try:
                hist = sw.snub_subdivide(current, 1, smoothing=smoothing,
                                         seed_flag=flag)
            except NonManifoldError:
                # a folded face on a coarse fan: a typed failure ends the run
                assert spec in ("fan:3", "fan:4")
                return
            m = hist.final
            rebuilt = sw.build_mesh(m.positions,
                                    (m.face_vertex_flat, m.face_starts))
            for name in MESH_ARRAYS:
                assert np.array_equal(getattr(m, name),
                                      getattr(rebuilt, name)), name
            tags = snub_edge_tags(m, hist.records[0].provenance)
            sum_n = int(current.face_sizes.sum())
            assert np.bincount(tags, minlength=4).tolist() == [
                0, current.edge_count, 2 * current.edge_count, sum_n]
            current = m


class TestNumberingContract:
    """The step's numbering is the only record of where each refined
    element came from, so every refined mesh must follow it."""

    @settings(max_examples=60, deadline=None)
    @given(spec=demo_specs, steps=st.integers(1, 3),
           flag=st.sampled_from([1, -1]), smoothing=st.booleans())
    def test_every_step_follows_the_numbering(self, spec, steps, flag,
                                              smoothing):
        source = sw.generate_demo_mesh(spec)
        for _ in range(steps):
            try:
                hist = sw.snub_subdivide(source, 1, smoothing=smoothing,
                                         seed_flag=flag)
            except NonManifoldError:
                # a folded face on a coarse fan: a typed failure ends the run
                assert spec in ("fan:3", "fan:4")
                return
            refined = hist.final
            V, E = source.vertex_count, source.edge_count
            # the record is the source's counts, and the edge roles they
            # give by the rule are the frozen step's edge tags
            record = hist.records[0].provenance
            assert record == sw.Provenance(V, E, source.face_count)
            assert all(type(n) is int for n in vars(record).values())
            tags = snub_edge_tags(refined, record)
            _, (want,) = snub_step_reference.subdivide(
                source, 1, smoothing=smoothing, seed_flag=flag)
            assert_same_bits(tags, want.edge_tags, "edge_tags")
            # the middle segment of source edge e joins its bend points
            middle = tags == EdgeTag.Z_MIDDLE
            bends = V + 2 * np.arange(E)
            assert np.array_equal(refined.edges[middle],
                                  np.column_stack((bends, bends + 1)))
            # refined face i opens with the barycenter of slot i's face
            assert np.array_equal(
                refined.face_vertex_flat[refined.face_starts[:-1]],
                V + 2 * E + source.slot_face)
            if not smoothing:
                assert np.array_equal(refined.positions[V + 2 * E:],
                                      source.face_centroids())
            # the spoke at bend V + b goes to the face on the bend's side:
            # walked from lower to higher id, edge e has its left face on
            # the side of bend V + 2e for flag +1, of V + 2e + 1 for -1
            spokes = refined.edges[tags == EdgeTag.SPOKE]
            b = spokes[:, 0] - V
            sides = np.where((b % 2 == 0) == (flag == 1),
                             source.edge_left[b // 2],
                             source.edge_right[b // 2])
            assert np.array_equal(spokes[:, 1] - (V + 2 * E), sides)
            source = refined

    @settings(max_examples=40, deadline=None)
    @given(spec=demo_specs, steps=st.integers(1, 3),
           flag=st.sampled_from([1, -1]), smoothing=st.booleans())
    def test_face_table_is_the_weaving_oracles_designation(
            self, spec, steps, flag, smoothing):
        try:
            hist = sw.snub_subdivide(sw.generate_demo_mesh(spec), steps,
                                     smoothing=smoothing, seed_flag=flag)
        except NonManifoldError:
            assert spec in ("fan:3", "fan:4")
            return
        mesh, record = hist.final, hist.records[-1].provenance
        middle, bend, crossed = _face_table(mesh, record)
        # the frozen weaving oracle's rule, by membership: a face's middle
        # is its one edge tagged middle, and it designates every vertex of
        # it that lies on another middle edge
        tags = snub_edge_tags(mesh, record)
        middles = np.flatnonzero(tags == EdgeTag.Z_MIDDLE)
        middle_of_vertex = np.full(mesh.vertex_count, -1)
        middle_of_vertex[mesh.edges[middles]] = middles[:, None]
        for f in range(mesh.face_count):
            (own,) = [e for e in mesh.face_edges(f).tolist()
                      if tags[e] == EdgeTag.Z_MIDDLE]
            designated = [v for v in mesh.face(f).tolist()
                          if middle_of_vertex[v] not in (-1, own)]
            assert (middle[f], [bend[f]], crossed[f]) \
                == (own, designated, middle_of_vertex[bend[f]])
        # and no bend point is designated twice
        assert len(np.unique(bend)) == mesh.face_count

    @settings(max_examples=40, deadline=None)
    @given(spec=demo_specs, steps=st.integers(1, 3),
           flag=st.sampled_from([1, -1]), smoothing=st.booleans())
    def test_inner_mask_read_off_the_numbering(self, spec, steps, flag,
                                               smoothing):
        """The mask the smoothing reads, carried from the input's through
        every step, is each refined mesh's own, and so are the face counts
        it reads at the vertices of that mask."""
        try:
            hist = sw.snub_subdivide(sw.generate_demo_mesh(spec), steps,
                                     smoothing=smoothing, seed_flag=flag)
        except NonManifoldError:
            assert spec in ("fan:3", "fan:4")
            return
        inner = hist.meshes[0].inner_vertex_mask
        faces_at = np.bincount(hist.meshes[0].face_vertex_flat,
                               minlength=hist.meshes[0].vertex_count)
        for source, refined in zip(hist.meshes, hist.meshes[1:]):
            inner = snub._refined_inner(source, inner)
            faces_at = snub._refined_faces_at(source, faces_at)
            assert np.array_equal(inner, refined.inner_vertex_mask)
            assert np.array_equal(faces_at[inner], np.bincount(
                refined.face_vertex_flat,
                minlength=refined.vertex_count)[inner])

    def test_history_meshes_cache_no_per_slot_table(self):
        """Every history mesh holds its seven arrays and nothing else, also
        after the history was glued, traced and measured."""
        hist = sw.snub_subdivide(sw.pentagon(), 8)
        provenance = hist.records[-1].provenance
        sw.trace_snub_strands(sw.glue_snub_pairs(hist.final, provenance),
                              provenance)
        sw.boundary_lengths(hist)
        for m in hist.meshes:
            assert set(vars(m)) == set(MESH_ARRAYS), m


def reflected(mesh):
    """``mesh`` mirrored in the y axis, faces reversed to stay CCW."""
    return sw.build_mesh(mesh.positions * [-1.0, 1.0],
                         [f[::-1] for f in mesh.faces])


class TestMirrorSymmetry:
    @settings(max_examples=30, deadline=None)
    @given(spec=st.one_of(st.sampled_from(["pentagon", "pentaflower"]),
                          st.integers(5, 8).map(lambda n: f"fan:{n}"),
                          st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
                              lambda wh: f"grid:{wh[0]}x{wh[1]}")),
           seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 3),
           smoothing=st.booleans())
    def test_flag_minus_one_on_mirror_is_mirror_of_flag_plus_one(
            self, spec, seed, steps, smoothing):
        """Snubbing the mirror image with ``seed_flag=-1`` gives the mirror
        image of the ``seed_flag=+1`` result, as geometry: vertices are
        matched by position within 1e-9, then faces by their cycles."""
        mesh = jittered(sw.generate_demo_mesh(spec), seed)
        plus = sw.snub_subdivide(mesh, steps, smoothing=smoothing).final
        minus = sw.snub_subdivide(reflected(mesh), steps, smoothing=smoothing,
                                  seed_flag=-1).final
        assert_isomorphic(minus, plus.positions * [-1.0, 1.0], plus.faces,
                          tol=1e-9)


# ---------------------------------------------------------------------------
# independent reference implementation
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    @pytest.mark.parametrize("flag", [1, -1])
    @pytest.mark.parametrize("smoothing", [True, False])
    def test_pentagon_two_steps(self, flag, smoothing):
        m0 = sw.pentagon()
        pts = [tuple(p) for p in np.asarray(m0.positions)]
        faces = [list(f) for f in m0.faces]
        hist = sw.snub_subdivide(m0, 2, smoothing=smoothing, seed_flag=flag)
        ref_pts, ref_faces = snub_reference.refine(pts, faces, 2, flag=flag,
                                                   smoothing=smoothing)
        assert_isomorphic(hist.final, ref_pts, ref_faces, tol=1e-12)

    @pytest.mark.parametrize("maker", [
        lambda: sw.square_grid(2, 2),
        lambda: sw.fan_ngon(6),
        lambda: sw.ngon(7),
        lambda: sw.pentagon_flower(),
    ])
    def test_mixed_inputs_two_steps(self, maker):
        m0 = maker()
        pts = [tuple(p) for p in np.asarray(m0.positions)]
        faces = [list(f) for f in m0.faces]
        hist = sw.snub_subdivide(m0, 2)
        ref_pts, ref_faces = snub_reference.refine(pts, faces, 2)
        assert_isomorphic(hist.final, ref_pts, ref_faces, tol=1e-9)


# ---------------------------------------------------------------------------
# frozen oracle of the step: same bits, errors and log records
# ---------------------------------------------------------------------------

class _RecordList(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append((record.levelno, record.msg, record.args))


def logged_outcome(logger_name, run):
    """``("returned", run())`` or ``("raised", type, message)`` for a typed
    error, and the ``(level, msg, args)`` of every record ``run`` logged on
    ``logger_name``."""
    log = logging.getLogger(logger_name)
    handler, level = _RecordList(), log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        outcome = ("returned", run())
    except sw.SnubWeaveError as exc:
        outcome = ("raised", type(exc), str(exc))
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return outcome, handler.records


def assert_same_bits(a, b, what):
    """``a`` equals ``b`` bit for bit; but a mesh's index array ``what``
    equals by value and is in the library's index dtype, as the frozen
    oracles hold int64 indices."""
    assert a.shape == b.shape, what
    if what in MESH_ARRAYS[1:]:
        assert a.dtype == sw.INDEX_DTYPE and np.array_equal(a, b), what
    else:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), what


def assert_step_records(source, refined, prov, ref, ref_source):
    """One step's record against the frozen step's: the record holds the
    source counts, and the frozen step's per-element arrays, which the
    library no longer stores, equal the numbering computed from them, as
    does the refined mesh's."""
    V, E, F = source.vertex_count, source.edge_count, source.face_count
    assert prov == sw.Provenance(V, E, F)
    assert_same_bits(snub_edge_tags(refined, prov), ref.edge_tags,
                     "edge_tags")
    kind = np.repeat(np.arange(3, dtype=np.int8), (V, 2 * E, F))
    for name in ("vertex_tags", "vertex_parent_kind"):
        assert_same_bits(getattr(ref, name), kind, name)
    assert_same_bits(ref.vertex_parent_id, np.concatenate([
        np.arange(V), np.arange(2 * E) // 2, np.arange(F)]),
        "vertex_parent_id")
    assert_same_bits(ref.face_parent, source.slot_face, "face_parent")
    assert_same_bits((refined.face_vertex_flat[refined.face_starts[:-1]]
                      - (V + 2 * E)).astype(np.int64), source.slot_face,
                     "face_parent")
    assert ref.source is ref_source


#: Scales and offsets of a mesh's coordinates: the unit ones about a third
#: of the time, else anywhere from 1e-300 to 1e300 and up to 1e17 away,
#: where lengths and their products under- or overflow and coordinates
#: lose their digits.
scales = st.one_of(st.just(1.0), st.sampled_from([1e-300, 1e-150, 1e150,
                                                  1e300]),
                   st.floats(1e-300, 1e300))
offsets = st.one_of(st.just(0.0), st.sampled_from([1e15, -1e17, 1e17]),
                    st.floats(-1e17, 1e17))


class TestStepOracle:
    @settings(max_examples=120, deadline=None)
    @given(spec=demo_specs, seed=st.integers(0, 2**32 - 1),
           amount=st.sampled_from([0.0, 0.04, 0.15]), steps=st.integers(1, 4),
           flag=st.sampled_from([1, -1]), smoothing=st.booleans(),
           scale=scales, offset=offsets)
    def test_history_errors_and_logs_match_frozen_step(
            self, spec, seed, amount, steps, flag, smoothing, scale, offset):
        mesh = jittered(sw.generate_demo_mesh(spec), seed, amount)
        mesh = mesh.with_positions(mesh.positions * scale + offset)
        # at unit scale a numpy warning is a fault; elsewhere both steps
        # under- and overflow alike, which only their outcomes show
        with np.errstate(all="ignore") if (scale, offset) != (1.0, 0.0) \
                else contextlib.nullcontext():
            got, got_log = logged_outcome("snubweave.snub", lambda: (
                sw.snub_subdivide(mesh, steps, smoothing=smoothing,
                                  seed_flag=flag)))
            want, want_log = logged_outcome("snub_step_reference", lambda: (
                snub_step_reference.subdivide(mesh, steps,
                                              smoothing=smoothing,
                                              seed_flag=flag)))
        assert got_log == want_log
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
            return
        hist, (meshes, provenances) = got[1], want[1]
        assert len(hist.meshes) == len(meshes) == steps + 1
        for m, ref in zip(hist.meshes, meshes):
            for name in MESH_ARRAYS:
                assert_same_bits(getattr(m, name), getattr(ref, name), name)
        for t, (record, ref) in enumerate(zip(hist.records, provenances)):
            assert_step_records(hist.meshes[t], hist.meshes[t + 1],
                                record.provenance, ref, meshes[t])
        assert hist.seed_flag == flag


class TestDeepStepOracle:
    """The step at depth 5, where the per-column code handles the most
    faces, against the frozen step: equal bits, or the same typed error
    and message, and the same log records."""

    @pytest.mark.parametrize("spec", ["pentagon", "pentaflower", "grid:3x3"])
    @pytest.mark.parametrize("amount", [0.0, 0.15])
    @pytest.mark.parametrize("flag", [1, -1])
    @pytest.mark.parametrize("smoothing", [True, False])
    def test_depth_five_matches_frozen_step(self, spec, amount, flag,
                                            smoothing):
        mesh = jittered(sw.generate_demo_mesh(spec), 5, amount)
        got, got_log = logged_outcome("snubweave.snub", lambda: (
            sw.snub_subdivide(mesh, 5, smoothing=smoothing, seed_flag=flag)))
        want, want_log = logged_outcome("snub_step_reference", lambda: (
            snub_step_reference.subdivide(mesh, 5, smoothing=smoothing,
                                          seed_flag=flag)))
        assert got_log == want_log
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
            return
        hist, (meshes, provenances) = got[1], want[1]
        for m, ref in zip(hist.meshes, meshes, strict=True):
            for name in MESH_ARRAYS:
                assert_same_bits(getattr(m, name), getattr(ref, name), name)
        for t, (record, ref) in enumerate(zip(hist.records, provenances,
                                              strict=True)):
            assert_step_records(hist.meshes[t], hist.meshes[t + 1],
                                record.provenance, ref, meshes[t])


# ---------------------------------------------------------------------------
# the step's checks: a cheap bound first, then the hypot expression
# ---------------------------------------------------------------------------

#: Coordinates where a bound, or the ``hypot`` it stands for, goes wrong:
#: zeros, subnormals, values whose squares or products under- or overflow
#: (beyond 1e154), inf and NaN.
HOSTILE = [0.0, -0.0, 5e-324, -2e-320, 2.2e-308, 1e-300, -1e-160, 1e-150,
           1e150, 1.5e154, -1e200, 1e300, 1.7e308, math.inf, -math.inf,
           math.nan]
coordinates = st.one_of(st.floats(-8, 8), st.sampled_from(HOSTILE),
                        st.floats())
#: Powers of two that put coordinates, their squares or the product of
#: two of them near either end of the float range, and any power at all.
exponents = st.one_of(
    st.sampled_from([-1074, -1060, -1022, -540, -537, -535, -532, -530,
                     -520, -512, -511, 0, 511, 512, 1021, 1023]),
    st.integers(-1074, 1023))
#: Vectors of any float, and plain ones scaled by such a power of two, so
#: that both coordinates sit deep in the subnormals or near the overflow.
plain = st.one_of(st.floats(-4, 4), st.sampled_from([1.0, -1.5, 1.9999]))
vectors = st.one_of(
    st.tuples(coordinates, coordinates),
    st.tuples(exponents.map(lambda k: 2.0 ** k), plain, plain).map(
        lambda s: (s[0] * s[1], s[0] * s[2])))
ulp_steps = st.integers(-16, 16)


def nudged(x, k):
    """``x`` times ``1 + k * eps``, a near tie with ``x``."""
    return x * (1.0 + k * 2.0 ** -52)


@st.composite
def length_pairs(draw):
    """Two vectors, mostly of equal or nearly equal length: one scaled,
    mirrored or swapped from the other, or turned onto an axis or a
    diagonal, so the two square sums round differently."""
    a = draw(vectors)
    tie = draw(st.sampled_from(["free", "nudged", "mirrored", "swapped",
                                "axis", "diagonal"]))
    k = draw(ulp_steps)
    with np.errstate(all="ignore"):
        length = float(np.hypot(*a))
    if tie == "free":
        b = draw(vectors)
    elif tie == "nudged":
        b = (nudged(a[0], k), nudged(a[1], k))
    elif tie == "mirrored":
        b = (-a[0], a[1])
    elif tie == "swapped":
        b = (a[1], a[0])
    elif tie == "axis":
        b = (nudged(length, k), 0.0)
    else:
        b = (nudged(length / math.sqrt(2.0), k), length / math.sqrt(2.0))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def line_rows(draw):
    """Two vectors, the second often sized so that the product of their
    largest coordinates nears the overflow, and a cross product for them,
    mostly at or near the ``1e-12`` line the half-plane check draws."""
    d = draw(vectors)
    if draw(st.booleans()):
        z = draw(vectors)
    else:
        size = 2.0 ** 1023 / (max(abs(d[0]), abs(d[1])) or 1.0)
        z = (size * draw(plain), size * draw(plain))
    with np.errstate(all="ignore"):
        limit = float(1e-12 * (np.hypot(*d) * np.hypot(*z)))
    kind = draw(st.sampled_from(["free", "cross", "tie", "near"]))
    if kind == "free":
        cross = draw(coordinates)
    elif kind == "cross":
        cross = d[0] * z[1] - d[1] * z[0]
    elif kind == "tie":
        cross = limit
    else:
        cross = nudged(limit, draw(ulp_steps))
    return d, z, draw(st.sampled_from([1.0, -1.0])) * cross


class TestBoundThenExact:
    """The checks decide most slots by a bound and leave the rest to the
    ``np.hypot`` expression they stand for; each decision is the
    expression's, on every float."""

    @settings(max_examples=120, deadline=None)
    @given(rows=st.lists(line_rows(), min_size=1, max_size=24))
    # a hypot, or the product of two, overflows while the bound does not
    @example(rows=[((1.5e308, 1.5e308), (1e-300, 0.0), 1.0),
                   ((1e154, 1e154), (1e154, -1e154), -1e300)])
    def test_on_line_is_the_hypot_test(self, rows):
        d, z, cross = (np.array([r[i] for r in rows]) for i in range(3))
        with np.errstate(all="ignore"):
            want = np.abs(cross) <= 1e-12 * (np.hypot(d[:, 0], d[:, 1])
                                             * np.hypot(z[:, 0], z[:, 1]))
            got = snub._on_line(d, z, cross)
        assert np.array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(rows=st.lists(length_pairs(), min_size=1, max_size=24))
    # squares in the subnormals, where their rounding reverses the order
    @example(rows=[((7.12415931310598e-162, 5.176023037120483e-162),
                    (8.805955961695272e-162, 0.0))])
    def test_closer_is_the_hypot_comparison(self, rows):
        a, b = (np.array([r[i] for r in rows]) for i in range(2))
        with np.errstate(all="ignore"):
            want = np.hypot(a[:, 0], a[:, 1]) < np.hypot(b[:, 0], b[:, 1])
            got = snub._closer(a, b)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the blocked passes: the block size changes no bit, error or log record
# ---------------------------------------------------------------------------

def mixed_mesh():
    """A triangle, a quad and a hexagon in a row, each sharing an edge."""
    return sw.build_mesh(
        [(0, 0.5), (1, 0), (1, 1), (2, 0), (2, 1), (3, -0.5), (4, 0), (4, 1),
         (3, 1.5)],
        [[0, 1, 2], [1, 3, 4, 2], [3, 5, 6, 7, 8, 4]])


def history_outcome(mesh, steps, flag, smoothing):
    """The logged outcome of a history, with its meshes as bytes and its
    records, so two outcomes compare bit for bit."""
    outcome, log = logged_outcome("snubweave.snub", lambda: sw.snub_subdivide(
        mesh, steps, smoothing=smoothing, seed_flag=flag))
    if outcome[0] == "returned":
        hist = outcome[1]
        outcome = ("returned", [getattr(m, name).tobytes()
                                for m in hist.meshes for name in MESH_ARRAYS],
                   [r.provenance for r in hist.records])
    return outcome, log


class TestBlockBoundaries:
    """The step runs block by block over whole source faces; tiny blocks
    split these small inputs at many face boundaries."""

    @pytest.mark.parametrize("spec", ["pentagon", "pentaflower", "ngon:3",
                                      "ngon:7", "fan:3", "fan:5", "grid:3x2",
                                      "mixed"])
    @pytest.mark.parametrize("flag", [1, -1])
    @pytest.mark.parametrize("smoothing", [True, False])
    def test_block_size_changes_nothing(self, monkeypatch, spec, flag,
                                        smoothing):
        base = mixed_mesh() if spec == "mixed" else sw.generate_demo_mesh(spec)
        mesh = jittered(base, 3, 0.1)
        want = history_outcome(mesh, 3, flag, smoothing)
        for block in (1, 7, 40):
            monkeypatch.setattr(snub, "_BLOCK", block)
            assert history_outcome(mesh, 3, flag, smoothing) == want, block

    def test_each_step_walks_the_blocks_once(self, monkeypatch):
        walked, blocks = [], snub._blocks

        def counted(starts):
            walked.append(len(starts) - 1)
            return blocks(starts)

        monkeypatch.setattr(snub, "_blocks", counted)
        hist = sw.snub_subdivide(sw.pentagon_flower(), 3)
        assert walked == [m.face_count for m in hist.meshes[:-1]]

    def faulty_check(self, monkeypatch, source, refined, pos, flag):
        """The logged outcome of refining ``source`` with its refined
        vertices at ``pos``, the same with one quad per block as in one
        block, and ``refined`` moved to ``pos``."""
        outcomes = []
        for block in (4, 1 << 14):
            monkeypatch.setattr(snub, "_BLOCK", block)
            outcomes.append(logged_outcome("snubweave.snub", lambda: (
                _refine(source, flag, pos))))
        assert outcomes[0] == outcomes[1]
        return outcomes[0][0], refined.with_positions(pos.copy())

    def test_first_fault_in_the_documented_order_wins(self, monkeypatch):
        # three unit quads in a row: each is one block of four slots, and
        # with flag -1 the bend V + 2e of a bottom edge (walked left to
        # right, face on the left) and V + 2e + 1 of a top edge get no spoke
        source = sw.square_grid(3, 1)
        refined, _ = refine_once(source, flag=-1)
        V, E = source.vertex_count, source.edge_count
        bottom2, top0 = source.edge_id(2, 3), source.edge_id(4, 5)
        # zero-length edges: bends onto their endpoints, in quads 0 and 2
        zero_len = np.asarray(refined.positions).copy()
        zero_len[V + 2 * top0 + 1] = zero_len[5]
        zero_len[V + 2 * bottom2] = zero_len[2]
        outcome, moved = self.faulty_check(monkeypatch, source, refined,
                                           zero_len, -1)
        short = np.flatnonzero(moved.edge_lengths() == 0.0)
        a, b = refined.edges[short[0]]
        assert (a, len(short)) == (2, 2)     # the lowest one is quad 2's
        assert outcome == ("raised", DegenerateFaceError,
                           f"edge ({a}, {b}) has zero length")

        # and a fold in quad 2, its barycenter below its bottom edge
        pos = zero_len.copy()
        pos[V + 2 * E + 2] = (2.5, -3.0)
        outcome, moved = self.faulty_check(monkeypatch, source, refined, pos,
                                           -1)
        folded = np.flatnonzero(moved.face_signed_areas() < 0)
        assert len(folded) and folded.min() >= 8      # quad 2's faces only
        assert outcome == ("raised", NonManifoldError,
                           f"face {folded[0]} is folded over its neighbors "
                           f"(clockwise after refinement)")

        # a fold in quad 0, then a spoke's bend point on its source edge's
        # line in quad 2: the bend point comes first
        pos = np.asarray(refined.positions).copy()
        pos[V + 2 * E] = (0.5, -3.0)
        spoke_bend = V + 2 * bottom2 + 1
        pos[spoke_bend] = (2.5, 0.0)
        outcome, moved = self.faulty_check(monkeypatch, source, refined, pos,
                                           -1)
        assert (moved.face_signed_areas()[:4] < 0).any()
        assert outcome == ("raised", AmbiguousHalfPlaneError,
                           f"bend point {spoke_bend} lies on its source "
                           f"edge's supporting line")
