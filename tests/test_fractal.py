"""Rewriting system, length growth, dimension estimates, first-hit rasters."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import snubweave as sw
from snubweave import (
    DepthTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
    SnubWeaveError,
    UnknownSeedError,
)

import fractal_reference as ref
from mesh_compare import snub_edge_tags
from weaving_reference import EdgeTag

#: Values that are not an integer where one is expected.
NOT_INTEGERS = [True, 2.5, math.inf, math.nan, None]

SQRT7 = math.sqrt(7.0)
TARGET_DIMENSION = math.log(3.0) / math.log(SQRT7)


def polyline_length(p):
    return float(np.hypot(*np.diff(np.asarray(p), axis=0).T).sum())


# ---------------------------------------------------------------------------
# rewriting system
# ---------------------------------------------------------------------------

class TestLSystemExpand:
    def test_depth_zero(self):
        symbols, polyline = sw.lsystem_expand(0)
        assert symbols == "F"
        assert np.allclose(polyline, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_depth_one_string_and_polyline(self):
        symbols, polyline = sw.lsystem_expand(1)
        assert symbols == "∇F-F+F△"
        # published (truncated) coordinates of the two bend points
        assert abs(polyline[1][0] - 0.35714) < 5e-5
        assert abs(polyline[1][1] - 0.123) < 1e-3
        assert abs(polyline[2][0] - 0.64286) < 5e-5
        assert abs(polyline[2][1] + 0.123) < 1e-3
        assert np.allclose(polyline[3], [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("depth", [2, 4, 7])
    def test_segment_count_length_and_endpoints(self, depth):
        symbols, polyline = sw.lsystem_expand(depth)
        assert symbols.count("F") == 3 ** depth
        assert len(polyline) == 3 ** depth + 1
        assert abs(polyline_length(polyline) - (3.0 / SQRT7) ** depth) < 1e-12
        assert np.allclose(polyline[0], [0.0, 0.0], atol=1e-12)
        assert np.allclose(polyline[-1], [1.0, 0.0], atol=1e-12)

    def test_segment_lengths_equal(self):
        _, polyline = sw.lsystem_expand(3)
        seg = np.hypot(*np.diff(polyline, axis=0).T)
        assert np.allclose(seg, (1.0 / SQRT7) ** 3, atol=1e-12)

    def test_depth_guard(self):
        with pytest.raises(DepthTooLargeError):
            sw.lsystem_expand(13)
        with pytest.raises(InvalidParameterError):
            sw.lsystem_expand(-1)

    # True would otherwise expand once
    @pytest.mark.parametrize("depth", [2.0, "2"] + NOT_INTEGERS)
    def test_depth_must_be_an_integer(self, depth):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            sw.lsystem_expand(depth)

    def test_alpha_identity(self):
        # |2 e^{i a} + e^{i(a - 60deg)}| = sqrt(7) with real-positive sum
        a = sw.ALPHA
        total = 2 * np.exp(1j * a) + np.exp(1j * (a - math.pi / 3))
        assert abs(abs(total) - SQRT7) < 1e-12
        assert abs(total.imag) < 1e-12 and total.real > 0
        assert abs(a - math.atan(math.sqrt(3.0) / 5.0)) < 1e-15
        assert abs(math.degrees(a) - 19.1066) < 5e-5

    def test_matches_refined_boundary_edge(self):
        # the rewriting curve IS one boundary edge after t refinements
        hist = sw.snub_subdivide(sw.pentagon(), 4)
        family = sw.track_inner_curves(hist, [0])
        track = family.curves[0]
        m0 = hist.meshes[0]
        a, b = np.asarray(m0.edges)[0]
        pa, pb = np.asarray(m0.positions)[[a, b]]
        d = pb - pa
        scale = d[0] * d[0] + d[1] * d[1]
        for t in range(5):
            pos = np.asarray(hist.meshes[t].positions)[track.vertex_paths[t]]
            rel = pos - pa
            # similarity mapping pa -> (0,0), pb -> (1,0)
            norm = np.column_stack([
                (rel[:, 0] * d[0] + rel[:, 1] * d[1]) / scale,
                (rel[:, 1] * d[0] - rel[:, 0] * d[1]) / scale])
            _, expected = sw.lsystem_expand(t)
            assert np.abs(norm - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# boundary lengths and dimension
# ---------------------------------------------------------------------------

class TestBoundaryLengths:
    def test_pentagon_ratio(self):
        hist = sw.snub_subdivide(sw.pentagon(), 4)
        lengths = sw.boundary_lengths(hist)
        assert len(lengths) == 5
        for a, b in zip(lengths, lengths[1:]):
            assert abs(b / a - 3.0 / SQRT7) < 1e-9

    def test_grid_ratio(self):
        hist = sw.snub_subdivide(sw.square_grid(2, 2), 3)
        lengths = sw.boundary_lengths(hist)
        for a, b in zip(lengths, lengths[1:]):
            assert abs(b / a - 3.0 / SQRT7) < 1e-9
        assert lengths == [float(m.edge_lengths()[m.boundary_edge_mask].sum())
                           for m in hist.meshes]

    def test_zero_steps_is_perimeter(self):
        hist = sw.snub_subdivide(sw.square_grid(1, 1), 0)
        assert sw.boundary_lengths(hist) == [pytest.approx(4.0)]


class TestDimensionEstimate:
    def test_exact_geometric_series(self):
        lengths = [2.0 * (3.0 / SQRT7) ** t for t in range(7)]
        est = sw.estimate_fractal_dimension(lengths)
        assert abs(est.dimension - 1.12915) < 1e-5
        assert abs(est.dimension - TARGET_DIMENSION) < 1e-6
        assert est.residual < 1e-12

    def test_constant_lengths_give_one(self):
        est = sw.estimate_fractal_dimension([3.3, 3.3, 3.3, 3.3])
        assert abs(est.dimension - 1.0) < 1e-12

    def test_pentagon_history(self):
        hist = sw.snub_subdivide(sw.pentagon(), 6)
        est = sw.estimate_fractal_dimension(sw.boundary_lengths(hist))
        assert abs(est.dimension - TARGET_DIMENSION) < 1e-9

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            sw.estimate_fractal_dimension([1.0, 2.0])

    def test_box_counting_cross_validation(self):
        _, polyline = sw.lsystem_expand(8)
        est = sw.box_counting_dimension(polyline)
        assert abs(est.dimension - TARGET_DIMENSION) < 0.02

    def test_box_counting_straight_line(self):
        line = np.column_stack([np.linspace(0, 1, 200), np.zeros(200)])
        est = sw.box_counting_dimension(line)
        assert abs(est.dimension - 1.0) < 0.05

    def test_rejects_non_finite_lengths(self):
        with pytest.raises(InvalidParameterError):
            sw.estimate_fractal_dimension([1.0, float("nan"), 2.0])

    def test_rejects_values_that_are_not_numbers(self):
        # numpy's ValueError used to escape from the float conversion
        with pytest.raises(InvalidParameterError,
                           match="^lengths must be numbers"):
            sw.estimate_fractal_dimension(["a", "b", "c"])
        with pytest.raises(InvalidParameterError,
                           match="^polyline must be numbers"):
            sw.box_counting_dimension([["a", "b"], ["c", "d"]])

    def test_box_counting_rejects_repeated_grid_sizes(self):
        _, polyline = sw.lsystem_expand(4)
        with pytest.raises(InvalidParameterError):
            sw.box_counting_dimension(polyline, grid_sizes=(16, 16, 16))

    @pytest.mark.parametrize("grid_sizes", [(0, 16, 32), (-4, 8, 16)])
    def test_box_counting_rejects_grid_sizes_below_two(self, grid_sizes,
                                                       capfd):
        _, polyline = sw.lsystem_expand(4)
        with pytest.raises(InvalidParameterError):
            sw.box_counting_dimension(polyline, grid_sizes=grid_sizes)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_box_counting_rejects_non_finite_polylines(self, bad):
        _, polyline = sw.lsystem_expand(3)
        polyline[5, 1] = bad
        with pytest.raises(InvalidParameterError, match="must be finite"):
            sw.box_counting_dimension(polyline)

    def test_box_counting_rejects_a_bounding_box_too_large_to_measure(self):
        # finite coordinates whose extent overflows a float
        with pytest.raises(InvalidParameterError, match="extent overflows"):
            sw.box_counting_dimension([[-1e308, 0.0], [1e308, 1.0],
                                       [0.0, 2.0]])

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_box_counting_needs_integer_counts(self, value):
        _, polyline = sw.lsystem_expand(4)
        with pytest.raises(InvalidParameterError,
                           match="^samples_per_segment must be an integer"):
            sw.box_counting_dimension(polyline, samples_per_segment=value)
        with pytest.raises(InvalidParameterError,
                           match="^a grid size must be an integer >= 2"):
            sw.box_counting_dimension(polyline, grid_sizes=(value, 8, 16))
        # numpy integers are integers, with the same estimate
        got = sw.box_counting_dimension(polyline, np.array([4, 8, 16]),
                                        np.int64(4))
        want = sw.box_counting_dimension(polyline, (4, 8, 16), 4)
        assert (got.dimension, got.residual) == (want.dimension, want.residual)

    def test_box_counting_rejects_zero_samples_per_segment(self):
        _, polyline = sw.lsystem_expand(4)
        with pytest.raises(InvalidParameterError):
            sw.box_counting_dimension(polyline, samples_per_segment=0)


# ---------------------------------------------------------------------------
# curve tracking
# ---------------------------------------------------------------------------

class TestTrackInnerCurves:
    def test_boundary_seed_grows_exactly(self):
        hist = sw.snub_subdivide(sw.pentagon(), 4)
        family = sw.track_inner_curves(hist, [0])
        track = family.curves[0]
        for factor in track.growth_factors:
            assert abs(factor - 3.0 / SQRT7) < 1e-12
        assert track.endpoints_fixed == (True, True)

    def test_center_to_corner_bounded_by_endpoint_distance(self):
        # seed a spoke from the barycenter to an original corner at step 1
        hist = sw.snub_subdivide(sw.pentagon(), 4)
        m1 = hist.meshes[1]
        tags = snub_edge_tags(m1, hist.records[0].provenance)
        spoke_ids = np.flatnonzero(tags == EdgeTag.SPOKE)
        seed = int(spoke_ids[0])
        family = sw.track_inner_curves(hist, [seed], start_step=1)
        track = family.curves[0]
        for t, (path, length) in enumerate(zip(track.vertex_paths,
                                               track.lengths), start=1):
            pos = np.asarray(hist.meshes[t].positions)
            endpoint_distance = float(np.hypot(*(pos[path[-1]] - pos[path[0]])))
            assert length >= endpoint_distance - 1e-12

    def test_interior_curve_lengths_reported_not_monotone_asserted(self):
        hist = sw.snub_subdivide(sw.square_grid(2, 2), 3)
        seed = int(np.flatnonzero(~hist.meshes[0].boundary_edge_mask)[0])
        family = sw.track_inner_curves(hist, [seed])
        track = family.curves[0]
        assert len(track.lengths) == 4
        assert all(length > 0 for length in track.lengths)

    def test_unknown_seed(self):
        hist = sw.snub_subdivide(sw.pentagon(), 1)
        with pytest.raises(UnknownSeedError):
            sw.track_inner_curves(hist, [99])

    @pytest.mark.parametrize("seeds", [[1.7], [1, 2.0], [[0, 1]], 3])
    def test_seeds_must_be_integer_edge_ids(self, seeds):
        hist = sw.snub_subdivide(sw.pentagon(), 1)
        with pytest.raises(UnknownSeedError, match="integer edge ids"):
            sw.track_inner_curves(hist, seeds)

    @pytest.mark.parametrize("start_step", NOT_INTEGERS)
    def test_start_step_must_be_an_integer(self, start_step):
        # True would otherwise run from step 1
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        with pytest.raises(InvalidParameterError,
                           match="^start_step must be an integer >= 0"):
            sw.track_inner_curves(hist, [0], start_step=start_step)
        assert sw.track_inner_curves(
            hist, [0], start_step=np.int64(1)).curves[0].lengths \
            == sw.track_inner_curves(hist, [0], start_step=1).curves[0].lengths

    def test_path_vertices_triple_per_step(self):
        hist = sw.snub_subdivide(sw.pentagon(), 3)
        track = sw.track_inner_curves(hist, [2]).curves[0]
        for t, path in enumerate(track.vertex_paths):
            assert len(path) == 3 ** t + 1


# ---------------------------------------------------------------------------
# first-hit raster
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def history():
    return sw.snub_subdivide(sw.pentagon(), 5)


class TestFirstHitRaster:
    def test_input_corners_are_step_zero(self, history):
        raster = sw.first_hit_raster(history, 128)
        xmin, ymin, xmax, ymax = raster.window
        H, W = raster.step_index.shape
        for x, y in np.asarray(history.meshes[0].positions):
            px = int(np.floor((x - xmin) / (xmax - xmin) * W))
            py = int(np.floor((ymax - y) / (ymax - ymin) * H))
            assert raster.step_index[py, px] == 0

    def test_monotone_under_extra_steps(self, history):
        shallow = sw.snub_subdivide(sw.pentagon(), 3)
        r_shallow = sw.first_hit_raster(shallow, 96)
        r_deep = sw.first_hit_raster(history, 96)
        colored = r_shallow.step_index >= 0
        assert np.array_equal(r_shallow.step_index[colored],
                              r_deep.step_index[colored])

    def test_far_window_is_background(self, history):
        raster = sw.first_hit_raster(history, 64,
                                     window=(50.0, 50.0, 51.0, 51.0))
        assert (raster.step_index == -1).all()

    def test_pixel_counts_sum_to_colored(self, history):
        raster = sw.first_hit_raster(history, 128)
        assert raster.pixel_counts.sum() == (raster.step_index >= 0).sum()
        assert raster.saturation_step <= len(history.meshes) - 1
        for t, count in enumerate(raster.pixel_counts):
            assert count == (raster.step_index == t).sum()
        assert raster.saturation_step == np.flatnonzero(raster.pixel_counts)[-1]

    def test_default_window_contains_every_step(self, history):
        raster = sw.first_hit_raster(history, 64)
        xmin, ymin, xmax, ymax = raster.window
        for mesh in history.meshes:
            pos = np.asarray(mesh.positions)
            assert (pos[:, 0] >= xmin).all() and (pos[:, 0] < xmax).all()
            assert (pos[:, 1] >= ymin).all() and (pos[:, 1] < ymax).all()

    def test_determinism(self, history):
        a = sw.first_hit_raster(history, 64)
        b = sw.first_hit_raster(history, 64)
        assert np.array_equal(a.step_index, b.step_index)

    @pytest.mark.parametrize("window", [
        (0.0, 0.0, np.inf, 1.0), (0.0, np.nan, 1.0, 1.0),
        (-np.inf, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0, 2.0),
        (1.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 0.5), "abcd",
        ("a", 0.0, 1.0, 1.0)])
    def test_window_must_be_finite_with_positive_extent(self, history,
                                                          window):
        with pytest.raises(InvalidParameterError, match="window must be"):
            sw.first_hit_raster(history, 32, window=window)

    def test_resolution_guard(self, history):
        with pytest.raises(InvalidParameterError):
            sw.first_hit_raster(history, 8)

    @pytest.mark.parametrize("resolution", NOT_INTEGERS + [16.9])
    def test_resolution_must_be_an_integer(self, history, resolution):
        # inf overflowed and nan failed in ``int``; 16.9 gave a 15x16 raster
        with pytest.raises(InvalidParameterError,
                           match="^resolution must be an integer >= 16"):
            sw.first_hit_raster(history, resolution)
        assert np.array_equal(
            sw.first_hit_raster(history, np.int64(32)).step_index,
            sw.first_hit_raster(history, 32).step_index)

    def test_tall_window_gets_rows_by_its_aspect(self, history):
        raster = sw.first_hit_raster(history, 16, window=(0.0, 0.0, 1e-3, 1.0))
        assert raster.step_index.shape == (16000, 16)

    @pytest.mark.parametrize("resolution, window", [
        (16, (0.0, 0.0, 1e-9, 1.0)), (16, (0.0, 0.0, 1e-300, 1e300)),
        (10**5, None), (2**24 + 1, None)])
    def test_pixel_limit(self, history, resolution, window):
        # the raster refuses before allocating more than 2**24 pixels
        with pytest.raises(InvalidParameterError, match="exceeds the limit"):
            sw.first_hit_raster(history, resolution, window=window)

    def test_palette_shape(self, history):
        raster = sw.first_hit_raster(history, 64)
        assert raster.palette.shape == (len(history.meshes), 3)
        assert raster.palette.dtype == np.uint8


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the frozen loop implementations
# ---------------------------------------------------------------------------

def jittered(mesh, seed, amount=0.04):
    """``mesh`` with every vertex moved by up to ``amount`` edge lengths."""
    rng = np.random.default_rng(seed)
    scale = float(np.median(mesh.edge_lengths()))
    moved = mesh.positions + rng.uniform(-amount, amount,
                                         mesh.positions.shape) * scale
    return sw.build_mesh(moved, mesh.faces)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_estimate(got, want):
    assert type(got.dimension) is float and type(got.residual) is float
    assert bits([got.dimension, got.residual]) \
        == bits([want.dimension, want.residual])
    assert bits(got.log_sizes) == bits(want.log_sizes)
    assert bits(got.log_values) == bits(want.log_values)


def assert_same_family(got, want):
    assert got.start_step == want.start_step
    assert len(got.curves) == len(want.curves)
    for g, w in zip(got.curves, want.curves):
        assert type(g.seed_edge) is int and g.seed_edge == w.seed_edge
        assert bits(g.lengths) == bits(w.lengths)
        assert all(type(x) is float for x in g.lengths)
        assert g.endpoints_fixed == w.endpoints_fixed
        assert all(type(x) is bool for x in g.endpoints_fixed)
        assert len(g.vertex_paths) == len(w.vertex_paths)
        for p, q in zip(g.vertex_paths, w.vertex_paths):
            assert p.dtype == q.dtype and np.array_equal(p, q)


fractal_specs = st.one_of(
    st.just("pentagon"),
    st.just("pentaflower"),
    st.integers(3, 9).map(lambda n: f"ngon:{n}"),
    st.integers(3, 8).map(lambda n: f"fan:{n}"),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda wh: f"grid:{wh[0]}x{wh[1]}"),
)


class TestOracleEquivalence:
    @pytest.mark.parametrize("depth", range(11))
    def test_lsystem_expand_matches_oracle(self, depth):
        symbols, polyline = sw.lsystem_expand(depth)
        want_symbols, want_polyline = ref.lsystem_expand(depth)
        assert symbols == want_symbols
        assert polyline.shape == want_polyline.shape
        assert bits(polyline) == bits(want_polyline)

    @settings(max_examples=100, deadline=None)
    @given(spec=fractal_specs, seed=st.integers(0, 2**32 - 1),
           steps=st.integers(0, 4), smoothing=st.booleans(), data=st.data())
    def test_track_inner_curves_matches_oracle(self, spec, seed, steps,
                                               smoothing, data):
        mesh = jittered(sw.generate_demo_mesh(spec), seed)
        try:
            hist = sw.snub_subdivide(mesh, steps, smoothing=smoothing)
        except SnubWeaveError:
            reject()
        start = data.draw(st.integers(0, steps), label="start_step")
        edges = hist.meshes[start].edge_count
        seeds = data.draw(st.lists(st.integers(0, edges - 1), max_size=8),
                          label="seeds")
        seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=2)
                           if seeds else st.just([]), label="repeats")
        assert_same_family(sw.track_inner_curves(hist, seeds, start),
                           ref.track_inner_curves(hist, seeds, start))

    @pytest.mark.parametrize("smoothing", [True, False])
    def test_every_start_step_with_repeats_and_no_seeds(self, smoothing):
        hist = sw.snub_subdivide(jittered(sw.pentagon_flower(), 7), 3,
                                 smoothing=smoothing)
        for start, mesh in enumerate(hist.meshes):
            last = mesh.edge_count - 1
            for seeds in ([], np.zeros(0, dtype=np.int64),
                          [0, last, 0, 3, last, 3]):
                assert_same_family(
                    sw.track_inner_curves(hist, seeds, start),
                    ref.track_inner_curves(hist, seeds, start))

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=12))
    def test_estimate_fractal_dimension_matches_oracle(self, lengths):
        assert_same_estimate(sw.estimate_fractal_dimension(lengths),
                             ref.estimate_fractal_dimension(lengths))

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-100, 100),
                                     st.floats(-100, 100)),
                           min_size=2, max_size=60),
           grid_sizes=st.lists(st.integers(2, 300), min_size=3, max_size=7,
                               unique=True),
           samples=st.integers(1, 6))
    def test_box_counting_dimension_matches_oracle(self, points, grid_sizes,
                                                   samples):
        assert_same_estimate(
            sw.box_counting_dimension(points, tuple(grid_sizes), samples),
            ref.box_counting_dimension(points, tuple(grid_sizes), samples))

    @pytest.mark.parametrize("depth", [2, 5, 8])
    def test_box_counting_on_the_boundary_curve_matches_oracle(self, depth):
        _, polyline = sw.lsystem_expand(depth)
        assert_same_estimate(sw.box_counting_dimension(polyline),
                             ref.box_counting_dimension(polyline))

    def test_default_palette_matches_oracle(self):
        for steps in range(-1, 25):
            got, want = sw.default_palette(steps), ref.default_palette(steps)
            assert got.dtype == want.dtype == np.uint8
            assert got.shape == want.shape
            assert np.array_equal(got, want)
