"""Weaving: oracle equivalence, invariants of the woven output, error paths."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snubweave as sw
from snubweave import (
    InternalInvariantError,
    InvalidParameterError,
    InvalidTriangleColoringError,
    NoInteriorEdgesError,
    NonManifoldError,
    NotBipartiteError,
    NotTriangleMeshError,
    Provenance,
)

import classic_reference as cref
import weaving_reference as ref
from mesh_compare import snub_edge_tags
from snubweave.mesh_core import _direct_mesh
from snubweave.weaving import _glue_across, _rank_walks

MESH_ARRAYS = ("positions", "face_vertex_flat", "face_starts", "edges",
               "edge_left", "edge_right", "face_edge_flat")


def jittered(mesh, seed, amount=0.04):
    """``mesh`` with every vertex moved by up to ``amount`` edge lengths."""
    rng = np.random.default_rng(seed)
    scale = float(np.median(mesh.edge_lengths()))
    moved = mesh.positions + rng.uniform(-amount, amount,
                                         mesh.positions.shape) * scale
    return sw.build_mesh(moved, mesh.faces)


def triangle_lattice(n, seed):
    """Jittered n x n squares split along one diagonal, with the coloring
    ``(x + y) % 3 == 0`` that gives every triangle one ``c1`` vertex."""
    xs, ys = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    points = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)
    points += np.random.default_rng(seed).uniform(-0.15, 0.15, points.shape)
    faces = []
    for y in range(n):
        for x in range(n):
            a, b = y * (n + 1) + x, y * (n + 1) + x + 1
            faces += [[a, b, b + n + 1], [a, b + n + 1, a + n + 1]]
    return (sw.build_mesh(points, faces),
            sw.VertexColoring((xs.ravel() + ys.ravel()) % 3 == 0))


def snub_weave(mesh, steps, flag=1):
    """Snub ``mesh``, then glue and trace the last step."""
    hist = sw.snub_subdivide(mesh, steps, seed_flag=flag)
    prov = hist.records[-1].provenance
    tiling = sw.glue_snub_pairs(hist.final, prov)
    weaving = sw.trace_snub_strands(tiling, prov)
    return hist, tiling, weaving


def oracle_provenance(hist):
    """The last step's record as the oracle takes it: a tag per edge."""
    return ref.Provenance(snub_edge_tags(hist.final,
                                         hist.records[-1].provenance))


def relabelled(mesh, perm):
    """``mesh`` with vertex ``v`` renamed ``perm[v]``: the same counts and
    faces, in another numbering."""
    positions = np.empty_like(mesh.positions)
    positions[perm] = mesh.positions
    return sw.build_mesh(positions, (perm[mesh.face_vertex_flat],
                                     mesh.face_starts))


def assert_same_array(a, b, what):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert np.array_equal(a, b), what


def tile_face_tuples(tile_faces):
    """A ``(T, 2)`` tile-face array as the reference's tuple of tuples."""
    if isinstance(tile_faces, tuple):
        return tile_faces
    assert tile_faces.dtype == np.int64 and tile_faces.shape[1:] == (2,)
    return tuple((f,) if g < 0 else (f, g) for f, g in tile_faces.tolist())


def assert_same_tiling(got, want):
    for name in MESH_ARRAYS:
        assert_same_array(getattr(got.mesh, name), getattr(want.mesh, name),
                          name)
    assert_same_array(got.pairs, want.pairs, "pairs")
    assert_same_array(got.singletons, want.singletons, "singletons")
    assert tile_face_tuples(got.tile_faces) \
        == tile_face_tuples(want.tile_faces)


def assert_same_weaving(got, want):
    """Compare through the views, which the reference stores as fields."""
    assert got.kind == want.kind
    assert got.strands == want.strands
    for name in ("over_strand", "under_strand"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b and list(a) == list(b), name
    assert got.crossing_count() == want.crossing_count()


def ribbon_list(ribbons, closed):
    """A :class:`~snubweave.weaving.Ribbons` record as the reference's list
    of per-strand :class:`weaving_reference.Ribbon` objects; ``closed`` is
    the weaving's, which the record does not restate."""
    if isinstance(ribbons, list):
        return ribbons
    off = ribbons.point_offsets
    assert off.dtype == np.int64 and off.shape == (len(closed) + 1,)
    assert off[0] == 0 and (np.diff(off) > 0).all()
    P = int(off[-1])
    assert ribbons.points.shape == (P, 2)
    assert ribbons.half_widths.shape == (P,)
    assert ribbons.under.dtype == bool and ribbons.under.shape == (P,)
    assert len(ribbons) == len(closed)
    return [ref.Ribbon(strand_index=i, centerline=ribbons.points[a:b],
                       half_widths=ribbons.half_widths[a:b],
                       under_spans=tuple(
                           np.flatnonzero(ribbons.under[a:b]).tolist()),
                       closed=z)
            for i, (a, b, z) in enumerate(zip(off[:-1].tolist(),
                                              off[1:].tolist(),
                                              closed.tolist()))]


def assert_same_ribbons(got, want, closed, width_ulp=0):
    """Compare through :func:`ribbon_list`; ``closed`` is the weaving's.
    Every field is compared bitwise but the half widths with a
    ``width_ulp``, which may differ by that many units in the last place."""
    got, want = ribbon_list(got, closed), ribbon_list(want, closed)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.strand_index, a.under_spans, a.closed) \
            == (b.strand_index, b.under_spans, b.closed)
        assert_same_array(a.centerline, b.centerline, "centerline")
        if width_ulp:
            assert a.half_widths.dtype == b.half_widths.dtype
            np.testing.assert_array_max_ulp(a.half_widths, b.half_widths,
                                            maxulp=width_ulp)
        else:
            assert_same_array(a.half_widths, b.half_widths, "half_widths")


def assert_same_quad_weave(mesh, coloring, mirror, width):
    """The library weaves the swapped coloring where the oracle mirrors."""
    got = sw.quad_weaving(mesh, coloring.swapped() if mirror else coloring)
    want = ref.quad_weaving(mesh, coloring, mirror=mirror)
    assert_same_weaving(got, want)
    assert_same_ribbons(sw.strand_ribbons(got, mesh, width),
                        ref.strand_ribbons(want, mesh, width), got.closed)


def check_crossings(weaving):
    """Every crossing has one over and one under strand, and they differ."""
    over, under = weaving.over_strand, weaving.under_strand
    assert over.keys() == under.keys()
    assert all(over[c] != under[c] for c in over)
    strands = range(len(weaving.strands))
    assert set(over.values()) <= set(strands)
    assert set(under.values()) <= set(strands)


# ---------------------------------------------------------------------------
# the array implementation against the frozen loop implementation
# ---------------------------------------------------------------------------

snub_specs = st.one_of(
    st.sampled_from(["pentagon", "pentaflower"]),
    st.integers(5, 8).map(lambda n: f"fan:{n}"),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda wh: f"grid:{wh[0]}x{wh[1]}"),
)


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(spec=snub_specs, seed=st.integers(0, 2**32 - 1),
           steps=st.integers(1, 4), flag=st.sampled_from([1, -1]),
           width=st.floats(0.05, 0.95))
    def test_snub_weave_matches_oracle(self, spec, seed, steps, flag, width):
        mesh = jittered(sw.generate_demo_mesh(spec), seed)
        try:
            hist, tiling, weaving = snub_weave(mesh, steps, flag)
        except NonManifoldError:
            # a coarse fan folds at depth 4: a snub defect, pinned here
            assert (spec, steps) == ("fan:5", 4)
            return
        prov = oracle_provenance(hist)
        want_tiling = ref.glue_snub_pairs(hist.final, prov)
        assert_same_tiling(tiling, want_tiling)
        want = ref.trace_snub_strands(want_tiling, prov)
        assert_same_weaving(weaving, want)
        # a tile's width is the mean of its edge lengths: the library adds
        # them in the face-sum order of ``mesh_core``, the oracle by
        # ``np.mean``, so the two may round apart in the last bits
        assert_same_ribbons(sw.strand_ribbons(weaving, tiling.mesh, width),
                            ref.strand_ribbons(want, want_tiling.mesh, width),
                            weaving.closed, width_ulp=4)

    @settings(max_examples=25, deadline=None)
    @given(w=st.integers(1, 5), h=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), mirror=st.booleans(),
           width=st.floats(0.05, 0.95))
    def test_classic_weaves_match_oracle(self, w, h, seed, mirror, width):
        cc = sw.catmull_clark_step(jittered(sw.square_grid(w, h), seed, 0.1))
        assert_same_quad_weave(cc.mesh, sw.catmull_clark_coloring(cc),
                               mirror, width)

        triangles, coloring = triangle_lattice(max(w, h), seed)
        s3 = sw.sqrt3_step(triangles)
        (tiling, s3_coloring), (want, want_coloring) = \
            sw.sqrt3_quadization(s3), \
            ref.sqrt3_quadization(cref.sqrt3_step(triangles))
        assert_same_tiling(tiling, want)
        assert_same_array(s3_coloring.is_c1, want_coloring.is_c1, "is_c1")
        assert_same_quad_weave(tiling.mesh, s3_coloring, mirror, width)

        loop = sw.loop_step(triangles)
        loop_coloring = sw.loop_color_update(coloring, loop)
        tiling = sw.glue_triangle_pairs(loop.mesh, loop_coloring)
        assert_same_tiling(tiling,
                           ref.glue_triangle_pairs(loop.mesh, loop_coloring))
        assert_same_quad_weave(tiling.mesh, loop_coloring, mirror, width)

        got, want = (sw.general_face_split_weaving(triangles),
                     ref.general_face_split_weaving(triangles))
        assert_same_tiling(got[0], want[0])
        # quad k covers interior edge k: the oracle records it, and the
        # quad's corners 0 and 2 are that edge's ends
        inner = np.flatnonzero(~triangles.boundary_edge_mask)
        assert_same_array(want[0].tile_source_edges, inner,
                          "tile_source_edges")
        assert_same_array(got[0].mesh.face_vertex_flat.reshape(-1, 4)[:, ::2],
                          triangles.edges[inner], "tile_source_edges")
        assert_same_weaving(got[2], want[2])
        assert_same_ribbons(sw.strand_ribbons(got[2], got[0].mesh, width),
                            ref.strand_ribbons(want[2], want[0].mesh, width),
                            got[2].closed)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_catmull_clark_fans_have_closed_strands(self, n):
        # the quads around a fan's centre close up into rings: 1, 2 and 4
        # of them after 1, 2 and 3 steps
        mesh = sw.fan_ngon(n)
        for steps, rings in enumerate((1, 2, 4), start=1):
            cc = sw.catmull_clark_step(mesh)
            mesh = cc.mesh
            coloring = sw.catmull_clark_coloring(cc)
            for mirror in (False, True):
                assert_same_quad_weave(mesh, coloring, mirror, 0.3)
            weaving = sw.quad_weaving(mesh, coloring)
            assert int(weaving.closed.sum()) == rings


# ---------------------------------------------------------------------------
# ranking strand walks
# ---------------------------------------------------------------------------

@st.composite
def walk_tables(draw):
    """Tile visits as ``(twin, opposite, order)`` tables: visits of two
    ports, lone ports that are their own opposite and have no twin (a
    quad weave's slots off the quads), and a random partial matching of
    the two-port visits' ports as twins, under random node ids and
    orders."""
    n_visits = draw(st.integers(0, 12))
    n_lone = draw(st.integers(0, 4))
    n = 2 * n_visits + n_lone
    opposite = [x ^ 1 for x in range(2 * n_visits)] \
        + list(range(2 * n_visits, n))
    ports = draw(st.permutations(range(2 * n_visits)))
    paired = 2 * draw(st.integers(0, n_visits))
    twin = [-1] * n
    for a, b in zip(ports[:paired:2], ports[1:paired:2]):
        twin[a], twin[b] = b, a
    label = draw(st.permutations(range(n)))
    new_twin, new_opposite = [0] * n, [0] * n
    for x in range(n):
        new_twin[label[x]] = label[twin[x]] if twin[x] >= 0 else -1
        new_opposite[label[x]] = label[opposite[x]]
    return new_twin, new_opposite, draw(st.permutations(range(n)))


def walks_by_loop(succ, rev, order):
    """Walk the table one step at a time, as the loop tracers did: open
    walks from their first node by order, then cycles from their lowest
    node; a step walked either way is not walked again, and a node that
    is its own reverse is no step."""
    key = [min(s, r) for s, r in enumerate(rev)]
    has_pred = set(succ) - {-1}
    visited = {s for s, r in enumerate(rev) if r == s}
    path, offsets, closed = [], [0], []
    starts = sorted((s for s in range(len(succ)) if s not in has_pred),
                    key=order.__getitem__)
    starts += sorted(range(len(succ)), key=order.__getitem__)
    for s in starts:
        if key[s] in visited:
            continue
        while s >= 0 and key[s] not in visited:
            visited.add(key[s])
            path.append(s)
            s = succ[s]
        closed.append(s >= 0)
        offsets.append(len(path))
    return path, offsets, closed


@settings(max_examples=200, deadline=None)
@given(table=walk_tables())
def test_rank_walks_matches_a_step_by_step_walk(table):
    """No snub weave tried (ten demo meshes at t=1..6, both seed flags)
    has a closed strand, so the snub trace's cycle path is covered only
    here; closed strands of a real weave are covered by
    ``test_catmull_clark_fans_have_closed_strands``."""
    twin, opposite, order = table
    path, offsets, closed = _rank_walks(
        np.array(twin, dtype=np.int64), np.array(opposite, dtype=np.int64),
        np.array(order, dtype=np.int64))
    succ = [twin[o] for o in opposite]
    assert (path.tolist(), offsets.tolist(), closed.tolist()) \
        == walks_by_loop(succ, opposite, order)


# ---------------------------------------------------------------------------
# invariants of the woven output
# ---------------------------------------------------------------------------

class TestInvariants:
    @pytest.mark.parametrize("spec", ["pentagon", "pentaflower", "grid:3x3",
                                      "fan:7"])
    def test_snub_crossings_and_tile_partition(self, spec):
        _, tiling, weaving = snub_weave(sw.generate_demo_mesh(spec), 3)
        check_crossings(weaving)
        tiles = sorted(t for s in weaving.strands for t in s.tiles)
        assert tiles == list(range(tiling.mesh.face_count))
        faces = tiling.tile_faces
        assert np.sort(faces[faces >= 0]).tolist() \
            == list(range(tiling.source.face_count))

    def test_tiles_follow_their_lowest_face(self):
        _, tiling, _ = snub_weave(sw.pentagon_flower(), 2)
        first, mate = tiling.tile_faces.T
        paired = mate >= 0
        assert (np.diff(first) > 0).all()
        assert (first[paired] < mate[paired]).all()
        src_sizes = tiling.source.face_sizes
        assert np.array_equal(
            tiling.mesh.face_sizes,
            src_sizes[first] + np.where(paired, src_sizes[mate] - 2, 0))

    def test_quad_strands_cover_each_quad_twice(self):
        cc = sw.catmull_clark_step(sw.pentagon_flower())
        weaving = sw.quad_weaving(cc.mesh, sw.catmull_clark_coloring(cc))
        check_crossings(weaving)
        visits = np.bincount([t for s in weaving.strands for t in s.tiles],
                             minlength=cc.mesh.face_count)
        assert (visits == 2).all()
        assert weaving.crossing_count() == cc.mesh.face_count

    @pytest.mark.parametrize("source", [sw.square_grid(3, 2),
                                        sw.pentagon_flower(), sw.fan_ngon(5)])
    def test_catmull_clark_coloring_is_proper(self, source):
        cc = sw.catmull_clark_step(source)
        is_c1 = sw.catmull_clark_coloring(cc).is_c1
        edges = cc.mesh.edges
        assert (is_c1[edges[:, 0]] != is_c1[edges[:, 1]]).all()

    def test_sqrt3_pairs_are_the_flipped_edges(self):
        triangles, _ = triangle_lattice(4, 0)
        step = sw.sqrt3_step(triangles)
        tiling, coloring = sw.sqrt3_quadization(step)
        V = triangles.vertex_count
        src = {frozenset((int(l), int(r))): e for e, (l, r) in enumerate(
            zip(triangles.edge_left, triangles.edge_right))}
        flipped = []
        for f, g in tiling.pairs:
            shared = set(step.mesh.face(f).tolist()) \
                & set(step.mesh.face(g).tolist())
            centers = sorted(v - V for v in shared if not coloring.is_c1[v])
            assert len(centers) == 2
            flipped.append(src[frozenset(centers)])
        assert sorted(flipped) == step.flipped_edges.tolist()

    def test_repeated_runs_are_identical(self):
        runs = []
        for _ in range(2):
            _, tiling, weaving = snub_weave(jittered(sw.pentagon(), 3), 3)
            runs.append((tiling, weaving,
                         sw.strand_ribbons(weaving, tiling.mesh, 0.3)))
        (t0, w0, r0), (t1, w1, r1) = runs
        assert_same_tiling(t0, t1)
        assert_same_weaving(w0, w1)
        assert_same_ribbons(r0, r1, w0.closed)

    @pytest.mark.parametrize("maker", [
        lambda: sw.square_grid(3, 2),
        lambda: sw.pentagon_flower(),
        lambda: sw.snub_subdivide(sw.pentagon(), 2).final,
    ])
    def test_face_split_has_one_crossing_per_interior_edge(self, maker):
        mesh = maker()
        tiling, _, weaving = sw.general_face_split_weaving(mesh)
        interior = int((~mesh.boundary_edge_mask).sum())
        assert weaving.crossing_count() == interior
        assert sorted(weaving.over_strand) == list(range(interior))
        check_crossings(weaving)


# ---------------------------------------------------------------------------
# triangle-pair gluing
# ---------------------------------------------------------------------------

def boundary_c2_triangles(mesh, coloring):
    """Faces whose ``c2``-``c2`` edge lies on the boundary, edge by edge."""
    is_c1 = coloring.is_c1.tolist()
    return sorted(max(int(mesh.edge_left[e]), int(mesh.edge_right[e]))
                  for e, (a, b) in enumerate(mesh.edges.tolist())
                  if not (is_c1[a] or is_c1[b])
                  and mesh.boundary_edge_mask[e])


def triangle_gluings():
    """Loop-refined lattices (one and two steps) and fans, with colorings."""
    for n in range(1, 5):
        triangles, coloring = triangle_lattice(n, n)
        for k in (1, 2):
            step = sw.loop_step(triangles)
            coloring = sw.loop_color_update(coloring, step)
            triangles = step.mesh
            yield pytest.param(triangles, coloring, id=f"lattice{n}-loop{k}")
    for n in (4, 6, 8):
        ring = np.arange(n + 1) % 2 == 0
        ring[n] = False     # the centre
        yield pytest.param(sw.fan_ngon(n), sw.VertexColoring(ring),
                           id=f"fan{n}-alternating-ring")
        yield pytest.param(sw.fan_ngon(n),
                           sw.VertexColoring(np.arange(n + 1) == n),
                           id=f"fan{n}-c1-centre")


class TestTriangleGluing:
    @pytest.mark.parametrize("mesh, coloring", list(triangle_gluings()))
    def test_singletons_are_the_boundary_c2_edge_triangles(self, mesh,
                                                           coloring):
        tiling = sw.glue_triangle_pairs(mesh, coloring)
        singletons = tiling.singletons.tolist()
        assert singletons == boundary_c2_triangles(mesh, coloring)
        assert 2 * len(tiling.pairs) + len(singletons) == mesh.face_count
        # the oracle's strict mode raises exactly when singletons are left
        try:
            ref.glue_triangle_pairs(mesh, coloring, strict=True)
            raised = False
        except ref.BoundaryC2EdgeError:
            raised = True
        assert raised == bool(singletons)


# ---------------------------------------------------------------------------
# breadth-first two-coloring of quad meshes
# ---------------------------------------------------------------------------

def quad_ring(n):
    """``n`` quads around an ``n``-gon hole: two-colorable exactly when
    ``n`` is even."""
    angle = 2 * np.pi * np.arange(n) / n
    rim = np.column_stack((np.cos(angle), np.sin(angle)))
    return sw.build_mesh(np.vstack((rim, 3 * rim)),
                         [[k, n + k, n + (k + 1) % n, (k + 1) % n]
                          for k in range(n)])


@st.composite
def quad_meshes(draw):
    """Grids, two grids side by side, Catmull-Clark steps of demo meshes and
    rings of quads (the odd ones not two-colorable), each renumbered by a
    drawn permutation."""
    kind = draw(st.sampled_from(["grid", "two grids", "catmull_clark",
                                 "ring"]))
    if kind == "ring":
        mesh = quad_ring(draw(st.integers(3, 9)))
    elif kind == "catmull_clark":
        spec = draw(st.sampled_from(["pentagon", "pentaflower", "ngon:7",
                                     "fan:5", "grid:3x2"]))
        mesh = sw.catmull_clark_step(sw.generate_demo_mesh(spec)).mesh
    else:
        mesh = sw.square_grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        if kind == "two grids":
            other = sw.square_grid(draw(st.integers(1, 4)),
                                   draw(st.integers(1, 4)))
            moved = other.positions + [mesh.positions[:, 0].max() + 2.0, 0.0]
            mesh = sw.build_mesh(
                np.vstack((mesh.positions, moved)),
                mesh.faces + [tuple(v + mesh.vertex_count for v in face)
                              for face in other.faces])
    perm = np.array(draw(st.permutations(range(mesh.vertex_count))))
    return relabelled(mesh, perm)


class TestTwoColorVertices:
    @settings(max_examples=60, deadline=None)
    @given(mesh=quad_meshes())
    def test_matches_the_breadth_first_oracle(self, mesh):
        # the same coloring, or the same odd cycle named
        def outcome(color):
            try:
                return "returned", color(mesh).is_c1
            except NotBipartiteError as exc:
                return "raised", str(exc)

        got, want = outcome(sw.two_color_vertices), outcome(
            ref.two_color_vertices)
        assert got[0] == want[0]
        if got[0] == "returned":
            assert_same_array(got[1], want[1], "is_c1")
        else:
            assert got == want

    def test_grid_coloring_is_proper_and_starts_each_component_at_c1(self):
        grid = sw.square_grid(3, 2)
        # a second component: a lone quad on vertices 12..15
        apart = sw.build_mesh(
            np.vstack((grid.positions, [[5, 0], [6, 0], [6, 1], [5, 1]])),
            grid.faces + [(12, 13, 14, 15)])
        for mesh, lowest in ((grid, [0]), (apart, [0, 12])):
            is_c1 = sw.two_color_vertices(mesh).is_c1
            edges = mesh.edges
            assert (is_c1[edges[:, 0]] != is_c1[edges[:, 1]]).all()
            assert is_c1[lowest].all()

    def test_agrees_with_catmull_clark_coloring_up_to_swap(self):
        cc = sw.catmull_clark_step(sw.pentagon_flower())
        got = sw.two_color_vertices(cc.mesh).is_c1
        want = sw.catmull_clark_coloring(cc)
        assert (np.array_equal(got, want.is_c1)
                or np.array_equal(got, want.swapped().is_c1))

    def test_rejects_a_mesh_that_is_not_all_quads(self):
        with pytest.raises(InvalidParameterError):
            sw.two_color_vertices(sw.pentagon_flower())

    def test_odd_cycle_is_not_bipartite(self):
        # three quads around a triangular hole: the hole's rim is a 3-cycle
        ring = sw.build_mesh(
            [(0, 1), (-0.87, -0.5), (0.87, -0.5),
             (0, 3), (-2.6, -1.5), (2.6, -1.5)],
            [[0, 3, 4, 1], [1, 4, 5, 2], [2, 5, 3, 0]])
        with pytest.raises(NotBipartiteError,
                           match="^odd cycle: vertices 1 and 2 are adjacent "
                                 "but were assigned the same color$"):
            sw.two_color_vertices(ring)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

class TestErrors:
    def test_missing_provenance(self):
        # no record, or one of no snub step: the final mesh's own counts
        hist = sw.snub_subdivide(sw.pentagon(), 1)
        mesh, prov = hist.final, hist.records[0].provenance
        unrefined = Provenance(16, 20, 5)
        for record in (None, unrefined):
            with pytest.raises(InvalidParameterError,
                               match=rf"^{re.escape(repr(record))} does not "
                                     r"describe the snub step that made "
                                     r"Mesh\(V=16, E=20, F=5\) \(the record "
                                     r"of another step\?\)$"):
                sw.glue_snub_pairs(mesh, record)
        tiling = sw.glue_snub_pairs(mesh, prov)
        with pytest.raises(InvalidParameterError,
                           match="^None does not describe the snub step"):
            sw.trace_snub_strands(tiling, None)

    def test_tags_of_another_step_are_invalid(self):
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        first, last = (r.provenance for r in hist.records)
        # an earlier step's counts do not give the final mesh's
        with pytest.raises(InvalidParameterError,
                           match=r"^Provenance\(vertex_count=5, edge_count=5, "
                                 r"face_count=1\) does not describe the snub "
                                 r"step that made Mesh\(V=61, E=85, F=25\) "
                                 r"\(the record of another step\?\)$"):
            sw.glue_snub_pairs(hist.final, first)
        tiling = sw.glue_snub_pairs(hist.final, last)
        with pytest.raises(InvalidParameterError,
                           match=r"^Provenance\(vertex_count=5, edge_count=5, "
                                 r"face_count=1\) does not describe"):
            sw.trace_snub_strands(tiling, first)
        # nor a later step's an earlier mesh's
        with pytest.raises(InvalidParameterError,
                           match=r"^Provenance\(vertex_count=16, "
                                 r"edge_count=20, face_count=5\) does not "
                                 r"describe the snub step that made "
                                 r"Mesh\(V=16, E=20, F=5\)"):
            sw.glue_snub_pairs(hist.meshes[1], last)

    def test_face_with_two_middle_edges(self):
        # swapping source vertex 1 and bend point 22 turns face 2 = (56,
        # 21, 20, 1, 22) into (56, 21, 20, 22, 1): its outer segment
        # (1, 20) becomes (20, 22), which joins two bend points, so the
        # numbering reads it as a second middle edge
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        mesh = hist.final
        assert mesh.face(2).tolist() == [56, 21, 20, 1, 22]
        perm = np.arange(mesh.vertex_count)
        perm[[1, 22]] = [22, 1]
        with pytest.raises(InvalidParameterError,
                           match=r"^face 2 has 2 bend-middle edges by the "
                                 r"snub step's numbering, expected 1 \(a mesh "
                                 r"numbered otherwise\?\)$"):
            sw.glue_snub_pairs(relabelled(mesh, perm),
                               hist.records[-1].provenance)

    @pytest.mark.parametrize("spec", ["pentagon", "pentaflower", "grid:2x2",
                                      "fan:6"])
    def test_relabelled_mesh_with_its_record_is_invalid(self, spec):
        # right counts, wrong numbering: an input error, not a broken
        # internal invariant, whichever the permutation
        hist = sw.snub_subdivide(sw.generate_demo_mesh(spec), 2)
        prov = hist.records[-1].provenance
        n = hist.final.vertex_count
        for perm in (np.arange(n)[::-1].copy(),
                     np.random.default_rng(0).permutation(n)):
            with pytest.raises(InvalidParameterError,
                               match="bend-middle edges by the snub step's "
                                     "numbering"):
                sw.glue_snub_pairs(relabelled(hist.final, perm), prov)

    def test_middles_that_are_not_bend_pairs_are_invalid(self):
        # swapping the first bend points of source edges 0 and 1 keeps one
        # middle edge per face, but the middle (16, 17) becomes (18, 17)
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        perm = np.arange(hist.final.vertex_count)
        perm[[16, 18]] = [18, 16]
        with pytest.raises(InvalidParameterError,
                           match=r"^the middle edges are not the 20 bend "
                                 r"pairs \(V \+ 2e, V \+ 2e \+ 1\) for "
                                 r"V = 16 \(a mesh numbered otherwise\?\)$"):
            sw.glue_snub_pairs(relabelled(hist.final, perm),
                               hist.records[-1].provenance)

    @pytest.mark.parametrize("vertex, message", [
        (0, "face 0 designates vertex 0, not a bend point of another middle "
            "edge"),
        (38, "face 0 designates vertex 38, not a bend point of another "
             "middle edge"),
        (21, "bend point 21 is designated by 2 faces, expected 1")])
    def test_designated_bends_follow_the_numbering(self, vertex, message):
        # face 0 = (56, 39, 38, 5, 36) designates 36, three slots after its
        # middle (38, 39); face 1 designates 21.  The table reads only the
        # cycles and the edge table, so a mesh whose cycles say otherwise
        # is built here by the constructor, which trusts its arguments
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        mesh = hist.final
        assert mesh.face(0).tolist() == [56, 39, 38, 5, 36]
        flat = mesh.face_vertex_flat.copy()
        flat[4] = vertex
        odd = sw.Mesh(mesh.positions, flat, mesh.face_starts, mesh.edges,
                      mesh.edge_left, mesh.edge_right, mesh.face_edge_flat)
        with pytest.raises(InvalidParameterError,
                           match=rf"^{re.escape(message)} \(a mesh numbered "
                                 r"otherwise\?\)$"):
            sw.glue_snub_pairs(odd, hist.records[-1].provenance)

    def test_tile_designating_both_ends_of_a_middle(self):
        # tile 0 glues faces 0 and 24; faces 3 and 9 designate the two bend
        # points of middle edge 72 = (46, 47).  Swapping each tile face's
        # designated vertex (its last slot here) with theirs leaves every
        # bend point designated once, so the numbering's checks pass, but
        # a strand entering tile 0 would hop across 72 back into it
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        mesh, prov = hist.final, hist.records[-1].provenance
        tiling = sw.glue_snub_pairs(mesh, prov)
        assert tiling.tile_faces[0].tolist() == [0, 24]
        assert mesh.edges[72].tolist() == [46, 47]
        assert [mesh.face(f).tolist() for f in (0, 24, 3, 9)] == [
            [56, 39, 38, 5, 36], [60, 38, 39, 15, 43],
            [56, 22, 23, 9, 46], [57, 50, 51, 15, 47]]
        flat = mesh.face_vertex_flat.copy()
        for f, g in ((0, 3), (24, 9)):
            flat[[5 * f + 4, 5 * g + 4]] = flat[[5 * g + 4, 5 * f + 4]]
        odd = sw.Mesh(mesh.positions, flat, mesh.face_starts, mesh.edges,
                      mesh.edge_left, mesh.edge_right, mesh.face_edge_flat)
        with pytest.raises(InvalidParameterError,
                           match=r"^tile 0 designates both bend points of "
                                 r"middle edge 72 \(a mesh numbered "
                                 r"otherwise\?\)$"):
            sw.trace_snub_strands(dataclasses.replace(tiling, source=odd),
                                  prov)

    def test_quad_weaving_needs_a_quad(self):
        fan = sw.fan_ngon(5)
        with pytest.raises(InvalidParameterError,
                           match="^mesh has no quad faces to weave$"):
            sw.quad_weaving(fan, sw.VertexColoring(np.zeros(6, dtype=bool)))

    def test_tile_repeating_a_vertex_fails_as_build_mesh_does(self):
        # faces 0 and 1 share the middle edge (0, 1) and also vertex 3, so
        # their glued cycle visits 3 twice; faces 2 and 3 fill the hole
        # between them and share the middle edge (1, 3).  No snub step
        # numbers a mesh so, so the library glues through _glue_across,
        # which hands _build_tiling the same one glue edge per face that
        # glue_snub_pairs hands it
        mesh = sw.build_mesh(
            [(0, 0), (1, 0), (2, 0.5), (3, 0), (1.5, 2), (1.5, -2),
             (2, -0.5)],
            [[0, 1, 2, 3, 4], [1, 0, 5, 3, 6], [1, 6, 3], [1, 3, 2]])
        middles = mesh.edge_id([0, 1], [1, 3])
        tags = np.full(mesh.edge_count, ref.EdgeTag.Z_OUTER, dtype=np.int8)
        tags[middles] = ref.EdgeTag.Z_MIDDLE
        with pytest.raises(sw.DegenerateFaceError) as got:
            _glue_across(mesh, middles)
        with pytest.raises(sw.DegenerateFaceError) as want:
            ref.glue_snub_pairs(mesh, ref.Provenance(tags))
        assert str(got.value) == str(want.value) == "face 0 repeats vertex 3"

    def test_repeated_vertex_rejected_on_the_gluing_path_only(self):
        # the tile of faces 0 and 1, glued across (0, 3), visits vertex 1,
        # which both faces hold, twice; the gluing rejects that cycle, where
        # _direct_mesh, given known cycles, stops a zero-area cycle
        # (0, 1, 2, 1) at its area
        mesh = sw.build_mesh(
            [(0, 0), (3, 0), (2, 0.5), (1, 0), (1.5, 2), (1.5, -2),
             (2, -0.5)],
            [[0, 3, 2, 1, 4], [3, 0, 5, 1, 6], [3, 6, 1], [3, 1, 2]])
        with pytest.raises(sw.DegenerateFaceError,
                           match="^face 0 repeats vertex 1$"):
            _glue_across(mesh, mesh.edge_id([0, 1], [3, 3]))
        with pytest.raises(sw.DegenerateFaceError,
                           match="^face 0 has zero area$"):
            _direct_mesh(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),
                         np.array([0, 1, 2, 1]), np.array([0, 4]),
                         np.array([(0, 1), (1, 2)]), np.array([0, 1, 1, 0]))

    @pytest.mark.parametrize("case", ["glued across a spoke",
                                      "a middle left unglued",
                                      "a face in two tiles"])
    def test_tiling_glue_snub_pairs_did_not_make(self, case):
        # tilings of the right mesh and record, but other tiles: input
        # errors, not broken internal invariants
        hist = sw.snub_subdivide(sw.pentagon(), 2)
        mesh, prov = hist.final, hist.records[-1].provenance
        tiling = sw.glue_snub_pairs(mesh, prov)
        tags = snub_edge_tags(mesh, prov)
        middles = np.flatnonzero(tags == ref.EdgeTag.Z_MIDDLE)
        inner = np.flatnonzero(~mesh.boundary_edge_mask)
        if case == "glued across a spoke":
            spokes = np.flatnonzero(tags == ref.EdgeTag.SPOKE)
            tiling = _glue_across(mesh, np.intersect1d(spokes, inner)[:1])
        elif case == "a middle left unglued":
            tiling = _glue_across(mesh, np.setdiff1d(
                middles, np.intersect1d(middles, inner)[:1]))
        else:
            faces = tiling.tile_faces.copy()
            faces[1] = faces[0]
            tiling = dataclasses.replace(tiling, tile_faces=faces)
        with pytest.raises(InvalidParameterError,
                           match=r"\(a tiling glue_snub_pairs did not "
                                 r"make\?\)$"):
            sw.trace_snub_strands(tiling, prov)

    def test_not_bipartite_names_the_lowest_edge(self):
        mesh = sw.square_grid(3, 3)
        coloring = sw.VertexColoring(
            np.random.default_rng(1).random(mesh.vertex_count) < 0.5)
        with pytest.raises(NotBipartiteError) as got:
            sw.quad_weaving(mesh, coloring)
        with pytest.raises(NotBipartiteError) as want:
            ref.quad_weaving(mesh, coloring)
        assert str(got.value) == str(want.value)

    def test_triangle_coloring_check_messages(self):
        fan = sw.fan_ngon(6)
        with pytest.raises(InvalidTriangleColoringError,
                           match=r"^face 0 has 0 c1 vertices "
                                 r"\(needs exactly 1\)$"):
            sw.triangle_coloring_check(
                fan, sw.VertexColoring(np.zeros(7, dtype=bool)))
        with pytest.raises(InvalidParameterError,
                           match="^coloring covers 3 vertices, mesh has 7$"):
            sw.triangle_coloring_check(
                fan, sw.VertexColoring(np.zeros(3, dtype=bool)))
        with pytest.raises(NotTriangleMeshError):
            sw.triangle_coloring_check(sw.square_grid(1, 1), sw.VertexColoring(
                np.zeros(4, dtype=bool)))
        # the gluing and the quad weave read colorings by the same check;
        # None leaked AttributeError from all three
        grid = sw.square_grid(2, 1)
        for call in (lambda c: sw.triangle_coloring_check(fan, c),
                     lambda c: sw.glue_triangle_pairs(fan, c),
                     lambda c: sw.quad_weaving(grid, c)):
            with pytest.raises(InvalidParameterError,
                               match="^expected a VertexColoring, got "
                                     "NoneType$"):
                call(None)
        with pytest.raises(InvalidParameterError,
                           match="^coloring covers 3 vertices, mesh has 6$"):
            sw.quad_weaving(grid, sw.VertexColoring(np.zeros(3, dtype=bool)))

    def test_loop_color_update_messages(self):
        fan = sw.fan_ngon(6)
        center = sw.VertexColoring(np.arange(7) == 6)
        with pytest.raises(InvalidParameterError,
                           match="^loop_color_update needs a loop_step or "
                                 "butterfly_step result, got a sqrt3_step "
                                 "result$"):
            sw.loop_color_update(center, sw.sqrt3_step(fan))
        with pytest.raises(InvalidParameterError,
                           match="^coloring covers 3 vertices, source mesh "
                                 "has 7$"):
            sw.loop_color_update(sw.VertexColoring(np.zeros(3, dtype=bool)),
                                 sw.loop_step(fan))
        with pytest.raises(InvalidParameterError,
                           match="^expected a VertexColoring, got NoneType$"):
            sw.loop_color_update(None, sw.loop_step(fan))
        # all c2: every edge vertex turns c1, so corner triangles get two
        with pytest.raises(InvalidTriangleColoringError,
                           match=r"^face 0 has 2 c1 vertices"):
            sw.loop_color_update(sw.VertexColoring(np.zeros(7, dtype=bool)),
                                 sw.loop_step(fan))

    def test_face_split_needs_an_interior_edge(self):
        with pytest.raises(NoInteriorEdgesError,
                           match="needs at least one interior edge"):
            sw.general_face_split_weaving(sw.ngon(3))

    def test_sqrt3_quadization_rejects_other_steps(self):
        # a Loop step's edge vertices are not face centres
        with pytest.raises(InvalidParameterError,
                           match="^sqrt3_quadization needs a sqrt3_step "
                                 "result, got a loop_step result$"):
            sw.sqrt3_quadization(sw.loop_step(sw.fan_ngon(5)))

    @pytest.mark.parametrize("scheme", ["loop", "butterfly", "sqrt3",
                                        "midedge", "catmull_clark",
                                        "doo_sabin", None])
    def test_classic_readers_reject_other_schemes(self, scheme):
        # each reader names the step it needs; the one a catmull_clark
        # coloring of a Loop step gave before had 10 c1 vertices of 16, and
        # None leaked AttributeError
        if scheme is None:
            step, got = None, "NoneType"
        else:
            step = getattr(sw, f"{scheme}_step")(sw.fan_ngon(5))
            assert step.scheme == scheme
            got = f"a {scheme}_step result"
        coloring = sw.VertexColoring(np.arange(6) == 5)
        readers = (
            ("catmull_clark_coloring", ("catmull_clark",),
             lambda: sw.catmull_clark_coloring(step)),
            ("loop_color_update", ("loop", "butterfly"),
             lambda: sw.loop_color_update(coloring, step)),
            ("sqrt3_quadization", ("sqrt3",),
             lambda: sw.sqrt3_quadization(step)))
        for reader, needed, call in readers:
            if scheme in needed:
                call()
                continue
            names = " or ".join(f"{name}_step" for name in needed)
            with pytest.raises(InvalidParameterError,
                               match=f"^{reader} needs a {names} result, "
                                     f"got {got}$"):
                call()

    def test_snub_ribbons_need_the_tiling(self):
        # the crossing ids name middle edges of the refined mesh under the
        # tiling, so the tiling mesh cannot stand in for it
        _, tiling, weaving = snub_weave(sw.pentagon(), 3)
        with pytest.raises(InvalidParameterError,
                           match="^a snub weaving needs the glued tiling"):
            sw.strand_ribbons(dataclasses.replace(weaving, tiling=None),
                              tiling.mesh, 0.3)

    def test_ribbons_need_the_mesh_the_weave_was_traced_on(self):
        # a snub weave's tiling mesh, or a mesh equal to it, draws the same
        # ribbons; the refined mesh under the tiling and the one before it
        # drew wrong centerlines or raised numpy's IndexError
        hist, tiling, weaving = snub_weave(sw.pentagon(), 3)
        want = sw.strand_ribbons(weaving, tiling.mesh, 0.3)
        copy = sw.Mesh(*(getattr(tiling.mesh, n).copy() for n in MESH_ARRAYS))
        assert_same_ribbons(sw.strand_ribbons(weaving, copy, 0.3), want,
                            weaving.closed)
        for mesh in (hist.final, hist.meshes[-2]):
            with pytest.raises(InvalidParameterError,
                               match="^a snub weaving's ribbons are drawn "
                                     "on the mesh of the tiling"):
                sw.strand_ribbons(weaving, mesh, 0.3)
        # a quad weave on its source grid (IndexError before) and on a
        # larger quad mesh (wrong centerlines before)
        cc = sw.catmull_clark_step(sw.square_grid(3, 3))
        weaving = sw.quad_weaving(cc.mesh, sw.catmull_clark_coloring(cc))
        sw.strand_ribbons(weaving, cc.mesh, 0.3)
        for mesh in (cc.source, sw.catmull_clark_step(sw.square_grid(5, 5))
                     .mesh):
            with pytest.raises(InvalidParameterError,
                               match=r"^tile visit \d+ passes through an "
                                     r"edge that does not border tile \d+ "
                                     r"in this mesh"):
                sw.strand_ribbons(weaving, mesh, 0.3)

    @pytest.mark.parametrize("width", [0.0, 1.0, -0.2, 1.5, "0.3", None])
    def test_width_fraction_outside_unit_interval(self, width):
        _, tiling, weaving = snub_weave(sw.pentagon(), 1)
        with pytest.raises(InvalidParameterError):
            sw.strand_ribbons(weaving, tiling.mesh, width)
