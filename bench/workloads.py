"""The benchmark workloads and the known-defect probe: seeded inputs, checks.

Every workload builds its inputs from a ``numpy`` generator seeded by the
benchmark's ``--seed``; the library sees only the generated meshes.  An op
is one call of the workload's pipeline on one input.  ``check`` verifies an
op's output independently of the library's own code paths (it reads the
mesh arrays directly) and returns a digest of the op's output meshes, which
must be identical every time the same input is run.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Boundary length growth per snub step (each edge becomes three segments
#: of 1/sqrt(7) of its length) and the dimension that growth implies.
LENGTH_FACTOR = 3.0 / math.sqrt(7.0)
BOUNDARY_DIMENSION = math.log(3.0) / math.log(math.sqrt(7.0))


class CheckFailed(Exception):
    """An op produced output that violates a property it must have."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# mesh properties read straight from the arrays
# ---------------------------------------------------------------------------

def signed_areas(mesh) -> np.ndarray:
    flat, starts = mesh.face_vertex_flat, mesh.face_starts
    nxt = np.arange(1, len(flat) + 1)
    nxt[starts[1:] - 1] = starts[:-1]
    p = mesh.positions[flat]
    q = mesh.positions[flat[nxt]]
    return 0.5 * np.add.reduceat(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1],
                                 starts[:-1])


def boundary_mask(mesh) -> np.ndarray:
    return (mesh.edge_left < 0) | (mesh.edge_right < 0)


def boundary_length(mesh) -> float:
    e = mesh.edges[boundary_mask(mesh)]
    d = mesh.positions[e[:, 1]] - mesh.positions[e[:, 0]]
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def inner_vertex_count(mesh) -> int:
    has_edge = np.zeros(len(mesh.positions), dtype=bool)
    has_edge[mesh.edges.ravel()] = True
    on_boundary = np.zeros_like(has_edge)
    on_boundary[mesh.edges[boundary_mask(mesh)].ravel()] = True
    return int((has_edge & ~on_boundary).sum())


def counts(mesh) -> tuple[int, int, int]:
    return len(mesh.positions), len(mesh.edges), len(mesh.face_starts) - 1


def check_disc(mesh, what: str) -> None:
    """Euler characteristic 1 and every face counterclockwise."""
    v, e, f = counts(mesh)
    require(v - e + f == 1, f"{what}: Euler characteristic {v - e + f}, not 1")
    require((signed_areas(mesh) > 0.0).all(),
            f"{what}: a face is not counterclockwise")


def digest(meshes) -> str:
    """Hash of the fields ``Mesh.__eq__`` compares, for every mesh given."""
    h = hashlib.blake2b(digest_size=16)
    for mesh in meshes:
        for a in (mesh.positions, mesh.face_starts, mesh.face_vertex_flat):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_history(history, steps: int) -> None:
    """Count recursion at every step, discs throughout, boundary growth."""
    meshes = history.meshes
    require(len(meshes) == steps + 1,
            f"history holds {len(meshes)} meshes for {steps} steps")
    for t, (src, out) in enumerate(zip(meshes, meshes[1:]), start=1):
        v, e, f = counts(src)
        sum_n = len(src.face_vertex_flat)
        require(counts(out) == (v + 2 * e + f, 3 * e + sum_n, sum_n),
                f"step {t}: counts {counts(out)} break the recursion")
        grown = boundary_length(out) / boundary_length(src)
        require(abs(grown / LENGTH_FACTOR - 1.0) < 1e-9,
                f"step {t}: boundary grew by {grown}, not 3/sqrt(7)")
    for t, mesh in enumerate(meshes):
        check_disc(mesh, f"step {t}")


def check_crossings(weaving, expected=None) -> None:
    """Every crossing has one over and one under strand, and they differ."""
    over, under = weaving.over_strand, weaving.under_strand
    require(over.keys() == under.keys(),
            "over and under records name different crossings")
    require(all(over[c] != under[c] for c in over),
            "a strand crosses over itself")
    if expected is not None:
        require(set(over) == set(expected),
                "crossings do not match the faces they should cover")


def check_snub_weave(tiling, weaving, ribbons) -> None:
    require(2 * len(tiling.pairs) + len(tiling.singletons)
            == len(tiling.source.face_starts) - 1,
            "glued pairs and singletons do not cover the refined faces")
    tiles = sorted(t for s in weaving.strands for t in s.tiles)
    require(tiles == list(range(len(tiling.mesh.face_starts) - 1)),
            "strand tiles do not partition the tiling")
    check_crossings(weaving)
    require(len(ribbons) == len(weaving.strands),
            f"{len(ribbons)} ribbons for {len(weaving.strands)} strands")


def quad_ids(mesh) -> np.ndarray:
    return np.flatnonzero(np.diff(mesh.face_starts) == 4)


def jittered(lib, mesh, rng, amount: float):
    """``mesh`` with every vertex moved by up to ``amount`` edge lengths."""
    d = mesh.positions[mesh.edges[:, 1]] - mesh.positions[mesh.edges[:, 0]]
    scale = float(np.median(np.hypot(d[:, 0], d[:, 1])))
    moved = mesh.positions + rng.uniform(-amount, amount,
                                         mesh.positions.shape) * scale
    return lib.mesh_core.build_mesh(moved, mesh.faces)


def edge_count_after(mesh, steps: int) -> int:
    """Edges after ``steps`` snub steps, from the count recursion."""
    e, sum_n = len(mesh.edges), len(mesh.face_vertex_flat)
    for _ in range(steps):
        e, sum_n = 3 * e + sum_n, 5 * sum_n
    return e


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class DeepRefine:
    """Snub a jittered convex pentagon to t=8, then analyse its fractal."""

    name = "deep_refine"

    def items(self, lib, rng, warm: bool) -> list:
        steps = 3 if warm else 8
        base = lib.mesh_core.pentagon()
        mesh = jittered(lib, base, rng, 0.04)
        start = max(steps - 3, 0)
        edges = edge_count_after(mesh, start)
        seeds = np.sort(rng.choice(edges, min(8, edges), replace=False))
        return [dict(mesh=mesh, steps=steps, start=start,
                     seeds=seeds.tolist(), resolution=64 if warm else 1024)]

    def run(self, lib, item):
        fractal = lib.fractal
        history = lib.snub.snub_subdivide(item["mesh"], item["steps"])
        lengths = fractal.boundary_lengths(history)
        dimension = fractal.estimate_fractal_dimension(lengths)
        raster = fractal.first_hit_raster(history, item["resolution"])
        curves = fractal.track_inner_curves(history, item["seeds"],
                                            start_step=item["start"])
        _, polyline = fractal.lsystem_expand(item["steps"])
        box = fractal.box_counting_dimension(polyline)
        return dict(history=history, lengths=lengths, dimension=dimension,
                    raster=raster, curves=curves, box=box)

    def check(self, item, out) -> str:
        history = out["history"]
        check_history(history, item["steps"])
        mine = [boundary_length(m) for m in history.meshes]
        require(np.allclose(out["lengths"], mine, rtol=1e-12, atol=0.0),
                "boundary_lengths disagrees with the mesh boundary")
        require(abs(out["dimension"].dimension - BOUNDARY_DIMENSION) < 1e-6,
                f"fractal dimension {out['dimension'].dimension}")
        require(abs(out["box"].dimension - BOUNDARY_DIMENSION) < 0.05,
                f"box-counting dimension {out['box'].dimension}")
        raster = out["raster"]
        require(int(raster.pixel_counts.sum())
                == int((raster.step_index >= 0).sum()),
                "raster pixel counts do not match the step image")
        for curve in out["curves"].curves:
            sizes = [len(p) for p in curve.vertex_paths]
            require(all(b == 3 * a - 2 for a, b in zip(sizes, sizes[1:])),
                    f"curve from edge {curve.seed_edge} did not triple")
        return digest([history.final])

    def faces_out(self, out) -> int:
        return len(out["history"].final.face_starts) - 1


def snub_weave(lib, item) -> dict:
    """Snub ``item["mesh"]`` ``item["steps"]`` times; glue, trace, ribbon."""
    weaving = lib.weaving
    history = lib.snub.snub_subdivide(item["mesh"], item["steps"])
    provenance = history.records[-1].provenance
    tiling = weaving.glue_snub_pairs(history.final, provenance)
    woven = weaving.trace_snub_strands(tiling, provenance)
    ribbons = weaving.strand_ribbons(woven, tiling.mesh, 0.3)
    return dict(history=history, tiling=tiling, weaving=woven,
                ribbons=ribbons)


class Weave:
    """Snub weave at t=6 plus the face-split weave of the t=5 mesh."""

    def items(self, lib, rng, warm: bool) -> list:
        mesh = jittered(lib, lib.mesh_core.pentagon(), rng, 0.04)
        return [dict(mesh=mesh, steps=3 if warm else 6)]

    def run(self, lib, item):
        out = snub_weave(lib, item)
        out["split"] = lib.weaving.general_face_split_weaving(
            out["history"].meshes[-2])
        return out

    def check(self, item, out) -> str:
        check_history(out["history"], item["steps"])
        check_snub_weave(out["tiling"], out["weaving"], out["ribbons"])
        split_tiling, _, split_weaving = out["split"]
        source = out["history"].meshes[-2]
        require(split_weaving.crossing_count()
                == int((~boundary_mask(source)).sum()),
                "face-split weave needs one crossing per interior edge")
        check_crossings(split_weaving, quad_ids(split_tiling.mesh))
        return digest([out["history"].final, out["tiling"].mesh,
                       split_tiling.mesh])

    def faces_out(self, out) -> int:
        return (len(out["tiling"].mesh.face_starts) - 1
                + len(out["split"][0].mesh.face_starts) - 1)


def triangle_grid(lib, n: int, rng):
    """Jittered n x n grid of squares split along one diagonal.

    It is a patch of the regular triangular lattice, so colouring vertex
    ``(x, y)`` by ``(x + y) % 3 == 0`` gives every triangle exactly one
    ``c1`` vertex, the input ``loop_color_update`` needs.
    """
    xs, ys = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    points = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)
    points += rng.uniform(-0.15, 0.15, points.shape)
    faces = []
    for y in range(n):
        for x in range(n):
            a, b = y * (n + 1) + x, y * (n + 1) + x + 1
            c, d = b + n + 1, a + n + 1
            faces += [[a, b, c], [a, c, d]]
    mesh = lib.mesh_core.build_mesh(points, faces)
    return mesh, lib.weaving.VertexColoring((xs.ravel() + ys.ravel()) % 3 == 0)


def expected_counts(scheme: str, mesh) -> tuple[int, int, int]:
    """Element counts one step of ``scheme`` must produce from ``mesh``."""
    v, e, f = counts(mesh)
    sum_n = len(mesh.face_vertex_flat)
    e_boundary = int(boundary_mask(mesh).sum())
    return {
        "loop": (v + e, 2 * e + 3 * f, 4 * f),
        "butterfly": (v + e, 2 * e + 3 * f, 4 * f),
        "sqrt3": (v + f, e + 3 * f, 2 * (e - e_boundary) + e_boundary),
        "midedge": (e, sum_n, f + inner_vertex_count(mesh)),
        "catmull_clark": (v + e + f, 2 * e + sum_n, sum_n),
    }[scheme]


class Classic:
    """All six comparison schemes and the three colour-transport weaves."""

    def items(self, lib, rng, warm: bool) -> list:
        n = 4 if warm else 56
        triangles, coloring = triangle_grid(lib, n, rng)
        quads = jittered(lib, lib.mesh_core.square_grid(n, n), rng, 0.15)
        return [dict(triangles=triangles, coloring=coloring, quads=quads)]

    def run(self, lib, item):
        cs, weaving = lib.classic_schemes, lib.weaving
        tri = item["triangles"]
        steps = dict(loop=cs.loop_step(tri), butterfly=cs.butterfly_step(tri),
                     sqrt3=cs.sqrt3_step(tri), midedge=cs.midedge_step(tri),
                     doo_sabin=cs.doo_sabin_step(tri),
                     catmull_clark=cs.catmull_clark_step(item["quads"]))
        cc = steps["catmull_clark"]
        cc_weave = weaving.quad_weaving(cc.mesh,
                                        weaving.catmull_clark_coloring(cc))
        s3_tiling, s3_coloring = weaving.sqrt3_quadization(steps["sqrt3"])
        s3_weave = weaving.quad_weaving(s3_tiling.mesh, s3_coloring)
        loop_coloring = weaving.loop_color_update(item["coloring"],
                                                  steps["loop"])
        loop_tiling = weaving.glue_triangle_pairs(steps["loop"].mesh,
                                                  loop_coloring)
        loop_weave = weaving.quad_weaving(loop_tiling.mesh, loop_coloring)
        return dict(steps=steps,
                    weaves=[(cc.mesh, cc_weave), (s3_tiling.mesh, s3_weave),
                            (loop_tiling.mesh, loop_weave)],
                    tilings=[s3_tiling, loop_tiling])

    def check(self, item, out) -> str:
        steps = out["steps"]
        for scheme, step in steps.items():
            if scheme == "doo_sabin":
                middle = step.intermediate.mesh
                require(counts(middle)
                        == expected_counts("midedge", step.source),
                        "doo_sabin: first mid-edge step breaks its counts")
                expect = expected_counts("midedge", middle)
            else:
                expect = expected_counts(scheme, step.source)
            require(counts(step.mesh) == expect,
                    f"{scheme}: counts {counts(step.mesh)}, expected {expect}")
            require((signed_areas(step.mesh) > 0.0).all(),
                    f"{scheme}: a face is not counterclockwise")
        require(len(out["tilings"][0].pairs)
                == len(steps["sqrt3"].flipped_edges),
                "sqrt3 quadization: one quad per flipped edge")
        for mesh, weave in out["weaves"]:
            check_crossings(weave, quad_ids(mesh))
        return digest([s.mesh for s in steps.values()]
                      + [t.mesh for t in out["tilings"]])

    def faces_out(self, out) -> int:
        return (sum(len(s.mesh.face_starts) - 1 for s in out["steps"].values())
                + sum(len(t.mesh.face_starts) - 1 for t in out["tilings"]))


class Weaves:
    """Every weave the paper compares, in one op: the snub and face-split
    weaves of :class:`Weave`, then the classic schemes and their weaves of
    :class:`Classic`.

    One workload rather than two, so that within the benchmark's total time
    limit each run is long enough to average out slow swings in the speed
    of a shared host.
    """

    name = "weaves"
    parts = (Weave(), Classic())

    def items(self, lib, rng, warm: bool) -> list:
        return [tuple(part.items(lib, rng, warm)[0] for part in self.parts)]

    def run(self, lib, item):
        return tuple(part.run(lib, one) for part, one in zip(self.parts, item))

    def check(self, item, out) -> str:
        return "".join(part.check(one, result)
                       for part, one, result in zip(self.parts, item, out))

    def faces_out(self, out) -> int:
        return sum(part.faces_out(result)
                   for part, result in zip(self.parts, out))


#: (spec, depth) pairs of ``generate_demo_mesh`` inputs that raise
#: ``NonManifoldError`` under the snub step for most seeds at the commit the
#: benchmark was written against.  Every timed op must succeed, so they run
#: apart, as the known-defect probe.
KNOWN_DEFECTS = (("fan:3", 2), ("fan:3", 3), ("fan:4", 3))


class DefectProbe:
    """The known defects, each snubbed, glued and woven once per run.

    The ops are untimed and checked like any other; their failures are
    counted by type, so a fix shows as fewer failures.
    """

    name = "known_defects"

    def items(self, lib, rng) -> list:
        make = lib.mesh_core.generate_demo_mesh
        return [dict(spec=spec, steps=steps,
                     mesh=jittered(lib, make(spec), rng, 0.04))
                for spec, steps in KNOWN_DEFECTS]

    def run(self, lib, item):
        return snub_weave(lib, item)

    def check(self, item, out) -> str:
        check_history(out["history"], item["steps"])
        check_snub_weave(out["tiling"], out["weaving"], out["ribbons"])
        return digest([out["history"].final, out["tiling"].mesh])

    def faces_out(self, out) -> int:
        return len(out["tiling"].mesh.face_starts) - 1


WORKLOADS = {w.name: w for w in (DeepRefine(), Weaves())}
DEFECT_PROBE = DefectProbe()
