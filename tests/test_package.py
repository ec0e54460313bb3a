"""The package's public surface: what ``snubweave`` exports."""

import ast
import dataclasses
import inspect
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

import snubweave as sw
from snubweave import classic_schemes, errors, fractal, mesh_core, snub, weaving

#: The exception classes ``errors`` defines, by name.
ERROR_CLASSES = {name: obj for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and issubclass(obj, Exception)
                 and obj.__module__ == errors.__name__}


def test_exports_are_the_modules_public_names():
    # every name the package exports is declared public by its module, and
    # every declared name is exported, so a removal leaves no dangling name
    declared = set().union(*(m.__all__ for m in (
        mesh_core, snub, classic_schemes, weaving, fractal)))
    exported = {name for name, obj in vars(sw).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == declared | set(ERROR_CLASSES)


def test_public_names_are_defined_where_declared():
    # a module declares only the classes and functions it defines, so a
    # name moved to another module leaves no stale re-export behind
    for module in (mesh_core, snub, classic_schemes, weaving, fractal):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module, name)


def test_every_error_type_is_raised_by_the_library():
    # an error type no library code raises is dead public API; a base
    # class counts as raised when one of its subclasses is
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    raised_types = [ERROR_CLASSES[name]
                    for name in raised & ERROR_CLASSES.keys()]
    unraised = {name for name, obj in ERROR_CLASSES.items()
                if not any(issubclass(t, obj) for t in raised_types)}
    assert unraised == set()


# ---------------------------------------------------------------------------
# records checked by type
# ---------------------------------------------------------------------------

def _records():
    """A pentagon history of two steps, its last record, a mesh, a
    coloring and a quad weaving, for the calls below."""
    hist = sw.snub_subdivide(sw.pentagon(), 2)
    quads = sw.square_grid(2, 2)
    coloring = sw.two_color_vertices(quads)
    return dict(p=hist.records[-1].provenance, m=quads, c=coloring,
                w=sw.quad_weaving(quads, coloring))


#: (call, the argument it must name, the record type it expects): each one
#: leaked AttributeError on a None record instead of a typed error
NONE_RECORDS = [
    ("quad_weaving(None, c)", "mesh", "Mesh"),
    ("glue_snub_pairs(None, p)", "mesh", "Mesh"),
    ("general_face_split_weaving(None)", "mesh", "Mesh"),
    ("two_color_vertices(None)", "mesh", "Mesh"),
    ("snub_subdivide(None, 1)", "mesh", "Mesh"),
    ("catmull_clark_step(None)", "mesh", "Mesh"),
    ("loop_step(None)", "mesh", "Mesh"),
    ("trace_snub_strands(None, p)", "tiling", "GluedTiling"),
    ("strand_ribbons(None, m, 0.3)", "weaving", "Weaving"),
    ("boundary_lengths(None)", "history", "SubdivisionHistory"),
    ("first_hit_raster(None, 32)", "history", "SubdivisionHistory"),
    ("track_inner_curves(None, [0])", "history", "SubdivisionHistory"),
    ("butterfly_step(None)", "mesh", "Mesh"),
    ("sqrt3_step(None)", "mesh", "Mesh"),
    ("midedge_step(None)", "mesh", "Mesh"),
    ("doo_sabin_step(None)", "mesh", "Mesh"),
    ("smooth_inner_vertices(None)", "mesh", "Mesh"),
    ("euler_characteristic(None)", "mesh", "Mesh"),
    ("convexity_report(None)", "mesh", "Mesh"),
    ("triangle_coloring_check(None, c)", "mesh", "Mesh"),
    ("glue_triangle_pairs(None, c)", "mesh", "Mesh"),
    ("strand_ribbons(w, None, 0.3)", "mesh", "Mesh"),
]


@pytest.mark.parametrize("call, name, kind", NONE_RECORDS)
def test_a_none_record_raises_a_typed_error_naming_the_argument(call, name,
                                                                 kind):
    with pytest.raises(sw.InvalidParameterError,
                       match=f"^{name} must be a {kind}, got NoneType$"):
        eval(call, vars(sw), _records())


# ---------------------------------------------------------------------------
# one index dtype for every mesh
# ---------------------------------------------------------------------------

def _made_meshes():
    """Per maker of meshes, a mesh it made."""
    points = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    fan = sw.fan_ngon(6)
    loop = sw.loop_step(fan)
    hub = sw.VertexColoring(np.arange(fan.vertex_count) == 6)
    hist = sw.snub_subdivide(sw.pentagon(), 2)
    prov = hist.records[-1].provenance
    made = {
        "build_mesh (lists)": sw.build_mesh(points, [[0, 1, 2], [0, 2, 3]]),
        "build_mesh (CSR)": sw.build_mesh(points, (np.array([0, 1, 2, 3]),
                                                   np.array([0, 4]))),
        "catmull_clark_step": sw.catmull_clark_step(sw.square_grid(2, 2)).mesh,
        "snub step": hist.final,
        "glue_triangle_pairs": sw.glue_triangle_pairs(
            loop.mesh, sw.loop_color_update(hub, loop)).mesh,
        "sqrt3_quadization": sw.sqrt3_quadization(sw.sqrt3_step(fan))[0].mesh,
        "glue_snub_pairs": sw.glue_snub_pairs(hist.final, prov).mesh,
        "face-split weave": sw.general_face_split_weaving(fan)[0].mesh,
        "with_positions": fan.with_positions(fan.positions + 1.0),
    }
    for name in ("loop_step", "butterfly_step", "sqrt3_step", "midedge_step",
                 "doo_sabin_step"):
        made[name] = getattr(sw, name)(fan).mesh
    return made


MAKERS = sorted(_made_meshes())


def test_the_index_dtype_is_int32():
    assert sw.INDEX_DTYPE == np.int32


@pytest.mark.parametrize("maker", MAKERS)
def test_every_maker_holds_its_indices_in_the_index_dtype(maker):
    mesh = _made_meshes()[maker]
    assert mesh.positions.dtype == np.float64
    for name in ("face_vertex_flat", "face_starts", "edges", "edge_left",
                 "edge_right", "face_edge_flat"):
        assert getattr(mesh, name).dtype == sw.INDEX_DTYPE, name


def _made_weavings():
    """Per maker of weavings, a weaving it made: snub, quad on quads only
    and on glued triangles with singletons, and face-split."""
    fan = sw.fan_ngon(6)
    loop = sw.loop_step(fan)
    glued_coloring = sw.loop_color_update(
        sw.VertexColoring(np.arange(fan.vertex_count) == 6), loop)
    glued = sw.glue_triangle_pairs(loop.mesh, glued_coloring)
    cc = sw.catmull_clark_step(fan)
    hist = sw.snub_subdivide(sw.pentagon(), 2)
    prov = hist.records[-1].provenance
    return {
        "trace_snub_strands": sw.trace_snub_strands(
            sw.glue_snub_pairs(hist.final, prov), prov),
        "quad_weaving (quads)": sw.quad_weaving(
            cc.mesh, sw.catmull_clark_coloring(cc)),
        "quad_weaving (glued triangles)": sw.quad_weaving(glued.mesh,
                                                          glued_coloring),
        "general_face_split_weaving": sw.general_face_split_weaving(fan)[2],
    }


WEAVERS = sorted(_made_weavings())


@pytest.mark.parametrize("maker", WEAVERS)
def test_every_weaver_holds_its_indices_in_the_index_dtype(maker):
    weave = _made_weavings()[maker]
    flags = {"over", "closed", "lead_terminal"}
    arrays = {f.name: getattr(weave, f.name) for f in dataclasses.fields(weave)
              if isinstance(getattr(weave, f.name), np.ndarray)}
    assert flags < set(arrays)
    for name, a in arrays.items():
        assert a.dtype == (bool if name in flags else sw.INDEX_DTYPE), name


# ---------------------------------------------------------------------------
# builders free their scratch before they hand off
# ---------------------------------------------------------------------------

def _snub_glue_input():
    hist = sw.snub_subdivide(sw.pentagon(), 5)
    return hist.final, hist.records[-1].provenance


def _grid_weave_input():
    grid = sw.square_grid(24, 24)
    return grid, sw.two_color_vertices(grid)


#: Per builder, its input and the most its tracemalloc peak may be, in
#: multiples of what its output keeps.  Each bound is about 15% above the
#: ratio measured with numpy 2.4.6: 4.46 for the glue, 6.55 for the quad
#: weave and 4.02 for the mid-edge step, against 7.95, 7.85 and 6.56 while
#: each builder held its int64 slot tables until its last call; and 1.73
#: for the depth-12 boundary curve drawn by the step's Z, against 4.23 for
#: a turtle run over the UTF-32 code points of its symbols.
PEAK_OVER_KEPT = {
    "glue_snub_pairs": (_snub_glue_input, 5.1),
    "quad_weaving": (_grid_weave_input, 7.5),
    "midedge_step": (lambda: (sw.square_grid(24, 24),), 4.6),
    "lsystem_expand": (lambda: (12,), 2.0),
}


@pytest.mark.parametrize("builder", sorted(PEAK_OVER_KEPT))
def test_builder_peak_stays_near_what_it_keeps(builder):
    make_input, bound = PEAK_OVER_KEPT[builder]
    args, build = make_input(), getattr(sw, builder)
    build(*args)        # warm: the first call also allocates caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = build(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is not None
    assert peak - start <= bound * (kept - start), (peak - start,
                                                     kept - start)
