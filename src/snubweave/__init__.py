"""snubweave: planar mesh subdivision, weaving patterns, fractal analysis.

The package is organized by capability:

* :mod:`snubweave.mesh_core` — planar polygon meshes, validation,
  inner/outer masks, demo-input generators;
* :mod:`snubweave.snub` — the pentagon-producing snub subdivision scheme
  with smoothing and multi-step histories;
* :mod:`snubweave.classic_schemes` — Loop, butterfly, sqrt-3, mid-edge,
  Catmull-Clark, and Doo-Sabin subdivision steps;
* :mod:`snubweave.weaving` — strand tracing, two-colorings, gluings, and
  over/under crossing assignment;
* :mod:`snubweave.fractal` — boundary-curve rewriting system, length growth,
  fractal-dimension estimation, first-hit rasters.
"""

from .errors import (
    AmbiguousHalfPlaneError,
    DegenerateFaceError,
    DepthTooLargeError,
    IndexRangeError,
    InsufficientDataError,
    InternalInvariantError,
    InvalidParameterError,
    InvalidTriangleColoringError,
    NoInteriorEdgesError,
    NonManifoldError,
    NotBipartiteError,
    NotTriangleMeshError,
    SelfIntersectionError,
    SnubWeaveError,
    UnknownSeedError,
)
from .mesh_core import (
    INDEX_DTYPE,
    Mesh,
    build_mesh,
    convexity_report,
    euler_characteristic,
    fan_ngon,
    generate_demo_mesh,
    ngon,
    pentagon,
    pentagon_flower,
    square_grid,
)
from .snub import (
    ALPHA,
    Provenance,
    StepRecord,
    SubdivisionHistory,
    assign_z_orientations,
    smooth_inner_vertices,
    snub_subdivide,
)
from .classic_schemes import (
    SchemeStepResult,
    butterfly_step,
    catmull_clark_step,
    doo_sabin_step,
    loop_step,
    midedge_step,
    sqrt3_step,
)
from .weaving import (
    GluedTiling,
    Ribbons,
    Strand,
    VertexColoring,
    Weaving,
    catmull_clark_coloring,
    general_face_split_weaving,
    glue_snub_pairs,
    glue_triangle_pairs,
    loop_color_update,
    quad_weaving,
    sqrt3_quadization,
    strand_ribbons,
    trace_snub_strands,
    triangle_coloring_check,
    two_color_vertices,
)
from .fractal import (
    CurveFamily,
    CurveTrack,
    DimensionEstimate,
    FirstHitRaster,
    boundary_lengths,
    box_counting_dimension,
    default_palette,
    estimate_fractal_dimension,
    first_hit_raster,
    lsystem_expand,
    track_inner_curves,
)
__version__ = "0.1.0"
