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
from .mesh_core import *
from .snub import *
from .classic_schemes import *
from .weaving import *
from .fractal import *

__version__ = "0.1.0"
