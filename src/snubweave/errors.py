"""Exception types shared across the package.

Every error raised for invalid *input* derives from :class:`SnubWeaveError`,
so callers can distinguish validation failures from genuine bugs.
:class:`InternalInvariantError` deliberately does *not* derive from it: it
signals that an internal consistency check failed, which is never the
caller's fault.
"""

from __future__ import annotations


class SnubWeaveError(Exception):
    """Base class for all input-validation errors raised by snubweave."""


# ---------------------------------------------------------------------------
# mesh construction / validation
# ---------------------------------------------------------------------------

class NonManifoldError(SnubWeaveError):
    """An edge has more than two incident faces, or the boundary is pinched."""


class DegenerateFaceError(SnubWeaveError):
    """A face cycle is too short, repeats a vertex, or has zero area."""


class IndexRangeError(SnubWeaveError):
    """A vertex index is outside the valid range."""


class InvalidParameterError(SnubWeaveError):
    """A parameter value is outside its documented domain."""


class SelfIntersectionError(SnubWeaveError):
    """Two non-adjacent edges of the mesh cross each other."""


# ---------------------------------------------------------------------------
# snub subdivision
# ---------------------------------------------------------------------------

class AmbiguousHalfPlaneError(SnubWeaveError):
    """A new vertex lies on the supporting line of its source edge."""


# ---------------------------------------------------------------------------
# classic schemes
# ---------------------------------------------------------------------------

class NotTriangleMeshError(SnubWeaveError):
    """The scheme requires a pure triangle mesh."""


# ---------------------------------------------------------------------------
# weaving
# ---------------------------------------------------------------------------

class NotBipartiteError(SnubWeaveError):
    """The vertex graph contains an odd cycle, so no two-coloring exists."""


class InvalidTriangleColoringError(SnubWeaveError):
    """Some triangle does not have exactly one vertex of the first color."""


class NoInteriorEdgesError(SnubWeaveError):
    """The mesh has no interior edge, so no crossing can be built."""


# ---------------------------------------------------------------------------
# fractal analysis
# ---------------------------------------------------------------------------

class DepthTooLargeError(SnubWeaveError):
    """The requested depth exceeds its guard: a rewriting deeper than
    ``lsystem_expand`` runs, or snub steps whose meshes would not fit the
    mesh index dtype."""


class InsufficientDataError(SnubWeaveError):
    """Too few samples to fit a dimension estimate."""


class UnknownSeedError(SnubWeaveError):
    """A curve seed references an edge that does not exist at that step."""


# ---------------------------------------------------------------------------
# internal
# ---------------------------------------------------------------------------

class InternalInvariantError(Exception):
    """An internal consistency check failed (a bug, not bad input)."""
