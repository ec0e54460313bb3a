"""Boundary-curve rewriting, length growth, dimension estimates, rasters.

The snub scheme replaces every boundary edge by three segments of
``1/sqrt(7)`` times its length, so the boundary is exactly the curve of the
rewriting system ``F -> ∇F-F+F△`` (turtle alphabet: ``F`` forward, ``∇``
turn left by ``alpha = atan(sqrt(3)/5)``, ``△`` turn right by ``alpha``,
``+`` turn left by 60 degrees, ``-`` turn right by 60 degrees).  Its length
grows by ``3/sqrt(7)`` per step, giving a limit curve of dimension
``log 3 / log sqrt(7) ≈ 1.12915``.  Interior curves also grow, but not at a
fixed rate; they are tracked and reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    DepthTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
    UnknownSeedError,
)
from .mesh_core import _checked_int
from .snub import ALPHA, SubdivisionHistory, _walked_bends

__all__ = [
    "lsystem_expand",
    "boundary_lengths",
    "DimensionEstimate",
    "estimate_fractal_dimension",
    "box_counting_dimension",
    "CurveTrack",
    "CurveFamily",
    "track_inner_curves",
    "FirstHitRaster",
    "first_hit_raster",
    "default_palette",
]

_SQRT7 = math.sqrt(7.0)

#: Scale factor of one rewriting step (new segment length / old).
SEGMENT_SCALE = 1.0 / _SQRT7

#: Boundary length growth factor per step.
LENGTH_FACTOR = 3.0 / _SQRT7

#: Deepest expansion ``lsystem_expand`` runs (``3**12`` segments).
_MAX_DEPTH = 12

#: Most pixels ``first_hit_raster`` allocates (1024 x 1024 is ``2**20``).
_MAX_PIXELS = 2 ** 24


def lsystem_expand(depth: int) -> tuple[str, np.ndarray]:
    """Expand ``F -> ∇F-F+F△`` ``depth`` times and run its turtle.

    Returns the symbol string after ``depth`` rewrites and the turtle
    polyline as an ``(n+1, 2)`` array, starting at the origin with one unit
    axiom segment, step length ``(1/sqrt(7)) ** depth``.

    The turtle heading is kept as an exact integer pair (multiples of
    ``alpha`` and of 60 degrees), so long expansions accumulate no heading
    drift.
    """
    depth = _checked_int(depth, "depth", 0)
    if depth > _MAX_DEPTH:
        raise DepthTooLargeError(
            f"depth {depth} exceeds the guard cap {_MAX_DEPTH}")
    symbols = "F"
    for _ in range(depth):
        symbols = symbols.replace("F", "∇F-F+F△")

    # each F's heading is the sum of the turns before it: one running sum
    # per (left, right) turn pair over the code points, read at the Fs
    codes = np.frombuffer(symbols.encode("utf-32-le"), dtype="<u4")
    forward = codes == ord("F")
    a, b = (np.cumsum((codes == ord(left)).astype(np.int64)
                      - (codes == ord(right)))[forward]
            for left, right in ("∇△", "+-"))
    angle = a * ALPHA + b * (math.pi / 3.0)
    step = SEGMENT_SCALE ** depth
    moves = np.stack([np.cos(angle), np.sin(angle)], axis=1) * step
    polyline = np.vstack([[0.0, 0.0], np.cumsum(moves, axis=0)])
    return symbols, polyline


def boundary_lengths(history: SubdivisionHistory) -> list[float]:
    """Total boundary length of every mesh in the history."""
    out = []
    for mesh in history.meshes:
        ends = mesh.edges[mesh.boundary_edge_mask]
        d = mesh.positions[ends[:, 1]] - mesh.positions[ends[:, 0]]
        out.append(float(np.hypot(d[:, 0], d[:, 1]).sum()))
    return out


@dataclass(frozen=True)
class DimensionEstimate:
    """A log-log slope fit: ``dimension`` with its fit ``residual`` (RMS)."""

    dimension: float
    residual: float
    log_sizes: np.ndarray
    log_values: np.ndarray


def _loglog_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ``log_y`` against ``log_x``, and the fit's RMS
    residual."""
    slope, intercept = np.polyfit(log_x, log_y, 1)
    fit = slope * log_x + intercept
    return slope, float(np.sqrt(np.mean((fit - log_y) ** 2)))


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; :class:`InvalidParameterError` where
    numpy cannot read them as numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be numbers: {exc}") from exc


def estimate_fractal_dimension(lengths) -> DimensionEstimate:
    """Dimension of a curve family from its per-step lengths.

    With scales ``s_t = (1/sqrt(7))^t`` the estimate is
    ``D = 1 - slope`` of ``log L_t`` against ``log s_t``; an exactly
    geometric sequence ``L_t = L_0 (3/sqrt(7))^t`` gives
    ``D = log 3 / log sqrt(7) ≈ 1.12915`` and constant lengths give 1.
    """
    lengths = _float_array(lengths, "lengths")
    if len(lengths) < 3:
        raise InsufficientDataError(
            f"need at least 3 length samples, got {len(lengths)}")
    if not (np.isfinite(lengths) & (lengths > 0)).all():
        raise InvalidParameterError("lengths must be finite and positive")
    t = np.arange(len(lengths))
    log_s = t * math.log(SEGMENT_SCALE)
    log_l = np.log(lengths)
    slope, residual = _loglog_fit(log_s, log_l)
    return DimensionEstimate(dimension=float(1.0 - slope), residual=residual,
                             log_sizes=log_s, log_values=log_l)


def box_counting_dimension(polyline: np.ndarray,
                           grid_sizes=tuple(2 ** k for k in range(4, 11)),
                           samples_per_segment: int = 4) -> DimensionEstimate:
    """Cross-validation estimator: count occupied boxes at several grids.

    The polyline is resampled so box occupancy is not undercounted on long
    segments, then for each grid size ``n`` the curve's bounding square is
    split into ``n x n`` boxes and the occupied count ``N(n)`` recorded;
    the dimension is the slope of ``log N`` against ``log n``.
    """
    pts = _float_array(polyline, "polyline")
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise InvalidParameterError("polyline must be an (n, 2) array, n >= 2")
    if not np.isfinite(pts).all():
        raise InvalidParameterError("polyline coordinates must be finite")
    if len(grid_sizes) < 3:
        raise InsufficientDataError("need at least 3 grid sizes")
    grid_sizes = [_checked_int(n, "a grid size", 2) for n in grid_sizes]
    if len(set(grid_sizes)) != len(grid_sizes):
        raise InvalidParameterError(
            f"grid sizes must be distinct, got {grid_sizes}")
    samples_per_segment = _checked_int(samples_per_segment,
                                       "samples_per_segment", 1)
    with np.errstate(over="ignore"):
        extent = pts.max(axis=0) - pts.min(axis=0)
    if not np.isfinite(extent).all():
        raise InvalidParameterError("polyline's extent overflows a float")
    if samples_per_segment > 1:
        frac = np.linspace(0.0, 1.0, samples_per_segment, endpoint=False)
        seg_a = pts[:-1]
        seg_d = pts[1:] - pts[:-1]
        dense = (seg_a[:, None, :] + frac[None, :, None] * seg_d[:, None, :])
        pts = np.vstack([dense.reshape(-1, 2), pts[-1:]])

    lo = pts.min(axis=0)
    span = float(max(pts.max(axis=0) - lo)) or 1.0
    counts = []
    for n in grid_sizes:
        ij = np.floor((pts - lo) / span * n).astype(np.int64)
        np.clip(ij, 0, n - 1, out=ij)
        counts.append(len(np.unique(ij[:, 0] * n + ij[:, 1])))
    log_n = np.log(np.asarray(grid_sizes, dtype=np.float64))
    log_c = np.log(np.asarray(counts, dtype=np.float64))
    slope, residual = _loglog_fit(log_n, log_c)
    return DimensionEstimate(dimension=float(slope), residual=residual,
                             log_sizes=log_n, log_values=log_c)


# ---------------------------------------------------------------------------
# per-curve tracking through a subdivision history
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTrack:
    """One seed edge followed through every later refinement step."""

    seed_edge: int
    vertex_paths: list      # per step: (k,) vertex-id array into that mesh
    lengths: list           # per step: polyline length (float)
    endpoints_fixed: tuple  # (bool, bool): endpoint within 1e-12 of start

    @property
    def growth_factors(self) -> list:
        return [b / a for a, b in zip(self.lengths, self.lengths[1:])]


@dataclass(frozen=True)
class CurveFamily:
    """Curves tracked from step ``start_step`` to the end of a history."""

    start_step: int
    curves: list


def track_inner_curves(history: SubdivisionHistory, seed_edges,
                       start_step: int = 0) -> CurveFamily:
    """Follow edges of mesh ``start_step`` through all later refinements.

    Each edge becomes three at every step (its replacement segments); the
    tracked object is the polyline through the descendant vertices, measured
    with each step's final (smoothed) positions.  An endpoint is flagged
    fixed when both its coordinates stay within ``1e-12`` of their
    start-step values across all tracked steps — true for boundary vertices
    and for vertices pinned by symmetry.
    """
    if _checked_int(start_step, "start_step", 0) >= len(history.meshes):
        raise InvalidParameterError(
            f"start step {start_step} outside history of {len(history.meshes)}")
    base = history.meshes[start_step]
    seeds = np.asarray(seed_edges)
    if seeds.ndim != 1 or (seeds.size and seeds.dtype.kind not in "iu"):
        raise UnknownSeedError(
            f"seed edges must be a sequence of integer edge ids, "
            f"got {seed_edges!r}")
    outside = (seeds < 0) | (seeds >= base.edge_count)
    if outside.any():
        raise UnknownSeedError(
            f"edge {seeds[outside][0]} does not exist at step {start_step} "
            f"({base.edge_count} edges)")

    # one row per seed: every step refines and measures all paths at once
    ends = base.edges[seeds.astype(np.int64)]
    home = base.positions[ends]
    fixed = np.ones(ends.shape, dtype=bool)
    path, paths, lengths = ends, [], []
    for t in range(start_step, len(history.meshes)):
        if t > start_step:
            path = _refine_path(history.meshes[t - 1], path)
        pos = np.asarray(history.meshes[t].positions)
        d = np.diff(pos[path], axis=1)
        paths.append(path)
        lengths.append(np.hypot(d[..., 0], d[..., 1]).sum(axis=1))
        fixed &= np.isclose(pos[ends], home, rtol=0.0, atol=1e-12).all(axis=2)
    rows = zip(seeds.tolist(), np.column_stack(lengths).tolist(),
               fixed.tolist())
    curves = [CurveTrack(seed_edge=e, vertex_paths=[p[i] for p in paths],
                         lengths=row, endpoints_fixed=tuple(ok))
              for i, (e, row, ok) in enumerate(rows)]
    return CurveFamily(start_step=start_step, curves=curves)


def _refine_path(source, path: np.ndarray) -> np.ndarray:
    """Vertex paths (rows) in the refined mesh, each edge replaced by three:
    its bend points, in the order the path walks them."""
    u, v = path[:, :-1], path[:, 1:]
    first, second = _walked_bends(source.vertex_count, source.edge_id(u, v),
                                  u > v)
    out = np.empty((len(path), 3 * first.shape[1] + 1), dtype=np.int64)
    out[:, 0::3] = path
    out[:, 1::3] = first
    out[:, 2::3] = second
    return out


# ---------------------------------------------------------------------------
# first-hit raster
# ---------------------------------------------------------------------------

def default_palette(steps: int) -> np.ndarray:
    """RGB ramp per step: dark-to-bright blues for the first ten steps,
    then a dark-to-bright green ramp for later ones."""
    t = np.arange(max(steps, 1))
    blue = (t < 10)[:, None]
    f = np.where(blue, t[:, None] / 9.0,
                 np.minimum((t[:, None] - 10) / 9.0, 1.0))
    low = np.where(blue, (30, 40, 90), (20, 110, 40))
    gain = np.where(blue, (90, 140, 165), (80, 145, 60))
    return (low + gain * f).astype(np.uint8)


@dataclass(frozen=True)
class FirstHitRaster:
    """Per-pixel first refinement step whose vertices hit the pixel.

    ``step_index`` is an ``(H, W)`` array, ``-1`` for never-hit pixels;
    row 0 is the top of the image (maximum y).  ``pixel_counts[t]`` is the
    number of pixels first colored at step ``t``; ``saturation_step`` is the
    last step that colored anything new.
    """

    step_index: np.ndarray
    window: tuple
    palette: np.ndarray
    pixel_counts: np.ndarray
    saturation_step: int


def first_hit_raster(history: SubdivisionHistory, resolution: int,
                     window: tuple | None = None) -> FirstHitRaster:
    """Color each pixel by the first step whose mesh has a vertex inside it.

    Pixels are half-open boxes over ``window = (xmin, ymin, xmax, ymax)``;
    the default window is the input mesh's bounding box padded by 25% of its
    larger dimension, which contains every later mesh (each step's new
    vertices stay within a fraction of an edge length of the old ones).
    Already-colored pixels never change, so extending the history only adds
    pixels (until saturation, after which nothing changes).  A raster of
    more than ``2**24`` pixels raises :class:`InvalidParameterError`.
    """
    W = _checked_int(resolution, "resolution", 16)
    if len(history.meshes) == 0:
        raise InvalidParameterError("history is empty")
    if window is None:
        base = np.asarray(history.meshes[0].positions)
        lo = base.min(axis=0)
        hi = base.max(axis=0)
        pad = 0.25 * float(max(hi - lo))
        window = (float(lo[0] - pad), float(lo[1] - pad),
                  float(hi[0] + pad), float(hi[1] + pad))
    bounds = _float_array(window, "window")
    if (bounds.shape != (4,) or not np.isfinite(bounds).all()
            or (bounds[2:] <= bounds[:2]).any()):
        raise InvalidParameterError("window must be four finite numbers "
                                    f"with positive extent, got {window!r}")
    xmin, ymin, xmax, ymax = bounds.tolist()

    # capped before rounding, so an infinite aspect ratio is caught too
    H = max(round(min(W * (ymax - ymin) / (xmax - xmin), _MAX_PIXELS)), 1)
    if W * H > _MAX_PIXELS:
        raise InvalidParameterError(
            f"a {H}x{W} raster exceeds the limit of {_MAX_PIXELS} pixels")
    grid = np.full(H * W, -1, dtype=np.int32)
    for t, mesh in enumerate(history.meshes):
        pos = np.asarray(mesh.positions)
        px = np.floor((pos[:, 0] - xmin) / (xmax - xmin) * W).astype(np.int64)
        py = np.floor((ymax - pos[:, 1]) / (ymax - ymin) * H).astype(np.int64)
        ok = (px >= 0) & (px < W) & (py >= 0) & (py < H)
        idx = py[ok] * W + px[ok]
        grid[idx[grid[idx] == -1]] = t
    counts = np.bincount(grid[grid >= 0], minlength=len(history.meshes))
    hit = np.flatnonzero(counts)
    saturation = int(hit[-1]) if len(hit) else 0
    return FirstHitRaster(step_index=grid.reshape(H, W), window=window,
                          palette=default_palette(len(history.meshes)),
                          pixel_counts=counts, saturation_step=saturation)
