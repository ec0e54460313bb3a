"""Frozen loop implementations of the fractal analysis (test oracle).

These are the rewriting turtle, the curve tracker and the dimension
estimators as :mod:`snubweave.fractal` first had them: a general
single-rule :class:`LSystem` run one symbol at a time, seed edges followed
one at a time with a per-seed length and endpoint check, two separate
log-log fits, and a palette filled row by row.  They are kept verbatim,
apart from the imports and the local record types, so the array versions
in the library can be checked against them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from snubweave.errors import (
    DepthTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
    UnknownSeedError,
)
from snubweave.snub import ALPHA, SubdivisionHistory

_SQRT7 = math.sqrt(7.0)

#: Scale factor of one rewriting step (new segment length / old).
SEGMENT_SCALE = 1.0 / _SQRT7

#: Boundary length growth factor per step.
LENGTH_FACTOR = 3.0 / _SQRT7


@dataclass(frozen=True)
class LSystem:
    """A single-rule turtle rewriting system."""

    axiom: str = "F"
    variable: str = "F"
    production: str = "∇F-F+F△"
    alpha: float = ALPHA
    #: turn (in units of ``alpha`` and ``pi/3`` respectively) per symbol
    turns: dict = field(default_factory=lambda: {
        "∇": (1, 0), "△": (-1, 0), "+": (0, 1), "-": (0, -1)})


#: The rewriting system whose curve is the snub boundary of one edge.
SNUB_BOUNDARY_LSYSTEM = LSystem()


def lsystem_expand(depth: int, max_depth: int = 12,
                   system: LSystem = SNUB_BOUNDARY_LSYSTEM
                   ) -> tuple[str, np.ndarray]:
    """Expand the rewriting system and run its turtle.

    Returns the symbol string after ``depth`` rewrites and the turtle
    polyline as an ``(n+1, 2)`` array, starting at the origin with one unit
    axiom segment, step length ``(1/sqrt(7)) ** depth``.

    The turtle heading is kept as an exact integer pair (multiples of
    ``alpha`` and of 60 degrees), so long expansions accumulate no heading
    drift.
    """
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    if depth > max_depth:
        raise DepthTooLargeError(
            f"depth {depth} exceeds the guard cap {max_depth}")
    symbols = system.axiom
    for _ in range(depth):
        symbols = symbols.replace(system.variable, system.production)

    a = b = 0
    headings = []
    for ch in symbols:
        if ch == system.variable:
            headings.append((a, b))
        else:
            da, db = system.turns[ch]
            a += da
            b += db
    heading = np.asarray(headings, dtype=np.float64)
    angle = heading[:, 0] * system.alpha + heading[:, 1] * (math.pi / 3.0)
    step = SEGMENT_SCALE ** depth
    moves = np.stack([np.cos(angle), np.sin(angle)], axis=1) * step
    polyline = np.vstack([[0.0, 0.0], np.cumsum(moves, axis=0)])
    return symbols, polyline

@dataclass(frozen=True)
class DimensionEstimate:
    """A log-log slope fit: ``dimension`` with its fit ``residual`` (RMS)."""

    dimension: float
    residual: float
    log_sizes: np.ndarray
    log_values: np.ndarray


def estimate_fractal_dimension(lengths) -> DimensionEstimate:
    """Dimension of a curve family from its per-step lengths.

    With scales ``s_t = (1/sqrt(7))^t`` the estimate is
    ``D = 1 - slope`` of ``log L_t`` against ``log s_t``; an exactly
    geometric sequence ``L_t = L_0 (3/sqrt(7))^t`` gives
    ``D = log 3 / log sqrt(7) ≈ 1.12915`` and constant lengths give 1.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    if len(lengths) < 3:
        raise InsufficientDataError(
            f"need at least 3 length samples, got {len(lengths)}")
    if not (np.isfinite(lengths) & (lengths > 0)).all():
        raise InvalidParameterError("lengths must be finite and positive")
    t = np.arange(len(lengths))
    log_s = t * math.log(SEGMENT_SCALE)
    log_l = np.log(lengths)
    slope, intercept = np.polyfit(log_s, log_l, 1)
    fit = slope * log_s + intercept
    residual = float(np.sqrt(np.mean((fit - log_l) ** 2)))
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
    pts = np.asarray(polyline, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise InvalidParameterError("polyline must be an (n, 2) array, n >= 2")
    if len(grid_sizes) < 3:
        raise InsufficientDataError("need at least 3 grid sizes")
    if min(grid_sizes) < 2 or len(set(grid_sizes)) != len(grid_sizes):
        raise InvalidParameterError(
            f"grid sizes must be distinct and at least 2, got {grid_sizes}")
    if samples_per_segment < 1:
        raise InvalidParameterError(
            f"samples_per_segment must be >= 1, got {samples_per_segment}")
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
    slope, intercept = np.polyfit(log_n, log_c, 1)
    fit = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((fit - log_c) ** 2)))
    return DimensionEstimate(dimension=float(slope), residual=residual,
                             log_sizes=log_n, log_values=log_c)


@dataclass(frozen=True)
class CurveTrack:
    """One seed edge followed through every later refinement step."""

    seed_edge: int
    vertex_paths: list      # per step: (k,) vertex-id array into that mesh
    lengths: list           # per step: polyline length (float)
    endpoints_fixed: tuple  # (bool, bool): endpoint never moves across steps

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
    fixed when its position is identical across all tracked steps — true for
    boundary vertices and for vertices pinned by symmetry.
    """
    if not 0 <= start_step < len(history.meshes):
        raise InvalidParameterError(
            f"start step {start_step} outside history of {len(history.meshes)}")
    base = history.meshes[start_step]
    seed_edges = [int(e) for e in seed_edges]
    for e in seed_edges:
        if not 0 <= e < base.edge_count:
            raise UnknownSeedError(
                f"edge {e} does not exist at step {start_step} "
                f"({base.edge_count} edges)")

    curves = []
    for e in seed_edges:
        a, b = (int(v) for v in base.edges[e])
        path = np.asarray([a, b], dtype=np.int64)
        paths = [path]
        lengths = [_polyline_length(base, path)]
        for t in range(start_step + 1, len(history.meshes)):
            source = history.meshes[t - 1]
            mesh = history.meshes[t]
            path = _refine_path(source, path)
            paths.append(path)
            lengths.append(_polyline_length(mesh, path))
        fixed = tuple(_position_stable(history, start_step, paths, which)
                      for which in (0, -1))
        curves.append(CurveTrack(seed_edge=e, vertex_paths=paths,
                                 lengths=lengths, endpoints_fixed=fixed))
    return CurveFamily(start_step=start_step, curves=curves)


def _polyline_length(mesh, path: np.ndarray) -> float:
    pos = np.asarray(mesh.positions)[path]
    return float(np.hypot(*(np.diff(pos, axis=0)).T).sum())


def _refine_path(source, path: np.ndarray) -> np.ndarray:
    """Vertex path in the refined mesh after replacing each edge by three."""
    V = source.vertex_count
    u = path[:-1]
    v = path[1:]
    e = source.edge_id(u, v)
    first = np.where(u == source.edges[e, 0],
                     V + 2 * e, V + 2 * e + 1)
    second = (2 * V + 4 * e + 1) - first
    out = np.empty(3 * len(e) + 1, dtype=np.int64)
    out[0::3] = path
    out[1::3] = first
    out[2::3] = second
    return out


def _position_stable(history, start_step, paths, which) -> bool:
    reference = None
    for t, path in zip(range(start_step, len(history.meshes)), paths):
        p = np.asarray(history.meshes[t].positions)[path[which]]
        if reference is None:
            reference = p
        elif not np.allclose(p, reference, atol=1e-12, rtol=0.0):
            return False
    return True


def default_palette(steps: int) -> np.ndarray:
    """RGB ramp per step: dark-to-bright blues for the first ten steps,
    then a dark-to-bright green ramp for later ones."""
    colors = np.zeros((max(steps, 1), 3), dtype=np.uint8)
    for t in range(len(colors)):
        if t < 10:
            f = t / 9.0 if len(colors) > 1 else 0.0
            colors[t] = (int(30 + 90 * f), int(40 + 140 * f),
                         int(90 + 165 * f))
        else:
            f = min((t - 10) / 9.0, 1.0)
            colors[t] = (int(20 + 80 * f), int(110 + 145 * f),
                         int(40 + 60 * f))
    return colors
