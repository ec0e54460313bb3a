"""Outside-in tracing of the snubweave layers.

The library has no spans of its own, so :class:`Tracer` rebinds every
public function of the traced modules (and every other module attribute
that names one of them, such as ``snub.build_mesh``) to a wrapper that
records a span, plus ``Mesh.edge_id``.  :meth:`Tracer.uninstall` puts every
original binding back.

A span is ``[name, start, end, parent, error]``; spans stay in memory until
the run ends.  Calls made outside :meth:`Tracer.op` are passed through
unrecorded, so the benchmark's own checks never show up as library time.
"""

from __future__ import annotations

import functools
import logging
import time
import types
import weakref

import numpy as np

#: The layers traced, in the order they are reported.
LAYERS = ("mesh_core", "snub", "weaving", "classic_schemes", "fractal")

#: Layer name of the benchmark's own root span around each op.
BENCH = "bench"

#: Start of the two disagreement warnings ``snub`` logs per step.
DISAGREEMENT_TEMPLATES = {
    "half_plane_disagreements": "half-plane rule disagreed",
    "nearest_barycenter_disagreements":
        "nearest-barycenter distance disagreed",
}


class DisagreementCounter(logging.Handler):
    """Adds up the spoke counts carried by the disagreement log records.

    Attached to the ``snubweave`` logger with propagation off, it also keeps
    the warning logged on every snub step out of the benchmark's output.
    """

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.counts = dict.fromkeys(DISAGREEMENT_TEMPLATES, 0)

    def emit(self, record):
        for key, prefix in DISAGREEMENT_TEMPLATES.items():
            if isinstance(record.msg, str) and record.msg.startswith(prefix):
                self.counts[key] += int(record.args[0])

    def snapshot(self) -> dict:
        return dict(self.counts)


def attach_disagreement_counter() -> DisagreementCounter:
    counter = DisagreementCounter()
    log = logging.getLogger("snubweave")
    log.addHandler(counter)
    log.propagate = False
    log.setLevel(logging.DEBUG)
    return counter


class Tracer:
    """Span recorder for the public functions of the snubweave modules."""

    def __init__(self, package, modules: dict):
        self.package = package
        self.modules = modules          # layer name -> module
        self.spans: list[list] = []
        self.builds: list[tuple] = []   # (span index, slots, weakref to faces)
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self._wrappers = {}             # original function -> wrapper
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) \
                        and fn.__module__ == module.__name__:
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        mesh_cls = modules["mesh_core"].Mesh
        self._edge_id = self._wrap(mesh_cls.__dict__["edge_id"],
                                   "mesh_core.edge_id")

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        for owner in (self.package, *self.modules.values()):
            for attr, value in list(vars(owner).items()):
                if isinstance(value, types.FunctionType) \
                        and value in self._wrappers:
                    self._rebind(owner, attr, self._wrappers[value])
        self._rebind(self.modules["mesh_core"].Mesh, "edge_id", self._edge_id)

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, value) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        spans, stack, builds = self.spans, self._stack, self.builds
        clock = time.perf_counter
        is_build = name == "mesh_core.build_mesh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if is_build:
                faces = result.face_vertex_flat
                builds.append((index, len(faces), weakref.ref(faces)))
            return result

        return traced

    # -- op boundaries --------------------------------------------------------

    def op(self, label: str, fn, *args):
        """Run ``fn(*args)`` under a root span named ``bench.<label>``.

        The root span is the first span recorded from ``len(self.spans)``
        at the call; exceptions propagate after it is closed.
        """
        root = [f"{BENCH}.{label}", 0.0, 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[1] = time.perf_counter()
        try:
            return fn(*args)
        except BaseException as exc:
            root[4] = type(exc).__name__
            raise
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list], first: int, last: int) -> np.ndarray:
    """Self time of spans ``first .. last - 1``: duration minus children's."""
    block = spans[first:last]
    start = np.array([s[1] for s in block])
    end = np.array([s[2] for s in block])
    parent = np.array([s[3] for s in block], dtype=np.int64) - first
    duration = end - start
    child = np.zeros(len(block))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


def caller_layer(spans: list[list], index: int) -> str:
    """Layer of the nearest enclosing span outside ``mesh_core``."""
    parent = spans[index][3]
    while parent >= 0:
        layer = layer_of(spans[parent][0])
        if layer != "mesh_core":
            return layer
        parent = spans[parent][3]
    return BENCH


def failing_layer(spans: list[list], first: int, last: int,
                  error: str) -> str:
    """Layer of the innermost span the error ``error`` propagated out of."""
    for index in range(last - 1, first - 1, -1):
        if spans[index][4] == error:
            return layer_of(spans[index][0])
    return BENCH


def snub_step_times(spans: list[list], first: int, last: int) -> list[list]:
    """Wall time of every refinement step, per ``snub_subdivide`` span.

    A step runs from one ``assign_z_orientations`` call to the next; the
    last step ends with its ``snub_subdivide`` span.
    """
    out = []
    for index in range(first, last):
        if spans[index][0] != "snub.snub_subdivide":
            continue
        starts = [spans[k][1] for k in range(index + 1, last)
                  if spans[k][3] == index
                  and spans[k][0] == "snub.assign_z_orientations"]
        bounds = starts + [spans[index][2]]
        out.append([b - a for a, b in zip(bounds, bounds[1:])])
    return out
