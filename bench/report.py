"""Turn timed ops and recorded spans into the benchmark's metrics."""

from __future__ import annotations

import resource
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from tracing import (
    BENCH,
    caller_layer,
    failing_layer,
    layer_of,
    self_times,
    snub_step_times,
)

#: Layers that call ``build_mesh``, as named in the per-layer metrics.
CALLERS = ("snub", "weaving", "classic_schemes", BENCH)

#: Error types given their own ``<layer>.failed.<type>`` counter; any other
#: exception counts under ``<layer>.failed.other``.
NAMED_ERRORS = ("NonManifoldError", "DegenerateFaceError",
                "InternalInvariantError")

#: Percentiles tried for ``op_tail_s``, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)


@dataclass
class Op:
    """One op of the measured loop."""

    index: int                  # which input of the workload
    seconds: float
    error: str | None = None    # exception type, or "OutputCheck"
    typed: bool = False         # the error is a SnubWeaveError
    faces: int = 0              # output faces when it completed
    message: str = ""
    traced: bool = False
    spans: tuple = ()           # span index range of a traced op
    times: dict = field(default_factory=dict)   # per-op time metrics
    exact: dict = field(default_factory=dict)   # per-op exact counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_tail(times: list[float]):
    """Highest ladder percentile with at least ten ops beyond it."""
    for p in TAIL_LADDER:
        if len(times) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(times, p))
    return None


def faces_per_s(done: list[Op]) -> float:
    """Output faces of one pass ÷ the summed median op time of its inputs.

    Medians per input, rather than one sum over every op, keep a few ops
    slowed by the machine from moving the figure.
    """
    by_input = defaultdict(list)
    for op in done:
        by_input[op.index].append(op)
    if not by_input:
        return 0.0
    return (sum(ops[0].faces for ops in by_input.values())
            / sum(statistics.median(op.seconds for op in ops)
                  for ops in by_input.values()))


def end_to_end(ops: list[Op], setup_seconds: list[float],
               probe: list[Op]) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the details printed beside them.

    ``probe`` holds the untimed ops of the known-defect probe.
    """
    done = [op for op in ops if op.error is None]
    times = [op.seconds for op in (done or ops)]
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_s": statistics.median(times),
        "faces_per_s": faces_per_s(done),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = op_tail([op.seconds for op in done])
    details = {
        "failed_ratio": {"value": (len(ops) - len(done)) / len(ops),
                         "unit": "ratio", "failed": len(ops) - len(done),
                         "attempted": len(ops)},
        "failed_by_type": dict(Counter(op.error for op in ops if op.error)),
        "op_tail_s": ({"value": tail[1], "unit": "s", "percentile": tail[0],
                       "ops": len(done)} if tail else
                      f"n/a: {len(done)} completed ops leave fewer than ten "
                      f"beyond p{TAIL_LADDER[-1]:g}"),
        "first_ops_s": [op.seconds for op in ops[:8]],
        "known_defects": {
            "attempted": len(probe),
            "failed": sum(op.error is not None for op in probe),
            "failed_by_type": dict(Counter(op.error for op in probe
                                           if op.error))},
    }
    return metrics, details


# ---------------------------------------------------------------------------
# traced ops
# ---------------------------------------------------------------------------

_ATOMS = (int, float, bool, str, bytes, type(None), np.generic)


def walk(root):
    """Every object reachable from ``root`` through containers and fields."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, np.ndarray):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())


def result_counts(out) -> tuple[set, dict]:
    """Ids of every array the result holds, and its exact work counts."""
    arrays = set()
    exact = Counter()
    for obj in walk(out):
        kind = type(obj).__name__
        if isinstance(obj, np.ndarray):
            arrays.add(id(obj))
        elif kind == "SubdivisionHistory":
            exact["snub.steps"] += obj.steps
            exact["snub.faces_out"] += obj.final.face_count
            exact["snub.history_mb"] += sum(
                a.nbytes for a in walk(obj)
                if isinstance(a, np.ndarray)) / 2**20
        elif kind == "Weaving":
            exact["weaving.strands"] += len(obj.strands)
            exact["weaving.crossings"] += obj.crossing_count()
        elif kind == "GluedTiling":
            exact["weaving.tiles"] += obj.mesh.face_count
        elif kind == "SchemeStepResult":
            exact["classic_schemes.faces_out"] += obj.mesh.face_count
    return arrays, exact


def traced_op_metrics(spans, first: int, last: int, builds: list,
                      out, error: str | None, disagreements: dict
                      ) -> tuple[dict, dict, set]:
    """Per-op time metrics and exact counts of one traced op.

    ``builds`` are the ``build_mesh`` records made during the op.  Returns
    the ids of the arrays the result holds too, so the caller can test
    builds made outside the op against them.
    """
    own = self_times(spans, first, last)
    times = defaultdict(float)
    exact = Counter(disagreements)
    for k, index in enumerate(range(first + 1, last)):
        name = spans[index][0]
        times[f"{name}.self_s"] += own[k + 1]
        times[f"{layer_of(name)}.self_s"] += own[k + 1]
        if name == "mesh_core.build_mesh":
            caller = caller_layer(spans, index)
            times[f"mesh_core.build_mesh.under_{caller}.self_s"] += own[k + 1]
            exact[f"mesh_core.build_mesh.under_{caller}.calls"] += 1
    root = spans[first]
    times["trace.op_s"] = root[2] - root[1]
    times["trace.glue_s"] = own[0]
    times["trace.self_sum_s"] = float(own[1:].sum())
    times["trace.spans_per_op"] = last - first - 1
    steps = snub_step_times(spans, first, last)
    if steps and len(steps[0]) >= 2:
        times["snub.last_step_s"] = steps[0][-1]
        times["snub.last_step_ratio"] = steps[0][-1] / steps[0][-2]

    arrays = set()
    if error is None:
        arrays, counts = result_counts(out)
        exact.update(counts)
        if times["weaving.self_s"] > 0.0:
            times["weaving.crossings_per_s"] = (exact["weaving.crossings"]
                                                / times["weaving.self_s"])
    elif error == "OutputCheck":
        exact["checks.failed"] += 1
    else:
        layer = failing_layer(spans, first, last, error)
        kind = error if error in NAMED_ERRORS else "other"
        exact[f"{layer}.failed.{kind}"] += 1
    for index, slots, ref in builds:
        caller = caller_layer(spans, index)
        exact[f"mesh_core.build_mesh.under_{caller}.slots"] += slots
        faces = ref()
        if faces is not None and id(faces) in arrays:
            exact[f"mesh_core.build_mesh.under_{caller}.kept_slots"] += slots
    return dict(times), dict(exact), arrays


def per_layer(traced: list[Op], untraced: list[Op], inputs: dict,
              probe: list[Op]) -> tuple[dict, list[str]]:
    """Combine traced ops into the per-layer metrics.

    Time metrics are medians over traced ops.  Exact counts are summed over
    the workload's distinct inputs, taking each input's first traced op;
    a later traced op of the same input that counts differently is
    reported as a problem.  The traced ops of the known-defect ``probe``
    add their failure counts only.
    """
    problems = []
    names = set().union(*(op.times for op in traced))
    metrics = {name: statistics.median(op.times.get(name, 0.0)
                                       for op in traced)
               for name in names}
    first_of = {}
    for op in traced:
        if op.index not in first_of:
            first_of[op.index] = op
        elif op.exact != first_of[op.index].exact:
            problems.append(f"input {op.index}: counts differ between runs")
    exact = Counter()
    for op in first_of.values():
        exact.update(op.exact)
    exact.update(inputs["exact"])
    for op in probe:
        exact.update({k: v for k, v in op.exact.items()
                      if ".failed." in k or k == "checks.failed"})
    metrics.update(exact)
    metrics.update(inputs["times"])
    for caller in CALLERS:
        key = f"mesh_core.build_mesh.under_{caller}"
        slots = exact[f"{key}.slots"]
        metrics[f"{key}.kept_ratio"] = (exact[f"{key}.kept_slots"] / slots
                                        if slots else 0.0)
    done = [op.seconds for op in untraced if op.error is None]
    traced_done = [op.seconds for op in traced if op.error is None]
    if done and traced_done:
        metrics["trace.op_p50_s"] = statistics.median(traced_done)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_done)
                                           / statistics.median(done) - 1.0)
    return metrics, problems


def inputs_metrics(spans, first: int, last: int, builds: list,
                   kept: set) -> dict:
    """``build_mesh`` use of the traced input-generation pass (under bench).

    ``kept`` holds the positions in ``builds`` whose face arrays some traced
    op's result held.
    """
    own = self_times(spans, first, last)
    times = {"mesh_core.build_mesh.under_bench.self_s": sum(
        own[index - first] for index, _, _ in builds)}
    exact = Counter()
    for k, (_, slots, _) in enumerate(builds):
        exact["mesh_core.build_mesh.under_bench.calls"] += 1
        exact["mesh_core.build_mesh.under_bench.slots"] += slots
        if k in kept:
            exact["mesh_core.build_mesh.under_bench.kept_slots"] += slots
    return {"times": times, "exact": exact}
