"""Run one snubweave benchmark workload and print its metrics.

Run from the root of a checkout::

    python3 bench/run.py --workload deep_refine --seed 0 --seconds 25 --trace 0

The library is imported from the checkout's ``src`` directory, in this one
process and thread.  With ``--trace 0`` the op loop runs untraced and the
last output line carries the end-to-end metrics named in ``BENCHMARK.json``.
With ``--trace 1``, after one untimed pass, every input runs twice per pass,
untraced and traced, and the last line carries the per-layer metrics; the
spans are also written to ``.bench_trace/<workload>-seed<seed>.json``.
Lines before the last one start with ``#`` and hold details (failures by
type, the tail percentile, per-step times).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# numpy reads the thread settings when it loads, so they are set before
# the benchmark's own modules import it.
os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

import numpy as np  # noqa: E402

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Passes a run makes even when they take longer than ``--seconds``, so the
#: medians rest on a few ops; a traced pass runs every input twice.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

LIBRARY_MODULES = ("mesh_core", "snub", "weaving", "classic_schemes",
                   "fractal", "errors")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(src: Path):
    """Fresh import of snubweave from ``src``; returns (package, modules)."""
    for name in [n for n in sys.modules
                 if n == "snubweave" or n.startswith("snubweave.")]:
        del sys.modules[name]
    package = importlib.import_module("snubweave")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"snubweave was imported from {package.__file__}, "
                          f"not from {src}")
    lib = SimpleNamespace(**{name: importlib.import_module(f"snubweave.{name}")
                             for name in LIBRARY_MODULES})
    return package, lib


def set_up(workload, seed: int, src: Path):
    """Import, generate the inputs and warm up; returns the time it took."""
    start = time.perf_counter()
    package, lib = import_library(src)
    items = workload.items(lib, np.random.default_rng(seed), warm=False)
    warm_up(workload, lib,
            workload.items(lib, np.random.default_rng(seed), warm=True))
    return package, lib, items, time.perf_counter() - start


def warm_up(workload, lib, items) -> None:
    for item in items:
        try:
            workload.run(lib, item)
        except lib.errors.SnubWeaveError:
            pass        # the timed ops count failures; warm-up only warms


class Runner:
    """Runs and checks ops; traced ops also yield per-layer metrics."""

    def __init__(self, workload, lib, counter, tracer=None, input_builds=()):
        self.workload, self.lib = workload, lib
        self.counter, self.tracer = counter, tracer
        self.input_builds = list(input_builds)
        self.kept_inputs: set[int] = set()
        self.digests: dict[int, str] = {}
        self.ops: list = []

    def measure(self, items, seconds: float, min_passes: int,
                before_pass=None) -> None:
        """Run whole passes over ``items`` until ``seconds`` would be passed.

        With a tracer, each input runs twice per pass, untraced and traced
        back to back, in alternating order; so both sides see the same
        machine state and the same cache warmth.  ``before_pass``, if
        given, is called untimed before each pass.
        """
        start = time.perf_counter()
        passes = 0
        while True:
            if before_pass is not None:
                before_pass()
            pass_start = time.perf_counter()
            if self.tracer is None:
                modes = (False,)
            elif passes % 2 == 0:
                modes = (False, True)
            else:
                modes = (True, False)
            for index, item in enumerate(items):
                for traced in modes:
                    self.ops.append(self.run(index, item, traced))
            passes += 1
            now = time.perf_counter()
            if passes >= min_passes \
                    and (now - start) + (now - pass_start) > seconds:
                return

    def run(self, index: int, item, traced: bool):
        workload, tracer = self.workload, self.tracer
        if traced:
            first, first_build = len(tracer.spans), len(tracer.builds)
            before = self.counter.snapshot()
            tracer.install()
        out, error, typed, message = None, None, False, ""
        start = time.perf_counter()
        try:
            if traced:
                out = tracer.op(workload.name, workload.run, self.lib, item)
            else:
                out = workload.run(self.lib, item)
        except Exception as exc:        # every failure is counted, not fatal
            error, message = type(exc).__name__, str(exc)
            typed = isinstance(exc, self.lib.errors.SnubWeaveError)
        finally:
            if traced:
                tracer.uninstall()
        seconds = time.perf_counter() - start
        faces = 0
        if error is None:
            try:
                found = workload.check(item, out)
                workloads.require(
                    self.digests.setdefault(index, found) == found,
                    "output differs from an earlier op on the same input")
                faces = workload.faces_out(out)
            except workloads.CheckFailed as exc:
                error, message = "OutputCheck", str(exc)
        op = report.Op(index=index, seconds=seconds, error=error,
                       typed=typed, faces=faces, message=message,
                       traced=traced)
        if traced:
            root = tracer.spans[first]
            op.seconds = root[2] - root[1]
            op.spans = (first, len(tracer.spans))
            after = self.counter.snapshot()
            op.times, op.exact, arrays = report.traced_op_metrics(
                tracer.spans, first, len(tracer.spans),
                tracer.builds[first_build:], out, error,
                {f"snub.{k}": after[k] - before[k] for k in after})
            del tracer.builds[first_build:]
            for k, (_, _, ref) in enumerate(self.input_builds):
                faces_array = ref()
                if faces_array is not None and id(faces_array) in arrays:
                    self.kept_inputs.add(k)
        return op


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def note(label: str, obj) -> None:
    print(f"# {label}: {json.dumps(obj)}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (src / "snubweave" / "__init__.py").is_file():
        print(f"no snubweave package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]
    counter = tracing.attach_disagreement_counter()

    package, lib, items, seconds = set_up(workload, args.seed, src)
    setup_seconds = [seconds]

    if args.trace:
        tracer = tracing.Tracer(package, {layer: getattr(lib, layer)
                                          for layer in tracing.LAYERS})
        tracer.install()
        try:
            items = tracer.op("inputs", workload.items, lib,
                              np.random.default_rng(args.seed), False)
        finally:
            tracer.uninstall()
        input_spans = len(tracer.spans)
        input_builds = list(tracer.builds)
        tracer.builds.clear()
        # one untimed pass at full size, so the first (cold) op is on
        # neither side of the traced/untraced comparison
        warm_up(workload, lib, items)
        runner = Runner(workload, lib, counter, tracer, input_builds)
        runner.measure(items, args.seconds, MIN_TRACED_PASSES)
    else:
        # one more set-up before every pass, so that the median ``setup_s``
        # samples the machine over the whole run, as the ops do; the ops
        # keep using the library and inputs of the first set-up
        runner = Runner(workload, lib, counter)
        runner.measure(items, args.seconds, MIN_PASSES, lambda: (
            setup_seconds.append(set_up(workload, args.seed, src)[3])))

    # the known-defect probe: each input once, untimed, after the timed loop
    probe = Runner(workloads.DEFECT_PROBE, lib, counter,
                   tracer if args.trace else None)
    for index, item in enumerate(workloads.DEFECT_PROBE.items(
            lib, np.random.default_rng([args.seed, 1]))):
        probe.ops.append(probe.run(index, item, bool(args.trace)))

    ops = runner.ops
    failed = sum(op.error is not None for op in ops)
    correct = all(op.error is None or op.typed for op in ops + probe.ops)
    problems = sorted({f"{op.error}: {op.message}" for op in ops + probe.ops
                       if op.error and not op.typed})
    if args.trace:
        traced = [op for op in ops if op.traced]
        inputs = report.inputs_metrics(tracer.spans, 0, input_spans,
                                       input_builds, runner.kept_inputs)
        values, repeat_problems = report.per_layer(
            traced, [op for op in ops if not op.traced], inputs, probe.ops)
        problems += repeat_problems
        correct = correct and not repeat_problems
        wanted = spec["per_layer"]
        note("failures_by_layer", {k: v for k, v in values.items() if v and (
            ".failed." in k or k == "checks.failed")})
        note("first_ops_s", [[op.traced, op.seconds] for op in ops[:8]])
        note("snub_step_s", tracing.snub_step_times(tracer.spans,
                                                    *traced[0].spans))
        note("accounting", {k: values.get(k, 0.0) for k in (
            "trace.op_p50_s", "trace.self_sum_s", "trace.glue_s",
            "trace.overhead_ratio")})
        write_spans(root, args, tracer.spans)
    else:
        values, details = report.end_to_end(ops, setup_seconds, probe.ops)
        note("details", {"workload": args.workload, "seed": args.seed,
                         **details})
        wanted = spec["end_to_end"]
    for problem in problems[:5]:
        note("problem", problem)
    emit({"correct": bool(correct), "attempted": len(ops), "failed": failed,
          "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                  "unit": m["unit"]} for m in wanted}})
    return 0


def write_spans(root: Path, args, spans) -> None:
    out = root / ".bench_trace"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                           "error"], "spans": spans}))


if __name__ == "__main__":
    sys.exit(main())
