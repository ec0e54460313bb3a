"""The benchmark's two workloads at full size and its known-defect probe,
run once.

A change that breaks one of the benchmark's output checks fails here, in
the test suite, and not only in a full benchmark run.  ``bench/workloads.py``
is imported as it is, read-only.
"""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import snubweave
from snubweave import (classic_schemes, errors, fractal, mesh_core, snub,
                       weaving)

from mesh_compare import MESH_ARRAYS

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

LIB = SimpleNamespace(mesh_core=mesh_core, snub=snub, weaving=weaving,
                      classic_schemes=classic_schemes, fractal=fractal,
                      errors=errors)


def records(obj, kinds):
    """Every instance of ``kinds`` reachable through containers and
    dataclass fields of ``obj``."""
    if isinstance(obj, kinds):
        yield obj
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from records(x, kinds)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from records(getattr(obj, f.name), kinds)


def test_weaves_full_size_item_passes_its_checks():
    weaves = workloads.WORKLOADS["weaves"]
    (item,) = weaves.items(LIB, np.random.default_rng(3), warm=False)
    out = weaves.run(LIB, item)
    # the op builds no per-strand Python objects: weaves and tilings hold
    # arrays (and meshes, which hold arrays), never tuples or dicts, and
    # the ribbons are one record of arrays with one entry per strand
    kinds = (weaving.Weaving, weaving.GluedTiling, weaving.Ribbons)
    found = set()
    for record in records(out, kinds):
        found.add(type(record))
        allowed = np.ndarray if isinstance(record, weaving.Ribbons) else (
            np.ndarray, str, type(None), mesh_core.Mesh, weaving.GluedTiling)
        for f in dataclasses.fields(record):
            assert isinstance(getattr(record, f.name), allowed), f.name
    assert found == set(kinds)
    assert len(out[0]["ribbons"]) == len(out[0]["weaving"].closed)
    assert weaves.check(item, out)
    assert weaves.faces_out(out) > 0
    # every mesh the op returns (histories, tilings, classic results and
    # their intermediates, the face-split quads) holds its seven arrays
    # and no table the op or the check derived from them
    meshes = {id(m): m for m in records(out, mesh_core.Mesh)}
    assert len(meshes) > 10
    for m in meshes.values():
        assert set(vars(m)) == set(MESH_ARRAYS), m


def test_deep_refine_full_size_item_passes_its_checks():
    # the history, boundary-growth, dimension, raster and curve-tripling
    # checks on the t=8 snub history (about a second); the warm-up item's
    # L-system curve is too short for the box-counting check
    deep = workloads.WORKLOADS["deep_refine"]
    (item,) = deep.items(LIB, np.random.default_rng(3), warm=False)
    out = deep.run(LIB, item)
    assert deep.check(item, out)
    assert deep.faces_out(out) > 0


def test_known_defects_pass_or_raise_a_typed_error():
    probe = workloads.DEFECT_PROBE
    for item in probe.items(LIB, np.random.default_rng(3)):
        try:
            out = probe.run(LIB, item)
        except snubweave.SnubWeaveError:
            continue
        assert probe.check(item, out)
