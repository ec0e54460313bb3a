"""The package's public surface: what ``snubweave`` exports."""

import inspect

import snubweave as sw
from snubweave import classic_schemes, errors, fractal, mesh_core, snub, weaving


def test_exports_are_the_modules_public_names():
    # every name the package exports is declared public by its module, and
    # every declared name is exported, so a removal leaves no dangling name
    declared = set().union(*(m.__all__ for m in (
        mesh_core, snub, classic_schemes, weaving, fractal)))
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, Exception)
                     and obj.__module__ == errors.__name__}
    exported = {name for name, obj in vars(sw).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == declared | error_classes
