"""The package's public surface: what ``snubweave`` exports."""

import ast
import inspect
from pathlib import Path

import snubweave as sw
from snubweave import classic_schemes, errors, fractal, mesh_core, snub, weaving

#: The exception classes ``errors`` defines, by name.
ERROR_CLASSES = {name: obj for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and issubclass(obj, Exception)
                 and obj.__module__ == errors.__name__}


def test_exports_are_the_modules_public_names():
    # every name the package exports is declared public by its module, and
    # every declared name is exported, so a removal leaves no dangling name
    declared = set().union(*(m.__all__ for m in (
        mesh_core, snub, classic_schemes, weaving, fractal)))
    exported = {name for name, obj in vars(sw).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == declared | set(ERROR_CLASSES)


def test_public_names_are_defined_where_declared():
    # a module declares only the classes and functions it defines, so a
    # name moved to another module leaves no stale re-export behind
    for module in (mesh_core, snub, classic_schemes, weaving, fractal):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module, name)


def test_every_error_type_is_raised_by_the_library():
    # an error type no library code raises is dead public API; a base
    # class counts as raised when one of its subclasses is
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    raised_types = [ERROR_CLASSES[name]
                    for name in raised & ERROR_CLASSES.keys()]
    unraised = {name for name, obj in ERROR_CLASSES.items()
                if not any(issubclass(t, obj) for t in raised_types)}
    assert unraised == set()
