"""The package exports only what its callers use.

A public function or class that nothing in the package, the demos or the
benchmark names is surface kept alive by the tests alone: such a name either
moves into the tests as a reference path or goes.
"""

import ast
import inspect
from pathlib import Path

import beliefcomm

ROOT = Path(__file__).resolve().parents[1]


def _names_in(paths) -> set[str]:
    """Names, attributes, imported names and identifier-like strings."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_function_and_class_has_a_caller():
    package = ROOT / "src" / "beliefcomm"
    callers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "bench").glob("*.py"))
    used = _names_in(callers)
    public = [name for name in beliefcomm.__all__
              if inspect.isfunction(getattr(beliefcomm, name))
              or inspect.isclass(getattr(beliefcomm, name))]
    assert sorted(set(public) - used) == []


# The per-stream numpy accessors are the Philox kernel's reference: the
# tests check every kernel draw against them, and nothing else calls them.
_KERNEL_REFERENCES = {"CommonRandomness.candidate_stream",
                      "CommonRandomness.selection_stream",
                      "CommonRandomness.data_stream"}


def _attributes_in(paths) -> set[str]:
    """Attribute names read or called, x.attr; a string never counts."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _is_member(value) -> bool:
    """A method, property, static method or class method."""
    return inspect.isfunction(value) or isinstance(
        value, (property, staticmethod, classmethod))


def test_every_public_method_and_property_has_a_caller():
    callers = sorted((ROOT / "src" / "beliefcomm").glob("*.py"))
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "bench").glob("*.py"))
    used = _attributes_in(callers)
    members = {f"{name}.{attr}"
               for name in beliefcomm.__all__
               if inspect.isclass(cls := getattr(beliefcomm, name))
               for attr, value in vars(cls).items()
               if not attr.startswith("_") and _is_member(value)}
    unused = {m for m in members if m.split(".")[1] not in used}
    assert sorted(unused - _KERNEL_REFERENCES) == []
