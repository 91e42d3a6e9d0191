import ast
import inspect
from pathlib import Path

import poishom

SRC = Path(poishom.__file__).resolve().parent

# Exported names, and public methods or properties of exported classes
# ("Class.name"), that nothing in the package calls, each with the reason it
# is public.
ENTRY_POINTS = {
    "elw_connection": "the top-form connection from its own formula; tests compare it with a twist",
    "ComplexSlice.matrix": "dense view read by bench/tracing.py's slice statistics and by the rank tests",
}


def _reads_in_src() -> tuple:
    """(names, attribute names) read in the package modules, each outside the
    definitions of that name."""
    names, attributes = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names, attributes


def _public_members() -> set:
    """Each public method or property of an exported class, as "Class.name"."""
    members = set()
    for name in poishom.__all__:
        cls = getattr(poishom, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (property, classmethod, staticmethod)) or inspect.isfunction(value):
                members.add(f"{name}.{attr}")
    return members


def test_all_names_resolve_once():
    assert len(poishom.__all__) == len(set(poishom.__all__))
    for name in poishom.__all__:
        assert getattr(poishom, name) is not None, name


def test_every_export_is_used_or_a_listed_entry_point():
    unused = set(poishom.__all__) - set.union(*_reads_in_src())
    assert unused <= set(ENTRY_POINTS), sorted(unused - set(ENTRY_POINTS))
    assert {name for name in ENTRY_POINTS if "." not in name} <= set(poishom.__all__), (
        "stale entry point"
    )


def test_every_public_method_is_used_or_a_listed_entry_point():
    # a method or property counts as read only through an attribute, x.name
    members = _public_members()
    _, attributes = _reads_in_src()
    unused = {member for member in members if member.split(".")[1] not in attributes}
    assert unused <= set(ENTRY_POINTS), sorted(unused - set(ENTRY_POINTS))
    assert {name for name in ENTRY_POINTS if "." in name} <= members, "stale entry point"
