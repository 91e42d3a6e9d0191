import ast
from pathlib import Path

import poishom

SRC = Path(poishom.__file__).resolve().parent

# Exported names that nothing in the package calls, each with the reason it
# is public.
ENTRY_POINTS = {
    "blacktriangle_inverse": "inverse of the duality isomorphism; the tests' reference for it",
    "elw_connection": "the top-form connection from its own formula; tests compare it with a twist",
}


def _names_used_in_src() -> set:
    """Names read in the package modules, outside each name's own definition."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            names.discard(getattr(node, "name", None))
            used |= names
    return used


def test_all_names_resolve_once():
    assert len(poishom.__all__) == len(set(poishom.__all__))
    for name in poishom.__all__:
        assert getattr(poishom, name) is not None, name


def test_every_export_is_used_or_a_listed_entry_point():
    unused = set(poishom.__all__) - _names_used_in_src()
    assert unused <= set(ENTRY_POINTS), sorted(unused - set(ENTRY_POINTS))
    assert set(ENTRY_POINTS) <= set(poishom.__all__), "stale entry point"
