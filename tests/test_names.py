"""No dead names: every top-level function and class of the package is read
somewhere in it, or exported from ``tfnpkit/__init__.py``."""

import ast
import pathlib

import tfnpkit

#: Names kept with no reader in the package, each with its reason.
ALLOWED = {
    # Spanned by name in the bench tracer (``bench/tracing.py`` SPANS), and a
    # reference in the gadget tests; it goes with the next change to the bench.
    ("gadgets", "redirect_zero_inputs"),
}


def _read_names() -> tuple[dict[str, ast.Module], set[tuple[str, str]]]:
    """Each module's syntax tree, and the ``(module, name)`` pairs read in
    the package: a name a module loads outside its own definition, one it
    imports from a sibling and loads, a sibling module's attribute it loads,
    and each name ``__init__`` imports."""
    trees = {p.stem: ast.parse(p.read_text()) for p in pathlib.Path(tfnpkit.__file__).parent.glob("*.py")}
    read = set()
    for mod, tree in trees.items():
        names, attrs = set(), set()
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    attrs.add((node.value.id, node.attr))
        read |= {(mod, name) for name in names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:  # ``from . import circuit``
                        read |= {(alias.name, attr) for base, attr in attrs if base == local}
                    elif mod == "__init__" or local in names:
                        read.add((node.module, alias.name))
    return trees, read


def test_every_top_level_name_is_read_or_exported():
    trees, read = _read_names()
    defined = {
        (mod, top.name)
        for mod, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    }
    assert ALLOWED <= defined
    assert sorted(defined - read - ALLOWED) == []
